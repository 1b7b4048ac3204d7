// Internal byte/file helpers shared by the storage tier's WAL and
// checkpoint codecs: explicit little-endian packing (so segment and
// snapshot files are portable across hosts) and the small set of POSIX
// file operations durability needs (read-whole-file, fdatasync, atomic
// replace via tmp + rename + directory fsync).
#ifndef CAPP_STORAGE_STORAGE_IO_H_
#define CAPP_STORAGE_STORAGE_IO_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/status.h"

namespace capp {

inline void AppendLe32(uint32_t value, std::vector<uint8_t>& out) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(value >> (8 * i)));
  }
}

inline void AppendLe64(uint64_t value, std::vector<uint8_t>& out) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(value >> (8 * i)));
  }
}

/// Reads bytes [offset, offset + 4) as LE; caller checks bounds.
inline uint32_t ReadLe32(std::span<const uint8_t> bytes, size_t offset) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(bytes[offset + i]) << (8 * i);
  }
  return value;
}

/// Reads bytes [offset, offset + 8) as LE; caller checks bounds.
inline uint64_t ReadLe64(std::span<const uint8_t> bytes, size_t offset) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(bytes[offset + i]) << (8 * i);
  }
  return value;
}

/// Reads a whole file into memory, in one allocation of the size fstat
/// reports. NotFound when the path does not exist; Internal on any other
/// I/O failure.
Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

/// Creates the directory (and parents) if missing.
Status EnsureDirectory(const std::string& dir);

/// fsyncs a directory so a rename/unlink inside it is durable.
Status FsyncDirectory(const std::string& dir);

/// Durably replaces `path` with `bytes`: write to path + ".tmp",
/// fdatasync, rename over `path`, fsync the parent directory. A crash at
/// any point leaves either the old file or the complete new one, never a
/// torn mix.
Status AtomicWriteFile(const std::string& path,
                       std::span<const uint8_t> bytes);

/// Deletes a file; missing files are not an error (a crash between
/// unlink and directory fsync may have half-removed it already).
Status RemoveFileIfExists(const std::string& path);

}  // namespace capp

#endif  // CAPP_STORAGE_STORAGE_IO_H_
