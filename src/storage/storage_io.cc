#include "storage/storage_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace capp {
namespace {

std::string ErrnoText() { return std::strerror(errno); }

Status WriteAllFd(int fd, const uint8_t* data, size_t n,
                  const std::string& path) {
  size_t done = 0;
  while (done < n) {
    const ssize_t wrote = ::write(fd, data + done, n - done);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("write(" + path + ") failed: " + ErrnoText());
    }
    done += static_cast<size_t>(wrote);
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound(path + " does not exist");
    return Status::Internal("open(" + path + ") failed: " + ErrnoText());
  }
  // One allocation of the file's size; the loop only covers short reads.
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status status =
        Status::Internal("fstat(" + path + ") failed: " + ErrnoText());
    ::close(fd);
    return status;
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(st.st_size));
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t got = ::read(fd, bytes.data() + done, bytes.size() - done);
    if (got < 0) {
      if (errno == EINTR) continue;
      const Status status =
          Status::Internal("read(" + path + ") failed: " + ErrnoText());
      ::close(fd);
      return status;
    }
    if (got == 0) break;  // the file shrank since fstat
    done += static_cast<size_t>(got);
  }
  ::close(fd);
  bytes.resize(done);
  return bytes;
}

Status EnsureDirectory(const std::string& dir) {
  // Walk the path, creating each component; EEXIST is success (the usual
  // mkdir -p semantics, without pulling in std::filesystem exceptions).
  std::string prefix;
  prefix.reserve(dir.size());
  for (size_t i = 0; i <= dir.size(); ++i) {
    if (i < dir.size() && dir[i] != '/') {
      prefix.push_back(dir[i]);
      continue;
    }
    if (i < dir.size()) prefix.push_back('/');
    if (prefix.empty() || prefix == "/") continue;
    if (::mkdir(prefix.c_str(), 0777) != 0 && errno != EEXIST) {
      return Status::Internal("mkdir(" + prefix + ") failed: " +
                              ErrnoText());
    }
  }
  struct stat st;
  if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::Internal(dir + " exists but is not a directory");
  }
  return Status::OK();
}

Status FsyncDirectory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return Status::Internal("open(" + dir + ") failed: " + ErrnoText());
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::Internal("fsync(" + dir + ") failed: " + ErrnoText());
  }
  return Status::OK();
}

Status AtomicWriteFile(const std::string& path,
                       std::span<const uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) {
    return Status::Internal("open(" + tmp + ") failed: " + ErrnoText());
  }
  Status status = WriteAllFd(fd, bytes.data(), bytes.size(), tmp);
  if (status.ok() && ::fdatasync(fd) != 0) {
    status = Status::Internal("fdatasync(" + tmp + ") failed: " +
                              ErrnoText());
  }
  ::close(fd);
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status rename_status = Status::Internal(
        "rename(" + tmp + " -> " + path + ") failed: " + ErrnoText());
    ::unlink(tmp.c_str());
    return rename_status;
  }
  const size_t slash = path.find_last_of('/');
  return FsyncDirectory(slash == std::string::npos
                            ? std::string(".")
                            : path.substr(0, slash));
}

Status RemoveFileIfExists(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::Internal("unlink(" + path + ") failed: " + ErrnoText());
  }
  return Status::OK();
}

}  // namespace capp
