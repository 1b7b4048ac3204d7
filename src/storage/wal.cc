#include "storage/wal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "storage/storage_io.h"
#include "telemetry/instruments.h"
#include "telemetry/metrics.h"
#include "transport/wire_format.h"

namespace capp {
namespace {

constexpr char kSegmentMagic[8] = {'C', 'A', 'P', 'P', 'W', 'A', 'L', '1'};
constexpr uint32_t kSegmentVersion = 1;
constexpr size_t kSegmentHeaderBytes = 8 + 4 + 8 + 8 + 4;  // 32
// Trailer marker deliberately differs from the frame magic (0xC5), so a
// scanner can tell "sealed here" from "next frame" with one byte.
constexpr uint8_t kTrailerMarker = 0xA7;
constexpr size_t kTrailerBytes = 1 + 8 + 4;  // 13
// Buffered bytes before an ordinary write() (no sync) bounds user-space
// buffering; the fsync policy is layered on top of this.
constexpr size_t kWriteBufferBytes = 256u << 10;

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Writes the path of segment `seqno` into `path`, reusing its capacity.
void AssignSegmentPath(const std::string& dir, uint64_t seqno,
                       std::string& path) {
  char name[32];
  std::snprintf(name, sizeof(name), "/wal-%08llu.log",
                static_cast<unsigned long long>(seqno));
  path.assign(dir);
  path += name;
}

// Parses "wal-NNNNNNNN.log" into a seqno; returns false for other names.
bool ParseSegmentName(std::string_view name, uint64_t* seqno) {
  if (!name.starts_with("wal-") || !name.ends_with(".log")) return false;
  const std::string_view digits = name.substr(4, name.size() - 8);
  if (digits.empty() || digits.size() > 20) return false;
  uint64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *seqno = value;
  return true;
}

void AppendSegmentHeader(uint64_t fingerprint, uint64_t seqno,
                         std::vector<uint8_t>& out) {
  const size_t start = out.size();
  for (size_t i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(kSegmentMagic[i]));
  }
  AppendLe32(kSegmentVersion, out);
  AppendLe64(fingerprint, out);
  AppendLe64(seqno, out);
  AppendLe32(Crc32({out.data() + start, out.size() - start}), out);
}

void AppendSegmentTrailer(uint64_t frame_count, std::vector<uint8_t>& out) {
  const size_t start = out.size();
  out.push_back(kTrailerMarker);
  AppendLe64(frame_count, out);
  AppendLe32(Crc32({out.data() + start, out.size() - start}), out);
}

std::string ErrnoText() { return std::strerror(errno); }

// One decoded frame; `values` keeps its capacity from frame to frame.
struct SegmentFrame {
  uint64_t user_id = 0;
  uint64_t base_slot = 0;
  uint64_t dims = 1;
  std::vector<double> values;
};

// Reads one segment file front to back -- the header, then frames one at
// a time until the trailer, damage or EOF -- through a fixed buffer: the
// unconsumed tail moves to the front before each refill, and the buffer
// grows only for a frame larger than itself, never past the bytes left
// in the file. A reader therefore holds O(buffer + largest frame)
// whatever the segment's size. "Cut short" is judged against the end of
// the file, never the end of the buffer, so a frame straddling a refill
// is not torn. ScanWalSegment and ReplayWalSegment share this one loop.
class SegmentReader {
 public:
  enum class Step {
    kFrame,   // a whole, CRC-valid frame was decoded
    kSealed,  // a valid trailer closes the segment
    kEnd,     // EOF, or damage (torn or CRC-failing frame, lying trailer)
  };

  SegmentReader() = default;
  SegmentReader(const SegmentReader&) = delete;
  SegmentReader& operator=(const SegmentReader&) = delete;
  ~SegmentReader() {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Open(const std::string& path);

  // Reads the header and checks its magic, version and CRC. False, with
  // nothing consumed, when it is short or damaged: we cannot trust a
  // fingerprint or seqno out of a bad-CRC header.
  Result<bool> ReadHeader(uint64_t* fingerprint, uint64_t* seqno);

  // Decodes the next frame into `frame`. Fails on an I/O error, and with
  // OutOfRange on a whole, CRC-valid frame whose run ends past the
  // collector's cell index (the only OutOfRange the decoder returns): that
  // is not a torn write but data no collector can ingest, and truncating
  // it away would hide it.
  Result<Step> Next(SegmentFrame& frame);

  uint64_t frames() const { return frames_; }
  // File offset of the first byte not yet consumed.
  uint64_t offset() const { return read_ - (end_ - begin_); }
  uint64_t file_size() const { return size_; }

 private:
  std::span<const uint8_t> Window() const {
    return {buffer_.data() + begin_, end_ - begin_};
  }
  // Makes at least min(want, bytes left in the file) bytes available.
  Status Fill(size_t want);

  std::string path_;
  int fd_ = -1;
  uint64_t size_ = 0;  // file size at Open
  uint64_t read_ = 0;  // bytes read from the file so far
  std::vector<uint8_t> buffer_;
  size_t begin_ = 0;  // the unconsumed bytes are buffer_[begin_, end_)
  size_t end_ = 0;
  uint64_t frames_ = 0;
};

Status SegmentReader::Open(const std::string& path) {
  path_ = path;
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) {
    if (errno == ENOENT) return Status::NotFound(path + " does not exist");
    return Status::Internal("open(" + path + ") failed: " + ErrnoText());
  }
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    return Status::Internal("fstat(" + path + ") failed: " + ErrnoText());
  }
  size_ = static_cast<uint64_t>(st.st_size);
  buffer_.resize(std::min<uint64_t>(size_, kWalReadBufferBytes));
  return Status::OK();
}

Status SegmentReader::Fill(size_t want) {
  const size_t held = end_ - begin_;
  want = static_cast<size_t>(
      std::min<uint64_t>(want, held + (size_ - read_)));
  if (held >= want) return Status::OK();
  if (begin_ + want > buffer_.size()) {
    std::memmove(buffer_.data(), buffer_.data() + begin_, held);
    begin_ = 0;
    end_ = held;
    if (want > buffer_.size()) buffer_.resize(want);
  }
  while (end_ - begin_ < want) {
    const size_t room = static_cast<size_t>(
        std::min<uint64_t>(buffer_.size() - end_, size_ - read_));
    const ssize_t got = ::read(fd_, buffer_.data() + end_, room);
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("read(" + path_ + ") failed: " + ErrnoText());
    }
    if (got == 0) {
      return Status::Internal("wal segment " + path_ +
                              " shrank while being read");
    }
    end_ += static_cast<size_t>(got);
    read_ += static_cast<uint64_t>(got);
  }
  return Status::OK();
}

Result<bool> SegmentReader::ReadHeader(uint64_t* fingerprint,
                                       uint64_t* seqno) {
  CAPP_RETURN_IF_ERROR(Fill(kSegmentHeaderBytes));
  const std::span<const uint8_t> bytes = Window();
  if (bytes.size() < kSegmentHeaderBytes ||
      std::memcmp(bytes.data(), kSegmentMagic, 8) != 0 ||
      ReadLe32(bytes, 8) != kSegmentVersion ||
      ReadLe32(bytes, kSegmentHeaderBytes - 4) !=
          Crc32(bytes.first(kSegmentHeaderBytes - 4))) {
    return false;
  }
  *fingerprint = ReadLe64(bytes, 12);
  *seqno = ReadLe64(bytes, 20);
  begin_ += kSegmentHeaderBytes;
  return true;
}

Result<SegmentReader::Step> SegmentReader::Next(SegmentFrame& frame) {
  static_assert(kWireMaxFrameHeaderBytes >= kTrailerBytes);
  CAPP_RETURN_IF_ERROR(Fill(kWireMaxFrameHeaderBytes));
  std::span<const uint8_t> bytes = Window();
  if (bytes.empty()) return Step::kEnd;
  if (bytes[0] == kTrailerMarker) {
    if (bytes.size() >= kTrailerBytes &&
        ReadLe32(bytes, 9) == Crc32(bytes.first(9)) &&
        ReadLe64(bytes, 1) == frames_) {
      begin_ += kTrailerBytes;
      return Step::kSealed;
    }
    return Step::kEnd;  // torn or lying trailer: truncate here
  }
  // A damaged header, or a frame running past the end of the file, ends
  // the valid prefix; the buffer never grows for bytes the file lacks
  // (a damaged count varint can claim kWireMaxRunLength values).
  const Result<size_t> length = UserRunFrameLength(bytes);
  if (!length.ok() || *length > bytes.size() + (size_ - read_)) {
    return Step::kEnd;
  }
  CAPP_RETURN_IF_ERROR(Fill(*length));
  const auto consumed =
      DecodeUserRunFrame(Window().first(*length), &frame.user_id,
                         &frame.base_slot, &frame.dims, frame.values);
  if (!consumed.ok()) {
    if (consumed.status().code() == StatusCode::kOutOfRange) {
      return Status::OutOfRange(
          "wal segment " + path_ + " holds a frame at byte " +
          std::to_string(offset()) + " that no collector can ingest (" +
          consumed.status().message() + "); refusing to replay it");
    }
    return Step::kEnd;  // CRC failure: truncate here
  }
  begin_ += *consumed;
  ++frames_;
  return Step::kFrame;
}

}  // namespace

std::string_view WalFsyncPolicyName(WalFsyncPolicy policy) {
  switch (policy) {
    case WalFsyncPolicy::kPerRun:
      return "run";
    case WalFsyncPolicy::kPerFrames:
      return "frames";
    case WalFsyncPolicy::kTimed:
      return "timer";
  }
  return "unknown";
}

Result<WalFsyncPolicy> ParseWalFsyncPolicy(std::string_view name) {
  for (WalFsyncPolicy policy :
       {WalFsyncPolicy::kPerRun, WalFsyncPolicy::kPerFrames,
        WalFsyncPolicy::kTimed}) {
    if (name == WalFsyncPolicyName(policy)) return policy;
  }
  return Status::InvalidArgument("unknown fsync policy: " +
                                 std::string(name));
}

Status ValidateWalOptions(const WalOptions& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("wal dir must be non-empty");
  }
  if (options.fsync_every_frames < 1) {
    return Status::InvalidArgument("wal fsync_every_frames must be >= 1");
  }
  if (options.fsync_interval_ms < 1) {
    return Status::InvalidArgument("wal fsync_interval_ms must be >= 1");
  }
  if (options.segment_max_bytes < kSegmentHeaderBytes + kTrailerBytes) {
    return Status::InvalidArgument("wal segment_max_bytes is absurdly small");
  }
  return Status::OK();
}

uint64_t WalFingerprint(std::span<const uint64_t> words) {
  uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a offset basis
  for (uint64_t word : words) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

WalWriter::WalWriter(WalOptions options) : options_(std::move(options)) {}

WalWriter::WalWriter(WalWriter&& other) noexcept
    : options_(std::move(other.options_)),
      fd_(other.fd_),
      seqno_(other.seqno_),
      frames_in_segment_(other.frames_in_segment_),
      bytes_in_segment_(other.bytes_in_segment_),
      frames_since_sync_(other.frames_since_sync_),
      last_sync_ms_(other.last_sync_ms_),
      buffer_(std::move(other.buffer_)),
      path_(std::move(other.path_)),
      sealed_(other.sealed_),
      stats_(other.stats_) {
  other.fd_ = -1;
  other.sealed_ = true;
}

WalWriter::~WalWriter() {
  if (!sealed_ && fd_ >= 0) (void)SealCurrentLocked();
}

Result<WalWriter> WalWriter::Create(WalOptions options,
                                    uint64_t first_seqno) {
  CAPP_RETURN_IF_ERROR(ValidateWalOptions(options));
  CAPP_RETURN_IF_ERROR(EnsureDirectory(options.dir));
  WalWriter writer(std::move(options));
  // Sized once here, so appends and rotations allocate nothing (a frame
  // larger than the write buffer aside): the thread that appends never
  // needs a malloc arena of its own.
  writer.buffer_.reserve(2 * kWriteBufferBytes);
  writer.path_.reserve(writer.options_.dir.size() + 32);
  CAPP_RETURN_IF_ERROR(writer.OpenSegment(first_seqno));
  writer.last_sync_ms_ = NowMs();
  return writer;
}

Status WalWriter::OpenSegment(uint64_t seqno) {
  AssignSegmentPath(options_.dir, seqno, path_);
  const std::string& path = path_;
  // O_EXCL: the writer never appends to an existing segment (recovery is
  // read-only and hands us the next unused seqno); a collision means two
  // writers share the directory, which must fail instead of interleave.
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  if (fd_ < 0) {
    return Status::Internal("open(" + path + ") failed: " + ErrnoText());
  }
  seqno_ = seqno;
  frames_in_segment_ = 0;
  bytes_in_segment_ = 0;
  buffer_.clear();
  AppendSegmentHeader(options_.fingerprint, seqno, buffer_);
  return Status::OK();
}

Status WalWriter::FlushBuffer() {
  size_t done = 0;
  while (done < buffer_.size()) {
    const ssize_t wrote =
        ::write(fd_, buffer_.data() + done, buffer_.size() - done);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("wal write failed: " + ErrnoText());
    }
    done += static_cast<size_t>(wrote);
  }
  buffer_.clear();
  return Status::OK();
}

Status WalWriter::Sync() {
  if (fd_ < 0) {
    return Status::FailedPrecondition("wal writer is sealed");
  }
  // fdatasync is the dominant durability cost, so it is always timed when
  // telemetry is on -- at microseconds-to-milliseconds each, the timer
  // pair is noise.
  telemetry::ScopedTimer fsync_timer;
  if (telemetry::Enabled()) {
    telemetry::metrics::WalFsyncsTotal().Add(1);
    fsync_timer.Arm(&telemetry::metrics::WalFsyncSeconds());
  }
  CAPP_RETURN_IF_ERROR(FlushBuffer());
  if (::fdatasync(fd_) != 0) {
    return Status::Internal("wal fdatasync failed: " + ErrnoText());
  }
  ++stats_.fsyncs;
  frames_since_sync_ = 0;
  last_sync_ms_ = NowMs();
  return Status::OK();
}

Status WalWriter::MaybeSyncAfterAppend() {
  switch (options_.fsync_policy) {
    case WalFsyncPolicy::kPerRun:
      return Sync();
    case WalFsyncPolicy::kPerFrames:
      if (frames_since_sync_ >= options_.fsync_every_frames) return Sync();
      return Status::OK();
    case WalFsyncPolicy::kTimed:
      if (NowMs() - last_sync_ms_ >=
          static_cast<int64_t>(options_.fsync_interval_ms)) {
        return Sync();
      }
      return Status::OK();
  }
  return Status::OK();
}

Status WalWriter::Append(std::span<const uint8_t> frame_bytes) {
  if (sealed_ || fd_ < 0) {
    return Status::FailedPrecondition("wal writer is sealed");
  }
  telemetry::ScopedTimer append_timer;
  if (telemetry::Enabled()) {
    telemetry::metrics::WalAppendsTotal().Add(1);
    telemetry::metrics::WalAppendedBytesTotal().Add(frame_bytes.size());
    if (telemetry::ShouldSample()) {
      append_timer.Arm(&telemetry::metrics::WalAppendSeconds());
    }
  }
  buffer_.insert(buffer_.end(), frame_bytes.begin(), frame_bytes.end());
  ++frames_in_segment_;
  bytes_in_segment_ += frame_bytes.size();
  ++frames_since_sync_;
  ++stats_.frames_appended;
  stats_.bytes_appended += frame_bytes.size();
  if (buffer_.size() >= kWriteBufferBytes) {
    CAPP_RETURN_IF_ERROR(FlushBuffer());
  }
  CAPP_RETURN_IF_ERROR(MaybeSyncAfterAppend());
  if (bytes_in_segment_ >= options_.segment_max_bytes) {
    CAPP_RETURN_IF_ERROR(Rotate());
  }
  return Status::OK();
}

Status WalWriter::SealCurrentLocked() {
  if (fd_ < 0) return Status::OK();
  AppendSegmentTrailer(frames_in_segment_, buffer_);
  Status status = FlushBuffer();
  if (status.ok() && ::fdatasync(fd_) != 0) {
    status = Status::Internal("wal fdatasync failed: " + ErrnoText());
  }
  ::close(fd_);
  fd_ = -1;
  if (status.ok()) {
    ++stats_.fsyncs;
    ++stats_.segments_sealed;
  }
  return status;
}

Status WalWriter::Rotate() {
  if (sealed_ || fd_ < 0) {
    return Status::FailedPrecondition("wal writer is sealed");
  }
  telemetry::ScopedTimer rotate_timer;
  if (telemetry::Enabled()) {
    telemetry::metrics::WalRotationsTotal().Add(1);
    rotate_timer.Arm(&telemetry::metrics::WalRotateSeconds());
  }
  CAPP_RETURN_IF_ERROR(SealCurrentLocked());
  CAPP_RETURN_IF_ERROR(OpenSegment(seqno_ + 1));
  return Status::OK();
}

Status WalWriter::Seal() {
  if (sealed_) return Status::OK();
  sealed_ = true;
  return SealCurrentLocked();
}

Result<std::vector<WalSegmentScan>> ListWalSegments(const std::string& dir) {
  std::vector<WalSegmentScan> segments;
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) {
    if (errno == ENOENT) return segments;
    return Status::Internal("opendir(" + dir + ") failed: " + ErrnoText());
  }
  while (struct dirent* entry = ::readdir(handle)) {
    uint64_t seqno = 0;
    if (!ParseSegmentName(entry->d_name, &seqno)) continue;
    WalSegmentScan scan;
    scan.seqno = seqno;
    scan.path = dir + "/" + entry->d_name;
    segments.push_back(std::move(scan));
  }
  ::closedir(handle);
  std::sort(segments.begin(), segments.end(),
            [](const WalSegmentScan& a, const WalSegmentScan& b) {
              return a.seqno < b.seqno;
            });
  return segments;
}

Result<WalSegmentScan> ScanWalSegment(const std::string& path,
                                      uint64_t expected_fingerprint) {
  SegmentReader reader;
  CAPP_RETURN_IF_ERROR(reader.Open(path));
  WalSegmentScan scan;
  scan.path = path;
  // A short or CRC-broken header marks the whole file torn; the caller
  // decides (final segment: crash artifact; earlier: fatal).
  uint64_t fingerprint = 0;
  CAPP_ASSIGN_OR_RETURN(const bool header_ok,
                        reader.ReadHeader(&fingerprint, &scan.seqno));
  if (!header_ok) {
    scan.discarded_bytes = reader.file_size();
    return scan;
  }
  if (fingerprint != expected_fingerprint) {
    char text[160];
    std::snprintf(text, sizeof(text),
                  "wal segment %s was written under a different engine "
                  "configuration (fingerprint %016llx, expected %016llx)",
                  path.c_str(),
                  static_cast<unsigned long long>(fingerprint),
                  static_cast<unsigned long long>(expected_fingerprint));
    return Status::FailedPrecondition(text);
  }
  scan.header_ok = true;

  // Frames until the trailer, damage, or EOF.
  SegmentFrame frame;
  SegmentReader::Step step = SegmentReader::Step::kEnd;
  do {
    CAPP_ASSIGN_OR_RETURN(step, reader.Next(frame));
  } while (step == SegmentReader::Step::kFrame);
  scan.sealed = step == SegmentReader::Step::kSealed;
  scan.frames = reader.frames();
  scan.frames_end = reader.offset() - (scan.sealed ? kTrailerBytes : 0);
  scan.discarded_bytes = reader.file_size() - reader.offset();
  return scan;
}

Status RepairWalSegment(const WalSegmentScan& scan) {
  if (!scan.header_ok) {
    // Nothing in the file survived the crash; a later recovery must not
    // trip over it as a corrupt interior segment.
    return RemoveFileIfExists(scan.path);
  }
  if (scan.sealed && scan.discarded_bytes == 0) return Status::OK();
  const int fd = ::open(scan.path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::Internal("open(" + scan.path +
                            ") for repair failed: " + ErrnoText());
  }
  Status status = Status::OK();
  // Keep an already-valid trailer (junk after it is the only damage);
  // otherwise drop the torn tail and seal at the last valid frame.
  const off_t keep = static_cast<off_t>(
      scan.sealed ? scan.frames_end + kTrailerBytes : scan.frames_end);
  if (::ftruncate(fd, keep) != 0) {
    status = Status::Internal("ftruncate(" + scan.path +
                              ") failed: " + ErrnoText());
  }
  if (status.ok() && !scan.sealed) {
    std::vector<uint8_t> trailer;
    AppendSegmentTrailer(scan.frames, trailer);
    size_t done = 0;
    while (done < trailer.size()) {
      const ssize_t wrote = ::pwrite(fd, trailer.data() + done,
                                     trailer.size() - done, keep + done);
      if (wrote < 0) {
        if (errno == EINTR) continue;
        status = Status::Internal("wal repair write failed: " + ErrnoText());
        break;
      }
      done += static_cast<size_t>(wrote);
    }
  }
  if (status.ok() && ::fdatasync(fd) != 0) {
    status = Status::Internal("wal repair fdatasync failed: " + ErrnoText());
  }
  ::close(fd);
  return status;
}

Status ReplayWalSegment(
    const WalSegmentScan& scan,
    const std::function<void(uint64_t user_id, uint64_t base_slot,
                             uint64_t dims,
                             std::span<const double> values)>& apply) {
  if (scan.frames == 0) return Status::OK();
  SegmentReader reader;
  CAPP_RETURN_IF_ERROR(reader.Open(scan.path));
  uint64_t fingerprint = 0;
  uint64_t seqno = 0;
  CAPP_ASSIGN_OR_RETURN(const bool header_ok,
                        reader.ReadHeader(&fingerprint, &seqno));
  SegmentFrame frame;
  while (header_ok && reader.frames() < scan.frames) {
    const auto step = reader.Next(frame);
    if (!step.ok()) {
      return Status::Internal("wal segment " + scan.path +
                              " changed between scan and replay: " +
                              step.status().ToString());
    }
    if (*step != SegmentReader::Step::kFrame) break;
    apply(frame.user_id, frame.base_slot, frame.dims, frame.values);
  }
  if (reader.frames() < scan.frames) {
    return Status::Internal("wal segment " + scan.path +
                            " changed between scan and replay");
  }
  return Status::OK();
}

}  // namespace capp
