// Write-ahead log of user-run wire frames: the durability substrate of
// the collector tier.
//
// A WAL directory holds numbered segment files:
//
//   wal-00000001.log, wal-00000002.log, ...
//
// Each segment is
//
//   [header: "CAPPWAL1" magic | u32 version | u64 config fingerprint
//            | u64 segment seqno | u32 CRC32 of the preceding 28 bytes]
//   [user-run wire frames, back to back]        (transport/wire_format.h)
//   [sealed trailer: 0xA7 marker | u64 frame count | u32 CRC32]
//
// Frames are the PR 3 wire format verbatim -- self-delimiting and CRC32
// protected -- so the log needs no per-record envelope of its own, and
// replaying a segment is exactly the collector's normal ingest path: the
// aggregates a replay produces are bit-identical to the originals
// because SlotAggregate accumulates in exact, order-independent integer
// arithmetic.
//
// The trailer seals a segment on rotation or clean close. Recovery
// (storage/durable_collector.h) demands every non-final segment be
// sealed and clean -- corruption there is loud, never skipped -- while
// the final segment may be unsealed (the crash case): it is scanned
// frame by frame and truncated at the first CRC/short-read failure, with
// replayed frames and discarded bytes reported. The fingerprint in the
// header ties a log to the engine configuration that wrote it, so
// replaying a log into a differently-configured collector (or mixing two
// experiments' logs) fails loudly instead of silently merging
// incompatible aggregates.
//
// Recovery memory is bounded by the read buffer, not the log: scan and
// replay stream each segment through a fixed kWalReadBufferBytes buffer,
// one frame at a time, and grow it only for a single frame larger than
// the buffer -- never past the bytes left in the file. A reader holds
// O(kWalReadBufferBytes + largest frame) whatever segment_max_bytes is,
// and a junk or oversized segment cannot drive a larger allocation.
#ifndef CAPP_STORAGE_WAL_H_
#define CAPP_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"

namespace capp {

/// When the WAL writer pushes buffered frames to disk with fdatasync.
enum class WalFsyncPolicy {
  kPerRun,    ///< After every appended run: at most one run lost, slowest.
  kPerFrames, ///< Every fsync_every_frames runs: the throughput/loss knob.
  kTimed,     ///< At most fsync_interval_ms between syncs (checked at
              ///< append; the DurableCollector's log thread also syncs
              ///< a log left unsynced for that long).
};

/// Short display name ("run", "frames", "timer").
std::string_view WalFsyncPolicyName(WalFsyncPolicy policy);

/// Parses a display name back into a policy.
Result<WalFsyncPolicy> ParseWalFsyncPolicy(std::string_view name);

/// Knobs for one WAL directory.
struct WalOptions {
  /// Directory the segments live in (created if missing).
  std::string dir;
  /// Engine-config fingerprint stamped into every segment header; replay
  /// refuses a log whose fingerprint differs (see EngineConfigFingerprint
  /// and WalFingerprint).
  uint64_t fingerprint = 0;
  WalFsyncPolicy fsync_policy = WalFsyncPolicy::kPerFrames;
  /// kPerFrames: runs between fdatasyncs. An fdatasync has a fixed cost
  /// (journal commit + device flush, ~0.5-1 ms on commodity disks)
  /// independent of the bytes it pushes, so small batches are
  /// fsync-dominated; 1024 runs (~0.8 MB at 100 slots) amortizes the
  /// fixed cost while bounding power-failure loss to 1024 runs. A
  /// process kill loses what has not reached the page cache: the runs in
  /// the DurableCollector's open batch and in the batch its log thread is
  /// writing (at most 1 MB each), plus the writer's 256 KB user-space
  /// buffer. The fleet's resend plus dedup recovers them.
  size_t fsync_every_frames = 1024;
  /// kTimed: max milliseconds between fdatasyncs.
  int fsync_interval_ms = 50;
  /// Rotate to a new segment once the current one exceeds this.
  size_t segment_max_bytes = 64u << 20;
};

/// Bytes recovery reads a segment through. ScanWalSegment and
/// ReplayWalSegment hold this much -- plus one frame, when a single frame
/// is larger -- whatever the segment's size, so restart memory does not
/// grow with segment_max_bytes.
inline constexpr size_t kWalReadBufferBytes = 1u << 20;

/// Validates WAL knobs (non-empty dir, positive sync thresholds).
Status ValidateWalOptions(const WalOptions& options);

/// Durability counters, embedded in EngineStats as `wal`. The append-side
/// counters are the writer's, copied out by the DurableCollector's log
/// thread; the recovery-side ones are filled once during Create.
struct WalStats {
  uint64_t frames_appended = 0;  ///< Runs appended this session.
  uint64_t bytes_appended = 0;   ///< Frame bytes appended this session.
  uint64_t fsyncs = 0;           ///< fdatasync calls issued.
  uint64_t segments_sealed = 0;  ///< Segments sealed (rotation or close).
  uint64_t checkpoints = 0;      ///< Checkpoint files written.
  uint64_t runs_deduped = 0;     ///< Resent runs skipped by user-id dedup.
  /// Ingests that waited because the log thread was a full batch behind.
  uint64_t append_stalls = 0;
  /// Recovery summary (what Create found in the directory).
  uint64_t segments_recovered = 0;  ///< Segments replayed (even if empty).
  uint64_t frames_replayed = 0;     ///< Valid frames re-ingested.
  uint64_t bytes_discarded = 0;     ///< Torn tail bytes truncated away.
  uint64_t checkpoint_restored = 0; ///< 1 when a snapshot seeded recovery.
};

/// Mixes words into a 64-bit config fingerprint (FNV-1a over the words'
/// bytes). Both EngineConfigFingerprint and tools/collector_server build
/// their fingerprints through this, so the two sides of a socket
/// deployment agree on the hashing scheme.
uint64_t WalFingerprint(std::span<const uint64_t> words);

/// Appends wire frames to segment files under WalOptions::dir.
/// Not thread-safe. In the collector, one thread owns the writer: the
/// DurableCollector's log thread, which takes queued runs off the ingest
/// path, encodes them and appends them here, and runs the Sync, Rotate
/// and Seal that Flush, Checkpoint and Seal ask it for.
class WalWriter {
 public:
  /// Opens a fresh segment numbered `first_seqno` (never appends to an
  /// existing file: recovery is read-only and hands the writer the next
  /// unused seqno).
  static Result<WalWriter> Create(WalOptions options, uint64_t first_seqno);

  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&&) = delete;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  /// Seals the open segment (best effort; errors are unreportable here,
  /// call Seal() first when the verdict matters).
  ~WalWriter();

  /// Appends one encoded user-run frame and applies the fsync policy.
  /// Rotates to a new segment when the current one is past
  /// segment_max_bytes (the frame lands in the old segment; rotation
  /// seals it).
  Status Append(std::span<const uint8_t> frame_bytes);

  /// Flushes buffered bytes and fdatasyncs now, regardless of policy.
  Status Sync();

  /// Seals the current segment (trailer + fdatasync) and opens the next
  /// one. The checkpoint path rotates so a snapshot can cover "every
  /// segment up to and including S" exactly.
  Status Rotate();

  /// Seals the current segment and closes the writer; Append afterwards
  /// is an error. Idempotent.
  Status Seal();

  /// Seqno of the segment currently being written.
  uint64_t segment_seqno() const { return seqno_; }

  /// Frames appended since the last Sync().
  uint64_t unsynced_frames() const { return frames_since_sync_; }

  /// Append-side counters (frames/bytes/fsyncs/segments sealed).
  const WalStats& stats() const { return stats_; }

 private:
  explicit WalWriter(WalOptions options);

  Status OpenSegment(uint64_t seqno);
  Status FlushBuffer();
  Status SealCurrentLocked();
  Status MaybeSyncAfterAppend();

  WalOptions options_;
  int fd_ = -1;
  uint64_t seqno_ = 0;
  uint64_t frames_in_segment_ = 0;
  uint64_t bytes_in_segment_ = 0;
  uint64_t frames_since_sync_ = 0;
  int64_t last_sync_ms_ = 0;  // steady-clock ms at the last fdatasync
  std::vector<uint8_t> buffer_;
  std::string path_;  // the open segment's path
  bool sealed_ = false;
  WalStats stats_;
};

/// What a read-only scan of one segment file found. A scan never applies
/// frames; recovery scans everything first and only then replays, so a
/// fatal problem (corrupt sealed segment, wrong fingerprint) aborts with
/// the backend untouched -- never half-applied.
struct WalSegmentScan {
  uint64_t seqno = 0;
  std::string path;
  /// Header parsed and its CRC checked. False only for a torn write of
  /// the final segment's first block (the whole file is then discarded).
  bool header_ok = false;
  bool sealed = false;          ///< A valid trailer closes the segment.
  uint64_t frames = 0;          ///< Valid frames before any damage.
  size_t frames_end = 0;        ///< Offset one past the last valid frame.
  uint64_t discarded_bytes = 0; ///< Bytes after frames_end (torn tail).
};

/// Lists the segment files in `dir` in ascending seqno order (missing or
/// empty directory yields an empty list).
Result<std::vector<WalSegmentScan>> ListWalSegments(const std::string& dir);

/// Scans one segment file (header, frame CRCs, trailer) without applying
/// anything, streaming it through a kWalReadBufferBytes buffer: memory is
/// O(buffer + largest frame), not O(file). Returns an error only for I/O
/// failures, for a *fingerprint mismatch* (valid header written by a
/// different config: that is a usage error no truncation heuristic
/// should eat), and with OutOfRange for a whole, CRC-valid frame whose
/// run ends past the collector's cell index. All corruption -- torn
/// header, a frame cut short by the end of the file or failing its CRC,
/// truncated trailer -- is reported through the scan fields so the
/// caller can decide whether the segment's position (final or not)
/// makes it a crash artifact or fatal damage.
Result<WalSegmentScan> ScanWalSegment(const std::string& path,
                                      uint64_t expected_fingerprint);

/// Re-reads a scanned segment and invokes `apply` for each of the first
/// `scan.frames` frames, in order, through the same bounded buffer as
/// ScanWalSegment (`values` points into a per-frame vector that is reused
/// for the next frame). The caller already validated the
/// range via ScanWalSegment; a decode failure inside it is an Internal
/// error (the file changed under us). `dims` is the frame's dimension
/// count (1 for a 0xC5 frame; `values` is then dim-major per
/// wire_format.h) -- the caller decides whether a mismatched dims is
/// fatal, since only it knows the backend's configured dimensionality.
Status ReplayWalSegment(
    const WalSegmentScan& scan,
    const std::function<void(uint64_t user_id, uint64_t base_slot,
                             uint64_t dims,
                             std::span<const double> values)>& apply);

/// Repairs a torn final segment in place after its frames were replayed:
/// truncates the discarded tail and appends a sealed trailer (or deletes
/// the file outright when even the header is torn), then fdatasyncs.
/// Without this, the torn segment would sit below the writer's fresh
/// segment and the *next* recovery would see a corrupt interior segment
/// -- fatal by design. No-op for a segment already sealed and clean.
Status RepairWalSegment(const WalSegmentScan& scan);

}  // namespace capp

#endif  // CAPP_STORAGE_WAL_H_
