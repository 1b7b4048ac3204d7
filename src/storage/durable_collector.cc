#include "storage/durable_collector.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "storage/checkpoint.h"
#include "storage/storage_io.h"
#include "telemetry/instruments.h"
#include "telemetry/metrics.h"
#include "transport/wire_format.h"

namespace capp {

DurableCollector::DurableCollector(CollectorBackend* backend,
                                   DurableCollectorOptions options)
    : backend_(backend), options_(std::move(options)) {}

DurableCollector::~DurableCollector() { (void)Seal(); }

Result<std::unique_ptr<DurableCollector>> DurableCollector::Create(
    CollectorBackend* backend, DurableCollectorOptions options) {
  CAPP_RETURN_IF_ERROR(ValidateWalOptions(options.wal));
  if (backend->user_count() != 0 || backend->report_count() != 0) {
    return Status::FailedPrecondition(
        "DurableCollector wants an empty backend: recovery must be the "
        "first thing the backend ever ingests");
  }
  std::unique_ptr<DurableCollector> durable(
      new DurableCollector(backend, std::move(options)));
  CAPP_ASSIGN_OR_RETURN(const uint64_t next_seqno, durable->Recover());
  CAPP_ASSIGN_OR_RETURN(
      WalWriter writer,
      WalWriter::Create(durable->options_.wal, next_seqno));
  durable->writer_.emplace(std::move(writer));
  // The buffers are reserved once, here: a batch never holds more than
  // kLogBatchBytes unless a single run is larger, so swapping them never
  // reallocates, and the log thread allocates nothing for runs of up to
  // kFrameReserveBytes. A thread that never allocates never takes a
  // malloc arena, whose pages glibc would keep resident after it exits.
  for (LogBatch* batch : {&durable->open_batch_, &durable->log_batch_}) {
    batch->values.reserve(kLogBatchBytes / sizeof(double));
  }
  durable->frame_.reserve(kFrameReserveBytes);
  durable->log_thread_ = std::thread([d = durable.get()] { d->LogLoop(); });
  return durable;
}

Result<uint64_t> DurableCollector::Recover() {
  const std::string& dir = options_.wal.dir;
  const uint64_t fingerprint = options_.wal.fingerprint;
  CAPP_RETURN_IF_ERROR(EnsureDirectory(dir));

  // Phase 1: read and validate everything before touching the backend.
  // The newest checkpoint seeds recovery; older ones are leftovers from
  // a crash between checkpoint and truncation.
  CAPP_ASSIGN_OR_RETURN(const std::vector<std::string> checkpoint_paths,
                        ListCheckpointFiles(dir));
  std::optional<CheckpointImage> checkpoint;
  if (!checkpoint_paths.empty()) {
    CAPP_ASSIGN_OR_RETURN(
        CheckpointImage loaded,
        ReadCheckpointFile(checkpoint_paths.back(), fingerprint));
    checkpoint.emplace(std::move(loaded));
  }
  const uint64_t covered =
      checkpoint.has_value() ? checkpoint->covers_through_segment : 0;

  CAPP_ASSIGN_OR_RETURN(std::vector<WalSegmentScan> segments,
                        ListWalSegments(dir));
  uint64_t max_seqno = covered;
  std::vector<WalSegmentScan> to_replay;
  for (size_t i = 0; i < segments.size(); ++i) {
    const bool is_final = i + 1 == segments.size();
    const uint64_t name_seqno = segments[i].seqno;
    max_seqno = std::max(max_seqno, name_seqno);
    if (name_seqno <= covered) continue;  // fully inside the checkpoint
    CAPP_ASSIGN_OR_RETURN(WalSegmentScan scan,
                          ScanWalSegment(segments[i].path, fingerprint));
    if (scan.header_ok && scan.seqno != name_seqno) {
      return Status::Internal(
          "wal segment " + scan.path +
          " carries seqno " + std::to_string(scan.seqno) +
          " in its header; the file was renamed or the directory mixes "
          "two logs");
    }
    if (!is_final) {
      // Every non-final segment was sealed by a rotation or clean close
      // before the next one was opened; damage here is not a crash
      // artifact and must never be skipped over silently.
      if (!scan.header_ok || !scan.sealed || scan.discarded_bytes != 0) {
        return Status::Internal(
            "wal segment " + scan.path +
            " is damaged but is not the final segment (sealed=" +
            (scan.sealed ? "yes" : "no") + ", trailing bytes=" +
            std::to_string(scan.discarded_bytes) +
            "); refusing to replay a log with a corrupt interior");
      }
    }
    to_replay.push_back(std::move(scan));
  }

  // Phase 2: apply. Checkpoint first, then segments in order. Replay
  // dedups like live ingest: a run in both the checkpoint and a segment
  // (crash between checkpoint and truncation) lands once.
  if (checkpoint.has_value()) {
    CAPP_RETURN_IF_ERROR(
        RestoreCheckpoint(std::move(*checkpoint), backend_));
    recovery_stats_.checkpoint_restored = 1;
  }
  for (const WalSegmentScan& scan : to_replay) {
    // A frame whose dimension count disagrees with the backend is a
    // usage error the fingerprint normally catches (dims is mixed into
    // it for d > 1); a log that still mixes them -- doctored, or two
    // experiments' segments shuffled together -- must refuse, not
    // reinterpret cells. The apply callback cannot fail, so the refusal
    // latches and aborts after the segment.
    Status dims_status = Status::OK();
    CAPP_RETURN_IF_ERROR(ReplayWalSegment(
        scan, [this, &dims_status, &scan](uint64_t user_id,
                                          uint64_t base_slot, uint64_t dims,
                                          std::span<const double> values) {
          if (!dims_status.ok()) return;
          if (dims != backend_->dims()) {
            dims_status = Status::FailedPrecondition(
                "wal segment " + scan.path + " carries a " +
                std::to_string(dims) +
                "-dimensional frame but the collector is configured "
                "with dims = " + std::to_string(backend_->dims()) +
                "; refusing to reinterpret its cells");
            return;
          }
          if (options_.dedup_user_runs && backend_->Contains(user_id)) {
            ++recovery_stats_.runs_deduped;
            return;
          }
          backend_->IngestUserRun(user_id, static_cast<size_t>(base_slot),
                                  static_cast<size_t>(dims), values);
          ++recovery_stats_.frames_replayed;
        }));
    CAPP_RETURN_IF_ERROR(dims_status);
    ++recovery_stats_.segments_recovered;
    recovery_stats_.bytes_discarded += scan.discarded_bytes;
  }
  // The writer starts a fresh segment after everything it saw, so a torn
  // final segment is never appended to -- but it must be repaired
  // (truncated + sealed in place), because once the fresh segment exists
  // above it, the next recovery would judge it a corrupt *interior*
  // segment and refuse the whole log.
  if (!to_replay.empty()) {
    CAPP_RETURN_IF_ERROR(RepairWalSegment(to_replay.back()));
    CAPP_RETURN_IF_ERROR(FsyncDirectory(dir));
  }
  if (telemetry::Enabled()) {
    telemetry::metrics::WalRecoverySegmentsTotal().Add(
        recovery_stats_.segments_recovered);
    telemetry::metrics::WalRecoveryFramesTotal().Add(
        recovery_stats_.frames_replayed);
    telemetry::metrics::WalRecoveryBytesDiscardedTotal().Add(
        recovery_stats_.bytes_discarded);
    telemetry::metrics::WalRunsDedupedTotal().Add(
        recovery_stats_.runs_deduped);
  }
  return max_seqno + 1;
}

void DurableCollector::LatchError(const Status& status) {
  if (wal_status_.ok()) wal_status_ = status;
}

void DurableCollector::IngestUserRun(uint64_t user_id, size_t base_slot,
                                     std::span<const double> values) {
  IngestUserRun(user_id, base_slot, 1, values);
}

void DurableCollector::IngestUserRun(uint64_t user_id, size_t base_slot,
                                     size_t dims,
                                     std::span<const double> values) {
  {
    std::shared_lock<std::shared_mutex> quiesce(checkpoint_mu_);
    if (options_.dedup_user_runs && backend_->Contains(user_id)) {
      runs_deduped_.fetch_add(1, std::memory_order_relaxed);
      if (telemetry::Enabled()) {
        telemetry::metrics::WalRunsDedupedTotal().Add(1);
      }
      return;
    }
    // WAL before backend: queue the run, and under kPerRun wait until
    // the log thread has appended and synced it.
    const uint64_t position = QueueRun(user_id, base_slot, dims, values);
    if (position != 0 &&
        options_.wal.fsync_policy == WalFsyncPolicy::kPerRun) {
      std::unique_lock<std::mutex> lock(wal_mu_);
      done_cv_.wait(lock, [&] { return runs_logged_ >= position; });
    }
    backend_->IngestUserRun(user_id, base_slot, dims, values);
  }
  if (options_.checkpoint_every_runs > 0 &&
      runs_since_checkpoint_.fetch_add(1, std::memory_order_relaxed) + 1 >=
          options_.checkpoint_every_runs) {
    MaybeCheckpoint();  // failures latch into wal_status_
  }
}

uint64_t DurableCollector::QueueRun(uint64_t user_id, size_t base_slot,
                                    size_t dims,
                                    std::span<const double> values) {
  const size_t bytes = sizeof(QueuedRun) + values.size_bytes();
  std::unique_lock<std::mutex> lock(wal_mu_);
  const auto can_proceed = [&] {
    return stopping_ || !wal_status_.ok() || open_batch_.runs.empty() ||
           open_batch_.bytes + bytes <= kLogBatchBytes;
  };
  if (!can_proceed()) {
    // Backpressure: the log thread is a full batch behind.
    ++append_stalls_;
    if (telemetry::Enabled()) {
      telemetry::metrics::WalAppendStallsTotal().Add(1);
    }
    space_cv_.wait(lock, can_proceed);
  }
  if (stopping_) {
    LatchError(Status::FailedPrecondition(
        "a run was ingested after the WAL was sealed; it is not logged"));
    return 0;
  }
  if (!wal_status_.ok()) return 0;
  const bool was_empty = open_batch_.runs.empty();
  open_batch_.runs.push_back({user_id, base_slot, dims, values.size()});
  open_batch_.values.insert(open_batch_.values.end(), values.begin(),
                            values.end());
  open_batch_.bytes += bytes;
  const uint64_t position = ++runs_queued_;
  lock.unlock();
  // The log thread only sleeps on an empty batch, so only the first run
  // of a batch needs to wake it.
  if (was_empty) log_cv_.notify_one();
  return position;
}

Status DurableCollector::AwaitLog(unsigned ops) {
  std::unique_lock<std::mutex> lock(wal_mu_);
  CAPP_RETURN_IF_ERROR(wal_status_);
  if (stopping_) return Status::FailedPrecondition("the WAL is sealed");
  pending_ops_ |= ops;
  const uint64_t ticket = ++requests_made_;
  log_cv_.notify_one();
  done_cv_.wait(lock, [&] { return requests_done_ >= ticket; });
  return wal_status_;
}

void DurableCollector::LogLoop() {
  const bool timed = options_.wal.fsync_policy == WalFsyncPolicy::kTimed;
  const auto interval =
      std::chrono::milliseconds(options_.wal.fsync_interval_ms);
  std::unique_lock<std::mutex> lock(wal_mu_);
  for (;;) {
    const auto has_work = [this] {
      return !open_batch_.runs.empty() || pending_ops_ != 0 || stopping_;
    };
    // kTimed bounds the time between fdatasyncs even when ingest stops:
    // a log left with unsynced frames syncs once it has idled that long.
    bool idle_sync = false;
    if (timed && wal_status_.ok() && writer_->unsynced_frames() > 0) {
      idle_sync = !log_cv_.wait_for(lock, interval, has_work);
    } else {
      log_cv_.wait(lock, has_work);
    }
    std::swap(open_batch_, log_batch_);  // log_batch_ was left empty
    const unsigned ops = std::exchange(pending_ops_, 0);
    const uint64_t ticket = requests_made_;
    const uint64_t queued = runs_queued_;
    const bool stop = stopping_;
    Status status = wal_status_;
    lock.unlock();
    space_cv_.notify_all();

    // A latched error drops the batch: the log stops at its first failure.
    if (status.ok()) status = AppendBatch();
    log_batch_.runs.clear();
    log_batch_.values.clear();
    log_batch_.bytes = 0;
    uint64_t rotated = 0;
    if (status.ok() && (ops & kRotateLog) != 0) {
      rotated = writer_->segment_seqno();
      status = writer_->Rotate();
    }
    if (status.ok() && ((ops & kSyncLog) != 0 || idle_sync)) {
      status = writer_->Sync();
    }
    if (stop) {
      const Status sealed = writer_->Seal();
      if (status.ok()) status = sealed;
    }

    lock.lock();
    if (!status.ok()) LatchError(status);
    writer_stats_ = writer_->stats();
    runs_logged_ = queued;
    requests_done_ = ticket;
    if (rotated != 0) rotated_segment_ = rotated;
    done_cv_.notify_all();
    if (stop) return;
  }
}

Status DurableCollector::AppendBatch() {
  const double* values = log_batch_.values.data();
  for (const QueuedRun& run : log_batch_.runs) {
    frame_.clear();
    AppendMultiDimRunFrame(run.user_id, run.base_slot, run.dims,
                           {values, run.count}, frame_);
    values += run.count;
    CAPP_RETURN_IF_ERROR(writer_->Append(frame_));
  }
  return Status::OK();
}

void DurableCollector::MaybeCheckpoint() {
  std::unique_lock<std::shared_mutex> quiesce(checkpoint_mu_);
  // Another thread may have checkpointed while we waited for the lock.
  if (runs_since_checkpoint_.load(std::memory_order_relaxed) <
      options_.checkpoint_every_runs) {
    return;
  }
  const Status status = CheckpointLocked();
  if (!status.ok()) {
    std::lock_guard<std::mutex> lock(wal_mu_);
    LatchError(status);
  }
  runs_since_checkpoint_.store(0, std::memory_order_relaxed);
}

Status DurableCollector::Checkpoint() {
  std::unique_lock<std::shared_mutex> quiesce(checkpoint_mu_);
  const Status status = CheckpointLocked();
  runs_since_checkpoint_.store(0, std::memory_order_relaxed);
  return status;
}

Status DurableCollector::CheckpointLocked() {
  CAPP_RETURN_IF_ERROR(CheckHealthy());
  telemetry::ScopedTimer checkpoint_timer;
  if (telemetry::Enabled()) {
    telemetry::metrics::WalCheckpointsTotal().Add(1);
    checkpoint_timer.Arm(&telemetry::metrics::WalCheckpointSeconds());
  }
  // Rotate first, once the log has caught up: the snapshot then covers
  // exactly the sealed segments [.., S] and the new segment S+1 receives
  // everything after it.
  CAPP_RETURN_IF_ERROR(AwaitLog(kRotateLog));
  uint64_t covers = 0;
  {
    std::lock_guard<std::mutex> lock(wal_mu_);
    covers = rotated_segment_;
  }
  CAPP_RETURN_IF_ERROR(WriteCheckpointFile(
      options_.wal.dir, options_.wal.fingerprint, covers, *backend_));
  {
    std::lock_guard<std::mutex> lock(wal_mu_);
    ++recovery_stats_.checkpoints;
  }
  // Truncate: every segment and older checkpoint the snapshot covers.
  // Deletion failures are non-fatal for correctness (recovery ignores
  // covered segments) but still reported -- disk that cannot be
  // reclaimed should not fail a run, only a health check would care.
  CAPP_ASSIGN_OR_RETURN(const std::vector<WalSegmentScan> segments,
                        ListWalSegments(options_.wal.dir));
  for (const WalSegmentScan& segment : segments) {
    if (segment.seqno <= covers) {
      CAPP_RETURN_IF_ERROR(RemoveFileIfExists(segment.path));
    }
  }
  CAPP_ASSIGN_OR_RETURN(const std::vector<std::string> checkpoints,
                        ListCheckpointFiles(options_.wal.dir));
  const std::string keep = CheckpointPath(options_.wal.dir, covers);
  for (const std::string& path : checkpoints) {
    if (path != keep) CAPP_RETURN_IF_ERROR(RemoveFileIfExists(path));
  }
  return FsyncDirectory(options_.wal.dir);
}

Status DurableCollector::Flush() { return AwaitLog(kSyncLog); }

Status DurableCollector::CheckHealthy() const {
  std::lock_guard<std::mutex> lock(wal_mu_);
  return wal_status_;
}

Status DurableCollector::Seal() {
  {
    std::lock_guard<std::mutex> lock(wal_mu_);
    stopping_ = true;
  }
  log_cv_.notify_one();
  // A second caller blocks here until the first has joined.
  std::call_once(join_once_, [this] {
    if (log_thread_.joinable()) log_thread_.join();
  });
  return CheckHealthy();
}

WalStats DurableCollector::wal_stats() const {
  std::lock_guard<std::mutex> lock(wal_mu_);
  WalStats stats = recovery_stats_;
  stats.frames_appended = writer_stats_.frames_appended;
  stats.bytes_appended = writer_stats_.bytes_appended;
  stats.fsyncs = writer_stats_.fsyncs;
  stats.segments_sealed = writer_stats_.segments_sealed;
  stats.append_stalls = append_stalls_;
  stats.runs_deduped += runs_deduped_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace capp
