// DurableCollector: a CollectorBackend decorator that tees every
// ingested user run into a write-ahead log before the wrapped backend,
// and recovers the backend from that log (plus an optional checkpoint)
// on startup.
//
// Recovery contract -- the subsystem's invariant, proven by the storage
// torture tests and the crash-kill integration test:
//
//   After SIGKILL at any ingest point, Create() on the same directory
//   replays the durable prefix and the resumed fleet re-sends its runs;
//   run-level dedup (each fleet user publishes exactly one run, so a
//   user already present in the backend identifies a replayed/resent
//   run) plus SlotAggregate's exact order-independent sums make the
//   final per-slot count/mean/M2, histograms, and digests bit-identical
//   to an uninterrupted run. Recovery itself is two-phase: scan and
//   validate everything first, and only then apply -- a fatal problem
//   (corrupt sealed segment, foreign fingerprint, broken checkpoint)
//   errors out with the backend untouched, never half-applied.
//
// Recovery memory: both phases stream each segment through WAL's fixed
// kWalReadBufferBytes buffer (storage/wal.h), so besides the backend
// and the newest checkpoint image, a restart holds O(1 MiB + largest
// frame) whatever the segment size or count. The recovery summary lands
// in wal_stats() and, with telemetry on, in the capp_wal_recovery_*
// counters.
//
// Concurrency: one log thread, started by Create after recovery and
// joined by Seal, is the only code that touches the WalWriter. An ingest
// (a fleet worker's or transport-hub consumer's batch of runs) takes the
// checkpoint lock shared, copies its runs into the open batch under one
// wal_mu_ hold -- blocking while that batch holds kLogBatchBytes -- and
// goes on to the backend.
// The log thread swaps the batch out, then encodes, writes and fdatasyncs
// it with no lock held, so workers never wait on the disk. Callers that
// need the disk wait for the log thread: a kPerRun ingest until its own
// runs are appended and synced, Flush until everything queued before it
// is synced, a checkpoint until the log has caught up and rotated. A
// checkpoint takes the lock exclusive, so its snapshot sees a quiescent
// backend whose rotation point exactly covers it.
#ifndef CAPP_STORAGE_DURABLE_COLLECTOR_H_
#define CAPP_STORAGE_DURABLE_COLLECTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/page_allocator.h"
#include "core/status.h"
#include "storage/collector_backend.h"
#include "storage/wal.h"

namespace capp {

struct DurableCollectorOptions {
  WalOptions wal;
  /// Write a checkpoint (and truncate covered segments) every N ingested
  /// runs; 0 disables checkpointing.
  size_t checkpoint_every_runs = 0;
  /// Skip a run whose user id is already present in the backend. This is
  /// what makes crash-resume exact: the restarted fleet re-sends every
  /// run, recovered users are skipped, missing ones land once. Leave on
  /// unless the workload genuinely ingests multiple runs per user (which
  /// the fleet never does).
  bool dedup_user_runs = true;
};

class DurableCollector : public CollectorBackend {
 public:
  /// Recovers any existing state under options.wal.dir into `backend`
  /// (which must be empty and outlive the decorator), then opens a fresh
  /// segment for appending. The recovery summary lands in wal_stats().
  static Result<std::unique_ptr<DurableCollector>> Create(
      CollectorBackend* backend, DurableCollectorOptions options);

  /// A one-run IngestUserRuns batch at dims == 1 (the backend's dims
  /// must be 1: a cell-level run could not be replayed).
  void IngestUserRun(uint64_t user_id, size_t base_slot,
                     std::span<const double> values) override;

  /// A one-run IngestUserRuns batch.
  void IngestUserRun(uint64_t user_id, size_t base_slot, size_t dims,
                     std::span<const double> values) override;

  /// WAL-first batch ingest (dims must equal dims()). Under the shared
  /// checkpoint lock, each run is deduped as one-by-one ingest would
  /// dedup it -- a repeat of a user registered before the batch or by an
  /// earlier run of it is skipped. The rest are queued for the log thread
  /// under one wal_mu_ hold with one wake, then handed to the backend as
  /// one batch; the log thread appends the queued runs in queue order,
  /// one frame each (0xC5 at d = 1, 0xC6 dim-major above: the bytes the
  /// transport would carry), so the log is byte-identical to one-by-one
  /// ingest. Under kPerRun the call also waits until the batch's last run
  /// is appended and synced, so nothing is visible before it is durable.
  /// A WAL write failure latches and is reported by Flush()/
  /// CheckHealthy(), as is an ingest after Seal() -- durability errors
  /// must fail a run loudly, not degrade it to in-RAM-only silently.
  void IngestUserRuns(size_t dims, std::span<const UserRun> runs) override;

  /// Values per slot of the wrapped backend.
  size_t dims() const override { return backend_->dims(); }

  /// Waits until every run queued before the call is appended, then
  /// fdatasyncs the WAL and reports any latched error. Fleet::Run calls
  /// this after the drain so a run's verdict includes its durability.
  Status Flush();

  /// The first WAL append/checkpoint error, if any.
  Status CheckHealthy() const;

  /// Appends what is queued, seals the current segment and joins the log
  /// thread (clean shutdown; after this the log's final segment scans as
  /// sealed). Idempotent and safe to call from several threads; called
  /// by the destructor too.
  Status Seal();

  /// Forces a checkpoint + truncation now (also triggered automatically
  /// every checkpoint_every_runs ingests).
  Status Checkpoint();

  /// Durability counters (appends, fsyncs, stalls, dedups, recovery
  /// summary). The append-side counters cover what the log thread has
  /// written so far; after Flush() they cover every run queued before it.
  WalStats wal_stats() const;

  // CollectorBackend queries delegate to the wrapped backend.
  void ReserveUsers(size_t expected_users) override {
    backend_->ReserveUsers(expected_users);
  }
  size_t user_count() const override { return backend_->user_count(); }
  size_t report_count() const override { return backend_->report_count(); }
  uint64_t saturated_report_count() const override {
    return backend_->saturated_report_count();
  }
  size_t SlotSpan() const override { return backend_->SlotSpan(); }
  bool Contains(uint64_t user_id) const override {
    return backend_->Contains(user_id);
  }
  size_t ShardIndexOf(uint64_t user_id) const override {
    return backend_->ShardIndexOf(user_id);
  }
  std::vector<SlotAggregate> PopulationSlotAggregates() const override {
    return backend_->PopulationSlotAggregates();
  }
  Result<std::vector<std::vector<uint64_t>>> PopulationSlotHistograms()
      const override {
    return backend_->PopulationSlotHistograms();
  }
  uint64_t histogram_outlier_count() const override {
    return backend_->histogram_outlier_count();
  }
  size_t num_shards() const override { return backend_->num_shards(); }
  Result<CollectorShardState> ExportShardState(size_t shard) const override {
    return backend_->ExportShardState(shard);
  }
  Status RestoreShardState(size_t shard,
                           CollectorShardState state) override {
    return backend_->RestoreShardState(shard, std::move(state));
  }

  ~DurableCollector() override;
  DurableCollector(const DurableCollector&) = delete;
  DurableCollector& operator=(const DurableCollector&) = delete;

 private:
  // Appenders block while the open batch holds this many bytes (run
  // headers plus values). A process kill loses at most the open batch,
  // the batch being written and the writer's own buffer.
  static constexpr size_t kLogBatchBytes = 1u << 20;
  // Encode buffer capacity reserved at Create: a 100-slot frame is ~830 B.
  static constexpr size_t kFrameReserveBytes = 64u << 10;

  // What the log thread needs to encode one queued run's frame; its
  // values are the next `count` doubles of the batch.
  struct QueuedRun {
    uint64_t user_id;
    uint64_t base_slot;
    uint64_t dims;
    uint64_t count;
  };
  struct LogBatch {
    std::vector<QueuedRun> runs;
    PageVector<double> values;  // its own pages: freed with the collector
    size_t bytes = 0;
  };
  // Requests a caller hands the log thread, run after the runs queued
  // before them.
  enum LogOp : unsigned { kSyncLog = 1u, kRotateLog = 2u };

  DurableCollector(CollectorBackend* backend,
                   DurableCollectorOptions options);

  // Scan-validate-replay of the directory's checkpoint + segments;
  // returns the seqno the writer should start at.
  Result<uint64_t> Recover();
  // Copies the runs into the open batch; returns the last one's queue
  // position, or 0 when the WAL is failed or sealed and nothing was
  // queued.
  uint64_t QueueRuns(size_t dims, std::span<const UserRun> runs);
  // Queues `ops` behind every run queued so far, waits until the log
  // thread has done them, and returns the latched status.
  Status AwaitLog(unsigned ops);
  void LogLoop();
  // Encodes and appends log_batch_, one frame per run.
  Status AppendBatch();
  // The auto-trigger path: re-checks the run counter under the
  // exclusive lock so concurrent ingests produce one checkpoint.
  void MaybeCheckpoint();
  Status CheckpointLocked();
  void LatchError(const Status& status);

  CollectorBackend* backend_;
  DurableCollectorOptions options_;

  // Ingest = shared, checkpoint = exclusive: a snapshot must observe a
  // backend with no run between queue and RAM.
  std::shared_mutex checkpoint_mu_;

  // Guards the members from here through append_stalls_. The condition
  // variables wake the log thread, appenders waiting on a full batch, and
  // callers waiting for the log thread to finish a cycle.
  mutable std::mutex wal_mu_;
  std::condition_variable log_cv_;
  std::condition_variable space_cv_;
  std::condition_variable done_cv_;
  LogBatch open_batch_;
  uint64_t runs_queued_ = 0;
  uint64_t runs_logged_ = 0;  // queue position the log has appended through
  unsigned pending_ops_ = 0;
  uint64_t requests_made_ = 0;
  uint64_t requests_done_ = 0;
  uint64_t rotated_segment_ = 0;  // segment sealed by the last rotation
  bool stopping_ = false;         // Seal() was called
  Status wal_status_;  // first append/checkpoint failure, latched
  WalStats recovery_stats_;  // recovery counters + checkpoint tally
  WalStats writer_stats_;    // the writer's counters after the last cycle
  uint64_t append_stalls_ = 0;

  std::atomic<uint64_t> runs_since_checkpoint_{0};
  std::atomic<uint64_t> runs_deduped_{0};

  // Owned by the log thread once it runs.
  std::optional<WalWriter> writer_;
  LogBatch log_batch_;
  std::vector<uint8_t> frame_;

  std::once_flag join_once_;
  std::thread log_thread_;  // last: starts once everything above exists
};

}  // namespace capp

#endif  // CAPP_STORAGE_DURABLE_COLLECTOR_H_
