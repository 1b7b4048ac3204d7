// Sharded collector storage: the in-RAM CollectorBackend behind the
// transport hub, the durable tier and the Fleet simulator.
//
// The paper's collector (Fig. 1, step 3) keeps per-slot sums, and so does
// this one. The seed collector stored reports in
// std::map<user, std::map<slot, v>>, which is pointer-chasing-heavy and
// single-threaded. ShardedCollector replaces it with:
//
//   * N independent shards, each with its own mutex; a report's shard is
//     a splitmix64 hash of its user id, so concurrent writers touching
//     different users rarely contend.
//   * Streaming per-slot aggregates (count / fixed-point exact sums of x
//     and x^2), so population means and variances are O(1) per report
//     and bit-identical for any ingest order.
//   * ~25 B per distinct user: a 16-byte UserEntry in a flat
//     open-addressing index (one probe sequence, no per-user heap node;
//     see UserIndex). That per-user state cannot go: it is what answers
//     Contains (the durable tier's resend dedup), user_count, SlotCount
//     and the checkpoint's per-user entries.
//
// Raw reports are never stored, so per-report cost and memory are
// independent of the population's total report volume -- what lets the
// engine run million-user fleets -- and the whole state is exact and
// checkpointable (ExportShardState / RestoreShardState round-trip it
// through storage/checkpoint.h). Per-user raw streams, for the scalar
// deployment API, live in CollectorSession (stream/session.h).
//
// Each shard keeps its per-slot aggregates (five SlotAggregate::Packed
// words per cell), its histogram bins and its totals in one store: flat
// 64-byte-aligned atomic arrays written by one batch writer inside a
// per-shard seqlock write section. Every ingest is a batch of runs
// (IngestUserRuns; a lone run is a one-run batch): the batch is grouped
// by shard, and each shard's group is written in one section that sums
// every touched cell over the group's runs in registers and stores the
// cell's words once. Two writers sharing shards -- the fleet's kDirect
// workers -- then trade a shard's cache lines once per batch, not once
// per run. Two write disciplines share the store:
//
//   * Mutex mode (the default): any thread may ingest; the writer holds
//     the shard mutex for its whole section.
//   * Single-writer mode (single_writer = true), for the queued transport
//     shape: the transport routes every shard group to exactly one
//     consumer thread, so the owner takes the mutex only to grow the
//     arrays and never blocks on a reader during a section.
//
// Every aggregate reader takes one snapshot per shard: it copies the
// words under the shard mutex (which excludes growth, and the whole run
// in mutex mode), retries if the sequence was odd or moved (a torn copy
// of a single writer's section), and merges outside the mutex. Aggregates
// are exact integer sums, so the two disciplines are bit-identical for
// the same ingested multiset.
//
// SlotAggregate and SlotHistogramOptions -- the exact-accumulation
// building blocks -- live in storage/collector_backend.h so every
// backend shares them; this header re-exports them via that include.
#ifndef CAPP_ENGINE_SHARDED_COLLECTOR_H_
#define CAPP_ENGINE_SHARDED_COLLECTOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "core/page_allocator.h"
#include "core/status.h"
#include "storage/collector_backend.h"
#include "stream/report.h"
#include "telemetry/metrics.h"

namespace capp {

/// Deleter for cache-line-aligned arrays of trivially-destructible
/// payloads (the shard store): frees the 64-byte-aligned allocation
/// without running destructors. make_unique only guarantees
/// alignof(std::max_align_t) (16 bytes), which left the packed 5-word
/// aggregate slots starting mid-line -- see sharded_collector.cc's
/// MakeAlignedZeroed for the layout story.
struct AlignedFree {
  void operator()(void* p) const noexcept {
    ::operator delete(p, std::align_val_t{64});
  }
};

template <typename T>
using AlignedAtomicArray = std::unique_ptr<T[], AlignedFree>;

/// Storage knobs for a sharded collector.
struct ShardedCollectorOptions {
  /// Number of independent storage shards (>= 1). More shards mean less
  /// lock contention under concurrent ingest; 16 is plenty below ~32 cores.
  size_t num_shards = 16;
  /// Values per slot (>= 1): a d-dimensional stream stores d attribute
  /// values for every (user, slot). Storage stays one flat array of
  /// "cells" -- cell = slot * dims + dim, the interleaved layout -- so
  /// every ingest, aggregate, digest, and checkpoint path is untouched
  /// arithmetic over cells and dims = 1 is bit-identical to a collector
  /// that never heard of dimensions (cell == slot). The ingest walk reads
  /// the wire's dim-major payload in cell order directly; per-dimension
  /// queries slice cells back out.
  size_t dims = 1;
  /// Vestige of the retired raw-stream storage mode: must stay false
  /// (Create refuses true with InvalidArgument). It remains only because
  /// bench/pipeline/trial.h still assigns it, and goes once that read is
  /// gone.
  bool keep_streams = false;
  /// Single-writer ingest: the caller guarantees that at most one thread
  /// ever ingests into any given shard (the queued transports'
  /// shard-group routing provides exactly this). The store and its
  /// readers are the same as in mutex mode; only the writer's locking
  /// changes -- it takes the shard mutex to grow the arrays, not for the
  /// run, and concurrent aggregate readers retry through the seqlock
  /// (see the class comment). The user index is then owner-private:
  /// Contains / SlotCount / ReserveUsers / ExportShardState are safe only
  /// from the shard's owning thread or after ingest has quiesced -- which
  /// covers every existing caller: the durable tier's dedup probe runs on
  /// the owning consumer, its checkpoints hold an exclusive lock, and
  /// stats readers run after Drain().
  bool single_writer = false;
  /// Per-slot value histograms (off by default: the analytics tier).
  SlotHistogramOptions histogram = {};
};

/// Sharded report store with streaming per-slot aggregates. In mutex mode
/// all methods are safe to call concurrently. Under single_writer, each
/// shard must have one ingesting thread, and the per-user queries are
/// safe only from that thread or after ingest has quiesced (see
/// ShardedCollectorOptions::single_writer); the totals and aggregate,
/// histogram and span readers stay safe from any thread.
class ShardedCollector : public CollectorBackend {
 public:
  static Result<ShardedCollector> Create(ShardedCollectorOptions options = {});

  ShardedCollector(ShardedCollector&&) = default;
  ShardedCollector& operator=(ShardedCollector&&) = default;

  /// Ingests one report: a one-value IngestUserRun. Slots may arrive in
  /// any order per user, but each (user, slot) pair must be ingested at
  /// most once: the collector keeps no raw values, so a repeat cannot be
  /// told from a new report and is counted twice. (CollectorSession keeps
  /// raw streams with last-write-wins overwrites.) Reports with
  /// non-finite values are discarded, and no library path emits them.
  /// The per-slot aggregates saturate report magnitudes at 2^16 (see
  /// SlotAggregate) -- far beyond any sanitized mechanism output.
  void Ingest(const SlotReport& report) {
    IngestUserRun(report.user_id, report.slot, {&report.value, 1});
  }

  /// Pre-sizes every shard's user index and per-user bookkeeping for an
  /// expected population (a hint; populations may exceed it). Eliminates
  /// rehash stalls while a large fleet registers its users.
  void ReserveUsers(size_t expected_users) override;

  /// Ingests one user's run of consecutive cells: values[i] is the report
  /// for cell base_slot + i. A one-run IngestUserRuns batch.
  void IngestUserRun(uint64_t user_id, size_t base_slot,
                     std::span<const double> values) override {
    const UserRun run{user_id, base_slot, values};
    IngestUserRuns(1, {&run, 1});
  }

  /// Ingests one user's dim-major d-dimensional run (dims == dims()):
  /// a one-run IngestUserRuns batch.
  void IngestUserRun(uint64_t user_id, size_t base_slot, size_t dims,
                     std::span<const double> values) override;

  /// The collector's only writer. Runs are grouped by shard with a stable
  /// counting sort, so each shard registers its users in batch order (the
  /// same dense order, and checkpoint bytes, as one-by-one ingest). Per
  /// shard it takes the lock decision, grows the arrays and opens the
  /// seqlock write section once; each touched cell is summed over the
  /// group's runs in a local SlotAggregate::Partial and stored once, and
  /// the histogram bins are bumped per report. At dims > 1 the walk reads
  /// the dim-major payload in cell order directly. Every run must end within
  /// the wire codec's cell index (base cell + cells <= kWireMaxCells,
  /// which decode enforces for every frame); a run past it is a caller
  /// bug and aborts. A batch of more than kMaxBatchRuns runs is ingested
  /// kMaxBatchRuns at a time.
  void IngestUserRuns(size_t dims, std::span<const UserRun> runs) override;

  /// Runs one shard section may sum per cell (SlotAggregate::Partial).
  static constexpr size_t kMaxBatchRuns = 64;
  static_assert(kMaxBatchRuns <= SlotAggregate::Partial::kMaxReports);

  /// Values per slot (ShardedCollectorOptions::dims).
  size_t dims() const override { return options_.dims; }

  /// Number of distinct users seen so far.
  size_t user_count() const override;

  /// Total reports ingested.
  size_t report_count() const override;

  /// Reports whose magnitude exceeded the SlotAggregate saturation bound
  /// (2^16) and were clamped. Nonzero means per-slot count/mean/M2 no
  /// longer describe the true reports -- the transport hub turns this
  /// into a Drain() error and Fleet::Run fails loudly.
  uint64_t saturated_report_count() const override;

  /// The shard a user's reports land in: splitmix64(user_id) % num_shards.
  /// A pure function of (user_id, num_shards), exposed so the transport
  /// tier can route each run to the consumer owning its shard group.
  size_t ShardIndexOf(uint64_t user_id) const override;

  /// True if the user has reported at least once.
  bool Contains(uint64_t user_id) const override;

  /// Reports ingested for a user (0 if unknown): the user's distinct
  /// slots under Ingest's at-most-once contract.
  size_t SlotCount(uint64_t user_id) const;

  /// Highest slot seen + 1 over all users (0 when empty). With dims > 1
  /// this counts *cells* (time slots x dims), matching every other
  /// per-slot query; divide by dims() for the time-slot span.
  size_t SlotSpan() const override;

  /// Per-slot population mean over all users that reported each slot, for
  /// slots [0, SlotSpan()). Slots nobody reported yield NaN.
  std::vector<double> PopulationSlotMeans() const;

  /// Per-slot population aggregates (count/mean/variance), merged across
  /// shards, for slots [0, SlotSpan()).
  std::vector<SlotAggregate> PopulationSlotAggregates() const override;

  /// Per-slot value histograms merged across shards, for slots
  /// [0, SlotSpan()). Row t has histogram.row_size() entries laid out
  /// [underflow, bins..., overflow] (SlotHistogramOptions::BinFor).
  /// Integer counts merged by addition: bit-identical for any ingest
  /// order. FailedPrecondition when the tier is disabled.
  Result<std::vector<std::vector<uint64_t>>> PopulationSlotHistograms()
      const override;

  /// Finite reports that fell outside the histogram range [lo, hi] and
  /// were counted in an under/overflow bin (0 when the tier is
  /// disabled). Every report is still counted somewhere -- outliers are
  /// clamped into the edge bins by the analytics layer, exactly like the
  /// pooled-report estimator clamps them -- so nonzero here is expected
  /// for feedback-calibrated PP reports at small budgets; a *large*
  /// fraction means the configured range does not cover the workload.
  uint64_t histogram_outlier_count() const override;

  size_t num_shards() const override { return shards_.size(); }

  /// Exact snapshot of one shard's state, the checkpoint serialization
  /// unit.
  Result<CollectorShardState> ExportShardState(size_t shard) const override;

  /// Restores a shard exported by ExportShardState. The shard must be
  /// empty (restore happens before any ingest during recovery), and the
  /// state's histogram layout must match this collector's options; a
  /// restored collector is bit-identical to one that ingested the
  /// covered runs directly.
  Status RestoreShardState(size_t shard, CollectorShardState state) override;

  /// Total seqlock snapshot retries across shards: how often an
  /// aggregate reader observed a write in progress (odd sequence) or a
  /// torn copy (sequence moved) and re-read. Always 0 in mutex mode
  /// (the writer holds the mutex the reader copies under), and 0 in
  /// single-writer mode when nobody read during ingest.
  uint64_t seqlock_read_retries() const;

  const ShardedCollectorOptions& options() const { return options_; }

 private:
  using UserEntry = CollectorShardState::UserEntry;

  // One shard's users: their entries in first-seen (dense) order -- the
  // checkpoint's own UserEntry, 16 B each -- plus a power-of-two
  // open-addressing table of dense + 1 (0 = empty), probed linearly from
  // the high bits of the user's SplitMix64Mix (the hash that already
  // picked the shard) and kept at load <= 3/4. Dense order is insertion
  // order, so exports, checkpoints and digests never see the table.
  class UserIndex {
   public:
    static constexpr uint32_t kNotFound = ~uint32_t{0};

    // The user's dense index, or kNotFound.
    uint32_t Find(uint64_t user_id, uint64_t hash) const;
    // The user's dense index and whether this call registered the user
    // (appending a zeroed entry).
    std::pair<uint32_t, bool> FindOrInsert(uint64_t user_id, uint64_t hash);
    // Sizes the table and the entries for `users` users.
    void Reserve(size_t users);

    size_t size() const { return entries_.size(); }
    UserEntry& entry(uint32_t dense) { return entries_[dense]; }
    const UserEntry& entry(uint32_t dense) const { return entries_[dense]; }
    std::span<const UserEntry> entries() const { return entries_; }

   private:
    // Rebuilds the table at `capacity` (a power of two) in dense order.
    void Rehash(size_t capacity);

    // Both arrays own their pages (core/page_allocator.h), so a
    // destroyed collector's index leaves the process at once.
    PageVector<UserEntry> entries_;
    PageVector<uint32_t> table_;  // dense + 1 per slot; 0 = empty
    int shift_ = 64;               // 64 - log2(table_.size())
  };

  struct Shard {
    mutable std::mutex mu;
    UserIndex users;
    // Seqlock sequence: odd exactly while the writer is inside a
    // write section mutating the atomic words below.
    std::atomic<uint64_t> seq{0};
    // Per-slot aggregates as their SlotAggregate::Packed words (5 per
    // slot) and flat per-slot histogram rows (slot * row_size + bin;
    // null when the tier is disabled), in atomics so seqlock readers may
    // race with a single writer without UB. The first `slots` slots are
    // valid. `slots` and `capacity` change only under `mu` (see Grow),
    // which a reader holds across its whole snapshot, so growth can never
    // reallocate the arrays out from under a racing copy.
    // 32-bit bins keep the tier's working set (shards x slots x bins)
    // half the size of uint64 rows, which is most of its ingest cost at
    // 1M users. A bin pinned at 2^32 - 1 (>4e9 reports in one (shard,
    // slot, bin) -- beyond the aggregates' own documented headroom) stops
    // counting and reports through `saturated`, the existing "collector
    // state no longer describes the reports" channel, so even that
    // absurd scale fails loudly, never silently.
    AlignedAtomicArray<std::atomic<uint64_t>> packed;
    AlignedAtomicArray<std::atomic<uint32_t>> histogram;
    size_t slots = 0;
    size_t capacity = 0;
    // Totals, written by the writer inside the write section so a
    // snapshot's totals match its aggregates. `saturated` counts reports
    // clamped by SlotAggregate and pinned histogram bins.
    std::atomic<uint64_t> users_seen{0};
    std::atomic<uint64_t> reports{0};
    std::atomic<uint64_t> saturated{0};
  };

  // One shard's store as plain values, copied under the shard mutex and
  // merged by the caller outside it. `packed` and `bins` are filled only
  // when asked for (Snapshot's `parts`), `bins` only with the tier on,
  // and `users` only with kUsers.
  struct ShardSnapshot {
    size_t slots = 0;
    uint64_t users_seen = 0;
    uint64_t reports = 0;
    uint64_t saturated = 0;
    std::vector<uint64_t> packed;  // SlotAggregate::Packed words, 5 a slot
    std::vector<uint32_t> bins;    // histogram rows
    std::vector<UserEntry> users;  // dense order
  };
  enum SnapshotPart : unsigned {
    kTotals = 0,  // slot count and totals only
    kAggregates = 1,
    kBins = 2,
    kUsers = 4,
  };

  explicit ShardedCollector(ShardedCollectorOptions options);

  // One batch run with a finite report, ready for its shard's section.
  // Its interleaved cells start at base_slot * walk dims; `cells` is one
  // past its last finite cell, so the cells it reaches are exactly the
  // ones the section may store to. The section fills in the rest.
  struct RunPlan {
    uint64_t user_id = 0;
    uint64_t hash = 0;               // SplitMix64Mix(user_id)
    const double* values = nullptr;  // the payload, in the batch's layout
    size_t slots = 0;                // payload values per dimension
    size_t base_slot = 0;            // in the batch's slot unit
    size_t cells = 0;  // one past the last finite cell, from its first
    size_t reach = 0;  // slots up to the last finite cell's, inclusive
    size_t shard = 0;
    uint32_t dense = 0;    // set by the section: the user's dense index
    uint64_t skipped = 0;  // set by the section: non-finite values reached
  };

  // The shard of a user whose SplitMix64Mix is `hash`.
  size_t ShardIndex(uint64_t hash) const { return hash % shards_.size(); }
  // Writes one shard's group of a batch: registration, growth and one
  // seqlock write section for all of them. Returns the reports ingested.
  uint64_t IngestShardRuns(Shard& shard, size_t dims,
                           std::span<RunPlan> group);
  // Grows the shard's arrays to cover end_slot slots. Caller holds the
  // shard mutex and is the shard's writer.
  void Grow(Shard& shard, size_t end_slot);
  // The one reader: copies the shard's slot count, totals and the
  // requested `parts` (SnapshotPart bits) into `out`, consistently.
  void Snapshot(const Shard& shard, unsigned parts, ShardSnapshot& out) const;
  // Sums one total over every shard's snapshot.
  uint64_t SumTotal(uint64_t ShardSnapshot::*total) const;
  // Bumps the local retry counter and its registry mirror.
  void CountSeqlockRetry() const;

  ShardedCollectorOptions options_;
  // unique_ptr keeps the collector movable despite the per-shard mutexes.
  std::vector<std::unique_ptr<Shard>> shards_;
  // Seqlock retry count as a telemetry::Counter (striped cells, lock-free
  // reads) -- the same primitive the metrics registry exports, so
  // EngineStats and a live scrape read one source of truth. unique_ptr
  // keeps the collector movable.
  std::unique_ptr<telemetry::Counter> seqlock_read_retries_;
};

}  // namespace capp

#endif  // CAPP_ENGINE_SHARDED_COLLECTOR_H_
