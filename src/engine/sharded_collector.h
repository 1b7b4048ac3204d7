// Sharded, thread-safe collector storage: the in-RAM CollectorBackend
// behind CollectorSession and the Fleet simulator.
//
// The seed collector stored reports in std::map<user, std::map<slot, v>>,
// which is pointer-chasing-heavy and single-threaded. ShardedCollector
// replaces it with:
//
//   * N independent shards, each guarded by its own mutex; a report's shard
//     is a splitmix64 hash of its user id, so concurrent writers touching
//     different users rarely contend.
//   * Flat per-shard storage: user ids map to dense indices through a
//     flat open-addressing index (one probe sequence, no per-user heap
//     node; see UserIndex); values live in slot-major arrays
//     (values[slot][dense_user]) with NaN marking missing reports.
//   * Streaming per-slot aggregates (count / fixed-point exact sums of x
//     and x^2, including the reverse update for overwritten reports), so
//     population means and variances are O(1) per report, bit-identical
//     for any ingest order, and remain available in aggregate-only mode
//     where raw streams are never materialized.
//
// Aggregate-only mode (keep_streams = false) is what lets the engine run
// million-user fleets: per-report cost and memory are independent of the
// population's total report volume. Memory is the O(shards * slots)
// aggregates plus ~25 B per distinct user (a 16-byte UserEntry and its
// index table slot). That per-user state cannot go: it is what answers
// Contains (the durable tier's resend dedup), user_count, and the
// checkpoint's per-user entries. It is also the mode the storage
// tier's checkpoints cover (ExportShardState / RestoreShardState): the
// exact per-shard aggregate state round-trips through
// storage/checkpoint.h, while raw streams are deliberately not
// serialized (they are O(users * slots) and the durable tier exists for
// the aggregate-only production shape).
//
// Single-writer mode (single_writer = true) goes one step further for
// the queued transport shape: the transport routes every shard group to
// exactly one consumer thread, so each shard has exactly one writer and
// the per-shard mutex buys nothing on the ingest path. Ingest then
// skips the mutex entirely and publishes the per-slot aggregates (and
// histogram bins) through a per-shard seqlock: each aggregate lives
// as its five Packed words in a flat atomic array, the
// owner brackets every run with an odd/even sequence counter, and
// concurrent aggregate readers copy the words and retry if the
// sequence was odd or moved (a torn snapshot) instead of ever blocking
// the writer. The shard mutex survives only for storage growth: a
// reader holds it across its snapshot, so the owner's rare capacity
// doubling (also under the mutex) can never reallocate the arrays out
// from under a racing copy. Aggregates are exact integer sums, so the
// two locking modes are bit-identical for the same ingested multiset.
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

#include "core/status.h"
#include "storage/collector_backend.h"
#include "stream/report.h"
#include "telemetry/metrics.h"

namespace capp {

/// Deleter for cache-line-aligned arrays of trivially-destructible
/// payloads (the owned-shard seqlock storage): frees the 64-byte-aligned
/// allocation without running destructors. make_unique only guarantees
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
  /// that never heard of dimensions (cell == slot). The dims-aware
  /// IngestUserRun overload transposes the wire's dim-major payload into
  /// cell order; per-dimension queries slice cells back out.
  size_t dims = 1;
  /// When true, raw per-(user, slot) values are kept and per-user stream
  /// queries work. When false only the per-slot aggregates (O(shards *
  /// slots)) and ~25 B of bookkeeping per distinct user are kept --
  /// memory no longer grows with the report volume -- but each (user,
  /// slot) pair must then be ingested at most once (overwrites cannot be
  /// detected without the raw values).
  bool keep_streams = true;
  /// Single-writer (shard-owned) ingest: the caller guarantees that at
  /// most one thread ever ingests into any given shard (the queued
  /// transports' shard-group routing provides exactly this), and in
  /// exchange the ingest path skips the per-shard mutex entirely,
  /// publishing the per-slot aggregates and histogram bins through a
  /// per-shard seqlock for concurrent aggregate readers (see the class
  /// comment). Requires
  /// keep_streams = false. Per-user queries (Contains / SlotCount) are
  /// then safe only from the shard's owning thread or after ingest has
  /// quiesced -- which covers every existing caller: the durable tier's
  /// dedup probe runs on the owning consumer, its checkpoints hold an
  /// exclusive lock, and stats readers run after Drain().
  bool single_writer = false;
  /// Per-slot value histograms (off by default: the analytics tier).
  SlotHistogramOptions histogram = {};
};

/// Thread-safe sharded report store with streaming per-slot aggregates.
/// All methods are safe to call concurrently.
class ShardedCollector : public CollectorBackend {
 public:
  static Result<ShardedCollector> Create(ShardedCollectorOptions options = {});

  ShardedCollector(ShardedCollector&&) = default;
  ShardedCollector& operator=(ShardedCollector&&) = default;

  /// Ingests one report. Slots may arrive in any order per user; a repeated
  /// (user, slot) pair overwrites (last write wins), matching the legacy
  /// collector (overwrites require keep_streams). Reports with non-finite
  /// values are discarded: they cannot be represented next to the NaN
  /// missing-slot sentinel, and no library path emits them. Raw streams
  /// store any finite value, but the per-slot aggregates saturate report
  /// magnitudes at 2^16 (see SlotAggregate) -- far beyond any sanitized
  /// mechanism output.
  void Ingest(const SlotReport& report);

  /// Ingests a batch, grouping reports by shard so each shard's lock is
  /// taken once per call instead of once per report.
  void IngestBatch(std::span<const SlotReport> reports);

  /// Pre-sizes every shard's user index and per-user bookkeeping for an
  /// expected population (a hint; populations may exceed it). Eliminates
  /// rehash stalls while a large fleet registers its users.
  void ReserveUsers(size_t expected_users) override;

  /// Ingests one user's run of consecutive slots: values[i] is the report
  /// for slot base_slot + i. Equivalent to Ingest({user_id, base_slot+i,
  /// values[i]}) per element in order, but the shard hash, lock
  /// acquisition, and user-index resolution happen once for the whole run
  /// -- the fleet's per-user fast path (a simulated device uploads its
  /// stream in one piece).
  void IngestUserRun(uint64_t user_id, size_t base_slot,
                     std::span<const double> values) override;

  /// Re-exposes the base class's dims-aware overload (dim-major payload,
  /// transposed to cells); the 3-arg override above would otherwise hide
  /// it under C++ name lookup.
  using CollectorBackend::IngestUserRun;

  /// Values per slot (ShardedCollectorOptions::dims).
  size_t dims() const override { return options_.dims; }

  /// Number of distinct users seen so far.
  size_t user_count() const override;

  /// Total reports ingested (overwrites count once).
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

  /// Number of distinct slots reported by a user (0 if unknown). In
  /// aggregate-only mode this counts the user's ingested reports, which
  /// equals distinct slots under that mode's at-most-once contract.
  size_t SlotCount(uint64_t user_id) const;

  /// Highest slot seen + 1 over all users (0 when empty). With dims > 1
  /// this counts *cells* (time slots x dims), matching every other
  /// per-slot query; divide by dims() for the time-slot span.
  size_t SlotSpan() const override;

  /// The user's raw stream over slots [0, user's last slot], with missing
  /// slots gap-filled by the shared last-observation policy (gap_fill.h).
  /// NotFound for unknown users; FailedPrecondition in aggregate-only mode.
  Result<std::vector<double>> GapFilledStream(uint64_t user_id) const;

  /// Mean of the user's reports over slots [begin, begin+len), counting
  /// only slots the user actually reported. NotFound when none exist.
  Result<double> SubsequenceMean(uint64_t user_id, size_t begin,
                                 size_t len) const;

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

  /// Exact snapshot of one shard's aggregate-mode state, the checkpoint
  /// serialization unit. FailedPrecondition with keep_streams = true:
  /// raw streams are not serialized, and silently dropping them on a
  /// restore would violate the backend's own query contract.
  Result<CollectorShardState> ExportShardState(size_t shard) const override;

  /// Restores a shard exported by ExportShardState. The shard must be
  /// empty (restore happens before any ingest during recovery), and the
  /// state's histogram layout must match this collector's options; a
  /// restored collector is bit-identical to one that ingested the
  /// covered runs directly.
  Status RestoreShardState(size_t shard, CollectorShardState state) override;

  /// Total seqlock snapshot retries across shards: how often an
  /// aggregate reader observed a write in progress (odd sequence) or a
  /// torn copy (sequence moved) and re-read. Always 0 in mutex mode,
  /// and 0 in single-writer mode when nobody read during ingest.
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
    const std::vector<UserEntry>& entries() const { return entries_; }

   private:
    // Rebuilds the table at `capacity` (a power of two) in dense order.
    void Rehash(size_t capacity);

    std::vector<UserEntry> entries_;
    std::vector<uint32_t> table_;  // dense + 1 per slot; 0 = empty
    int shift_ = 64;               // 64 - log2(table_.size())
  };

  struct Shard {
    mutable std::mutex mu;
    UserIndex users;
    // Slot-major raw values, values[slot][dense_index]; NaN = missing.
    // Inner rows grow lazily, so reads must treat short rows as missing.
    // Unused in aggregate-only mode.
    std::vector<std::vector<double>> values;
    std::vector<SlotAggregate> slots;  // per-slot streaming aggregates
    // Flat per-slot value histograms, histogram[slot * row_size + bin];
    // grown in lockstep with `slots`. Empty when the tier is disabled.
    // 32-bit counters keep the tier's working set (shards x slots x
    // bins) half the size of uint64 rows, which is most of its ingest
    // cost at 1M users. A bin pinned at 2^32 - 1 (>4e9 reports in one
    // (shard, slot, bin) -- beyond the aggregates' own documented
    // headroom) stops counting and reports through saturated_reports,
    // the existing "collector state no longer describes the reports"
    // channel, so even that absurd scale fails loudly, never silently.
    std::vector<uint32_t> histogram;
    size_t report_count = 0;
    uint64_t saturated_reports = 0;  // reports clamped by SlotAggregate

    // --- Single-writer mode state (unused in mutex mode). ---
    // Seqlock sequence: odd exactly while the owning thread is inside a
    // write section mutating the atomic words below.
    std::atomic<uint64_t> seq{0};
    // Per-slot aggregates as their SlotAggregate::Packed words (5 per
    // slot) and flat histogram bins, in atomics so seqlock readers may
    // race with the owner without UB. The first owned_slots entries are
    // valid; capacity doubles under `mu` (see GrowOwnedSlots), which a
    // reader holds across its whole snapshot, so growth can never
    // reallocate the arrays out from under a racing copy.
    AlignedAtomicArray<std::atomic<uint64_t>> owned_packed;
    AlignedAtomicArray<std::atomic<uint32_t>> owned_histogram;
    size_t owned_slots = 0;     // valid slot prefix; readers see it via mu
    size_t owned_capacity = 0;  // allocated slots
    // Monotonic counters, updated by the owner outside the seqlock and
    // read relaxed: totals, not part of the consistent-snapshot story.
    std::atomic<uint64_t> owned_users{0};
    std::atomic<uint64_t> owned_reports{0};
    std::atomic<uint64_t> owned_saturated{0};
  };

  explicit ShardedCollector(ShardedCollectorOptions options);

  // The shard of a user whose SplitMix64Mix is `hash`.
  size_t ShardIndex(uint64_t hash) const { return hash % shards_.size(); }
  // Applies one report (its user's SplitMix64Mix is `hash`) to a shard.
  // Caller holds the shard's lock.
  void IngestLocked(Shard& shard, const SlotReport& report, uint64_t hash);
  // Grows shard.slots (and the histogram rows, when enabled) to cover
  // `end_slot` slots. Caller holds the shard's lock.
  void GrowSlots(Shard& shard, size_t end_slot);
  // Single-writer ingest of one run (values[first..last] are the
  // trimmed finite span). Called by the owning thread only; takes the
  // shard mutex solely inside GrowOwnedSlots.
  void IngestOwnedRun(Shard& shard, uint64_t user_id, uint64_t hash,
                      size_t base_slot, std::span<const double> values,
                      size_t first, size_t last);
  // Grows the owned atomic arrays to cover end_slot slots. Owner only;
  // locks the shard mutex to exclude in-flight seqlock readers.
  void GrowOwnedSlots(Shard& shard, size_t end_slot);
  // Seqlock read: one consistent snapshot of an owned shard's packed
  // aggregate words (and histogram bins when hist != nullptr and the
  // tier is enabled). Returns the number of valid slots.
  size_t SnapshotOwned(const Shard& shard, std::vector<uint64_t>& packed,
                       std::vector<uint32_t>* hist) const;
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
