// CollectorBackend: the pluggable storage seam of the collector tier.
//
// The engine's ShardedCollector (src/engine/sharded_collector.h) is one
// backend -- the in-RAM one. Extracting this interface lets the durable
// tier (DurableCollector, a WAL-teeing decorator) and future backends
// (mmap-spill, sketches) slot in underneath the transport hub and the
// Fleet without either layer knowing which storage it is talking to.
//
// The exact-aggregation building blocks live here too: SlotAggregate's
// fixed-point int128 sums are what make every backend's state a pure
// function of the multiset of ingested runs (integer addition commutes
// and never rounds), which in turn is what makes WAL replay, checkpoint
// restore, and crash-resume reproduce aggregates bit-for-bit.
#ifndef CAPP_STORAGE_COLLECTOR_BACKEND_H_
#define CAPP_STORAGE_COLLECTOR_BACKEND_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/check.h"
#include "core/math_utils.h"
#include "core/status.h"

namespace capp {

/// Opt-in per-slot histogram tier over the perturbed report values: the
/// raw material of streaming collector-side analytics (EM distribution
/// reconstruction without ever materializing a report matrix). Each slot
/// gets `num_bins` equal-width bins spanning [lo, hi] plus an underflow
/// and an overflow bin, so a report outside the configured range is
/// counted loudly instead of silently dropped or misbinned. Bin
/// assignment is a pure function of the value (FixedBinIndex), and the
/// counts are integers, so merged histograms -- like the fixed-point
/// SlotAggregates -- are bit-identical for any ingest order, transport,
/// or thread mix. Memory is O(shards * slots * num_bins), independent of
/// population size.
struct SlotHistogramOptions {
  bool enabled = false;
  /// Regular (in-range) bins. For SW-based analytics use
  /// StreamingAnalyzer::CollectorHistogramOptions, which sizes the bins
  /// to the EM estimator's output bucketization over [-b, 1+b].
  int num_bins = 64;
  double lo = 0.0;
  double hi = 1.0;

  /// Entries per slot row: underflow + regular bins + overflow.
  size_t row_size() const { return static_cast<size_t>(num_bins) + 2; }
  /// The row entry a finite value lands in: 0 for value < lo,
  /// num_bins + 1 for value > hi, else 1 + FixedBinIndex(...). A pure
  /// function of (value, options) -- the histogram determinism contract.
  size_t BinFor(double value) const {
    if (value < lo) return 0;
    if (value > hi) return static_cast<size_t>(num_bins) + 1;
    return 1 + static_cast<size_t>(FixedBinIndex(value, lo, hi, num_bins));
  }
};

/// Streaming per-slot population moments with an order-independent
/// accumulation: each report is mapped to fixed-point integers (the value
/// at scale 2^-80, its square at scale 2^-60) and summed in 128-bit
/// integers. Integer addition commutes and never rounds, so an aggregate
/// -- and every statistic derived from it -- is a pure function of the
/// multiset of reports, bit-identical no matter which thread, transport,
/// shard layout, or arrival order delivered them. (The previous Welford
/// form rounded per-update, so concurrent ingest produced low-bit
/// differences that varied with scheduling.) The 2^-80 grid represents
/// every normal double down to 2^-28 in magnitude exactly, so a single
/// report's mean is that report bit-for-bit; below that, truncation costs
/// < 2^-80 per report. Magnitudes saturate at +/-2^16, far above any
/// sanitized mechanism output and small enough that neither sum can
/// overflow before ~2^31 worst-case (2^46 unit-range) reports per
/// (shard, slot).
struct SlotAggregate {
  /// The exact accumulator state as five words: the checkpoint / digest
  /// serialization form. The int128 sums are split into (hi, lo) halves
  /// of their two's-complement representation, so Packed round-trips any
  /// aggregate bit-for-bit across files and architectures (everything is
  /// written little-endian by the storage tier).
  struct Packed {
    uint64_t count = 0;
    uint64_t sum_hi = 0;
    uint64_t sum_lo = 0;
    uint64_t sum_sq_hi = 0;
    uint64_t sum_sq_lo = 0;
  };

  /// Users that reported this slot.
  size_t Count() const { return count_; }
  /// Mean of their reports (0 when empty).
  double Mean() const;
  /// Sum of squared deviations from the mean (the Welford-style m2),
  /// derived as sxx - sx^2/n from the exact integer sums. The derivation
  /// is deterministic and order-independent but, unlike the old Welford
  /// recurrence, carries the naive formula's cancellation: absolute error
  /// is ~2^-52 * sxx, which is negligible for sanitized unit-range
  /// reports (~1e-10 at 1e9 reports) but loses relative accuracy when
  /// mean^2 dwarfs the variance near the 2^16 saturation bound.
  double M2() const;
  /// Population variance of the slot's reports (0 when count < 2).
  double Variance() const { return count_ < 2 ? 0.0 : M2() / count_; }

  /// Adds one report. `x` must not be NaN (the collector filters
  /// non-finite reports before aggregation); +/-infinity clamps to the
  /// saturation bound. Returns true when the report was clamped -- the
  /// aggregate is then wrong for the true value, so callers must count
  /// and surface the event instead of letting it pass silently (an
  /// unnormalized workload would otherwise yield bad count/mean/M2 with
  /// no signal).
  bool Add(double x);
  /// Combines two aggregates (exact, commutative, associative).
  void Merge(const SlotAggregate& other);

  /// Exact state export / import (checkpoints, digests).
  Packed ToPacked() const;
  static SlotAggregate FromPacked(const Packed& packed);

 private:
  // Scales are exact powers of two, so the pre-cast multiplies never
  // round: quantization error comes only from the final truncating cast,
  // a pure function of the input value. |x| <= 2^16 puts the value sum at
  // <= 2^96 per report and the squared sum at <= 2^92 per report, leaving
  // >= 2^31 reports of headroom in a signed 128-bit accumulator even at
  // the saturation bound.
  static constexpr double kSumScale = 0x1p80;    // value grid 2^-80
  static constexpr double kSqScale = 0x1p60;     // squared grid 2^-60
  static constexpr double kFxLimit = 65536.0;    // saturation bound, 2^16

  static double ClampToRange(double x) {
    return x < -kFxLimit ? -kFxLimit : x > kFxLimit ? kFxLimit : x;
  }

  // trunc(x * 2^80) for |x| <= 2^16, as two int64 truncations instead of
  // one double->int128 conversion (which compilers expand to a ~4x slower
  // fixup sequence on the ingest hot path). hi = trunc(x * 2^46) fits 62
  // bits; the remainder is exact -- hi's integer part is representable
  // and the subtraction falls under Sterbenz's lemma -- so lo < 2^34
  // recovers the missing low bits. Verified bit-identical to the direct
  // cast across the full clamped range.
  static __int128 ToFixed80(double x) {
    const int64_t hi = static_cast<int64_t>(x * 0x1p46);
    const double rem = x - static_cast<double>(hi) * 0x1p-46;
    const int64_t lo = static_cast<int64_t>(rem * 0x1p80);
    return (static_cast<__int128>(hi) << 34) + lo;
  }

  // trunc(x * 2^60) for x in [0, 2^32] (squared clamped reports).
  static __int128 ToFixed60(double x) {
    const int64_t hi = static_cast<int64_t>(x * 0x1p27);
    const double rem = x - static_cast<double>(hi) * 0x1p-27;
    const int64_t lo = static_cast<int64_t>(rem * 0x1p60);
    return (static_cast<__int128>(hi) << 33) + lo;
  }

  size_t count_ = 0;
  __int128 sum_ = 0;     // sum of quantized reports, scale 2^-80
  __int128 sum_sq_ = 0;  // sum of quantized squared reports, scale 2^-60
};

inline bool SlotAggregate::Add(double x) {
  CAPP_DCHECK(!std::isnan(x));  // NaN would reach an undefined fp->int cast
  const double clamped = ClampToRange(x);
  ++count_;
  sum_ += ToFixed80(clamped);
  sum_sq_ += ToFixed60(clamped * clamped);
  return clamped != x;
}

inline SlotAggregate::Packed SlotAggregate::ToPacked() const {
  Packed packed;
  packed.count = static_cast<uint64_t>(count_);
  const auto usum = static_cast<unsigned __int128>(sum_);
  const auto usq = static_cast<unsigned __int128>(sum_sq_);
  packed.sum_hi = static_cast<uint64_t>(usum >> 64);
  packed.sum_lo = static_cast<uint64_t>(usum);
  packed.sum_sq_hi = static_cast<uint64_t>(usq >> 64);
  packed.sum_sq_lo = static_cast<uint64_t>(usq);
  return packed;
}

inline SlotAggregate SlotAggregate::FromPacked(const Packed& packed) {
  SlotAggregate aggregate;
  aggregate.count_ = static_cast<size_t>(packed.count);
  aggregate.sum_ = static_cast<__int128>(
      (static_cast<unsigned __int128>(packed.sum_hi) << 64) |
      packed.sum_lo);
  aggregate.sum_sq_ = static_cast<__int128>(
      (static_cast<unsigned __int128>(packed.sum_sq_hi) << 64) |
      packed.sum_sq_lo);
  return aggregate;
}

/// One shard's complete state, in the storage tier's
/// exchange form: the unit of checkpoint serialization and restore.
/// `users` is ordered by the shard's dense index (position i is dense
/// index i), so a restored shard assigns the same dense indices and is
/// indistinguishable from one that ingested the runs directly.
struct CollectorShardState {
  struct UserEntry {
    uint64_t user_id = 0;
    uint32_t last_slot = 0;
    uint32_t reports = 0;
  };
  std::vector<UserEntry> users;
  std::vector<SlotAggregate> slots;
  /// Flat per-slot histogram rows (slot * row_size + bin); empty when the
  /// backend's histogram tier is disabled.
  std::vector<uint32_t> histogram;
  uint64_t report_count = 0;
  uint64_t saturated_reports = 0;
};

/// The storage seam: everything the transport hub, the durable tier, and
/// the tools need from a collector. All methods must be safe to call
/// concurrently (the hub's consumer threads ingest in parallel).
class CollectorBackend {
 public:
  virtual ~CollectorBackend() = default;

  /// Ingests one user's run of consecutive slots: values[i] is the report
  /// for slot base_slot + i. Non-finite values must be discarded without
  /// registering the user; magnitudes beyond the SlotAggregate bound
  /// saturate and must be surfaced through saturated_report_count().
  ///
  /// In a multi-dimensional backend (dims() > 1) this is the *cell*-level
  /// entry: storage is a flat grid of cells, cell = slot * dims + dim,
  /// and base_slot/values index cells. At dims() == 1 cell == slot and
  /// the historical contract is unchanged.
  virtual void IngestUserRun(uint64_t user_id, size_t base_slot,
                             std::span<const double> values) = 0;

  /// Dims-aware ingest of one user's d-dimensional run: `values` is
  /// dim-major (all of dimension 0's slots, then dimension 1's, ...;
  /// size a multiple of `dims` -- the 0xC6 wire payload order), starting
  /// at slot `base_slot` in every dimension. `dims` must equal the
  /// backend's dims(). The default implementation transposes into the
  /// interleaved cell order and delegates to the cell-level overload, so
  /// every backend stays bit-identical to a direct cell ingest; dims == 1
  /// forwards without copying.
  virtual void IngestUserRun(uint64_t user_id, size_t base_slot,
                             size_t dims, std::span<const double> values);

  /// Pre-sizes per-user bookkeeping for an expected population (a hint).
  virtual void ReserveUsers(size_t expected_users) = 0;

  /// Values a user publishes per slot (1 for every historical backend).
  /// Multi-dimensional backends store slots x dims() flat cells; queries
  /// indexed by cell (SlotSpan, PopulationSlotAggregates) cover every
  /// dimension interleaved.
  virtual size_t dims() const { return 1; }

  /// Number of distinct users seen so far.
  virtual size_t user_count() const = 0;
  /// Total reports ingested.
  virtual size_t report_count() const = 0;
  /// Reports clamped by the fixed-point aggregates; nonzero means the
  /// per-slot statistics no longer describe the true reports.
  virtual uint64_t saturated_report_count() const = 0;
  /// Highest slot seen + 1 over all users (0 when empty).
  virtual size_t SlotSpan() const = 0;
  /// True if the user has reported at least once. The durable tier's
  /// run-level dedup hinges on this: a fleet user publishes exactly one
  /// run, so "already present" identifies a replayed or resent run.
  virtual bool Contains(uint64_t user_id) const = 0;
  /// The shard a user's reports land in: a pure function of
  /// (user_id, num_shards), exposed so the transport tier can route each
  /// run to the consumer owning its shard group.
  virtual size_t ShardIndexOf(uint64_t user_id) const = 0;

  /// Per-slot population aggregates merged across shards, for slots
  /// [0, SlotSpan()).
  virtual std::vector<SlotAggregate> PopulationSlotAggregates() const = 0;
  /// Per-slot value histograms merged across shards; FailedPrecondition
  /// when the tier is disabled.
  virtual Result<std::vector<std::vector<uint64_t>>>
  PopulationSlotHistograms() const = 0;
  /// Finite reports counted in a histogram under/overflow bin.
  virtual uint64_t histogram_outlier_count() const = 0;

  /// Snapshots (checkpoint + restore): every backend's state is exact
  /// aggregates plus per-user entries, so every backend exports and
  /// restores it, one shard at a time.
  virtual size_t num_shards() const = 0;
  virtual Result<CollectorShardState> ExportShardState(
      size_t shard) const = 0;
  virtual Status RestoreShardState(size_t shard,
                                   CollectorShardState state) = 0;
};

/// Order-independent digest of a backend's aggregate state: an FNV-1a
/// hash over (user_count, report_count, slot span, every slot's exact
/// Packed accumulator words, and the merged histogram rows when the tier
/// is enabled). Because the underlying sums are exact integers, two
/// backends that ingested the same multiset of runs -- through any
/// transport, thread mix, WAL replay, or checkpoint restore -- hash to
/// the same value bit-for-bit; tools/collector_server prints it and the
/// crash-recovery tests compare it against a no-crash oracle.
uint64_t CollectorStateDigest(const CollectorBackend& backend);

}  // namespace capp

#endif  // CAPP_STORAGE_COLLECTOR_BACKEND_H_
