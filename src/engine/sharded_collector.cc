#include "engine/sharded_collector.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <new>
#include <thread>
#include <type_traits>

#include "core/check.h"
#include "core/math_utils.h"
#include "core/rng.h"
#include "stream/gap_fill.h"
#include "telemetry/instruments.h"

namespace capp {
namespace {

constexpr double kMissing = std::numeric_limits<double>::quiet_NaN();

// Saturating histogram-bin increment (see Shard::histogram): a bin
// pinned at 2^32 - 1 stops counting and reports through the shard's
// saturated_reports channel instead of silently wrapping.
inline void BumpBin(uint32_t& bin, uint64_t& saturated_reports) {
  if (bin == std::numeric_limits<uint32_t>::max()) {
    ++saturated_reports;
  } else {
    ++bin;
  }
}

// Reads values[slot][dense] treating short rows as missing.
double RawValueAt(const std::vector<std::vector<double>>& values, size_t slot,
                  uint32_t dense) {
  if (slot >= values.size()) return kMissing;
  const std::vector<double>& row = values[slot];
  return dense < row.size() ? row[dense] : kMissing;
}

// Single-writer storage keeps each SlotAggregate as its five Packed
// words in a flat atomic array; these convert between the two forms.
// All accesses are relaxed: the seqlock's sequence counter and fences
// provide the ordering, the atomics only keep the racing word accesses
// defined.
constexpr size_t kPackedWords = 5;

inline SlotAggregate LoadPackedSlot(const std::atomic<uint64_t>* words) {
  SlotAggregate::Packed packed;
  packed.count = words[0].load(std::memory_order_relaxed);
  packed.sum_hi = words[1].load(std::memory_order_relaxed);
  packed.sum_lo = words[2].load(std::memory_order_relaxed);
  packed.sum_sq_hi = words[3].load(std::memory_order_relaxed);
  packed.sum_sq_lo = words[4].load(std::memory_order_relaxed);
  return SlotAggregate::FromPacked(packed);
}

inline void StorePackedSlot(std::atomic<uint64_t>* words,
                            const SlotAggregate& aggregate) {
  const SlotAggregate::Packed packed = aggregate.ToPacked();
  words[0].store(packed.count, std::memory_order_relaxed);
  words[1].store(packed.sum_hi, std::memory_order_relaxed);
  words[2].store(packed.sum_lo, std::memory_order_relaxed);
  words[3].store(packed.sum_sq_hi, std::memory_order_relaxed);
  words[4].store(packed.sum_sq_lo, std::memory_order_relaxed);
}

// Allocates a zero-initialized, 64-byte-aligned array of atomics for the
// owned (seqlock) storage. make_unique's allocation is only 16-byte
// aligned, so the packed 5-word (40-byte) aggregate slots started at an
// arbitrary cache-line offset: which line a given slot's words straddle
// depended on where the allocator happened to place the array, and the
// first slots of a hot run could cost an extra straddled line. Aligning
// the base to the line size makes slot-to-line mapping a pure function
// of the slot index (slots t and t+1 share a line on a fixed 8-slot /
// 5-line cadence) and lets the run walk stream through whole lines.
// Measured with bench_transport_throughput's queue_owned row (200k
// users x 50 slots, best of 5): 27.0M -> 31.2M reports/s, while the
// mutex-mode d=1 bench_engine_throughput row stayed within noise of its
// baseline (0.98x best-of-5, above the 0.95x floor).
template <typename T>
AlignedAtomicArray<T> MakeAlignedZeroed(size_t n) {
  static_assert(std::is_trivially_destructible_v<T>,
                "AlignedFree releases without running destructors");
  T* p = static_cast<T*>(::operator new(n * sizeof(T),
                                        std::align_val_t{64}));
  for (size_t i = 0; i < n; ++i) new (p + i) T();
  return AlignedAtomicArray<T>(p);
}

// Rebuilds an aggregate from five already-snapshotted plain words.
inline SlotAggregate UnpackSnapshotSlot(const uint64_t* words) {
  SlotAggregate::Packed packed;
  packed.count = words[0];
  packed.sum_hi = words[1];
  packed.sum_lo = words[2];
  packed.sum_sq_hi = words[3];
  packed.sum_sq_lo = words[4];
  return SlotAggregate::FromPacked(packed);
}

}  // namespace

Result<ShardedCollector> ShardedCollector::Create(
    ShardedCollectorOptions options) {
  if (options.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (options.dims < 1) {
    return Status::InvalidArgument("dims must be >= 1");
  }
  if (options.single_writer && options.keep_streams) {
    // Raw per-user streams are owner-private dense arrays; serving them
    // to concurrent readers would need the very mutex single-writer
    // mode exists to elide.
    return Status::InvalidArgument(
        "single_writer collectors are aggregate-only; set keep_streams "
        "= false");
  }
  if (options.histogram.enabled) {
    if (options.histogram.num_bins < 2) {
      return Status::InvalidArgument("histogram.num_bins must be >= 2");
    }
    if (!std::isfinite(options.histogram.lo) ||
        !std::isfinite(options.histogram.hi) ||
        options.histogram.lo >= options.histogram.hi) {
      return Status::InvalidArgument(
          "histogram range wants finite lo < hi");
    }
  }
  return ShardedCollector(options);
}

ShardedCollector::ShardedCollector(ShardedCollectorOptions options)
    : options_(options),
      seqlock_read_retries_(std::make_unique<telemetry::Counter>()) {
  if (telemetry::Enabled()) {
    telemetry::metrics::CollectorDims().Set(
        static_cast<int64_t>(options_.dims));
  }
  shards_.reserve(options_.num_shards);
  for (size_t s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

size_t ShardedCollector::ShardIndexOf(uint64_t user_id) const {
  // Hash rather than modulo directly: sequential fleet user ids would
  // otherwise stripe perfectly, which is fine for balance but makes shard
  // membership depend on the population layout instead of the id alone.
  return ShardIndex(SplitMix64Mix(user_id));
}

uint32_t ShardedCollector::UserIndex::Find(uint64_t user_id,
                                           uint64_t hash) const {
  if (table_.empty()) return kNotFound;
  const size_t mask = table_.size() - 1;
  for (size_t slot = hash >> shift_;; slot = (slot + 1) & mask) {
    const uint32_t stored = table_[slot];
    if (stored == 0) return kNotFound;
    if (entries_[stored - 1].user_id == user_id) return stored - 1;
  }
}

std::pair<uint32_t, bool> ShardedCollector::UserIndex::FindOrInsert(
    uint64_t user_id, uint64_t hash) {
  // Grow before probing so the probe below always meets an empty slot.
  if ((entries_.size() + 1) * 4 > table_.size() * 3) {
    Rehash(std::max<size_t>(table_.size() * 2, 16));
  }
  const size_t mask = table_.size() - 1;
  for (size_t slot = hash >> shift_;; slot = (slot + 1) & mask) {
    const uint32_t stored = table_[slot];
    if (stored == 0) {
      entries_.push_back({user_id, 0, 0});
      table_[slot] = static_cast<uint32_t>(entries_.size());
      return {static_cast<uint32_t>(entries_.size() - 1), true};
    }
    if (entries_[stored - 1].user_id == user_id) return {stored - 1, false};
  }
}

void ShardedCollector::UserIndex::Reserve(size_t users) {
  size_t capacity = 16;
  while (users * 4 > capacity * 3) capacity *= 2;
  if (capacity > table_.size()) Rehash(capacity);
  entries_.reserve(users);
}

void ShardedCollector::UserIndex::Rehash(size_t capacity) {
  table_.assign(capacity, 0);
  shift_ = 64 - std::countr_zero(capacity);
  const size_t mask = capacity - 1;
  for (size_t dense = 0; dense < entries_.size(); ++dense) {
    size_t slot = SplitMix64Mix(entries_[dense].user_id) >> shift_;
    while (table_[slot] != 0) slot = (slot + 1) & mask;
    table_[slot] = static_cast<uint32_t>(dense + 1);
  }
}

void ShardedCollector::GrowSlots(Shard& shard, size_t end_slot) {
  if (end_slot <= shard.slots.size()) return;
  shard.slots.resize(end_slot);
  if (options_.histogram.enabled) {
    shard.histogram.resize(end_slot * options_.histogram.row_size(), 0);
  }
}

void ShardedCollector::GrowOwnedSlots(Shard& shard, size_t end_slot) {
  // The mutex here excludes in-flight seqlock readers (they hold it for
  // their whole snapshot), so the swap below can never reallocate the
  // arrays out from under a racing copy. Only the owner grows, so
  // owned_slots / owned_capacity are stable outside the lock for it.
  std::lock_guard<std::mutex> lock(shard.mu);
  if (end_slot > shard.owned_capacity) {
    size_t capacity = std::max<size_t>(shard.owned_capacity * 2, 64);
    capacity = std::max(capacity, end_slot);
    // MakeAlignedZeroed value-initializes, so the new tail slots are zero
    // -- an empty SlotAggregate / empty bins, exactly like GrowSlots.
    auto packed =
        MakeAlignedZeroed<std::atomic<uint64_t>>(capacity * kPackedWords);
    for (size_t w = 0; w < shard.owned_slots * kPackedWords; ++w) {
      packed[w].store(shard.owned_packed[w].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    }
    shard.owned_packed = std::move(packed);
    if (options_.histogram.enabled) {
      const size_t row_size = options_.histogram.row_size();
      auto bins =
          MakeAlignedZeroed<std::atomic<uint32_t>>(capacity * row_size);
      for (size_t b = 0; b < shard.owned_slots * row_size; ++b) {
        bins[b].store(
            shard.owned_histogram[b].load(std::memory_order_relaxed),
            std::memory_order_relaxed);
      }
      shard.owned_histogram = std::move(bins);
    }
    shard.owned_capacity = capacity;
  }
  shard.owned_slots = end_slot;
}

void ShardedCollector::IngestOwnedRun(Shard& shard, uint64_t user_id,
                                      uint64_t hash, size_t base_slot,
                                      std::span<const double> values,
                                      size_t first, size_t last) {
  // Owner-private bookkeeping: exactly one thread ever ingests into
  // this shard (the single_writer contract), so the user index needs no
  // lock. Cross-thread per-user queries are answered only from the
  // owner or after quiescence (see the header).
  const auto [dense, inserted] = shard.users.FindOrInsert(user_id, hash);
  if (inserted) {
    shard.owned_users.store(
        shard.owned_users.load(std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
  }
  UserEntry& user = shard.users.entry(dense);
  user.last_slot =
      std::max(user.last_slot, static_cast<uint32_t>(base_slot + last));
  const size_t end_slot = base_slot + last + 1;
  if (end_slot > shard.owned_slots) GrowOwnedSlots(shard, end_slot);

  // Seqlock write section: bump to odd, release-fence so the data
  // stores cannot be ordered before it, mutate, then publish with a
  // store-release back to even. Readers that overlap any of this see an
  // odd or moved sequence and retry.
  const uint64_t seq = shard.seq.load(std::memory_order_relaxed);
  shard.seq.store(seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  size_t ingested = 0;
  uint64_t saturated = 0;
  std::atomic<uint64_t>* const slots_base =
      shard.owned_packed.get() + base_slot * kPackedWords;
  for (size_t i = first; i <= last; ++i) {
    if (!std::isfinite(values[i])) continue;
    std::atomic<uint64_t>* words = slots_base + i * kPackedWords;
    SlotAggregate aggregate = LoadPackedSlot(words);
    saturated += static_cast<uint64_t>(aggregate.Add(values[i]));
    StorePackedSlot(words, aggregate);
    ++ingested;
  }
  const SlotHistogramOptions& hist = options_.histogram;
  if (hist.enabled) {
    const size_t row_size = hist.row_size();
    std::atomic<uint32_t>* rows =
        shard.owned_histogram.get() + base_slot * row_size;
    for (size_t i = first; i <= last; ++i) {
      if (!std::isfinite(values[i])) continue;
      std::atomic<uint32_t>& bin =
          rows[i * row_size + hist.BinFor(values[i])];
      const uint32_t count = bin.load(std::memory_order_relaxed);
      if (count == std::numeric_limits<uint32_t>::max()) {
        ++saturated;  // same pinned-bin semantics as BumpBin
      } else {
        bin.store(count + 1, std::memory_order_relaxed);
      }
    }
  }
  shard.seq.store(seq + 2, std::memory_order_release);

  // Totals live outside the write section: they are monotonic counters
  // read relaxed, not part of the consistent-snapshot contract.
  user.reports += static_cast<uint32_t>(ingested);
  shard.owned_reports.store(
      shard.owned_reports.load(std::memory_order_relaxed) + ingested,
      std::memory_order_relaxed);
  shard.owned_saturated.store(
      shard.owned_saturated.load(std::memory_order_relaxed) + saturated,
      std::memory_order_relaxed);
}

size_t ShardedCollector::SnapshotOwned(const Shard& shard,
                                       std::vector<uint64_t>& packed,
                                       std::vector<uint32_t>* hist) const {
  // Seqlock read: copy the words, then retry if the owner was inside a
  // write section (odd sequence) or wrote during the copy (sequence
  // moved). Holding the mutex blocks only capacity growth -- never the
  // ingest fast path -- so readers cannot perturb the throughput win.
  std::lock_guard<std::mutex> lock(shard.mu);
  const size_t slots = shard.owned_slots;
  const size_t words = slots * kPackedWords;
  const size_t bins = (hist != nullptr && options_.histogram.enabled)
                          ? slots * options_.histogram.row_size()
                          : 0;
  packed.resize(words);
  if (hist != nullptr) hist->resize(bins);
  for (;;) {
    const uint64_t seq_before = shard.seq.load(std::memory_order_acquire);
    if (seq_before & 1) {
      CountSeqlockRetry();
      std::this_thread::yield();
      continue;
    }
    for (size_t w = 0; w < words; ++w) {
      packed[w] = shard.owned_packed[w].load(std::memory_order_relaxed);
    }
    for (size_t b = 0; b < bins; ++b) {
      (*hist)[b] = shard.owned_histogram[b].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (shard.seq.load(std::memory_order_relaxed) == seq_before) {
      return slots;
    }
    CountSeqlockRetry();
  }
}

void ShardedCollector::CountSeqlockRetry() const {
  seqlock_read_retries_->Add(1);
  if (telemetry::Enabled()) {
    telemetry::metrics::SeqlockReadRetriesTotal().Add(1);
  }
}

void ShardedCollector::IngestLocked(Shard& shard, const SlotReport& report,
                                    uint64_t hash) {
  // Non-finite values would collide with the NaN missing-slot sentinel and
  // poison the streaming aggregates; no library path produces them
  // (perturbers sanitize, report I/O validates), so a garbage report from
  // an external transport is simply discarded.
  if (!std::isfinite(report.value)) return;
  const uint32_t dense = shard.users.FindOrInsert(report.user_id, hash).first;
  UserEntry& user = shard.users.entry(dense);
  user.last_slot =
      std::max(user.last_slot, static_cast<uint32_t>(report.slot));
  GrowSlots(shard, report.slot + 1);
  const SlotHistogramOptions& hist = options_.histogram;
  uint32_t* hist_row =
      hist.enabled ? shard.histogram.data() + report.slot * hist.row_size()
                   : nullptr;

  if (options_.keep_streams) {
    if (report.slot >= shard.values.size()) {
      shard.values.resize(report.slot + 1);
    }
    std::vector<double>& row = shard.values[report.slot];
    if (dense >= row.size()) row.resize(dense + 1, kMissing);
    const double old_value = row[dense];
    row[dense] = report.value;
    if (std::isnan(old_value)) {
      if (shard.slots[report.slot].Add(report.value)) {
        ++shard.saturated_reports;
      }
      if (hist_row != nullptr) {
        BumpBin(hist_row[hist.BinFor(report.value)],
                shard.saturated_reports);
      }
      ++user.reports;
      ++shard.report_count;
    } else {
      // Overwrite: move the old value's unit count to the new bin, the
      // histogram analogue of SlotAggregate::Replace.
      if (shard.slots[report.slot].Replace(old_value, report.value)) {
        ++shard.saturated_reports;
      }
      if (hist_row != nullptr) {
        --hist_row[hist.BinFor(old_value)];
        BumpBin(hist_row[hist.BinFor(report.value)],
                shard.saturated_reports);
      }
    }
  } else {
    // Aggregate-only mode cannot see a previous value, so every report is
    // treated as new (the documented at-most-once contract).
    if (shard.slots[report.slot].Add(report.value)) {
      ++shard.saturated_reports;
    }
    if (hist_row != nullptr) {
      BumpBin(hist_row[hist.BinFor(report.value)],
              shard.saturated_reports);
    }
    ++user.reports;
    ++shard.report_count;
  }
}

void ShardedCollector::ReserveUsers(size_t expected_users) {
  // Shard assignment is a splitmix64 hash, so the population spreads
  // near-uniformly; a small headroom factor covers the imbalance tail.
  const size_t per_shard = expected_users / shards_.size() +
                           expected_users / (4 * shards_.size()) + 16;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->users.Reserve(per_shard);
  }
}

void ShardedCollector::IngestUserRun(uint64_t user_id, size_t base_slot,
                                     std::span<const double> values) {
  // Like Ingest, non-finite values are discarded -- before registration,
  // so a run with no finite value must not create the user.
  size_t first = 0;
  while (first < values.size() && !std::isfinite(values[first])) ++first;
  if (first == values.size()) return;
  size_t last = values.size() - 1;
  while (!std::isfinite(values[last])) --last;  // exists: first <= last

  telemetry::ScopedTimer ingest_timer;
  if (telemetry::Enabled()) {
    telemetry::metrics::IngestRunsTotal().Add(1);
    telemetry::metrics::IngestReportsTotal().Add(last - first + 1);
    if (telemetry::ShouldSample()) {
      ingest_timer.Arm(&telemetry::metrics::IngestRunSeconds());
    }
  }

  // One hash per run: its low bits pick the shard, its high bits the
  // user index's probe start.
  const uint64_t hash = SplitMix64Mix(user_id);
  Shard& shard = *shards_[ShardIndex(hash)];
  if (options_.single_writer) {
    IngestOwnedRun(shard, user_id, hash, base_slot, values, first, last);
    return;
  }
  std::lock_guard<std::mutex> lock(shard.mu);
  // Resolve the user's dense index once for the run.
  const uint32_t dense = shard.users.FindOrInsert(user_id, hash).first;
  UserEntry& user = shard.users.entry(dense);
  user.last_slot =
      std::max(user.last_slot, static_cast<uint32_t>(base_slot + last));
  const size_t end_slot = base_slot + last + 1;  // one past the run
  GrowSlots(shard, end_slot);
  const SlotHistogramOptions& hist = options_.histogram;

  if (!options_.keep_streams) {
    // Aggregate-only fast path: one exact add per slot and bulk counter
    // updates; nothing else to maintain. Saturation is accumulated
    // branchlessly (Add's bool as 0/1) so the loop carries no
    // data-dependent branch besides the all-finite check.
    size_t ingested = 0;
    uint64_t saturated = 0;
    SlotAggregate* const slots_base = shard.slots.data() + base_slot;
    for (size_t i = first; i <= last; ++i) {
      if (!std::isfinite(values[i])) continue;
      saturated += static_cast<uint64_t>(slots_base[i].Add(values[i]));
      ++ingested;
    }
    shard.saturated_reports += saturated;
    if (hist.enabled) {
      // Separate pass for the bins: keeps the aggregate loop's int128
      // dependency chain free of the bin math and the strided row
      // stores, which measurably beats a fused loop at 1M users.
      const size_t row_size = hist.row_size();
      uint32_t* rows = shard.histogram.data() + base_slot * row_size;
      for (size_t i = first; i <= last; ++i) {
        if (!std::isfinite(values[i])) continue;
        BumpBin(rows[i * row_size + hist.BinFor(values[i])],
                shard.saturated_reports);
      }
    }
    user.reports += static_cast<uint32_t>(ingested);
    shard.report_count += ingested;
    return;
  }

  if (end_slot > shard.values.size()) shard.values.resize(end_slot);
  for (size_t i = first; i <= last; ++i) {
    if (!std::isfinite(values[i])) continue;
    const size_t slot = base_slot + i;
    std::vector<double>& row = shard.values[slot];
    if (dense >= row.size()) row.resize(dense + 1, kMissing);
    const double old_value = row[dense];
    row[dense] = values[i];
    uint32_t* hist_row =
        hist.enabled ? shard.histogram.data() + slot * hist.row_size()
                     : nullptr;
    if (std::isnan(old_value)) {
      if (shard.slots[slot].Add(values[i])) ++shard.saturated_reports;
      if (hist_row != nullptr) {
        BumpBin(hist_row[hist.BinFor(values[i])],
                shard.saturated_reports);
      }
      ++user.reports;
      ++shard.report_count;
    } else {
      if (shard.slots[slot].Replace(old_value, values[i])) {
        ++shard.saturated_reports;
      }
      if (hist_row != nullptr) {
        --hist_row[hist.BinFor(old_value)];
        BumpBin(hist_row[hist.BinFor(values[i])],
                shard.saturated_reports);
      }
    }
  }
}

void ShardedCollector::Ingest(const SlotReport& report) {
  if (options_.single_writer) {
    // Funnel through the run path: single-writer storage has no locked
    // per-report variant, and aggregate-only mode (which single_writer
    // implies) treats every report as new either way.
    IngestUserRun(report.user_id, report.slot, {&report.value, 1});
    return;
  }
  const uint64_t hash = SplitMix64Mix(report.user_id);
  Shard& shard = *shards_[ShardIndex(hash)];
  std::lock_guard<std::mutex> lock(shard.mu);
  IngestLocked(shard, report, hash);
}

void ShardedCollector::IngestBatch(std::span<const SlotReport> reports) {
  if (reports.empty()) return;
  if (options_.single_writer) {
    for (const SlotReport& report : reports) {
      IngestUserRun(report.user_id, report.slot, {&report.value, 1});
    }
    return;
  }
  if (shards_.size() == 1) {
    Shard& shard = *shards_[0];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const SlotReport& report : reports) {
      IngestLocked(shard, report, SplitMix64Mix(report.user_id));
    }
    return;
  }
  // Hash each report once and bucket report indices by shard in one
  // pass, then lock each shard once.
  std::vector<uint64_t> hashes(reports.size());
  std::vector<std::vector<uint32_t>> buckets(shards_.size());
  for (size_t i = 0; i < reports.size(); ++i) {
    hashes[i] = SplitMix64Mix(reports[i].user_id);
    buckets[ShardIndex(hashes[i])].push_back(static_cast<uint32_t>(i));
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (buckets[s].empty()) continue;
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (uint32_t i : buckets[s]) IngestLocked(shard, reports[i], hashes[i]);
  }
}

size_t ShardedCollector::user_count() const {
  size_t total = 0;
  if (options_.single_writer) {
    // The owner maintains a dedicated atomic counter precisely so this
    // query never touches its lock-free user index.
    for (const auto& shard : shards_) {
      total += shard->owned_users.load(std::memory_order_relaxed);
    }
    return total;
  }
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->users.size();
  }
  return total;
}

size_t ShardedCollector::report_count() const {
  size_t total = 0;
  if (options_.single_writer) {
    for (const auto& shard : shards_) {
      total += shard->owned_reports.load(std::memory_order_relaxed);
    }
    return total;
  }
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->report_count;
  }
  return total;
}

uint64_t ShardedCollector::saturated_report_count() const {
  uint64_t total = 0;
  if (options_.single_writer) {
    for (const auto& shard : shards_) {
      total += shard->owned_saturated.load(std::memory_order_relaxed);
    }
    return total;
  }
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->saturated_reports;
  }
  return total;
}

uint64_t ShardedCollector::seqlock_read_retries() const {
  return seqlock_read_retries_->Value();
}

bool ShardedCollector::Contains(uint64_t user_id) const {
  const uint64_t hash = SplitMix64Mix(user_id);
  const Shard& shard = *shards_[ShardIndex(hash)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.users.Find(user_id, hash) != UserIndex::kNotFound;
}

size_t ShardedCollector::SlotCount(uint64_t user_id) const {
  const uint64_t hash = SplitMix64Mix(user_id);
  const Shard& shard = *shards_[ShardIndex(hash)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const uint32_t dense = shard.users.Find(user_id, hash);
  return dense == UserIndex::kNotFound ? 0 : shard.users.entry(dense).reports;
}

size_t ShardedCollector::SlotSpan() const {
  size_t span = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    span = std::max(span, options_.single_writer ? shard->owned_slots
                                                 : shard->slots.size());
  }
  return span;
}

Result<std::vector<double>> ShardedCollector::GapFilledStream(
    uint64_t user_id) const {
  if (!options_.keep_streams) {
    return Status::FailedPrecondition(
        "per-user streams require keep_streams = true");
  }
  const uint64_t hash = SplitMix64Mix(user_id);
  const Shard& shard = *shards_[ShardIndex(hash)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const uint32_t dense = shard.users.Find(user_id, hash);
  if (dense == UserIndex::kNotFound) return Status::NotFound("unknown user");
  const size_t n = size_t{shard.users.entry(dense).last_slot} + 1;
  std::vector<double> raw(n);
  for (size_t t = 0; t < n; ++t) {
    raw[t] = RawValueAt(shard.values, t, dense);
  }
  return FillGapsForward(raw);
}

Result<double> ShardedCollector::SubsequenceMean(uint64_t user_id,
                                                 size_t begin,
                                                 size_t len) const {
  if (len == 0) return Status::InvalidArgument("len must be >= 1");
  if (!options_.keep_streams) {
    return Status::FailedPrecondition(
        "per-user streams require keep_streams = true");
  }
  const uint64_t hash = SplitMix64Mix(user_id);
  const Shard& shard = *shards_[ShardIndex(hash)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const uint32_t dense = shard.users.Find(user_id, hash);
  if (dense == UserIndex::kNotFound) return Status::NotFound("unknown user");
  KahanSum sum;
  size_t count = 0;
  for (size_t t = begin; t < begin + len; ++t) {
    const double v = RawValueAt(shard.values, t, dense);
    if (!std::isnan(v)) {
      sum.Add(v);
      ++count;
    }
  }
  if (count == 0) {
    return Status::NotFound("no reports in the requested interval");
  }
  return sum.Total() / static_cast<double>(count);
}

std::vector<SlotAggregate> ShardedCollector::PopulationSlotAggregates() const {
  std::vector<SlotAggregate> merged;
  if (options_.single_writer) {
    std::vector<uint64_t> packed;
    for (const auto& shard : shards_) {
      const size_t slots = SnapshotOwned(*shard, packed, nullptr);
      if (slots > merged.size()) merged.resize(slots);
      for (size_t t = 0; t < slots; ++t) {
        merged[t].Merge(UnpackSnapshotSlot(packed.data() +
                                           t * kPackedWords));
      }
    }
    return merged;
  }
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    // Sized inside the lock: a concurrent ingest may have grown a shard
    // past any span observed before this loop.
    if (shard->slots.size() > merged.size()) {
      merged.resize(shard->slots.size());
    }
    for (size_t t = 0; t < shard->slots.size(); ++t) {
      merged[t].Merge(shard->slots[t]);
    }
  }
  return merged;
}

Result<std::vector<std::vector<uint64_t>>>
ShardedCollector::PopulationSlotHistograms() const {
  if (!options_.histogram.enabled) {
    return Status::FailedPrecondition(
        "per-slot histograms require histogram.enabled = true");
  }
  const size_t row_size = options_.histogram.row_size();
  std::vector<std::vector<uint64_t>> merged;
  if (options_.single_writer) {
    std::vector<uint64_t> packed;
    std::vector<uint32_t> bins;
    for (const auto& shard : shards_) {
      const size_t slots = SnapshotOwned(*shard, packed, &bins);
      if (slots > merged.size()) {
        merged.resize(slots, std::vector<uint64_t>(row_size, 0));
      }
      for (size_t t = 0; t < slots; ++t) {
        const uint32_t* row = bins.data() + t * row_size;
        for (size_t b = 0; b < row_size; ++b) merged[t][b] += row[b];
      }
    }
    return merged;
  }
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    // Sized inside the lock, like PopulationSlotAggregates: a concurrent
    // ingest may have grown a shard past any previously observed span.
    const size_t shard_slots = shard->histogram.size() / row_size;
    if (shard_slots > merged.size()) {
      merged.resize(shard_slots, std::vector<uint64_t>(row_size, 0));
    }
    for (size_t t = 0; t < shard_slots; ++t) {
      const uint32_t* row = shard->histogram.data() + t * row_size;
      for (size_t b = 0; b < row_size; ++b) merged[t][b] += row[b];
    }
  }
  return merged;
}

uint64_t ShardedCollector::histogram_outlier_count() const {
  if (!options_.histogram.enabled) return 0;
  const size_t row_size = options_.histogram.row_size();
  uint64_t total = 0;
  if (options_.single_writer) {
    std::vector<uint64_t> packed;
    std::vector<uint32_t> bins;
    for (const auto& shard : shards_) {
      const size_t slots = SnapshotOwned(*shard, packed, &bins);
      for (size_t t = 0; t < slots; ++t) {
        total += bins[t * row_size] + bins[t * row_size + row_size - 1];
      }
    }
    return total;
  }
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    // Under/overflow are the first and last entry of each slot row.
    for (size_t t = 0; t < shard->histogram.size() / row_size; ++t) {
      total += shard->histogram[t * row_size] +
               shard->histogram[t * row_size + row_size - 1];
    }
  }
  return total;
}

Result<CollectorShardState> ShardedCollector::ExportShardState(
    size_t shard_index) const {
  if (shard_index >= shards_.size()) {
    return Status::InvalidArgument("shard index out of range");
  }
  if (options_.keep_streams) {
    return Status::FailedPrecondition(
        "shard snapshots cover aggregate-only mode (keep_streams = "
        "false); raw streams are not serialized");
  }
  const Shard& shard = *shards_[shard_index];
  if (options_.single_writer) {
    // The aggregate arrays come through the seqlock like any reader's;
    // the per-user bookkeeping below is owner-private, so this path
    // additionally requires the owner thread or quiescence -- which its
    // only caller, the checkpoint tier, guarantees with its exclusive
    // lock (and recovery runs before any ingest).
    std::vector<uint64_t> packed;
    std::vector<uint32_t> bins;
    CollectorShardState state;
    const size_t slots = SnapshotOwned(shard, packed, &bins);
    state.slots.resize(slots);
    for (size_t t = 0; t < slots; ++t) {
      state.slots[t] = UnpackSnapshotSlot(packed.data() + t * kPackedWords);
    }
    state.histogram.assign(bins.begin(), bins.end());
    state.users = shard.users.entries();
    state.report_count = shard.owned_reports.load(std::memory_order_relaxed);
    state.saturated_reports =
        shard.owned_saturated.load(std::memory_order_relaxed);
    return state;
  }
  std::lock_guard<std::mutex> lock(shard.mu);
  CollectorShardState state;
  state.users = shard.users.entries();
  state.slots = shard.slots;
  state.histogram = shard.histogram;
  state.report_count = shard.report_count;
  state.saturated_reports = shard.saturated_reports;
  return state;
}

Status ShardedCollector::RestoreShardState(size_t shard_index,
                                           CollectorShardState state) {
  if (shard_index >= shards_.size()) {
    return Status::InvalidArgument("shard index out of range");
  }
  if (options_.keep_streams) {
    return Status::FailedPrecondition(
        "shard snapshots cover aggregate-only mode (keep_streams = false)");
  }
  const size_t expected_histogram =
      options_.histogram.enabled
          ? state.slots.size() * options_.histogram.row_size()
          : 0;
  if (state.histogram.size() != expected_histogram) {
    return Status::InvalidArgument(
        "snapshot histogram layout does not match this collector's "
        "configuration (expected " + std::to_string(expected_histogram) +
        " entries, snapshot has " + std::to_string(state.histogram.size()) +
        ")");
  }
  Shard& shard = *shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mu);
  const uint64_t prior_reports =
      options_.single_writer
          ? shard.owned_reports.load(std::memory_order_relaxed)
          : shard.report_count;
  if (shard.users.size() != 0 || prior_reports != 0) {
    return Status::FailedPrecondition(
        "RestoreShardState wants an empty shard (restore runs before any "
        "ingest)");
  }
  shard.users.Reserve(state.users.size());
  for (const UserEntry& entry : state.users) {
    const auto [dense, inserted] =
        shard.users.FindOrInsert(entry.user_id, SplitMix64Mix(entry.user_id));
    if (!inserted) {
      // A duplicated user id would alias two entries; a snapshot can
      // only contain one by corruption the CRC missed or a writer bug,
      // so refuse and leave this shard partially built -- the caller
      // (recovery) discards the whole backend on any error.
      return Status::Internal("snapshot contains a duplicated user id");
    }
    shard.users.entry(dense) = entry;
  }
  if (options_.single_writer) {
    // Restore runs single-threaded before any ingest, so plain relaxed
    // stores into freshly allocated atomic arrays suffice.
    const size_t slots = state.slots.size();
    shard.owned_packed =
        MakeAlignedZeroed<std::atomic<uint64_t>>(slots * kPackedWords);
    for (size_t t = 0; t < slots; ++t) {
      StorePackedSlot(shard.owned_packed.get() + t * kPackedWords,
                      state.slots[t]);
    }
    if (options_.histogram.enabled) {
      shard.owned_histogram =
          MakeAlignedZeroed<std::atomic<uint32_t>>(state.histogram.size());
      for (size_t b = 0; b < state.histogram.size(); ++b) {
        shard.owned_histogram[b].store(state.histogram[b],
                                       std::memory_order_relaxed);
      }
    }
    shard.owned_capacity = slots;
    shard.owned_slots = slots;
    shard.owned_users.store(state.users.size(), std::memory_order_relaxed);
    shard.owned_reports.store(state.report_count,
                              std::memory_order_relaxed);
    shard.owned_saturated.store(state.saturated_reports,
                                std::memory_order_relaxed);
    return Status::OK();
  }
  shard.slots = std::move(state.slots);
  shard.histogram = std::move(state.histogram);
  shard.report_count = static_cast<size_t>(state.report_count);
  shard.saturated_reports = state.saturated_reports;
  return Status::OK();
}

std::vector<double> ShardedCollector::PopulationSlotMeans() const {
  const std::vector<SlotAggregate> aggregates = PopulationSlotAggregates();
  std::vector<double> means(aggregates.size(), kMissing);
  for (size_t t = 0; t < aggregates.size(); ++t) {
    if (aggregates[t].Count() > 0) means[t] = aggregates[t].Mean();
  }
  return means;
}

}  // namespace capp
