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
#include "core/rng.h"
#include "telemetry/instruments.h"
#include "transport/wire_format.h"

namespace capp {
namespace {

constexpr double kMissing = std::numeric_limits<double>::quiet_NaN();

// Relaxed read-modify-write for a location with one writer (the run
// writer): the seqlock and the shard mutex order it, the atomic only
// keeps racing snapshot reads defined.
template <typename T>
inline void AddRelaxed(std::atomic<T>& a, T n) {
  a.store(a.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

// Saturating histogram-bin increment: a bin pinned at 2^32 - 1 stops
// counting and returns 1, for the shard's saturated total, instead of
// silently wrapping.
inline uint64_t BumpBin(std::atomic<uint32_t>& bin) {
  const uint32_t count = bin.load(std::memory_order_relaxed);
  if (count == std::numeric_limits<uint32_t>::max()) return 1;
  bin.store(count + 1, std::memory_order_relaxed);
  return 0;
}

// The shard store keeps each SlotAggregate as its five Packed words in a
// flat atomic array; these convert between the two forms. All accesses
// are relaxed: the seqlock's sequence counter and fences provide the
// ordering, the atomics only keep the racing word accesses defined.
constexpr size_t kPackedWords = 5;

inline SlotAggregate::Packed LoadPackedSlot(
    const std::atomic<uint64_t>* words) {
  SlotAggregate::Packed packed;
  packed.count = words[0].load(std::memory_order_relaxed);
  packed.sum_hi = words[1].load(std::memory_order_relaxed);
  packed.sum_lo = words[2].load(std::memory_order_relaxed);
  packed.sum_sq_hi = words[3].load(std::memory_order_relaxed);
  packed.sum_sq_lo = words[4].load(std::memory_order_relaxed);
  return packed;
}

inline void StorePackedSlot(std::atomic<uint64_t>* words,
                            const SlotAggregate::Packed& packed) {
  words[0].store(packed.count, std::memory_order_relaxed);
  words[1].store(packed.sum_hi, std::memory_order_relaxed);
  words[2].store(packed.sum_lo, std::memory_order_relaxed);
  words[3].store(packed.sum_sq_hi, std::memory_order_relaxed);
  words[4].store(packed.sum_sq_lo, std::memory_order_relaxed);
}

// Allocates a zero-initialized, 64-byte-aligned array of atomics for the
// shard store. make_unique's allocation is only 16-byte aligned, so the
// packed 5-word (40-byte) aggregate slots would start at an arbitrary
// cache-line offset: which line a given slot's words straddle would
// depend on where the allocator happened to place the array, and the
// first slots of a hot run could cost an extra straddled line. Aligning
// the base to the line size makes slot-to-line mapping a pure function
// of the slot index (slots t and t+1 share a line on a fixed 8-slot /
// 5-line cadence) and lets the run walk stream through whole lines.
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
  if (options.keep_streams) {
    return Status::InvalidArgument(
        "ShardedCollector keeps only per-slot aggregates; per-user "
        "streams live in CollectorSession (keep_streams must be false)");
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

void ShardedCollector::Grow(Shard& shard, size_t end_slot) {
  if (end_slot > shard.capacity) {
    size_t capacity = std::max<size_t>(shard.capacity * 2, 64);
    capacity = std::max(capacity, end_slot);
    // MakeAlignedZeroed value-initializes, so the new tail slots are an
    // empty SlotAggregate and empty bins.
    auto packed =
        MakeAlignedZeroed<std::atomic<uint64_t>>(capacity * kPackedWords);
    for (size_t w = 0; w < shard.slots * kPackedWords; ++w) {
      packed[w].store(shard.packed[w].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    }
    shard.packed = std::move(packed);
    if (options_.histogram.enabled) {
      const size_t row_size = options_.histogram.row_size();
      auto bins =
          MakeAlignedZeroed<std::atomic<uint32_t>>(capacity * row_size);
      for (size_t b = 0; b < shard.slots * row_size; ++b) {
        bins[b].store(shard.histogram[b].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
      }
      shard.histogram = std::move(bins);
    }
    shard.capacity = capacity;
  }
  shard.slots = end_slot;
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
                                     size_t dims,
                                     std::span<const double> values) {
  // Mismatched dimensionality is caught earlier with a real error
  // (transport decode failure, WAL replay refusal); reaching here with
  // the wrong count is a programming error, not a data error.
  CAPP_CHECK(dims == options_.dims);
  const UserRun run{user_id, base_slot, values};
  IngestUserRuns(dims, {&run, 1});
}

void ShardedCollector::IngestUserRuns(size_t dims,
                                      std::span<const UserRun> runs) {
  CAPP_CHECK(dims == 1 || dims == options_.dims);
  if (runs.size() > kMaxBatchRuns) {
    for (size_t i = 0; i < runs.size(); i += kMaxBatchRuns) {
      IngestUserRuns(dims, runs.subspan(i, std::min(kMaxBatchRuns,
                                                    runs.size() - i)));
    }
    return;
  }
  telemetry::ScopedTimer ingest_timer;
  if (telemetry::Enabled()) {
    if (dims > 1) {
      telemetry::metrics::IngestDimRowsTotal().Add(dims * runs.size());
    }
    if (telemetry::ShouldSample()) {
      ingest_timer.Arm(&telemetry::metrics::IngestBatchSeconds());
    }
  }

  // Plan every run before touching a shard. Non-finite values would
  // poison the aggregates; no library path produces them, so they are
  // discarded -- and a run with no finite value is dropped here, before
  // registration, so it never creates its user.
  thread_local std::vector<RunPlan> plans;
  plans.clear();
  const size_t max_base_slot =
      dims == 1 ? kWireMaxCells : kWireMaxCells / dims;
  for (const UserRun& run : runs) {
    // The dims == 1 tests keep divisions off the common path.
    CAPP_CHECK(dims == 1 || run.values.size() % dims == 0);
    const size_t slots =
        dims == 1 ? run.values.size() : run.values.size() / dims;
    // One past the last finite cell, in interleaved cell order.
    size_t cells = 0;
    for (size_t k = 0; k < dims; ++k) {
      const double* row = run.values.data() + k * slots;
      size_t reach = slots;
      while (reach > 0 && !std::isfinite(row[reach - 1])) --reach;
      if (reach > 0) cells = std::max(cells, (reach - 1) * dims + k + 1);
    }
    if (cells == 0) continue;
    // The run must end within the uint32 cell index that decode already
    // enforces for every wire frame; past it, the end cell could wrap and
    // skip the growth below, so a caller that bypasses decode aborts here
    // instead of writing out of bounds.
    CAPP_CHECK(run.base_slot < max_base_slot &&
               cells <= kWireMaxCells - run.base_slot * dims);
    // One hash per run: its low bits pick the shard, its high bits the
    // user index's probe start.
    const uint64_t hash = SplitMix64Mix(run.user_id);
    plans.push_back({.user_id = run.user_id,
                     .hash = hash,
                     .values = run.values.data(),
                     .slots = slots,
                     .base_slot = run.base_slot,
                     .cells = cells,
                     .reach = dims == 1 ? cells : (cells + dims - 1) / dims,
                     .shard = ShardIndex(hash)});
  }
  if (plans.empty()) return;

  // Stable counting sort by shard: each group keeps batch order, so a
  // shard registers its users in the order one-by-one ingest would.
  uint64_t reports = 0;
  if (plans.size() == 1) {
    reports = IngestShardRuns(*shards_[plans[0].shard], dims, plans);
  } else {
    thread_local std::vector<size_t> group_end;
    thread_local std::vector<RunPlan> grouped;
    group_end.assign(shards_.size() + 1, 0);
    for (const RunPlan& plan : plans) ++group_end[plan.shard + 1];
    for (size_t s = 0; s < shards_.size(); ++s) {
      group_end[s + 1] += group_end[s];
    }
    grouped.resize(plans.size());
    for (const RunPlan& plan : plans) grouped[group_end[plan.shard]++] = plan;
    // The scatter advanced each shard's start to its end.
    size_t begin = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
      const size_t end = group_end[s];
      if (end > begin) {
        reports += IngestShardRuns(
            *shards_[s], dims,
            std::span<RunPlan>(grouped).subspan(begin, end - begin));
      }
      begin = end;
    }
  }
  if (telemetry::Enabled()) {
    telemetry::metrics::IngestRunsTotal().Add(plans.size());
    telemetry::metrics::IngestReportsTotal().Add(reports);
  }
}

uint64_t ShardedCollector::IngestShardRuns(Shard& shard, size_t dims,
                                           std::span<RunPlan> group) {
  // The one difference between the write disciplines: mutex mode holds
  // the shard mutex for the whole section, while a single writer owns
  // its shard (user index included) and takes the mutex only to grow.
  std::unique_lock<std::mutex> lock(shard.mu, std::defer_lock);
  if (!options_.single_writer) lock.lock();
  uint64_t users_seen = 0;
  size_t first_slot = group[0].base_slot;
  size_t end_cell = 0;  // one past the group's last finite cell
  for (RunPlan& run : group) {
    const auto [dense, inserted] = shard.users.FindOrInsert(run.user_id,
                                                            run.hash);
    run.dense = dense;
    const size_t run_end = run.base_slot * dims + run.cells;
    UserEntry& user = shard.users.entry(dense);
    user.last_slot =
        std::max(user.last_slot, static_cast<uint32_t>(run_end - 1));
    users_seen += inserted ? 1 : 0;
    first_slot = std::min(first_slot, run.base_slot);
    end_cell = std::max(end_cell, run_end);
  }
  if (end_cell > shard.slots) {
    // Growth reallocates the arrays, so it always excludes snapshots.
    if (lock.owns_lock()) {
      Grow(shard, end_cell);
    } else {
      std::lock_guard<std::mutex> grow_lock(shard.mu);
      Grow(shard, end_cell);
    }
  }

  // Seqlock write section: bump to odd, release-fence so the data
  // stores cannot be ordered before it, mutate, then publish with a
  // store-release back to even. A reader overlapping a single writer's
  // section sees an odd or moved sequence and retries; in mutex mode the
  // reader waits on the mutex instead and always sees it even.
  const uint64_t seq = shard.seq.load(std::memory_order_relaxed);
  shard.seq.store(seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  uint64_t saturated = 0;
  // The aggregate walk, cell by cell: each cell's reports from every run
  // of the group are summed exactly in a local SlotAggregate::Partial (in
  // registers; a group holds at most kMaxBatchRuns runs) and the cell's
  // five stored words are loaded and stored once. The collector cannot
  // see a previous value, so every report is new (the at-most-once
  // contract). A run reaches the slots up to its last finite cell's; a
  // cell no run reached finitely is never touched, so no store lands
  // past the grown end. The walk visits each value a run reaches once
  // and counts the non-finite ones, which is how the run's report count
  // is known without a pass of its own. At dims > 1 cell (slot, k) reads
  // dimension k's row of the dim-major payload in place. The loop is
  // instantiated with d = 1 and with one run as compile-time constants,
  // so a lone run (WAL replay, per-run callers) walks straight-line code.
  std::atomic<uint64_t>* const packed = shard.packed.get();
  const auto walk = [&](auto one_dim, auto one_run) {
    const size_t d = decltype(one_dim)::value ? 1 : dims;
    const size_t runs = decltype(one_run)::value ? 1 : group.size();
    const size_t end_slot = (end_cell + d - 1) / d;
    for (size_t slot = first_slot; slot < end_slot; ++slot) {
      for (size_t k = 0; k < d; ++k) {
        SlotAggregate::Partial sum;
        for (size_t r = 0; r < runs; ++r) {
          RunPlan& run = group[r];
          const size_t offset = slot - run.base_slot;  // wraps before it
          if (offset >= run.reach) continue;
          const double v = run.values[k * run.slots + offset];
          if (!std::isfinite(v)) [[unlikely]] {
            ++run.skipped;
            continue;
          }
          saturated += sum.Add(v) ? 1 : 0;
        }
        if (sum.Count() == 0) continue;
        std::atomic<uint64_t>* words = packed + (slot * d + k) * kPackedWords;
        SlotAggregate::Packed stored = LoadPackedSlot(words);
        sum.AddTo(stored);
        StorePackedSlot(words, stored);
      }
    }
  };
  if (dims == 1 && group.size() == 1) {
    walk(std::true_type{}, std::true_type{});
  } else if (dims == 1) {
    walk(std::true_type{}, std::false_type{});
  } else if (group.size() == 1) {
    walk(std::false_type{}, std::true_type{});
  } else {
    walk(std::false_type{}, std::false_type{});
  }
  const SlotHistogramOptions& hist = options_.histogram;
  if (hist.enabled) {
    // Bins are bumped per report, run by run, in a separate pass: keeps
    // the aggregate loop's int128 dependency chain free of the bin math
    // and the strided row stores, which measurably beats a fused loop at
    // 1M users. Cells past a run's last finite one are non-finite, so
    // the walk skips them before indexing a row.
    const size_t row_size = hist.row_size();
    for (const RunPlan& run : group) {
      std::atomic<uint32_t>* const rows =
          shard.histogram.get() + run.base_slot * dims * row_size;
      for (size_t k = 0; k < dims; ++k) {
        const double* row = run.values + k * run.slots;
        for (size_t t = 0; t < run.slots; ++t) {
          if (!std::isfinite(row[t])) continue;
          saturated +=
              BumpBin(rows[(t * dims + k) * row_size + hist.BinFor(row[t])]);
        }
      }
    }
  }
  uint64_t reports = 0;
  for (const RunPlan& run : group) {
    const uint64_t run_reports = run.reach * dims - run.skipped;
    shard.users.entry(run.dense).reports +=
        static_cast<uint32_t>(run_reports);
    reports += run_reports;
  }
  if (users_seen > 0) AddRelaxed<uint64_t>(shard.users_seen, users_seen);
  AddRelaxed<uint64_t>(shard.reports, reports);
  AddRelaxed<uint64_t>(shard.saturated, saturated);
  shard.seq.store(seq + 2, std::memory_order_release);
  return reports;
}

void ShardedCollector::Snapshot(const Shard& shard, unsigned parts,
                                ShardSnapshot& out) const {
  // The mutex excludes growth under both disciplines and the whole run in
  // mutex mode, so only a single writer's run can overlap the copy: its
  // sequence is odd or moves, and the copy is retried. The mutex never
  // blocks a single writer's run, only its rare growth.
  std::lock_guard<std::mutex> lock(shard.mu);
  out.slots = shard.slots;
  const size_t words = (parts & kAggregates) ? out.slots * kPackedWords : 0;
  const size_t bins = (parts & kBins) && options_.histogram.enabled
                          ? out.slots * options_.histogram.row_size()
                          : 0;
  out.packed.resize(words);
  out.bins.resize(bins);
  for (;;) {
    const uint64_t seq_before = shard.seq.load(std::memory_order_acquire);
    if (seq_before & 1) {
      CountSeqlockRetry();
      std::this_thread::yield();
      continue;
    }
    for (size_t w = 0; w < words; ++w) {
      out.packed[w] = shard.packed[w].load(std::memory_order_relaxed);
    }
    for (size_t b = 0; b < bins; ++b) {
      out.bins[b] = shard.histogram[b].load(std::memory_order_relaxed);
    }
    out.users_seen = shard.users_seen.load(std::memory_order_relaxed);
    out.reports = shard.reports.load(std::memory_order_relaxed);
    out.saturated = shard.saturated.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (shard.seq.load(std::memory_order_relaxed) == seq_before) break;
    CountSeqlockRetry();
  }
  if (parts & kUsers) {
    const std::span<const UserEntry> users = shard.users.entries();
    out.users.assign(users.begin(), users.end());
  }
}

void ShardedCollector::CountSeqlockRetry() const {
  seqlock_read_retries_->Add(1);
  if (telemetry::Enabled()) {
    telemetry::metrics::SeqlockReadRetriesTotal().Add(1);
  }
}

uint64_t ShardedCollector::SumTotal(uint64_t ShardSnapshot::*total) const {
  uint64_t sum = 0;
  ShardSnapshot snapshot;
  for (const auto& shard : shards_) {
    Snapshot(*shard, kTotals, snapshot);
    sum += snapshot.*total;
  }
  return sum;
}

size_t ShardedCollector::user_count() const {
  return SumTotal(&ShardSnapshot::users_seen);
}

size_t ShardedCollector::report_count() const {
  return SumTotal(&ShardSnapshot::reports);
}

uint64_t ShardedCollector::saturated_report_count() const {
  return SumTotal(&ShardSnapshot::saturated);
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
  ShardSnapshot snapshot;
  for (const auto& shard : shards_) {
    Snapshot(*shard, kTotals, snapshot);
    span = std::max(span, snapshot.slots);
  }
  return span;
}

std::vector<SlotAggregate> ShardedCollector::PopulationSlotAggregates() const {
  std::vector<SlotAggregate> merged;
  ShardSnapshot snapshot;
  for (const auto& shard : shards_) {
    Snapshot(*shard, kAggregates, snapshot);
    if (snapshot.slots > merged.size()) merged.resize(snapshot.slots);
    for (size_t t = 0; t < snapshot.slots; ++t) {
      merged[t].Merge(
          UnpackSnapshotSlot(snapshot.packed.data() + t * kPackedWords));
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
  ShardSnapshot snapshot;
  for (const auto& shard : shards_) {
    Snapshot(*shard, kBins, snapshot);
    if (snapshot.slots > merged.size()) {
      merged.resize(snapshot.slots, std::vector<uint64_t>(row_size, 0));
    }
    for (size_t t = 0; t < snapshot.slots; ++t) {
      const uint32_t* row = snapshot.bins.data() + t * row_size;
      for (size_t b = 0; b < row_size; ++b) merged[t][b] += row[b];
    }
  }
  return merged;
}

uint64_t ShardedCollector::histogram_outlier_count() const {
  if (!options_.histogram.enabled) return 0;
  const size_t row_size = options_.histogram.row_size();
  uint64_t total = 0;
  ShardSnapshot snapshot;
  for (const auto& shard : shards_) {
    Snapshot(*shard, kBins, snapshot);
    // Under/overflow are the first and last entry of each slot row.
    for (size_t t = 0; t < snapshot.slots; ++t) {
      total += snapshot.bins[t * row_size] +
               snapshot.bins[t * row_size + row_size - 1];
    }
  }
  return total;
}

Result<CollectorShardState> ShardedCollector::ExportShardState(
    size_t shard_index) const {
  if (shard_index >= shards_.size()) {
    return Status::InvalidArgument("shard index out of range");
  }
  // A single writer's user entries are owner-private, so this export
  // needs the owner thread or quiescence -- which its only caller, the
  // checkpoint tier, guarantees with its exclusive lock (and recovery
  // runs before any ingest).
  ShardSnapshot snapshot;
  Snapshot(*shards_[shard_index], kAggregates | kBins | kUsers, snapshot);
  CollectorShardState state;
  state.users = std::move(snapshot.users);
  state.slots.resize(snapshot.slots);
  for (size_t t = 0; t < snapshot.slots; ++t) {
    state.slots[t] =
        UnpackSnapshotSlot(snapshot.packed.data() + t * kPackedWords);
  }
  state.histogram = std::move(snapshot.bins);
  state.report_count = snapshot.reports;
  state.saturated_reports = snapshot.saturated;
  return state;
}

Status ShardedCollector::RestoreShardState(size_t shard_index,
                                           CollectorShardState state) {
  if (shard_index >= shards_.size()) {
    return Status::InvalidArgument("shard index out of range");
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
  if (shard.users.size() != 0 ||
      shard.reports.load(std::memory_order_relaxed) != 0) {
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
  // Restore runs before any ingest, so plain relaxed stores into freshly
  // allocated arrays suffice.
  const size_t slots = state.slots.size();
  shard.packed = MakeAlignedZeroed<std::atomic<uint64_t>>(slots * kPackedWords);
  for (size_t t = 0; t < slots; ++t) {
    StorePackedSlot(shard.packed.get() + t * kPackedWords,
                    state.slots[t].ToPacked());
  }
  if (options_.histogram.enabled) {
    shard.histogram =
        MakeAlignedZeroed<std::atomic<uint32_t>>(state.histogram.size());
    for (size_t b = 0; b < state.histogram.size(); ++b) {
      shard.histogram[b].store(state.histogram[b], std::memory_order_relaxed);
    }
  }
  shard.capacity = slots;
  shard.slots = slots;
  shard.users_seen.store(state.users.size(), std::memory_order_relaxed);
  shard.reports.store(state.report_count, std::memory_order_relaxed);
  shard.saturated.store(state.saturated_reports, std::memory_order_relaxed);
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
