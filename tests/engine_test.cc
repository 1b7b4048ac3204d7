// Tests for the sharded stream-publication engine: the gap-fill policy,
// exact slot aggregates, CollectorSession and ShardedCollector against
// the legacy map-based collector, the user index under colliding and
// wrapping probes, restore refusals, batched ingest against one-by-one
// ingest and against a serial oracle under two writers, the engine
// config fingerprint, and the Fleet determinism contract.
#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/check.h"
#include "core/rng.h"
#include "core/stream_digest.h"
#include "engine/engine_config.h"
#include "engine/fleet.h"
#include "engine/sharded_collector.h"
#include "engine/thread_pool.h"
#include "storage/collector_backend.h"
#include "stream/gap_fill.h"
#include "multidim/multidim_perturber.h"
#include "stream/session.h"
#include "stream/smoothing.h"
#include "telemetry/instruments.h"
#include "telemetry/metrics.h"

namespace capp {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ------------------------------------------------------------- gap fill ----

TEST(GapFillTest, LeadingGapsUsePrior) {
  const double xs[] = {kNaN, kNaN, 0.8, kNaN};
  const std::vector<double> filled = FillGapsForward(xs);
  ASSERT_EQ(filled.size(), 4u);
  EXPECT_DOUBLE_EQ(filled[0], kGapFillPrior);
  EXPECT_DOUBLE_EQ(filled[1], kGapFillPrior);
  EXPECT_DOUBLE_EQ(filled[2], 0.8);
  EXPECT_DOUBLE_EQ(filled[3], 0.8);  // carried forward
}

TEST(GapFillTest, DenseInputPassesThrough) {
  const double xs[] = {0.1, 0.2, 0.3};
  const std::vector<double> filled = FillGapsForward(xs);
  EXPECT_EQ(filled, (std::vector<double>{0.1, 0.2, 0.3}));
}

TEST(GapFillTest, CustomPrior) {
  const double xs[] = {kNaN, 0.4};
  const std::vector<double> filled = FillGapsForward(xs, 0.0);
  EXPECT_DOUBLE_EQ(filled[0], 0.0);
  EXPECT_DOUBLE_EQ(filled[1], 0.4);
}

TEST(GapFillTest, EmptyInput) {
  EXPECT_TRUE(FillGapsForward({}).empty());
}

// ------------------------------------------------------ slot aggregates ----

TEST(SlotAggregateTest, AddMatchesBatchMoments) {
  SlotAggregate agg;
  const std::vector<double> xs = {0.1, 0.4, 0.7, 0.2, 0.9};
  double sum = 0.0;
  for (double x : xs) {
    agg.Add(x);
    sum += x;
  }
  const double mean = sum / xs.size();
  double m2 = 0.0;
  for (double x : xs) m2 += (x - mean) * (x - mean);
  EXPECT_EQ(agg.Count(), xs.size());
  EXPECT_NEAR(agg.Mean(), mean, 1e-12);
  EXPECT_NEAR(agg.Variance(), m2 / xs.size(), 1e-12);
}

TEST(SlotAggregateTest, MergeEqualsSequential) {
  SlotAggregate a;
  SlotAggregate b;
  SlotAggregate all;
  for (double x : {0.1, 0.2, 0.35}) {
    a.Add(x);
    all.Add(x);
  }
  for (double x : {0.8, 0.65}) {
    b.Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.Count(), all.Count());
  EXPECT_NEAR(a.Mean(), all.Mean(), 1e-12);
  EXPECT_NEAR(a.M2(), all.M2(), 1e-12);
}

// The exact sums as one 128-bit value, from the Packed words.
__int128 Sum128(uint64_t hi, uint64_t lo) {
  return static_cast<__int128>(static_cast<unsigned __int128>(hi) << 64 |
                               lo);
}

TEST(SlotAggregateTest, FixedPointSplitMatchesTheDirectCast) {
  // Each report adds trunc(x * 2^80) and trunc(x^2 * 2^60), computed as
  // two int64 truncations; they must equal the direct double -> int128
  // casts bit for bit across the clamped range, from subnormals through
  // the 2^-40 and 2^-20 split points up to the 2^16 bound.
  std::vector<double> xs = {0.0, -0.0, 0x1p-1074, 0x1p-1022, 0x1p-80,
                            0x1p-60, 0x1p-41, 0x1p-40, 0x1p-39, 0x1p-21,
                            0x1p-20, 0x1p-19, 0.5, 1.0, 65535.99999999999,
                            65536.0};
  Rng rng(91);
  for (int i = 0; i < 20000; ++i) {
    const int exponent = static_cast<int>(rng.UniformInt(99)) - 83;
    xs.push_back(std::ldexp(1.0 + rng.UniformDouble(), exponent));
  }
  for (double magnitude : xs) {
    for (double x : {magnitude, -magnitude}) {
      SlotAggregate one;
      one.Add(x);
      const auto packed = one.ToPacked();
      EXPECT_EQ(Sum128(packed.sum_hi, packed.sum_lo),
                static_cast<__int128>(x * 0x1p80))
          << x;
      EXPECT_EQ(Sum128(packed.sum_sq_hi, packed.sum_sq_lo),
                static_cast<__int128>(x * x * 0x1p60))
          << x;
    }
  }
}

TEST(SlotAggregateTest, PartialHoldsItsMaximumAtTheSaturationBound) {
  // A Partial pre-sums the fixed-point parts in int64; at kMaxReports
  // reports of the largest magnitude (and with every saturating value
  // clamped there) the sums must still equal the 128-bit sums.
  for (double x : {65536.0, -65536.0, 1.0e9, -1.0e9, 65535.75}) {
    SCOPED_TRACE(x);
    SlotAggregate::Partial partial;
    SlotAggregate added;
    for (size_t i = 0; i < SlotAggregate::Partial::kMaxReports; ++i) {
      EXPECT_EQ(partial.Add(x), added.Add(x));
    }
    SlotAggregate::Packed summed = SlotAggregate().ToPacked();
    partial.AddTo(summed);
    const auto expected = added.ToPacked();
    EXPECT_EQ(summed.count, expected.count);
    EXPECT_EQ(summed.sum_hi, expected.sum_hi);
    EXPECT_EQ(summed.sum_lo, expected.sum_lo);
    EXPECT_EQ(summed.sum_sq_hi, expected.sum_sq_hi);
    EXPECT_EQ(summed.sum_sq_lo, expected.sum_sq_lo);
  }
}

TEST(SlotAggregateTest, AddReportsSaturation) {
  // |x| > 2^16 clamps to the fixed-point bound; Add must say so, because
  // the resulting count/mean/M2 no longer describe the true reports.
  SlotAggregate agg;
  EXPECT_FALSE(agg.Add(0.5));
  EXPECT_FALSE(agg.Add(65536.0));   // exactly at the bound: representable
  EXPECT_TRUE(agg.Add(65537.0));    // beyond it: clamped
  EXPECT_TRUE(agg.Add(-1.0e9));
  EXPECT_EQ(agg.Count(), 4u);
  // The clamped values entered as +/-2^16.
  EXPECT_DOUBLE_EQ(agg.Mean(), (0.5 + 65536.0 + 65536.0 - 65536.0) / 4.0);
}

TEST(ShardedCollectorTest, CountsSaturatedReports) {
  auto collector = ShardedCollector::Create();
  ASSERT_TRUE(collector.ok());
  EXPECT_EQ(collector->saturated_report_count(), 0u);
  // A raw (unnormalized) telemetry run: two values beyond the bound.
  collector->IngestUserRun(9, 0,
                           std::vector<double>{120000.0, 0.5, -3.0e8});
  collector->Ingest({10, 0, 2.0e5});
  EXPECT_EQ(collector->saturated_report_count(), 3u);
  EXPECT_EQ(collector->report_count(), 4u);
  // In-range ingest never counts.
  collector->IngestUserRun(11, 0, std::vector<double>{0.25, 0.75});
  EXPECT_EQ(collector->saturated_report_count(), 3u);
}

TEST(ShardedCollectorTest, ShardIndexIsStableAndInRange) {
  auto collector = ShardedCollector::Create({.num_shards = 16});
  ASSERT_TRUE(collector.ok());
  for (uint64_t user = 0; user < 200; ++user) {
    const size_t shard = collector->ShardIndexOf(user);
    EXPECT_LT(shard, 16u);
    EXPECT_EQ(shard, collector->ShardIndexOf(user));  // pure function
  }
}

// --------------------------------------------- sharded collector basics ----

TEST(ShardedCollectorTest, RejectsZeroShards) {
  EXPECT_FALSE(ShardedCollector::Create({.num_shards = 0}).ok());
}

TEST(ShardedCollectorTest, RefusesKeepStreams) {
  // Raw streams live in CollectorSession; the vestigial option may only
  // hold its default, in either write discipline.
  for (const bool single_writer : {false, true}) {
    SCOPED_TRACE(single_writer);
    ShardedCollectorOptions options;
    options.single_writer = single_writer;
    EXPECT_TRUE(ShardedCollector::Create(options).ok());
    options.keep_streams = true;
    const auto refused = ShardedCollector::Create(options);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ShardedCollectorDeathTest, RunPastTheCellIndexAborts) {
  // base_slot + 1 wraps to 0 here, which would skip the growth and write
  // out of bounds; the collector must abort instead.
  auto collector = ShardedCollector::Create();
  ASSERT_TRUE(collector.ok());
  const double value = 0.5;
  EXPECT_DEATH(collector->IngestUserRun(1, SIZE_MAX, {&value, 1}),
               "CAPP_CHECK failed");
  EXPECT_DEATH(collector->IngestUserRun(1, size_t{1} << 32, {&value, 1}),
               "CAPP_CHECK failed");
  // So does a run that starts inside the index but ends past it.
  EXPECT_DEATH(
      collector->IngestUserRun(1, (size_t{1} << 32) - 1,
                               std::vector<double>{0.5, 0.5}),
      "CAPP_CHECK failed");
}

TEST(ShardedCollectorTest, NonFiniteReportsAreDiscarded) {
  auto collector = ShardedCollector::Create();
  ASSERT_TRUE(collector.ok());
  collector->Ingest({1, 0, kNaN});
  collector->Ingest({1, 0, std::numeric_limits<double>::infinity()});
  // A garbage report must not register the user or touch aggregates...
  EXPECT_FALSE(collector->Contains(1));
  EXPECT_EQ(collector->report_count(), 0u);
  EXPECT_TRUE(collector->PopulationSlotMeans().empty());
  // ...and must not shadow a later valid report for the same (user, slot).
  collector->Ingest({1, 0, 0.3});
  EXPECT_EQ(collector->SlotCount(1), 1u);
  const auto means = collector->PopulationSlotMeans();
  ASSERT_EQ(means.size(), 1u);
  EXPECT_DOUBLE_EQ(means[0], 0.3);
}

TEST(ShardedCollectorTest, IngestStreamsAggregates) {
  auto collector = ShardedCollector::Create();
  ASSERT_TRUE(collector.ok());
  collector->Ingest({1, 0, 0.4});
  EXPECT_TRUE(collector->Contains(1));
  EXPECT_EQ(collector->SlotCount(1), 1u);
  const auto means = collector->PopulationSlotMeans();
  ASSERT_EQ(means.size(), 1u);
  EXPECT_DOUBLE_EQ(means[0], 0.4);
}

TEST(ShardedCollectorTest, AggregateOnlyEmptyRunRegistersNothing) {
  // An empty run -- and a run of only non-finite values -- must not
  // register the user, bump SlotCount, or touch the aggregates.
  auto collector = ShardedCollector::Create();
  ASSERT_TRUE(collector.ok());
  collector->IngestUserRun(42, 0, {});
  const double junk[] = {kNaN, std::numeric_limits<double>::infinity()};
  collector->IngestUserRun(42, 3, junk);
  EXPECT_FALSE(collector->Contains(42));
  EXPECT_EQ(collector->SlotCount(42), 0u);
  EXPECT_EQ(collector->user_count(), 0u);
  EXPECT_EQ(collector->report_count(), 0u);
  EXPECT_TRUE(collector->PopulationSlotAggregates().empty());
  // A later real run for the same user starts from a clean slate.
  const double run[] = {0.25, 0.5};
  collector->IngestUserRun(42, 1, run);
  EXPECT_TRUE(collector->Contains(42));
  EXPECT_EQ(collector->SlotCount(42), 2u);
  const auto aggregates = collector->PopulationSlotAggregates();
  ASSERT_EQ(aggregates.size(), 3u);
  EXPECT_EQ(aggregates[0].Count(), 0u);
  EXPECT_EQ(aggregates[1].Count(), 1u);
  EXPECT_DOUBLE_EQ(aggregates[1].Mean(), 0.25);
}

TEST(ShardedCollectorTest, AggregatesBitIdenticalAcrossShardCounts) {
  // PopulationSlotAggregates merges shard-local aggregates in shard-index
  // order; with the exact integer sums the result must be bit-identical
  // whether one shard held everything or 64 shards each held a sliver.
  Rng rng(31);
  std::vector<std::vector<double>> runs;
  for (uint64_t user = 0; user < 200; ++user) {
    std::vector<double> run;
    for (size_t t = 0; t < 12; ++t) run.push_back(rng.UniformDouble());
    runs.push_back(std::move(run));
  }
  std::vector<std::vector<SlotAggregate>> results;
  for (size_t shards : {size_t{1}, size_t{16}, size_t{64}}) {
    auto collector = ShardedCollector::Create({.num_shards = shards});
    ASSERT_TRUE(collector.ok());
    for (uint64_t user = 0; user < runs.size(); ++user) {
      collector->IngestUserRun(user, 0, runs[user]);
    }
    results.push_back(collector->PopulationSlotAggregates());
  }
  for (size_t i = 1; i < results.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_EQ(results[i].size(), results[0].size());
    for (size_t t = 0; t < results[0].size(); ++t) {
      EXPECT_EQ(results[i][t].Count(), results[0][t].Count()) << t;
      EXPECT_EQ(std::bit_cast<uint64_t>(results[i][t].Mean()),
                std::bit_cast<uint64_t>(results[0][t].Mean()))
          << t;
      EXPECT_EQ(std::bit_cast<uint64_t>(results[i][t].M2()),
                std::bit_cast<uint64_t>(results[0][t].M2()))
          << t;
    }
  }
}

TEST(ShardedCollectorTest, UnknownUserIsNotFound) {
  auto collector = ShardedCollector::Create();
  ASSERT_TRUE(collector.ok());
  EXPECT_FALSE(collector->Contains(5));
  EXPECT_EQ(collector->SlotCount(5), 0u);
}

// ----------------------------------- equivalence with legacy collector ----

// The seed's collector storage, reimplemented as the test oracle: nested
// ordered maps, last-write-wins, gap fill with the last preceding report.
class ReferenceCollector {
 public:
  void Ingest(const SlotReport& r) { raw_[r.user_id][r.slot] = r.value; }

  std::vector<double> GapFilledStream(uint64_t user) const {
    const auto& slots = raw_.at(user);
    const size_t n = slots.rbegin()->first + 1;
    std::vector<double> stream(n, kGapFillPrior);
    double last = kGapFillPrior;
    for (size_t t = 0; t < n; ++t) {
      const auto it = slots.find(t);
      if (it != slots.end()) last = it->second;
      stream[t] = last;
    }
    return stream;
  }

  std::vector<double> PopulationSlotMeans() const {
    size_t span = 0;
    for (const auto& [user, slots] : raw_) {
      span = std::max(span, slots.rbegin()->first + 1);
    }
    std::vector<double> sums(span, 0.0);
    std::vector<size_t> counts(span, 0);
    for (const auto& [user, slots] : raw_) {
      for (const auto& [slot, value] : slots) {
        sums[slot] += value;
        counts[slot] += 1;
      }
    }
    std::vector<double> means(span, kNaN);
    for (size_t t = 0; t < span; ++t) {
      if (counts[t] > 0) means[t] = sums[t] / counts[t];
    }
    return means;
  }

  const std::map<uint64_t, std::map<size_t, double>>& raw() const {
    return raw_;
  }

 private:
  std::map<uint64_t, std::map<size_t, double>> raw_;
};

TEST(ShardedCollectorTest, MatchesLegacyOnRandomReportOrders) {
  Rng rng(2024);
  // Sparse, adversarial user ids: same low bits, huge magnitudes.
  const std::vector<uint64_t> users = {0,  1,  2,  16, 32, 1ULL << 40,
                                       (1ULL << 63) + 5, 999999937};
  std::vector<SlotReport> reports;
  for (uint64_t user : users) {
    const size_t n_reports = 1 + rng.UniformInt(30);
    for (size_t i = 0; i < n_reports; ++i) {
      reports.push_back({user, static_cast<size_t>(rng.UniformInt(40)),
                         rng.UniformDouble()});
    }
  }
  // Shuffle so ingest order is unrelated to (user, slot) order; duplicates
  // exercise last-write-wins.
  for (size_t i = reports.size() - 1; i > 0; --i) {
    std::swap(reports[i], reports[rng.UniformInt(i + 1)]);
  }

  ReferenceCollector reference;
  for (const SlotReport& r : reports) reference.Ingest(r);

  // CollectorSession keeps raw streams: it ingests the shuffled reports,
  // duplicates included, and must publish the reference's gap-filled
  // streams (window 1: no smoothing).
  auto session = CollectorSession::Create(1);
  ASSERT_TRUE(session.ok());
  for (const SlotReport& r : reports) session->Ingest(r);
  EXPECT_EQ(session->user_count(), reference.raw().size());
  for (uint64_t user : users) {
    SCOPED_TRACE(user);
    EXPECT_EQ(session->SlotCount(user), reference.raw().at(user).size());
    auto stream = session->PublishedStream(user);
    ASSERT_TRUE(stream.ok());
    EXPECT_EQ(*stream, reference.GapFilledStream(user));
  }
  const std::vector<double> expected_means = reference.PopulationSlotMeans();
  const std::vector<double> session_means = session->PopulationSlotMeans();
  ASSERT_EQ(session_means.size(), expected_means.size());
  for (size_t t = 0; t < session_means.size(); ++t) {
    if (std::isnan(expected_means[t])) {
      EXPECT_TRUE(std::isnan(session_means[t])) << "slot " << t;
    } else {
      EXPECT_NEAR(session_means[t], expected_means[t], 1e-12) << "slot " << t;
    }
  }

  // ShardedCollector keeps only aggregates under an at-most-once
  // contract: it ingests the last-write-wins set of reports, in shuffled
  // order, and its means must match the session's bit for bit.
  std::vector<SlotReport> latest;
  for (const auto& [user, slots] : reference.raw()) {
    for (const auto& [slot, value] : slots) {
      latest.push_back({user, slot, value});
    }
  }
  for (size_t i = latest.size() - 1; i > 0; --i) {
    std::swap(latest[i], latest[rng.UniformInt(i + 1)]);
  }
  for (size_t shards : {size_t{1}, size_t{3}, size_t{16}}) {
    SCOPED_TRACE(shards);
    auto sharded = ShardedCollector::Create({.num_shards = shards});
    ASSERT_TRUE(sharded.ok());
    // Mix the two ingest shapes: half one-by-one, half as runs whose
    // trailing NaN pad must be trimmed (the slot span below would grow
    // past the reference's otherwise).
    const size_t half = latest.size() / 2;
    for (size_t i = 0; i < half; ++i) sharded->Ingest(latest[i]);
    for (size_t i = half; i < latest.size(); ++i) {
      sharded->IngestUserRun(latest[i].user_id, latest[i].slot,
                             std::vector<double>{latest[i].value, kNaN});
    }

    EXPECT_EQ(sharded->user_count(), session->user_count());
    EXPECT_EQ(sharded->report_count(), latest.size());
    for (uint64_t user : users) {
      EXPECT_EQ(sharded->SlotCount(user), session->SlotCount(user)) << user;
    }
    const std::vector<double> means = sharded->PopulationSlotMeans();
    ASSERT_EQ(means.size(), session_means.size());
    for (size_t t = 0; t < means.size(); ++t) {
      EXPECT_EQ(std::bit_cast<uint64_t>(means[t]),
                std::bit_cast<uint64_t>(session_means[t]))
          << "slot " << t;
    }
  }
}

TEST(ShardedCollectorTest, ConcurrentIngestMatchesSerial) {
  // The same reports ingested from 8 threads, one whole-stream run per
  // user, and from 1 thread, report by report, must yield identical
  // queryable state (ingest order may differ; every (user, slot) pair is
  // ingested once, the collector's contract).
  const size_t kUsers = 64;
  const size_t kSlots = 32;
  std::vector<std::vector<double>> streams(kUsers);
  Rng rng(7);
  for (uint64_t u = 0; u < kUsers; ++u) {
    for (size_t t = 0; t < kSlots; ++t) {
      streams[u].push_back(rng.UniformDouble());
    }
  }
  auto serial = ShardedCollector::Create();
  ASSERT_TRUE(serial.ok());
  for (uint64_t u = 0; u < kUsers; ++u) {
    for (size_t t = 0; t < kSlots; ++t) serial->Ingest({u, t, streams[u][t]});
  }

  auto concurrent = ShardedCollector::Create();
  ASSERT_TRUE(concurrent.ok());
  const size_t kUsersPerChunk = 8;
  ParallelFor(kUsers / kUsersPerChunk, 8, [&](size_t c) {
    for (uint64_t u = c * kUsersPerChunk; u < (c + 1) * kUsersPerChunk; ++u) {
      concurrent->IngestUserRun(u, 0, streams[u]);
    }
  });

  EXPECT_EQ(concurrent->user_count(), serial->user_count());
  EXPECT_EQ(concurrent->report_count(), serial->report_count());
  for (uint64_t u = 0; u < kUsers; ++u) {
    EXPECT_EQ(serial->SlotCount(u), kSlots) << "user " << u;
    EXPECT_EQ(concurrent->SlotCount(u), kSlots) << "user " << u;
  }
  EXPECT_EQ(CollectorStateDigest(*concurrent), CollectorStateDigest(*serial));
  const auto ma = serial->PopulationSlotMeans();
  const auto mb = concurrent->PopulationSlotMeans();
  ASSERT_EQ(ma.size(), mb.size());
  for (size_t t = 0; t < ma.size(); ++t) {
    // Bit-identical, not merely close: the exact integer aggregates make
    // population statistics independent of ingest interleaving.
    EXPECT_EQ(std::bit_cast<uint64_t>(ma[t]),
              std::bit_cast<uint64_t>(mb[t]))
        << "slot " << t;
  }
}

// ------------------------------------- single-writer (shard-owned) mode ----

TEST(ShardedCollectorTest, SingleWriterMatchesMutexIngestExactly) {
  // The same runs through a mutex-mode and a single-writer-mode collector
  // must leave bit-identical state -- counters, aggregates, histograms,
  // and exported checkpoints: only the locking discipline differs.
  Rng rng(53);
  std::vector<std::vector<double>> runs;
  for (uint64_t user = 0; user < 300; ++user) {
    std::vector<double> run;
    const size_t len = 1 + rng.UniformInt(20);
    for (size_t t = 0; t < len; ++t) {
      // Mostly unit-range, with occasional saturating outliers so the
      // saturated-report counter is exercised in both modes.
      run.push_back(rng.UniformInt(40) == 0 ? 1.0e9 : rng.UniformDouble());
    }
    runs.push_back(std::move(run));
  }
  ShardedCollectorOptions options;
  options.num_shards = 8;
  options.histogram = {.enabled = true, .num_bins = 16};
  auto mutex_mode = ShardedCollector::Create(options);
  options.single_writer = true;
  auto owned_mode = ShardedCollector::Create(options);
  ASSERT_TRUE(mutex_mode.ok() && owned_mode.ok());
  for (uint64_t user = 0; user < runs.size(); ++user) {
    mutex_mode->IngestUserRun(user, user % 3, runs[user]);
    owned_mode->IngestUserRun(user, user % 3, runs[user]);
  }

  EXPECT_EQ(owned_mode->user_count(), mutex_mode->user_count());
  EXPECT_EQ(owned_mode->report_count(), mutex_mode->report_count());
  EXPECT_EQ(owned_mode->saturated_report_count(),
            mutex_mode->saturated_report_count());
  EXPECT_EQ(owned_mode->SlotSpan(), mutex_mode->SlotSpan());
  EXPECT_EQ(owned_mode->histogram_outlier_count(),
            mutex_mode->histogram_outlier_count());
  // Ingest has quiesced, so per-user queries are safe in owned mode.
  for (uint64_t user = 0; user < runs.size(); ++user) {
    EXPECT_TRUE(owned_mode->Contains(user));
    EXPECT_EQ(owned_mode->SlotCount(user), mutex_mode->SlotCount(user));
  }

  const auto mutex_aggs = mutex_mode->PopulationSlotAggregates();
  const auto owned_aggs = owned_mode->PopulationSlotAggregates();
  ASSERT_EQ(owned_aggs.size(), mutex_aggs.size());
  for (size_t t = 0; t < mutex_aggs.size(); ++t) {
    const auto a = mutex_aggs[t].ToPacked();
    const auto b = owned_aggs[t].ToPacked();
    EXPECT_EQ(b.count, a.count) << t;
    EXPECT_EQ(b.sum_hi, a.sum_hi) << t;
    EXPECT_EQ(b.sum_lo, a.sum_lo) << t;
    EXPECT_EQ(b.sum_sq_hi, a.sum_sq_hi) << t;
    EXPECT_EQ(b.sum_sq_lo, a.sum_sq_lo) << t;
  }
  const auto mutex_hist = mutex_mode->PopulationSlotHistograms();
  const auto owned_hist = owned_mode->PopulationSlotHistograms();
  ASSERT_TRUE(mutex_hist.ok() && owned_hist.ok());
  EXPECT_EQ(*owned_hist, *mutex_hist);
  // The order-independent state digest ties it all together, and
  // checkpoint exports must agree shard by shard.
  EXPECT_EQ(CollectorStateDigest(*owned_mode),
            CollectorStateDigest(*mutex_mode));
  for (size_t shard = 0; shard < options.num_shards; ++shard) {
    SCOPED_TRACE(shard);
    auto a = mutex_mode->ExportShardState(shard);
    auto b = owned_mode->ExportShardState(shard);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(b->report_count, a->report_count);
    EXPECT_EQ(b->saturated_reports, a->saturated_reports);
    EXPECT_EQ(b->histogram, a->histogram);
    ASSERT_EQ(b->users.size(), a->users.size());
    ASSERT_EQ(b->slots.size(), a->slots.size());
    for (size_t t = 0; t < a->slots.size(); ++t) {
      const auto pa = a->slots[t].ToPacked();
      const auto pb = b->slots[t].ToPacked();
      EXPECT_EQ(pb.count, pa.count) << t;
      EXPECT_EQ(pb.sum_lo, pa.sum_lo) << t;
      EXPECT_EQ(pb.sum_sq_lo, pa.sum_sq_lo) << t;
    }
  }
}

TEST(ShardedCollectorTest, SingleWriterRestoreRoundTrips) {
  // Checkpoint state exported from an owned-mode collector restores into
  // an empty owned-mode collector bit-exactly (the recovery path).
  ShardedCollectorOptions options;
  options.num_shards = 4;
  options.single_writer = true;
  auto source = ShardedCollector::Create(options);
  ASSERT_TRUE(source.ok());
  Rng rng(11);
  for (uint64_t user = 0; user < 100; ++user) {
    std::vector<double> run(1 + rng.UniformInt(6));
    for (double& x : run) x = rng.UniformDouble();
    source->IngestUserRun(user, 0, run);
  }
  auto restored = ShardedCollector::Create(options);
  ASSERT_TRUE(restored.ok());
  for (size_t shard = 0; shard < options.num_shards; ++shard) {
    auto state = source->ExportShardState(shard);
    ASSERT_TRUE(state.ok());
    ASSERT_TRUE(restored->RestoreShardState(shard, *std::move(state)).ok());
  }
  EXPECT_EQ(restored->user_count(), source->user_count());
  EXPECT_EQ(restored->report_count(), source->report_count());
  EXPECT_EQ(CollectorStateDigest(*restored), CollectorStateDigest(*source));
}

TEST(ShardedCollectorTest, RestoreRefusesDuplicatedUsersAndNonEmptyShards) {
  for (const bool single_writer : {false, true}) {
    SCOPED_TRACE(single_writer);
    ShardedCollectorOptions options;
    options.num_shards = 4;
    options.single_writer = single_writer;
    auto fresh = ShardedCollector::Create(options);
    ASSERT_TRUE(fresh.ok());
    CollectorShardState duplicated;
    duplicated.users = {{7, 0, 1}, {9, 2, 3}, {7, 4, 1}};
    EXPECT_EQ(fresh->RestoreShardState(0, duplicated).code(),
              StatusCode::kInternal);

    auto used = ShardedCollector::Create(options);
    ASSERT_TRUE(used.ok());
    used->IngestUserRun(5, 0, std::vector<double>{0.5});
    CollectorShardState state;
    state.users = {{11, 0, 1}};
    EXPECT_EQ(
        used->RestoreShardState(used->ShardIndexOf(5), state).code(),
        StatusCode::kFailedPrecondition);
  }
}

// Ids whose SplitMix64Mix -- the hash whose high bits start a user's
// probe in its shard's index -- has its top 12 bits equal to `top`: in
// any index table of up to 4096 slots they all start probing at the same
// slot (the last one for top = 0xFFF, so their cluster wraps past the
// table end onto slot 0).
std::vector<uint64_t> IdsSharingProbeStart(uint64_t top, size_t n) {
  std::vector<uint64_t> ids;
  for (uint64_t id = 1; ids.size() < n; ++id) {
    if (SplitMix64Mix(id) >> 52 == top) ids.push_back(id);
  }
  return ids;
}

// 400 ids probing from the last table slot, 400 from slot 0 (where the
// wrapped cluster lands) and 400 arbitrary ones, shuffled: 1200 users
// grow a one-shard index from empty through seven doublings.
std::vector<uint64_t> CollidingPopulation() {
  std::vector<uint64_t> ids = IdsSharingProbeStart(0xFFF, 400);
  const std::vector<uint64_t> at_start = IdsSharingProbeStart(0, 400);
  ids.insert(ids.end(), at_start.begin(), at_start.end());
  Rng rng(0x1D);
  for (int i = 0; i < 400; ++i) ids.push_back(rng.NextUint64());
  for (size_t i = ids.size() - 1; i > 0; --i) {
    std::swap(ids[i], ids[rng.UniformInt(i + 1)]);
  }
  return ids;
}

TEST(ShardedCollectorTest, UserIndexStaysExactThroughCollidingGrowth) {
  const std::vector<uint64_t> ids = CollidingPopulation();
  for (const bool single_writer : {false, true}) {
    SCOPED_TRACE(single_writer);
    ShardedCollectorOptions options;
    options.num_shards = 1;
    options.single_writer = single_writer;
    auto collector = ShardedCollector::Create(options);
    ASSERT_TRUE(collector.ok());
    std::vector<uint32_t> reports(ids.size());
    std::vector<uint32_t> last_slot(ids.size());
    size_t next_check = 1;
    for (size_t i = 0; i < ids.size(); ++i) {
      collector->IngestUserRun(ids[i], 0, std::vector<double>(1 + i % 5, 0.5));
      reports[i] = 1 + i % 5;
      last_slot[i] = i % 5;
      if (i % 4 == 3) {
        // A repeat visit: a hit that probes through the same clusters.
        collector->IngestUserRun(ids[i / 2], 10, std::vector<double>{0.25});
        ++reports[i / 2];
        last_slot[i / 2] = 10;
      }
      if (i + 1 != next_check && i + 1 != ids.size()) continue;
      next_check *= 2;
      ASSERT_EQ(collector->user_count(), i + 1);
      for (size_t j = 0; j < ids.size(); ++j) {
        // Unseen ids miss after probing through the same clusters.
        ASSERT_EQ(collector->Contains(ids[j]), j <= i) << j;
        ASSERT_EQ(collector->SlotCount(ids[j]), j <= i ? reports[j] : 0u)
            << j;
      }
    }
    auto state = collector->ExportShardState(0);
    ASSERT_TRUE(state.ok());
    ASSERT_EQ(state->users.size(), ids.size());
    for (size_t j = 0; j < ids.size(); ++j) {
      EXPECT_EQ(state->users[j].user_id, ids[j]) << j;
      EXPECT_EQ(state->users[j].reports, reports[j]) << j;
      EXPECT_EQ(state->users[j].last_slot, last_slot[j]) << j;
    }
  }
}

TEST(ShardedCollectorTest, ReserveUsersOnANonEmptyIndexKeepsFirstSeenOrder) {
  const std::vector<uint64_t> ids = CollidingPopulation();
  const size_t half = ids.size() / 2;
  for (const bool single_writer : {false, true}) {
    SCOPED_TRACE(single_writer);
    ShardedCollectorOptions options;
    options.num_shards = 1;
    options.single_writer = single_writer;
    auto collector = ShardedCollector::Create(options);
    ASSERT_TRUE(collector.ok());
    for (size_t i = 0; i < half; ++i) {
      collector->IngestUserRun(ids[i], i % 7, std::vector<double>{0.5});
    }
    collector->ReserveUsers(100000);  // rehashes the populated table
    collector->ReserveUsers(10);      // smaller than the index: a no-op
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(collector->Contains(ids[i])) << i;
      ASSERT_FALSE(collector->Contains(ids[half + i])) << i;
    }
    for (size_t i = half; i < ids.size(); ++i) {
      collector->IngestUserRun(ids[i], i % 7, std::vector<double>{0.5});
    }
    EXPECT_EQ(collector->user_count(), ids.size());
    auto state = collector->ExportShardState(0);
    ASSERT_TRUE(state.ok());
    ASSERT_EQ(state->users.size(), ids.size());
    for (size_t j = 0; j < ids.size(); ++j) {
      EXPECT_EQ(state->users[j].user_id, ids[j]) << j;
      EXPECT_EQ(state->users[j].last_slot, j % 7) << j;
    }
  }
}

TEST(ShardedCollectorTest, UserEntriesSurviveIndexGrowth) {
  // Every user reports slot 0 while the index grows through its
  // doublings, then slot 3 as a run after the growth; each report must
  // still land on its own user entry and in the right slot's sums.
  const std::vector<uint64_t> ids = CollidingPopulation();
  auto collector = ShardedCollector::Create({.num_shards = 1});
  ASSERT_TRUE(collector.ok());
  SlotAggregate first_slot;
  SlotAggregate last_slot;
  for (size_t i = 0; i < ids.size(); ++i) {
    const double value = 0.001 * static_cast<double>(i);
    collector->Ingest({ids[i], 0, value});
    first_slot.Add(value);
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    const double value = -0.002 * static_cast<double>(i);
    collector->IngestUserRun(ids[i], 1, std::vector<double>{kNaN, kNaN, value});
    last_slot.Add(value);
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(collector->SlotCount(ids[i]), 2u) << i;
  }
  auto state = collector->ExportShardState(0);
  ASSERT_TRUE(state.ok());
  ASSERT_EQ(state->users.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(state->users[i].user_id, ids[i]) << i;
    EXPECT_EQ(state->users[i].last_slot, 3u) << i;
    EXPECT_EQ(state->users[i].reports, 2u) << i;
  }
  ASSERT_EQ(state->slots.size(), 4u);
  EXPECT_EQ(state->slots[1].Count(), 0u);
  EXPECT_EQ(state->slots[2].Count(), 0u);
  for (const auto& [got, want] :
       {std::pair{state->slots[0], first_slot}, {state->slots[3], last_slot}}) {
    const auto a = got.ToPacked();
    const auto b = want.ToPacked();
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.sum_hi, b.sum_hi);
    EXPECT_EQ(a.sum_lo, b.sum_lo);
    EXPECT_EQ(a.sum_sq_hi, b.sum_sq_hi);
    EXPECT_EQ(a.sum_sq_lo, b.sum_sq_lo);
  }
}

TEST(ShardedCollectorTest, SingleWriterSnapshotsAreRunAtomic) {
  // Snapshot consistency under live writers, in both write disciplines:
  // every run is one whole constant-value run, so with a single shard a
  // concurrent reader must never observe a torn run -- every snapshot
  // shows the same count in all slots, and sums that are exact integer
  // multiples of the one-report sums. A single writer is torn-proofed by
  // the seqlock alone; mutex mode runs two writers on the one shard,
  // serialized by the mutex the reader copies under. Run under TSan this
  // is also the data-race check for the shared store.
  constexpr double kValue = 0.3125;  // exactly representable
  constexpr size_t kSlots = 8;
  constexpr uint64_t kUsers = 40000;
  SlotAggregate unit;
  unit.Add(kValue);
  const auto unit_packed = unit.ToPacked();
  const auto to128 = [](uint64_t hi, uint64_t lo) {
    return static_cast<unsigned __int128>(hi) << 64 | lo;
  };
  const auto unit_sum = to128(unit_packed.sum_hi, unit_packed.sum_lo);
  const auto unit_sq = to128(unit_packed.sum_sq_hi, unit_packed.sum_sq_lo);
  const std::vector<double> run(kSlots, kValue);

  for (bool single_writer : {true, false}) {
    SCOPED_TRACE(single_writer ? "single writer" : "mutex, two writers");
    ShardedCollectorOptions options;
    options.num_shards = 1;
    options.single_writer = single_writer;
    auto collector = ShardedCollector::Create(options);
    ASSERT_TRUE(collector.ok());

    const uint64_t writers = single_writer ? 1 : 2;
    std::atomic<uint64_t> running{writers};
    std::atomic<bool> go{false};  // starts the writers together
    std::vector<std::thread> threads;
    for (uint64_t w = 0; w < writers; ++w) {
      threads.emplace_back([&, w] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (uint64_t user = w; user < kUsers; user += writers) {
          collector->IngestUserRun(user, 0, run);
        }
        running.fetch_sub(1, std::memory_order_release);
      });
    }

    // The reader stops at the first torn snapshot and reports it after
    // the join: an ASSERT here would return with the writers unjoined.
    bool torn = false;
    go.store(true, std::memory_order_release);
    do {
      const auto aggregates = collector->PopulationSlotAggregates();
      if (aggregates.empty()) continue;
      torn = aggregates.size() != kSlots;
      const uint64_t count = aggregates[0].ToPacked().count;
      for (const SlotAggregate& agg : aggregates) {
        const auto packed = agg.ToPacked();
        torn = torn || packed.count != count ||  // whole runs only
               to128(packed.sum_hi, packed.sum_lo) != count * unit_sum ||
               to128(packed.sum_sq_hi, packed.sum_sq_lo) != count * unit_sq;
      }
    } while (!torn && running.load(std::memory_order_acquire) != 0);
    for (std::thread& t : threads) t.join();
    ASSERT_FALSE(torn) << "a reader saw a torn run";

    const auto aggregates = collector->PopulationSlotAggregates();
    ASSERT_EQ(aggregates.size(), kSlots);
    for (const auto& agg : aggregates) EXPECT_EQ(agg.Count(), kUsers);
    EXPECT_EQ(collector->report_count(), kUsers * kSlots);
    EXPECT_EQ(collector->user_count(), kUsers);
    // Retry counts are timing-dependent for a single writer (usually
    // zero on a 1-core runner), so assert only that the counter is
    // monotone. Mutex mode never retries: its writer holds the mutex
    // across the whole write section.
    const uint64_t retries = collector->seqlock_read_retries();
    EXPECT_GE(collector->seqlock_read_retries(), retries);
    if (!single_writer) {
      EXPECT_EQ(retries, 0u);
    }
  }
}

// ------------------------------------------------------ batched ingest ----

// Expects two collectors' exported shards to be equal word for word:
// user entries in dense order, every aggregate's Packed words, the
// histogram rows and the totals.
void ExpectSameShards(const ShardedCollector& expected,
                      const ShardedCollector& actual) {
  ASSERT_EQ(actual.num_shards(), expected.num_shards());
  for (size_t shard = 0; shard < expected.num_shards(); ++shard) {
    SCOPED_TRACE("shard " + std::to_string(shard));
    auto a = expected.ExportShardState(shard);
    auto b = actual.ExportShardState(shard);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(b->users.size(), a->users.size());
    for (size_t i = 0; i < a->users.size(); ++i) {
      EXPECT_EQ(b->users[i].user_id, a->users[i].user_id) << i;
      EXPECT_EQ(b->users[i].last_slot, a->users[i].last_slot) << i;
      EXPECT_EQ(b->users[i].reports, a->users[i].reports) << i;
    }
    ASSERT_EQ(b->slots.size(), a->slots.size());
    for (size_t t = 0; t < a->slots.size(); ++t) {
      const auto pa = a->slots[t].ToPacked();
      const auto pb = b->slots[t].ToPacked();
      EXPECT_EQ(pb.count, pa.count) << t;
      EXPECT_EQ(pb.sum_hi, pa.sum_hi) << t;
      EXPECT_EQ(pb.sum_lo, pa.sum_lo) << t;
      EXPECT_EQ(pb.sum_sq_hi, pa.sum_sq_hi) << t;
      EXPECT_EQ(pb.sum_sq_lo, pa.sum_sq_lo) << t;
    }
    EXPECT_EQ(b->histogram, a->histogram);
    EXPECT_EQ(b->report_count, a->report_count);
    EXPECT_EQ(b->saturated_reports, a->saturated_reports);
  }
}

// A random batch: repeated user ids (inside a batch and across batches),
// mixed base slots and lengths (empty runs included), NaN and infinity
// holes, all-NaN runs and saturating outliers, dim-major at `dims`.
struct RandomBatch {
  std::vector<uint64_t> users;
  std::vector<size_t> bases;
  std::vector<std::vector<double>> values;

  RandomBatch(Rng& rng, size_t dims, size_t runs) {
    for (size_t r = 0; r < runs; ++r) {
      users.push_back(rng.UniformInt(150));
      bases.push_back(rng.UniformInt(10));
      std::vector<double> run(dims * rng.UniformInt(13));
      const bool all_nan = rng.UniformInt(12) == 0;
      for (double& x : run) {
        const uint64_t pick = rng.UniformInt(100);
        x = all_nan || pick < 8 ? kNaN
            : pick < 10         ? std::numeric_limits<double>::infinity()
            : pick < 12         ? 1.0e6
                                : rng.UniformDouble();
      }
      values.push_back(std::move(run));
    }
  }
  std::vector<UserRun> Runs() const {
    std::vector<UserRun> runs;
    for (size_t i = 0; i < users.size(); ++i) {
      runs.push_back({users[i], bases[i], values[i]});
    }
    return runs;
  }
};

TEST(ShardedCollectorTest, BatchedIngestMatchesPerRunIngest) {
  // Random batches -- some longer than kMaxBatchRuns -- through
  // IngestUserRuns must leave every exported word, user entry order and
  // counter exactly as the same runs ingested one by one, at d = 1 and
  // d = 4 (dim-major, and cell-level at d = 4), with histograms on and
  // off, in both locking modes.
  for (size_t dims : {size_t{1}, size_t{4}}) {
    for (bool histogram : {false, true}) {
      for (bool single_writer : {false, true}) {
        SCOPED_TRACE("dims " + std::to_string(dims) +
                     (histogram ? " histogram" : "") +
                     (single_writer ? " single writer" : " mutex"));
        ShardedCollectorOptions options;
        options.num_shards = 8;
        options.dims = dims;
        options.single_writer = single_writer;
        options.histogram = {.enabled = histogram, .num_bins = 16};
        auto one_by_one = ShardedCollector::Create(options);
        auto batched = ShardedCollector::Create(options);
        auto cells_one_by_one = ShardedCollector::Create(options);
        auto cells_batched = ShardedCollector::Create(options);
        ASSERT_TRUE(one_by_one.ok() && batched.ok() &&
                    cells_one_by_one.ok() && cells_batched.ok());
        Rng rng(71 + dims);
        for (int b = 0; b < 40; ++b) {
          const RandomBatch batch(rng, dims, 1 + rng.UniformInt(90));
          const std::vector<UserRun> runs = batch.Runs();
          for (const UserRun& run : runs) {
            one_by_one->IngestUserRun(run.user_id, run.base_slot, dims,
                                      run.values);
            cells_one_by_one->IngestUserRun(run.user_id, run.base_slot,
                                            run.values);
          }
          batched->IngestUserRuns(dims, runs);
          cells_batched->IngestUserRuns(1, runs);
        }
        EXPECT_GT(one_by_one->saturated_report_count(), 0u);
        for (const auto& [expected, actual] :
             {std::pair{&*one_by_one, &*batched},
              std::pair{&*cells_one_by_one, &*cells_batched}}) {
          EXPECT_EQ(actual->user_count(), expected->user_count());
          EXPECT_EQ(actual->report_count(), expected->report_count());
          EXPECT_EQ(actual->saturated_report_count(),
                    expected->saturated_report_count());
          EXPECT_EQ(actual->SlotSpan(), expected->SlotSpan());
          EXPECT_EQ(actual->histogram_outlier_count(),
                    expected->histogram_outlier_count());
          EXPECT_EQ(CollectorStateDigest(*actual),
                    CollectorStateDigest(*expected));
          ExpectSameShards(*expected, *actual);
        }
      }
    }
  }
}

TEST(ShardedCollectorTest, TwoBatchWritersMatchASerialOracle) {
  // The fleet's kDirect shape: two threads, started together, ingest
  // batches of 64 runs of disjoint users into one mutex-mode collector,
  // so both write every shard. The state must equal a serial one-by-one
  // oracle's; only each shard's user entry order may differ, as it does
  // between any two thread interleavings. Under TSan this is the data
  // race check for the batch writer.
  constexpr uint64_t kUsers = 6000;
  constexpr size_t kSlots = 12;
  constexpr size_t kBatchRuns = 64;
  ShardedCollectorOptions options;
  options.histogram = {.enabled = true, .num_bins = 16};
  auto oracle = ShardedCollector::Create(options);
  auto shared = ShardedCollector::Create(options);
  ASSERT_TRUE(oracle.ok() && shared.ok());
  std::vector<std::vector<double>> streams(kUsers);
  Rng rng(77);
  for (uint64_t u = 0; u < kUsers; ++u) {
    for (size_t t = 0; t < kSlots; ++t) {
      streams[u].push_back(rng.UniformInt(20) == 0 ? kNaN
                                                   : rng.UniformDouble());
    }
    oracle->IngestUserRun(u, u % 3, streams[u]);
  }
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  for (uint64_t w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::vector<UserRun> batch;
      for (uint64_t u = w; u < kUsers; u += 2) {
        batch.push_back({u, u % 3, streams[u]});
        if (batch.size() == kBatchRuns) {
          shared->IngestUserRuns(1, batch);
          batch.clear();
        }
      }
      shared->IngestUserRuns(1, batch);
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& writer : writers) writer.join();

  EXPECT_EQ(shared->user_count(), oracle->user_count());
  EXPECT_EQ(shared->report_count(), oracle->report_count());
  EXPECT_EQ(CollectorStateDigest(*shared), CollectorStateDigest(*oracle));
  const auto by_id = [](const CollectorShardState::UserEntry& a,
                        const CollectorShardState::UserEntry& b) {
    return a.user_id < b.user_id;
  };
  for (size_t shard = 0; shard < oracle->num_shards(); ++shard) {
    SCOPED_TRACE("shard " + std::to_string(shard));
    auto a = oracle->ExportShardState(shard);
    auto b = shared->ExportShardState(shard);
    ASSERT_TRUE(a.ok() && b.ok());
    std::sort(a->users.begin(), a->users.end(), by_id);
    std::sort(b->users.begin(), b->users.end(), by_id);
    ASSERT_EQ(b->users.size(), a->users.size());
    for (size_t i = 0; i < a->users.size(); ++i) {
      EXPECT_EQ(b->users[i].user_id, a->users[i].user_id);
      EXPECT_EQ(b->users[i].last_slot, a->users[i].last_slot);
      EXPECT_EQ(b->users[i].reports, a->users[i].reports);
    }
    ASSERT_EQ(b->slots.size(), a->slots.size());
    for (size_t t = 0; t < a->slots.size(); ++t) {
      const auto pa = a->slots[t].ToPacked();
      const auto pb = b->slots[t].ToPacked();
      EXPECT_TRUE(pb.count == pa.count && pb.sum_hi == pa.sum_hi &&
                  pb.sum_lo == pa.sum_lo && pb.sum_sq_hi == pa.sum_sq_hi &&
                  pb.sum_sq_lo == pa.sum_sq_lo)
          << t;
    }
    EXPECT_EQ(b->histogram, a->histogram);
  }
}

TEST(ShardedCollectorTest, ReportCounterCountsOnlyIngestedReports) {
  // capp_ingest_reports_total counts the finite reports a run lands, not
  // the span between its first and last finite value.
  const telemetry::TelemetryConfig saved = telemetry::CurrentConfig();
  telemetry::TelemetryConfig config;
  config.enabled = true;
  telemetry::Configure(config);
  auto collector = ShardedCollector::Create();
  ASSERT_TRUE(collector.ok());
  telemetry::Counter& reports = telemetry::metrics::IngestReportsTotal();
  telemetry::Counter& runs = telemetry::metrics::IngestRunsTotal();
  const uint64_t reports_before = reports.Value();
  const uint64_t runs_before = runs.Value();
  collector->IngestUserRun(1, 0, std::vector<double>{0.1, kNaN, 0.3});
  const std::vector<double> holes = {kNaN, 0.2, kNaN, kNaN, 0.4, kNaN};
  const std::vector<double> empty = {kNaN, kNaN};
  const std::vector<UserRun> batch = {
      {2, 0, holes}, {3, 5, empty}, {4, 1, holes}};
  collector->IngestUserRuns(1, batch);
  telemetry::Configure(saved);
  EXPECT_EQ(collector->report_count(), 6u);
  EXPECT_EQ(reports.Value() - reports_before, collector->report_count());
  EXPECT_EQ(runs.Value() - runs_before, 3u);  // the all-NaN run lands none
}

// ------------------------------------------------------- engine config ----

TEST(EngineConfigTest, SignalKindNamesRoundTrip) {
  for (SignalKind kind :
       {SignalKind::kConstant, SignalKind::kSinusoid, SignalKind::kAr1,
        SignalKind::kRandomWalk, SignalKind::kPiecewise}) {
    auto parsed = ParseSignalKind(SignalKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseSignalKind("nope").ok());
}

TEST(EngineConfigTest, ValidationCatchesBadKnobs) {
  EngineConfig good;
  EXPECT_TRUE(ValidateEngineConfig(good).ok());

  EngineConfig bad = good;
  bad.epsilon = 0.0;
  EXPECT_FALSE(ValidateEngineConfig(bad).ok());
  bad = good;
  bad.num_users = 0;
  EXPECT_FALSE(ValidateEngineConfig(bad).ok());
  bad = good;
  bad.num_slots = 0;
  EXPECT_FALSE(ValidateEngineConfig(bad).ok());
  bad = good;
  bad.chunk_size = 0;
  EXPECT_FALSE(ValidateEngineConfig(bad).ok());
  bad = good;
  bad.num_shards = 0;
  EXPECT_FALSE(ValidateEngineConfig(bad).ok());
  bad = good;
  bad.smoothing_window = 2;
  EXPECT_FALSE(ValidateEngineConfig(bad).ok());

  // Owned-shard (single-writer) ingest is only sound when the queued
  // transports' shard-group routing gives every shard exactly one writer.
  bad = good;
  bad.transport.kind = TransportKind::kQueueFramed;
  bad.transport.owned_shards = true;
  EXPECT_TRUE(ValidateEngineConfig(bad).ok());  // the supported shape
  bad.transport.kind = TransportKind::kSocket;
  EXPECT_TRUE(ValidateEngineConfig(bad).ok());
  bad.transport.kind = TransportKind::kDirect;
  EXPECT_FALSE(ValidateEngineConfig(bad).ok());

  // The engine's collector keeps only aggregates: the vestigial
  // keep_streams may only hold its default, whatever else is set.
  bad = good;
  bad.keep_streams = true;
  EXPECT_EQ(ValidateEngineConfig(bad).code(), StatusCode::kInvalidArgument);
  bad.transport.kind = TransportKind::kQueueFramed;
  bad.transport.owned_shards = true;
  EXPECT_EQ(ValidateEngineConfig(bad).code(), StatusCode::kInvalidArgument);
}

TEST(EngineConfigTest, FingerprintIsPinned) {
  // Known answers: the fingerprint seeds every WAL segment and checkpoint
  // header, so it must never drift for an accepted config. The retired
  // raw-stream mode's word is pinned at 0 inside the hash. If a deliberate
  // format change lands, recompute and update these in the same commit.
  EngineConfig config;
  EXPECT_EQ(EngineConfigFingerprint(config), 0xe67a1b13ba49b2d0ULL);
  config.algorithm = AlgorithmKind::kApp;
  config.epsilon = 0.5;
  config.window = 20;
  config.num_users = 1000000;
  config.num_slots = 24;
  config.signal = SignalKind::kAr1;
  config.seed = 7;
  config.num_shards = 8;
  config.analytics.enabled = true;
  config.analytics.histogram_buckets = 16;
  config.smoothing_window = 5;
  EXPECT_EQ(EngineConfigFingerprint(config), 0x9e1848a6c6f86a5aULL);
  config.dims = 4;
  config.multidim_strategy = MultidimStrategy::kSampleSplit;
  EXPECT_EQ(EngineConfigFingerprint(config), 0xe0786dbe8db11bffULL);
}

TEST(FleetTest, RejectsSamplingAlgorithms) {
  EngineConfig config;
  config.algorithm = AlgorithmKind::kCappS;
  EXPECT_FALSE(Fleet::Create(config).ok());
}

// ---------------------------------------------------- fleet determinism ----

EngineConfig SmallFleetConfig() {
  EngineConfig config;
  config.algorithm = AlgorithmKind::kCapp;
  config.epsilon = 1.0;
  config.window = 10;
  config.num_users = 500;
  config.num_slots = 40;
  config.chunk_size = 64;
  config.seed = 99;
  config.signal = SignalKind::kSinusoid;
  return config;
}

TEST(FleetTest, PublishedStreamsBitIdenticalAcrossThreadCounts) {
  EngineStats baseline;
  uint64_t baseline_state = 0;

  for (int threads : {1, 4, 8}) {
    SCOPED_TRACE(threads);
    EngineConfig config = SmallFleetConfig();
    config.num_threads = threads;
    auto fleet = Fleet::Create(config);
    ASSERT_TRUE(fleet.ok());
    auto stats = fleet->Run();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->reports, config.num_users * config.num_slots);
    EXPECT_EQ(fleet->collector().user_count(), config.num_users);

    const uint64_t state = CollectorStateDigest(fleet->collector());
    if (threads == 1) {
      baseline = *stats;
      baseline_state = state;
      continue;
    }
    // The determinism contract: the stream digest, error statistics, and
    // the collector's exact aggregate state are all bit-identical
    // regardless of thread count.
    EXPECT_EQ(stats->stream_digest, baseline.stream_digest);
    EXPECT_EQ(stats->mean_slot_mse, baseline.mean_slot_mse);
    EXPECT_EQ(stats->mean_abs_error, baseline.mean_abs_error);
    EXPECT_EQ(state, baseline_state);
  }
}

TEST(FleetTest, DigestInvariantToChunkSizeAndShardCount) {
  EngineStats baseline;
  bool first = true;
  for (size_t chunk_size : {size_t{17}, size_t{500}}) {
    for (size_t shards : {size_t{1}, size_t{16}}) {
      SCOPED_TRACE(chunk_size);
      SCOPED_TRACE(shards);
      EngineConfig config = SmallFleetConfig();
      config.chunk_size = chunk_size;
      config.num_shards = shards;
      config.num_threads = 4;
      auto fleet = Fleet::Create(config);
      ASSERT_TRUE(fleet.ok());
      auto stats = fleet->Run();
      ASSERT_TRUE(stats.ok());
      if (first) {
        baseline = *stats;
        first = false;
        continue;
      }
      // Per-user streams depend only on (seed, user id), so the digest is
      // also invariant to chunking and shard layout.
      EXPECT_EQ(stats->stream_digest, baseline.stream_digest);
    }
  }
}

TEST(FleetTest, OwnedShardTransportMatchesMutexIngest) {
  // The same scenario through the mutex and owned-shard framed queue
  // transports: stream digest, error statistics, and the collector's
  // order-independent state digest must all be bit-identical -- the
  // owned mode changes the locking discipline, never the results.
  EngineConfig config = SmallFleetConfig();
  config.num_threads = 4;
  config.transport.kind = TransportKind::kQueueFramed;
  config.transport.num_consumers = 2;

  auto mutex_fleet = Fleet::Create(config);
  config.transport.owned_shards = true;
  auto owned_fleet = Fleet::Create(config);
  ASSERT_TRUE(mutex_fleet.ok() && owned_fleet.ok());
  auto mutex_stats = mutex_fleet->Run();
  auto owned_stats = owned_fleet->Run();
  ASSERT_TRUE(mutex_stats.ok() && owned_stats.ok());

  EXPECT_FALSE(mutex_stats->owned_shards);
  EXPECT_TRUE(owned_stats->owned_shards);
  EXPECT_EQ(owned_stats->reports, mutex_stats->reports);
  EXPECT_EQ(owned_stats->stream_digest, mutex_stats->stream_digest);
  EXPECT_EQ(owned_stats->mean_slot_mse, mutex_stats->mean_slot_mse);
  EXPECT_EQ(CollectorStateDigest(owned_fleet->collector()),
            CollectorStateDigest(mutex_fleet->collector()));
}

TEST(FleetTest, DifferentSeedsDiffer) {
  EngineConfig config = SmallFleetConfig();
  auto fleet_a = Fleet::Create(config);
  config.seed = 100;
  auto fleet_b = Fleet::Create(config);
  ASSERT_TRUE(fleet_a.ok() && fleet_b.ok());
  auto stats_a = fleet_a->Run();
  auto stats_b = fleet_b->Run();
  ASSERT_TRUE(stats_a.ok() && stats_b.ok());
  EXPECT_NE(stats_a->stream_digest, stats_b->stream_digest);
}

// The fleet's d > 1 digest from one MultidimPerturber per user, each
// attribute smoothed on its own: the per-user path the lane groups must
// reproduce.
uint64_t PerUserMultidimDigest(const EngineConfig& config, int smoothing) {
  const size_t slots = config.num_slots;
  auto perturber = MultidimPerturber::Create(
      config.dims, config.multidim_strategy,
      {config.epsilon, config.window}, config.algorithm);
  CAPP_CHECK(perturber.ok());
  std::vector<double> truth;
  std::vector<double> reports;
  std::vector<double> published(config.dims * slots);
  uint64_t digest = 0;
  for (uint64_t uid = 0; uid < config.num_users; ++uid) {
    Rng signal_rng(UserStreamSeed(config.seed, uid, 0));
    GenerateUserSignalMultiInto(config.signal, config.dims, slots,
                                signal_rng, truth);
    perturber->ResetForUser(UserStreamSeed(config.seed, uid, 1));
    perturber->PerturbStream(truth, slots, reports);
    for (size_t k = 0; k < config.dims; ++k) {
      const std::vector<double> row(
          reports.begin() + static_cast<ptrdiff_t>(k * slots),
          reports.begin() + static_cast<ptrdiff_t>((k + 1) * slots));
      auto smoothed = SimpleMovingAverage(row, smoothing);
      CAPP_CHECK(smoothed.ok());
      std::copy(smoothed->begin(), smoothed->end(),
                published.begin() + static_cast<ptrdiff_t>(k * slots));
    }
    digest ^= UserStreamDigest(uid, published);
  }
  return digest;
}

TEST(FleetTest, MultidimLaneGroupsMatchPerUserPath) {
  // Budget split at d = 4 perturbs two users per lane group; d = 3 does
  // not divide the eight lanes and keeps the per-user path. 203 users in
  // chunks of 13 leave a per-user tail in every d = 4 chunk. Each must
  // give the per-user digest and one collector state at every thread
  // count, in process and over the socket.
  for (size_t dims : {size_t{4}, size_t{3}}) {
    SCOPED_TRACE(dims);
    EngineConfig config = SmallFleetConfig();
    config.num_users = 203;
    config.chunk_size = 13;
    config.dims = dims;
    config.multidim_strategy = MultidimStrategy::kBudgetSplit;
    std::optional<uint64_t> oracle;
    std::optional<uint64_t> state;
    for (TransportKind kind :
         {TransportKind::kDirect, TransportKind::kSocket}) {
      for (int threads : {1, 2, 4}) {
        SCOPED_TRACE(TransportKindName(kind));
        SCOPED_TRACE(threads);
        config.transport.kind = kind;
        config.num_threads = threads;
        auto fleet = Fleet::Create(config);
        ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
        if (!oracle.has_value()) {
          oracle = PerUserMultidimDigest(config, fleet->smoothing_window());
        }
        auto stats = fleet->Run();
        ASSERT_TRUE(stats.ok()) << stats.status().ToString();
        EXPECT_EQ(stats->reports, config.num_users * dims * config.num_slots);
        EXPECT_EQ(stats->stream_digest, *oracle);
        const uint64_t got = CollectorStateDigest(fleet->collector());
        if (!state.has_value()) state = got;
        EXPECT_EQ(got, *state);
      }
    }
  }
}

TEST(FleetTest, RunIsOneShot) {
  auto fleet = Fleet::Create(SmallFleetConfig());
  ASSERT_TRUE(fleet.ok());
  ASSERT_TRUE(fleet->Run().ok());
  EXPECT_FALSE(fleet->Run().ok());
}

// ------------------------------------------------- 100k-user smoke test ----

TEST(FleetTest, HundredThousandUserAccuracySmoke) {
  EngineConfig config;
  config.algorithm = AlgorithmKind::kCapp;
  config.epsilon = 2.0;
  config.window = 10;
  config.num_users = 100000;
  config.num_slots = 30;
  config.num_threads = 0;  // all hardware threads
  config.signal = SignalKind::kConstant;
  auto fleet = Fleet::Create(config);
  ASSERT_TRUE(fleet.ok());
  auto stats = fleet->Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->reports, config.num_users * config.num_slots);
  EXPECT_GT(stats->reports_per_sec, 0.0);
  // With 100k users the sampling error of the population mean is tiny;
  // what remains is the SW mechanism's per-slot bias, which CAPP's
  // deviation feedback keeps small near mid-domain. Generous bounds keep
  // this green across platforms while still catching real regressions.
  EXPECT_LT(stats->mean_abs_error, 0.05);
  EXPECT_LT(stats->mean_slot_mse, 0.005);
  // The collector aggregates agree with the fleet's own error statistics:
  // every slot's count must equal the full population.
  const auto aggregates = fleet->collector().PopulationSlotAggregates();
  ASSERT_EQ(aggregates.size(), config.num_slots);
  for (const SlotAggregate& agg : aggregates) {
    EXPECT_EQ(agg.Count(), config.num_users);
    EXPECT_GT(agg.Variance(), 0.0);
  }
}

// ------------------------------------------------- user session (moved) ----

// Regression for the accountant hoist: the ledger keeps recording after a
// session is moved, because construction/move re-attach it.
TEST(UserSessionMoveTest, LedgerFollowsMove) {
  auto created = UserSession::Create(3, AlgorithmKind::kCapp, {1.0, 10}, 5);
  ASSERT_TRUE(created.ok());
  UserSession session = std::move(*created);
  for (int t = 0; t < 12; ++t) session.Report(0.5);
  EXPECT_TRUE(session.AuditBudget().ok());
  EXPECT_NEAR(session.MaxWindowSpend(), 1.0, 1e-9);

  std::vector<UserSession> fleet;
  fleet.push_back(std::move(session));
  for (int t = 0; t < 12; ++t) fleet[0].Report(0.5);
  EXPECT_TRUE(fleet[0].AuditBudget().ok());
  EXPECT_NEAR(fleet[0].MaxWindowSpend(), 1.0, 1e-9);
}

}  // namespace
}  // namespace capp
