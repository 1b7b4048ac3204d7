// Tests for the sharded stream-publication engine: the gap-fill policy,
// Welford slot aggregates, ShardedCollector equivalence with the legacy
// map-based collector, its user index under colliding and wrapping
// probes, its restore refusals, and the Fleet determinism contract.
#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "engine/engine_config.h"
#include "engine/fleet.h"
#include "engine/sharded_collector.h"
#include "engine/thread_pool.h"
#include "storage/collector_backend.h"
#include "stream/gap_fill.h"
#include "stream/session.h"

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

TEST(SlotAggregateTest, ReplaceEqualsRebuild) {
  SlotAggregate replaced;
  for (double x : {0.3, 0.6, 0.9}) replaced.Add(x);
  replaced.Replace(0.6, 0.1);

  SlotAggregate rebuilt;
  for (double x : {0.3, 0.1, 0.9}) rebuilt.Add(x);
  EXPECT_EQ(replaced.Count(), rebuilt.Count());
  EXPECT_NEAR(replaced.Mean(), rebuilt.Mean(), 1e-12);
  EXPECT_NEAR(replaced.M2(), rebuilt.M2(), 1e-12);
}

TEST(SlotAggregateTest, RemoveToEmptyResets) {
  SlotAggregate agg;
  agg.Add(0.5);
  agg.Remove(0.5);
  EXPECT_EQ(agg.Count(), 0u);
  EXPECT_DOUBLE_EQ(agg.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(agg.M2(), 0.0);
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
  SlotAggregate replaced;
  replaced.Add(0.25);
  EXPECT_TRUE(replaced.Replace(0.25, 1.0e7));
  EXPECT_DOUBLE_EQ(replaced.Mean(), 65536.0);
}

TEST(ShardedCollectorTest, CountsSaturatedReports) {
  auto collector = ShardedCollector::Create({.keep_streams = false});
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

TEST(ShardedCollectorTest, OverwriteIsLastWriteWins) {
  auto collector = ShardedCollector::Create();
  ASSERT_TRUE(collector.ok());
  collector->Ingest({7, 2, 0.1});
  collector->Ingest({7, 2, 0.9});
  EXPECT_EQ(collector->user_count(), 1u);
  EXPECT_EQ(collector->SlotCount(7), 1u);
  EXPECT_EQ(collector->report_count(), 1u);
  const auto means = collector->PopulationSlotMeans();
  ASSERT_EQ(means.size(), 3u);
  EXPECT_DOUBLE_EQ(means[2], 0.9);
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

TEST(ShardedCollectorTest, AggregateOnlyModeRefusesStreamQueries) {
  auto collector = ShardedCollector::Create({.keep_streams = false});
  ASSERT_TRUE(collector.ok());
  collector->Ingest({1, 0, 0.4});
  EXPECT_TRUE(collector->Contains(1));
  EXPECT_FALSE(collector->GapFilledStream(1).ok());
  EXPECT_FALSE(collector->SubsequenceMean(1, 0, 1).ok());
  // Aggregates still stream.
  const auto means = collector->PopulationSlotMeans();
  ASSERT_EQ(means.size(), 1u);
  EXPECT_DOUBLE_EQ(means[0], 0.4);
}

TEST(ShardedCollectorTest, AggregateOnlyEmptyRunRegistersNothing) {
  // An empty run -- and a run of only non-finite values -- must not
  // register the user, bump SlotCount, or touch the aggregates, in either
  // storage mode.
  for (bool keep_streams : {false, true}) {
    SCOPED_TRACE(keep_streams);
    auto collector =
        ShardedCollector::Create({.keep_streams = keep_streams});
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
    auto collector = ShardedCollector::Create(
        {.num_shards = shards, .keep_streams = false});
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
  EXPECT_FALSE(collector->GapFilledStream(5).ok());
  EXPECT_FALSE(collector->SubsequenceMean(5, 0, 3).ok());
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

  for (size_t shards : {size_t{1}, size_t{3}, size_t{16}}) {
    SCOPED_TRACE(shards);
    auto sharded = ShardedCollector::Create({.num_shards = shards});
    ASSERT_TRUE(sharded.ok());
    // Mix the two ingest shapes: half one-by-one, half as runs whose
    // trailing NaN pad must be trimmed (the slot span below would grow
    // past the reference's otherwise).
    const size_t half = reports.size() / 2;
    for (size_t i = 0; i < half; ++i) sharded->Ingest(reports[i]);
    for (size_t i = half; i < reports.size(); ++i) {
      sharded->IngestUserRun(reports[i].user_id, reports[i].slot,
                             std::vector<double>{reports[i].value, kNaN});
    }

    EXPECT_EQ(sharded->user_count(), reference.raw().size());
    for (uint64_t user : users) {
      SCOPED_TRACE(user);
      EXPECT_EQ(sharded->SlotCount(user), reference.raw().at(user).size());
      auto stream = sharded->GapFilledStream(user);
      ASSERT_TRUE(stream.ok());
      const std::vector<double> expected = reference.GapFilledStream(user);
      ASSERT_EQ(stream->size(), expected.size());
      for (size_t t = 0; t < expected.size(); ++t) {
        EXPECT_DOUBLE_EQ((*stream)[t], expected[t]) << "slot " << t;
      }
    }
    const std::vector<double> expected_means =
        reference.PopulationSlotMeans();
    const std::vector<double> means = sharded->PopulationSlotMeans();
    ASSERT_EQ(means.size(), expected_means.size());
    for (size_t t = 0; t < means.size(); ++t) {
      if (std::isnan(expected_means[t])) {
        EXPECT_TRUE(std::isnan(means[t])) << "slot " << t;
      } else {
        EXPECT_NEAR(means[t], expected_means[t], 1e-12) << "slot " << t;
      }
    }
  }
}

TEST(ShardedCollectorTest, ConcurrentIngestMatchesSerial) {
  // The same reports ingested from 8 threads, one whole-stream run per
  // user, and from 1 thread, report by report, must yield identical
  // queryable state (ingest order may differ; last-write-wins conflicts
  // are avoided by unique (user, slot) pairs).
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
    auto a = serial->GapFilledStream(u);
    auto b = concurrent->GapFilledStream(u);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b) << "user " << u;
  }
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
  options.keep_streams = false;
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
  options.keep_streams = false;
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
    options.keep_streams = false;
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
    options.keep_streams = false;
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
    options.keep_streams = false;
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

TEST(ShardedCollectorTest, KeptStreamsSurviveIndexGrowth) {
  // Every user reports slot 0 while the index grows through its
  // doublings, then slot 3 as a run after the growth; each stream must
  // still resolve to its own dense row.
  const std::vector<uint64_t> ids = CollidingPopulation();
  auto collector =
      ShardedCollector::Create({.num_shards = 1, .keep_streams = true});
  ASSERT_TRUE(collector.ok());
  for (size_t i = 0; i < ids.size(); ++i) {
    collector->Ingest({ids[i], 0, 0.001 * static_cast<double>(i)});
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    collector->IngestUserRun(
        ids[i], 1,
        std::vector<double>{kNaN, kNaN, -0.002 * static_cast<double>(i)});
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    const double first = 0.001 * static_cast<double>(i);
    auto stream = collector->GapFilledStream(ids[i]);
    ASSERT_TRUE(stream.ok()) << i;
    EXPECT_EQ(*stream, (std::vector<double>{first, first, first,
                                            -0.002 * static_cast<double>(i)}))
        << i;
    EXPECT_EQ(collector->SlotCount(ids[i]), 2u) << i;
  }
}

TEST(ShardedCollectorTest, SingleWriterRequiresAggregateOnlyStorage) {
  ShardedCollectorOptions options;
  options.keep_streams = true;
  options.single_writer = true;
  EXPECT_FALSE(ShardedCollector::Create(options).ok());
  options.keep_streams = false;
  EXPECT_TRUE(ShardedCollector::Create(options).ok());
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
    options.keep_streams = false;
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
  // transports' shard-group routing gives every shard exactly one
  // writer, and never composes with per-user stream storage.
  bad = good;
  bad.transport.kind = TransportKind::kQueueFramed;
  bad.transport.owned_shards = true;
  bad.keep_streams = false;
  EXPECT_TRUE(ValidateEngineConfig(bad).ok());  // the supported shape
  bad.transport.kind = TransportKind::kSocket;
  EXPECT_TRUE(ValidateEngineConfig(bad).ok());
  bad.transport.kind = TransportKind::kDirect;
  EXPECT_FALSE(ValidateEngineConfig(bad).ok());
  bad.transport.kind = TransportKind::kQueueFramed;
  bad.keep_streams = true;
  EXPECT_FALSE(ValidateEngineConfig(bad).ok());
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
  config.keep_streams = true;
  return config;
}

TEST(FleetTest, PublishedStreamsBitIdenticalAcrossThreadCounts) {
  EngineStats baseline;
  std::vector<std::vector<double>> baseline_streams;
  const std::vector<uint64_t> probes = {0, 1, 63, 64, 499};

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

    std::vector<std::vector<double>> streams;
    for (uint64_t user : probes) {
      auto stream = fleet->collector().GapFilledStream(user);
      ASSERT_TRUE(stream.ok());
      streams.push_back(*stream);
    }
    if (threads == 1) {
      baseline = *stats;
      baseline_streams = streams;
      continue;
    }
    // The determinism contract: digests, error statistics, and the raw
    // per-user streams are all bit-identical regardless of thread count.
    EXPECT_EQ(stats->stream_digest, baseline.stream_digest);
    EXPECT_EQ(stats->mean_slot_mse, baseline.mean_slot_mse);
    EXPECT_EQ(stats->mean_abs_error, baseline.mean_abs_error);
    for (size_t i = 0; i < probes.size(); ++i) {
      EXPECT_EQ(streams[i], baseline_streams[i]) << "user " << probes[i];
    }
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
  config.keep_streams = false;  // owned mode is aggregate-only
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
  config.keep_streams = false;  // aggregate-only: the scaling mode
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
