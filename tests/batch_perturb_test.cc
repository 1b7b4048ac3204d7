// Batch-vs-scalar equivalence for the batched perturbation pipeline.
//
// The contract under test: every batched entry point -- Rng::FillUniform,
// Mechanism::PerturbBatch, StreamPerturber::ProcessChunk,
// UserSession::ReportChunk, ShardedCollector::IngestUserRun, and the
// Fleet's pooled worker loop -- produces results bit-identical to its
// scalar per-element counterpart, consuming the RNG stream in the same
// order and leaving identical budget-ledger and slot-counter state.
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/factory.h"
#include "core/rng.h"
#include "core/stream_digest.h"
#include "engine/engine_config.h"
#include "engine/fleet.h"
#include "engine/sharded_collector.h"
#include "mechanisms/mechanism.h"
#include "mechanisms/square_wave.h"
#include "stream/accountant.h"
#include "stream/session.h"
#include "stream/smoothing.h"

namespace capp {
namespace {

// Inputs spanning the unit domain plus out-of-domain values. With
// `include_nonfinite`, NaN/Inf sensor glitches are mixed in too -- only
// for the perturber-level paths, whose SanitizeUnitValue must normalize
// them identically on both sides; mechanisms contractually receive
// sanitized values, so the Mechanism::PerturbBatch tests keep inputs
// finite.
std::vector<double> MakeInputs(size_t n, uint64_t seed,
                               bool include_nonfinite = false) {
  Rng rng(seed);
  std::vector<double> xs(n);
  for (size_t i = 0; i < n; ++i) {
    switch (rng.UniformInt(include_nonfinite ? 10 : 8)) {
      case 0:
        xs[i] = 0.0;
        break;
      case 1:
        xs[i] = 1.0;
        break;
      case 2:
        xs[i] = -0.25;  // below domain
        break;
      case 3:
        xs[i] = 1.75;  // above domain
        break;
      case 8:
        xs[i] = std::numeric_limits<double>::quiet_NaN();
        break;
      case 9:
        xs[i] = rng.Bernoulli(0.5)
                    ? std::numeric_limits<double>::infinity()
                    : -std::numeric_limits<double>::infinity();
        break;
      default:
        xs[i] = rng.UniformDouble();
    }
  }
  return xs;
}

void ExpectBitEqual(const std::vector<double>& a, const std::vector<double>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(a[i]), std::bit_cast<uint64_t>(b[i]))
        << what << " diverges at index " << i << ": " << a[i] << " vs "
        << b[i];
  }
}

// ------------------------------------------------------------ FillUniform --

TEST(FillUniformTest, MatchesScalarDrawsAtEverySize) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{7},
                   size_t{255}, size_t{1000}}) {
    Rng scalar_rng(42);
    Rng block_rng(42);
    std::vector<double> scalar(n);
    for (double& x : scalar) x = scalar_rng.UniformDouble();
    std::vector<double> block(n);
    block_rng.FillUniform(block);
    ExpectBitEqual(scalar, block, "FillUniform");
    // The generators must also be left in the same state.
    EXPECT_EQ(scalar_rng.NextUint64(), block_rng.NextUint64()) << n;
  }
}

// ----------------------------------------------------------- FillGaussian --

TEST(FillGaussianTest, MatchesScalarDrawsAtEverySize) {
  // Odd sizes matter: the scalar path caches the rejected pair's second
  // output as a spare, and the block path must leave the identical spare.
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{4},
                   size_t{5}, size_t{7}, size_t{8}, size_t{15}, size_t{64},
                   size_t{255}, size_t{1000}}) {
    Rng scalar_rng(42);
    Rng block_rng(42);
    std::vector<double> scalar(n);
    for (double& x : scalar) x = scalar_rng.Gaussian(0.0, 1.0);
    std::vector<double> block(n);
    block_rng.FillGaussian(block);
    ExpectBitEqual(scalar, block, "FillGaussian");
    // The generators must be left in the same state, spare included: the
    // next Gaussian draw and the raw uniform stream must both agree.
    EXPECT_EQ(std::bit_cast<uint64_t>(scalar_rng.Gaussian(0.0, 1.0)),
              std::bit_cast<uint64_t>(block_rng.Gaussian(0.0, 1.0)))
        << n;
    EXPECT_EQ(scalar_rng.NextUint64(), block_rng.NextUint64()) << n;
  }
}

TEST(FillGaussianTest, ConsumesPreexistingSpareFirst) {
  Rng scalar_rng(7);
  Rng block_rng(7);
  // One scalar draw primes both generators with a cached spare; the
  // block fill must emit that spare as its first output.
  EXPECT_EQ(std::bit_cast<uint64_t>(scalar_rng.Gaussian(0.0, 1.0)),
            std::bit_cast<uint64_t>(block_rng.Gaussian(0.0, 1.0)));
  for (size_t n : {size_t{1}, size_t{2}, size_t{5}}) {
    std::vector<double> scalar(n);
    for (double& x : scalar) x = scalar_rng.Gaussian(0.0, 1.0);
    std::vector<double> block(n);
    block_rng.FillGaussian(block);
    ExpectBitEqual(scalar, block, "FillGaussian with pending spare");
  }
  EXPECT_EQ(scalar_rng.NextUint64(), block_rng.NextUint64());
}

// ----------------------------------------------------------- PerturbBatch --

TEST(PerturbBatchTest, BitIdenticalToScalarForEveryMechanism) {
  for (MechanismKind kind :
       {MechanismKind::kSquareWave, MechanismKind::kLaplace,
        MechanismKind::kDuchiSr, MechanismKind::kPiecewise,
        MechanismKind::kHybrid}) {
    for (double epsilon : {0.05, 0.5, 1.0, 4.0}) {
      // Sizes straddle the SW override's 128-report block boundary.
      for (size_t n : {size_t{0}, size_t{1}, size_t{127}, size_t{128},
                       size_t{129}, size_t{500}}) {
        SCOPED_TRACE(MechanismKindName(kind));
        SCOPED_TRACE(epsilon);
        SCOPED_TRACE(n);
        auto mech = CreateMechanism(kind, epsilon);
        ASSERT_TRUE(mech.ok());
        const std::vector<double> xs = MakeInputs(n, 7 * n + 13);

        Rng scalar_rng(99);
        std::vector<double> scalar(n);
        for (size_t i = 0; i < n; ++i) {
          scalar[i] = (*mech)->Perturb(xs[i], scalar_rng);
        }

        Rng batch_rng(99);
        std::vector<double> batch(n);
        (*mech)->PerturbBatch(xs, batch, batch_rng);
        ExpectBitEqual(scalar, batch, "PerturbBatch");
        EXPECT_EQ(scalar_rng.NextUint64(), batch_rng.NextUint64());
      }
    }
  }
}

// ----------------------------------------------------------- ProcessChunk --

// The online algorithms; sampling kinds have no per-slot path to compare.
const AlgorithmKind kOnlineKinds[] = {
    AlgorithmKind::kSwDirect, AlgorithmKind::kIpp,  AlgorithmKind::kApp,
    AlgorithmKind::kCapp,     AlgorithmKind::kBaSw, AlgorithmKind::kTopl,
};

TEST(ProcessChunkTest, BitIdenticalToProcessValueForEveryAlgorithm) {
  for (AlgorithmKind kind : kOnlineKinds) {
    for (double epsilon : {0.5, 2.0}) {
      SCOPED_TRACE(AlgorithmKindName(kind));
      SCOPED_TRACE(epsilon);
      const PerturberOptions options{epsilon, 10};
      const size_t n = 300;
      const std::vector<double> xs =
          MakeInputs(n, 1234, /*include_nonfinite=*/true);

      auto scalar = CreatePerturber(kind, options);
      auto batched = CreatePerturber(kind, options);
      ASSERT_TRUE(scalar.ok() && batched.ok());
      WEventAccountant scalar_ledger;
      WEventAccountant batched_ledger;
      (*scalar)->AttachAccountant(&scalar_ledger);
      (*batched)->AttachAccountant(&batched_ledger);

      Rng scalar_rng(2718);
      std::vector<double> scalar_out(n);
      for (size_t i = 0; i < n; ++i) {
        scalar_out[i] = (*scalar)->ProcessValue(xs[i], scalar_rng);
      }

      // Uneven chunk splits, including a 1-slot chunk mid-stream.
      Rng batch_rng(2718);
      std::vector<double> batch_out(n);
      const size_t cuts[] = {0, 129, 130, 257, n};
      for (size_t c = 0; c + 1 < std::size(cuts); ++c) {
        const size_t len = cuts[c + 1] - cuts[c];
        (*batched)->ProcessChunk(
            std::span(xs).subspan(cuts[c], len),
            std::span(batch_out).subspan(cuts[c], len), batch_rng);
      }

      ExpectBitEqual(scalar_out, batch_out, "ProcessChunk");
      EXPECT_EQ(scalar_rng.NextUint64(), batch_rng.NextUint64());
      EXPECT_EQ((*scalar)->slots_processed(), (*batched)->slots_processed());
      ASSERT_EQ(scalar_ledger.num_slots(), batched_ledger.num_slots());
      for (size_t t = 0; t < scalar_ledger.num_slots(); ++t) {
        EXPECT_EQ(std::bit_cast<uint64_t>(scalar_ledger.SlotSpend(t)),
                  std::bit_cast<uint64_t>(batched_ledger.SlotSpend(t)))
            << "ledger diverges at slot " << t;
      }
    }
  }
}

TEST(ProcessChunkTest, NonSwMechanismsUseTheScalarFallbackBitIdentically) {
  // IPP/APP/CAPP over Laplace have no SW plan, so ProcessChunk takes the
  // per-slot DoProcessChunk fallback (PerturbBatch for direct).
  for (AlgorithmKind kind :
       {AlgorithmKind::kSwDirect, AlgorithmKind::kIpp, AlgorithmKind::kApp,
        AlgorithmKind::kCapp}) {
    SCOPED_TRACE(AlgorithmKindName(kind));
    const PerturberOptions options{1.0, 10};
    auto scalar =
        CreatePerturberWithMechanism(kind, options, MechanismKind::kLaplace);
    auto batched =
        CreatePerturberWithMechanism(kind, options, MechanismKind::kLaplace);
    ASSERT_TRUE(scalar.ok() && batched.ok());
    const size_t n = 64;
    const std::vector<double> xs = MakeInputs(n, 5);

    Rng scalar_rng(31);
    std::vector<double> scalar_out(n);
    for (size_t i = 0; i < n; ++i) {
      scalar_out[i] = (*scalar)->ProcessValue(xs[i], scalar_rng);
    }
    Rng batch_rng(31);
    std::vector<double> batch_out(n);
    (*batched)->ProcessChunk(xs, batch_out, batch_rng);
    ExpectBitEqual(scalar_out, batch_out, "laplace fallback");
  }
}

TEST(ProcessChunkTest, ResetRestoresAFreshStream) {
  auto perturber = CreatePerturber(AlgorithmKind::kCapp, {1.0, 10});
  ASSERT_TRUE(perturber.ok());
  const std::vector<double> xs = MakeInputs(50, 8);
  Rng rng_a(7);
  std::vector<double> first(xs.size());
  (*perturber)->ProcessChunk(xs, first, rng_a);
  (*perturber)->Reset();
  Rng rng_b(7);
  std::vector<double> second(xs.size());
  (*perturber)->ProcessChunk(xs, second, rng_b);
  ExpectBitEqual(first, second, "Reset");
}

// -------------------------------------------------------- SwParams cache --

TEST(SwParamsCacheTest, CachedMatchesComputeBitForBit) {
  for (double epsilon : {1e-6, 0.01, 0.3, 1.0, 2.5, 10.0, 49.0}) {
    SCOPED_TRACE(epsilon);
    auto direct = SquareWave::ComputeParams(epsilon);
    ASSERT_TRUE(direct.ok());
    // Twice: the second lookup is served from the cache.
    for (int round = 0; round < 2; ++round) {
      auto cached = CachedSwParams(epsilon);
      ASSERT_TRUE(cached.ok());
      EXPECT_EQ(std::bit_cast<uint64_t>(direct->b),
                std::bit_cast<uint64_t>(cached->b));
      EXPECT_EQ(std::bit_cast<uint64_t>(direct->p),
                std::bit_cast<uint64_t>(cached->p));
      EXPECT_EQ(std::bit_cast<uint64_t>(direct->q),
                std::bit_cast<uint64_t>(cached->q));
    }
  }
  EXPECT_FALSE(CachedSwParams(0.0).ok());
  EXPECT_FALSE(CachedSwParams(-1.0).ok());
}

TEST(SwParamsCacheTest, CreateCachedEqualsCreate) {
  auto a = SquareWave::Create(1.25);
  auto b = SquareWave::CreateCached(1.25);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->epsilon(), b->epsilon());
  EXPECT_EQ(std::bit_cast<uint64_t>(a->params().b),
            std::bit_cast<uint64_t>(b->params().b));
  Rng rng_a(3);
  Rng rng_b(3);
  for (int i = 0; i < 100; ++i) {
    const double v = static_cast<double>(i) / 99.0;
    EXPECT_EQ(std::bit_cast<uint64_t>(a->Perturb(v, rng_a)),
              std::bit_cast<uint64_t>(b->Perturb(v, rng_b)));
  }
}

// ------------------------------------------------------------ UserSession --

TEST(UserSessionBatchTest, ReportChunkMatchesReportLoop) {
  for (AlgorithmKind kind : kOnlineKinds) {
    SCOPED_TRACE(AlgorithmKindName(kind));
    auto scalar = UserSession::Create(5, kind, {1.0, 10}, 77);
    auto batched = UserSession::Create(5, kind, {1.0, 10}, 77);
    ASSERT_TRUE(scalar.ok() && batched.ok());
    const std::vector<double> xs =
        MakeInputs(120, 21, /*include_nonfinite=*/true);

    std::vector<double> scalar_out(xs.size());
    for (size_t i = 0; i < xs.size(); ++i) {
      const SlotReport report = scalar->Report(xs[i]);
      EXPECT_EQ(report.slot, i);
      scalar_out[i] = report.value;
    }
    std::vector<double> batch_out(xs.size());
    batched->ReportChunk(xs, batch_out);
    ExpectBitEqual(scalar_out, batch_out, "ReportChunk");
    EXPECT_EQ(scalar->slots_processed(), batched->slots_processed());
    EXPECT_EQ(scalar->MaxWindowSpend(), batched->MaxWindowSpend());
    EXPECT_TRUE(batched->AuditBudget().ok());
  }
}

TEST(UserSessionBatchTest, ResetForUserEqualsFreshSession) {
  auto pooled = UserSession::Create(0, AlgorithmKind::kCapp, {1.0, 10}, 0);
  ASSERT_TRUE(pooled.ok());
  const std::vector<double> xs = MakeInputs(60, 4);
  std::vector<double> pooled_out(xs.size());
  // Warm the pooled session with a different user first.
  pooled->ReportChunk(xs, pooled_out);

  pooled->ResetForUser(123, 456);
  pooled->ReportChunk(xs, pooled_out);

  auto fresh = UserSession::Create(123, AlgorithmKind::kCapp, {1.0, 10}, 456);
  ASSERT_TRUE(fresh.ok());
  std::vector<double> fresh_out(xs.size());
  fresh->ReportChunk(xs, fresh_out);

  EXPECT_EQ(pooled->user_id(), 123u);
  ExpectBitEqual(fresh_out, pooled_out, "ResetForUser");
  EXPECT_EQ(fresh->MaxWindowSpend(), pooled->MaxWindowSpend());
}

// ---------------------------------------------------------- IngestUserRun --

TEST(IngestUserRunTest, MatchesPerReportIngest) {
  const std::vector<double> values = MakeInputs(40, 17);
  for (bool keep_streams : {true, false}) {
    SCOPED_TRACE(keep_streams);
    auto per_report =
        ShardedCollector::Create({.num_shards = 4,
                                  .keep_streams = keep_streams});
    auto run = ShardedCollector::Create({.num_shards = 4,
                                         .keep_streams = keep_streams});
    ASSERT_TRUE(per_report.ok() && run.ok());
    for (uint64_t user : {uint64_t{1}, uint64_t{99}, uint64_t{1} << 50}) {
      for (size_t i = 0; i < values.size(); ++i) {
        per_report->Ingest({user, 3 + i, values[i]});
      }
      run->IngestUserRun(user, /*base_slot=*/3, values);
    }
    EXPECT_EQ(per_report->user_count(), run->user_count());
    EXPECT_EQ(per_report->report_count(), run->report_count());
    EXPECT_EQ(per_report->SlotSpan(), run->SlotSpan());
    EXPECT_EQ(per_report->SlotCount(99), run->SlotCount(99));
    if (keep_streams) {
      for (uint64_t user : {uint64_t{1}, uint64_t{99}, uint64_t{1} << 50}) {
        auto a = per_report->GapFilledStream(user);
        auto b = run->GapFilledStream(user);
        ASSERT_TRUE(a.ok() && b.ok());
        ExpectBitEqual(*a, *b, "IngestUserRun stream");
      }
    }
    const auto ma = per_report->PopulationSlotAggregates();
    const auto mb = run->PopulationSlotAggregates();
    ASSERT_EQ(ma.size(), mb.size());
    for (size_t t = 0; t < ma.size(); ++t) {
      EXPECT_EQ(ma[t].Count(), mb[t].Count()) << t;
      EXPECT_EQ(std::bit_cast<uint64_t>(ma[t].Mean()),
                std::bit_cast<uint64_t>(mb[t].Mean()))
          << t;
    }
  }
}

TEST(IngestUserRunTest, NonFiniteValuesAreDiscardedLikeIngest) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  auto collector = ShardedCollector::Create();
  ASSERT_TRUE(collector.ok());
  // All-garbage run: must not register the user (Ingest drops pre-insert).
  const double garbage[] = {kNaN, kNaN};
  collector->IngestUserRun(7, 0, garbage);
  EXPECT_FALSE(collector->Contains(7));
  EXPECT_EQ(collector->report_count(), 0u);
  // Mixed run: finite values land, NaN slots stay missing.
  const double mixed[] = {kNaN, 0.25, kNaN, 0.75, kNaN};
  collector->IngestUserRun(7, 0, mixed);
  EXPECT_TRUE(collector->Contains(7));
  EXPECT_EQ(collector->report_count(), 2u);
  auto stream = collector->GapFilledStream(7);
  ASSERT_TRUE(stream.ok());
  // Slots 0..3: gap-filled prior, 0.25, carried 0.25, 0.75 (trailing NaN
  // is beyond the last finite slot).
  ASSERT_EQ(stream->size(), 4u);
  EXPECT_DOUBLE_EQ((*stream)[1], 0.25);
  EXPECT_DOUBLE_EQ((*stream)[2], 0.25);
  EXPECT_DOUBLE_EQ((*stream)[3], 0.75);
}

// -------------------------------------------------- fleet digest pinning --

// Scalar-oracle replication of the fleet pipeline: per-user fresh
// UserSession driven slot-by-slot through Report(), smoothed and hashed
// exactly as the engine defines the digest. The pooled, batched Fleet::Run
// must reproduce this digest bit for bit -- this is the "batched path ==
// scalar path" contract at fleet scope.
uint64_t ScalarOracleDigest(const EngineConfig& config,
                            int smoothing_window) {
  uint64_t digest = 0;
  for (uint64_t uid = 0; uid < config.num_users; ++uid) {
    Rng signal_rng(UserStreamSeed(config.seed, uid, 0));
    const std::vector<double> truth =
        GenerateUserSignal(config.signal, config.num_slots, signal_rng);
    auto session =
        UserSession::Create(uid, config.algorithm,
                            {config.epsilon, config.window},
                            UserStreamSeed(config.seed, uid, 1));
    CAPP_CHECK(session.ok());
    std::vector<double> reports(config.num_slots);
    for (size_t t = 0; t < config.num_slots; ++t) {
      reports[t] = session->Report(truth[t]).value;
    }
    auto published = SimpleMovingAverage(reports, smoothing_window);
    CAPP_CHECK(published.ok());
    // Digest v2: the public chunk-level hash (core/stream_digest.h). The
    // oracle's streams come from the scalar path, so this pins both the
    // published values and the digest definition the engine reports.
    digest ^= UserStreamDigest(uid, *published);
  }
  return digest;
}

TEST(FleetBatchTest, DigestMatchesScalarOracleAndIsThreadInvariant) {
  for (AlgorithmKind kind :
       {AlgorithmKind::kCapp, AlgorithmKind::kSwDirect, AlgorithmKind::kIpp,
        AlgorithmKind::kBaSw}) {
    SCOPED_TRACE(AlgorithmKindName(kind));
    EngineConfig config;
    config.algorithm = kind;
    config.epsilon = 1.0;
    config.window = 10;
    config.num_users = 200;
    config.num_slots = 30;
    config.chunk_size = 32;
    config.seed = 2025;
    config.signal = SignalKind::kSinusoid;
    config.keep_streams = false;

    uint64_t oracle = 0;
    bool have_oracle = false;
    for (int threads : {1, 4, 8}) {
      SCOPED_TRACE(threads);
      config.num_threads = threads;
      auto fleet = Fleet::Create(config);
      ASSERT_TRUE(fleet.ok());
      if (!have_oracle) {
        oracle = ScalarOracleDigest(config, fleet->smoothing_window());
        have_oracle = true;
      }
      auto stats = fleet->Run();
      ASSERT_TRUE(stats.ok());
      EXPECT_EQ(stats->stream_digest, oracle)
          << "batched fleet diverged from the scalar oracle";
    }
  }
}

}  // namespace
}  // namespace capp
