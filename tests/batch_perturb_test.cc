// Batch-vs-scalar equivalence for the batched perturbation pipeline.
//
// The contract under test: every batched entry point -- Rng::FillUniform,
// Mechanism::PerturbBatch, StreamPerturber::ProcessChunk,
// UserSession::ReportChunk, ShardedCollector::IngestUserRun, and the
// Fleet's pooled worker loop -- produces results bit-identical to its
// scalar per-element counterpart, consuming the RNG stream in the same
// order and leaving identical budget-ledger and slot-counter state.
#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/clip_bounds.h"
#include "algorithms/factory.h"
#include "algorithms/perturber.h"
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

// --------------------------------------------------------- ProcessSwLanes --

// The lane-pair helpers must reproduce their scalar counterparts element
// for element on the values where operand order is observable: NaN, both
// zeros, infinities and values exactly at the bounds. A maxpd-style clamp
// with its operands swapped returns the bound for NaN and the other zero.
TEST(SwLanePairTest, HelpersMatchScalarBitForBit) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const double values[] = {kNan, -kInf, kInf, -0.0,  0.0,  -0.125, 0.0625,
                           0.5,  1.0,   1.25, -0.25, 0.25, 1e-300, 1.0 - 1e-16};
  const double bounds[][2] = {{0.0, 1.0}, {-0.125, 1.125}, {0.0625, 0.5}};
  for (double a : values) {
    for (double b : values) {
      SCOPED_TRACE(a);
      SCOPED_TRACE(b);
      const internal::SwLanePair pair{a, b};
      const internal::SwLanePair sanitized = SanitizeUnitValue(pair);
      EXPECT_EQ(std::bit_cast<uint64_t>(sanitized[0]),
                std::bit_cast<uint64_t>(SanitizeUnitValue(a)));
      EXPECT_EQ(std::bit_cast<uint64_t>(sanitized[1]),
                std::bit_cast<uint64_t>(SanitizeUnitValue(b)));
      for (const auto& [lo, hi] : bounds) {
        const internal::SwLanePair clamped = Clamp(pair, lo, hi);
        EXPECT_EQ(std::bit_cast<uint64_t>(clamped[0]),
                  std::bit_cast<uint64_t>(Clamp(a, lo, hi)));
        EXPECT_EQ(std::bit_cast<uint64_t>(clamped[1]),
                  std::bit_cast<uint64_t>(Clamp(b, lo, hi)));
      }
      // Each comparison outcome picks its own operand, in both types.
      const internal::SwLanePair picked = internal::SelectLess(
          pair, internal::SwLanePair{b, a}, internal::SwLanePair{1.0, 2.0},
          internal::SwLanePair{3.0, 4.0});
      EXPECT_EQ(picked[0], a < b ? 1.0 : 3.0);
      EXPECT_EQ(picked[1], b < a ? 2.0 : 4.0);
      EXPECT_EQ(internal::SelectLess(a, b, 1.0, 3.0), a < b ? 1.0 : 3.0);
    }
  }
}

// Per-lane inputs for the lane tests: MakeInputs plus the values that
// stress the lane helpers (-0.0, NaN, infinities, out-of-range) and CAPP's
// own clip bounds l and u, each at a lane-dependent position.
std::vector<double> MakeLaneInputs(size_t n, uint64_t seed,
                                   const ClipBounds& bounds) {
  std::vector<double> xs = MakeInputs(n, seed, /*include_nonfinite=*/true);
  const double specials[] = {-0.0,
                             bounds.l,
                             bounds.u,
                             std::numeric_limits<double>::quiet_NaN(),
                             -std::numeric_limits<double>::infinity(),
                             1e300,
                             -1e-300};
  for (size_t k = 0; k < std::size(specials); ++k) {
    const size_t at = (seed * 7 + k * 13) % std::max<size_t>(n, 1);
    if (at < n) xs[at] = specials[k];
  }
  return xs;
}

const AlgorithmKind kSwKinds[] = {AlgorithmKind::kSwDirect,
                                  AlgorithmKind::kIpp, AlgorithmKind::kApp,
                                  AlgorithmKind::kCapp};

TEST(ProcessSwLanesTest, BitIdenticalToPerStreamProcessChunk) {
  constexpr size_t kLanes = StreamPerturber::kLanes;
  const PerturberOptions options{1.0, 10};
  auto bounds = SelectClipBounds(options.epsilon / options.window);
  ASSERT_TRUE(bounds.ok());
  for (AlgorithmKind kind : kSwKinds) {
    // Straddles the 128-slot uniform block; the second call (5 more
    // slots) checks that each lane's feedback state was stored back.
    for (size_t n : {size_t{1}, size_t{127}, size_t{128}, size_t{129},
                     size_t{300}}) {
      SCOPED_TRACE(AlgorithmKindName(kind));
      SCOPED_TRACE(n);
      const size_t total = n + 5;
      // Two references per lane: ProcessChunk, which shares the slot
      // formula with the lanes, and ProcessValue, which goes through
      // SquareWave::Perturb and so catches a fault in the shared formula.
      std::unique_ptr<StreamPerturber> per_slot[kLanes];
      std::unique_ptr<StreamPerturber> scalar[kLanes];
      std::unique_ptr<StreamPerturber> laned[kLanes];
      WEventAccountant scalar_ledgers[kLanes];
      WEventAccountant lane_ledgers[kLanes];
      std::vector<Rng> scalar_rngs;
      std::vector<Rng> lane_rngs;
      std::vector<std::vector<double>> xs;
      StreamPerturber* lanes[kLanes] = {};
      Rng* rngs[kLanes] = {};
      for (size_t l = 0; l < kLanes; ++l) {
        auto a = CreatePerturber(kind, options);
        auto b = CreatePerturber(kind, options);
        auto c = CreatePerturber(kind, options);
        ASSERT_TRUE(a.ok() && b.ok() && c.ok());
        ASSERT_TRUE((*a)->consumes_sw_uniforms());
        scalar[l] = std::move(*a);
        per_slot[l] = std::move(*c);
        laned[l] = std::move(*b);
        scalar[l]->AttachAccountant(&scalar_ledgers[l]);
        laned[l]->AttachAccountant(&lane_ledgers[l]);
        scalar_rngs.emplace_back(1000 + 17 * l);
        lane_rngs.emplace_back(1000 + 17 * l);
        xs.push_back(MakeLaneInputs(total, 50 + l, *bounds));
        lanes[l] = laned[l].get();
      }
      for (size_t l = 0; l < kLanes; ++l) rngs[l] = &lane_rngs[l];

      std::vector<std::vector<double>> expected(kLanes,
                                                std::vector<double>(total));
      for (size_t l = 0; l < kLanes; ++l) {
        Rng rng(1000 + 17 * l);
        std::vector<double> reference(total);
        for (size_t t = 0; t < total; ++t) {
          reference[t] = per_slot[l]->ProcessValue(xs[l][t], rng);
        }
        const std::span<const double> in(xs[l]);
        const std::span<double> out(expected[l]);
        scalar[l]->ProcessChunk(in.first(n), out.first(n), scalar_rngs[l]);
        scalar[l]->ProcessChunk(in.subspan(n), out.subspan(n),
                                scalar_rngs[l]);
        ExpectBitEqual(reference, expected[l], "ProcessValue reference");
      }
      std::vector<double> lane_out(kLanes * total);
      for (const auto& [begin, len] :
           {std::pair<size_t, size_t>{0, n}, {n, total - n}}) {
        std::vector<double> block_in(kLanes * len);
        for (size_t t = 0; t < len; ++t) {
          for (size_t l = 0; l < kLanes; ++l) {
            block_in[t * kLanes + l] = xs[l][begin + t];
          }
        }
        StreamPerturber::ProcessSwLanes(
            lanes, rngs, block_in,
            std::span(lane_out).subspan(begin * kLanes, len * kLanes));
      }

      for (size_t l = 0; l < kLanes; ++l) {
        SCOPED_TRACE(l);
        std::vector<double> got(total);
        for (size_t t = 0; t < total; ++t) got[t] = lane_out[t * kLanes + l];
        ExpectBitEqual(expected[l], got, "ProcessSwLanes");
        EXPECT_EQ(scalar[l]->slots_processed(), laned[l]->slots_processed());
        EXPECT_EQ(std::bit_cast<uint64_t>(
                      scalar_ledgers[l].MaxWindowSpend(options.window)),
                  std::bit_cast<uint64_t>(
                      lane_ledgers[l].MaxWindowSpend(options.window)));
        EXPECT_EQ(scalar_ledgers[l].num_slots(), lane_ledgers[l].num_slots());
        EXPECT_EQ(scalar_rngs[l].NextUint64(), lane_rngs[l].NextUint64());
      }
    }
  }
}

TEST(ProcessSwLanesDeathTest, RejectsMixedAlgorithms) {
  constexpr size_t kLanes = StreamPerturber::kLanes;
  std::vector<std::unique_ptr<StreamPerturber>> owned;
  StreamPerturber* lanes[kLanes] = {};
  Rng rng_pool[kLanes] = {Rng(1), Rng(2), Rng(3), Rng(4),
                          Rng(5), Rng(6), Rng(7), Rng(8)};
  Rng* rngs[kLanes] = {};
  for (size_t l = 0; l < kLanes; ++l) {
    auto p = CreatePerturber(
        l == 5 ? AlgorithmKind::kApp : AlgorithmKind::kCapp, {1.0, 10});
    ASSERT_TRUE(p.ok());
    owned.push_back(std::move(*p));
    lanes[l] = owned.back().get();
    rngs[l] = &rng_pool[l];
  }
  std::vector<double> in(kLanes, 0.5);
  std::vector<double> out(kLanes);
  EXPECT_DEATH(StreamPerturber::ProcessSwLanes(lanes, rngs, in, out),
               "CAPP_CHECK");
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
  auto per_report = ShardedCollector::Create({.num_shards = 4});
  auto run = ShardedCollector::Create({.num_shards = 4});
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
  // Per-user entries (dense order, last slot, report count) agree shard
  // by shard, and so do the exact aggregates.
  for (size_t shard = 0; shard < 4; ++shard) {
    auto a = per_report->ExportShardState(shard);
    auto b = run->ExportShardState(shard);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->users.size(), b->users.size());
    for (size_t u = 0; u < a->users.size(); ++u) {
      EXPECT_EQ(a->users[u].user_id, b->users[u].user_id);
      EXPECT_EQ(a->users[u].last_slot, b->users[u].last_slot);
      EXPECT_EQ(a->users[u].reports, b->users[u].reports);
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
  EXPECT_EQ(CollectorStateDigest(*per_report), CollectorStateDigest(*run));
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
  // Mixed run: finite values land, NaN slots stay empty.
  const double mixed[] = {kNaN, 0.25, kNaN, 0.75, kNaN};
  collector->IngestUserRun(7, 0, mixed);
  EXPECT_TRUE(collector->Contains(7));
  EXPECT_EQ(collector->report_count(), 2u);
  EXPECT_EQ(collector->SlotCount(7), 2u);
  // Slots 0..3: empty, 0.25, empty, 0.75 (the trailing NaN is beyond the
  // last finite slot, so the span stops at 4).
  const auto aggregates = collector->PopulationSlotAggregates();
  ASSERT_EQ(aggregates.size(), 4u);
  EXPECT_EQ(aggregates[0].Count(), 0u);
  EXPECT_EQ(aggregates[1].Count(), 1u);
  EXPECT_DOUBLE_EQ(aggregates[1].Mean(), 0.25);
  EXPECT_EQ(aggregates[2].Count(), 0u);
  EXPECT_EQ(aggregates[3].Count(), 1u);
  EXPECT_DOUBLE_EQ(aggregates[3].Mean(), 0.75);
  auto state = collector->ExportShardState(collector->ShardIndexOf(7));
  ASSERT_TRUE(state.ok());
  ASSERT_EQ(state->users.size(), 1u);
  EXPECT_EQ(state->users[0].last_slot, 3u);
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
  // SW algorithms take users in lane groups; 203 users in chunks of 13
  // leave a 5-user per-user tail in every chunk but the last (8 users).
  // At d = 1 the strategy is ignored: both must give the scalar digest.
  for (AlgorithmKind kind :
       {AlgorithmKind::kCapp, AlgorithmKind::kSwDirect, AlgorithmKind::kIpp,
        AlgorithmKind::kApp, AlgorithmKind::kBaSw}) {
    for (MultidimStrategy strategy :
         {MultidimStrategy::kBudgetSplit, MultidimStrategy::kSampleSplit}) {
      for (const auto& [users, chunk_size] :
           {std::pair<size_t, size_t>{200, 32}, {203, 13}}) {
        SCOPED_TRACE(AlgorithmKindName(kind));
        SCOPED_TRACE(MultidimStrategyName(strategy));
        SCOPED_TRACE(users);
        EngineConfig config;
        config.algorithm = kind;
        config.multidim_strategy = strategy;
        config.epsilon = 1.0;
        config.window = 10;
        config.num_users = users;
        config.num_slots = 30;
        config.chunk_size = chunk_size;
        config.seed = 2025;
        config.signal = SignalKind::kSinusoid;

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
  }
}

}  // namespace
}  // namespace capp
