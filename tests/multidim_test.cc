// Tests for the high-dimensional strategies: Budget-Split and Sample-Split
// (Section IV-C, Fig. 10), the MultidimPerturber engine adapter, and the
// engine-path equivalence contract -- a d-dimensional Fleet run must be an
// exact composition of the offline per-user oracle (same seeds, same
// strategies, same smoothing) with accuracy inside the fig10 tolerance.
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/factory.h"
#include "core/rng.h"
#include "data/datasets.h"
#include "engine/engine_config.h"
#include "engine/fleet.h"
#include "multidim/budget_split.h"
#include "multidim/multidim_perturber.h"
#include "multidim/sample_split.h"
#include "stream/accountant.h"
#include "stream/session.h"
#include "stream/smoothing.h"

namespace capp {
namespace {

TEST(BudgetSplitTest, RejectsZeroDimensions) {
  EXPECT_FALSE(BudgetSplitPerturber::Create(0, {1.0, 10}).ok());
}

TEST(BudgetSplitTest, NamesReflectInnerAlgorithm) {
  auto bs = BudgetSplitPerturber::Create(3, {1.0, 10}, AlgorithmKind::kApp);
  ASSERT_TRUE(bs.ok());
  EXPECT_EQ((*bs)->name(), "app-bs");
  EXPECT_EQ((*bs)->dimensions(), 3u);
}

TEST(BudgetSplitTest, OutputHasOneReportPerDimension) {
  auto bs = BudgetSplitPerturber::Create(4, {1.0, 10});
  ASSERT_TRUE(bs.ok());
  Rng rng(501);
  const std::vector<double> x = {0.1, 0.4, 0.6, 0.9};
  const auto y = (*bs)->ProcessVector(x, rng);
  EXPECT_EQ(y.size(), 4u);
}

TEST(BudgetSplitTest, LedgerSumsAcrossDimensions) {
  const size_t d = 5;
  const double eps = 1.0;
  const int w = 10;
  auto bs = BudgetSplitPerturber::Create(d, {eps, w}, AlgorithmKind::kCapp);
  ASSERT_TRUE(bs.ok());
  WEventAccountant ledger;
  (*bs)->AttachAccountant(&ledger);
  Rng rng(503);
  const std::vector<double> x(d, 0.5);
  for (int t = 0; t < 50; ++t) (*bs)->ProcessVector(x, rng);
  // Each slot spends d * eps/(d*w) = eps/w; any window spends exactly eps.
  EXPECT_TRUE(ledger.VerifyBudget(w, eps).ok())
      << ledger.MaxWindowSpend(w);
  EXPECT_NEAR(ledger.MaxWindowSpend(w), eps, 1e-9);
}

TEST(SampleSplitTest, OnlyActiveDimensionChanges) {
  const size_t d = 3;
  auto ss = SampleSplitPerturber::Create(d, {1.0, 10});
  ASSERT_TRUE(ss.ok());
  Rng rng(509);
  const std::vector<double> x = {0.2, 0.5, 0.8};
  auto prev = (*ss)->ProcessVector(x, rng);
  for (int t = 1; t < 12; ++t) {
    const auto cur = (*ss)->ProcessVector(x, rng);
    int changed = 0;
    for (size_t k = 0; k < d; ++k) {
      if (cur[k] != prev[k]) ++changed;
    }
    EXPECT_LE(changed, 1) << "slot " << t;
    prev = cur;
  }
}

TEST(SampleSplitTest, RoundRobinCoversAllDimensions) {
  const size_t d = 4;
  auto ss = SampleSplitPerturber::Create(d, {1.0, 10});
  ASSERT_TRUE(ss.ok());
  Rng rng(521);
  const std::vector<double> x = {0.2, 0.4, 0.6, 0.8};
  std::vector<double> first = (*ss)->ProcessVector(x, rng);
  std::vector<bool> updated(d, false);
  updated[0] = true;  // slot 0 updates dim 0
  auto prev = first;
  for (int t = 1; t < static_cast<int>(d); ++t) {
    const auto cur = (*ss)->ProcessVector(x, rng);
    for (size_t k = 0; k < d; ++k) {
      if (cur[k] != prev[k]) updated[k] = true;
    }
    prev = cur;
  }
  for (size_t k = 0; k < d; ++k) EXPECT_TRUE(updated[k]) << "dim " << k;
}

TEST(SampleSplitTest, LedgerSpendsEpsOverWPerSlot) {
  const size_t d = 4;
  const double eps = 2.0;
  const int w = 8;
  auto ss = SampleSplitPerturber::Create(d, {eps, w}, AlgorithmKind::kApp);
  ASSERT_TRUE(ss.ok());
  WEventAccountant ledger;
  (*ss)->AttachAccountant(&ledger);
  Rng rng(523);
  const std::vector<double> x(d, 0.5);
  for (int t = 0; t < 40; ++t) (*ss)->ProcessVector(x, rng);
  EXPECT_TRUE(ledger.VerifyBudget(w, eps).ok());
  EXPECT_NEAR(ledger.MaxWindowSpend(w), eps, 1e-9);
  EXPECT_NEAR(ledger.SlotSpend(0), eps / w, 1e-12);
}

TEST(SampleSplitTest, ResetRestartsRoundRobin) {
  auto ss = SampleSplitPerturber::Create(2, {1.0, 10});
  ASSERT_TRUE(ss.ok());
  Rng rng(541);
  const std::vector<double> x = {0.3, 0.7};
  (*ss)->ProcessVector(x, rng);
  (*ss)->Reset();
  WEventAccountant ledger;
  (*ss)->AttachAccountant(&ledger);
  (*ss)->ProcessVector(x, rng);
  EXPECT_GT(ledger.SlotSpend(0), 0.0);  // slot counter restarted at 0
}

// ------------------------------------- whole-stream path vs per-slot ----

std::unique_ptr<MultiDimPerturber> MakeStrategy(MultidimStrategy strategy,
                                                size_t dims,
                                                AlgorithmKind inner) {
  const PerturberOptions options{2.0, 10};
  if (strategy == MultidimStrategy::kBudgetSplit) {
    auto created = BudgetSplitPerturber::Create(dims, options, inner);
    EXPECT_TRUE(created.ok());
    return std::move(*created);
  }
  auto created = SampleSplitPerturber::Create(dims, options, inner);
  EXPECT_TRUE(created.ok());
  return std::move(*created);
}

// A dim-major stream in [-0.2, 1.2] with hostile cells sprinkled in:
// NaN, +-inf, signed zeros and far out-of-range values.
std::vector<double> MakeHostileStream(size_t dims, size_t slots,
                                      uint64_t seed) {
  const double kSpecials[] = {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity(),
                              -0.0, 0.0, 1.0, -3.0, 7.5};
  Rng rng(seed);
  std::vector<double> values(dims * slots);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = i % 7 == 3 ? kSpecials[(i / 7) % 8] : rng.Uniform(-0.2, 1.2);
  }
  return values;
}

// The per-slot reference: gathers each slot's d-vector, runs it through
// ProcessVector, and scatters the reports back dim-major.
std::vector<double> PerSlotReference(MultiDimPerturber& perturber,
                                     const std::vector<double>& truth,
                                     size_t slots, Rng& rng) {
  const size_t dims = perturber.dimensions();
  std::vector<double> out(dims * slots);
  std::vector<double> x(dims);
  for (size_t t = 0; t < slots; ++t) {
    for (size_t k = 0; k < dims; ++k) x[k] = truth[k * slots + t];
    const std::vector<double> y = perturber.ProcessVector(x, rng);
    for (size_t k = 0; k < dims; ++k) out[k * slots + t] = y[k];
  }
  return out;
}

void ExpectBitEqual(const std::vector<double>& actual,
                    const std::vector<double>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(actual[i]),
              std::bit_cast<uint64_t>(expected[i]))
        << "cell " << i;
  }
}

void ExpectSameLedger(const WEventAccountant& actual,
                      const WEventAccountant& expected) {
  ASSERT_EQ(actual.num_slots(), expected.num_slots());
  for (size_t t = 0; t < actual.num_slots(); ++t) {
    ASSERT_EQ(std::bit_cast<uint64_t>(actual.SlotSpend(t)),
              std::bit_cast<uint64_t>(expected.SlotSpend(t)))
        << "ledger slot " << t;
  }
}

TEST(MultidimBulkTest, SwInnersConsumeUniformsAndBaSwFallsBack) {
  // The bulk path is taken exactly for the SW chunk loops; BA-SW (extra
  // Laplace draws, SW at a banked budget on publishing slots only) has no
  // SW plan and keeps the per-slot path, which the bit-identity test below
  // covers as the fallback.
  for (AlgorithmKind kind : {AlgorithmKind::kSwDirect, AlgorithmKind::kIpp,
                             AlgorithmKind::kApp, AlgorithmKind::kCapp,
                             AlgorithmKind::kBaSw}) {
    auto p = CreatePerturber(kind, {2.0, 10});
    ASSERT_TRUE(p.ok());
    EXPECT_EQ((*p)->consumes_sw_uniforms(), kind != AlgorithmKind::kBaSw)
        << AlgorithmKindName(kind);
  }
  // Over a non-SW mechanism the same algorithms have no SW plan either.
  for (AlgorithmKind kind : {AlgorithmKind::kSwDirect, AlgorithmKind::kIpp,
                             AlgorithmKind::kApp}) {
    auto laplace = CreatePerturberWithMechanism(kind, {2.0, 10},
                                                MechanismKind::kLaplace);
    ASSERT_TRUE(laplace.ok());
    EXPECT_FALSE((*laplace)->consumes_sw_uniforms())
        << AlgorithmKindName(kind);
  }
}

TEST(MultidimBulkTest, PerturbStreamMatchesPerSlotReferenceBitForBit) {
  // Slot counts straddle the 128-slot uniform block; every stream is
  // followed by a 37-slot continuation (sample split then starts mid
  // round-robin) and a second user after Reset (pooled reuse). Reports,
  // the RNG's next draw, and the shared ledger must all match.
  for (MultidimStrategy strategy :
       {MultidimStrategy::kBudgetSplit, MultidimStrategy::kSampleSplit}) {
    for (AlgorithmKind inner : {AlgorithmKind::kSwDirect, AlgorithmKind::kIpp,
                                AlgorithmKind::kApp, AlgorithmKind::kCapp,
                                AlgorithmKind::kBaSw}) {
      for (size_t dims : {size_t{2}, size_t{3}, size_t{4}, size_t{10}}) {
        for (size_t slots : {size_t{1}, size_t{127}, size_t{128},
                             size_t{129}, size_t{300}}) {
          SCOPED_TRACE(testing::Message()
                       << MultidimStrategyName(strategy) << " "
                       << AlgorithmKindName(inner) << " d=" << dims
                       << " slots=" << slots);
          auto bulk = MakeStrategy(strategy, dims, inner);
          auto reference = MakeStrategy(strategy, dims, inner);
          WEventAccountant bulk_ledger;
          WEventAccountant reference_ledger;
          bulk->AttachAccountant(&bulk_ledger);
          reference->AttachAccountant(&reference_ledger);
          Rng bulk_rng(dims * 1000 + slots);
          Rng reference_rng(dims * 1000 + slots);
          for (int user = 0; user < 2; ++user) {
            if (user > 0) {
              bulk->Reset();
              reference->Reset();
            }
            for (size_t run : {slots, size_t{37}}) {
              const std::vector<double> truth =
                  MakeHostileStream(dims, run, 7 * run + user);
              std::vector<double> out(dims * run);
              bulk->PerturbStream(truth, run, out, bulk_rng);
              ExpectBitEqual(out, PerSlotReference(*reference, truth, run,
                                                   reference_rng));
              EXPECT_EQ(bulk_rng.NextUint64(), reference_rng.NextUint64());
            }
          }
          ExpectSameLedger(bulk_ledger, reference_ledger);
        }
      }
    }
  }
}

TEST(MultidimBulkTest, PooledAdapterMatchesPerSlotReferenceAcrossUsers) {
  // The engine adapter reseeds per user; one pooled instance must match a
  // fresh per-slot reference for every user in turn.
  const size_t dims = 4;
  const size_t slots = 100;
  for (MultidimStrategy strategy :
       {MultidimStrategy::kBudgetSplit, MultidimStrategy::kSampleSplit}) {
    SCOPED_TRACE(MultidimStrategyName(strategy));
    auto adapter = MultidimPerturber::Create(dims, strategy, {2.0, 10},
                                             AlgorithmKind::kCapp);
    ASSERT_TRUE(adapter.ok());
    auto reference = MakeStrategy(strategy, dims, AlgorithmKind::kCapp);
    std::vector<double> out;
    for (uint64_t user = 0; user < 5; ++user) {
      const std::vector<double> truth = MakeHostileStream(dims, slots, user);
      adapter->ResetForUser(9000 + user);
      adapter->PerturbStream(truth, slots, out);
      reference->Reset();
      Rng reference_rng(9000 + user);
      ExpectBitEqual(out,
                     PerSlotReference(*reference, truth, slots, reference_rng));
    }
  }
}

// ------------------------------------------------ budget-split lanes ----

const AlgorithmKind kSwInners[] = {AlgorithmKind::kSwDirect,
                                   AlgorithmKind::kIpp, AlgorithmKind::kApp,
                                   AlgorithmKind::kCapp};

// 8 / d budget-split users as one ProcessSwLanes group, lane u*d + k being
// user u's inner k (at d = 1, eight users of one lane each), against each
// user's own PerturbStream: the reports,
// each user's next draw, every inner's slot counter and one ledger shared
// by all of them. Each stream is followed by a 37-slot continuation, so
// the lanes must also have stored each inner's feedback state back.
TEST(MultidimLaneTest, LaneGroupMatchesPerUserPerturbStream) {
  constexpr size_t kLanes = StreamPerturber::kLanes;
  const PerturberOptions options{2.0, 10};
  for (AlgorithmKind inner : kSwInners) {
    for (size_t dims : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      for (size_t slots : {size_t{1}, size_t{127}, size_t{128}, size_t{129},
                           size_t{300}}) {
        SCOPED_TRACE(testing::Message() << AlgorithmKindName(inner)
                                        << " d=" << dims
                                        << " slots=" << slots);
        const size_t users = kLanes / dims;
        std::vector<std::unique_ptr<BudgetSplitPerturber>> per_user;
        std::vector<std::unique_ptr<BudgetSplitPerturber>> laned;
        WEventAccountant per_user_ledger;
        WEventAccountant lane_ledger;
        std::vector<Rng> per_user_rngs;
        std::vector<Rng> lane_rngs;
        for (size_t u = 0; u < users; ++u) {
          auto a = BudgetSplitPerturber::Create(dims, options, inner);
          auto b = BudgetSplitPerturber::Create(dims, options, inner);
          ASSERT_TRUE(a.ok() && b.ok());
          per_user.push_back(std::move(*a));
          laned.push_back(std::move(*b));
          per_user.back()->AttachAccountant(&per_user_ledger);
          laned.back()->AttachAccountant(&lane_ledger);
          per_user_rngs.emplace_back(500 + 31 * u + slots);
          lane_rngs.emplace_back(500 + 31 * u + slots);
        }
        std::vector<BudgetSplitPerturber*> group;
        std::vector<Rng*> rngs;
        for (size_t u = 0; u < users; ++u) {
          group.push_back(laned[u].get());
          rngs.push_back(&lane_rngs[u]);
        }
        for (size_t run : {slots, size_t{37}}) {
          std::vector<std::vector<double>> truths;
          std::vector<std::vector<double>> expected;
          std::vector<std::vector<double>> got;
          for (size_t u = 0; u < users; ++u) {
            truths.push_back(MakeHostileStream(dims, run, 13 * run + u));
            expected.emplace_back(dims * run);
            got.emplace_back(dims * run);
            per_user[u]->PerturbStream(truths[u], run, expected[u],
                                       per_user_rngs[u]);
          }
          const std::vector<std::span<const double>> in(truths.begin(),
                                                        truths.end());
          const std::vector<std::span<double>> out(got.begin(), got.end());
          BudgetSplitPerturber::PerturbLanes(group, rngs, in, out);
          for (size_t u = 0; u < users; ++u) {
            SCOPED_TRACE(u);
            ExpectBitEqual(got[u], expected[u]);
          }
        }
        for (size_t u = 0; u < users; ++u) {
          EXPECT_EQ(lane_rngs[u].NextUint64(), per_user_rngs[u].NextUint64());
          for (size_t k = 0; k < dims; ++k) {
            EXPECT_EQ(laned[u]->inner(k).slots_processed(),
                      per_user[u]->inner(k).slots_processed());
          }
        }
        ExpectSameLedger(lane_ledger, per_user_ledger);
      }
    }
  }
}

TEST(MultidimLaneTest, AdapterLanesOnlyForBudgetSplitSwInnersAndDDividing8) {
  auto supports = [](size_t dims, MultidimStrategy strategy,
                     AlgorithmKind inner) {
    auto adapter = MultidimPerturber::Create(dims, strategy, {1.0, 10}, inner);
    EXPECT_TRUE(adapter.ok());
    return adapter->supports_lanes();
  };
  for (AlgorithmKind inner : kSwInners) {
    for (size_t dims : {size_t{2}, size_t{4}, size_t{8}}) {
      EXPECT_TRUE(supports(dims, MultidimStrategy::kBudgetSplit, inner));
      EXPECT_FALSE(supports(dims, MultidimStrategy::kSampleSplit, inner));
    }
    // d = 1 is budget split whatever the strategy: eight users a group.
    EXPECT_TRUE(supports(1, MultidimStrategy::kBudgetSplit, inner));
    EXPECT_TRUE(supports(1, MultidimStrategy::kSampleSplit, inner));
    for (size_t dims : {size_t{3}, size_t{5}, size_t{16}}) {
      EXPECT_FALSE(supports(dims, MultidimStrategy::kBudgetSplit, inner));
    }
  }
  EXPECT_FALSE(
      supports(4, MultidimStrategy::kBudgetSplit, AlgorithmKind::kBaSw));
}

// The engine adapter's group call against its per-user call, over two
// pooled users per adapter (ResetForUser between them): reports and each
// user's ledger.
TEST(MultidimLaneTest, PerturbLanesMatchesPerturbStream) {
  constexpr size_t kLanes = StreamPerturber::kLanes;
  const size_t slots = 100;
  for (size_t dims : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    SCOPED_TRACE(dims);
    const size_t users = kLanes / dims;
    auto make = [&] {
      auto created =
          MultidimPerturber::Create(dims, MultidimStrategy::kBudgetSplit,
                                    {1.0, 10}, AlgorithmKind::kCapp);
      EXPECT_TRUE(created.ok());
      return std::move(*created);
    };
    std::vector<MultidimPerturber> group;
    for (size_t u = 0; u < users; ++u) group.push_back(make());
    MultidimPerturber per_user = make();
    for (uint64_t round = 0; round < 2; ++round) {
      std::vector<std::vector<double>> truths;
      std::vector<std::vector<double>> out(users,
                                           std::vector<double>(dims * slots));
      for (size_t u = 0; u < users; ++u) {
        truths.push_back(MakeHostileStream(dims, slots, 40 * round + u));
        group[u].ResetForUser(7000 + 10 * round + u);
      }
      MultidimPerturber::PerturbLanes(
          group, std::vector<std::span<const double>>(truths.begin(),
                                                      truths.end()),
          std::vector<std::span<double>>(out.begin(), out.end()));
      std::vector<double> expected;
      for (size_t u = 0; u < users; ++u) {
        SCOPED_TRACE(u);
        per_user.ResetForUser(7000 + 10 * round + u);
        per_user.PerturbStream(truths[u], slots, expected);
        ExpectBitEqual(out[u], expected);
        EXPECT_EQ(group[u].ledger().num_slots(), slots);
        ExpectSameLedger(group[u].ledger(), per_user.ledger());
      }
    }
  }
}

// ------------------------------------------- engine adapter + equivalence ----

TEST(MultidimPerturberTest, RefusesZeroDimsAndOfflineInnersAcceptsOneDim) {
  EXPECT_FALSE(MultidimPerturber::Create(0, MultidimStrategy::kBudgetSplit,
                                         {1.0, 10}, AlgorithmKind::kCapp)
                   .ok());
  // Sampling inners perturb whole subsequences, so no strategy can run
  // them slot by slot: a typed refusal at every d.
  for (AlgorithmKind inner : {AlgorithmKind::kSampling, AlgorithmKind::kAppS,
                              AlgorithmKind::kCappS}) {
    for (MultidimStrategy strategy :
         {MultidimStrategy::kBudgetSplit, MultidimStrategy::kSampleSplit}) {
      for (size_t dims : {size_t{1}, size_t{3}}) {
        const auto refused =
            MultidimPerturber::Create(dims, strategy, {1.0, 10}, inner);
        ASSERT_FALSE(refused.ok());
        EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
      }
    }
  }
  // d = 1 is the engine's one-dimensional device: budget split over one
  // inner, whatever strategy is named.
  for (MultidimStrategy strategy :
       {MultidimStrategy::kBudgetSplit, MultidimStrategy::kSampleSplit}) {
    auto one = MultidimPerturber::Create(1, strategy, {1.0, 10},
                                         AlgorithmKind::kCapp);
    ASSERT_TRUE(one.ok());
    EXPECT_EQ(one->dimensions(), 1u);
    EXPECT_EQ(one->name(), "capp-bs");
  }
}

// At d = 1 the device is the scalar algorithm at the full budget: the same
// reports and ledger as a UserSession, for every online algorithm, on
// finite inputs (where UserSession's clamp and the device's
// SanitizeUnitValue agree).
TEST(MultidimPerturberTest, OneDimensionMatchesUserSession) {
  const size_t slots = 150;
  for (AlgorithmKind kind : {AlgorithmKind::kSwDirect, AlgorithmKind::kIpp,
                             AlgorithmKind::kApp, AlgorithmKind::kCapp,
                             AlgorithmKind::kBaSw}) {
    for (MultidimStrategy strategy :
         {MultidimStrategy::kBudgetSplit, MultidimStrategy::kSampleSplit}) {
      SCOPED_TRACE(testing::Message() << AlgorithmKindName(kind) << " "
                                      << MultidimStrategyName(strategy));
      auto device = MultidimPerturber::Create(1, strategy, {1.0, 10}, kind);
      ASSERT_TRUE(device.ok());
      EXPECT_EQ(device->supports_lanes(), kind != AlgorithmKind::kBaSw);
      std::vector<double> out;
      for (uint64_t user = 0; user < 2; ++user) {
        Rng input_rng(60 + user);
        std::vector<double> truth(slots);
        for (double& x : truth) x = input_rng.Uniform(-0.2, 1.2);
        auto session = UserSession::Create(user, kind, {1.0, 10}, 800 + user);
        ASSERT_TRUE(session.ok());
        std::vector<double> expected(slots);
        session->ReportChunk(truth, expected);
        device->ResetForUser(800 + user);
        device->PerturbStream(truth, slots, out);
        ExpectBitEqual(out, expected);
        EXPECT_EQ(device->ledger().MaxWindowSpend(10),
                  session->MaxWindowSpend());
      }
    }
  }
}

TEST(MultidimPerturberTest, StrategyNamesRoundTrip) {
  for (MultidimStrategy strategy :
       {MultidimStrategy::kBudgetSplit, MultidimStrategy::kSampleSplit}) {
    auto parsed = ParseMultidimStrategy(MultidimStrategyName(strategy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, strategy);
  }
  EXPECT_FALSE(ParseMultidimStrategy("round-robin").ok());
}

TEST(MultidimPerturberTest, PerturbStreamIsSeedDeterministic) {
  auto perturber = MultidimPerturber::Create(
      3, MultidimStrategy::kSampleSplit, {1.0, 10}, AlgorithmKind::kCapp);
  ASSERT_TRUE(perturber.ok());
  const size_t slots = 16;
  std::vector<double> truth(3 * slots, 0.5);
  for (size_t i = 0; i < truth.size(); ++i) {
    truth[i] = 0.25 + 0.5 * static_cast<double>(i % slots) / slots;
  }
  std::vector<double> first;
  std::vector<double> second;
  perturber->ResetForUser(991);
  perturber->PerturbStream(truth, slots, first);
  ASSERT_EQ(first.size(), truth.size());
  perturber->ResetForUser(991);
  perturber->PerturbStream(truth, slots, second);
  EXPECT_EQ(first, second);
  // A different seed draws a different stream.
  perturber->ResetForUser(992);
  perturber->PerturbStream(truth, slots, second);
  EXPECT_NE(first, second);
}

// Offline oracle for one d-dimensional fleet: replays every user with the
// same seeds, strategies, and per-dimension smoothing the engine uses,
// from public surfaces only (GenerateUserSignalMultiInto,
// MultidimPerturber, SimpleMovingAverage). Returns per-cell population
// means of truth and published streams, dim-major.
struct MultidimOracle {
  std::vector<double> true_mean;
  std::vector<double> published_mean;
};

MultidimOracle RunOracle(const EngineConfig& config, int smoothing) {
  const size_t slots = config.num_slots;
  const size_t cells = config.dims * slots;
  MultidimOracle oracle;
  oracle.true_mean.assign(cells, 0.0);
  std::vector<double> report_mean(cells, 0.0);
  auto perturber = MultidimPerturber::Create(
      config.dims, config.multidim_strategy,
      {config.epsilon, config.window}, config.algorithm);
  EXPECT_TRUE(perturber.ok());
  std::vector<double> truth;
  std::vector<double> reports;
  for (uint64_t uid = 0; uid < config.num_users; ++uid) {
    Rng signal_rng(UserStreamSeed(config.seed, uid, 0));
    GenerateUserSignalMultiInto(config.signal, config.dims, slots,
                                signal_rng, truth);
    perturber->ResetForUser(UserStreamSeed(config.seed, uid, 1));
    perturber->PerturbStream(truth, slots, reports);
    for (size_t c = 0; c < cells; ++c) {
      oracle.true_mean[c] += truth[c];
      report_mean[c] += reports[c];
    }
  }
  const double inv = 1.0 / static_cast<double>(config.num_users);
  oracle.published_mean.resize(cells);
  for (size_t c = 0; c < cells; ++c) {
    oracle.true_mean[c] *= inv;
    report_mean[c] *= inv;
  }
  // The collector-side smoothing is per attribute over its own slots.
  for (size_t k = 0; k < config.dims; ++k) {
    const std::vector<double> row(
        report_mean.begin() + static_cast<ptrdiff_t>(k * slots),
        report_mean.begin() + static_cast<ptrdiff_t>((k + 1) * slots));
    auto smoothed = SimpleMovingAverage(row, smoothing);
    EXPECT_TRUE(smoothed.ok());
    std::copy(smoothed->begin(), smoothed->end(),
              oracle.published_mean.begin() +
                  static_cast<ptrdiff_t>(k * slots));
  }
  return oracle;
}

// The engine-path equivalence contract at 10k users: the Fleet's
// published per-attribute series must reproduce the offline oracle
// exactly (the engine adds transport and sharding, never arithmetic),
// and every attribute's MSE against truth must sit inside the pinned
// fig10-scale tolerance for eps=1, w=10 sinusoids.
TEST(MultidimEngineTest, FleetMatchesOfflineOraclePerAttribute) {
  // The chunk reduction averages in a fixed order, so the oracle's
  // single-pass mean only matches bit-for-bit when one chunk covers a
  // whole attribute row -- hence exact-sum comparison via tolerance 0 on
  // the published series is replaced by a tight epsilon on means and an
  // exact check on the engine's own reported per-dim errors.
  constexpr double kMeanTolerance = 1e-12;
  constexpr double kPinnedMseTolerance = 0.03;  // fig10 scale at eps=1
  for (MultidimStrategy strategy :
       {MultidimStrategy::kBudgetSplit, MultidimStrategy::kSampleSplit}) {
    SCOPED_TRACE(MultidimStrategyName(strategy));
    EngineConfig config;
    config.algorithm = AlgorithmKind::kCapp;
    config.signal = SignalKind::kSinusoid;
    config.epsilon = 1.0;
    config.window = 10;
    config.num_users = 10000;
    config.num_slots = 24;
    config.seed = 77;
    config.dims = 4;
    config.multidim_strategy = strategy;
    config.smoothing_window = 3;  // pinned so the oracle smooths alike
    auto fleet = Fleet::Create(config);
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
    auto stats = fleet->Run();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_EQ(stats->dims, config.dims);
    const size_t cells = config.dims * config.num_slots;
    ASSERT_EQ(stats->true_slot_means.size(), cells);
    ASSERT_EQ(stats->published_slot_means.size(), cells);
    ASSERT_EQ(stats->per_dim_mse.size(), config.dims);

    const MultidimOracle oracle = RunOracle(config, config.smoothing_window);
    for (size_t c = 0; c < cells; ++c) {
      EXPECT_NEAR(stats->true_slot_means[c], oracle.true_mean[c],
                  kMeanTolerance)
          << "cell " << c;
      EXPECT_NEAR(stats->published_slot_means[c], oracle.published_mean[c],
                  kMeanTolerance)
          << "cell " << c;
    }
    for (size_t k = 0; k < config.dims; ++k) {
      SCOPED_TRACE(k);
      // Recompute attribute k's MSE from the oracle series and pin the
      // engine's reported number to it.
      double mse = 0.0;
      for (size_t t = 0; t < config.num_slots; ++t) {
        const size_t c = k * config.num_slots + t;
        const double err =
            oracle.published_mean[c] - oracle.true_mean[c];
        mse += err * err;
      }
      mse /= static_cast<double>(config.num_slots);
      EXPECT_NEAR(stats->per_dim_mse[k], mse, kMeanTolerance);
      EXPECT_GT(stats->per_dim_mse[k], 0.0);
      EXPECT_LT(stats->per_dim_mse[k], kPinnedMseTolerance);
    }
  }
}

// d-dimensional synthesis invariants: the d = 1 slice of the correlated
// sinusoid path is bit-identical to the scalar generator (same draws in
// the same order), and d > 1 attributes are distinct but share the
// user's phase.
TEST(MultidimEngineTest, MultiSignalD1SliceMatchesScalarGenerator) {
  const size_t slots = 48;
  for (SignalKind kind : {SignalKind::kSinusoid, SignalKind::kPiecewise,
                          SignalKind::kRandomWalk}) {
    SCOPED_TRACE(static_cast<int>(kind));
    Rng scalar_rng(4242);
    std::vector<double> scalar;
    GenerateUserSignalInto(kind, slots, scalar_rng, scalar);
    Rng multi_rng(4242);
    std::vector<double> multi;
    GenerateUserSignalMultiInto(kind, 1, slots, multi_rng, multi);
    ASSERT_EQ(multi.size(), scalar.size());
    for (size_t t = 0; t < slots; ++t) {
      EXPECT_EQ(std::bit_cast<uint64_t>(multi[t]),
                std::bit_cast<uint64_t>(scalar[t]))
          << "slot " << t;
    }
  }
  // d = 3 sinusoid: dims differ (phase-shifted) but stay in range.
  Rng rng(4242);
  std::vector<double> dims3;
  GenerateUserSignalMultiInto(SignalKind::kSinusoid, 3, slots, rng, dims3);
  ASSERT_EQ(dims3.size(), 3 * slots);
  const std::vector<double> d0(dims3.begin(), dims3.begin() + slots);
  const std::vector<double> d1(dims3.begin() + slots,
                               dims3.begin() + 2 * slots);
  EXPECT_NE(d0, d1);
  for (double v : dims3) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(MultiDimSinusoidTest, ShapeAndRange) {
  const auto dims = MultiDimSinusoid(5, 200);
  ASSERT_EQ(dims.size(), 5u);
  for (const auto& dim : dims) {
    ASSERT_EQ(dim.size(), 200u);
    for (double v : dim) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
  // Distinct frequencies -> dimensions differ.
  EXPECT_NE(dims[0], dims[1]);
}

}  // namespace
}  // namespace capp
