// Microbenchmarks (google-benchmark): throughput of the LDP mechanisms and
// the stream perturbation algorithms (d = 1 and budget-split d = 4 lane
// groups), plus the EM estimator, SMA post-processing, the wire CRC32 and
// the sharded collector's ingest walk. These quantify
// the per-report cost a deployment pays on user devices
// (mechanisms/perturbers) and at the collector (ingest/EM/SMA).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algorithms/factory.h"
#include "analysis/streaming_analytics.h"
#include "core/rng.h"
#include "engine/sharded_collector.h"
#include "mechanisms/mechanism.h"
#include "mechanisms/sw_em.h"
#include "multidim/multidim_perturber.h"
#include "stream/smoothing.h"
#include "transport/wire_format.h"

namespace capp {
namespace {

void BM_MechanismPerturb(benchmark::State& state) {
  const auto kind = static_cast<MechanismKind>(state.range(0));
  auto mech = CreateMechanism(kind, 1.0);
  if (!mech.ok()) {
    state.SkipWithError("mechanism creation failed");
    return;
  }
  Rng rng(42);
  double v = 0.2;
  for (auto _ : state) {
    benchmark::DoNotOptimize((*mech)->Perturb(v, rng));
    v = v < 0.9 ? v + 0.01 : 0.1;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string(MechanismKindName(kind)));
}
BENCHMARK(BM_MechanismPerturb)
    ->Arg(static_cast<int>(MechanismKind::kSquareWave))
    ->Arg(static_cast<int>(MechanismKind::kLaplace))
    ->Arg(static_cast<int>(MechanismKind::kDuchiSr))
    ->Arg(static_cast<int>(MechanismKind::kPiecewise))
    ->Arg(static_cast<int>(MechanismKind::kHybrid));

void BM_PerturberProcessValue(benchmark::State& state) {
  const auto kind = static_cast<AlgorithmKind>(state.range(0));
  auto p = CreatePerturber(kind, {1.0, 10});
  if (!p.ok()) {
    state.SkipWithError("perturber creation failed");
    return;
  }
  Rng rng(43);
  double v = 0.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize((*p)->ProcessValue(v, rng));
    v = v < 0.9 ? v + 0.007 : 0.1;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string(AlgorithmKindName(kind)));
}
BENCHMARK(BM_PerturberProcessValue)
    ->Arg(static_cast<int>(AlgorithmKind::kSwDirect))
    ->Arg(static_cast<int>(AlgorithmKind::kIpp))
    ->Arg(static_cast<int>(AlgorithmKind::kApp))
    ->Arg(static_cast<int>(AlgorithmKind::kCapp))
    ->Arg(static_cast<int>(AlgorithmKind::kBaSw));

// The four algorithms whose every slot is one Square Wave draw: the ones
// ProcessChunk block-draws and ProcessSwLanes runs in lockstep.
void SwAlgorithmArgs(benchmark::internal::Benchmark* b) {
  for (AlgorithmKind kind : {AlgorithmKind::kSwDirect, AlgorithmKind::kIpp,
                             AlgorithmKind::kApp, AlgorithmKind::kCapp}) {
    b->Arg(static_cast<int>(kind));
  }
}

// One user's 100-slot stream per iteration through ProcessChunk, the
// per-user path of the fleet workers.
constexpr size_t kMicroSlots = 100;

void BM_PerturberChunk(benchmark::State& state) {
  const auto kind = static_cast<AlgorithmKind>(state.range(0));
  auto p = CreatePerturber(kind, {1.0, 10});
  if (!p.ok()) {
    state.SkipWithError("perturber creation failed");
    return;
  }
  Rng rng(46);
  std::vector<double> in(kMicroSlots);
  for (double& x : in) x = rng.UniformDouble();
  std::vector<double> out(kMicroSlots);
  for (auto _ : state) {
    (*p)->Reset();
    (*p)->ProcessChunk(in, out, rng);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kMicroSlots);
  state.SetLabel(std::string(AlgorithmKindName(kind)));
}
BENCHMARK(BM_PerturberChunk)->Apply(SwAlgorithmArgs);

// kLanes users' 100-slot streams per iteration through ProcessSwLanes, the
// grouped path of the fleet workers; items are reports, as above.
void BM_PerturberLanes(benchmark::State& state) {
  constexpr size_t kLanes = StreamPerturber::kLanes;
  const auto kind = static_cast<AlgorithmKind>(state.range(0));
  std::vector<std::unique_ptr<StreamPerturber>> owned;
  StreamPerturber* lanes[kLanes] = {};
  Rng rngs[kLanes] = {Rng(47), Rng(48), Rng(49), Rng(50),
                      Rng(51), Rng(52), Rng(53), Rng(54)};
  Rng* rng_ptrs[kLanes] = {};
  for (size_t l = 0; l < kLanes; ++l) {
    auto p = CreatePerturber(kind, {1.0, 10});
    if (!p.ok()) {
      state.SkipWithError("perturber creation failed");
      return;
    }
    owned.push_back(std::move(*p));
    lanes[l] = owned.back().get();
    rng_ptrs[l] = &rngs[l];
  }
  std::vector<double> in(kLanes * kMicroSlots);
  for (double& x : in) x = rngs[0].UniformDouble();
  std::vector<double> out(in.size());
  for (auto _ : state) {
    for (StreamPerturber* lane : lanes) lane->Reset();
    StreamPerturber::ProcessSwLanes(lanes, rng_ptrs, in, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * in.size());
  state.SetLabel(std::string(AlgorithmKindName(kind)));
}
BENCHMARK(BM_PerturberLanes)->Apply(SwAlgorithmArgs);

// A budget-split d = 4 CAPP user's 100-slot stream per iteration for
// each of kLanes / 4 users: one MultidimPerturber::PerturbStream call per
// user (arg 0), or the users as one PerturbLanes group (arg 1), the two
// paths of the fleet's d > 1 workers. Items are reports (cells).
void BM_MultidimLanes(benchmark::State& state) {
  constexpr size_t kDims = 4;
  constexpr size_t kUsers = StreamPerturber::kLanes / kDims;
  const bool grouped = state.range(0) != 0;
  std::vector<MultidimPerturber> group;
  for (size_t u = 0; u < kUsers; ++u) {
    auto created =
        MultidimPerturber::Create(kDims, MultidimStrategy::kBudgetSplit,
                                  {1.0, 10}, AlgorithmKind::kCapp);
    if (!created.ok()) {
      state.SkipWithError("multidim perturber creation failed");
      return;
    }
    group.push_back(std::move(*created));
  }
  Rng rng(56);
  std::vector<std::vector<double>> truths(kUsers);
  std::vector<std::vector<double>> out(
      kUsers, std::vector<double>(kDims * kMicroSlots));
  for (std::vector<double>& truth : truths) {
    truth.resize(kDims * kMicroSlots);
    for (double& x : truth) x = rng.UniformDouble();
  }
  const std::vector<std::span<const double>> truth_views(truths.begin(),
                                                         truths.end());
  const std::vector<std::span<double>> out_views(out.begin(), out.end());
  uint64_t seed = 0;
  for (auto _ : state) {
    for (MultidimPerturber& user : group) user.ResetForUser(++seed);
    if (grouped) {
      MultidimPerturber::PerturbLanes(group, truth_views, out_views);
    } else {
      for (size_t u = 0; u < kUsers; ++u) {
        group[u].PerturbStream(truths[u], kMicroSlots, out[u]);
      }
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kUsers * kDims * kMicroSlots);
  state.SetLabel(grouped ? "lanes d=4" : "per-user d=4");
}
BENCHMARK(BM_MultidimLanes)->Arg(0)->Arg(1);

// CRC32 of one buffer per iteration: the portable slice-by-8 path (arg 0)
// or Crc32, which folds with carry-less multiplies where the host has
// them (arg 1). 64 bytes is the shortest input the fold takes; 3212 is a
// d = 4, 100-slot wire frame. Items are bytes.
void BM_Crc32(benchmark::State& state) {
  const bool folded = state.range(0) != 0;
  const size_t bytes = static_cast<size_t>(state.range(1));
  Rng rng(57);
  std::vector<uint8_t> buffer(bytes);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.NextUint64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(folded ? Crc32(buffer)
                                    : internal::Crc32Slice8(buffer));
  }
  state.SetItemsProcessed(state.iterations() * bytes);
  state.SetLabel(folded ? "Crc32" : "slice-by-8");
}
BENCHMARK(BM_Crc32)->ArgsProduct({{0, 1}, {64, 3212}});

void BM_SmaSmoothing(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(44);
  std::vector<double> xs;
  xs.reserve(n);
  for (size_t i = 0; i < n; ++i) xs.push_back(rng.UniformDouble());
  for (auto _ : state) {
    auto out = SimpleMovingAverage(xs, 3);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SmaSmoothing)->Arg(1000)->Arg(100000);

void BM_SwEmEstimate(benchmark::State& state) {
  auto sw = SquareWave::Create(1.0);
  if (!sw.ok()) {
    state.SkipWithError("sw creation failed");
    return;
  }
  auto est = SwDistributionEstimator::Create(*sw);
  if (!est.ok()) {
    state.SkipWithError("estimator creation failed");
    return;
  }
  Rng rng(45);
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> outputs;
  outputs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    outputs.push_back(sw->Perturb(rng.UniformDouble(), rng));
  }
  for (auto _ : state) {
    auto hist = est->Estimate(outputs);
    benchmark::DoNotOptimize(hist);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SwEmEstimate)->Arg(1000)->Arg(10000);

// The sharded collector's ingest, one fleet-sized batch of
// kIngestBatchRuns 100-slot runs per iteration, either run by run
// (IngestUserRun) or as one IngestUserRuns batch. Args: batched (0/1) and
// dims -- d = 1 with no histograms, or d = 4 with the live_d4 pipeline
// workload's histogram geometry (epsilon 1, w = 10, budget split, 32
// buckets). The collector is pre-registered with kIngestUsers users, so
// the user index has a million-user footprint, and under Threads(2) two
// writers share its 16 shards in mutex mode, as the fleet's kDirect
// workers do. Items are reports.
constexpr size_t kIngestBatchRuns = 64;
constexpr uint64_t kIngestUsers = 1000000;
constexpr size_t kIngestRunPool = 256;

std::optional<ShardedCollector> g_ingest_collector;

void BM_CollectorIngest(benchmark::State& state) {
  const bool batched = state.range(0) != 0;
  const size_t dims = static_cast<size_t>(state.range(1));
  const size_t cells = dims * kMicroSlots;
  if (state.thread_index() == 0) {
    ShardedCollectorOptions options;
    options.dims = dims;
    if (dims > 1) {
      auto histogram = StreamingAnalyzer::CollectorHistogramOptions(
          1.0 / (static_cast<double>(dims) * 10), 32);
      if (!histogram.ok()) {
        state.SkipWithError("histogram options failed");
        return;
      }
      options.histogram = *histogram;
    }
    auto created = ShardedCollector::Create(options);
    if (!created.ok()) {
      state.SkipWithError("collector creation failed");
      return;
    }
    g_ingest_collector.emplace(std::move(*created));
    g_ingest_collector->ReserveUsers(kIngestUsers);
    const double one = 0.5;
    for (uint64_t user = 0; user < kIngestUsers; ++user) {
      g_ingest_collector->IngestUserRun(user, 0, {&one, 1});
    }
  }
  // The loop's start barrier orders every thread after the setup above.
  std::vector<double> pool(kIngestRunPool * cells);
  Rng rng(55 + static_cast<uint64_t>(state.thread_index()));
  for (double& x : pool) x = rng.UniformDouble();
  std::vector<UserRun> batch(kIngestBatchRuns);
  const auto threads = static_cast<uint64_t>(state.threads());
  uint64_t user = static_cast<uint64_t>(state.thread_index());
  size_t next_run = 0;
  for (auto _ : state) {
    for (UserRun& run : batch) {
      run.user_id = user;
      run.values = std::span<const double>(pool).subspan(next_run * cells,
                                                         cells);
      user = user + threads < kIngestUsers ? user + threads
                                           : user + threads - kIngestUsers;
      next_run = (next_run + 1) % kIngestRunPool;
    }
    ShardedCollector& collector = *g_ingest_collector;
    if (batched) {
      collector.IngestUserRuns(dims, batch);
    } else {
      for (const UserRun& run : batch) {
        collector.IngestUserRun(run.user_id, run.base_slot, dims, run.values);
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * kIngestBatchRuns * cells);
  state.SetLabel(std::string(batched ? "batched" : "per-run") +
                 " d=" + std::to_string(dims));
  if (state.thread_index() == 0) g_ingest_collector.reset();
}
BENCHMARK(BM_CollectorIngest)
    ->ArgsProduct({{0, 1}, {1, 4}})
    ->Threads(1)
    ->Threads(2)
    ->UseRealTime();

}  // namespace
}  // namespace capp

BENCHMARK_MAIN();
