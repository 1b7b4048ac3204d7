// Microbenchmarks (google-benchmark): throughput of the LDP mechanisms and
// the stream perturbation algorithms, plus the EM estimator and SMA
// post-processing. These quantify the per-report cost a deployment pays on
// user devices (mechanisms/perturbers) and at the collector (EM/SMA).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "algorithms/factory.h"
#include "core/rng.h"
#include "mechanisms/mechanism.h"
#include "mechanisms/sw_em.h"
#include "stream/smoothing.h"

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

}  // namespace
}  // namespace capp

BENCHMARK_MAIN();
