#include "mechanisms/square_wave.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "core/check.h"
#include "core/math_utils.h"

namespace capp {
namespace {

// Process-wide epsilon -> SwParams memo. Keyed by the exact bit pattern so
// the cache can never change results: a hit returns precisely what
// ComputeParams returned for that epsilon the first time.
struct SwParamsStore {
  std::shared_mutex mutex;
  std::unordered_map<uint64_t, SwParams> map;
};

SwParamsStore& GlobalSwParamsStore() {
  // Leaked intentionally: the cache must outlive any static perturber that
  // might consult it during program teardown.
  static SwParamsStore* store = new SwParamsStore;
  return *store;
}

// Small direct-mapped thread-local memo in front of the shared map. BA-SW
// alternates between a handful of banked budgets, so nearly every per-slot
// lookup resolves here without touching the shared mutex.
struct TlsSwParamsEntry {
  uint64_t key = 0;
  bool valid = false;
  SwParams params;
};
constexpr size_t kTlsSwParamsSlots = 8;

// Unbounded distinct epsilons (adversarial input) must not grow the shared
// map without limit; past this size new values are computed but no longer
// inserted.
constexpr size_t kMaxCachedParams = 1 << 16;

}  // namespace

std::optional<SwBatchPlan> PlanSwBatch(const Mechanism* mechanism) {
  const auto* sw = dynamic_cast<const SquareWave*>(mechanism);
  if (sw == nullptr) return std::nullopt;
  const double near_mass = SwNearBandMass(sw->params());
  if (!SwBatchable(near_mass)) return std::nullopt;
  return SwBatchPlan{sw->params(), near_mass, sw->epsilon()};
}

Result<SwParams> CachedSwParams(double epsilon) {
  thread_local TlsSwParamsEntry tls[kTlsSwParamsSlots];
  const uint64_t key = std::bit_cast<uint64_t>(epsilon);
  TlsSwParamsEntry& slot = tls[SplitMix64Mix(key) % kTlsSwParamsSlots];
  if (slot.valid && slot.key == key) return slot.params;

  SwParamsStore& store = GlobalSwParamsStore();
  {
    std::shared_lock lock(store.mutex);
    const auto it = store.map.find(key);
    if (it != store.map.end()) {
      slot = {key, true, it->second};
      return it->second;
    }
  }
  // Invalid epsilons are not cached: the error path is cold by definition.
  CAPP_ASSIGN_OR_RETURN(SwParams params, SquareWave::ComputeParams(epsilon));
  {
    std::unique_lock lock(store.mutex);
    if (store.map.size() < kMaxCachedParams) store.map.emplace(key, params);
  }
  slot = {key, true, params};
  return params;
}

Result<SwParams> SquareWave::ComputeParams(double epsilon) {
  CAPP_RETURN_IF_ERROR(ValidateEpsilon(epsilon));
  const double e = std::exp(epsilon);
  // b = (eps*e^eps - (e^eps - 1)) / (2 e^eps (e^eps - eps - 1)).
  // expm1 keeps both the numerator and denominator accurate for small eps
  // (each is Theta(eps^2); the raw expression suffers catastrophic
  // cancellation below eps ~ 1e-4).
  const double em1 = std::expm1(epsilon);
  const double num = epsilon * e - em1;
  const double den = 2.0 * e * (em1 - epsilon);
  SwParams out;
  out.b = num / den;
  CAPP_CHECK(out.b > 0.0 && out.b <= 0.5 + 1e-12);
  const double norm = 2.0 * out.b * e + 1.0;
  out.p = e / norm;
  out.q = 1.0 / norm;
  return out;
}

Result<SquareWave> SquareWave::Create(double epsilon) {
  CAPP_ASSIGN_OR_RETURN(SwParams params, ComputeParams(epsilon));
  return SquareWave(epsilon, params);
}

Result<SquareWave> SquareWave::CreateCached(double epsilon) {
  CAPP_ASSIGN_OR_RETURN(SwParams params, CachedSwParams(epsilon));
  return SquareWave(epsilon, params);
}

double SquareWave::Perturb(double v, Rng& rng) const {
  v = Clamp(v, 0.0, 1.0);
  const double b = params_.b;
  // Mass of the near band [v-b, v+b] is 2*b*p; the far region
  // [-b, v-b) U (v+b, 1+b] always has total width exactly 1.
  if (rng.Bernoulli(2.0 * b * params_.p)) {
    return rng.Uniform(v - b, v + b);
  }
  // Far region: left part [-b, v-b) has width v; right part (v+b, 1+b]
  // has width 1-v.
  const double t = rng.UniformDouble();  // in [0, 1)
  if (t < v) return -b + t;
  return v + b + (t - v);
}

double SquareWave::MeanSlope() const {
  return 2.0 * params_.b * (params_.p - params_.q);
}

double SquareWave::MeanIntercept() const {
  return params_.q * (1.0 + 2.0 * params_.b) / 2.0;
}

double SquareWave::OutputMean(double v) const {
  v = Clamp(v, 0.0, 1.0);
  return MeanSlope() * v + MeanIntercept();
}

double SquareWave::OutputVariance(double v) const {
  v = Clamp(v, 0.0, 1.0);
  const double b = params_.b;
  const double p = params_.p;
  const double q = params_.q;
  // E[y^2 | v] = (p-q) * Int_{v-b}^{v+b} y^2 dy + q * Int_{-b}^{1+b} y^2 dy.
  const double second = (p - q) * PowerIntegral(v - b, v + b, 2) +
                        q * PowerIntegral(-b, 1.0 + b, 2);
  const double mean = OutputMean(v);
  return second - mean * mean;
}

double SquareWave::UnbiasedEstimate(double y) const {
  const double alpha = MeanSlope();
  // As eps -> 0 the mean line flattens (alpha ~ eps/4) and the inversion
  // explodes; below this slope the estimate would be useless noise, so fall
  // back to the domain midpoint.
  if (alpha < 1e-4) return 0.5;
  return (y - MeanIntercept()) / alpha;
}

Result<PiecewiseConstantDensity> SquareWave::OutputDensity(double v) const {
  v = Clamp(v, 0.0, 1.0);
  const double b = params_.b;
  std::vector<DensitySegment> segs;
  segs.push_back({-b, v - b, params_.q});
  segs.push_back({v - b, v + b, params_.p});
  segs.push_back({v + b, 1.0 + b, params_.q});
  return PiecewiseConstantDensity::Create(std::move(segs));
}

}  // namespace capp
