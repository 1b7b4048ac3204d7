// Square Wave (SW) mechanism of Li et al., SIGMOD 2020 ("Estimating
// Numerical Distributions under Local Differential Privacy").
//
// Input v in [0,1]; output y in [-b, 1+b] with density
//     f(y | v) = p   if |y - v| <= b,
//                q   otherwise,
// where
//     b = (eps*e^eps - e^eps + 1) / (2 e^eps (e^eps - eps - 1)),
//     p = e^eps / (2 b e^eps + 1),   q = 1 / (2 b e^eps + 1).
// p/q = e^eps exactly, so SW satisfies pure eps-LDP. The paper under
// reproduction (Du et al., ICDE 2025) uses SW as its primary perturbation
// primitive: its bounded output range (-1/2, 3/2) in the eps->0 limit is
// what makes the deviation-feedback calibration effective.
#ifndef CAPP_MECHANISMS_SQUARE_WAVE_H_
#define CAPP_MECHANISMS_SQUARE_WAVE_H_

#include <cstddef>
#include <cstring>
#include <optional>
#include <span>
#include <string_view>
#include <type_traits>

#include "core/math_utils.h"
#include "core/piecewise_density.h"
#include "core/rng.h"
#include "core/status.h"
#include "mechanisms/mechanism.h"

namespace capp {

/// Derived SW parameters for a given budget.
struct SwParams {
  double b = 0.0;  ///< Half-width of the high-probability ("near") band.
  double p = 0.0;  ///< Density inside the near band.
  double q = 0.0;  ///< Density outside the near band.
};

/// Memoized SquareWave::ComputeParams: the exp/expm1 derivation runs once
/// per distinct epsilon bit pattern and is then served from a process-wide
/// cache (thread-safe; a small thread-local memo makes repeat lookups
/// lock-free). BA-SW re-derives SW at its banked budget on every published
/// slot, which made the transcendentals a per-slot cost before this cache.
Result<SwParams> CachedSwParams(double epsilon);

/// Probability mass of the near band [v-b, v+b], written with the exact
/// expression the scalar sampler feeds to Rng::Bernoulli so batched callers
/// reproduce its rounding.
inline double SwNearBandMass(const SwParams& params) {
  return 2.0 * params.b * params.p;
}

namespace internal {

/// Two doubles in one vector register (GCC/Clang vector extension; an
/// SSE2 xmm register on x86-64): the value type of the lane-interleaved
/// SW loops, one user's stream per element. Arithmetic is elementwise
/// IEEE double, exactly the scalar operations; a scalar operand is
/// broadcast to both elements.
using SwLanePair = double __attribute__((vector_size(16)));
/// The elementwise comparison result of two SwLanePairs: all-ones or zero.
using SwLaneMask = decltype(SwLanePair{} < SwLanePair{});

/// x as a V: itself for double, both elements for SwLanePair (no
/// arithmetic, so -0.0 stays -0.0).
template <typename V>
inline V Splat(double x) {
  if constexpr (std::is_same_v<V, double>) {
    return x;
  } else {
    return V{x, x};
  }
}

/// `a < b ? if_true : if_false` per element: a bitwise select on the
/// comparison's mask (cmpltpd + and/andn/or), so the lanes never branch
/// on the data.
inline SwLanePair SelectLess(SwLanePair a, SwLanePair b, SwLanePair if_true,
                             SwLanePair if_false) {
  const SwLaneMask mask = a < b;
  return mask ? if_true : if_false;
}
/// The scalar select stays a plain ternary, which GCC 12 compiles to a
/// jump taken about half the time. A bitwise select (the lane form on
/// element 0) halved sw-direct's ProcessChunk cost but slowed CAPP's,
/// which every benchmark workload runs (BM_PerturberChunk ~14.5 -> 16-20
/// ns/report, budget split d = 4 ~16 -> ~21): a predicted branch keeps
/// the select off the feedback chain.
inline double SelectLess(double a, double b, double if_true,
                         double if_false) {
  return a < b ? if_true : if_false;
}

}  // namespace internal

/// Clamp (core/math_utils.h) per element, with its exact semantics: the
/// bound wins only on a strict comparison, so NaN and a -0.0 against a
/// 0.0 bound pass through unchanged. No branch.
inline internal::SwLanePair Clamp(internal::SwLanePair x, double lo,
                                  double hi) {
  const auto vlo = internal::Splat<internal::SwLanePair>(lo);
  const auto vhi = internal::Splat<internal::SwLanePair>(hi);
  x = x < vlo ? vlo : x;
  return x > vhi ? vhi : x;
}

/// Samples one SW output from input v (caller-guaranteed to already lie in
/// [0, 1], making Perturb's defensive clamp the identity) and two uniform
/// draws. `near_mass` must be SwNearBandMass(params) and must lie strictly
/// inside (0, 1) -- callers check once per batch (see SwBatchable).
/// Consumes u1 for the band choice and u2 for the position, matching
/// SquareWave::Perturb's draw order and arithmetic bit for bit. V is
/// double (one stream) or internal::SwLanePair (two streams, one per
/// element); both instantiations run the same operations in the same
/// order, and internal::SelectLess picks between the same two values.
template <typename V>
inline V SwSampleFromUniforms(const SwParams& params, double near_mass, V v,
                              V u1, V u2) {
  const V lo = v - params.b;
  const V hi = v + params.b;
  // Near band: Uniform(lo, hi) = lo + (hi - lo) * u2.
  const V near_val = lo + (hi - lo) * u2;
  // Far region: left part [-b, v-b) has width v, right part (v+b, 1+b]
  // has width 1-v; total width exactly 1, addressed directly by u2.
  const V far_val =
      internal::SelectLess(u2, v, -params.b + u2, hi + (u2 - v));
  return internal::SelectLess(u1, internal::Splat<V>(near_mass), near_val,
                              far_val);
}

/// True when the batched two-uniform sampler is exact for these params:
/// Rng::Bernoulli(p) consumes a draw only for p strictly inside (0, 1), so
/// a near-band mass rounding onto the boundary would desynchronize the
/// draw streams. Mathematically 0 < 2bp < 1 always; this guards the
/// pathological rounding case.
inline bool SwBatchable(double near_mass) {
  return near_mass > 0.0 && near_mass < 1.0;
}

/// The once-per-chunk setup shared by every algorithm with an SW batch
/// fast path: the sampler parameters, the precomputed near-band mass and
/// the budget each draw spends (the mechanism's epsilon).
struct SwBatchPlan {
  SwParams params;
  double near_mass = 0.0;
  double epsilon = 0.0;
};

/// Returns the batch plan when `mechanism` is a SquareWave whose
/// parameters admit the exact two-uniform block sampler (see SwBatchable),
/// nullopt otherwise -- in which case callers must take their scalar
/// fallback. Centralizing the guard keeps the batchability condition from
/// drifting between the algorithms that share it.
std::optional<SwBatchPlan> PlanSwBatch(const Mechanism* mechanism);

namespace internal {

/// Slots per uniform block: 128 slots -> a 2 KiB block of uniform pairs,
/// resident in L1 next to the chunk's inputs and outputs.
inline constexpr size_t kSwBlockSlots = 128;

/// The SW slot loop shared by the direct/IPP/APP/CAPP chunk bodies: runs
/// out[i] = sample(in[i], uniforms[i * stride], uniforms[i * stride + 1])
/// strictly in slot order, so feedback state may be carried between calls.
/// The uniforms are a caller-drawn view: stride 2 for a block drawn for
/// this stream alone (StreamPerturber::ProcessChunk), stride 2d when d
/// streams interleave their pairs in one block (multidim/budget_split.h).
template <typename Sample>
void ForEachSwSlot(std::span<const double> in, std::span<double> out,
                   const double* uniforms, size_t stride, Sample&& sample) {
  for (size_t i = 0; i < in.size(); ++i) {
    out[i] = sample(in[i], uniforms[i * stride], uniforms[i * stride + 1]);
  }
}

/// Streams per lane-interleaved group: four SwLanePairs, so one step runs
/// four independent feedback chains and they overlap their latency.
inline constexpr size_t kSwLanes = 8;

/// The lane-interleaved SW slot loop shared by the direct/IPP/APP/CAPP
/// lane bodies (StreamPerturber::DoProcessSwLanes): `in` and `out` hold
/// `count` slots of kSwLanes streams laid out [slot][lane]. Each run of
/// `lanes_per_rng` (d, dividing kSwLanes) consecutive lanes shares one
/// block of 2 * d * kSwBlockSlots uniforms, drawn slot-major: lane l = u *
/// d + k takes pair t * d + k of block u for slot t, so d = 1 is one lane
/// per block and d > 1 is one user's d budget-split dimensions
/// (multidim/budget_split.h). For each slot t in order and each lane pair
/// p, runs out[t][2p, 2p+1] = step(p, in[t][2p, 2p+1], u1, u2), with u1
/// and u2 from pair t of lanes 2p and 2p+1. The pairs of one slot are
/// independent.
template <typename Step>
void ForEachSwLaneSlot(const double* in, double* out, const double* uniforms,
                       size_t lanes_per_rng, size_t count, Step&& step) {
  const size_t d = lanes_per_rng;
  // Pair t of lane 2p sits at first[p] + t * 2d and lane 2p + 1's right
  // after it (same block, next dimension) or, at d = 1, one block on.
  const size_t next_lane = d == 1 ? 2 * kSwBlockSlots : 2;
  const double* first[kSwLanes / 2];
  for (size_t p = 0; p < kSwLanes / 2; ++p) {
    const size_t k = (2 * p) % d;
    first[p] = uniforms + 2 * ((2 * p - k) * kSwBlockSlots + k);
  }
  for (size_t t = 0; t < count; ++t) {
    for (size_t p = 0; p < kSwLanes / 2; ++p) {
      const double* a = first[p] + 2 * d * t;
      const double* b = a + next_lane;
      SwLanePair x{};
      std::memcpy(&x, in + t * kSwLanes + 2 * p, sizeof x);
      const SwLanePair report =
          step(p, x, SwLanePair{a[0], b[0]}, SwLanePair{a[1], b[1]});
      std::memcpy(out + t * kSwLanes + 2 * p, &report, sizeof report);
    }
  }
}

}  // namespace internal

/// The Square Wave mechanism.
class SquareWave final : public Mechanism {
 public:
  /// Computes (b, p, q) for the budget; fails for invalid epsilon.
  static Result<SwParams> ComputeParams(double epsilon);

  /// Builds an SW mechanism; fails for invalid epsilon.
  static Result<SquareWave> Create(double epsilon);

  /// Create() through the CachedSwParams memo: identical result, but the
  /// transcendental parameter derivation is amortized across calls. Use on
  /// per-slot paths (BA-SW banked budgets, bound selectors).
  static Result<SquareWave> CreateCached(double epsilon);

  std::string_view name() const override { return "sw"; }
  double input_lo() const override { return 0.0; }
  double input_hi() const override { return 1.0; }
  double output_lo() const override { return -params_.b; }
  double output_hi() const override { return 1.0 + params_.b; }

  const SwParams& params() const { return params_; }

  double Perturb(double v, Rng& rng) const override;

  /// Inverts the output-mean line E[y|v] = alpha*v + beta. Degenerates as
  /// eps -> 0 (alpha -> 0); then returns the domain midpoint 0.5.
  double UnbiasedEstimate(double y) const override;

  /// E[y|v] = 2b(p-q) v + q(1+2b)/2 (exact).
  double OutputMean(double v) const override;

  /// Var[y|v], exact closed form from the piecewise-constant density.
  double OutputVariance(double v) const override;

  /// Exact output density for input v (for tests/EM/moment analysis).
  Result<PiecewiseConstantDensity> OutputDensity(double v) const;

  /// Slope alpha = 2b(p-q) of the output-mean line.
  double MeanSlope() const;
  /// Intercept beta = q(1+2b)/2 of the output-mean line.
  double MeanIntercept() const;

 private:
  SquareWave(double epsilon, SwParams params)
      : Mechanism(epsilon), params_(params) {}

  SwParams params_;
};

}  // namespace capp

#endif  // CAPP_MECHANISMS_SQUARE_WAVE_H_
