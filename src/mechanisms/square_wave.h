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
#include <optional>
#include <span>
#include <string_view>

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

/// Samples one SW output from input v (caller-guaranteed to already lie in
/// [0, 1], making Perturb's defensive clamp the identity) and two uniform
/// draws, branch-free. `near_mass` must be SwNearBandMass(params) and must
/// lie strictly inside (0, 1) -- callers check once per batch (see
/// SwBatchable). Consumes u1 for the band choice and u2 for the position,
/// matching SquareWave::Perturb's draw order and arithmetic bit for bit:
/// both selects compile to conditional moves, no RNG call leaves the
/// caller's loop, and nothing rides the caller's feedback chain but the
/// sampler arithmetic itself.
inline double SwSampleFromUniforms(const SwParams& params, double near_mass,
                                   double v, double u1, double u2) {
  const double lo = v - params.b;
  const double hi = v + params.b;
  // Near band: Uniform(lo, hi) = lo + (hi - lo) * u2.
  const double near_val = lo + (hi - lo) * u2;
  // Far region: left part [-b, v-b) has width v, right part (v+b, 1+b]
  // has width 1-v; total width exactly 1, addressed directly by u2.
  const double far_val = u2 < v ? -params.b + u2 : hi + (u2 - v);
  return u1 < near_mass ? near_val : far_val;
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
/// fast path: the sampler parameters and the precomputed near-band mass.
struct SwBatchPlan {
  SwParams params;
  double near_mass = 0.0;
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
