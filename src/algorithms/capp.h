// Clipped Accumulated Perturbation Parameterization (CAPP), Algorithm 2 --
// the paper's flagship algorithm.
//
// Like APP, the input carries the accumulated deviation D, but instead of
// clipping to [0,1] the input is clipped to a tuned interval [l, u],
// normalized to the mechanism's input domain, perturbed, and the output
// denormalized back to [l, u]. Clipping and normalization are
// deterministic bijections/projections of a value that is already a known
// constant to the user, so the per-slot ratio bound p/q = e^{eps/w} is
// unchanged (Theorem 4). The interval choice trades sensitivity error
// against discarding error (see clip_bounds.h).
//
// The default mechanism is Square Wave (the paper's setting), for which
// the closed-form Eq.-11 bound selection applies. Section IV-C's extension
// to other mechanisms (Laplace/SR/PM) is also implemented: those require
// an explicit clip widening delta, since the paper omits their
// mechanism-specific interval derivations.
#ifndef CAPP_ALGORITHMS_CAPP_H_
#define CAPP_ALGORITHMS_CAPP_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "algorithms/clip_bounds.h"
#include "algorithms/perturber.h"
#include "algorithms/sw_direct.h"
#include "mechanisms/mechanism.h"

namespace capp {

/// Options specific to CAPP.
struct CappOptions {
  /// Shared stream options (total window budget, w).
  PerturberOptions base;
  /// Explicit clip widening delta (l = -delta, u = 1 + delta). When unset,
  /// the closed-form selector of Section IV-B chooses it from the per-slot
  /// budget (Square Wave only). Must be > -0.5 when set.
  std::optional<double> delta;
};

/// The CAPP algorithm.
class Capp final : public StreamPerturber {
 public:
  /// CAPP over the given mechanism. Non-SW mechanisms require an explicit
  /// options.delta (the Eq.-11 selector is SW-specific).
  static Result<std::unique_ptr<Capp>> Create(
      CappOptions options,
      MechanismKind mechanism = MechanismKind::kSquareWave);

  /// Convenience: SW-based CAPP with automatically selected bounds.
  static Result<std::unique_ptr<Capp>> Create(PerturberOptions options) {
    return Create(CappOptions{options, std::nullopt});
  }

  std::string_view name() const override { return name_; }
  int publication_smoothing_window() const override { return 3; }

  const ClipBounds& bounds() const { return bounds_; }
  double accumulated_deviation() const { return accumulated_deviation_; }
  const Mechanism& mechanism() const { return *mechanism_; }

 protected:
  double DoProcessValue(double x, Rng& rng) override;
  /// SW fast path: inline two-uniform sampling (see square_wave.h), one
  /// stream or kLanes streams in lockstep; non-SW mechanisms take the
  /// scalar loop. Bit-identical.
  void DoProcessSwChunk(std::span<const double> in, std::span<double> out,
                        const double* uniforms, size_t stride) override;
  void DoProcessSwLanes(LaneGroup lanes, const double* in, double* out,
                        const double* uniforms, size_t lanes_per_rng,
                        size_t count) override;
  void DoReset() override { accumulated_deviation_ = 0.0; }

 private:
  Capp(PerturberOptions options, std::unique_ptr<Mechanism> mechanism,
       ClipBounds bounds, std::string name)
      : StreamPerturber(options, PlanSwBatch(mechanism.get())),
        mechanism_(std::move(mechanism)), map_(*mechanism_),
        bounds_(bounds), name_(std::move(name)) {}

  std::unique_ptr<Mechanism> mechanism_;
  DomainMap map_;
  ClipBounds bounds_;
  std::string name_;
  double accumulated_deviation_ = 0.0;
};

}  // namespace capp

#endif  // CAPP_ALGORITHMS_CAPP_H_
