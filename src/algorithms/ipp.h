// Iterative Perturbation Parameterization (IPP), Section III-C of the paper.
//
// The user feeds the deviation of the *previous* slot back into the current
// input:  x^I_t = clip(x_t + d_{t-1}, [0,1]),  d_t = x_t - x'_t.
// Only the most recent deviation is used; the input value is a known
// constant to the user given previous outputs, so each slot still enjoys the
// full per-slot ratio bound p/q = e^{eps/w} (Theorem 3 argument).
#ifndef CAPP_ALGORITHMS_IPP_H_
#define CAPP_ALGORITHMS_IPP_H_

#include <memory>
#include <string>
#include <string_view>

#include "algorithms/perturber.h"
#include "algorithms/sw_direct.h"
#include "mechanisms/mechanism.h"

namespace capp {

/// The IPP algorithm; mechanism defaults to Square Wave.
class Ipp final : public StreamPerturber {
 public:
  static Result<std::unique_ptr<Ipp>> Create(
      PerturberOptions options,
      MechanismKind mechanism = MechanismKind::kSquareWave);

  std::string_view name() const override { return name_; }
  int publication_smoothing_window() const override { return 3; }

  /// Deviation of the most recent slot, x_t - x'_t.
  double last_deviation() const { return last_deviation_; }

 protected:
  double DoProcessValue(double x, Rng& rng) override;
  /// SW fast path: inline two-uniform sampling (see square_wave.h);
  /// non-SW mechanisms take the scalar loop. Bit-identical.
  void DoProcessSwChunk(std::span<const double> in, std::span<double> out,
                        const double* uniforms, size_t stride) override;
  void DoReset() override { last_deviation_ = 0.0; }

 private:
  Ipp(PerturberOptions options, std::unique_ptr<Mechanism> mechanism,
      std::string name)
      : StreamPerturber(options, PlanSwBatch(mechanism.get())),
        mechanism_(std::move(mechanism)), map_(*mechanism_),
        name_(std::move(name)) {}

  std::unique_ptr<Mechanism> mechanism_;
  DomainMap map_;
  std::string name_;
  double last_deviation_ = 0.0;
};

}  // namespace capp

#endif  // CAPP_ALGORITHMS_IPP_H_
