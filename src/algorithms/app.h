// Accumulated Perturbation Parameterization (APP), Algorithm 1 of the paper.
//
// Like IPP but the input carries the *accumulated* deviation of all previous
// slots:  D = sum_{s<t} (x_s - x'_s),  x^I_t = clip(x_t + D, [0,1]).
// The running total lets late slots repair the cumulative error of the
// whole prefix, which is why APP dominates IPP for subsequence-mean
// estimation (Lemma IV.2) while being slightly worse for point-wise stream
// shape (the paper's Fig. 5 discussion).
#ifndef CAPP_ALGORITHMS_APP_H_
#define CAPP_ALGORITHMS_APP_H_

#include <memory>
#include <string>
#include <string_view>

#include "algorithms/perturber.h"
#include "algorithms/sw_direct.h"
#include "mechanisms/mechanism.h"

namespace capp {

/// The APP algorithm; mechanism defaults to Square Wave.
class App final : public StreamPerturber {
 public:
  static Result<std::unique_ptr<App>> Create(
      PerturberOptions options,
      MechanismKind mechanism = MechanismKind::kSquareWave);

  std::string_view name() const override { return name_; }
  int publication_smoothing_window() const override { return 3; }

  /// Accumulated deviation D = sum of (x_s - x'_s) over processed slots.
  double accumulated_deviation() const { return accumulated_deviation_; }

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
  App(PerturberOptions options, std::unique_ptr<Mechanism> mechanism,
      std::string name)
      : StreamPerturber(options, PlanSwBatch(mechanism.get())),
        mechanism_(std::move(mechanism)), map_(*mechanism_),
        name_(std::move(name)) {}

  std::unique_ptr<Mechanism> mechanism_;
  DomainMap map_;
  std::string name_;
  double accumulated_deviation_ = 0.0;
};

}  // namespace capp

#endif  // CAPP_ALGORITHMS_APP_H_
