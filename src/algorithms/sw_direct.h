// Direct per-slot perturbation baseline ("SW-direct" in the paper when the
// mechanism is Square Wave). Each slot's value is perturbed independently
// with budget epsilon/w -- the straw-man every parameterized algorithm is
// compared against. The mechanism is pluggable (Laplace-direct, SR-direct,
// PM-direct of Fig. 9); data in [0,1] is affinely mapped into the
// mechanism's input domain and the report mapped back.
#ifndef CAPP_ALGORITHMS_SW_DIRECT_H_
#define CAPP_ALGORITHMS_SW_DIRECT_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "algorithms/perturber.h"
#include "mechanisms/mechanism.h"

namespace capp {

/// Affine bijection between the data domain [0,1] and a mechanism's input
/// domain. Affine pre/post-processing does not affect LDP guarantees.
class DomainMap {
 public:
  explicit DomainMap(const Mechanism& mechanism)
      : lo_(mechanism.input_lo()), width_(mechanism.input_hi() -
                                          mechanism.input_lo()) {}

  /// [0,1] data value -> mechanism input.
  double ToMechanism(double x01) const { return lo_ + x01 * width_; }
  /// Mechanism output -> data scale (may exceed [0,1] for unbounded
  /// mechanisms; that is intended).
  double FromMechanism(double y) const { return (y - lo_) / width_; }

 private:
  double lo_;
  double width_;
};

/// Mechanism-direct stream perturbation (no parameterization).
class MechanismDirect final : public StreamPerturber {
 public:
  /// Creates a direct perturber; per-slot budget is epsilon/window.
  static Result<std::unique_ptr<MechanismDirect>> Create(
      PerturberOptions options,
      MechanismKind mechanism = MechanismKind::kSquareWave);

  std::string_view name() const override { return name_; }

  /// Per-slot privacy budget epsilon/w.
  double epsilon_per_slot() const { return mechanism_->epsilon(); }
  const Mechanism& mechanism() const { return *mechanism_; }

 protected:
  double DoProcessValue(double x, Rng& rng) override;
  /// SW fast path: inline two-uniform sampling (see square_wave.h).
  void DoProcessSwChunk(std::span<const double> in, std::span<double> out,
                        const double* uniforms, size_t stride) override;
  /// Every other mechanism: no cross-slot state, so the whole chunk goes
  /// through Mechanism::PerturbBatch on a reused scratch buffer. Both
  /// paths are bit-identical to the scalar loop.
  void DoProcessChunk(std::span<const double> in, std::span<double> out,
                      Rng& rng) override;
  void DoReset() override {}

 private:
  MechanismDirect(PerturberOptions options,
                  std::unique_ptr<Mechanism> mechanism, std::string name)
      : StreamPerturber(options, PlanSwBatch(mechanism.get())),
        mechanism_(std::move(mechanism)), map_(*mechanism_),
        name_(std::move(name)) {}

  std::unique_ptr<Mechanism> mechanism_;
  DomainMap map_;
  std::string name_;
  std::vector<double> chunk_scratch_;  // mapped inputs for PerturbBatch
};

}  // namespace capp

#endif  // CAPP_ALGORITHMS_SW_DIRECT_H_
