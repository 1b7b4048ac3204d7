#include "algorithms/ipp.h"

#include "core/math_utils.h"
#include "mechanisms/square_wave.h"

namespace capp {

Result<std::unique_ptr<Ipp>> Ipp::Create(PerturberOptions options,
                                         MechanismKind mechanism) {
  CAPP_RETURN_IF_ERROR(ValidatePerturberOptions(options));
  const double eps_slot = options.epsilon / options.window;
  CAPP_ASSIGN_OR_RETURN(std::unique_ptr<Mechanism> mech,
                        CreateMechanism(mechanism, eps_slot));
  std::string name = mechanism == MechanismKind::kSquareWave
                         ? std::string("ipp")
                         : std::string(MechanismKindName(mechanism)) + "-ipp";
  return std::unique_ptr<Ipp>(
      new Ipp(options, std::move(mech), std::move(name)));
}

double Ipp::DoProcessValue(double x, Rng& rng) {
  x = Clamp(x, 0.0, 1.0);
  RecordSpend(mechanism_->epsilon());
  // Input value: current truth corrected by the last slot's deviation,
  // clipped back into the data domain (Section III-C).
  const double input = Clamp(x + last_deviation_, 0.0, 1.0);
  const double y = mechanism_->Perturb(map_.ToMechanism(input), rng);
  const double report = map_.FromMechanism(y);
  last_deviation_ = x - report;
  return report;
}

namespace {

// One IPP slot (Section III-C) at V = double (one stream) or
// internal::SwLanePair (two lanes); `deviation` is the feedback state.
// SW's input domain is [0,1], so DomainMap is exactly the identity here:
// skipping it removes a dependent mul/add/div from the feedback chain
// without changing a bit (x*1.0, y-0.0, and /1.0 are exact; the +-0.0
// corner yields identical sampler output).
template <typename V>
V IppSlot(const SwBatchPlan& plan, V raw, V& deviation, V u1, V u2) {
  const V x = SanitizeUnitValue(raw);
  const V input = Clamp(x + deviation, 0.0, 1.0);
  const V report =
      SwSampleFromUniforms(plan.params, plan.near_mass, input, u1, u2);
  deviation = x - report;
  return report;
}

}  // namespace

void Ipp::DoProcessSwChunk(std::span<const double> in, std::span<double> out,
                           const double* uniforms, size_t stride) {
  // Locals, not members: `out` may alias *this, which would force a store
  // and reload of the deviation on every slot.
  const SwBatchPlan plan = sw_plan();
  double deviation = last_deviation_;
  internal::ForEachSwSlot(in, out, uniforms, stride,
                          [&](double raw, double u1, double u2) {
                            return IppSlot(plan, raw, deviation, u1, u2);
                          });
  last_deviation_ = deviation;
}

void Ipp::DoProcessSwLanes(LaneGroup lanes, const double* in, double* out,
                           const double* uniforms, size_t lanes_per_rng,
                           size_t count) {
  const SwBatchPlan plan = sw_plan();
  ForEachSwLaneSlotWithState(
      lanes, &Ipp::last_deviation_, in, out, uniforms, lanes_per_rng,
      count,
      [&](internal::SwLanePair raw, internal::SwLanePair& deviation,
          internal::SwLanePair u1, internal::SwLanePair u2) {
        return IppSlot(plan, raw, deviation, u1, u2);
      });
}

}  // namespace capp
