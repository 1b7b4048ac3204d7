#include "algorithms/app.h"

#include "core/math_utils.h"
#include "mechanisms/square_wave.h"

namespace capp {

Result<std::unique_ptr<App>> App::Create(PerturberOptions options,
                                         MechanismKind mechanism) {
  CAPP_RETURN_IF_ERROR(ValidatePerturberOptions(options));
  const double eps_slot = options.epsilon / options.window;
  CAPP_ASSIGN_OR_RETURN(std::unique_ptr<Mechanism> mech,
                        CreateMechanism(mechanism, eps_slot));
  std::string name = mechanism == MechanismKind::kSquareWave
                         ? std::string("app")
                         : std::string(MechanismKindName(mechanism)) + "-app";
  return std::unique_ptr<App>(
      new App(options, std::move(mech), std::move(name)));
}

double App::DoProcessValue(double x, Rng& rng) {
  x = Clamp(x, 0.0, 1.0);
  RecordSpend(mechanism_->epsilon());
  // Algorithm 1 line 4: x^I_t = truncate(x_t + D, [0,1]).
  const double input = Clamp(x + accumulated_deviation_, 0.0, 1.0);
  const double y = mechanism_->Perturb(map_.ToMechanism(input), rng);
  const double report = map_.FromMechanism(y);
  // Lines 6-7: d_t = x_t - x'_t;  D += d_t.
  accumulated_deviation_ += x - report;
  return report;
}

namespace {

// One APP slot (Algorithm 1 lines 4-7) at V = double (one stream) or
// internal::SwLanePair (two lanes); `deviation` is the accumulated D.
// DomainMap is the identity for SW (input domain [0,1]); see the IPP slot
// for the bit-identity argument.
template <typename V>
V AppSlot(const SwBatchPlan& plan, V raw, V& deviation, V u1, V u2) {
  const V x = SanitizeUnitValue(raw);
  const V input = Clamp(x + deviation, 0.0, 1.0);
  const V report =
      SwSampleFromUniforms(plan.params, plan.near_mass, input, u1, u2);
  deviation += x - report;
  return report;
}

}  // namespace

void App::DoProcessSwChunk(std::span<const double> in, std::span<double> out,
                           const double* uniforms, size_t stride) {
  // D lives in a local across the chunk (see Ipp::DoProcessSwChunk).
  const SwBatchPlan plan = sw_plan();
  double deviation = accumulated_deviation_;
  internal::ForEachSwSlot(in, out, uniforms, stride,
                          [&](double raw, double u1, double u2) {
                            return AppSlot(plan, raw, deviation, u1, u2);
                          });
  accumulated_deviation_ = deviation;
}

void App::DoProcessSwLanes(LaneGroup lanes, const double* in, double* out,
                           const double* uniforms, size_t lanes_per_rng,
                           size_t count) {
  const SwBatchPlan plan = sw_plan();
  ForEachSwLaneSlotWithState(
      lanes, &App::accumulated_deviation_, in, out, uniforms, lanes_per_rng,
      count,
      [&](internal::SwLanePair raw, internal::SwLanePair& deviation,
          internal::SwLanePair u1, internal::SwLanePair u2) {
        return AppSlot(plan, raw, deviation, u1, u2);
      });
}

}  // namespace capp
