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

void App::DoProcessSwChunk(std::span<const double> in, std::span<double> out,
                           const double* uniforms, size_t stride) {
  RecordSpendRun(in.size(), mechanism_->epsilon());
  const SwParams params = sw_plan().params;
  const double near_mass = sw_plan().near_mass;
  internal::ForEachSwSlot(
      in, out, uniforms, stride, [&](double raw, double u1, double u2) {
        const double x = SanitizeUnitValue(raw);
        const double input =
            Clamp(x + accumulated_deviation_, 0.0, 1.0);
        // DomainMap is the identity for SW (input domain [0,1]); see the
        // IPP chunk loop for the bit-identity argument.
        const double report =
            SwSampleFromUniforms(params, near_mass, input, u1, u2);
        accumulated_deviation_ += x - report;
        return report;
      });
  AdvanceSlots(in.size());
}

}  // namespace capp
