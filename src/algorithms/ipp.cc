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

void Ipp::DoProcessSwChunk(std::span<const double> in, std::span<double> out,
                           const double* uniforms, size_t stride) {
  RecordSpendRun(in.size(), mechanism_->epsilon());
  const SwParams params = sw_plan().params;
  const double near_mass = sw_plan().near_mass;
  internal::ForEachSwSlot(
      in, out, uniforms, stride, [&](double raw, double u1, double u2) {
        const double x = SanitizeUnitValue(raw);
        const double input = Clamp(x + last_deviation_, 0.0, 1.0);
        // SW's input domain is [0,1], so DomainMap is exactly the identity
        // here: skipping it removes a dependent mul/add/div from the
        // feedback chain without changing a bit (x*1.0, y-0.0, and /1.0
        // are exact; the +-0.0 corner yields identical sampler output).
        const double report =
            SwSampleFromUniforms(params, near_mass, input, u1, u2);
        last_deviation_ = x - report;
        return report;
      });
  AdvanceSlots(in.size());
}

}  // namespace capp
