#include "algorithms/capp.h"

#include "core/math_utils.h"
#include "mechanisms/square_wave.h"

namespace capp {

Result<std::unique_ptr<Capp>> Capp::Create(CappOptions options,
                                           MechanismKind mechanism) {
  CAPP_RETURN_IF_ERROR(ValidatePerturberOptions(options.base));
  const double eps_slot = options.base.epsilon / options.base.window;
  ClipBounds bounds;
  if (options.delta.has_value()) {
    CAPP_ASSIGN_OR_RETURN(bounds, ClipBoundsFromDelta(*options.delta));
  } else if (mechanism == MechanismKind::kSquareWave) {
    CAPP_ASSIGN_OR_RETURN(bounds, SelectClipBounds(eps_slot));
  } else {
    return Status::InvalidArgument(
        "CAPP over non-SW mechanisms needs an explicit delta (the Eq.-11 "
        "selector is Square-Wave-specific)");
  }
  CAPP_ASSIGN_OR_RETURN(std::unique_ptr<Mechanism> mech,
                        CreateMechanism(mechanism, eps_slot));
  std::string name =
      mechanism == MechanismKind::kSquareWave
          ? std::string("capp")
          : std::string(MechanismKindName(mechanism)) + "-capp";
  return std::unique_ptr<Capp>(
      new Capp(options.base, std::move(mech), bounds, std::move(name)));
}

double Capp::DoProcessValue(double x, Rng& rng) {
  x = Clamp(x, 0.0, 1.0);
  RecordSpend(mechanism_->epsilon());
  // Algorithm 2 lines 5-6: input value with accumulated deviation, clipped
  // to [l, u].
  const double input = Clamp(x + accumulated_deviation_, bounds_.l,
                             bounds_.u);
  // Line 7: normalize [l,u] -> [0,1], then onto the mechanism's domain
  // (identity for SW).
  const double width = bounds_.u - bounds_.l;
  const double normalized = (input - bounds_.l) / width;
  // Line 8: perturb.
  const double y = mechanism_->Perturb(map_.ToMechanism(normalized), rng);
  // Line 9: denormalize back to [l, u] scale.
  const double report = map_.FromMechanism(y) * width + bounds_.l;
  // Lines 10-11: update the accumulated deviation.
  accumulated_deviation_ += x - report;
  return report;
}

void Capp::DoProcessSwChunk(std::span<const double> in, std::span<double> out,
                            const double* uniforms, size_t stride) {
  RecordSpendRun(in.size(), mechanism_->epsilon());
  const SwParams params = sw_plan().params;
  const double near_mass = sw_plan().near_mass;
  const double width = bounds_.u - bounds_.l;
  internal::ForEachSwSlot(
      in, out, uniforms, stride, [&](double raw, double u1, double u2) {
        const double x = SanitizeUnitValue(raw);
        const double input = Clamp(x + accumulated_deviation_, bounds_.l,
                                   bounds_.u);
        const double normalized = (input - bounds_.l) / width;
        // DomainMap is the identity for SW (input domain [0,1]); see the
        // IPP chunk loop for the bit-identity argument.
        const double y =
            SwSampleFromUniforms(params, near_mass, normalized, u1, u2);
        const double report = y * width + bounds_.l;
        accumulated_deviation_ += x - report;
        return report;
      });
  AdvanceSlots(in.size());
}

}  // namespace capp
