#include "algorithms/sw_direct.h"

#include "core/math_utils.h"

namespace capp {

Result<std::unique_ptr<MechanismDirect>> MechanismDirect::Create(
    PerturberOptions options, MechanismKind mechanism) {
  CAPP_RETURN_IF_ERROR(ValidatePerturberOptions(options));
  const double eps_slot = options.epsilon / options.window;
  CAPP_ASSIGN_OR_RETURN(std::unique_ptr<Mechanism> mech,
                        CreateMechanism(mechanism, eps_slot));
  std::string name = std::string(MechanismKindName(mechanism)) + "-direct";
  return std::unique_ptr<MechanismDirect>(
      new MechanismDirect(options, std::move(mech), std::move(name)));
}

double MechanismDirect::DoProcessValue(double x, Rng& rng) {
  x = Clamp(x, 0.0, 1.0);
  RecordSpend(mechanism_->epsilon());
  const double y = mechanism_->Perturb(map_.ToMechanism(x), rng);
  return map_.FromMechanism(y);
}

void MechanismDirect::DoProcessSwChunk(std::span<const double> in,
                                       std::span<double> out,
                                       const double* uniforms,
                                       size_t stride) {
  RecordSpendRun(in.size(), mechanism_->epsilon());
  const SwParams params = sw_plan().params;
  const double near_mass = sw_plan().near_mass;
  internal::ForEachSwSlot(
      in, out, uniforms, stride, [&](double raw, double u1, double u2) {
        // SanitizeUnitValue lands in [0,1], so the scalar path's clamps
        // are the identity, and so is DomainMap for SW (see the IPP chunk
        // loop for the bit-identity argument).
        return SwSampleFromUniforms(params, near_mass, SanitizeUnitValue(raw),
                                    u1, u2);
      });
  AdvanceSlots(in.size());
}

void MechanismDirect::DoProcessChunk(std::span<const double> in,
                                     std::span<double> out, Rng& rng) {
  RecordSpendRun(in.size(), mechanism_->epsilon());
  chunk_scratch_.resize(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    chunk_scratch_[i] =
        map_.ToMechanism(Clamp(SanitizeUnitValue(in[i]), 0.0, 1.0));
  }
  mechanism_->PerturbBatch(chunk_scratch_, out, rng);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = map_.FromMechanism(out[i]);
  }
  AdvanceSlots(in.size());
}

}  // namespace capp
