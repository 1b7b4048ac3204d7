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

namespace {

// One SW-direct slot at V = double (one stream) or internal::SwLanePair
// (two lanes). SanitizeUnitValue lands in [0,1], so the scalar path's
// clamps are the identity, and so is DomainMap for SW (see the IPP slot
// for the bit-identity argument).
template <typename V>
V SwDirectSlot(const SwBatchPlan& plan, V raw, V u1, V u2) {
  return SwSampleFromUniforms(plan.params, plan.near_mass,
                              SanitizeUnitValue(raw), u1, u2);
}

}  // namespace

void MechanismDirect::DoProcessSwChunk(std::span<const double> in,
                                       std::span<double> out,
                                       const double* uniforms,
                                       size_t stride) {
  const SwBatchPlan plan = sw_plan();
  internal::ForEachSwSlot(in, out, uniforms, stride,
                          [&](double raw, double u1, double u2) {
                            return SwDirectSlot(plan, raw, u1, u2);
                          });
}

void MechanismDirect::DoProcessSwLanes(LaneGroup, const double* in,
                                       double* out, const double* uniforms,
                                       size_t lanes_per_rng, size_t count) {
  const SwBatchPlan plan = sw_plan();
  internal::ForEachSwLaneSlot(
      in, out, uniforms, lanes_per_rng, count,
      [&](size_t, internal::SwLanePair raw, internal::SwLanePair u1,
          internal::SwLanePair u2) { return SwDirectSlot(plan, raw, u1, u2); });
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
