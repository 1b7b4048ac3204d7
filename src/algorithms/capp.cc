#include "algorithms/capp.h"

#include "core/check.h"
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

namespace {

// One CAPP slot (Algorithm 2 lines 5-11) at V = double (one stream) or
// internal::SwLanePair (two lanes); `deviation` is the accumulated D.
// DomainMap is the identity for SW (input domain [0,1]); see the IPP slot
// for the bit-identity argument.
template <typename V>
V CappSlot(const SwBatchPlan& plan, const ClipBounds& bounds, V raw,
           V& deviation, V u1, V u2) {
  const V x = SanitizeUnitValue(raw);
  const V input = Clamp(x + deviation, bounds.l, bounds.u);
  const double width = bounds.u - bounds.l;
  const V normalized = (input - bounds.l) / width;
  const V y =
      SwSampleFromUniforms(plan.params, plan.near_mass, normalized, u1, u2);
  const V report = y * width + bounds.l;
  deviation += x - report;
  return report;
}

}  // namespace

void Capp::DoProcessSwChunk(std::span<const double> in, std::span<double> out,
                            const double* uniforms, size_t stride) {
  // D lives in a local across the chunk (see Ipp::DoProcessSwChunk).
  const SwBatchPlan plan = sw_plan();
  const ClipBounds bounds = bounds_;
  double deviation = accumulated_deviation_;
  internal::ForEachSwSlot(
      in, out, uniforms, stride, [&](double raw, double u1, double u2) {
        return CappSlot(plan, bounds, raw, deviation, u1, u2);
      });
  accumulated_deviation_ = deviation;
}

void Capp::DoProcessSwLanes(LaneGroup lanes, const double* in, double* out,
                            const double* uniforms, size_t lanes_per_rng,
                            size_t count) {
  // Equal options fix the Eq.-11 bounds, but an explicit delta may differ.
  for (StreamPerturber* lane : lanes) {
    const ClipBounds& lane_bounds = static_cast<const Capp*>(lane)->bounds_;
    CAPP_CHECK(lane_bounds.l == bounds_.l && lane_bounds.u == bounds_.u);
  }
  const SwBatchPlan plan = sw_plan();
  const ClipBounds bounds = bounds_;
  ForEachSwLaneSlotWithState(
      lanes, &Capp::accumulated_deviation_, in, out, uniforms, lanes_per_rng,
      count,
      [&](internal::SwLanePair raw, internal::SwLanePair& deviation,
          internal::SwLanePair u1, internal::SwLanePair u2) {
        return CappSlot(plan, bounds, raw, deviation, u1, u2);
      });
}

}  // namespace capp
