#include "algorithms/perturber.h"

#include <algorithm>
#include <typeinfo>

#include "core/check.h"

namespace capp {

Status ValidatePerturberOptions(const PerturberOptions& options) {
  if (!std::isfinite(options.epsilon) || options.epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive and finite");
  }
  if (options.epsilon > 50.0) {
    return Status::InvalidArgument("epsilon exceeds supported maximum (50)");
  }
  if (options.window < 1) {
    return Status::InvalidArgument("window must be >= 1");
  }
  return Status::OK();
}

double StreamPerturber::ProcessValue(double x, Rng& rng) {
  CAPP_CHECK(supports_online());
  const double report = DoProcessValue(SanitizeUnitValue(x), rng);
  ++slot_;
  return report;
}

void StreamPerturber::ProcessChunk(std::span<const double> in,
                                   std::span<double> out, Rng& rng) {
  CAPP_CHECK(supports_online());
  CAPP_CHECK(in.size() == out.size());
  if (!consumes_sw_uniforms()) {
    DoProcessChunk(in, out, rng);
    return;
  }
  RecordSpendRun(in.size(), sw_plan().epsilon);
  // Two draws per slot in the scalar order, one block at a time.
  constexpr size_t kBlock = internal::kSwBlockSlots;
  double uniforms[2 * kBlock];
  for (size_t done = 0; done < in.size(); done += kBlock) {
    const size_t count = std::min(in.size() - done, kBlock);
    rng.FillUniform(std::span<double>(uniforms, 2 * count));
    DoProcessSwChunk(in.subspan(done, count), out.subspan(done, count),
                     uniforms, 2);
  }
  AdvanceSlots(in.size());
}

void StreamPerturber::ProcessChunkFromUniforms(std::span<const double> in,
                                               std::span<double> out,
                                               const double* uniforms,
                                               size_t stride) {
  CAPP_CHECK(consumes_sw_uniforms());
  CAPP_CHECK(in.size() == out.size());
  CAPP_CHECK(stride >= 2);
  RecordSpendRun(in.size(), sw_plan().epsilon);
  DoProcessSwChunk(in, out, uniforms, stride);
  AdvanceSlots(in.size());
}

void StreamPerturber::ProcessSwLanes(LaneGroup lanes,
                                     std::span<Rng* const, kLanes> rngs,
                                     std::span<const double> in,
                                     std::span<double> out) {
  CAPP_CHECK(in.size() == out.size() && in.size() % kLanes == 0);
  StreamPerturber& first = *lanes[0];
  CAPP_CHECK(first.supports_online() && first.consumes_sw_uniforms());
  const SwBatchPlan& plan = first.sw_plan();
  for (size_t l = 0; l < kLanes; ++l) {
    const StreamPerturber& lane = *lanes[l];
    CAPP_CHECK(typeid(lane) == typeid(first));
    CAPP_CHECK(lane.consumes_sw_uniforms());
    const SwBatchPlan& lane_plan = lane.sw_plan();
    CAPP_CHECK(lane_plan.params.b == plan.params.b &&
               lane_plan.near_mass == plan.near_mass &&
               lane_plan.epsilon == plan.epsilon);
    CAPP_CHECK(lane.options_.epsilon == first.options_.epsilon &&
               lane.options_.window == first.options_.window);
    for (size_t k = 0; k < l; ++k) CAPP_CHECK(lanes[k] != lanes[l]);
  }
  const size_t slots = in.size() / kLanes;
  for (StreamPerturber* lane : lanes) lane->RecordSpendRun(slots, plan.epsilon);
  // Lane l's pairs fill row l of the block, drawn from its own generator
  // exactly as ProcessChunk would draw them.
  constexpr size_t kBlock = internal::kSwBlockSlots;
  double uniforms[kLanes * 2 * kBlock];
  for (size_t done = 0; done < slots; done += kBlock) {
    const size_t count = std::min(slots - done, kBlock);
    for (size_t l = 0; l < kLanes; ++l) {
      rngs[l]->FillUniform(std::span<double>(uniforms + l * 2 * kBlock,
                                             2 * count));
    }
    first.DoProcessSwLanes(lanes, in.data() + done * kLanes,
                           out.data() + done * kLanes, uniforms, count);
  }
  for (StreamPerturber* lane : lanes) lane->AdvanceSlots(slots);
}

void StreamPerturber::DoProcessSwChunk(std::span<const double>,
                                       std::span<double>, const double*,
                                       size_t) {
  CAPP_CHECK(false && "consumes_sw_uniforms() without an SW chunk body");
}

void StreamPerturber::DoProcessSwLanes(LaneGroup, const double*, double*,
                                       const double*, size_t) {
  CAPP_CHECK(false && "consumes_sw_uniforms() without an SW lanes body");
}

void StreamPerturber::DoProcessChunk(std::span<const double> in,
                                     std::span<double> out, Rng& rng) {
  for (size_t i = 0; i < in.size(); ++i) {
    out[i] = DoProcessValue(SanitizeUnitValue(in[i]), rng);
    ++slot_;
  }
}

std::vector<double> StreamPerturber::PerturbSequence(
    std::span<const double> xs, Rng& rng) {
  return DoPerturbSequence(xs, rng);
}

std::vector<double> StreamPerturber::DoPerturbSequence(
    std::span<const double> xs, Rng& rng) {
  std::vector<double> out;
  out.reserve(xs.size());
  for (double x : xs) out.push_back(ProcessValue(x, rng));
  return out;
}

void StreamPerturber::Reset() {
  slot_ = 0;
  DoReset();
}

void StreamPerturber::RecordSpend(double epsilon) {
  if (accountant_ != nullptr) accountant_->Record(slot_, epsilon);
}

void StreamPerturber::RecordSpendRun(size_t n, double epsilon) {
  if (accountant_ != nullptr) accountant_->RecordRun(slot_, n, epsilon);
}

void StreamPerturber::RecordSpendAt(size_t slot, double epsilon) {
  if (accountant_ != nullptr) accountant_->Record(slot, epsilon);
}

}  // namespace capp
