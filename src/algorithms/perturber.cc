#include "algorithms/perturber.h"

#include <algorithm>
#include <typeinfo>

#include "core/check.h"
#include "core/math_utils.h"

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
                                     std::span<Rng* const> rngs,
                                     std::span<const double> in,
                                     std::span<double> out) {
  CAPP_CHECK(in.size() == out.size() && in.size() % kLanes == 0);
  CAPP_CHECK(!rngs.empty() && kLanes % rngs.size() == 0);
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
  for (size_t u = 0; u < rngs.size(); ++u) {
    for (size_t v = 0; v < u; ++v) CAPP_CHECK(rngs[v] != rngs[u]);
  }
  const size_t slots = in.size() / kLanes;
  for (StreamPerturber* lane : lanes) lane->RecordSpendRun(slots, plan.epsilon);
  // Each generator fills its own run of the block with the pairs its d
  // lanes consume, in the order the per-stream path draws them.
  constexpr size_t kBlock = internal::kSwBlockSlots;
  const size_t d = kLanes / rngs.size();
  double uniforms[kLanes * 2 * kBlock];
  for (size_t done = 0; done < slots; done += kBlock) {
    const size_t count = std::min(slots - done, kBlock);
    for (size_t u = 0; u < rngs.size(); ++u) {
      rngs[u]->FillUniform(
          std::span<double>(uniforms + u * d * 2 * kBlock, d * 2 * count));
    }
    first.DoProcessSwLanes(lanes, in.data() + done * kLanes,
                           out.data() + done * kLanes, uniforms, d, count);
  }
  for (StreamPerturber* lane : lanes) lane->AdvanceSlots(slots);
}

void StreamPerturber::ProcessSwLaneStreams(
    LaneGroup lanes, std::span<Rng* const> rngs,
    std::span<const std::span<const double>> in,
    std::span<const std::span<double>> out, bool clamp,
    std::vector<double>& staging) {
  const size_t users = rngs.size();
  CAPP_CHECK(users > 0 && kLanes % users == 0);
  CAPP_CHECK(in.size() == users && out.size() == users);
  const size_t d = kLanes / users;
  const size_t slots = in[0].size() / d;
  for (size_t u = 0; u < users; ++u) {
    CAPP_CHECK(in[u].size() == d * slots && out[u].size() == d * slots);
  }
  staging.resize(2 * kLanes * slots);
  const std::span<double> lane_in(staging.data(), kLanes * slots);
  const std::span<double> lane_out(staging.data() + kLanes * slots,
                                   kLanes * slots);
  for (size_t l = 0; l < kLanes; ++l) {
    const double* stream = in[l / d].data() + (l % d) * slots;
    double* lane = lane_in.data() + l;
    if (clamp) {
      for (size_t t = 0; t < slots; ++t) {
        lane[t * kLanes] = Clamp(stream[t], 0.0, 1.0);
      }
    } else {
      for (size_t t = 0; t < slots; ++t) lane[t * kLanes] = stream[t];
    }
  }
  ProcessSwLanes(lanes, rngs, lane_in, lane_out);
  for (size_t l = 0; l < kLanes; ++l) {
    double* stream = out[l / d].data() + (l % d) * slots;
    for (size_t t = 0; t < slots; ++t) stream[t] = lane_out[t * kLanes + l];
  }
}

void StreamPerturber::DoProcessSwChunk(std::span<const double>,
                                       std::span<double>, const double*,
                                       size_t) {
  CAPP_CHECK(false && "consumes_sw_uniforms() without an SW chunk body");
}

void StreamPerturber::DoProcessSwLanes(LaneGroup, const double*, double*,
                                       const double*, size_t, size_t) {
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
