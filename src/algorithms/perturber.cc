#include "algorithms/perturber.h"

#include <algorithm>

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
  // Two draws per slot in the scalar order, one block at a time.
  constexpr size_t kBlock = internal::kSwBlockSlots;
  double uniforms[2 * kBlock];
  for (size_t done = 0; done < in.size(); done += kBlock) {
    const size_t count = std::min(in.size() - done, kBlock);
    rng.FillUniform(std::span<double>(uniforms, 2 * count));
    DoProcessSwChunk(in.subspan(done, count), out.subspan(done, count),
                     uniforms, 2);
  }
}

void StreamPerturber::ProcessChunkFromUniforms(std::span<const double> in,
                                               std::span<double> out,
                                               const double* uniforms,
                                               size_t stride) {
  CAPP_CHECK(consumes_sw_uniforms());
  CAPP_CHECK(in.size() == out.size());
  CAPP_CHECK(stride >= 2);
  DoProcessSwChunk(in, out, uniforms, stride);
}

void StreamPerturber::DoProcessSwChunk(std::span<const double>,
                                       std::span<double>, const double*,
                                       size_t) {
  CAPP_CHECK(false && "consumes_sw_uniforms() without an SW chunk body");
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
