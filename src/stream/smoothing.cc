#include "stream/smoothing.h"

#include <algorithm>

#include "core/check.h"

namespace capp {

Result<std::vector<double>> SimpleMovingAverage(std::span<const double> xs,
                                                int window) {
  std::vector<double> out;
  std::vector<double> prefix;
  CAPP_RETURN_IF_ERROR(SimpleMovingAverageInto(xs, window, out, prefix));
  return out;
}

Status SimpleMovingAverageInto(std::span<const double> xs, int window,
                               std::vector<double>& out,
                               std::vector<double>& prefix_scratch) {
  // Every slot is overwritten, so sizing without the copy suffices.
  out.resize(xs.size());
  return SimpleMovingAverageInto(xs, window, std::span<double>(out),
                                 prefix_scratch);
}

Status SimpleMovingAverageInto(std::span<const double> xs, int window,
                               std::span<double> out,
                               std::vector<double>& prefix_scratch) {
  CAPP_CHECK(out.size() == xs.size());
  if (window < 1 || window % 2 == 0) {
    return Status::InvalidArgument("SMA window must be odd and >= 1");
  }
  if (window == 1 || xs.size() <= 1) {
    std::copy(xs.begin(), xs.end(), out.begin());
    return Status::OK();
  }
  const int k = window / 2;
  const int n = static_cast<int>(xs.size());
  // Prefix sums for O(n) evaluation.
  prefix_scratch.resize(n + 1);
  prefix_scratch[0] = 0.0;
  for (int i = 0; i < n; ++i) {
    prefix_scratch[i + 1] = prefix_scratch[i] + xs[i];
  }
  // Every slot evaluates the same expression,
  // (prefix[hi+1] - prefix[lo]) / (hi - lo + 1); the edge slots -- where
  // the window is clipped -- are peeled off so the interior loop has a
  // loop-invariant divisor and no per-slot min/max, which lets it
  // vectorize. This was the second-largest per-report cost on the fleet
  // hot path after the clipping branches kept the fused loop scalar.
  const double* prefix = prefix_scratch.data();
  int t = 0;
  for (const int left_end = std::min(k, n); t < left_end; ++t) {
    const int hi = std::min(n - 1, t + k);
    out[t] = (prefix[hi + 1] - prefix[0]) / static_cast<double>(hi + 1);
  }
  for (const int interior_end = n - k; t < interior_end; ++t) {
    out[t] = (prefix[t + k + 1] - prefix[t - k]) /
             static_cast<double>(window);
  }
  for (; t < n; ++t) {
    const int lo = std::max(0, t - k);
    out[t] = (prefix[n] - prefix[lo]) / static_cast<double>(n - lo);
  }
  return Status::OK();
}

std::vector<double> Sma3(std::span<const double> xs) {
  auto res = SimpleMovingAverage(xs, 3);
  CAPP_CHECK(res.ok());
  return std::move(res).value();
}

}  // namespace capp
