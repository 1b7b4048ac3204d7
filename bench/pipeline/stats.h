// Order statistics for the pipeline benchmark. Quartiles follow Python's
// statistics.quantiles(data, n=4) (the default "exclusive" method), so a
// spread printed here is the same number compare.py computes from the
// committed samples.
#ifndef CAPP_BENCH_PIPELINE_STATS_H_
#define CAPP_BENCH_PIPELINE_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace capp::pipeline {

struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double min = 0.0;
  double max = 0.0;
  size_t n = 0;
};

/// Median, quartiles and range of `values` (empty input gives all zeros).
inline Summary Summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.min = values.front();
  s.max = values.back();
  const size_t n = values.size();
  s.median = n % 2 == 1 ? values[n / 2]
                        : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  if (n < 2) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  // statistics.quantiles, method="exclusive": cut point i of 4 sits at
  // 1-based position i * (n + 1) / 4. Like Python, j is clamped before
  // delta is taken, so small samples extrapolate from the end pair.
  auto cut = [&](long long i) {
    const long long ld = static_cast<long long>(n);
    const long long m = ld + 1;
    const long long j = std::clamp<long long>(i * m / 4, 1, ld - 1);
    const long long delta = i * m - j * 4;
    return (values[static_cast<size_t>(j - 1)] *
                static_cast<double>(4 - delta) +
            values[static_cast<size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  s.q1 = cut(1);
  s.q3 = cut(3);
  return s;
}

/// Nearest-rank percentile (p in (0, 1]) of `values`; 0 when empty.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

}  // namespace capp::pipeline

#endif  // CAPP_BENCH_PIPELINE_STATS_H_
