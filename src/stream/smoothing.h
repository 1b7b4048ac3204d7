// Collector-side post-processing: Simple Moving Average smoothing.
//
// The paper (Section IV-A, Lemma IV.1) smooths perturbed streams with a
// centered SMA of window size 2k+1; positive and negative SW deviations
// cancel, reducing per-point variance by a factor ~ 2k+1 while leaving the
// subsequence mean unchanged. At the boundaries, the average is taken over
// the values that exist (the paper's convention).
#ifndef CAPP_STREAM_SMOOTHING_H_
#define CAPP_STREAM_SMOOTHING_H_

#include <span>
#include <vector>

#include "core/status.h"

namespace capp {

/// Centered simple moving average with total window size `window`
/// (must be odd and >= 1). window == 1 returns the input unchanged.
/// Boundary windows shrink to the available values.
Result<std::vector<double>> SimpleMovingAverage(std::span<const double> xs,
                                                int window);

/// Scratch-buffer variant for per-user hot loops: writes the smoothed
/// series into the caller's `out` (out.size() == xs.size(), so a row of a
/// larger block smooths in place) and keeps the prefix sums in
/// `prefix_scratch`, resized as needed so repeated calls reuse its
/// capacity. Values are identical to SimpleMovingAverage (which wraps
/// this). `xs` must not alias `out` or `prefix_scratch`.
Status SimpleMovingAverageInto(std::span<const double> xs, int window,
                               std::span<double> out,
                               std::vector<double>& prefix_scratch);

/// The same into a vector, resized to xs.size().
Status SimpleMovingAverageInto(std::span<const double> xs, int window,
                               std::vector<double>& out,
                               std::vector<double>& prefix_scratch);

/// Convenience overload used throughout the paper: window = 3.
std::vector<double> Sma3(std::span<const double> xs);

}  // namespace capp

#endif  // CAPP_STREAM_SMOOTHING_H_
