// Gap-fill policy for published per-user streams.
//
// A collector may miss slots for a user (lossy transport, sampling
// algorithms that skip uploads). The library-wide publication policy is
// last-observation-carried-forward: a missing slot repeats the user's last
// preceding report, and slots before the first report publish the domain
// midpoint 0.5 (the no-information prior of the [0,1] data domain).
// CollectorSession's published streams and the engine's streaming
// analytics share this helper so the policy cannot drift between them.
#ifndef CAPP_STREAM_GAP_FILL_H_
#define CAPP_STREAM_GAP_FILL_H_

#include <span>
#include <vector>

namespace capp {

/// The value published for slots that precede a user's first report: the
/// midpoint of the [0,1] data domain.
inline constexpr double kGapFillPrior = 0.5;

/// Returns a copy of `xs` with every NaN entry (a missing slot) replaced by
/// the last preceding non-NaN value, or `prior` when no report precedes it.
/// Non-NaN entries pass through unchanged.
std::vector<double> FillGapsForward(std::span<const double> xs,
                                    double prior = kGapFillPrior);

}  // namespace capp

#endif  // CAPP_STREAM_GAP_FILL_H_
