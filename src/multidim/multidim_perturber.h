// MultidimPerturber: the engine's device. It runs a whole d-dimensional
// user stream, d >= 1, through one of the multi-dimensional strategies
// (multidim/budget_split.h, multidim/sample_split.h), and every fleet
// worker pools it for every d. At d = 1 it is budget split over one inner
// at eps / w, whatever strategy the caller names: the scalar algorithm,
// bit for bit what UserSession reports.
//
// The fleet works in dim-major runs -- all of dimension 0's slots, then
// dimension 1's, exactly the wire layout -- and so does the strategies'
// whole-stream path (MultiDimPerturber::PerturbStream). With Square Wave
// inner algorithms (sw-direct, IPP, APP, CAPP) it draws the per-slot
// uniform pairs in blocks of 128 slots and gives dimension k the view at
// offset 2k, stride 2d (budget split; sample split hands each dimension
// the pairs of the slots it uploads), so each dimension runs as one SW
// chunk. The draw order is the per-slot ProcessVector loop's, so every
// report, ledger entry and digest is unchanged. Inner algorithms without
// an SW batch plan (BA-SW, say) run slot by slot; that is decided once,
// at Create. Sampling inners have no per-slot path and are refused there.
//
// Budget split with Square Wave inners and d dividing 8 also runs 8 / d
// users at once (PerturbLanes): their d * (8 / d) inner perturbers are
// the eight lanes of one StreamPerturber::ProcessSwLaneStreams group --
// eight users at d = 1, two at d = 4. Each user draws its block from its
// own RNG in the order above, so the group is bit-identical to per-user
// PerturbStream calls.
//
// The adapter owns the per-user RNG and a w-event ledger shared by all of
// its dimensions, so a fleet worker's per-user path is ResetForUser + one
// PerturbStream call (or one lane-group call). One adapter is pooled per
// worker chunk (8 / d of them for lane groups) and reseeded per user, so
// the SW per-user path is allocation-free after the first user.
#ifndef CAPP_MULTIDIM_MULTIDIM_PERTURBER_H_
#define CAPP_MULTIDIM_MULTIDIM_PERTURBER_H_

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "algorithms/factory.h"
#include "algorithms/perturber.h"
#include "core/rng.h"
#include "core/status.h"
#include "multidim/budget_split.h"
#include "stream/accountant.h"

namespace capp {

/// How a d-dimensional stream spends its w-event budget (Section IV-C).
enum class MultidimStrategy {
  kBudgetSplit,  ///< Every dimension uploads every slot at eps / (d * w).
  kSampleSplit,  ///< One dimension (round-robin) uploads at eps / w; the
                 ///< rest republish their last report.
};

/// Short display name ("budget_split", "sample_split").
std::string_view MultidimStrategyName(MultidimStrategy strategy);

/// Parses a display name back into a strategy.
Result<MultidimStrategy> ParseMultidimStrategy(std::string_view name);

/// Runs d-dimensional user streams through a multi-dim strategy.
class MultidimPerturber {
 public:
  /// `options.epsilon` is the total window budget across all dimensions;
  /// `inner` is the scalar algorithm each dimension runs. dims must be
  /// >= 1; at dims == 1 `strategy` is ignored (budget split). Sampling
  /// inners are refused with InvalidArgument.
  static Result<MultidimPerturber> Create(size_t dims,
                                          MultidimStrategy strategy,
                                          PerturberOptions options,
                                          AlgorithmKind inner);

  /// Strategy display name, e.g. "sw-bs".
  std::string_view name() const { return impl_->name(); }
  size_t dimensions() const { return impl_->dimensions(); }
  int publication_smoothing_window() const {
    return impl_->publication_smoothing_window();
  }

  /// Clears all per-stream state and the ledger, and reseeds the
  /// perturbation RNG: the per-user reset (seed = UserStreamSeed(fleet
  /// seed, uid, 1)).
  void ResetForUser(uint64_t seed);

  /// The current user's budget ledger: every dimension's spends, by slot.
  const WEventAccountant& ledger() const { return *ledger_; }

  /// Perturbs one user's whole stream. `truth` and `out` are dim-major
  /// (dims * slots doubles; dimension k's run at [k * slots, (k+1) *
  /// slots)); `out` is resized. Bit-identical to the strategy's per-slot
  /// ProcessVector loop (see the header comment).
  void PerturbStream(std::span<const double> truth, size_t slots,
                     std::vector<double>& out);

  /// True when PerturbLanes can run this adapter: budget split, inner
  /// algorithms that consume SW uniforms, and d dividing
  /// StreamPerturber::kLanes. Fixed at Create.
  bool supports_lanes() const { return lanes_; }

  /// PerturbStream for kLanes / d users at once: group[u] perturbs
  /// truths[u] into out[u] (dim-major, d * slots values each, out
  /// presized), bit for bit as group[u].PerturbStream would, leaving the
  /// same RNG, ledger and per-inner state (BudgetSplitPerturber::
  /// PerturbLanes). Every adapter must supports_lanes() with equal dims,
  /// options and inner algorithm.
  static void PerturbLanes(std::span<MultidimPerturber> group,
                           std::span<const std::span<const double>> truths,
                           std::span<const std::span<double>> out);

 private:
  MultidimPerturber(std::unique_ptr<MultiDimPerturber> impl, bool lanes);

  std::unique_ptr<MultiDimPerturber> impl_;
  bool lanes_;  // a BudgetSplitPerturber that supports_lanes()
  Rng rng_{0};
  // Heap-held so the address impl_ records spends at survives moves.
  std::unique_ptr<WEventAccountant> ledger_;
};

}  // namespace capp

#endif  // CAPP_MULTIDIM_MULTIDIM_PERTURBER_H_
