// Budget-Split (BS) strategy for d-dimensional streams (Section IV-C).
//
// At every time slot the user uploads all d dimensions; sequential
// composition across dimensions means each per-dimension upload gets budget
// eps / (d * w). Implemented as d independent inner perturbers, each
// configured with window budget eps / d.
//
// The per-slot reference (ProcessVector) draws slot t's uniform pairs
// dimension by dimension, so with Square Wave inners slot t of dimension k
// consumes uniforms 2(t*d + k) and 2(t*d + k) + 1. PerturbStream fills
// that same sequence in blocks of 128 slots (2*d*128 uniforms) and hands
// dimension k the view at offset 2k, stride 2d: the whole stream runs
// dim-major through each inner's SW chunk loop, bit-identical to the
// per-slot loop. StreamPerturber::ProcessSwLanes draws the same blocks
// when d divides its 8 lanes, so the d inners of 8 / d users can run as
// one lane group, inner k of user u on lane u*d + k (PerturbLanes).
#ifndef CAPP_MULTIDIM_BUDGET_SPLIT_H_
#define CAPP_MULTIDIM_BUDGET_SPLIT_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "algorithms/factory.h"
#include "algorithms/perturber.h"

namespace capp {

/// Perturbs a d-dimensional stream, one vector per slot.
class MultiDimPerturber {
 public:
  virtual ~MultiDimPerturber() = default;
  virtual std::string_view name() const = 0;
  virtual size_t dimensions() const = 0;
  /// SMA window the publication step calls for (delegates to the inner
  /// per-dimension algorithm; see StreamPerturber).
  virtual int publication_smoothing_window() const = 0;
  /// Perturbs one slot's d-vector (values in [0,1] per dimension). The
  /// per-slot reference PerturbStream is pinned against.
  virtual std::vector<double> ProcessVector(const std::vector<double>& x,
                                            Rng& rng) = 0;
  /// Perturbs the next `slots` slots of a dim-major stream: `truth` and
  /// `out` hold dims * slots values, dimension k's run at [k * slots,
  /// (k+1) * slots). Bit-identical to `slots` ProcessVector calls -- same
  /// reports, RNG draws, ledger and per-stream state. When every inner
  /// algorithm consumes SW uniforms (decided at Create) the uniforms are
  /// drawn in blocks and each dimension runs as one chunk; otherwise it is
  /// PerturbStreamPerSlot.
  virtual void PerturbStream(std::span<const double> truth, size_t slots,
                             std::span<double> out, Rng& rng) = 0;
  /// Clears per-stream state.
  virtual void Reset() = 0;
  /// Optional shared ledger: window sums across *all* dimensions must stay
  /// within the total budget.
  virtual void AttachAccountant(WEventAccountant* accountant) = 0;

 protected:
  /// PerturbStream as the per-slot reference loop: gather slot t's
  /// d-vector, ProcessVector, scatter. The path of inner algorithms that do
  /// not consume SW uniforms.
  void PerturbStreamPerSlot(std::span<const double> truth, size_t slots,
                            std::span<double> out, Rng& rng);
};

/// Budget-Split multi-dimensional perturbation.
class BudgetSplitPerturber final : public MultiDimPerturber {
 public:
  /// `options.epsilon` is the *total* window budget across all dimensions.
  static Result<std::unique_ptr<BudgetSplitPerturber>> Create(
      size_t dimensions, PerturberOptions options,
      AlgorithmKind inner = AlgorithmKind::kSwDirect);

  std::string_view name() const override { return name_; }
  size_t dimensions() const override { return inner_.size(); }
  int publication_smoothing_window() const override {
    return inner_.front()->publication_smoothing_window();
  }
  std::vector<double> ProcessVector(const std::vector<double>& x,
                                    Rng& rng) override;
  void PerturbStream(std::span<const double> truth, size_t slots,
                     std::span<double> out, Rng& rng) override;
  void Reset() override;
  void AttachAccountant(WEventAccountant* accountant) override;

  /// Dimension k's inner perturber (lane u*d + k of a PerturbLanes group).
  StreamPerturber& inner(size_t k) { return *inner_[k]; }

  /// True when PerturbLanes can run this perturber: inners that consume
  /// SW uniforms and d dividing StreamPerturber::kLanes.
  bool supports_lanes() const {
    return sw_uniforms_ && StreamPerturber::kLanes % inner_.size() == 0;
  }

  /// PerturbStream for kLanes / d users at once: group[u] perturbs
  /// truth[u] into out[u] (dim-major, d * slots values each) with
  /// *rngs[u], bit for bit as group[u]->PerturbStream would. Runs
  /// StreamPerturber::ProcessSwLaneStreams, inner k of user u on lane
  /// u*d + k. Every perturber must supports_lanes() with equal options
  /// and inner algorithm; group[0] holds the staging block.
  static void PerturbLanes(std::span<BudgetSplitPerturber* const> group,
                           std::span<Rng* const> rngs,
                           std::span<const std::span<const double>> truth,
                           std::span<const std::span<double>> out);

 private:
  BudgetSplitPerturber(std::vector<std::unique_ptr<StreamPerturber>> inner,
                       std::string name)
      : inner_(std::move(inner)), name_(std::move(name)),
        sw_uniforms_(inner_.front()->consumes_sw_uniforms()) {}

  std::vector<std::unique_ptr<StreamPerturber>> inner_;
  std::string name_;
  // The inners are identical (same kind and budget), so one answers for
  // all: fixed here, at Create.
  bool sw_uniforms_;
  // One block's 2*d*128 draws, reused; PerturbLanes' staging in group[0].
  std::vector<double> uniforms_;
};

}  // namespace capp

#endif  // CAPP_MULTIDIM_BUDGET_SPLIT_H_
