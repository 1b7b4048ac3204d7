// Sample-Split (SS) strategy for d-dimensional streams (Section IV-C).
//
// At each slot, exactly one dimension (round-robin) uploads with per-slot
// budget eps / w; the other dimensions republish their last report. Any
// window of w slots therefore contains ~w/d uploads per dimension and a
// total spend of exactly eps across dimensions.
//
// Only the active dimension draws, so slot t of the per-slot reference
// consumes uniforms 2t and 2t + 1 whichever dimension it belongs to.
// PerturbStream fills 2*128 uniforms per 128-slot block and hands
// dimension k the pairs of its active slots -- every d-th slot, offset by
// the round-robin phase -- as a stride-2d view, running each dimension's
// uploads as one SW chunk; the republished slots copy the last report.
#ifndef CAPP_MULTIDIM_SAMPLE_SPLIT_H_
#define CAPP_MULTIDIM_SAMPLE_SPLIT_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "multidim/budget_split.h"

namespace capp {

/// Sample-Split multi-dimensional perturbation.
class SampleSplitPerturber final : public MultiDimPerturber {
 public:
  /// `options.epsilon` is the total window budget; the uploading dimension
  /// spends eps / w at its slot.
  static Result<std::unique_ptr<SampleSplitPerturber>> Create(
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

 private:
  SampleSplitPerturber(std::vector<std::unique_ptr<StreamPerturber>> inner,
                       std::string name)
      : inner_(std::move(inner)), name_(std::move(name)),
        sw_uniforms_(inner_.front()->consumes_sw_uniforms()),
        last_report_(inner_.size(), 0.5) {}

  /// Per-slot epsilon of the uploading dimension.
  double SlotSpend() const {
    return inner_.front()->options().epsilon / inner_.front()->options().window;
  }

  std::vector<std::unique_ptr<StreamPerturber>> inner_;
  std::string name_;
  bool sw_uniforms_;  // as in BudgetSplitPerturber: fixed at Create
  std::vector<double> last_report_;
  size_t slot_ = 0;
  WEventAccountant* accountant_ = nullptr;
  // One dimension's active inputs/reports within a block, reused.
  std::vector<double> active_in_;
  std::vector<double> active_out_;
};

}  // namespace capp

#endif  // CAPP_MULTIDIM_SAMPLE_SPLIT_H_
