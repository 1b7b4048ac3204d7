#include "multidim/multidim_perturber.h"

#include <string>
#include <utility>

#include "core/check.h"
#include "multidim/sample_split.h"

namespace capp {

std::string_view MultidimStrategyName(MultidimStrategy strategy) {
  switch (strategy) {
    case MultidimStrategy::kBudgetSplit:
      return "budget_split";
    case MultidimStrategy::kSampleSplit:
      return "sample_split";
  }
  return "unknown";
}

Result<MultidimStrategy> ParseMultidimStrategy(std::string_view name) {
  for (MultidimStrategy strategy : {MultidimStrategy::kBudgetSplit,
                                    MultidimStrategy::kSampleSplit}) {
    if (name == MultidimStrategyName(strategy)) return strategy;
  }
  return Status::InvalidArgument("unknown multidim strategy: " +
                                 std::string(name));
}

Result<MultidimPerturber> MultidimPerturber::Create(
    size_t dims, MultidimStrategy strategy, PerturberOptions options,
    AlgorithmKind inner) {
  if (dims == 0) return Status::InvalidArgument("dims must be >= 1");
  // One dimension has nothing to split: budget split at d = 1 is the
  // scalar algorithm at eps / w.
  if (dims == 1) strategy = MultidimStrategy::kBudgetSplit;
  std::unique_ptr<MultiDimPerturber> impl;
  bool lanes = false;
  switch (strategy) {
    case MultidimStrategy::kBudgetSplit: {
      CAPP_ASSIGN_OR_RETURN(auto budget_split,
                            BudgetSplitPerturber::Create(dims, options, inner));
      lanes = budget_split->supports_lanes();
      impl = std::move(budget_split);
      break;
    }
    case MultidimStrategy::kSampleSplit: {
      CAPP_ASSIGN_OR_RETURN(
          impl, SampleSplitPerturber::Create(dims, options, inner));
      break;
    }
  }
  return MultidimPerturber(std::move(impl), lanes);
}

MultidimPerturber::MultidimPerturber(std::unique_ptr<MultiDimPerturber> impl,
                                     bool lanes)
    : impl_(std::move(impl)),
      lanes_(lanes),
      ledger_(std::make_unique<WEventAccountant>()) {
  impl_->AttachAccountant(ledger_.get());
}

void MultidimPerturber::ResetForUser(uint64_t seed) {
  impl_->Reset();
  ledger_->Reset();
  rng_ = Rng(seed);
}

void MultidimPerturber::PerturbStream(std::span<const double> truth,
                                      size_t slots,
                                      std::vector<double>& out) {
  const size_t dims = impl_->dimensions();
  CAPP_CHECK(truth.size() == dims * slots);
  out.resize(dims * slots);
  impl_->PerturbStream(truth, slots, out, rng_);
}

void MultidimPerturber::PerturbLanes(
    std::span<MultidimPerturber> group,
    std::span<const std::span<const double>> truths,
    std::span<const std::span<double>> out) {
  constexpr size_t kLanes = StreamPerturber::kLanes;
  CAPP_CHECK(group.size() <= kLanes);
  BudgetSplitPerturber* impls[kLanes] = {};
  Rng* rngs[kLanes] = {};
  for (size_t u = 0; u < group.size(); ++u) {
    CAPP_CHECK(group[u].supports_lanes());
    // supports_lanes() is set only for budget split (see Create).
    impls[u] = static_cast<BudgetSplitPerturber*>(group[u].impl_.get());
    rngs[u] = &group[u].rng_;
  }
  BudgetSplitPerturber::PerturbLanes(
      std::span<BudgetSplitPerturber* const>(impls, group.size()),
      std::span<Rng* const>(rngs, group.size()), truths, out);
}

}  // namespace capp
