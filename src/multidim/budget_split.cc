#include "multidim/budget_split.h"

#include <algorithm>

#include "core/check.h"
#include "mechanisms/square_wave.h"

namespace capp {

Result<std::unique_ptr<BudgetSplitPerturber>> BudgetSplitPerturber::Create(
    size_t dimensions, PerturberOptions options, AlgorithmKind inner) {
  if (dimensions == 0) {
    return Status::InvalidArgument("dimensions must be >= 1");
  }
  CAPP_RETURN_IF_ERROR(ValidatePerturberOptions(options));
  PerturberOptions per_dim = options;
  per_dim.epsilon = options.epsilon / static_cast<double>(dimensions);
  std::vector<std::unique_ptr<StreamPerturber>> inners;
  inners.reserve(dimensions);
  for (size_t d = 0; d < dimensions; ++d) {
    CAPP_ASSIGN_OR_RETURN(auto p, CreatePerturber(inner, per_dim));
    inners.push_back(std::move(p));
  }
  std::string name = std::string(AlgorithmKindName(inner)) + "-bs";
  return std::unique_ptr<BudgetSplitPerturber>(
      new BudgetSplitPerturber(std::move(inners), std::move(name)));
}

void MultiDimPerturber::PerturbStreamPerSlot(std::span<const double> truth,
                                             size_t slots,
                                             std::span<double> out, Rng& rng) {
  const size_t dims = dimensions();
  std::vector<double> x(dims);
  for (size_t t = 0; t < slots; ++t) {
    for (size_t k = 0; k < dims; ++k) x[k] = truth[k * slots + t];
    const std::vector<double> y = ProcessVector(x, rng);
    for (size_t k = 0; k < dims; ++k) out[k * slots + t] = y[k];
  }
}

std::vector<double> BudgetSplitPerturber::ProcessVector(
    const std::vector<double>& x, Rng& rng) {
  CAPP_CHECK(x.size() == inner_.size());
  std::vector<double> out;
  out.reserve(x.size());
  for (size_t d = 0; d < x.size(); ++d) {
    out.push_back(inner_[d]->ProcessValue(x[d], rng));
  }
  return out;
}

void BudgetSplitPerturber::PerturbStream(std::span<const double> truth,
                                         size_t slots, std::span<double> out,
                                         Rng& rng) {
  const size_t dims = inner_.size();
  CAPP_CHECK(truth.size() == dims * slots && out.size() == dims * slots);
  if (!sw_uniforms_) {
    PerturbStreamPerSlot(truth, slots, out, rng);
    return;
  }
  // Slot t of dimension k takes pair t*d + k of the block, exactly where
  // the per-slot loop above would have drawn it.
  constexpr size_t kBlock = internal::kSwBlockSlots;
  uniforms_.resize(2 * dims * kBlock);
  for (size_t done = 0; done < slots; done += kBlock) {
    const size_t count = std::min(slots - done, kBlock);
    rng.FillUniform(std::span(uniforms_).first(2 * dims * count));
    for (size_t k = 0; k < dims; ++k) {
      inner_[k]->ProcessChunkFromUniforms(
          truth.subspan(k * slots + done, count),
          out.subspan(k * slots + done, count), uniforms_.data() + 2 * k,
          2 * dims);
    }
  }
}

void BudgetSplitPerturber::PerturbLanes(
    std::span<BudgetSplitPerturber* const> group, std::span<Rng* const> rngs,
    std::span<const std::span<const double>> truth,
    std::span<const std::span<double>> out) {
  constexpr size_t kLanes = StreamPerturber::kLanes;
  CAPP_CHECK(!group.empty() && rngs.size() == group.size());
  const size_t dims = group[0]->dimensions();
  CAPP_CHECK(group.size() * dims == kLanes);
  StreamPerturber* lanes[kLanes] = {};
  for (size_t u = 0; u < group.size(); ++u) {
    CAPP_CHECK(group[u]->supports_lanes() && group[u]->dimensions() == dims);
    for (size_t k = 0; k < dims; ++k) {
      lanes[u * dims + k] = group[u]->inner_[k].get();
    }
  }
  StreamPerturber::ProcessSwLaneStreams(lanes, rngs, truth, out,
                                        /*clamp=*/false, group[0]->uniforms_);
}

void BudgetSplitPerturber::Reset() {
  for (auto& p : inner_) p->Reset();
}

void BudgetSplitPerturber::AttachAccountant(WEventAccountant* accountant) {
  // All dimensions share the ledger: per-slot spends add across dimensions,
  // so VerifyBudget checks the total multi-dimensional window spend.
  for (auto& p : inner_) p->AttachAccountant(accountant);
}

}  // namespace capp
