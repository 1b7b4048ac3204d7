#include "multidim/sample_split.h"

#include <algorithm>

#include "core/check.h"
#include "mechanisms/square_wave.h"

namespace capp {

Result<std::unique_ptr<SampleSplitPerturber>> SampleSplitPerturber::Create(
    size_t dimensions, PerturberOptions options, AlgorithmKind inner) {
  if (dimensions == 0) {
    return Status::InvalidArgument("dimensions must be >= 1");
  }
  CAPP_RETURN_IF_ERROR(ValidatePerturberOptions(options));
  // Each inner perturber keeps the full window budget: it uploads only on
  // its own slots, which occur once every `dimensions` slots, so the
  // combined ledger still sums to eps per window.
  std::vector<std::unique_ptr<StreamPerturber>> inners;
  inners.reserve(dimensions);
  for (size_t d = 0; d < dimensions; ++d) {
    CAPP_ASSIGN_OR_RETURN(auto p, CreatePerturber(inner, options));
    CAPP_RETURN_IF_ERROR(RequireOnlineInner(*p));
    inners.push_back(std::move(p));
  }
  std::string name = std::string(AlgorithmKindName(inner)) + "-ss";
  return std::unique_ptr<SampleSplitPerturber>(
      new SampleSplitPerturber(std::move(inners), std::move(name)));
}

std::vector<double> SampleSplitPerturber::ProcessVector(
    const std::vector<double>& x, Rng& rng) {
  CAPP_CHECK(x.size() == inner_.size());
  const size_t active = slot_ % inner_.size();
  std::vector<double> out = last_report_;
  // Only the active dimension perturbs (and spends) this slot; the inner
  // perturber's own accounting indexes its private upload counter, so the
  // shared ledger is written here with the true global slot index.
  const double report = inner_[active]->ProcessValue(x[active], rng);
  if (accountant_ != nullptr) accountant_->Record(slot_, SlotSpend());
  out[active] = report;
  last_report_[active] = report;
  ++slot_;
  return out;
}

void SampleSplitPerturber::PerturbStream(std::span<const double> truth,
                                         size_t slots, std::span<double> out,
                                         Rng& rng) {
  const size_t dims = inner_.size();
  CAPP_CHECK(truth.size() == dims * slots && out.size() == dims * slots);
  if (!sw_uniforms_) {
    PerturbStreamPerSlot(truth, slots, out, rng);
    return;
  }
  // Every slot spends the same eps / w on whichever dimension uploads.
  if (accountant_ != nullptr) accountant_->RecordRun(slot_, slots, SlotSpend());
  constexpr size_t kBlock = internal::kSwBlockSlots;
  double uniforms[2 * kBlock];
  active_in_.resize(kBlock);
  active_out_.resize(kBlock);
  for (size_t done = 0; done < slots; done += kBlock) {
    const size_t count = std::min(slots - done, kBlock);
    rng.FillUniform(std::span<double>(uniforms, 2 * count));
    const size_t phase = (slot_ + done) % dims;  // dimension of block slot 0
    for (size_t k = 0; k < dims; ++k) {
      // Dimension k uploads at block slots first, first + d, ...; slot t
      // owns pair t of the block.
      const size_t first = (k + dims - phase) % dims;
      std::span<const double> in_row = truth.subspan(k * slots + done, count);
      size_t uploads = 0;
      for (size_t t = first; t < count; t += dims) {
        active_in_[uploads++] = in_row[t];
      }
      if (uploads > 0) {
        inner_[k]->ProcessChunkFromUniforms(
            std::span(active_in_).first(uploads),
            std::span(active_out_).first(uploads), uniforms + 2 * first,
            2 * dims);
      }
      std::span<double> out_row = out.subspan(k * slots + done, count);
      double last = last_report_[k];
      for (size_t t = 0, j = 0; t < count; ++t) {
        if (j < uploads && t == first + j * dims) last = active_out_[j++];
        out_row[t] = last;
      }
      last_report_[k] = last;
    }
  }
  slot_ += slots;
}

void SampleSplitPerturber::Reset() {
  for (auto& p : inner_) p->Reset();
  std::fill(last_report_.begin(), last_report_.end(), 0.5);
  slot_ = 0;
}

void SampleSplitPerturber::AttachAccountant(WEventAccountant* accountant) {
  // The shared ledger is written by ProcessVector with global slot indices;
  // inner perturbers stay detached (their slot counters are per-dimension).
  accountant_ = accountant;
}

}  // namespace capp
