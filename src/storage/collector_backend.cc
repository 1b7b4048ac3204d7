#include "storage/collector_backend.h"

namespace capp {
namespace {

// FNV-1a over the 8 bytes of `word`, the same byte chain the fleet's
// stream digest uses (engine/fleet.cc); duplicated here because storage
// must not depend on the engine layer.
inline uint64_t FnvMixWord(uint64_t h, uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (word >> (8 * byte)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

constexpr uint64_t kFnvOffsetBasis = 0xCBF29CE484222325ULL;

}  // namespace

double SlotAggregate::Mean() const {
  if (count_ == 0) return 0.0;
  return (static_cast<double>(sum_) / kSumScale) /
         static_cast<double>(count_);
}

double SlotAggregate::M2() const {
  if (count_ == 0) return 0.0;
  const double sx = static_cast<double>(sum_) / kSumScale;
  const double sxx = static_cast<double>(sum_sq_) / kSqScale;
  const double m2 = sxx - sx * sx / static_cast<double>(count_);
  // The quantized squares and the double conversions can leave a tiny
  // negative residue for near-constant slots.
  return m2 < 0.0 ? 0.0 : m2;
}

void CollectorBackend::IngestUserRuns(size_t dims,
                                      std::span<const UserRun> runs) {
  for (const UserRun& run : runs) {
    if (dims == 1) {
      IngestUserRun(run.user_id, run.base_slot, run.values);
    } else {
      IngestUserRun(run.user_id, run.base_slot, dims, run.values);
    }
  }
}

uint64_t CollectorStateDigest(const CollectorBackend& backend) {
  uint64_t h = kFnvOffsetBasis;
  h = FnvMixWord(h, static_cast<uint64_t>(backend.user_count()));
  h = FnvMixWord(h, static_cast<uint64_t>(backend.report_count()));
  const std::vector<SlotAggregate> aggregates =
      backend.PopulationSlotAggregates();
  h = FnvMixWord(h, static_cast<uint64_t>(aggregates.size()));
  for (const SlotAggregate& aggregate : aggregates) {
    const SlotAggregate::Packed packed = aggregate.ToPacked();
    h = FnvMixWord(h, packed.count);
    h = FnvMixWord(h, packed.sum_hi);
    h = FnvMixWord(h, packed.sum_lo);
    h = FnvMixWord(h, packed.sum_sq_hi);
    h = FnvMixWord(h, packed.sum_sq_lo);
  }
  const auto histograms = backend.PopulationSlotHistograms();
  if (histograms.ok()) {
    for (const std::vector<uint64_t>& row : *histograms) {
      for (uint64_t bin : row) h = FnvMixWord(h, bin);
    }
  }
  return h;
}

}  // namespace capp
