#include "stream/session.h"

#include <utility>

#include "core/check.h"
#include "core/math_utils.h"

namespace capp {

Result<UserSession> UserSession::Create(uint64_t user_id, AlgorithmKind kind,
                                        PerturberOptions options,
                                        uint64_t seed) {
  CAPP_ASSIGN_OR_RETURN(std::unique_ptr<StreamPerturber> perturber,
                        CreatePerturber(kind, options));
  if (!perturber->supports_online()) {
    return Status::InvalidArgument(
        "sampling algorithms need whole subsequences; use PerturbSequence "
        "directly instead of a UserSession");
  }
  return UserSession(user_id, std::move(perturber), seed);
}

void UserSession::ResetForUser(uint64_t user_id, uint64_t seed) {
  user_id_ = user_id;
  perturber_->Reset();
  ledger_.Reset();
  rng_ = Rng(seed);
}

SlotReport UserSession::Report(double value) {
  SlotReport report;
  report.user_id = user_id_;
  report.slot = perturber_->slots_processed();
  report.value = perturber_->ProcessValue(Clamp(value, 0.0, 1.0), rng_);
  return report;
}

void UserSession::ReportChunk(std::span<const double> values,
                              std::span<double> out) {
  clamp_scratch_.resize(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    clamp_scratch_[i] = Clamp(values[i], 0.0, 1.0);
  }
  perturber_->ProcessChunk(clamp_scratch_, out, rng_);
}

void UserSession::ReportLanes(
    std::span<UserSession, StreamPerturber::kLanes> group,
    const std::array<std::span<const double>, StreamPerturber::kLanes>&
        values,
    const std::array<std::span<double>, StreamPerturber::kLanes>& out) {
  constexpr size_t kLanes = StreamPerturber::kLanes;
  const size_t n = values[0].size();
  StreamPerturber* perturbers[kLanes] = {};
  Rng* rngs[kLanes] = {};
  for (size_t l = 0; l < kLanes; ++l) {
    CAPP_CHECK(values[l].size() == n && out[l].size() == n);
    perturbers[l] = group[l].perturber_.get();
    rngs[l] = &group[l].rng_;
  }
  // Transpose in (with ReportChunk's clamp) and out of [slot][lane].
  std::vector<double>& staging = group[0].clamp_scratch_;
  staging.resize(2 * kLanes * n);
  const std::span<double> lane_in(staging.data(), kLanes * n);
  const std::span<double> lane_out(staging.data() + kLanes * n, kLanes * n);
  for (size_t l = 0; l < kLanes; ++l) {
    for (size_t t = 0; t < n; ++t) {
      lane_in[t * kLanes + l] = Clamp(values[l][t], 0.0, 1.0);
    }
  }
  StreamPerturber::ProcessSwLanes(perturbers, rngs, lane_in, lane_out);
  for (size_t l = 0; l < kLanes; ++l) {
    for (size_t t = 0; t < n; ++t) out[l][t] = lane_out[t * kLanes + l];
  }
}

Result<CollectorSession> CollectorSession::Create(int smoothing_window) {
  if (smoothing_window < 1 || smoothing_window % 2 == 0) {
    return Status::InvalidArgument("smoothing_window must be odd and >= 1");
  }
  CAPP_ASSIGN_OR_RETURN(ShardedCollector backend, ShardedCollector::Create());
  return CollectorSession(smoothing_window, std::move(backend));
}

void CollectorSession::Ingest(const SlotReport& report) {
  backend_.Ingest(report);
}

Result<std::vector<double>> CollectorSession::PublishedStream(
    uint64_t user_id) const {
  CAPP_ASSIGN_OR_RETURN(std::vector<double> filled,
                        backend_.GapFilledStream(user_id));
  return SimpleMovingAverage(filled, smoothing_window_);
}

}  // namespace capp
