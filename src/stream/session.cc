#include "stream/session.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "core/check.h"
#include "core/math_utils.h"
#include "storage/collector_backend.h"
#include "stream/gap_fill.h"
#include "transport/wire_format.h"

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

Result<CollectorSession> CollectorSession::Create(int smoothing_window) {
  if (smoothing_window < 1 || smoothing_window % 2 == 0) {
    return Status::InvalidArgument("smoothing_window must be odd and >= 1");
  }
  return CollectorSession(smoothing_window);
}

void CollectorSession::Ingest(const SlotReport& report) {
  if (!std::isfinite(report.value)) return;
  CAPP_CHECK(report.slot < kWireMaxCells);
  streams_[report.user_id][report.slot] = report.value;
}

size_t CollectorSession::SlotCount(uint64_t user_id) const {
  const auto it = streams_.find(user_id);
  return it == streams_.end() ? 0 : it->second.size();
}

Result<std::vector<double>> CollectorSession::PublishedStream(
    uint64_t user_id) const {
  const auto it = streams_.find(user_id);
  if (it == streams_.end()) return Status::NotFound("unknown user");
  const std::map<size_t, double>& reports = it->second;
  std::vector<double> raw(reports.rbegin()->first + 1,
                          std::numeric_limits<double>::quiet_NaN());
  for (const auto& [slot, value] : reports) raw[slot] = value;
  return SimpleMovingAverage(FillGapsForward(raw), smoothing_window_);
}

Result<double> CollectorSession::SubsequenceMean(uint64_t user_id,
                                                 size_t begin,
                                                 size_t len) const {
  if (len == 0) return Status::InvalidArgument("len must be >= 1");
  const auto it = streams_.find(user_id);
  if (it == streams_.end()) return Status::NotFound("unknown user");
  // Saturate rather than wrap, and visit only the stored reports.
  const size_t end = len > SIZE_MAX - begin ? SIZE_MAX : begin + len;
  KahanSum sum;
  size_t count = 0;
  for (auto report = it->second.lower_bound(begin);
       report != it->second.end() && report->first < end; ++report) {
    sum.Add(report->second);
    ++count;
  }
  if (count == 0) {
    return Status::NotFound("no reports in the requested interval");
  }
  return sum.Total() / static_cast<double>(count);
}

std::vector<double> CollectorSession::PopulationSlotMeans() const {
  size_t span = 0;
  for (const auto& [user, reports] : streams_) {
    span = std::max(span, reports.rbegin()->first + 1);
  }
  std::vector<SlotAggregate> aggregates(span);
  for (const auto& [user, reports] : streams_) {
    for (const auto& [slot, value] : reports) aggregates[slot].Add(value);
  }
  std::vector<double> means(span, std::numeric_limits<double>::quiet_NaN());
  for (size_t t = 0; t < span; ++t) {
    if (aggregates[t].Count() > 0) means[t] = aggregates[t].Mean();
  }
  return means;
}

}  // namespace capp
