// High-level deployment API pairing the two sides of the paper's Fig. 1:
//
//   * UserSession -- runs on each user's device. Wraps a stream
//     perturbation algorithm, the w-event budget ledger, and an auditable
//     per-slot report record. One call per time slot. It is the scalar
//     reference the engine is pinned against: the engine's fleet workers
//     run every d, d = 1 included, through MultidimPerturber
//     (multidim/multidim_perturber.h), whose d = 1 budget split reports
//     what this session reports, bit for bit, for finite inputs.
//   * CollectorSession -- runs at the untrusted collector. Ingests the
//     per-slot reports of many users, maintains per-user published streams
//     (with each algorithm's smoothing), per-slot population means, and
//     subsequence statistics. It is the scalar reference: it keeps every
//     user's raw reports in a plain unsharded map, while the engine's
//     ShardedCollector -- which scales to concurrent million-user fleets
//     -- keeps only per-slot aggregates. Population means go through the
//     same exact SlotAggregate sums, so the two agree bit for bit.
//
// The sessions are deliberately transport-agnostic: a report is just
// (user_id, slot, value); any RPC/MQTT/file transport can carry it.
#ifndef CAPP_STREAM_SESSION_H_
#define CAPP_STREAM_SESSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "algorithms/factory.h"
#include "algorithms/perturber.h"
#include "core/rng.h"
#include "core/status.h"
#include "stream/accountant.h"
#include "stream/report.h"
#include "stream/smoothing.h"

namespace capp {

/// Per-device session: perturb values as they arrive, with a built-in
/// privacy audit.
class UserSession {
 public:
  /// Creates a session for one user. `seed` drives the device's RNG.
  static Result<UserSession> Create(uint64_t user_id, AlgorithmKind kind,
                                    PerturberOptions options, uint64_t seed);

  // The perturber records spends against the ledger by address, so every
  // construction and move must re-point it at this object's ledger (the
  // null check keeps moved-from sessions harmless).
  UserSession(UserSession&& other) noexcept
      : user_id_(other.user_id_),
        perturber_(std::move(other.perturber_)),
        ledger_(std::move(other.ledger_)),
        rng_(other.rng_),
        clamp_scratch_(std::move(other.clamp_scratch_)) {
    if (perturber_) perturber_->AttachAccountant(&ledger_);
  }
  UserSession& operator=(UserSession&& other) noexcept {
    if (this == &other) return *this;
    user_id_ = other.user_id_;
    perturber_ = std::move(other.perturber_);
    ledger_ = std::move(other.ledger_);
    rng_ = other.rng_;
    clamp_scratch_ = std::move(other.clamp_scratch_);
    if (perturber_) perturber_->AttachAccountant(&ledger_);
    return *this;
  }

  /// Re-purposes this session for another user: algorithm state, budget
  /// ledger, and slot counter are reset and the RNG is reseeded, leaving
  /// the session indistinguishable from a freshly created one -- while the
  /// perturber and ledger allocations are reused, so a caller can pool one
  /// session for many users instead of paying a mechanism construction
  /// per user.
  void ResetForUser(uint64_t user_id, uint64_t seed);

  /// Perturbs the current slot's value and returns the outgoing report.
  /// Values are clamped into [0,1] (normalize upstream if necessary).
  SlotReport Report(double value);

  /// Perturbs values.size() consecutive slots in one call: out[i] is the
  /// report *value* for slot slots_processed()+i (the caller composes
  /// SlotReports, which keeps bulk producers free of per-report structs).
  /// Bit-identical to calling Report per element; the batched path is
  /// described at StreamPerturber::ProcessChunk. out.size() must equal
  /// values.size().
  void ReportChunk(std::span<const double> values, std::span<double> out);

  uint64_t user_id() const { return user_id_; }
  size_t slots_processed() const { return perturber_->slots_processed(); }

  /// The running privacy audit: OK iff no window overspent so far.
  Status AuditBudget() const {
    return ledger_.VerifyBudget(perturber_->options().window,
                                perturber_->options().epsilon);
  }

  /// Maximum budget spent in any window so far.
  double MaxWindowSpend() const {
    return ledger_.MaxWindowSpend(perturber_->options().window);
  }

 private:
  UserSession(uint64_t user_id, std::unique_ptr<StreamPerturber> perturber,
              uint64_t seed)
      : user_id_(user_id), perturber_(std::move(perturber)), rng_(seed) {
    perturber_->AttachAccountant(&ledger_);
  }

  uint64_t user_id_;
  std::unique_ptr<StreamPerturber> perturber_;
  WEventAccountant ledger_;
  Rng rng_;
  // ReportChunk's clamped inputs.
  std::vector<double> clamp_scratch_;
};

/// Collector-side session: ingest reports, publish streams and statistics.
/// Not thread-safe for writes: it is the scalar reference, one map per
/// user, with no sharding or locks (ShardedCollector is the concurrent
/// collector).
class CollectorSession {
 public:
  /// `smoothing_window` is the SMA applied to published per-user streams
  /// (odd; use the algorithm's recommendation, e.g. 3 for PP algorithms).
  static Result<CollectorSession> Create(int smoothing_window = 3);

  /// Ingests one report. Slots may arrive in any order per user; the
  /// stream is indexed by the report's slot, and a repeated (user, slot)
  /// pair overwrites (last write wins). A non-finite report is discarded
  /// before the user is registered; no library path emits one. The slot
  /// must be below the wire codec's cell index (kWireMaxCells, which
  /// LoadReportsCsv and frame decode enforce); a slot past it is a caller
  /// bug and aborts.
  void Ingest(const SlotReport& report);

  /// Number of users seen so far.
  size_t user_count() const { return streams_.size(); }

  /// Number of distinct slots seen for a user (0 if unknown).
  size_t SlotCount(uint64_t user_id) const;

  /// The user's published (smoothed) stream over slots [0, last report].
  /// Missing slots are filled with the user's last preceding report (0.5
  /// if none; see stream/gap_fill.h). NotFound for unknown users.
  Result<std::vector<double>> PublishedStream(uint64_t user_id) const;

  /// Mean of the user's reports over slots [begin, begin+len), counting
  /// only slots the user reported; an end past SIZE_MAX saturates there
  /// instead of wrapping. InvalidArgument for len == 0, NotFound for
  /// unknown users and intervals holding no report.
  Result<double> SubsequenceMean(uint64_t user_id, size_t begin,
                                 size_t len) const;

  /// Per-slot population mean over all users that reported that slot, for
  /// slots [0, max_slot], from exact SlotAggregate sums: bit-identical to
  /// ShardedCollector::PopulationSlotMeans over the session's current
  /// reports (one per user and slot). Slots nobody reported yield NaN.
  std::vector<double> PopulationSlotMeans() const;

 private:
  explicit CollectorSession(int smoothing_window)
      : smoothing_window_(smoothing_window) {}

  // Per user, its reports by slot.
  std::unordered_map<uint64_t, std::map<size_t, double>> streams_;
  int smoothing_window_;
};

}  // namespace capp

#endif  // CAPP_STREAM_SESSION_H_
