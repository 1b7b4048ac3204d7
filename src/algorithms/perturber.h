// User-side stream perturbation algorithms (the paper's Section III-V).
//
// A StreamPerturber consumes one user's stream values in [0,1], one per time
// slot, and emits one perturbed report per slot while guaranteeing w-event
// epsilon-LDP. All algorithms keep only constant per-user state (the
// accumulated deviation, budget bank, etc.), matching the paper's on-device
// deployment model.
//
// The non-virtual interface pattern keeps slot counting and budget
// accounting in the base class so concrete algorithms cannot get them wrong.
#ifndef CAPP_ALGORITHMS_PERTURBER_H_
#define CAPP_ALGORITHMS_PERTURBER_H_

#include <cmath>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/rng.h"
#include "core/status.h"
#include "mechanisms/square_wave.h"
#include "stream/accountant.h"

namespace capp {

/// Configuration shared by all stream perturbation algorithms.
struct PerturberOptions {
  /// Total privacy budget available inside any window of `window` slots.
  double epsilon = 1.0;
  /// w-event window size (>= 1).
  int window = 10;
};

/// Validates common options (epsilon in (0, 50], window >= 1).
Status ValidatePerturberOptions(const PerturberOptions& options);

/// Maps arbitrary caller input into the [0,1] data domain: non-finite
/// values (sensor glitches) become the domain midpoint, everything else is
/// clamped. Applied by StreamPerturber::ProcessValue before any algorithm
/// sees the value, so downstream state can never be poisoned by a NaN.
/// Inline: runs once per slot on every perturbation path.
inline double SanitizeUnitValue(double x) {
  if (!std::isfinite(x)) return 0.5;
  if (x < 0.0) return 0.0;
  if (x > 1.0) return 1.0;
  return x;
}

/// Base class for user-side stream perturbation algorithms.
class StreamPerturber {
 public:
  virtual ~StreamPerturber() = default;

  /// Algorithm identifier ("sw-direct", "ipp", "app", "capp", ...).
  virtual std::string_view name() const = 0;

  /// True if the algorithm can produce one report per ProcessValue call.
  /// Sampling-based algorithms (PP-S) operate on whole subsequences only.
  virtual bool supports_online() const { return true; }

  /// Collector-side SMA window this algorithm's publication step calls for.
  /// The parameterized algorithms (IPP/APP/CAPP and their sampling
  /// variants) smooth with window 3 (Algorithm 2 line 13; Section VI-A);
  /// the baselines publish raw reports. 1 disables smoothing.
  virtual int publication_smoothing_window() const { return 1; }

  /// Perturbs the value of the next time slot and returns the report.
  /// Precondition: supports_online().
  double ProcessValue(double x, Rng& rng);

  /// Perturbs the next in.size() consecutive slots: out[i] is the report
  /// for in[i]. Bit-identical to calling ProcessValue per element (same
  /// sanitation, RNG draws, ledger state, and slot counter), but concrete
  /// algorithms amortize virtual dispatch, budget bookkeeping, and RNG
  /// block generation over the chunk. Requires supports_online() and
  /// out.size() == in.size(); in and out must not overlap.
  void ProcessChunk(std::span<const double> in, std::span<double> out,
                    Rng& rng);

  /// True when every slot is the Square Wave two-uniform sampler
  /// (mechanisms/square_wave.h): each slot consumes exactly two uniforms,
  /// so a caller may draw them itself and use ProcessChunkFromUniforms.
  /// Fixed at construction (see the protected constructor).
  bool consumes_sw_uniforms() const { return sw_plan_.has_value(); }

  /// ProcessChunk from caller-drawn uniforms: slot i consumes
  /// uniforms[i * stride] (band choice) and uniforms[i * stride + 1]
  /// (position). Bit-identical to ProcessChunk when those are the pairs it
  /// would have drawn, which lets a multi-dimensional strategy fill one
  /// block for all of its dimensions (multidim/budget_split.h). Requires
  /// consumes_sw_uniforms() and stride >= 2.
  void ProcessChunkFromUniforms(std::span<const double> in,
                                std::span<double> out,
                                const double* uniforms, size_t stride);

  /// Perturbs a whole subsequence; returns one report per input value.
  std::vector<double> PerturbSequence(std::span<const double> xs, Rng& rng);

  /// Clears all per-stream state (deviations, banks, slot counter).
  void Reset();

  /// Attaches a (non-owned) budget ledger; every subsequent spend is
  /// recorded against it. Pass nullptr to detach.
  void AttachAccountant(WEventAccountant* accountant) {
    accountant_ = accountant;
  }

  const PerturberOptions& options() const { return options_; }

  /// Number of slots processed since construction/Reset.
  size_t slots_processed() const { return slot_; }

 protected:
  /// `sw_plan` is PlanSwBatch of the algorithm's mechanism when every slot
  /// is one Square Wave draw; then the algorithm supplies DoProcessSwChunk.
  explicit StreamPerturber(PerturberOptions options,
                           std::optional<SwBatchPlan> sw_plan = std::nullopt)
      : options_(options), sw_plan_(sw_plan) {}

  /// The SW sampler setup; valid only when consumes_sw_uniforms().
  const SwBatchPlan& sw_plan() const { return *sw_plan_; }

  /// Per-slot hook implemented by concrete algorithms.
  virtual double DoProcessValue(double x, Rng& rng) = 0;

  /// Chunk hook of algorithms that do not consume SW uniforms; inputs
  /// arrive unsanitized (apply SanitizeUnitValue per element, exactly like
  /// the scalar path). The default loops DoProcessValue and advances the
  /// slot counter per element; overrides must preserve that observable
  /// behavior bit for bit.
  virtual void DoProcessChunk(std::span<const double> in,
                              std::span<double> out, Rng& rng);

  /// The one SW slot loop of an algorithm whose consumes_sw_uniforms() is
  /// true, fed a uniform view (see ProcessChunkFromUniforms). ProcessChunk
  /// draws the blocks and calls it with stride 2. Inputs arrive
  /// unsanitized; the override records the spend and advances the slot
  /// counter for the whole chunk.
  virtual void DoProcessSwChunk(std::span<const double> in,
                                std::span<double> out,
                                const double* uniforms, size_t stride);

  /// Whole-sequence hook; the default loops over DoProcessValue.
  virtual std::vector<double> DoPerturbSequence(std::span<const double> xs,
                                                Rng& rng);

  /// State-reset hook.
  virtual void DoReset() = 0;

  /// Records a privacy spend for the slot currently being processed.
  void RecordSpend(double epsilon);

  /// Records a uniform per-slot spend for the next `n` slots in one ledger
  /// operation (chunk overrides whose every slot spends the same budget).
  void RecordSpendRun(size_t n, double epsilon);

  /// Records a privacy spend for an explicit slot (used by sequence-level
  /// algorithms such as PP-S whose uploads are sparse).
  void RecordSpendAt(size_t slot, double epsilon);

  /// Advances the slot counter (sequence-level algorithms that bypass
  /// ProcessValue call this once per consumed input value).
  void AdvanceSlots(size_t n) { slot_ += n; }

 private:
  PerturberOptions options_;
  std::optional<SwBatchPlan> sw_plan_;
  WEventAccountant* accountant_ = nullptr;
  size_t slot_ = 0;
};

}  // namespace capp

#endif  // CAPP_ALGORITHMS_PERTURBER_H_
