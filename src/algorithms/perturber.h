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
// The algorithms whose every slot is one Square Wave draw (sw-direct, IPP,
// APP, CAPP) write that slot once, as a template over the value type: at
// double it is their chunk loop, at internal::SwLanePair it runs kLanes
// independent streams in lockstep (ProcessSwLanes: eight users at d = 1,
// or the d budget-split dimensions of 8 / d users), bit-identical to the
// per-stream loop by construction.
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

/// SanitizeUnitValue per element of a lane pair, with the same result bit
/// for bit: a non-finite element (x - x is NaN, not 0) becomes 0.5, the
/// rest are clamped.
inline internal::SwLanePair SanitizeUnitValue(internal::SwLanePair x) {
  const internal::SwLaneMask finite = x - x == 0.0;
  return finite ? Clamp(x, 0.0, 1.0)
                : internal::Splat<internal::SwLanePair>(0.5);
}

/// Base class for user-side stream perturbation algorithms.
class StreamPerturber {
 public:
  /// Streams per lane-interleaved group (ProcessSwLanes).
  static constexpr size_t kLanes = internal::kSwLanes;
  /// The kLanes perturbers of one ProcessSwLanes group.
  using LaneGroup = std::span<StreamPerturber* const, kLanes>;

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

  /// Perturbs the next `in.size() / kLanes` slots of kLanes independent
  /// streams in lockstep. `in` and `out` are [slot][lane] blocks: in[t *
  /// kLanes + l] is slot t of lanes[l]'s stream. Each of the `rngs` (one,
  /// two, four or eight of them) feeds d = kLanes / rngs.size()
  /// consecutive lanes: lane u * d + k is stream k of the d that draw
  /// from rngs[u], which fills its block exactly as d such streams draw
  /// one slot at a time, stream by stream (slot t of stream k takes pair
  /// t * d + k). At d = 1 that is each lane's own ProcessChunk; at d > 1
  /// it is budget split's slot order, so lanes[u * d + k] can be user u's
  /// inner perturber k (BudgetSplitPerturber::inner). out[t * kLanes + l]
  /// receives exactly what the per-stream path reports, with the same RNG
  /// draws, ledger runs and slot counters afterwards. The algorithm's one
  /// SW slot formula runs two lanes per SwLanePair, with no branch on the
  /// data. Requires kLanes distinct perturbers of one concrete type with
  /// equal options and SW plans, all consumes_sw_uniforms(), and distinct
  /// RNGs; in and out must not overlap.
  static void ProcessSwLanes(LaneGroup lanes, std::span<Rng* const> rngs,
                             std::span<const double> in,
                             std::span<double> out);

  /// ProcessSwLanes over the dim-major streams of rngs.size() users: in[u]
  /// and out[u] hold d * slots values (d = kLanes / rngs.size()), stream k
  /// at [k * slots, (k + 1) * slots), and lane u * d + k runs user u's
  /// stream k. Transposes them into and out of [slot][lane] blocks held in
  /// `staging`. Inputs pass through unchanged: the slot formula sanitizes
  /// each one, as ProcessValue does.
  static void ProcessSwLaneStreams(LaneGroup lanes, std::span<Rng* const> rngs,
                                   std::span<const std::span<const double>> in,
                                   std::span<const std::span<double>> out,
                                   std::vector<double>& staging);

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
  /// is one Square Wave draw; then the algorithm supplies DoProcessSwChunk
  /// and DoProcessSwLanes.
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

  /// The SW slot loop of an algorithm whose consumes_sw_uniforms() is
  /// true, fed a uniform view (see ProcessChunkFromUniforms). ProcessChunk
  /// draws the blocks and calls it with stride 2. Inputs arrive
  /// unsanitized; the caller records the spend and advances the slot
  /// counter. The slot formula is a template over the value type, shared
  /// with DoProcessSwLanes.
  virtual void DoProcessSwChunk(std::span<const double> in,
                                std::span<double> out,
                                const double* uniforms, size_t stride);

  /// The lane-interleaved loop of the same algorithm, called on lanes[0]
  /// with `count` <= internal::kSwBlockSlots slots of [slot][lane] input
  /// and output, and the uniform blocks of the group's RNGs, one per
  /// `lanes_per_rng` lanes (see internal::ForEachSwLaneSlot). Loads each
  /// lane's feedback state, runs the slot formula at SwLanePair, and
  /// stores the state back; ProcessSwLanes does the rest.
  virtual void DoProcessSwLanes(LaneGroup lanes, const double* in,
                                double* out, const double* uniforms,
                                size_t lanes_per_rng, size_t count);

  /// internal::ForEachSwLaneSlot for an algorithm with one double of
  /// feedback state: loads `state` of the kLanes perturbers (all of type
  /// Algo) into lane pairs, runs slot(raw, state_pair, u1, u2) for every
  /// slot and lane pair, and stores the state back.
  template <typename Algo, typename Slot>
  static void ForEachSwLaneSlotWithState(LaneGroup lanes, double Algo::*state,
                                         const double* in, double* out,
                                         const double* uniforms,
                                         size_t lanes_per_rng, size_t count,
                                         Slot&& slot) {
    internal::SwLanePair pairs[kLanes / 2] = {};
    for (size_t p = 0; p < kLanes / 2; ++p) {
      pairs[p] = internal::SwLanePair{
          static_cast<const Algo*>(lanes[2 * p])->*state,
          static_cast<const Algo*>(lanes[2 * p + 1])->*state};
    }
    internal::ForEachSwLaneSlot(
        in, out, uniforms, lanes_per_rng, count,
        [&](size_t p, internal::SwLanePair raw, internal::SwLanePair u1,
            internal::SwLanePair u2) { return slot(raw, pairs[p], u1, u2); });
    for (size_t p = 0; p < kLanes / 2; ++p) {
      static_cast<Algo*>(lanes[2 * p])->*state = pairs[p][0];
      static_cast<Algo*>(lanes[2 * p + 1])->*state = pairs[p][1];
    }
  }

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
