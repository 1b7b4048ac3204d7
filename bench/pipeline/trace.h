// Bench-side tracing for the pipeline benchmark: timers around every call
// the traced trial makes into a layer, taken from outside the program.
//
// Each thread owns a ThreadTrace holding exact per-layer totals (every
// user, every call) and a stack of open timers, so nested calls split
// into self times: a layer's self time is its inclusive time minus the
// time of the timers opened inside it on the same thread. Spans (name,
// start, end, span id, parent id, trace id) are kept in memory only for
// every kSampleEvery-th user and for the per-trial calls (setup, drain,
// flush, analyse, query), and are written out as Chrome trace-event JSON
// when the trial ends. A user's spans share its user id as trace id; span
// ids of user spans are a pure function of (user id, layer), which lets a
// consumer thread link its ingest span to the producer's publish span of
// the same user without any shared state.
#ifndef CAPP_BENCH_PIPELINE_TRACE_H_
#define CAPP_BENCH_PIPELINE_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "storage/collector_backend.h"

namespace capp::pipeline {

/// Layers the traced trial times. The first block repeats once per user;
/// the rest are per-trial calls.
enum Layer : uint8_t {
  kSynth,
  kPerturb,
  kPublish,
  kIngest,
  kWal,
  kSmooth,
  kReduce,
  kDigest,
  kUser,  // a sampled user's whole iteration (span only)
  kTrial,
  kCreate,
  kHub,
  kReserve,
  kDrain,
  kFlush,
  kAnalyze,
  kQueryAggregates,
  kQueryHistograms,
  kRecover,
  kLayerCount,
};

inline constexpr const char* kLayerNames[kLayerCount] = {
    "synth",   "perturb", "publish", "ingest",  "wal",
    "smooth",  "reduce",  "digest",  "user",    "trial",
    "create",  "hub",     "reserve", "drain",   "flush",
    "analyze", "query.aggregates",   "query.histograms", "recover"};

/// Layers a fleet worker runs for every user; their self times cover the
/// worker's loop, which is what other.share checks.
inline constexpr Layer kUserLayers[] = {kSynth,  kPerturb, kPublish,
                                        kIngest, kWal,     kSmooth,
                                        kReduce, kDigest};

/// Users whose spans are kept: every 64th.
inline constexpr uint64_t kSampleEvery = 64;

inline bool Sampled(uint64_t user_id) { return user_id % kSampleEvery == 0; }

/// Span id of one layer of one user's iteration (never 0).
inline uint64_t UserSpanId(uint64_t user_id, Layer layer) {
  return (user_id << 5) | (static_cast<uint64_t>(layer) + 1);
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  Layer layer;
  int64_t start_ns;
  int64_t end_ns;
  uint64_t span_id;
  uint64_t parent_id;  // 0 = root
  uint64_t trace_id;   // user id for user spans, 0 otherwise
};

/// One thread's timers. Not thread-safe: only its own thread touches it
/// until the trial's threads have all been joined.
class ThreadTrace {
 public:
  explicit ThreadTrace(uint32_t tid) : tid_(tid) {}

  /// Opens a timer on `layer`. A nonzero span_id also records a span;
  /// its parent is `parent_id` if given, else the enclosing open span.
  void Begin(Layer layer, uint64_t span_id = 0, uint64_t trace_id = 0,
             uint64_t parent_id = 0) {
    Push(layer, NowNs(), span_id, trace_id, parent_id);
  }

  /// Closes the innermost open timer.
  void End() { Pop(NowNs()); }

  /// Closes the innermost timer and opens the next one at the same
  /// instant, so back-to-back layers leave no untimed gap between them.
  void Next(Layer layer, uint64_t span_id = 0, uint64_t trace_id = 0) {
    const int64_t now = NowNs();
    Pop(now);
    Push(layer, now, span_id, trace_id, 0);
  }

  /// Self time of `layer` on this thread, in ns.
  int64_t SelfNs(Layer layer) const {
    return inclusive_[layer] - children_[layer];
  }
  int64_t InclusiveNs(Layer layer) const { return inclusive_[layer]; }
  uint64_t Calls(Layer layer) const { return calls_[layer]; }

  /// True when no timer is open on this thread.
  bool idle() const { return depth_ == 0; }

  /// Set by fleet worker threads (the ParallelFor body), with the end of
  /// the last chunk the thread finished: a worker is active from the
  /// loop's start until then, and idle while it waits to be joined.
  bool worker = false;
  int64_t active_until_ns = 0;

  uint32_t tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  struct Open {
    Layer layer;
    int64_t start_ns;
    uint64_t span_id;
    uint64_t trace_id;
    uint64_t parent_id;
  };

  void Push(Layer layer, int64_t now, uint64_t span_id, uint64_t trace_id,
            uint64_t parent_id) {
    if (parent_id == 0 && depth_ > 0) parent_id = stack_[depth_ - 1].span_id;
    stack_.at(depth_++) = {layer, now, span_id, trace_id, parent_id};
  }

  void Pop(int64_t now) {
    const Open open = stack_.at(--depth_);
    const int64_t duration = now - open.start_ns;
    inclusive_[open.layer] += duration;
    ++calls_[open.layer];
    if (depth_ > 0) children_[stack_[depth_ - 1].layer] += duration;
    if (open.span_id != 0) {
      spans_.push_back({open.layer, open.start_ns, now, open.span_id,
                        open.parent_id, open.trace_id});
    }
  }

  uint32_t tid_;
  std::array<Open, 8> stack_{};
  size_t depth_ = 0;
  std::array<int64_t, kLayerCount> inclusive_{};
  std::array<int64_t, kLayerCount> children_{};
  std::array<uint64_t, kLayerCount> calls_{};
  std::vector<Span> spans_;
};

/// Owns every thread's ThreadTrace for one traced trial.
class Tracer {
 public:
  Tracer() : generation_(NextGeneration()), origin_ns_(NowNs()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The calling thread's trace, created on its first call. A cached
  /// pointer is reused only while it belongs to this tracer's generation,
  /// so a thread that outlives one trial starts clean in the next.
  ThreadTrace& Local() {
    thread_local uint64_t cached_generation = 0;
    thread_local ThreadTrace* cached = nullptr;
    if (cached_generation != generation_) {
      std::lock_guard<std::mutex> lock(mu_);
      threads_.push_back(std::make_unique<ThreadTrace>(
          static_cast<uint32_t>(threads_.size())));
      cached = threads_.back().get();
      cached_generation = generation_;
    }
    return *cached;
  }

  /// A fresh id for a per-trial span (disjoint from user span ids).
  uint64_t NewSpanId() {
    return (uint64_t{1} << 63) | next_id_.fetch_add(1);
  }

  /// Every thread's trace; read only after the trial's threads joined.
  const std::vector<std::unique_ptr<ThreadTrace>>& threads() const {
    return threads_;
  }

  /// Self time of `layer` summed over the threads `worker` selects
  /// (true: fleet workers, false: every other thread).
  int64_t SelfNs(Layer layer, bool worker) const {
    int64_t total = 0;
    for (const auto& t : threads_) {
      if (t->worker == worker) total += t->SelfNs(layer);
    }
    return total;
  }
  int64_t SelfNs(Layer layer) const {
    return SelfNs(layer, true) + SelfNs(layer, false);
  }
  int64_t InclusiveNs(Layer layer) const {
    int64_t total = 0;
    for (const auto& t : threads_) total += t->InclusiveNs(layer);
    return total;
  }
  uint64_t Calls(Layer layer) const {
    uint64_t total = 0;
    for (const auto& t : threads_) total += t->Calls(layer);
    return total;
  }

  /// Spans whose parent id names no recorded span (0 when consistent).
  size_t UnresolvedParents() const {
    std::unordered_set<uint64_t> ids;
    for (const auto& t : threads_) {
      for (const Span& s : t->spans()) ids.insert(s.span_id);
    }
    size_t missing = 0;
    for (const auto& t : threads_) {
      for (const Span& s : t->spans()) {
        if (s.parent_id != 0 && ids.count(s.parent_id) == 0) ++missing;
      }
    }
    return missing;
  }

  size_t SpanCount() const {
    size_t n = 0;
    for (const auto& t : threads_) n += t->spans().size();
    return n;
  }

  /// Writes every span as a Chrome trace-event ("ph": "X") JSON file.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\": [\n", f);
    bool first = true;
    for (const auto& t : threads_) {
      for (const Span& s : t->spans()) {
        std::fprintf(
            f,
            "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
            "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span_id\": "
            "\"%" PRIx64 "\", \"parent_id\": \"%" PRIx64
            "\", \"trace_id\": %" PRIu64 "}}",
            first ? "" : ",\n", kLayerNames[s.layer], t->tid(),
            static_cast<double>(s.start_ns - origin_ns_) / 1e3,
            static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.span_id,
            s.parent_id, s.trace_id);
        first = false;
      }
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  static uint64_t NextGeneration() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1);
  }

  const uint64_t generation_;
  const int64_t origin_ns_;
  std::atomic<uint64_t> next_id_{1};
  std::mutex mu_;  // guards threads_ while threads register
  std::vector<std::unique_ptr<ThreadTrace>> threads_;
};

/// A CollectorBackend decorator that times ingest on whichever thread
/// calls it: a fleet worker under kDirect, a transport consumer under the
/// queued kinds. Every other call forwards untimed.
class TimedBackend final : public CollectorBackend {
 public:
  TimedBackend(CollectorBackend* inner, Tracer* tracer, Layer layer)
      : inner_(inner), tracer_(tracer), layer_(layer) {}

  void IngestUserRun(uint64_t user_id, size_t base_slot,
                     std::span<const double> values) override {
    Open(user_id);
    inner_->IngestUserRun(user_id, base_slot, values);
    tracer_->Local().End();
  }
  void IngestUserRun(uint64_t user_id, size_t base_slot, size_t dims,
                     std::span<const double> values) override {
    Open(user_id);
    inner_->IngestUserRun(user_id, base_slot, dims, values);
    tracer_->Local().End();
  }

  void ReserveUsers(size_t expected_users) override {
    inner_->ReserveUsers(expected_users);
  }
  size_t dims() const override { return inner_->dims(); }
  size_t user_count() const override { return inner_->user_count(); }
  size_t report_count() const override { return inner_->report_count(); }
  uint64_t saturated_report_count() const override {
    return inner_->saturated_report_count();
  }
  size_t SlotSpan() const override { return inner_->SlotSpan(); }
  bool Contains(uint64_t user_id) const override {
    return inner_->Contains(user_id);
  }
  size_t ShardIndexOf(uint64_t user_id) const override {
    return inner_->ShardIndexOf(user_id);
  }
  std::vector<SlotAggregate> PopulationSlotAggregates() const override {
    return inner_->PopulationSlotAggregates();
  }
  Result<std::vector<std::vector<uint64_t>>> PopulationSlotHistograms()
      const override {
    return inner_->PopulationSlotHistograms();
  }
  uint64_t histogram_outlier_count() const override {
    return inner_->histogram_outlier_count();
  }
  size_t num_shards() const override { return inner_->num_shards(); }
  Result<CollectorShardState> ExportShardState(size_t shard) const override {
    return inner_->ExportShardState(shard);
  }
  Status RestoreShardState(size_t shard,
                           CollectorShardState state) override {
    return inner_->RestoreShardState(shard, std::move(state));
  }

 private:
  // A sampled user's ingest span hangs off the enclosing open span on
  // this thread (the worker's publish, or the WAL decorator's span); on a
  // consumer thread nothing is open, and the parent is the producer's
  // publish span of the same user.
  void Open(uint64_t user_id) {
    ThreadTrace& trace = tracer_->Local();
    if (!Sampled(user_id)) {
      trace.Begin(layer_);
      return;
    }
    trace.Begin(layer_, UserSpanId(user_id, layer_), user_id,
                trace.idle() ? UserSpanId(user_id, kPublish) : 0);
  }

  CollectorBackend* inner_;
  Tracer* tracer_;
  Layer layer_;
};

}  // namespace capp::pipeline

#endif  // CAPP_BENCH_PIPELINE_TRACE_H_
