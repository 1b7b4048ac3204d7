// One untraced trial of a workload through the shipped Fleet::Create /
// Fleet::Run path, plus the pieces the traced trial shares with it: the
// live reader, WAL recovery, and the check of the collector's result
// against the fleet's own reference.
#ifndef CAPP_BENCH_PIPELINE_TRIAL_H_
#define CAPP_BENCH_PIPELINE_TRIAL_H_

#include <stdlib.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/streaming_analytics.h"
#include "engine/engine_config.h"
#include "engine/fleet.h"
#include "engine/sharded_collector.h"
#include "pipeline/trace.h"
#include "pipeline/workloads.h"
#include "storage/durable_collector.h"
#include "stream/smoothing.h"

namespace capp::pipeline {

/// A fresh directory under TMPDIR, removed with everything in it on
/// destruction. Holds a trial's WAL.
class ScratchDir {
 public:
  ScratchDir() {
    std::error_code ec;
    std::string pattern =
        (std::filesystem::temp_directory_path(ec) / "capp-pipeline-XXXXXX")
            .string();
    if (!ec && ::mkdtemp(pattern.data()) != nullptr) path_ = pattern;
  }
  ~ScratchDir() {
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  /// Empty when the directory could not be created.
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The empty collector Fleet::Create builds for `config`.
inline Result<ShardedCollector> CreateCollector(const EngineConfig& config) {
  ShardedCollectorOptions options;
  options.num_shards = config.num_shards;
  options.keep_streams = config.keep_streams;
  options.dims = config.dims;
  options.single_writer = config.transport.owned_shards;
  if (config.analytics.enabled) {
    CAPP_ASSIGN_OR_RETURN(options.histogram,
                          StreamingAnalyzer::CollectorHistogramOptions(
                              PerSlotBudget(config),
                              config.analytics.histogram_buckets));
  }
  return ShardedCollector::Create(options);
}

/// The durable tier Fleet::Create builds for `config`.
inline DurableCollectorOptions DurableOptionsFor(const EngineConfig& config) {
  DurableCollectorOptions options;
  options.wal.dir = config.durability.dir;
  options.wal.fingerprint = EngineConfigFingerprint(config);
  options.wal.fsync_policy = config.durability.fsync_policy;
  options.wal.fsync_every_frames = config.durability.fsync_every_frames;
  options.wal.fsync_interval_ms = config.durability.fsync_interval_ms;
  options.checkpoint_every_runs = config.durability.checkpoint_every_runs;
  return options;
}

/// The analyzer live_d4 runs over each attribute after the drain.
inline Result<StreamingAnalyzer> AnalyzerFor(const EngineConfig& config) {
  StreamingAnalyzerOptions options;
  options.epsilon_per_slot = PerSlotBudget(config);
  options.histogram_buckets = config.analytics.histogram_buckets;
  options.window = static_cast<size_t>(config.window);
  return StreamingAnalyzer::Create(options);
}

/// Reads the collector's population snapshot -- aggregates, then
/// histograms -- every 2 ms on its own thread until stopped: the live
/// reader beside ingest. With a tracer, every read is also a pair of
/// spans under `parent_span`.
class LiveReader {
 public:
  LiveReader(const ShardedCollector* collector, Tracer* tracer,
             uint64_t parent_span)
      : collector_(collector),
        tracer_(tracer),
        parent_span_(parent_span),
        thread_([this] { Loop(); }) {}
  ~LiveReader() { Stop(); }
  LiveReader(const LiveReader&) = delete;
  LiveReader& operator=(const LiveReader&) = delete;

  /// Stops and joins the reader; returns each read's latency in ms.
  const std::vector<double>& Stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
    return latencies_ms_;
  }
  /// False if any histogram read failed (valid after Stop).
  bool ok() const { return ok_; }

 private:
  void Loop() {
    constexpr auto kInterval = std::chrono::milliseconds(2);
    auto next = std::chrono::steady_clock::now();
    while (!stop_.load(std::memory_order_relaxed)) {
      const int64_t start = NowNs();
      Open(kQueryAggregates);
      const std::vector<SlotAggregate> aggregates =
          collector_->PopulationSlotAggregates();
      Close();
      Open(kQueryHistograms);
      const auto histograms = collector_->PopulationSlotHistograms();
      Close();
      ok_ = ok_ && histograms.ok();
      latencies_ms_.push_back(static_cast<double>(NowNs() - start) / 1e6);
      next += kInterval;
      const auto now = std::chrono::steady_clock::now();
      if (next < now) {
        next = now;  // a read overran its slot: restart the cadence
      } else {
        std::this_thread::sleep_until(next);
      }
    }
  }
  void Open(Layer layer) {
    if (tracer_ != nullptr) {
      tracer_->Local().Begin(layer, tracer_->NewSpanId(), 0, parent_span_);
    }
  }
  void Close() {
    if (tracer_ != nullptr) tracer_->Local().End();
  }

  const ShardedCollector* collector_;
  Tracer* tracer_;
  uint64_t parent_span_;
  std::atomic<bool> stop_{false};
  bool ok_ = true;
  std::vector<double> latencies_ms_;
  std::thread thread_;  // last: starts once everything above exists
};

struct Recovery {
  Status status;
  double seconds = 0.0;
  uint64_t state_digest = 0;
};

/// Replays the WAL under config.durability.dir into a fresh collector, as
/// a restarted collector would, timing DurableCollector::Create.
inline Recovery RecoverWal(const EngineConfig& config) {
  Recovery recovery;
  auto collector = CreateCollector(config);
  if (!collector.ok()) {
    recovery.status = collector.status();
    return recovery;
  }
  const int64_t start = NowNs();
  auto durable =
      DurableCollector::Create(&*collector, DurableOptionsFor(config));
  recovery.seconds = static_cast<double>(NowNs() - start) / 1e9;
  if (!durable.ok()) {
    recovery.status = durable.status();
    return recovery;
  }
  recovery.state_digest = CollectorStateDigest(*collector);
  return recovery;
}

/// The collector's published result against the reference the fleet
/// computes device-side from the same reports, before any transport or
/// storage touches them: every (dimension, slot) cell counts each user
/// once, and the smoothed collector means equal
/// EngineStats::published_slot_means.
inline bool ResultMatchesReference(const ShardedCollector& collector,
                                   const EngineStats& stats,
                                   int smoothing_window) {
  const size_t dims = stats.dims;
  const size_t slots = stats.slots;
  const std::vector<SlotAggregate> cells = collector.PopulationSlotAggregates();
  if (cells.size() != dims * slots ||
      stats.published_slot_means.size() != dims * slots) {
    return false;
  }
  std::vector<double> row(slots);
  for (size_t k = 0; k < dims; ++k) {
    for (size_t t = 0; t < slots; ++t) {
      const SlotAggregate& cell = cells[t * dims + k];  // interleaved cells
      if (cell.Count() != stats.users) return false;
      row[t] = cell.Mean();
    }
    auto smoothed = SimpleMovingAverage(row, smoothing_window);
    if (!smoothed.ok()) return false;
    for (size_t t = 0; t < slots; ++t) {
      const double reference = stats.published_slot_means[k * slots + t];
      if (!(std::fabs((*smoothed)[t] - reference) <= 1e-9)) return false;
    }
  }
  return true;
}

struct TrialResult {
  std::string error;  // empty when the trial completed
  EngineStats stats;
  double create_s = 0.0;
  double run_wall_s = 0.0;
  double analyze_s = 0.0;
  double recovery_s = 0.0;
  uint64_t state_digest = 0;
  bool result_matches = false;
  bool recovery_matches = true;
  uint64_t failed_runs = 0;
  std::vector<double> query_ms;

  /// Collector, WAL and hub creation, socket handshake, ReserveUsers:
  /// everything the trial spends outside EngineStats::elapsed_seconds.
  double setup_s() const {
    return create_s + run_wall_s - stats.elapsed_seconds;
  }
  /// First report to complete result (live_d4: through the analysis).
  double complete_s() const { return stats.elapsed_seconds + analyze_s; }
  double reports_per_s() const {
    return static_cast<double>(stats.reports) / complete_s();
  }
};

/// Runs `users` users of `w` through a fresh Fleet, telemetry off.
inline TrialResult RunTrial(const Workload& w, uint64_t seed, size_t users) {
  TrialResult r;
  std::optional<ScratchDir> wal_dir;
  if (w.wal) {
    wal_dir.emplace();
    if (wal_dir->path().empty()) {
      r.error = "cannot create a WAL directory under TMPDIR";
      r.failed_runs = users;
      return r;
    }
  }
  const EngineConfig config =
      MakeEngineConfig(w, seed, users, wal_dir ? wal_dir->path() : "");
  {
    const int64_t create_start = NowNs();
    std::optional<StreamingAnalyzer> analyzer;
    if (w.analytics) {
      auto created = AnalyzerFor(config);
      if (!created.ok()) {
        r.error = created.status().ToString();
        r.failed_runs = users;
        return r;
      }
      analyzer.emplace(std::move(*created));
    }
    auto fleet = Fleet::Create(config);
    r.create_s = static_cast<double>(NowNs() - create_start) / 1e9;
    if (!fleet.ok()) {
      r.error = fleet.status().ToString();
      r.failed_runs = users;
      return r;
    }
    const ShardedCollector& collector = fleet->collector();
    std::optional<LiveReader> reader;
    if (w.live_queries) reader.emplace(&collector, nullptr, 0);
    const int64_t run_start = NowNs();
    auto stats = fleet->Run();
    r.run_wall_s = static_cast<double>(NowNs() - run_start) / 1e9;
    if (reader) {
      r.query_ms = reader->Stop();
      if (!reader->ok()) r.error = "a live histogram read failed";
    }
    if (!stats.ok()) {
      r.error = stats.status().ToString();
      r.failed_runs = users;
      return r;
    }
    r.stats = *stats;
    if (analyzer) {
      const int64_t analyze_start = NowNs();
      for (size_t dim = 0; dim < config.dims; ++dim) {
        auto analysis = analyzer->AnalyzeCollectorDim(collector, dim);
        if (!analysis.ok()) r.error = analysis.status().ToString();
      }
      r.analyze_s = static_cast<double>(NowNs() - analyze_start) / 1e9;
    }
    r.state_digest = CollectorStateDigest(collector);
    r.result_matches = ResultMatchesReference(collector, r.stats,
                                              fleet->smoothing_window());
    const TransportStats& transport = r.stats.transport;
    r.failed_runs = users - std::min(users, collector.user_count()) +
                    transport.decode_failures + transport.stream_errors +
                    transport.handshake_rejects;
    // Leaving the scope destroys the fleet, which seals its WAL.
  }
  if (w.wal) {
    const Recovery recovery = RecoverWal(config);
    r.recovery_s = recovery.seconds;
    r.recovery_matches =
        recovery.status.ok() && recovery.state_digest == r.state_digest;
    if (!recovery.status.ok()) r.error = recovery.status.ToString();
  }
  return r;
}

}  // namespace capp::pipeline

#endif  // CAPP_BENCH_PIPELINE_TRIAL_H_
