// The pipeline benchmark's workloads: four closed-loop batch jobs, each a
// fixed population's perturbed streams in and one complete per-slot
// result out (CAPP, epsilon = 1, w = 10, sinusoid signal). A preset sets
// only what a deployment must choose -- transport kind, consumer count,
// dims, analytics and the WAL -- and leaves routing and ownership knobs
// (shard_affinity, owned_shards) at their defaults, so a change to a
// default's behaviour shows up as a measured change instead of being
// pinned away by the benchmark.
#ifndef CAPP_BENCH_PIPELINE_WORKLOADS_H_
#define CAPP_BENCH_PIPELINE_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "engine/engine_config.h"
#include "transport/transport.h"

namespace capp::pipeline {

struct Workload {
  const char* name;
  const char* why;
  size_t users;  // per full-size trial
  size_t slots;
  size_t dims;
  TransportKind kind;
  int workers;    // fleet worker threads; EngineStats::threads must match
  int consumers;  // transport consumer threads (0 under kDirect)
  bool analytics;
  bool wal;
  bool live_queries;  // a query thread reads the collector every 2 ms
  int threads;        // every thread the workload keeps busy
  int connections;
};

inline constexpr Workload kWorkloads[] = {
    {"inproc",
     "single-threaded baseline: synthesis and perturbation dominate, no "
     "wire or storage",
     1000000, 100, 1, TransportKind::kDirect, 1, 0, false, false, false, 1,
     0},
    {"socket",
     "unix loopback, 1 producer and 1 consumer: wire encode, CRC, socket "
     "publish and decode, which inproc skips",
     500000, 100, 1, TransportKind::kSocket, 1, 1, false, false, false, 3,
     1},
    {"wal",
     "2 workers sharing one WAL: storage work, lock contention and the "
     "restart (replay) cost",
     500000, 100, 1, TransportKind::kDirect, 2, 0, false, true, false, 2, 0},
    {"live_d4",
     "d=4 over the socket with analytics and a live reader: multidim "
     "perturbation, 0xC6 frames, histograms, reads beside writes",
     150000, 100, 4, TransportKind::kSocket, 1, 1, true, false, true, 4, 1},
};

inline const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

inline constexpr int kHistogramBuckets = 32;

/// The engine config of one trial of `w` with `users` users. The seed
/// reaches the workload only through EngineConfig::seed.
inline EngineConfig MakeEngineConfig(const Workload& w, uint64_t seed,
                                     size_t users,
                                     const std::string& wal_dir) {
  EngineConfig config;
  config.algorithm = AlgorithmKind::kCapp;
  config.epsilon = 1.0;
  config.window = 10;
  config.num_users = users;
  config.num_slots = w.slots;
  config.signal = SignalKind::kSinusoid;
  config.dims = w.dims;
  config.num_threads = w.workers;
  config.seed = seed;
  config.keep_streams = false;
  config.transport.kind = w.kind;
  if (w.consumers > 0) config.transport.num_consumers = w.consumers;
  config.analytics.enabled = w.analytics;
  config.analytics.histogram_buckets = kHistogramBuckets;
  if (w.wal) config.durability.dir = wal_dir;
  return config;
}

/// Per-(dimension, slot) budget the devices spend: budget split gives each
/// of the d attributes epsilon / (d * w). Sizes the analytics histograms.
inline double PerSlotBudget(const EngineConfig& config) {
  const double dims = config.dims > 1 && config.multidim_strategy ==
                                             MultidimStrategy::kBudgetSplit
                          ? static_cast<double>(config.dims)
                          : 1.0;
  return config.epsilon / (dims * config.window);
}

}  // namespace capp::pipeline

#endif  // CAPP_BENCH_PIPELINE_WORKLOADS_H_
