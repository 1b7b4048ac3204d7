// Multi-dimensional engine throughput: how fast does the full pipeline
// (d-dim synthesis -> budget-split / sample-split perturbation -> dims-aware
// collector ingest) run, and what per-attribute accuracy does it deliver?
//
//   $ ./bench_multidim_throughput                    # 1M users x 100 slots
//   $ ./bench_multidim_throughput --quick            # CI smoke sizing
//   $ ./bench_multidim_throughput --dims=4           # one d instead of grid
//   $ ./bench_multidim_throughput --json=perf.json   # result file path
//
// The scenario grid is d in {1, 4, 10} x {budget_split, sample_split}; d=1
// appears under both strategy labels and must produce one digest, pinning
// the engine's "dims=1 ignores the strategy knob" contract. The d=4
// budget-split row additionally re-runs single-threaded and the two
// published-stream digests must match (the determinism contract at d > 1);
// exit status is non-zero on a mismatch.
//
// Every run writes a machine-readable result file (default:
// BENCH_multidim_throughput.json) with one named row per scenario --
// reports/s, total and worst per-attribute MSE, and the determinism digest
// -- diffed against bench/baselines/ by tools/bench_diff.py in CI.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "core/check.h"
#include "engine/engine_config.h"
#include "engine/fleet.h"
#include "engine/thread_pool.h"
#include "harness/flags.h"
#include "harness/json_out.h"

namespace capp::bench {
namespace {

struct MultidimBenchFlags {
  size_t users = 1000000;
  size_t slots = 100;
  int threads = 0;   // 0 = all hardware threads
  size_t dims = 0;   // 0 = the full {1, 4, 10} grid
  double epsilon = 1.0;
  int window = 10;
  uint64_t seed = 1;
  std::string_view json_path = "BENCH_multidim_throughput.json";
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--users=N] [--slots=N] [--threads=N] [--dims=N]\n"
      "          [--epsilon=X] [--window=N] [--seed=N] [--json=PATH]\n"
      "          [--quick]\n",
      argv0);
  std::exit(2);
}

bool ParseValue(std::string_view arg, std::string_view name,
                std::string_view* value) {
  if (!arg.starts_with(name)) return false;
  *value = arg.substr(name.size());
  return true;
}

MultidimBenchFlags ParseMultidimFlags(int argc, char** argv) {
  MultidimBenchFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string_view value;
    if (arg == "--quick") {
      flags.users = 20000;
      flags.slots = 20;
    } else if (ParseValue(arg, "--users=", &value)) {
      flags.users = ParseUint64FlagOrDie("--users", value);
    } else if (ParseValue(arg, "--slots=", &value)) {
      flags.slots = ParseUint64FlagOrDie("--slots", value);
    } else if (ParseValue(arg, "--threads=", &value)) {
      flags.threads = ParseIntFlagOrDie("--threads", value, 0);
    } else if (ParseValue(arg, "--dims=", &value)) {
      flags.dims = ParseUint64FlagOrDie("--dims", value);
      if (flags.dims == 0) {
        std::fprintf(stderr, "--dims wants a positive integer, got '%.*s'\n",
                     static_cast<int>(value.size()), value.data());
        std::exit(2);
      }
    } else if (ParseValue(arg, "--epsilon=", &value)) {
      flags.epsilon = ParseDoubleFlagOrDie("--epsilon", value);
    } else if (ParseValue(arg, "--window=", &value)) {
      flags.window = ParseIntFlagOrDie("--window", value, 1);
    } else if (ParseValue(arg, "--seed=", &value)) {
      flags.seed = ParseUint64FlagOrDie("--seed", value);
    } else if (ParseValue(arg, "--json=", &value)) {
      flags.json_path = value;
    } else {
      Usage(argv[0]);
    }
  }
  return flags;
}

EngineStats RunOnce(const MultidimBenchFlags& flags, size_t dims,
                    MultidimStrategy strategy, int threads) {
  EngineConfig config;
  config.algorithm = AlgorithmKind::kCapp;
  config.signal = SignalKind::kSinusoid;
  config.epsilon = flags.epsilon;
  config.window = flags.window;
  config.num_users = flags.users;
  config.num_slots = flags.slots;
  config.num_threads = threads;
  config.seed = flags.seed;
  config.dims = dims;
  config.multidim_strategy = strategy;
  auto fleet = Fleet::Create(config);
  if (!fleet.ok()) {
    std::fprintf(stderr, "config rejected: %s\n",
                 fleet.status().ToString().c_str());
    std::exit(2);
  }
  auto stats = fleet->Run();
  CAPP_CHECK(stats.ok());
  return *stats;
}

double MaxDimMse(const EngineStats& stats) {
  double worst = 0.0;
  for (const double mse : stats.per_dim_mse) worst = std::max(worst, mse);
  return worst;
}

JsonObjectWriter RowJson(std::string_view name, const EngineStats& stats,
                         MultidimStrategy strategy) {
  JsonObjectWriter row;
  row.AddString("name", name);
  row.AddInt("dims", stats.dims);
  row.AddString("strategy", MultidimStrategyName(strategy));
  row.AddInt("threads", stats.threads);
  row.AddInt("reports", stats.reports);
  row.AddNumber("elapsed_seconds", stats.elapsed_seconds);
  row.AddNumber("reports_per_sec", stats.reports_per_sec);
  row.AddNumber("mean_slot_mse", stats.mean_slot_mse);
  row.AddNumber("max_dim_mse", MaxDimMse(stats));
  row.AddHex("digest", stats.stream_digest);
  return row;
}

int Run(int argc, char** argv) {
  const MultidimBenchFlags flags = ParseMultidimFlags(argc, argv);
  const int multi = ResolveThreadCount(flags.threads);

  std::vector<size_t> dims_grid = {1, 4, 10};
  if (flags.dims != 0) dims_grid = {flags.dims};

  std::printf("=== Multidim engine throughput: capp, eps=%.2f, w=%d, "
              "%zu users x %zu slots, %d threads ===\n\n",
              flags.epsilon, flags.window, flags.users, flags.slots, multi);

  JsonObjectWriter json;
  json.AddString("bench", "multidim_throughput");
  json.AddInt("users", flags.users);
  json.AddInt("slots", flags.slots);
  json.AddNumber("epsilon", flags.epsilon);
  json.AddInt("window", static_cast<uint64_t>(flags.window));
  json.AddInt("seed", flags.seed);

  bool failed = false;
  uint64_t d1_digest = 0;
  bool d1_seen = false;
  for (const size_t d : dims_grid) {
    for (const MultidimStrategy strategy :
         {MultidimStrategy::kBudgetSplit, MultidimStrategy::kSampleSplit}) {
      std::string name = "d";
      name += std::to_string(d);
      name += '_';
      name += MultidimStrategyName(strategy);
      std::printf("[%s] ", name.c_str());
      std::fflush(stdout);
      const EngineStats stats = RunOnce(flags, d, strategy, multi);
      std::printf("%.0f reports/s, total MSE %.3e, worst-dim MSE %.3e, "
                  "digest %016llx\n",
                  stats.reports_per_sec, stats.mean_slot_mse,
                  MaxDimMse(stats),
                  static_cast<unsigned long long>(stats.stream_digest));
      json.AddObject(name, RowJson(name, stats, strategy));

      if (d == 1) {
        // dims=1 must ignore the strategy knob: both labels, one digest.
        if (d1_seen && stats.stream_digest != d1_digest) {
          std::fprintf(stderr,
                       "D=1 STRATEGY LEAK: digests differ across strategy "
                       "labels (%016llx vs %016llx)\n",
                       static_cast<unsigned long long>(d1_digest),
                       static_cast<unsigned long long>(stats.stream_digest));
          failed = true;
        }
        d1_digest = stats.stream_digest;
        d1_seen = true;
      }
      if (d == 4 && strategy == MultidimStrategy::kBudgetSplit &&
          multi != 1) {
        // Determinism at d > 1: the same scenario single-threaded must
        // reproduce the multi-threaded digest bit for bit.
        const EngineStats single = RunOnce(flags, d, strategy, 1);
        if (single.stream_digest != stats.stream_digest) {
          std::fprintf(stderr,
                       "DETERMINISM VIOLATION at d=4: %016llx (1 thread) vs "
                       "%016llx (%zu threads)\n",
                       static_cast<unsigned long long>(single.stream_digest),
                       static_cast<unsigned long long>(stats.stream_digest),
                       stats.threads);
          failed = true;
        } else {
          std::printf("  d=4 digest identical across 1 and %zu threads\n",
                      stats.threads);
        }
      }
    }
  }

  if (!flags.json_path.empty()) {
    const std::string path(flags.json_path);
    const Status written = WriteJsonFile(path, json);
    if (!written.ok()) {
      std::fprintf(stderr, "warning: %s\n", written.ToString().c_str());
    } else {
      std::printf("\nresult file: %s\n", path.c_str());
    }
  }
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace capp::bench

int main(int argc, char** argv) { return capp::bench::Run(argc, argv); }
