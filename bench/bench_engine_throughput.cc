// Engine throughput benchmark: how many perturbed reports per second can a
// simulated fleet produce and a sharded collector ingest, end to end?
//
//   $ ./bench_engine_throughput                      # 1M users x 100 slots
//   $ ./bench_engine_throughput --users=200000 --slots=50 --threads=8
//   $ ./bench_engine_throughput --quick              # CI smoke sizing
//   $ ./bench_engine_throughput --json=perf.json     # result file path
//
// The benchmark runs the same scenario twice -- single-threaded, then with
// the requested (default: all) hardware threads -- and verifies the
// engine's determinism contract: both runs must produce bit-identical
// published-stream digests. Exit status is non-zero on a digest mismatch,
// so this doubles as a stress check.
//
// Every run also writes a machine-readable result file (default:
// BENCH_engine_throughput.json in the working directory) with the
// scenario, per-run reports/s and thread counts, and the determinism
// digest, so the perf trajectory is tracked across PRs. --json= (empty
// path) disables it.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "core/check.h"
#include "core/rng.h"
#include "engine/engine_config.h"
#include "engine/fleet.h"
#include "engine/thread_pool.h"
#include "harness/json_out.h"
#include "telemetry/metrics.h"
#include "telemetry/registry.h"

namespace capp::bench {
namespace {

struct EngineBenchFlags {
  size_t users = 1000000;
  size_t slots = 100;
  int threads = 0;  // 0 = all hardware threads
  double epsilon = 1.0;
  int window = 10;
  uint64_t seed = 1;
  std::string_view algorithm = "capp";
  std::string_view signal = "sinusoid";
  std::string_view json_path = "BENCH_engine_throughput.json";
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--users=N] [--slots=N] [--threads=N] [--epsilon=X]\n"
      "          [--window=N] [--seed=N] [--algorithm=NAME]\n"
      "          [--signal=NAME] [--json=PATH] [--quick]\n",
      argv0);
  std::exit(2);
}

bool ParseValue(std::string_view arg, std::string_view name,
                std::string_view* value) {
  if (!arg.starts_with(name)) return false;
  *value = arg.substr(name.size());
  return true;
}

EngineBenchFlags ParseEngineFlags(int argc, char** argv) {
  EngineBenchFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string_view value;
    if (arg == "--quick") {
      flags.users = 50000;
      flags.slots = 20;
    } else if (ParseValue(arg, "--users=", &value)) {
      flags.users = std::strtoull(value.data(), nullptr, 10);
    } else if (ParseValue(arg, "--slots=", &value)) {
      flags.slots = std::strtoull(value.data(), nullptr, 10);
    } else if (ParseValue(arg, "--threads=", &value)) {
      flags.threads = std::atoi(value.data());
    } else if (ParseValue(arg, "--epsilon=", &value)) {
      flags.epsilon = std::strtod(value.data(), nullptr);
    } else if (ParseValue(arg, "--window=", &value)) {
      flags.window = std::atoi(value.data());
    } else if (ParseValue(arg, "--seed=", &value)) {
      flags.seed = std::strtoull(value.data(), nullptr, 10);
    } else if (ParseValue(arg, "--algorithm=", &value)) {
      flags.algorithm = value;
    } else if (ParseValue(arg, "--signal=", &value)) {
      flags.signal = value;
    } else if (ParseValue(arg, "--json=", &value)) {
      flags.json_path = value;
    } else {
      Usage(argv[0]);
    }
  }
  return flags;
}

// The fleet's signal synthesis rides on Rng::FillGaussian reproducing
// the scalar Gaussian() draw sequence bit-for-bit (including the
// cached-spare handoff at odd lengths). Verify that contract in this
// binary on every bench start -- a silent divergence would shift every
// digest this benchmark pins.
void CheckGaussianBatchMatchesScalar() {
  constexpr uint64_t kSeed = 0x9E3779B97F4A7C15ULL;
  Rng batch_rng(kSeed);
  Rng scalar_rng(kSeed);
  std::vector<double> batch;
  for (const size_t len : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                           size_t{7}, size_t{64}, size_t{255},
                           size_t{1000}}) {
    batch.resize(len);
    batch_rng.FillGaussian(batch);
    for (size_t i = 0; i < len; ++i) {
      CAPP_CHECK(batch[i] == scalar_rng.Gaussian(0.0, 1.0));
    }
  }
  // Both generators must also land in the same state (spare included).
  CAPP_CHECK(batch_rng.Gaussian(0.0, 1.0) == scalar_rng.Gaussian(0.0, 1.0));
}

EngineStats RunOnce(const EngineBenchFlags& flags, int threads) {
  EngineConfig config;
  auto algorithm = ParseAlgorithmKind(flags.algorithm);
  if (!algorithm.ok()) {
    std::fprintf(stderr, "%s\n", algorithm.status().ToString().c_str());
    std::exit(2);
  }
  auto signal = ParseSignalKind(flags.signal);
  if (!signal.ok()) {
    std::fprintf(stderr, "%s\n", signal.status().ToString().c_str());
    std::exit(2);
  }
  config.algorithm = *algorithm;
  config.signal = *signal;
  config.epsilon = flags.epsilon;
  config.window = flags.window;
  config.num_users = flags.users;
  config.num_slots = flags.slots;
  config.num_threads = threads;
  config.seed = flags.seed;
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

JsonObjectWriter RunJson(const EngineStats& stats) {
  JsonObjectWriter run;
  run.AddInt("threads", stats.threads);
  run.AddNumber("elapsed_seconds", stats.elapsed_seconds);
  run.AddNumber("reports_per_sec", stats.reports_per_sec);
  run.AddNumber("reports_per_sec_per_thread",
                stats.reports_per_sec /
                    static_cast<double>(stats.threads > 0 ? stats.threads
                                                          : 1));
  run.AddNumber("mean_slot_mse", stats.mean_slot_mse);
  return run;
}

void WriteResultJson(const EngineBenchFlags& flags, const EngineStats& single,
                     const EngineStats& parallel,
                     const EngineStats& telemetry_on) {
  if (flags.json_path.empty()) return;
  JsonObjectWriter json;
  json.AddString("bench", "engine_throughput");
  json.AddString("algorithm", flags.algorithm);
  json.AddString("signal", flags.signal);
  json.AddNumber("epsilon", flags.epsilon);
  json.AddInt("window", static_cast<uint64_t>(flags.window));
  json.AddInt("users", flags.users);
  json.AddInt("slots", flags.slots);
  json.AddInt("seed", flags.seed);
  json.AddInt("reports", single.reports);
  json.AddObject("single_thread", RunJson(single));
  json.AddObject("multi_thread", RunJson(parallel));
  json.AddNumber("speedup",
                 single.reports_per_sec > 0.0
                     ? parallel.reports_per_sec / single.reports_per_sec
                     : 0.0);
  // A "multi-thread" trial that resolved to the same thread count as the
  // single-thread one (a 1-core machine, or --threads=1) measures run
  // noise, not scaling; say so in the result file instead of letting the
  // speedup masquerade as a real number (bench_diff flags it too).
  json.AddInt("same_thread_counts",
              single.threads == parallel.threads ? 1 : 0);
  json.AddObject("telemetry_on", RunJson(telemetry_on));
  // The observability contract: instrumentation must cost nothing the
  // single-thread hot path can feel (>= 0.98 of the telemetry-off rate).
  json.AddNumber("telemetry_on_vs_off",
                 single.reports_per_sec > 0.0
                     ? telemetry_on.reports_per_sec / single.reports_per_sec
                     : 0.0);
  json.AddHex("digest", single.stream_digest);
  json.AddString("digest_match",
                 single.stream_digest == parallel.stream_digest ? "ok"
                                                                : "MISMATCH");
  const std::string path(flags.json_path);
  const Status written = WriteJsonFile(path, json);
  if (!written.ok()) {
    std::fprintf(stderr, "warning: %s\n", written.ToString().c_str());
    return;
  }
  std::printf("result file: %s\n", path.c_str());
}

int Run(int argc, char** argv) {
  const EngineBenchFlags flags = ParseEngineFlags(argc, argv);
  // Default the multi-thread trial to hardware concurrency; the actual
  // thread count used lands in the result file either way.
  const int multi = ResolveThreadCount(flags.threads);
  CheckGaussianBatchMatchesScalar();

  std::printf("=== Engine throughput: %s, eps=%.2f, w=%d, %zu users x %zu "
              "slots ===\n\n",
              std::string(flags.algorithm).c_str(), flags.epsilon,
              flags.window, flags.users, flags.slots);

  std::printf("[1 thread]  ");
  std::fflush(stdout);
  const EngineStats single = RunOnce(flags, 1);
  std::printf("%s\n", single.ToString().c_str());

  std::printf("[%d threads] ", multi);
  std::fflush(stdout);
  const EngineStats parallel = RunOnce(flags, multi);
  std::printf("%s\n", parallel.ToString().c_str());

  // Third trial: the single-thread scenario again with the metrics
  // subsystem live, measuring what instrumentation costs the hot path.
  // The digest must not move -- telemetry observes the pipeline, it never
  // participates in it.
  std::printf("[1 thread, telemetry on] ");
  std::fflush(stdout);
  telemetry::TelemetryConfig telemetry_config;
  telemetry_config.enabled = true;
  telemetry::Configure(telemetry_config);
  telemetry::MetricsRegistry::Global().Reset();
  const EngineStats telemetry_on = RunOnce(flags, 1);
  telemetry::Configure(telemetry::TelemetryConfig{});
  std::printf("%s\n\n", telemetry_on.ToString().c_str());
  CAPP_CHECK(telemetry_on.stream_digest == single.stream_digest);

  std::printf("throughput: %.0f reports/s single, %.0f reports/s with %zu "
              "threads (%.2fx)\n",
              single.reports_per_sec, parallel.reports_per_sec,
              parallel.threads,
              parallel.reports_per_sec / single.reports_per_sec);
  if (single.threads == parallel.threads) {
    std::printf("note: both trials used %zu thread(s); the speedup above "
                "is run-to-run noise, not scaling\n",
                parallel.threads);
  }
  std::printf("self-check: batched Gaussian synthesis is bit-identical to "
              "the scalar draw sequence\n");
  const double telemetry_ratio =
      single.reports_per_sec > 0.0
          ? telemetry_on.reports_per_sec / single.reports_per_sec
          : 0.0;
  std::printf("telemetry:  %.3fx of the telemetry-off single-thread rate, "
              "digest unchanged%s\n",
              telemetry_ratio,
              telemetry_ratio < 0.98 ? " (BELOW the 0.98 budget)" : "");
  std::printf("accuracy:   slot-mean MSE %.3e, mean |err| %.3e\n",
              parallel.mean_slot_mse, parallel.mean_abs_error);
  WriteResultJson(flags, single, parallel, telemetry_on);

  if (single.stream_digest != parallel.stream_digest) {
    std::fprintf(stderr,
                 "DETERMINISM VIOLATION: digests differ (%016llx vs "
                 "%016llx)\n",
                 static_cast<unsigned long long>(single.stream_digest),
                 static_cast<unsigned long long>(parallel.stream_digest));
    return 1;
  }
  std::printf("determinism: published-stream digest %016llx identical "
              "across thread counts\n",
              static_cast<unsigned long long>(single.stream_digest));
  return 0;
}

}  // namespace
}  // namespace capp::bench

int main(int argc, char** argv) { return capp::bench::Run(argc, argv); }
