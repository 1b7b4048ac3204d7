// Analytics ingest-overhead benchmark: what does the collector's
// streaming histogram tier cost? Runs the same fleet scenario with the
// per-slot value histograms off and on (direct transport, aggregate-only
// collector -- the configuration where ingest is hottest) and reports
// sustained reports/s for each, the on/off ratio, and the wall time of
// the StreamingAnalyzer pass over the resulting collector state.
//
//   $ ./bench_analytics_throughput                  # 1M users x 100 slots
//   $ ./bench_analytics_throughput --users=50000 --slots=50   # CI smoke
//
// The acceptance target is analytics_on_vs_off >= 0.9: histogram
// maintenance must stay within 10% of histogram-off ingest. The ratio is
// printed and written to BENCH_analytics_throughput.json (diffed against
// bench/baselines/ in CI); the determinism digest must match between the
// two rows (exit 1 otherwise -- the tier must not perturb results).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "analysis/streaming_analytics.h"
#include "engine/engine_config.h"
#include "engine/fleet.h"
#include "harness/flags.h"
#include "harness/json_out.h"

namespace capp::bench {
namespace {

struct AnalyticsBenchFlags {
  size_t users = 1000000;
  size_t slots = 100;
  int threads = 1;  // single-core: the per-report overhead is the point
  double epsilon = 1.0;
  int window = 10;
  int histogram_buckets = 32;
  uint64_t seed = 1;
  std::string_view algorithm = "capp";
  std::string_view signal = "sinusoid";
  std::string_view json_path = "BENCH_analytics_throughput.json";
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--users=N] [--slots=N] [--threads=N] [--epsilon=X]\n"
      "          [--window=N] [--buckets=N] [--seed=N] [--algorithm=NAME]\n"
      "          [--signal=NAME] [--json=PATH]\n",
      argv0);
  std::exit(2);
}

bool ParseValue(std::string_view arg, std::string_view name,
                std::string_view* value) {
  if (!arg.starts_with(name)) return false;
  *value = arg.substr(name.size());
  return true;
}

AnalyticsBenchFlags ParseFlags(int argc, char** argv) {
  AnalyticsBenchFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string_view value;
    if (ParseValue(arg, "--users=", &value)) {
      flags.users = ParseUint64FlagOrDie("--users", value);
    } else if (ParseValue(arg, "--slots=", &value)) {
      flags.slots = ParseUint64FlagOrDie("--slots", value);
    } else if (ParseValue(arg, "--threads=", &value)) {
      flags.threads = ParseIntFlagOrDie("--threads", value, 0);
    } else if (ParseValue(arg, "--epsilon=", &value)) {
      flags.epsilon = ParseDoubleFlagOrDie("--epsilon", value);
    } else if (ParseValue(arg, "--window=", &value)) {
      flags.window = ParseIntFlagOrDie("--window", value, 1);
    } else if (ParseValue(arg, "--buckets=", &value)) {
      flags.histogram_buckets = ParseIntFlagOrDie("--buckets", value, 2);
    } else if (ParseValue(arg, "--seed=", &value)) {
      flags.seed = ParseUint64FlagOrDie("--seed", value);
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

EngineConfig MakeConfig(const AnalyticsBenchFlags& flags, bool analytics) {
  EngineConfig config;
  auto algorithm = ParseAlgorithmKind(flags.algorithm);
  auto signal = ParseSignalKind(flags.signal);
  if (!algorithm.ok() || !signal.ok()) {
    std::fprintf(stderr, "bad --algorithm/--signal\n");
    std::exit(2);
  }
  config.algorithm = *algorithm;
  config.signal = *signal;
  config.epsilon = flags.epsilon;
  config.window = flags.window;
  config.num_users = flags.users;
  config.num_slots = flags.slots;
  config.num_threads = flags.threads;
  config.seed = flags.seed;
  config.analytics.enabled = analytics;
  config.analytics.histogram_buckets = flags.histogram_buckets;
  return config;
}

int Run(int argc, char** argv) {
  const AnalyticsBenchFlags flags = ParseFlags(argc, argv);
  std::printf("=== Analytics ingest overhead: %s, eps=%.2f, %zu users x "
              "%zu slots, %d-bucket reconstruction ===\n\n",
              std::string(flags.algorithm).c_str(), flags.epsilon,
              flags.users, flags.slots, flags.histogram_buckets);

  EngineStats results[2];
  Fleet* analytics_fleet = nullptr;
  // Keep the analytics-on fleet alive for the analyzer pass below.
  auto off_fleet = Fleet::Create(MakeConfig(flags, false));
  auto on_fleet = Fleet::Create(MakeConfig(flags, true));
  if (!off_fleet.ok() || !on_fleet.ok()) {
    std::fprintf(stderr, "config rejected: %s\n",
                 (off_fleet.ok() ? on_fleet.status() : off_fleet.status())
                     .ToString()
                     .c_str());
    return 2;
  }
  for (int row = 0; row < 2; ++row) {
    Fleet& fleet = row == 0 ? *off_fleet : *on_fleet;
    auto stats = fleet.Run();
    if (!stats.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    results[row] = *stats;
    std::printf("[histograms %-3s] %.0f reports/s (%.2fs, %zu threads)\n",
                row == 0 ? "off" : "on", stats->reports_per_sec,
                stats->elapsed_seconds, stats->threads);
  }
  analytics_fleet = &*on_fleet;

  const double ratio = results[0].reports_per_sec > 0.0
                           ? results[1].reports_per_sec /
                                 results[0].reports_per_sec
                           : 0.0;
  std::printf("\nhistogram-on ingest sustains %.1f%% of histogram-off "
              "(target >= 90%%)\n",
              100.0 * ratio);

  // The analyzer pass itself: window reconstruction + crowd + trends
  // over the collector's merged per-slot state.
  StreamingAnalyzerOptions analyzer_options;
  analyzer_options.epsilon_per_slot = flags.epsilon / flags.window;
  analyzer_options.histogram_buckets = flags.histogram_buckets;
  analyzer_options.window = static_cast<size_t>(flags.window);
  auto analyzer = StreamingAnalyzer::Create(analyzer_options);
  if (!analyzer.ok()) {
    std::fprintf(stderr, "analyzer setup failed: %s\n",
                 analyzer.status().ToString().c_str());
    return 1;
  }
  const auto analyze_start = std::chrono::steady_clock::now();
  auto analysis = analyzer->AnalyzeCollector(analytics_fleet->collector());
  const double analyze_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    analyze_start)
          .count();
  if (!analysis.ok()) {
    std::fprintf(stderr, "analytics failed: %s\n",
                 analysis.status().ToString().c_str());
    return 1;
  }
  std::printf("analyzer pass: %zu window(s), %zu trend segment(s), "
              "%llu outlier(s) in %.3fs\n",
              analysis->windows.size(), analysis->trends.size(),
              static_cast<unsigned long long>(analysis->total_outliers),
              analyze_seconds);

  if (!flags.json_path.empty()) {
    JsonObjectWriter json;
    json.AddString("bench", "analytics_throughput");
    json.AddString("algorithm", flags.algorithm);
    json.AddString("signal", flags.signal);
    json.AddNumber("epsilon", flags.epsilon);
    json.AddInt("users", flags.users);
    json.AddInt("slots", flags.slots);
    json.AddInt("seed", flags.seed);
    json.AddInt("window", flags.window);
    json.AddInt("histogram_buckets", flags.histogram_buckets);
    JsonObjectWriter off;
    off.AddNumber("elapsed_seconds", results[0].elapsed_seconds);
    off.AddNumber("reports_per_sec", results[0].reports_per_sec);
    json.AddObject("histograms_off", off);
    JsonObjectWriter on;
    on.AddNumber("elapsed_seconds", results[1].elapsed_seconds);
    on.AddNumber("reports_per_sec", results[1].reports_per_sec);
    json.AddObject("histograms_on", on);
    json.AddNumber("analytics_on_vs_off", ratio);
    json.AddNumber("analyze_seconds", analyze_seconds);
    json.AddInt("windows", analysis->windows.size());
    json.AddInt("outliers", analysis->total_outliers);
    json.AddHex("digest", results[0].stream_digest);
    json.AddString("digest_match",
                   results[0].stream_digest == results[1].stream_digest
                       ? "ok"
                       : "MISMATCH");
    const std::string path(flags.json_path);
    const Status written = WriteJsonFile(path, json);
    if (written.ok()) {
      std::printf("result file: %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "warning: %s\n", written.ToString().c_str());
    }
  }

  if (results[0].stream_digest != results[1].stream_digest) {
    std::fprintf(stderr,
                 "DETERMINISM VIOLATION: histogram maintenance changed "
                 "the published-stream digest\n");
    return 1;
  }
  std::printf("determinism: digest %016llx identical with histograms off "
              "and on\n",
              static_cast<unsigned long long>(results[0].stream_digest));
  return 0;
}

}  // namespace
}  // namespace capp::bench

int main(int argc, char** argv) { return capp::bench::Run(argc, argv); }
