// Durability throughput benchmark: what does the WAL cost? Runs the same
// fleet scenario with the write-ahead log off and then under each fsync
// policy (per-run, per-N-frames, timer) and reports sustained reports/s,
// fsync counts, and log volume for each.
//
//   $ ./bench_durability_throughput                  # 1M users x 100 slots
//   $ ./bench_durability_throughput --users=200000 --fsync-frames=128
//   $ ./bench_durability_throughput --quick          # CI smoke sizing
//
// Every run re-verifies the durability contract twice: the collector's
// aggregate digest must be bit-identical across all rows (the WAL tee
// must not perturb ingest), and each WAL row's log must recover into a
// fresh collector with that same digest. Exit status is non-zero on any
// mismatch. Writes BENCH_durability_throughput.json with the scenario,
// per-policy throughput, and ratios against wal_off -- including
// wal_frames_vs_off, the number the batched-fsync default exists to keep
// high.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "engine/engine_config.h"
#include "engine/fleet.h"
#include "engine/sharded_collector.h"
#include "harness/flags.h"
#include "harness/json_out.h"
#include "storage/collector_backend.h"
#include "storage/durable_collector.h"
#include "storage/wal.h"

namespace capp::bench {
namespace {

struct DurabilityBenchFlags {
  size_t users = 1000000;
  size_t slots = 100;
  int threads = 0;  // 0 = all hardware threads
  size_t fsync_frames = 1024;
  int fsync_interval_ms = 50;
  size_t checkpoint_every = 0;
  double epsilon = 1.0;
  int window = 10;
  uint64_t seed = 1;
  std::string_view json_path = "BENCH_durability_throughput.json";
};

// One benchmarked durability configuration.
struct DurabilityRow {
  const char* name;  // display + JSON key
  bool wal;
  WalFsyncPolicy policy;
};

constexpr DurabilityRow kRows[] = {
    {"wal_off", false, WalFsyncPolicy::kPerFrames},
    {"wal_run", true, WalFsyncPolicy::kPerRun},
    {"wal_frames", true, WalFsyncPolicy::kPerFrames},
    {"wal_timer", true, WalFsyncPolicy::kTimed},
};

struct RowResult {
  EngineStats stats;
  uint64_t collector_digest = 0;
  bool recovery_digest_match = true;  // WAL rows: replay == live?
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--users=N] [--slots=N] [--threads=N]\n"
      "          [--fsync-frames=N] [--fsync-interval-ms=N]\n"
      "          [--checkpoint-every=N] [--epsilon=X] [--window=N]\n"
      "          [--seed=N] [--json=PATH] [--quick]\n",
      argv0);
  std::exit(2);
}

bool ParseValue(std::string_view arg, std::string_view name,
                std::string_view* value) {
  if (!arg.starts_with(name)) return false;
  *value = arg.substr(name.size());
  return true;
}

DurabilityBenchFlags ParseFlags(int argc, char** argv) {
  DurabilityBenchFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string_view value;
    if (arg == "--quick") {
      flags.users = 50000;
      flags.slots = 20;
    } else if (ParseValue(arg, "--users=", &value)) {
      flags.users = ParseUint64FlagOrDie("--users", value);
    } else if (ParseValue(arg, "--slots=", &value)) {
      flags.slots = ParseUint64FlagOrDie("--slots", value);
    } else if (ParseValue(arg, "--threads=", &value)) {
      flags.threads = ParseIntFlagOrDie("--threads", value, 0);
    } else if (ParseValue(arg, "--fsync-frames=", &value)) {
      flags.fsync_frames = ParseUint64FlagOrDie("--fsync-frames", value);
    } else if (ParseValue(arg, "--fsync-interval-ms=", &value)) {
      flags.fsync_interval_ms =
          ParseIntFlagOrDie("--fsync-interval-ms", value, 1);
    } else if (ParseValue(arg, "--checkpoint-every=", &value)) {
      flags.checkpoint_every =
          ParseUint64FlagOrDie("--checkpoint-every", value);
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

EngineConfig MakeConfig(const DurabilityBenchFlags& flags) {
  EngineConfig config;
  config.epsilon = flags.epsilon;
  config.window = flags.window;
  config.num_users = flags.users;
  config.num_slots = flags.slots;
  config.num_threads = flags.threads;
  config.seed = flags.seed;
  return config;
}

// Recovers the row's WAL into a fresh collector and compares digests:
// the log alone must reconstruct the exact aggregate state.
bool RecoveryMatches(const EngineConfig& config, const std::string& wal_dir,
                     uint64_t live_digest) {
  ShardedCollectorOptions collector_options;
  collector_options.num_shards = config.num_shards;
  auto collector = ShardedCollector::Create(collector_options);
  if (!collector.ok()) return false;
  DurableCollectorOptions durable_options;
  durable_options.wal.dir = wal_dir;
  durable_options.wal.fingerprint = EngineConfigFingerprint(config);
  auto durable = DurableCollector::Create(&*collector, durable_options);
  if (!durable.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 durable.status().ToString().c_str());
    return false;
  }
  return CollectorStateDigest(*collector) == live_digest;
}

RowResult RunOnce(const DurabilityBenchFlags& flags,
                  const DurabilityRow& row) {
  EngineConfig config = MakeConfig(flags);
  std::string wal_dir;
  if (row.wal) {
    char tmpl[] = "/tmp/capp_bench_wal_XXXXXX";
    char* made = ::mkdtemp(tmpl);
    if (made == nullptr) {
      std::fprintf(stderr, "mkdtemp failed\n");
      std::exit(1);
    }
    wal_dir = made;
    config.durability.dir = wal_dir;
    config.durability.fsync_policy = row.policy;
    config.durability.fsync_every_frames = flags.fsync_frames;
    config.durability.fsync_interval_ms = flags.fsync_interval_ms;
    config.durability.checkpoint_every_runs = flags.checkpoint_every;
  }
  RowResult result;
  {
    auto fleet = Fleet::Create(config);
    if (!fleet.ok()) {
      std::fprintf(stderr, "config rejected: %s\n",
                   fleet.status().ToString().c_str());
      std::exit(2);
    }
    auto stats = fleet->Run();
    if (!stats.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   stats.status().ToString().c_str());
      std::exit(1);
    }
    result.stats = *stats;
    result.collector_digest = CollectorStateDigest(fleet->backend());
    // ~Fleet seals the WAL before the recovery check below reads it.
  }
  if (row.wal) {
    result.recovery_digest_match =
        RecoveryMatches(config, wal_dir, result.collector_digest);
    std::error_code ec;
    std::filesystem::remove_all(wal_dir, ec);
  }
  return result;
}

void PrintRun(const DurabilityRow& row, const RowResult& result) {
  const EngineStats& stats = result.stats;
  std::printf("[%-10s] %.0f reports/s (%.2fs, %zu threads)", row.name,
              stats.reports_per_sec, stats.elapsed_seconds, stats.threads);
  if (row.wal) {
    const WalStats& wal = stats.wal;
    std::printf(", %llu frames (%.1f MB logged), %llu fsyncs, "
                "%llu checkpoints, recovery %s",
                static_cast<unsigned long long>(wal.frames_appended),
                static_cast<double>(wal.bytes_appended) / 1048576.0,
                static_cast<unsigned long long>(wal.fsyncs),
                static_cast<unsigned long long>(wal.checkpoints),
                result.recovery_digest_match ? "ok" : "MISMATCH");
  }
  std::printf("\n");
}

JsonObjectWriter RunJson(const RowResult& result) {
  const EngineStats& stats = result.stats;
  JsonObjectWriter run;
  run.AddInt("threads", stats.threads);
  run.AddNumber("elapsed_seconds", stats.elapsed_seconds);
  run.AddNumber("reports_per_sec", stats.reports_per_sec);
  const WalStats& wal = stats.wal;
  run.AddInt("frames_appended", wal.frames_appended);
  run.AddInt("bytes_appended", wal.bytes_appended);
  run.AddInt("fsyncs", wal.fsyncs);
  run.AddInt("segments_sealed", wal.segments_sealed);
  run.AddInt("checkpoints", wal.checkpoints);
  return run;
}

double Ratio(double value, double base) {
  return base > 0.0 ? value / base : 0.0;
}

int Run(int argc, char** argv) {
  const DurabilityBenchFlags flags = ParseFlags(argc, argv);
  std::printf("=== Durability throughput: %zu users x %zu slots, "
              "fsync-frames %zu, fsync-interval %d ms, checkpoint every "
              "%zu ===\n\n",
              flags.users, flags.slots, flags.fsync_frames,
              flags.fsync_interval_ms, flags.checkpoint_every);

  std::vector<RowResult> results;
  for (const DurabilityRow& row : kRows) {
    results.push_back(RunOnce(flags, row));
    PrintRun(row, results.back());
  }
  const RowResult& off = results[0];
  const double run_ratio = Ratio(results[1].stats.reports_per_sec,
                                 off.stats.reports_per_sec);
  const double frames_ratio = Ratio(results[2].stats.reports_per_sec,
                                    off.stats.reports_per_sec);
  const double timer_ratio = Ratio(results[3].stats.reports_per_sec,
                                   off.stats.reports_per_sec);
  std::printf("\nper-run fsync sustains %.0f%% of wal-off ingest; "
              "per-%zu-frames %.0f%%; %d ms timer %.0f%%\n",
              100.0 * run_ratio, flags.fsync_frames, 100.0 * frames_ratio,
              flags.fsync_interval_ms, 100.0 * timer_ratio);

  bool digests_match = true;
  for (const RowResult& result : results) {
    digests_match = digests_match &&
                    result.collector_digest == off.collector_digest &&
                    result.recovery_digest_match;
  }

  if (!flags.json_path.empty()) {
    JsonObjectWriter json;
    json.AddString("bench", "durability_throughput");
    json.AddInt("users", flags.users);
    json.AddInt("slots", flags.slots);
    json.AddInt("seed", flags.seed);
    json.AddInt("fsync_frames", flags.fsync_frames);
    json.AddInt("fsync_interval_ms", flags.fsync_interval_ms);
    json.AddInt("checkpoint_every", flags.checkpoint_every);
    for (size_t i = 0; i < results.size(); ++i) {
      json.AddObject(kRows[i].name, RunJson(results[i]));
    }
    json.AddNumber("wal_run_vs_off", run_ratio);
    json.AddNumber("wal_frames_vs_off", frames_ratio);
    json.AddNumber("wal_timer_vs_off", timer_ratio);
    json.AddHex("digest", off.collector_digest);
    json.AddString("digest_match", digests_match ? "ok" : "MISMATCH");
    const std::string path(flags.json_path);
    const Status written = WriteJsonFile(path, json);
    if (written.ok()) {
      std::printf("result file: %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "warning: %s\n", written.ToString().c_str());
    }
  }

  for (size_t i = 0; i < results.size(); ++i) {
    if (results[i].collector_digest != off.collector_digest) {
      std::fprintf(stderr,
                   "DURABILITY VIOLATION: aggregate digest %016llx on %s "
                   "differs from %016llx on wal_off\n",
                   static_cast<unsigned long long>(
                       results[i].collector_digest),
                   kRows[i].name,
                   static_cast<unsigned long long>(off.collector_digest));
      return 1;
    }
    if (!results[i].recovery_digest_match) {
      std::fprintf(stderr,
                   "DURABILITY VIOLATION: %s WAL did not recover to the "
                   "live aggregate digest\n",
                   kRows[i].name);
      return 1;
    }
  }
  std::printf("durability: aggregate digest %016llx identical across all "
              "%zu rows and every WAL replay\n",
              static_cast<unsigned long long>(off.collector_digest),
              results.size());
  return 0;
}

}  // namespace
}  // namespace capp::bench

int main(int argc, char** argv) { return capp::bench::Run(argc, argv); }
