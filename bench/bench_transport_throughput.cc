// Transport throughput benchmark: what does the wire cost? Runs the same
// fleet scenario through every transport -- direct in-process ingest, the
// per-consumer queues of binary wire frames, and the unix-socket stream
// of those frames (mutex and owned-shard ingest) -- and reports sustained
// reports/s, frames/s, and backpressure stalls for each.
//
//   $ ./bench_transport_throughput                    # 1M users x 100 slots
//   $ ./bench_transport_throughput --users=200000 --consumers=4
//   $ ./bench_transport_throughput --quick            # CI smoke sizing
//
// Every run re-verifies the transport determinism contract: the published
// -stream digest must be bit-identical across all rows (exit status is
// non-zero otherwise), and writes BENCH_transport_throughput.json with
// the scenario, per-transport throughput, and ratios against direct.
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
#include "transport/transport.h"

namespace capp::bench {
namespace {

struct TransportBenchFlags {
  size_t users = 1000000;
  size_t slots = 100;
  int threads = 0;  // producer threads; 0 = all hardware threads
  int consumers = 2;
  size_t queue_capacity = 256;
  size_t batch_runs = 64;
  double epsilon = 1.0;
  int window = 10;
  uint64_t seed = 1;
  std::string_view algorithm = "capp";
  std::string_view signal = "sinusoid";
  std::string_view json_path = "BENCH_transport_throughput.json";
};

// One benchmarked configuration of the transport tier.
struct TransportRow {
  const char* name;  // display + JSON key
  TransportKind kind;
  bool owned_shards;
};

constexpr TransportRow kRows[] = {
    {"direct", TransportKind::kDirect, false},
    {"queue_framed", TransportKind::kQueueFramed, false},
    {"socket", TransportKind::kSocket, false},
    {"socket_owned", TransportKind::kSocket, true},
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--users=N] [--slots=N] [--threads=N] [--consumers=N]\n"
      "          [--capacity=N] [--batch-runs=N] [--epsilon=X] [--window=N]\n"
      "          [--seed=N] [--algorithm=NAME] [--signal=NAME]\n"
      "          [--json=PATH] [--quick]\n",
      argv0);
  std::exit(2);
}

bool ParseValue(std::string_view arg, std::string_view name,
                std::string_view* value) {
  if (!arg.starts_with(name)) return false;
  *value = arg.substr(name.size());
  return true;
}

TransportBenchFlags ParseFlags(int argc, char** argv) {
  TransportBenchFlags flags;
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
    } else if (ParseValue(arg, "--consumers=", &value)) {
      flags.consumers = ParseIntFlagOrDie("--consumers", value, 1);
    } else if (ParseValue(arg, "--capacity=", &value)) {
      flags.queue_capacity = ParseUint64FlagOrDie("--capacity", value);
    } else if (ParseValue(arg, "--batch-runs=", &value)) {
      flags.batch_runs = ParseUint64FlagOrDie("--batch-runs", value);
    } else if (ParseValue(arg, "--epsilon=", &value)) {
      flags.epsilon = ParseDoubleFlagOrDie("--epsilon", value);
    } else if (ParseValue(arg, "--window=", &value)) {
      flags.window = ParseIntFlagOrDie("--window", value, 1);
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

EngineStats RunOnce(const TransportBenchFlags& flags,
                    const TransportRow& row) {
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
  config.transport.kind = row.kind;
  config.transport.owned_shards = row.owned_shards;
  config.transport.num_consumers = flags.consumers;
  config.transport.queue_capacity = flags.queue_capacity;
  config.transport.max_batch_runs = flags.batch_runs;
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
  return *stats;
}

void PrintRun(const TransportRow& row, const EngineStats& stats) {
  std::printf("[%-15s] %.0f reports/s (%.2fs, %zu producer threads)",
              row.name, stats.reports_per_sec, stats.elapsed_seconds,
              stats.threads);
  if (row.kind != TransportKind::kDirect) {
    const TransportStats& t = stats.transport;
    const double frames_per_sec =
        stats.elapsed_seconds > 0.0
            ? static_cast<double>(t.frames) / stats.elapsed_seconds
            : 0.0;
    std::printf(", %llu frames (%.0f frames/s), %llu push stalls, "
                "%llu pop waits",
                static_cast<unsigned long long>(t.frames), frames_per_sec,
                static_cast<unsigned long long>(t.push_stalls),
                static_cast<unsigned long long>(t.pop_waits));
    if (t.wire_bytes > 0) {
      std::printf(", %.1f MB on the wire",
                  static_cast<double>(t.wire_bytes) / 1048576.0);
    }
  }
  std::printf("\n");
}

JsonObjectWriter RunJson(const EngineStats& stats) {
  JsonObjectWriter run;
  run.AddInt("producer_threads", stats.threads);
  run.AddNumber("elapsed_seconds", stats.elapsed_seconds);
  run.AddNumber("reports_per_sec", stats.reports_per_sec);
  const TransportStats& t = stats.transport;
  run.AddInt("frames", t.frames);
  run.AddNumber("frames_per_sec",
                stats.elapsed_seconds > 0.0
                    ? static_cast<double>(t.frames) / stats.elapsed_seconds
                    : 0.0);
  run.AddInt("push_stalls", t.push_stalls);
  run.AddInt("pop_waits", t.pop_waits);
  run.AddInt("wire_bytes", t.wire_bytes);
  run.AddInt("connections", t.connections);
  run.AddInt("consumers", t.consumer_runs.size());
  run.AddInt("owned_shards", stats.owned_shards ? 1 : 0);
  run.AddInt("seqlock_read_retries", stats.seqlock_read_retries);
  return run;
}

double Ratio(double value, double base) {
  return base > 0.0 ? value / base : 0.0;
}

int Run(int argc, char** argv) {
  const TransportBenchFlags flags = ParseFlags(argc, argv);
  std::printf("=== Transport throughput: %s, eps=%.2f, %zu users x %zu "
              "slots, %d consumers, capacity %zu, %zu runs/frame ===\n\n",
              std::string(flags.algorithm).c_str(), flags.epsilon,
              flags.users, flags.slots, flags.consumers,
              flags.queue_capacity, flags.batch_runs);

  std::vector<EngineStats> results;
  for (const TransportRow& row : kRows) {
    results.push_back(RunOnce(flags, row));
    PrintRun(row, results.back());
  }
  const EngineStats& direct = results[0];
  const EngineStats& framed = results[1];
  const EngineStats& socket = results[2];
  const EngineStats& socket_owned = results[3];

  const double framed_ratio =
      Ratio(framed.reports_per_sec, direct.reports_per_sec);
  std::printf("\nframed queue (encode + CRC decode) sustains %.0f%% of "
              "direct ingest; socket %.0f%%; socket with owned shards "
              "%.0f%% (%llu seqlock retries)\n",
              100.0 * framed_ratio,
              100.0 * Ratio(socket.reports_per_sec, direct.reports_per_sec),
              100.0 * Ratio(socket_owned.reports_per_sec,
                            direct.reports_per_sec),
              static_cast<unsigned long long>(
                  socket_owned.seqlock_read_retries));

  if (!flags.json_path.empty()) {
    JsonObjectWriter json;
    json.AddString("bench", "transport_throughput");
    json.AddString("algorithm", flags.algorithm);
    json.AddString("signal", flags.signal);
    json.AddNumber("epsilon", flags.epsilon);
    json.AddInt("users", flags.users);
    json.AddInt("slots", flags.slots);
    json.AddInt("seed", flags.seed);
    json.AddInt("queue_capacity", flags.queue_capacity);
    json.AddInt("batch_runs", flags.batch_runs);
    json.AddInt("consumers", flags.consumers);
    for (size_t i = 0; i < results.size(); ++i) {
      json.AddObject(kRows[i].name, RunJson(results[i]));
    }
    json.AddNumber("framed_vs_direct", framed_ratio);
    json.AddHex("digest", direct.stream_digest);
    bool match = true;
    for (const EngineStats& stats : results) {
      match = match && stats.stream_digest == direct.stream_digest;
    }
    json.AddString("digest_match", match ? "ok" : "MISMATCH");
    const std::string path(flags.json_path);
    const Status written = WriteJsonFile(path, json);
    if (written.ok()) {
      std::printf("result file: %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "warning: %s\n", written.ToString().c_str());
    }
  }

  for (size_t i = 0; i < results.size(); ++i) {
    if (results[i].stream_digest != direct.stream_digest) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: digest %016llx on %s differs "
                   "from %016llx on direct\n",
                   static_cast<unsigned long long>(
                       results[i].stream_digest),
                   kRows[i].name,
                   static_cast<unsigned long long>(direct.stream_digest));
      return 1;
    }
  }
  std::printf("determinism: digest %016llx identical across all %zu "
              "transport rows\n",
              static_cast<unsigned long long>(direct.stream_digest),
              results.size());
  return 0;
}

}  // namespace
}  // namespace capp::bench

int main(int argc, char** argv) { return capp::bench::Run(argc, argv); }
