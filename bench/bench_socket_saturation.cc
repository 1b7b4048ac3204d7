// Socket saturation benchmark: how many reports/s does one collector
// server ingest as the client side stripes its stream over 1, 2, and 4
// connections -- on the unix-socket family and on TCP loopback?
//
// Unlike bench_transport_throughput (which runs the full fleet engine and
// so measures perturbation + wire together), this bench isolates the
// socket tier: pre-generated runs are pushed through a client-mode
// TransportHub into an in-process SocketCollectorServer, so the number
// that moves between rows is the wire itself. Striping exists because one
// connection serializes every producer behind a single socket write lock;
// the rows quantify what each extra connection buys back.
//
//   $ ./bench_socket_saturation                  # 200k users x 50 slots
//   $ ./bench_socket_saturation --quick          # CI smoke sizing
//
// Every row's collector digest is cross-checked against a direct
// in-process ingest of the same runs (exit status is non-zero on any
// mismatch), and the results land in BENCH_socket_saturation.json.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "core/status.h"
#include "engine/sharded_collector.h"
#include "harness/flags.h"
#include "harness/json_out.h"
#include "storage/collector_backend.h"
#include "transport/socket_transport.h"
#include "transport/transport.h"
#include "transport/transport_hub.h"

namespace capp::bench {
namespace {

struct SaturationFlags {
  size_t users = 200000;
  size_t slots = 50;
  int producers = 4;
  int consumers = 2;
  size_t batch_runs = 64;
  uint64_t seed = 1;
  std::string_view json_path = "BENCH_socket_saturation.json";
};

struct SaturationRow {
  const char* name;  // display + JSON key
  bool tcp;
  int streams;
};

constexpr SaturationRow kRows[] = {
    {"unix_1", false, 1}, {"unix_2", false, 2}, {"unix_4", false, 4},
    {"tcp_1", true, 1},   {"tcp_2", true, 2},   {"tcp_4", true, 4},
};

struct RowResult {
  double elapsed_seconds = 0.0;
  double reports_per_sec = 0.0;
  uint64_t frames = 0;
  uint64_t wire_bytes = 0;
  uint64_t connections = 0;
  uint64_t digest = 0;
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--users=N] [--slots=N] [--producers=N]\n"
               "          [--consumers=N] [--batch-runs=N] [--seed=N]\n"
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

SaturationFlags ParseFlags(int argc, char** argv) {
  SaturationFlags flags;
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
    } else if (ParseValue(arg, "--producers=", &value)) {
      flags.producers = ParseIntFlagOrDie("--producers", value, 1);
    } else if (ParseValue(arg, "--consumers=", &value)) {
      flags.consumers = ParseIntFlagOrDie("--consumers", value, 1);
    } else if (ParseValue(arg, "--batch-runs=", &value)) {
      flags.batch_runs = ParseUint64FlagOrDie("--batch-runs", value);
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

// The fixed run a user publishes, regenerated per row so every row (and
// the direct oracle) pushes the identical multiset of reports.
void FillRun(const SaturationFlags& flags, uint64_t user,
             std::vector<double>* run) {
  Rng rng(flags.seed * 1000003 + user);
  run->clear();
  for (size_t s = 0; s < flags.slots; ++s) {
    run->push_back(rng.Uniform(0.0, 1.0));
  }
}

void PublishAll(const SaturationFlags& flags, TransportHub& hub) {
  std::vector<std::thread> threads;
  for (int p = 0; p < flags.producers; ++p) {
    threads.emplace_back([&flags, &hub, p] {
      auto producer = hub.MakeProducer();
      std::vector<double> run;
      for (uint64_t user = static_cast<uint64_t>(p); user < flags.users;
           user += static_cast<uint64_t>(flags.producers)) {
        FillRun(flags, user, &run);
        producer.Publish(user, 0, run);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

uint64_t DirectDigest(const SaturationFlags& flags) {
  auto collector = ShardedCollector::Create();
  if (!collector.ok()) {
    std::fprintf(stderr, "collector: %s\n",
                 collector.status().ToString().c_str());
    std::exit(1);
  }
  std::vector<double> run;
  for (uint64_t user = 0; user < flags.users; ++user) {
    FillRun(flags, user, &run);
    collector->IngestUserRun(user, 0, run);
  }
  return CollectorStateDigest(*collector);
}

RowResult RunRow(const SaturationFlags& flags, const SaturationRow& row) {
  auto collector = ShardedCollector::Create();
  if (!collector.ok()) {
    std::fprintf(stderr, "collector: %s\n",
                 collector.status().ToString().c_str());
    std::exit(1);
  }
  SocketCollectorServer::Options server_options;
  if (row.tcp) {
    server_options.endpoint.tcp_host = "127.0.0.1";  // port 0: ephemeral
  } else {
    server_options.endpoint.unix_path = MakeLoopbackSocketPath();
  }
  server_options.num_consumers = flags.consumers;
  server_options.max_batch_runs = flags.batch_runs;
  auto server = SocketCollectorServer::Create(&*collector, server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "server: %s\n",
                 server.status().ToString().c_str());
    std::exit(1);
  }

  // Client-mode hub: publishes re-encode into wire frames and stream out
  // over connect_streams striped connections.
  auto local = ShardedCollector::Create();
  if (!local.ok()) std::exit(1);
  TransportOptions options;
  options.kind = TransportKind::kSocket;
  if (row.tcp) {
    options.tcp_host = "127.0.0.1";
    options.tcp_port = (*server)->endpoint().tcp_port;
  } else {
    options.socket_path = server_options.endpoint.unix_path;
  }
  options.connect_streams = row.streams;
  options.num_consumers = flags.consumers;
  options.max_batch_runs = flags.batch_runs;
  auto hub = TransportHub::Create(&*local, options);
  if (!hub.ok()) {
    std::fprintf(stderr, "hub: %s\n", hub.status().ToString().c_str());
    std::exit(1);
  }

  const auto start = std::chrono::steady_clock::now();
  PublishAll(flags, **hub);
  const Status drained = (*hub)->Drain();
  if (!drained.ok()) {
    std::fprintf(stderr, "drain: %s\n", drained.ToString().c_str());
    std::exit(1);
  }
  (*server)->WaitForCompletedSessions(1);
  const Status finished = (*server)->Finish();
  const auto end = std::chrono::steady_clock::now();
  if (!finished.ok()) {
    std::fprintf(stderr, "server finish: %s\n",
                 finished.ToString().c_str());
    std::exit(1);
  }

  RowResult result;
  result.elapsed_seconds =
      std::chrono::duration<double>(end - start).count();
  const double reports =
      static_cast<double>(flags.users) * static_cast<double>(flags.slots);
  result.reports_per_sec = result.elapsed_seconds > 0.0
                               ? reports / result.elapsed_seconds
                               : 0.0;
  const TransportStats& stats = (*server)->stats();
  result.frames = stats.frames;
  result.wire_bytes = stats.wire_bytes;
  result.connections = stats.connections;
  result.digest = CollectorStateDigest(*collector);
  return result;
}

double Ratio(double value, double base) {
  return base > 0.0 ? value / base : 0.0;
}

int Run(int argc, char** argv) {
  const SaturationFlags flags = ParseFlags(argc, argv);
  std::printf("=== Socket saturation: %zu users x %zu slots, %d producers, "
              "%d consumers, %zu runs/frame ===\n\n",
              flags.users, flags.slots, flags.producers, flags.consumers,
              flags.batch_runs);

  const uint64_t oracle = DirectDigest(flags);
  std::vector<RowResult> results;
  for (const SaturationRow& row : kRows) {
    results.push_back(RunRow(flags, row));
    const RowResult& r = results.back();
    std::printf("[%-7s] %.0f reports/s (%.2fs, %llu connections, "
                "%.1f MB on the wire)%s\n",
                row.name, r.reports_per_sec, r.elapsed_seconds,
                static_cast<unsigned long long>(r.connections),
                static_cast<double>(r.wire_bytes) / 1048576.0,
                r.digest == oracle ? "" : "  DIGEST MISMATCH");
  }

  const double unix_gain =
      Ratio(results[2].reports_per_sec, results[0].reports_per_sec);
  const double tcp_gain =
      Ratio(results[5].reports_per_sec, results[3].reports_per_sec);
  const double tcp_vs_unix =
      Ratio(results[5].reports_per_sec, results[2].reports_per_sec);
  std::printf("\n4-way striping sustains %.0f%% of 1-connection ingest on "
              "unix, %.0f%% on tcp; tcp_4 runs at %.0f%% of unix_4\n",
              100.0 * unix_gain, 100.0 * tcp_gain, 100.0 * tcp_vs_unix);

  bool digests_ok = true;
  for (const RowResult& r : results) {
    digests_ok = digests_ok && r.digest == oracle;
  }

  if (!flags.json_path.empty()) {
    JsonObjectWriter json;
    json.AddString("bench", "socket_saturation");
    json.AddInt("users", flags.users);
    json.AddInt("slots", flags.slots);
    json.AddInt("producers", flags.producers);
    json.AddInt("consumers", flags.consumers);
    json.AddInt("batch_runs", flags.batch_runs);
    json.AddInt("seed", flags.seed);
    for (size_t i = 0; i < results.size(); ++i) {
      const RowResult& r = results[i];
      JsonObjectWriter row;
      row.AddNumber("elapsed_seconds", r.elapsed_seconds);
      row.AddNumber("reports_per_sec", r.reports_per_sec);
      row.AddInt("frames", r.frames);
      row.AddInt("wire_bytes", r.wire_bytes);
      row.AddInt("connections", r.connections);
      json.AddObject(kRows[i].name, row);
    }
    json.AddNumber("unix_4_vs_unix_1", unix_gain);
    json.AddNumber("tcp_4_vs_tcp_1", tcp_gain);
    json.AddNumber("tcp_4_vs_unix_4", tcp_vs_unix);
    json.AddHex("digest", oracle);
    json.AddString("digest_match", digests_ok ? "ok" : "MISMATCH");
    const std::string path(flags.json_path);
    const Status written = WriteJsonFile(path, json);
    if (written.ok()) {
      std::printf("result file: %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "warning: %s\n", written.ToString().c_str());
    }
  }

  if (!digests_ok) {
    std::fprintf(stderr,
                 "DIGEST MISMATCH: a socket row diverged from direct "
                 "in-process ingest (oracle %016llx)\n",
                 static_cast<unsigned long long>(oracle));
    return 1;
  }
  std::printf("determinism: digest %016llx identical across direct and "
              "all %zu socket rows\n",
              static_cast<unsigned long long>(oracle),
              std::size(kRows));
  return 0;
}

}  // namespace
}  // namespace capp::bench

int main(int argc, char** argv) { return capp::bench::Run(argc, argv); }
