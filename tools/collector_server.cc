// Standalone collector tier for the socket transport: binds a unix-domain
// socket (--socket=PATH) or a TCP listener (--tcp=HOST:PORT), accepts
// fleet connections, and ingests every received wire frame into a
// ShardedCollector -- the paper's untrusted-collector process, separated
// from the device fleet (Fig. 1).
//
//   # terminal 1: the collector
//   $ ./collector_server --socket=/tmp/capp.sock --consumers=4 --owned-shards
//   # terminal 2: the fleet
//   $ ./fleet_simulation 200000 24 --connect=/tmp/capp.sock
//
//   # or across hosts (port 0 picks a free port, printed on startup):
//   $ ./collector_server --tcp=0.0.0.0:7433 --sessions=4
//   $ ./fleet_simulation 200000 24 --connect-tcp=collector:7433
//         --connect-streams=4   (one command line, wrapped here)
//
// Every connection opens with the versioned handshake of
// transport/handshake.h: the server refuses peers with a mismatched
// protocol version, privacy-budget fingerprint (computed from this
// server's --epsilon/--window/--dims/--multidim, which must therefore
// match the fleet's), or report dimensionality -- loudly, before any
// data flows. Streams carry per-connection sequence numbers, so a fleet
// client that loses its connection mid-run redials and replays its
// unacked window while the server's dedup ingests nothing twice.
//
// The server waits until --sessions fleet processes have completed all
// their striped streams (each stream ends with a FIN marker; a session
// completes when all stream_count streams of its client id have finned),
// then drains, prints the per-slot population aggregates it
// reconstructed from perturbed reports alone, and exits 0 -- or exits 1
// loudly if any stream was truncated, any frame failed its CRC, any run
// was lost, or the fixed-point aggregates saturated.
// With --analytics the collector also maintains the streaming per-slot
// histogram tier (sized for the fleet's --epsilon/--window budget) and
// prints per-window SW-EM distribution reconstruction, crowd means, and
// trend segments after the session -- computed entirely from the compact
// per-slot state, no report matrix, so it scales to any population.
// With --wal-dir the server becomes durable: every ingested run is
// appended to a write-ahead log before the in-RAM collector, existing
// WAL/checkpoint state under the directory is recovered before the
// socket is bound, and --checkpoint-every bounds replay cost. SIGKILL
// the server mid-session, restart it with the same --wal-dir, re-run
// the fleet with --connect-retries: the final aggregate digest matches
// an uninterrupted run bit for bit (run-level dedup lands each resent
// user run exactly once).
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/streaming_analytics.h"
#include "core/parse.h"
#include "engine/engine_config.h"
#include "engine/sharded_collector.h"
#include "multidim/multidim_perturber.h"
#include "storage/collector_backend.h"
#include "storage/durable_collector.h"
#include "storage/wal.h"
#include "telemetry/metrics.h"
#include "telemetry/metrics_socket.h"
#include "telemetry/registry.h"
#include "telemetry/summary.h"
#include "transport/socket_transport.h"
#include "transport/tcp_transport.h"
#include "transport/transport.h"

namespace {

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s {--socket=PATH | --tcp=HOST:PORT}\n"
               "          [--sessions=N] [--consumers=N]\n"
               "          [--shards=N] [--capacity=N] [--batch-runs=N]\n"
               "          [--owned-shards] [--max-slots=N]\n"
               "          [--dims=N] "
               "[--multidim=budget_split|sample_split]\n"
               "          [--analytics] [--epsilon=X] [--window=N]\n"
               "          [--wal-dir=DIR] [--fsync=run|frames|timer]\n"
               "          [--fsync-frames=N] [--fsync-interval-ms=N]\n"
               "          [--checkpoint-every=N]\n"
               "          [--metrics-socket=PATH] [--stats-every=SECS]\n"
               "          [--sample-every=N] [--chaos-kill-ms=N]\n",
               argv0);
  std::exit(2);
}

// SIGTERM/SIGINT land here (async-signal-safe: one store, one write); a
// watcher thread does the actual snapshot + WAL seal. The pipe, not the
// atomic, is the wake-up channel.
std::atomic<int> g_signal{0};
int g_signal_pipe[2] = {-1, -1};
// Whoever flips this first owns process teardown: the watcher on a
// signal, main on a clean finish.
std::atomic<bool> g_exiting{false};

void HandleSignal(int sig) {
  g_signal.store(sig, std::memory_order_relaxed);
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

// Reconstruction resolution of the server's analytics pass; the
// collector's histogram tier is sized for it at startup, so the two
// must come from this one constant.
constexpr int kAnalyticsHistogramBuckets = 32;

// The collector tier's streaming analytics: everything here derives from
// per-slot histograms + aggregates of already-perturbed reports. A
// multi-dimensional collector gets one table per attribute, each from
// that attribute's cell slice.
int PrintAnalytics(const capp::ShardedCollector& collector,
                   double epsilon_per_slot, int window) {
  capp::StreamingAnalyzerOptions options;
  options.epsilon_per_slot = epsilon_per_slot;
  options.histogram_buckets = kAnalyticsHistogramBuckets;
  options.window = static_cast<size_t>(window);
  auto analyzer = capp::StreamingAnalyzer::Create(options);
  if (!analyzer.ok()) {
    std::fprintf(stderr, "analytics setup failed: %s\n",
                 analyzer.status().ToString().c_str());
    return 1;
  }
  for (size_t dim = 0; dim < collector.dims(); ++dim) {
    auto analysis = analyzer->AnalyzeCollectorDim(collector, dim);
    if (!analysis.ok()) {
      std::fprintf(stderr, "analytics failed: %s\n",
                   analysis.status().ToString().c_str());
      return 1;
    }
    if (collector.dims() > 1) std::printf("\nattribute %zu:", dim);
    std::printf("\nstreaming analytics (%d-slot windows, %d bins over "
                "[%.3f, %.3f], %llu outlier(s)):\n",
                window, analyzer->collector_histogram().num_bins,
                analyzer->collector_histogram().lo,
                analyzer->collector_histogram().hi,
                static_cast<unsigned long long>(analysis->total_outliers));
    std::printf("  window        reports    crowd mean  recon mean\n");
    for (const capp::WindowAnalytics& w : analysis->windows) {
      std::printf("  [%3zu,%3zu)   %9llu    %.4f      %.4f\n", w.begin,
                  w.begin + w.length,
                  static_cast<unsigned long long>(w.reports), w.crowd_mean,
                  w.distribution_mean);
    }
    std::printf("  trend segments of the slot means:");
    for (const capp::TrendSegment& segment : analysis->trends) {
      std::printf(" [%zu,%zu) %s (slope %+.4f)", segment.begin, segment.end,
                  std::string(capp::TrendDirectionName(segment.direction))
                      .c_str(),
                  segment.slope);
    }
    std::printf("\n");
  }
  return 0;
}

// Strict positive-integer parsing, same convention as the benches: a
// typoed value must exit 2, never run with a silently-wrong number.
uint64_t ParsePositiveOrDie(std::string_view flag, std::string_view text) {
  uint64_t value = 0;
  if (!capp::ParseUint64Text(text, &value) || value < 1) {
    std::fprintf(stderr, "%.*s wants a positive integer, got '%.*s'\n",
                 static_cast<int>(flag.size()), flag.data(),
                 static_cast<int>(text.size()), text.data());
    std::exit(2);
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  capp::SocketCollectorServer::Options options;
  uint64_t sessions = 1;
  uint64_t shards = 16;
  uint64_t max_print_slots = 48;
  uint64_t dims = 1;
  capp::MultidimStrategy multidim_strategy =
      capp::MultidimStrategy::kBudgetSplit;
  bool owned_shards = false;
  bool analytics = false;
  double epsilon = 1.0;
  int window = 10;
  capp::DurableCollectorOptions durable_options;
  std::string metrics_socket;
  uint64_t stats_every = 0;
  uint64_t chaos_kill_ms = 0;
  capp::telemetry::TelemetryConfig telemetry_config;
  // The server always runs with telemetry on: a long-lived ingest process
  // is exactly what live counters exist for, and the enabled-path cost is
  // one branch per site plus sampled timers.
  telemetry_config.enabled = true;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--socket=")) {
      options.socket_path = std::string(arg.substr(9));
    } else if (arg.starts_with("--tcp=")) {
      auto endpoint = capp::ParseTcpEndpoint(arg.substr(6));
      if (!endpoint.ok()) {
        std::fprintf(stderr, "--tcp: %s\n",
                     endpoint.status().ToString().c_str());
        return 2;
      }
      options.tcp_host = endpoint->tcp_host;
      options.tcp_port = endpoint->tcp_port;
    } else if (arg.starts_with("--chaos-kill-ms=")) {
      chaos_kill_ms = ParsePositiveOrDie("--chaos-kill-ms", arg.substr(16));
    } else if (arg.starts_with("--wal-dir=")) {
      durable_options.wal.dir = std::string(arg.substr(10));
    } else if (arg.starts_with("--fsync=")) {
      auto policy = capp::ParseWalFsyncPolicy(arg.substr(8));
      if (!policy.ok()) {
        std::fprintf(stderr, "%s\n", policy.status().ToString().c_str());
        return 2;
      }
      durable_options.wal.fsync_policy = *policy;
    } else if (arg.starts_with("--fsync-frames=")) {
      durable_options.wal.fsync_every_frames =
          ParsePositiveOrDie("--fsync-frames", arg.substr(15));
    } else if (arg.starts_with("--fsync-interval-ms=")) {
      durable_options.wal.fsync_interval_ms = static_cast<int>(
          ParsePositiveOrDie("--fsync-interval-ms", arg.substr(20)));
    } else if (arg.starts_with("--checkpoint-every=")) {
      durable_options.checkpoint_every_runs =
          ParsePositiveOrDie("--checkpoint-every", arg.substr(19));
    } else if (arg == "--analytics") {
      analytics = true;
    } else if (arg.starts_with("--epsilon=")) {
      if (!capp::ParseDoubleText(arg.substr(10), &epsilon) ||
          epsilon <= 0.0) {
        std::fprintf(stderr, "--epsilon wants a positive number\n");
        return 2;
      }
    } else if (arg.starts_with("--window=")) {
      if (!capp::ParseIntText(arg.substr(9), 1, &window)) {
        std::fprintf(stderr, "--window wants a positive integer\n");
        return 2;
      }
    } else if (arg.starts_with("--sessions=")) {
      sessions = ParsePositiveOrDie("--sessions", arg.substr(11));
    } else if (arg.starts_with("--consumers=")) {
      options.num_consumers = static_cast<int>(
          ParsePositiveOrDie("--consumers", arg.substr(12)));
    } else if (arg.starts_with("--shards=")) {
      shards = ParsePositiveOrDie("--shards", arg.substr(9));
    } else if (arg.starts_with("--capacity=")) {
      options.queue_capacity = ParsePositiveOrDie("--capacity",
                                                  arg.substr(11));
    } else if (arg.starts_with("--batch-runs=")) {
      options.max_batch_runs = ParsePositiveOrDie("--batch-runs",
                                                  arg.substr(13));
    } else if (arg.starts_with("--dims=")) {
      dims = ParsePositiveOrDie("--dims", arg.substr(7));
    } else if (arg.starts_with("--multidim=")) {
      auto strategy = capp::ParseMultidimStrategy(arg.substr(11));
      if (!strategy.ok()) {
        std::fprintf(stderr, "%s (want budget_split|sample_split)\n",
                     strategy.status().ToString().c_str());
        return 2;
      }
      multidim_strategy = *strategy;
    } else if (arg == "--owned-shards") {
      owned_shards = true;
    } else if (arg.starts_with("--max-slots=")) {
      max_print_slots = ParsePositiveOrDie("--max-slots", arg.substr(12));
    } else if (arg.starts_with("--metrics-socket=")) {
      metrics_socket = std::string(arg.substr(17));
      if (metrics_socket.empty()) {
        std::fprintf(stderr, "--metrics-socket wants a unix socket path\n");
        return 2;
      }
    } else if (arg.starts_with("--stats-every=")) {
      stats_every = ParsePositiveOrDie("--stats-every", arg.substr(14));
    } else if (arg.starts_with("--sample-every=")) {
      telemetry_config.sample_every = static_cast<uint32_t>(
          ParsePositiveOrDie("--sample-every", arg.substr(15)));
    } else {
      Usage(argv[0]);
    }
  }
  if (options.socket_path.empty() == options.tcp_host.empty()) {
    std::fprintf(stderr,
                 "exactly one of --socket=PATH or --tcp=HOST:PORT is "
                 "required\n");
    Usage(argv[0]);
  }
  capp::telemetry::Configure(telemetry_config);

  // Aggregate-only storage: the collector tier scales by slot count, not
  // by population, exactly like the million-user fleet configuration.
  // Consumers are routed by shard group, so with --owned-shards each owns
  // its shards outright and ingest skips the per-shard mutex (seqlock
  // reads).
  capp::ShardedCollectorOptions collector_options;
  collector_options.num_shards = shards;
  collector_options.dims = dims;
  collector_options.single_writer = owned_shards;
  // Per-(attribute, slot) budget the fleet perturbed with: budget split
  // divides the window budget across dimensions, sample split (and d=1)
  // spends it all on each upload.
  const double epsilon_per_slot =
      dims > 1 && multidim_strategy == capp::MultidimStrategy::kBudgetSplit
          ? epsilon / (static_cast<double>(dims) * window)
          : epsilon / window;
  if (analytics) {
    auto histogram = capp::StreamingAnalyzer::CollectorHistogramOptions(
        epsilon_per_slot, kAnalyticsHistogramBuckets);
    if (!histogram.ok()) {
      std::fprintf(stderr, "analytics setup failed: %s\n",
                   histogram.status().ToString().c_str());
      return 2;
    }
    collector_options.histogram = *histogram;
  }
  auto collector = capp::ShardedCollector::Create(collector_options);
  if (!collector.ok()) {
    std::fprintf(stderr, "collector setup failed: %s\n",
                 collector.status().ToString().c_str());
    return 1;
  }

  // The durable tier, when --wal-dir is set: recover whatever a previous
  // incarnation logged, then tee every future run through the WAL. The
  // fingerprint covers exactly the flags that determine what this
  // server's aggregates mean, so a restart must repeat them (and a WAL
  // from a differently-configured server is refused, not merged).
  std::unique_ptr<capp::DurableCollector> durable;
  capp::CollectorBackend* backend = &*collector;
  if (!durable_options.wal.dir.empty()) {
    std::vector<uint64_t> fingerprint_words = {
        shards,
        analytics ? 1u : 0u,
        static_cast<uint64_t>(kAnalyticsHistogramBuckets),
        std::bit_cast<uint64_t>(epsilon),
        static_cast<uint64_t>(window),
    };
    if (dims > 1) {
      // Appended only for multi-dimensional servers, so every existing
      // d=1 WAL directory keeps its fingerprint.
      fingerprint_words.push_back(dims);
      fingerprint_words.push_back(static_cast<uint64_t>(multidim_strategy));
    }
    durable_options.wal.fingerprint =
        capp::WalFingerprint(fingerprint_words);
    auto created = capp::DurableCollector::Create(&*collector,
                                                  durable_options);
    if (!created.ok()) {
      std::fprintf(stderr, "WAL recovery failed: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    durable = std::move(*created);
    backend = durable.get();
    const capp::WalStats recovered = durable->wal_stats();
    std::printf("collector_server: recovered %llu run(s) from %s "
                "(%llu segment(s), %llu frame(s) replayed, %llu byte(s) "
                "discarded, checkpoint %s)\n",
                static_cast<unsigned long long>(collector->user_count()),
                durable_options.wal.dir.c_str(),
                static_cast<unsigned long long>(recovered.segments_recovered),
                static_cast<unsigned long long>(recovered.frames_replayed),
                static_cast<unsigned long long>(recovered.bytes_discarded),
                recovered.checkpoint_restored ? "restored" : "none");
  }

  // Handshake policy: refuse any fleet whose privacy budget or report
  // shape disagrees with this server's flags. The fingerprint formula is
  // shared with Fleet::Create (StreamHandshakeFingerprint), so the two
  // sides agree exactly when their --epsilon/--window/--dims/--multidim
  // match.
  options.handshake_fingerprint = capp::StreamHandshakeFingerprint(
      epsilon, window, dims, multidim_strategy);
  options.expected_dims = static_cast<uint32_t>(dims);

  auto server = capp::SocketCollectorServer::Create(backend, options);
  if (!server.ok()) {
    std::fprintf(stderr, "server setup failed: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }

  // The live introspection surface: a side socket answering scrapes.
  std::unique_ptr<capp::telemetry::MetricsSocketServer> metrics_server;
  if (!metrics_socket.empty()) {
    auto created = capp::telemetry::MetricsSocketServer::Create(
        &capp::telemetry::MetricsRegistry::Global(), metrics_socket);
    if (!created.ok()) {
      std::fprintf(stderr, "metrics socket setup failed: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    metrics_server = std::move(*created);
  }

  // Die loudly, not silently: SIGTERM/SIGINT flush a final metrics
  // snapshot and seal the WAL before exiting with the conventional
  // 128+signo. (SIGKILL still tests the torn-tail recovery path.)
  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "signal pipe setup failed\n");
    return 1;
  }
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  capp::DurableCollector* const durable_for_signal = durable.get();
  std::thread signal_watcher([durable_for_signal] {
    char byte;
    ssize_t got;
    do {
      got = ::read(g_signal_pipe[0], &byte, 1);
    } while (got < 0 && errno == EINTR);
    if (got <= 0) return;              // main closed the pipe: clean exit
    if (g_exiting.exchange(true)) return;  // main already tearing down
    const int sig = g_signal.load(std::memory_order_relaxed);
    std::fprintf(stderr,
                 "\ncollector_server: received %s; final metrics "
                 "snapshot:\n%s\n",
                 sig == SIGTERM ? "SIGTERM" : "SIGINT",
                 capp::telemetry::MetricsRegistry::Global()
                     .RenderJson()
                     .c_str());
    if (durable_for_signal != nullptr) {
      capp::Status sealed = durable_for_signal->Flush();
      if (sealed.ok()) sealed = durable_for_signal->Seal();
      std::fprintf(stderr, "collector_server: wal %s\n",
                   sealed.ok() ? "sealed" : sealed.ToString().c_str());
    }
    std::fflush(nullptr);
    ::_exit(128 + sig);
  });

  // Periodic one-line summaries from the registry: deltas, not totals,
  // so each line reads as a rate.
  std::atomic<bool> stats_stop{false};
  std::thread stats_thread;
  if (stats_every > 0) {
    stats_thread = std::thread([stats_every, &stats_stop] {
      const auto& registry = capp::telemetry::MetricsRegistry::Global();
      uint64_t last_runs = 0;
      uint64_t last_reports = 0;
      uint64_t last_bytes = 0;
      auto next = std::chrono::steady_clock::now();
      for (;;) {
        next += std::chrono::seconds(stats_every);
        while (!stats_stop.load(std::memory_order_relaxed) &&
               std::chrono::steady_clock::now() < next) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        if (stats_stop.load(std::memory_order_relaxed)) return;
        const uint64_t runs = registry.CounterValue("capp_ingest_runs_total");
        const uint64_t reports =
            registry.CounterValue("capp_ingest_reports_total");
        const uint64_t bytes =
            registry.CounterValue("capp_socket_read_bytes_total");
        std::printf("stats: +%llu runs (%.2fM reports/s), +%.1f MB read, "
                    "queue depth %lld, %lld open conn(s), %llu fsync(s), "
                    "%llu seqlock retrie(s)\n",
                    static_cast<unsigned long long>(runs - last_runs),
                    static_cast<double>(reports - last_reports) /
                        (1e6 * static_cast<double>(stats_every)),
                    static_cast<double>(bytes - last_bytes) / 1048576.0,
                    static_cast<long long>(
                        registry.GaugeValue("capp_transport_queue_depth")),
                    static_cast<long long>(
                        registry.GaugeValue("capp_socket_open_connections")),
                    static_cast<unsigned long long>(
                        registry.CounterValue("capp_wal_fsyncs_total")),
                    static_cast<unsigned long long>(registry.CounterValue(
                        "capp_seqlock_read_retries_total")));
        std::fflush(stdout);
        last_runs = runs;
        last_reports = reports;
        last_bytes = bytes;
      }
    });
  }

  const std::string dims_note =
      dims > 1 ? ", " + std::to_string(dims) + " dims (" +
                     std::string(capp::MultidimStrategyName(
                         multidim_strategy)) +
                     ")"
               : "";
  // The TCP line includes the *bound* port: with --tcp=HOST:0 the kernel
  // picks a free one, and scripts scrape it from this line.
  const std::string listen_endpoint =
      options.tcp_host.empty()
          ? options.socket_path
          : "tcp " + options.tcp_host + ":" +
                std::to_string((*server)->tcp_port());
  std::printf("collector_server: listening on %s (%d consumers, %zu "
              "shards, %s ingest%s); waiting for %llu session(s)\n",
              listen_endpoint.c_str(), options.num_consumers,
              static_cast<size_t>(shards),
              owned_shards ? "owned-shard" : "mutex", dims_note.c_str(),
              static_cast<unsigned long long>(sessions));
  if (metrics_server != nullptr) {
    std::printf("collector_server: metrics socket on %s "
                "(GET /metrics, or the 'stats' verb for JSON)\n",
                metrics_server->socket_path().c_str());
  }
  std::fflush(stdout);

  // Chaos mode for the resume path's CI smoke: periodically hard-close
  // every active data connection. Correct fleet clients redial, replay
  // their unacked window, and the digest still matches an undisturbed
  // run bit for bit.
  std::atomic<bool> chaos_stop{false};
  std::thread chaos_thread;
  if (chaos_kill_ms > 0) {
    capp::SocketCollectorServer* const chaos_server = server->get();
    chaos_thread = std::thread([chaos_kill_ms, &chaos_stop, chaos_server] {
      while (!chaos_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(chaos_kill_ms));
        if (chaos_stop.load(std::memory_order_relaxed)) return;
        const size_t killed = chaos_server->KillActiveConnections();
        if (killed > 0) {
          std::fprintf(stderr, "chaos: killed %zu connection(s)\n", killed);
        }
      }
    });
  }

  // Session-level wait, not connection-level: a killed-and-resumed
  // stream terminates several connections but still counts as one
  // session, so chaos mode cannot trick the server into draining early.
  (*server)->WaitForCompletedSessions(sessions);
  if (chaos_thread.joinable()) {
    chaos_stop.store(true, std::memory_order_relaxed);
    chaos_thread.join();
  }
  if (stats_thread.joinable()) {
    stats_stop.store(true, std::memory_order_relaxed);
    stats_thread.join();
  }
  const capp::Status finished = (*server)->Finish();
  const capp::TransportStats& stats = (*server)->stats();

  // Seal before reporting: the digest below must describe state that is
  // fully on disk, and a clean shutdown leaves the final segment sealed.
  capp::Status durable_status = capp::Status::OK();
  capp::WalStats wal_stats;
  if (durable != nullptr) {
    durable_status = durable->Flush();
    if (durable_status.ok()) durable_status = durable->Seal();
    wal_stats = durable->wal_stats();
  }

  capp::telemetry::RunSummary summary;
  summary.transport = &stats;
  summary.owned_shards = owned_shards;
  summary.seqlock_read_retries = collector->seqlock_read_retries();
  if (durable != nullptr) summary.wal = &wal_stats;
  std::printf("\n%s", capp::telemetry::RenderSummary(summary).c_str());

  // Clean finish owns teardown from here; a signal races no further.
  g_exiting.store(true);
  ::close(g_signal_pipe[1]);
  if (signal_watcher.joinable()) signal_watcher.join();
  ::close(g_signal_pipe[0]);
  if (metrics_server != nullptr) metrics_server->Stop();

  // Order-independent digest of the full aggregate state; a recovered
  // crash run and its uninterrupted oracle must print the same value.
  std::printf("aggregate digest: %016llx\n",
              static_cast<unsigned long long>(
                  capp::CollectorStateDigest(*collector)));

  // What the collector tier knows without ever seeing a raw value: the
  // per-slot population aggregates of the perturbed reports.
  const auto aggregates = collector->PopulationSlotAggregates();
  if (dims <= 1) {
    const size_t shown =
        aggregates.size() < max_print_slots ? aggregates.size()
                                            : max_print_slots;
    if (shown > 0) {
      std::printf("\n  slot   count      mean     stddev\n");
      for (size_t t = 0; t < shown; ++t) {
        std::printf("  %4zu   %7zu   %7.4f   %7.4f\n", t,
                    aggregates[t].Count(), aggregates[t].Mean(),
                    std::sqrt(aggregates[t].Variance()));
      }
      if (shown < aggregates.size()) {
        std::printf("  ... %zu more slot(s)\n", aggregates.size() - shown);
      }
    }
  } else {
    // Cells interleave attributes (cell = slot * dims + dim); label each
    // row with its (slot, dim) pair and cap the printout at
    // max_print_slots whole slots.
    const size_t total_slots = aggregates.size() / dims;
    const size_t shown_slots =
        total_slots < max_print_slots ? total_slots : max_print_slots;
    if (shown_slots > 0) {
      std::printf("\n  slot  dim   count      mean     stddev\n");
      for (size_t t = 0; t < shown_slots; ++t) {
        for (size_t k = 0; k < dims; ++k) {
          const capp::SlotAggregate& cell = aggregates[t * dims + k];
          std::printf("  %4zu  %3zu   %7zu   %7.4f   %7.4f\n", t, k,
                      cell.Count(), cell.Mean(),
                      std::sqrt(cell.Variance()));
        }
      }
      if (shown_slots < total_slots) {
        std::printf("  ... %zu more slot(s)\n", total_slots - shown_slots);
      }
    }
  }

  if (!finished.ok()) {
    std::fprintf(stderr, "\ncollector_server: FAILED: %s\n",
                 finished.ToString().c_str());
    return 1;
  }
  if (!durable_status.ok()) {
    std::fprintf(stderr, "\ncollector_server: WAL FAILED: %s\n",
                 durable_status.ToString().c_str());
    return 1;
  }
  if (analytics && collector->SlotSpan() > 0) {
    const int printed = PrintAnalytics(*collector, epsilon_per_slot, window);
    if (printed != 0) return printed;
  }
  std::printf("\ncollector_server: clean drain (no loss, no corruption, "
              "no saturation)\n");
  return 0;
}
