// Fleet simulation: the paper's deployment (Fig. 1) at population scale.
//
//   $ ./fleet_simulation                 # 1,000,000 users, 24 slots
//   $ ./fleet_simulation 250000 48       # custom population / horizon
//   $ ./fleet_simulation 250000 48 --transport=framed --consumers=4
//   $ ./fleet_simulation 250000 48 --transport=socket --consumers=4
//   $ ./fleet_simulation 250000 48 --connect=/tmp/capp.sock
//
// A million simulated devices each run CAPP under w-event LDP over a noisy
// daily sinusoid. Reports stream into the sharded collector in aggregate-
// only mode (per-slot count/mean/variance, O(1) memory per slot), and the
// published population mean is compared against the ground truth the
// simulator knows. Demonstrates the estimation-error law the engine exists
// to exploit: per-slot error shrinks as the population grows.
//
// --transport=direct|framed|socket selects how reports travel to the
// collector (in-place call, MPSC rings carrying CRC-checked binary wire
// frames, or those frames streamed through a loopback unix socket);
// results are bit-identical across all three. --consumers=N sizes the
// draining thread pool; each consumer ingests the runs of its own shard
// group. --connect=PATH sends the reports to an external collector
// process instead (tools/collector_server listening on PATH), and
// --connect-tcp=HOST:PORT does the same across hosts over TCP; the
// accuracy table still prints, because the fleet side computes it from
// its own ground truth, but the collector-side aggregates then live in
// the server process. --connect-streams=N stripes
// the upload over N handshaked connections, each an independently
// resumable sequence-numbered stream: if the collector (or the network)
// drops one mid-run, the fleet redials up to --reconnect-attempts times
// and replays its unacked window, and the server's dedup keeps the final
// aggregates bit-identical to an undisturbed run.
// --analytics turns on the collector's streaming histogram tier and
// prints per-window SW-EM distribution reconstruction, crowd means, and
// trend detection computed purely from the collector's per-slot state --
// the collector never materializes a report matrix, so the same analytics
// run at the million-user aggregate-only scale.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/streaming_analytics.h"
#include "analysis/trend.h"
#include "core/parse.h"
#include "storage/collector_backend.h"
#include "engine/engine_config.h"
#include "engine/fleet.h"
#include "telemetry/metrics.h"
#include "telemetry/registry.h"
#include "telemetry/summary.h"
#include "transport/tcp_transport.h"
#include "transport/transport.h"

namespace {

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [users] [slots] "
               "[--transport=direct|framed|socket]\n"
               "          [--consumers=N] [--connect=PATH]\n"
               "          [--connect-tcp=HOST:PORT] [--connect-streams=N]\n"
               "          [--connect-retries=N] [--connect-backoff-ms=N]\n"
               "          [--reconnect-attempts=N]\n"
               "          [--dims=N] "
               "[--multidim=budget_split|sample_split]\n"
               "          [--analytics] [--metrics-json=FILE] "
               "[--sample-every=N]\n",
               argv0);
  std::exit(2);
}

// The streaming analytics report: what the collector tier can publish
// per window without ever seeing a raw stream, next to the ground truth
// only the simulator knows. A multi-dimensional collector gets one
// report per attribute, each computed from that attribute's cell slice.
int PrintAnalytics(const capp::Fleet& fleet,
                   const capp::EngineStats& stats) {
  const capp::EngineConfig& config = fleet.config();
  capp::StreamingAnalyzerOptions options;
  // Budget split spends epsilon / (dims * w) per (attribute, slot)
  // publication; sample split (and d = 1) spends epsilon / w.
  const double budget_dims =
      config.dims > 1 && config.multidim_strategy ==
                             capp::MultidimStrategy::kBudgetSplit
          ? static_cast<double>(config.dims)
          : 1.0;
  options.epsilon_per_slot =
      config.epsilon / (budget_dims * config.window);
  options.histogram_buckets = config.analytics.histogram_buckets;
  options.window = static_cast<size_t>(config.window);
  auto analyzer = capp::StreamingAnalyzer::Create(options);
  if (!analyzer.ok()) {
    std::fprintf(stderr, "analytics setup failed: %s\n",
                 analyzer.status().ToString().c_str());
    return 1;
  }
  for (size_t dim = 0; dim < config.dims; ++dim) {
    auto analysis = analyzer->AnalyzeCollectorDim(fleet.collector(), dim);
    if (!analysis.ok()) {
      std::fprintf(stderr, "analytics failed: %s\n",
                   analysis.status().ToString().c_str());
      return 1;
    }
    if (config.dims > 1) std::printf("\nattribute %zu:", dim);
    std::printf("\nstreaming analytics (%zu-slot windows, %d-bin SW "
                "histograms over [%.3f, %.3f], %llu outlier(s)):\n",
                options.window, analyzer->collector_histogram().num_bins,
                analyzer->collector_histogram().lo,
                analyzer->collector_histogram().hi,
                static_cast<unsigned long long>(analysis->total_outliers));
    std::printf("  window        reports    crowd mean  true mean   "
                "recon mean  crowd err  recon err\n");
    const double* true_dim = stats.true_slot_means.data() + dim * stats.slots;
    for (const capp::WindowAnalytics& w : analysis->windows) {
      double true_mean = 0.0;
      for (size_t t = w.begin; t < w.begin + w.length; ++t) {
        true_mean += true_dim[t];
      }
      true_mean /= static_cast<double>(w.length);
      std::printf("  [%3zu,%3zu)   %9llu    %.4f      %.4f      %.4f      "
                  "%+.4f    %+.4f\n",
                  w.begin, w.begin + w.length,
                  static_cast<unsigned long long>(w.reports), w.crowd_mean,
                  true_mean, w.distribution_mean, w.crowd_mean - true_mean,
                  w.distribution_mean - true_mean);
    }
    std::printf("  trend segments of the collector's slot means:");
    for (const capp::TrendSegment& segment : analysis->trends) {
      std::printf(" [%zu,%zu) %s (slope %+.4f)", segment.begin, segment.end,
                  std::string(capp::TrendDirectionName(segment.direction))
                      .c_str(),
                  segment.slope);
    }
    std::printf("\n");
    const std::vector<double> true_slice(true_dim, true_dim + stats.slots);
    auto agreement = capp::TrendAgreement(analysis->slot_means, true_slice);
    if (!agreement.ok()) {
      std::fprintf(stderr, "trend agreement failed: %s\n",
                   agreement.status().ToString().c_str());
      return 1;
    }
    std::printf("  trend agreement vs true slot means: %.3f\n", *agreement);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  capp::EngineConfig config;
  config.algorithm = capp::AlgorithmKind::kCapp;
  config.epsilon = 1.0;
  config.window = 10;
  config.num_users = 1000000;
  config.num_slots = 24;
  config.num_threads = 0;  // all hardware threads
  config.signal = capp::SignalKind::kSinusoid;

  std::string metrics_json;
  capp::telemetry::TelemetryConfig telemetry_config;

  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--transport=")) {
      auto kind = capp::ParseTransportKind(arg.substr(12));
      if (!kind.ok()) {
        std::fprintf(stderr, "%s (want direct|framed|socket)\n",
                     kind.status().ToString().c_str());
        return 2;
      }
      config.transport.kind = *kind;
      // Last flag wins outright: a --transport after a --connect must not
      // leave a stale endpoint behind (a framed run that claims a remote
      // collector would strand the server and hide the results).
      config.transport.socket_path.clear();
      config.transport.tcp_host.clear();
      config.transport.tcp_port = 0;
    } else if (arg.starts_with("--connect=")) {
      if (arg.size() <= 10) {
        std::fprintf(stderr, "--connect wants a unix socket path\n");
        return 2;
      }
      config.transport.kind = capp::TransportKind::kSocket;
      config.transport.socket_path = std::string(arg.substr(10));
      config.transport.tcp_host.clear();
      config.transport.tcp_port = 0;
    } else if (arg.starts_with("--connect-tcp=")) {
      auto endpoint = capp::ParseTcpEndpoint(arg.substr(14));
      if (!endpoint.ok()) {
        std::fprintf(stderr, "--connect-tcp: %s\n",
                     endpoint.status().ToString().c_str());
        return 2;
      }
      if (endpoint->tcp_port == 0) {
        std::fprintf(stderr,
                     "--connect-tcp needs the collector's real port "
                     "(collector_server prints the bound port on "
                     "startup)\n");
        return 2;
      }
      config.transport.kind = capp::TransportKind::kSocket;
      config.transport.tcp_host = endpoint->tcp_host;
      config.transport.tcp_port = endpoint->tcp_port;
      config.transport.socket_path.clear();
    } else if (arg.starts_with("--connect-streams=")) {
      int streams = 0;
      if (!capp::ParseIntText(arg.substr(18), 1, &streams) ||
          streams > 64) {
        std::fprintf(stderr,
                     "--connect-streams wants an integer in [1, 64], got "
                     "'%s'\n",
                     arg.substr(18).data());
        return 2;
      }
      config.transport.connect_streams = streams;
    } else if (arg.starts_with("--reconnect-attempts=")) {
      int attempts = 0;
      if (!capp::ParseIntText(arg.substr(21), 0, &attempts)) {
        std::fprintf(stderr,
                     "--reconnect-attempts wants an integer >= 0, got "
                     "'%s'\n",
                     arg.substr(21).data());
        return 2;
      }
      config.transport.reconnect_attempts = attempts;
    } else if (arg.starts_with("--connect-retries=")) {
      int retries = 0;
      if (!capp::ParseIntText(arg.substr(18), 0, &retries)) {
        std::fprintf(stderr,
                     "--connect-retries wants an integer >= 0, got '%s'\n",
                     arg.substr(18).data());
        return 2;
      }
      config.transport.connect_retries = retries;
    } else if (arg.starts_with("--connect-backoff-ms=")) {
      int backoff = 0;
      if (!capp::ParseIntText(arg.substr(21), 1, &backoff)) {
        std::fprintf(stderr,
                     "--connect-backoff-ms wants a positive integer, got "
                     "'%s'\n",
                     arg.substr(21).data());
        return 2;
      }
      config.transport.connect_backoff_ms = backoff;
    } else if (arg.starts_with("--dims=")) {
      // Strict: "--dims=0", "--dims=4x" or "--dims=" must exit 2, never
      // run a mis-shaped fleet.
      uint64_t dims = 0;
      if (!capp::ParseUint64Text(arg.substr(7), &dims) || dims < 1) {
        std::fprintf(stderr, "--dims wants a positive integer, got '%s'\n",
                     arg.substr(7).data());
        return 2;
      }
      config.dims = dims;
    } else if (arg.starts_with("--multidim=")) {
      auto strategy = capp::ParseMultidimStrategy(arg.substr(11));
      if (!strategy.ok()) {
        std::fprintf(stderr, "%s (want budget_split|sample_split)\n",
                     strategy.status().ToString().c_str());
        return 2;
      }
      config.multidim_strategy = *strategy;
    } else if (arg == "--analytics") {
      config.analytics.enabled = true;
    } else if (arg.starts_with("--metrics-json=")) {
      if (arg.size() <= 15) {
        std::fprintf(stderr, "--metrics-json wants a file path\n");
        return 2;
      }
      metrics_json = std::string(arg.substr(15));
      telemetry_config.enabled = true;
    } else if (arg.starts_with("--sample-every=")) {
      int every = 0;
      if (!capp::ParseIntText(arg.substr(15), 1, &every)) {
        std::fprintf(stderr,
                     "--sample-every wants a positive integer, got '%s'\n",
                     arg.substr(15).data());
        return 2;
      }
      telemetry_config.sample_every =
          static_cast<uint32_t>(every);
    } else if (arg.starts_with("--consumers=")) {
      int consumers = 0;
      if (!capp::ParseIntText(arg.substr(12), 1, &consumers) ||
          consumers > 1024) {
        std::fprintf(stderr, "--consumers wants an integer in [1, 1024], "
                             "got '%s'\n",
                     arg.substr(12).data());
        return 2;
      }
      config.transport.num_consumers = consumers;
    } else if (arg.starts_with("--")) {
      // A typoed flag must not fall through and be parsed as a 0-user
      // positional.
      std::fprintf(stderr, "unknown flag '%s'\n", arg.data());
      Usage(argv[0]);
    } else if (positional < 2) {
      // Same strictness as the flags: "25O000" must not silently run 25
      // users.
      uint64_t parsed = 0;
      if (!capp::ParseUint64Text(arg, &parsed) || parsed < 1) {
        std::fprintf(stderr, "%s wants a positive integer, got '%s'\n",
                     positional == 0 ? "users" : "slots", arg.data());
        return 2;
      }
      (positional == 0 ? config.num_users : config.num_slots) = parsed;
      ++positional;
    } else {
      Usage(argv[0]);
    }
  }

  capp::telemetry::Configure(telemetry_config);

  const bool remote_collector =
      config.transport.kind == capp::TransportKind::kSocket &&
      (!config.transport.socket_path.empty() ||
       !config.transport.tcp_host.empty());
  const std::string dims_note =
      config.dims > 1
          ? ", " + std::to_string(config.dims) + " dims (" +
                std::string(
                    capp::MultidimStrategyName(config.multidim_strategy)) +
                ")"
          : "";
  std::printf("Simulating %zu users x %zu slots (CAPP, eps=%.1f, w=%d%s, "
              "%s transport%s)...\n",
              config.num_users, config.num_slots, config.epsilon,
              config.window, dims_note.c_str(),
              std::string(capp::TransportKindName(config.transport.kind))
                  .c_str(),
              remote_collector ? ", remote collector" : "");

  auto fleet = capp::Fleet::Create(config);
  if (!fleet.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 fleet.status().ToString().c_str());
    return 1;
  }
  auto stats = fleet->Run();
  if (!stats.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 stats.status().ToString().c_str());
    return 1;
  }

  std::printf("\n%s\n", stats->ToString().c_str());
  for (size_t k = 0; k < stats->dims; ++k) {
    if (stats->dims > 1) std::printf("\nattribute %zu:", k);
    std::printf("\n  slot   true mean   published   error\n");
    for (size_t t = 0; t < stats->slots; ++t) {
      const double truth = stats->true_slot_means[k * stats->slots + t];
      const double published =
          stats->published_slot_means[k * stats->slots + t];
      std::printf("  %4zu   %.4f      %.4f      %+.4f\n", t, truth,
                  published, published - truth);
    }
  }
  std::printf("\nper-slot MSE of the published population mean: %.3e\n",
              stats->mean_slot_mse);
  if (stats->dims > 1) {
    // The per-attribute accuracy split: under sample split later
    // attributes pay for republishing stale values; under budget split
    // every attribute pays the d-way budget cut evenly.
    for (size_t k = 0; k < stats->dims; ++k) {
      std::printf("  attribute %zu: MSE %.3e, MAE %.3e\n", k,
                  stats->per_dim_mse[k], stats->per_dim_mae[k]);
    }
  }
  // CAPP calibrates w-slot window averages (Lemma IV.2), not individual
  // slots, so the paper's headline metric is the subsequence mean. Compare
  // every length-w window of the published means against ground truth
  // (over every attribute in a multi-dimensional run).
  double max_window_err = 0.0;
  const size_t w = static_cast<size_t>(config.window);
  if (stats->slots >= w) {
    for (size_t k = 0; k < stats->dims; ++k) {
      const size_t row = k * stats->slots;
      for (size_t begin = 0; begin + w <= stats->slots; ++begin) {
        double true_sum = 0.0;
        double published_sum = 0.0;
        for (size_t t = begin; t < begin + w; ++t) {
          true_sum += stats->true_slot_means[row + t];
          published_sum += stats->published_slot_means[row + t];
        }
        max_window_err = std::max(
            max_window_err, std::fabs(published_sum - true_sum) / w);
      }
    }
    std::printf("max |error| of any %zu-slot window mean: %.4f\n", w,
                max_window_err);
  }
  std::printf("throughput: %.0f reports/s over %zu threads\n",
              stats->reports_per_sec, stats->threads);

  if (config.transport.kind != capp::TransportKind::kDirect) {
    capp::telemetry::RunSummary summary;
    summary.transport = &stats->transport;
    summary.owned_shards = stats->owned_shards;
    summary.seqlock_read_retries = stats->seqlock_read_retries;
    if (stats->wal.frames_appended > 0) summary.wal = &stats->wal;
    std::printf("%s", capp::telemetry::RenderSummary(summary).c_str());
  }

  int rc = 0;
  if (remote_collector) {
    std::printf("collector aggregates live in the server process "
                "(see collector_server's summary%s)\n",
                config.analytics.enabled
                    ? "; run it with --analytics for the streaming tables"
                    : "");
  } else {
    // The collector's own streaming aggregates tell the same story without
    // ever materializing a single per-user stream.
    const auto aggregates = fleet->collector().PopulationSlotAggregates();
    double max_stddev = 0.0;
    for (const auto& agg : aggregates) {
      if (agg.Variance() > max_stddev * max_stddev) {
        max_stddev = std::sqrt(agg.Variance());
      }
    }
    std::printf("max per-slot report stddev at the collector: %.3f\n",
                max_stddev);
    // Same format as collector_server's line, so a two-process run can
    // be digest-checked against this in-process oracle in CI.
    std::printf("aggregate digest: %016llx\n",
                static_cast<unsigned long long>(
                    capp::CollectorStateDigest(fleet->collector())));
    if (config.analytics.enabled) {
      rc = PrintAnalytics(*fleet, *stats);
    }
  }

  if (!metrics_json.empty()) {
    const capp::Status written =
        capp::telemetry::MetricsRegistry::Global().WriteJsonFile(metrics_json);
    if (!written.ok()) {
      std::fprintf(stderr, "metrics snapshot failed: %s\n",
                   written.ToString().c_str());
      if (rc == 0) rc = 1;
    } else {
      std::printf("metrics snapshot written to %s\n", metrics_json.c_str());
    }
  }
  return rc;
}
