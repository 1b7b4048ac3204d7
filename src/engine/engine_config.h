// Scenario configuration and result counters for the stream-publication
// engine. An EngineConfig describes one simulated deployment -- which
// algorithm the fleet's devices run, at what privacy level, how many users
// and slots, and how the simulator should execute it -- and an EngineStats
// records what happened (throughput, accuracy, and the determinism digest).
#ifndef CAPP_ENGINE_ENGINE_CONFIG_H_
#define CAPP_ENGINE_ENGINE_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "algorithms/factory.h"
#include "core/status.h"
#include "multidim/multidim_perturber.h"
#include "storage/wal.h"
#include "transport/transport.h"

namespace capp {

/// Synthetic per-user workload families the fleet can generate. Every
/// family derives each user's stream purely from that user's own RNG, which
/// is what makes fleet runs independent of thread scheduling.
enum class SignalKind {
  kConstant,   ///< Per-user constant level drawn uniformly from [0.3, 0.7].
  kSinusoid,   ///< Shared daily sinusoid, per-user phase and noise.
  kAr1,        ///< AR(1) around 0.5 (phi = 0.9).
  kRandomWalk, ///< Reflected random walk in [0, 1].
  kPiecewise,  ///< Piecewise-constant on/off levels (device duty cycles).
};

/// Short display name of a signal kind ("constant", "sinusoid", ...).
std::string_view SignalKindName(SignalKind kind);

/// Parses a display name back into a SignalKind.
Result<SignalKind> ParseSignalKind(std::string_view name);

/// Collector-side streaming analytics tier: when enabled, the fleet's
/// collector maintains per-slot perturbed-value histograms (sized by
/// StreamingAnalyzer::CollectorHistogramOptions at the config's per-slot
/// budget epsilon/window) alongside its exact aggregates, so sliding-
/// window SW-EM distribution reconstruction, crowd means, and trend
/// detection run online -- no report matrix, works in aggregate-only
/// mode. Off by default: histogram maintenance costs a few percent of
/// ingest throughput (bench_analytics_throughput tracks it).
struct AnalyticsConfig {
  bool enabled = false;
  /// Resolution of the reconstructed input distribution over [0,1]; the
  /// collector histograms get 2x this many bins over the SW output range.
  int histogram_buckets = 32;
};

/// Collector durability tier (storage/durable_collector.h): when `dir`
/// is set, every ingested run is teed into a write-ahead log there
/// before the in-RAM collector, existing state under the directory is
/// recovered on Fleet::Create, and (optionally) checkpoints bound the
/// log's replay cost. Off by default -- the WAL costs throughput
/// (bench_durability_throughput tracks how much per fsync policy) and
/// simulation experiments rarely need to survive a crash.
struct DurabilityConfig {
  /// WAL directory; empty disables durability entirely.
  std::string dir;
  WalFsyncPolicy fsync_policy = WalFsyncPolicy::kPerFrames;
  /// kPerFrames: runs between fdatasyncs.
  size_t fsync_every_frames = 1024;
  /// kTimed: max milliseconds between fdatasyncs.
  int fsync_interval_ms = 50;
  /// Checkpoint + truncate the log every N runs; 0 = never.
  size_t checkpoint_every_runs = 0;

  bool enabled() const { return !dir.empty(); }
};

/// One simulated deployment scenario.
struct EngineConfig {
  /// Algorithm every device runs. Must support online operation.
  AlgorithmKind algorithm = AlgorithmKind::kCapp;
  /// w-event privacy level for every device.
  double epsilon = 1.0;
  int window = 10;

  /// Fleet shape.
  size_t num_users = 1000;
  size_t num_slots = 100;
  SignalKind signal = SignalKind::kSinusoid;

  /// Attributes per report (>= 1). With dims > 1 every device publishes a
  /// d-vector per slot: the fleet synthesizes d correlated signals per
  /// user, perturbs them through `multidim_strategy` (epsilon is the
  /// *total* window budget across dimensions), ships them dim-major in
  /// 0xC6 wire frames, and the collector stores slot*dims interleaved
  /// cells. dims = 1 is bit-identical to the pre-multidim engine on every
  /// path: same draws, same 0xC5 bytes, same digests and fingerprints.
  size_t dims = 1;
  /// How a d-dimensional stream splits its budget (ignored when dims=1).
  MultidimStrategy multidim_strategy = MultidimStrategy::kBudgetSplit;

  /// Execution. num_threads 0 means one thread per hardware thread.
  /// chunk_size is the number of users per work unit; chunk boundaries are
  /// fixed by this value alone, so stats stay identical across thread
  /// counts.
  int num_threads = 1;
  size_t chunk_size = 4096;
  uint64_t seed = 1;

  /// Collector storage shards (ShardedCollectorOptions::num_shards).
  size_t num_shards = 16;
  /// Vestige of the retired raw-stream storage mode: must stay false
  /// (ValidateEngineConfig refuses true with InvalidArgument). It remains
  /// only because bench/pipeline/workloads.h and trial.h still assign
  /// and read it, and goes once those are gone.
  bool keep_streams = false;

  /// Collector-side SMA window for published streams; 0 uses the
  /// algorithm's own recommendation (3 for the PP family, 1 for baselines).
  int smoothing_window = 0;

  /// How reports travel from the fleet's workers to the collector:
  /// kDirect ingests in place, each worker handing the collector batches
  /// of transport.max_batch_runs runs (IngestUserRuns); kQueueFramed
  /// encodes every run as a wire frame onto the transport hub's bounded
  /// MPSC rings, one per consumer, drained and CRC-checked by
  /// transport.num_consumers threads; kSocket streams the same frames
  /// through a socket to a collector-side acceptor (an in-process
  /// loopback server, or the external tools/collector_server when
  /// transport.socket_path or tcp_host is set). The queued kinds route
  /// each run to the consumer owning its shard group, which is what lets
  /// transport.owned_shards drop the shard mutexes. Results are
  /// bit-identical across all kinds, thread mixes, and ingest modes.
  TransportOptions transport;

  /// Streaming collector-side analytics (per-slot value histograms).
  AnalyticsConfig analytics = {};

  /// Collector durability (WAL + recovery + checkpoints). Incompatible
  /// with an external-socket transport: the reports then live in the
  /// collector_server process, which owns its own WAL via --wal-dir.
  DurabilityConfig durability = {};
};

/// Fingerprint of the config fields that determine what a collector's
/// aggregate state means: algorithm, budget, fleet shape, signal, seed,
/// shard count, stream retention, and the analytics histogram geometry.
/// Stamped into every WAL segment and checkpoint so recovery refuses to
/// merge state across incompatible configurations (and so a duplicate
/// replay of a foreign log is caught). Transport and durability knobs
/// are deliberately excluded: they may change between restarts without
/// changing what the aggregates mean.
uint64_t EngineConfigFingerprint(const EngineConfig& config);

/// Fingerprint of the config surface a fleet and a collector must agree
/// on before streaming reports at each other: privacy budget (epsilon,
/// window) and -- for multi-dimensional streams -- dims and the budget
/// strategy. Stamped into the socket transport's connection handshake
/// (transport/handshake.h) by Fleet::Create and by collector_server, so
/// a mismatched pair is refused loudly before any data flows. Narrower
/// than EngineConfigFingerprint on purpose: fleet shape, signal, and
/// seed may differ across the clients of one collector.
uint64_t StreamHandshakeFingerprint(double epsilon, int window, size_t dims,
                                    MultidimStrategy strategy);

/// Validates an EngineConfig (delegates perturber knobs to
/// ValidatePerturberOptions and checks the engine-specific fields).
Status ValidateEngineConfig(const EngineConfig& config);

/// Counters from one Fleet run.
struct EngineStats {
  size_t users = 0;
  size_t slots = 0;
  size_t reports = 0;  ///< Total reports delivered to the collector.
  size_t threads = 0;  ///< Worker threads actually used.
  size_t chunks = 0;   ///< Work units the population was split into.

  double elapsed_seconds = 0.0;
  double reports_per_sec = 0.0;

  /// Attributes per report (EngineConfig::dims).
  size_t dims = 1;

  /// Mean over slots of (published population mean - true population
  /// mean)^2, the engine-level analogue of the paper's per-slot MSE.
  /// With dims > 1, the mean runs over all dims * slots (dimension,
  /// slot) pairs.
  double mean_slot_mse = 0.0;
  /// Mean over slots of |published population mean - true population mean|.
  double mean_abs_error = 0.0;
  /// Per-dimension splits of the two errors above, length `dims` (for
  /// d = 1, one-element vectors equal to the totals).
  std::vector<double> per_dim_mse;
  std::vector<double> per_dim_mae;

  /// Per-slot series behind the error statistics: the true population mean
  /// and the published (smoothed) estimate, both of length dims * slots,
  /// dim-major (dimension k's series at [k * slots, (k+1) * slots)).
  std::vector<double> true_slot_means;
  std::vector<double> published_slot_means;

  /// Order-independent digest of every user's published (smoothed) stream:
  /// XOR over users of UserStreamDigest(user id, stream) -- the chunk-level
  /// wyhash-style hash in core/stream_digest.h (digest v2). Bit-identical
  /// across runs with the same config and seed regardless of thread count
  /// -- the engine's determinism contract in one number.
  uint64_t stream_digest = 0;

  /// Transport counters (zero under TransportKind::kDirect, where no
  /// queue exists).
  TransportStats transport;

  /// Reports clamped by the collector's fixed-point aggregates (magnitude
  /// beyond 2^16). Always zero on a successful run: Fleet::Run fails with
  /// an Internal error instead of returning silently-wrong aggregates.
  uint64_t aggregate_saturations = 0;

  /// True when transport.owned_shards put the collector in single-writer
  /// (seqlock) mode for this run.
  bool owned_shards = false;
  /// Seqlock snapshot retries observed by the collector's aggregate
  /// readers during the run (owned_shards only; always 0 in mutex mode).
  uint64_t seqlock_read_retries = 0;

  /// Durability counters (all zero when DurabilityConfig is off):
  /// appends, fsyncs, checkpoints, deduped resends, and the recovery
  /// summary from Fleet::Create's replay of a pre-existing WAL.
  WalStats wal;

  /// One-line human-readable summary.
  std::string ToString() const;
};

}  // namespace capp

#endif  // CAPP_ENGINE_ENGINE_CONFIG_H_
