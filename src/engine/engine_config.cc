#include "engine/engine_config.h"

#include <bit>
#include <cstdio>
#include <vector>

#include "algorithms/perturber.h"
#include "transport/wire_format.h"

namespace capp {

std::string_view SignalKindName(SignalKind kind) {
  switch (kind) {
    case SignalKind::kConstant:
      return "constant";
    case SignalKind::kSinusoid:
      return "sinusoid";
    case SignalKind::kAr1:
      return "ar1";
    case SignalKind::kRandomWalk:
      return "walk";
    case SignalKind::kPiecewise:
      return "piecewise";
  }
  return "unknown";
}

Result<SignalKind> ParseSignalKind(std::string_view name) {
  for (SignalKind kind :
       {SignalKind::kConstant, SignalKind::kSinusoid, SignalKind::kAr1,
        SignalKind::kRandomWalk, SignalKind::kPiecewise}) {
    if (name == SignalKindName(kind)) return kind;
  }
  return Status::InvalidArgument("unknown signal kind: " + std::string(name));
}

Status ValidateEngineConfig(const EngineConfig& config) {
  PerturberOptions options;
  options.epsilon = config.epsilon;
  options.window = config.window;
  CAPP_RETURN_IF_ERROR(ValidatePerturberOptions(options));
  if (config.num_users < 1) {
    return Status::InvalidArgument("num_users must be >= 1");
  }
  if (config.num_slots < 1) {
    return Status::InvalidArgument("num_slots must be >= 1");
  }
  if (config.dims < 1) {
    return Status::InvalidArgument("dims must be >= 1");
  }
  if (config.dims > kWireMaxDims) {
    return Status::InvalidArgument(
        "dims must be <= " + std::to_string(kWireMaxDims) +
        " (the wire codec's dimension bound)");
  }
  if (config.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0 (0 = auto)");
  }
  if (config.chunk_size < 1) {
    return Status::InvalidArgument("chunk_size must be >= 1");
  }
  if (config.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (config.smoothing_window < 0 ||
      (config.smoothing_window != 0 && config.smoothing_window % 2 == 0)) {
    return Status::InvalidArgument(
        "smoothing_window must be odd, or 0 for the algorithm default");
  }
  if (config.analytics.enabled && config.analytics.histogram_buckets < 2) {
    return Status::InvalidArgument(
        "analytics.histogram_buckets must be >= 2");
  }
  CAPP_RETURN_IF_ERROR(ValidateTransportOptions(config.transport));
  if (config.keep_streams) {
    return Status::InvalidArgument(
        "the engine's collector keeps only per-slot aggregates; "
        "keep_streams must be false (per-user streams live in "
        "CollectorSession)");
  }
  if (config.durability.enabled()) {
    WalOptions wal;
    wal.dir = config.durability.dir;
    wal.fsync_policy = config.durability.fsync_policy;
    wal.fsync_every_frames = config.durability.fsync_every_frames;
    wal.fsync_interval_ms = config.durability.fsync_interval_ms;
    CAPP_RETURN_IF_ERROR(ValidateWalOptions(wal));
    if (config.transport.kind == TransportKind::kSocket &&
        (!config.transport.socket_path.empty() ||
         !config.transport.tcp_host.empty())) {
      // With an external collector the reports never reach this
      // process's backend, so a local WAL would log nothing. The
      // collector_server process owns durability there (--wal-dir).
      return Status::InvalidArgument(
          "durability lives in the collector process; pass --wal-dir to "
          "collector_server instead of configuring a fleet-side WAL "
          "over an external socket");
    }
  }
  if (config.transport.kind != TransportKind::kDirect &&
      config.num_slots * config.dims > kWireMaxRunLength) {
    // A fleet device uploads its whole stream (all dims * slots doubles)
    // as one run; the queued transports cap a run at the wire codec's
    // frame limit. Reject at validation rather than CHECK-failing
    // mid-run.
    return Status::InvalidArgument(
        "queued transports carry at most " +
        std::to_string(kWireMaxRunLength) +
        " doubles (slots x dims) per user run; lower num_slots/dims or "
        "use kDirect");
  }
  return Status::OK();
}

uint64_t EngineConfigFingerprint(const EngineConfig& config) {
  std::vector<uint64_t> words = {
      static_cast<uint64_t>(config.algorithm),
      std::bit_cast<uint64_t>(config.epsilon),
      static_cast<uint64_t>(config.window),
      static_cast<uint64_t>(config.num_users),
      static_cast<uint64_t>(config.num_slots),
      static_cast<uint64_t>(config.signal),
      config.seed,
      static_cast<uint64_t>(config.num_shards),
      // The retired raw-stream mode's word, pinned at its only legal
      // value so every fingerprint, WAL segment and checkpoint stays
      // byte-identical.
      0u,
      config.analytics.enabled ? 1u : 0u,
      static_cast<uint64_t>(config.analytics.histogram_buckets),
      static_cast<uint64_t>(config.smoothing_window),
  };
  if (config.dims > 1) {
    // Appended only for multi-dimensional configs, so every d=1
    // fingerprint -- and with it every existing WAL segment, checkpoint,
    // and committed baseline -- is unchanged by the dims extension.
    words.push_back(static_cast<uint64_t>(config.dims));
    words.push_back(static_cast<uint64_t>(config.multidim_strategy));
  }
  return WalFingerprint(words);
}

uint64_t StreamHandshakeFingerprint(double epsilon, int window, size_t dims,
                                    MultidimStrategy strategy) {
  // Deliberately narrower than EngineConfigFingerprint: a collector can
  // serve fleets of any size, signal, or seed, but budget and report
  // shape must agree or the aggregates mean nothing. Mirrors the d=1
  // compatibility trick above: dims/strategy are appended only for
  // multi-dimensional streams.
  std::vector<uint64_t> words = {
      std::bit_cast<uint64_t>(epsilon),
      static_cast<uint64_t>(window),
  };
  if (dims > 1) {
    words.push_back(static_cast<uint64_t>(dims));
    words.push_back(static_cast<uint64_t>(strategy));
  }
  return WalFingerprint(words);
}

std::string EngineStats::ToString() const {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "%zu users x %zu slots: %zu reports in %.2fs (%.0f "
                "reports/s, %zu threads), slot-mean MSE %.3e, digest %016llx",
                users, slots, reports, elapsed_seconds, reports_per_sec,
                threads, mean_slot_mse,
                static_cast<unsigned long long>(stream_digest));
  std::string out = buffer;
  if (dims > 1) {
    out += ", ";
    out += std::to_string(dims);
    out += " dims";
  }
  if (owned_shards) {
    out += ", owned shards (";
    out += std::to_string(seqlock_read_retries);
    out += " seqlock retries)";
  }
  return out;
}

}  // namespace capp
