// Transport selection and counters: how perturbed reports travel from the
// fleet's producers to the collector. Kept free of engine dependencies so
// EngineConfig can embed these knobs without a layering cycle.
#ifndef CAPP_TRANSPORT_TRANSPORT_H_
#define CAPP_TRANSPORT_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"

namespace capp {

/// The longest unix-socket path: sockaddr_un::sun_path (108 bytes on
/// Linux) less its terminator. Every unix path check uses this bound.
inline constexpr size_t kMaxUnixSocketPathBytes = 107;

/// How reports reach the collector.
enum class TransportKind {
  kDirect,       ///< In-process function call (no queue, no consumers).
  kQueueFramed,  ///< Per-consumer MPSC rings of binary wire frames (encode
                 ///< + CRC-checked decode on every run: the full wire
                 ///< path, in process).
  kSocket,       ///< Socket stream of wire frames (unix-domain on one
                 ///< host, TCP across hosts): producers write handshaked,
                 ///< sequence-stamped chunks to a collector-side
                 ///< acceptor, so fleet and collector can live in
                 ///< different processes (tools/collector_server).
};

/// Short display name ("direct", "framed", "socket").
std::string_view TransportKindName(TransportKind kind);

/// Parses a display name back into a TransportKind.
Result<TransportKind> ParseTransportKind(std::string_view name);

/// Knobs for the queued transports. Validated for every kind (a config
/// should not become invalid by flipping the kind); only the queued kinds
/// exercise them at runtime, except max_batch_runs.
struct TransportOptions {
  TransportKind kind = TransportKind::kDirect;
  /// Ring capacity in frames. Small values exercise backpressure; the
  /// default absorbs scheduling jitter at ~max_batch_runs users per frame
  /// while bounding the backlog a fast producer can build (16 frames of
  /// 64 d=4 x 100-slot runs are ~3 MB).
  size_t queue_capacity = 16;
  /// Consumer threads draining the rings into the collector. Each
  /// consumer owns one ring, and every run is routed to the consumer
  /// owning its shard group (shard_index % num_consumers), so no two
  /// consumers ever write the same collector shard.
  int num_consumers = 2;
  /// User runs per frame before a producer pushes it. Also sizes the
  /// collector batches (CollectorBackend::IngestUserRuns) each kDirect
  /// fleet worker stages, the one knob read under kDirect.
  size_t max_batch_runs = 64;
  /// Run the collector's shards in single-writer mode
  /// (ShardedCollectorOptions::single_writer): the shard-group routing
  /// already gives each shard exactly one consumer, so that consumer
  /// holds the shard mutex only to grow the shard's store, not for each
  /// run, and aggregate readers retry through the store's seqlock
  /// instead of waiting. Requires a queued kind -- under kDirect every
  /// worker thread ingests, so no shard has a single writer. The store
  /// and the results are the same as in mutex mode; only the run
  /// writer's locking changes.
  bool owned_shards = false;
  /// kSocket only. Empty: the hub runs an in-process loopback collector
  /// server on an auto-generated /tmp path (single-process testing and
  /// benchmarking of the full socket path). Non-empty: connect to an
  /// external collector server (tools/collector_server) listening at this
  /// unix-socket path; the consumer knobs then take effect server-side
  /// and the local collector stays empty.
  std::string socket_path;
  /// kSocket only. TCP address of an external collector server
  /// (tools/collector_server --tcp). Non-empty host selects the TCP
  /// family; mutually exclusive with socket_path. The wire protocol --
  /// handshake, sequenced chunks, resume -- is identical to the unix
  /// family.
  std::string tcp_host;
  int tcp_port = 0;
  /// kSocket only. Extra connect attempts after the first one fails
  /// (ECONNREFUSED / missing socket file), spaced by bounded exponential
  /// backoff starting at connect_backoff_ms, doubling up to 2s per step
  /// and jittered deterministically per stream. 0 = fail immediately.
  /// Lets a fleet start before (or resume while) its collector_server is
  /// still coming up or recovering a WAL.
  int connect_retries = 0;
  /// Initial backoff between connect attempts, in milliseconds.
  int connect_backoff_ms = 50;
  /// kSocket only. Number of striped connections to the collector: each
  /// producer is pinned round-robin to one of connect_streams
  /// connections, so producers on different stripes never serialize on
  /// one socket mutex. Each stripe is an independently resumable stream.
  int connect_streams = 1;
  /// kSocket only. Redial attempts after a connection dies *mid-stream*
  /// (distinct from connect_retries, which covers the initial dial): the
  /// stream replays its unacked chunk window on each successful redial.
  /// 0 disables resume -- any mid-stream drop fails the run.
  int reconnect_attempts = 5;
  /// kSocket only. Engine-config fingerprint stamped into the connection
  /// handshake; the collector refuses a mismatch before any data flows.
  /// Fleet::Create fills this from the engine config
  /// (StreamHandshakeFingerprint); 0 means "unfingerprinted" and must
  /// match a server-side 0.
  uint64_t handshake_fingerprint = 0;
};

/// Validates transport knobs (>= 1 capacity / consumers / batch runs).
Status ValidateTransportOptions(const TransportOptions& options);

/// Counters from one transport session (final after TransportHub::Drain).
struct TransportStats {
  uint64_t frames = 0;        ///< Frames pushed through the queue.
  uint64_t runs = 0;          ///< User runs published.
  uint64_t reports = 0;       ///< Individual slot reports published.
  uint64_t push_stalls = 0;   ///< Producer blocks on a full ring.
  uint64_t pop_waits = 0;     ///< Consumer blocks on an empty ring.
  uint64_t wire_bytes = 0;    ///< Encoded bytes (kQueueFramed / kSocket).
  uint64_t decode_failures = 0;  ///< Frames rejected by the codec.
  uint64_t connections = 0;   ///< Socket connections accepted (kSocket).
  /// Socket streams that never reached a clean FIN: truncated or dropped
  /// and never resumed, an absurd chunk length, a sequence gap, or a FIN
  /// sequence mismatch. Any nonzero value is report loss and fails
  /// Drain().
  uint64_t stream_errors = 0;
  /// Connections refused at handshake (version / fingerprint / dims
  /// mismatch, malformed hello). Nonzero fails the server's Finish().
  uint64_t handshake_rejects = 0;
  /// Successful mid-stream redials (client side: connections resumed).
  uint64_t reconnects = 0;
  /// Chunks retransmitted from client resume windows after redials.
  uint64_t replayed_chunks = 0;
  /// Replayed chunks the server skipped as already ingested (dedup).
  uint64_t duplicate_chunks = 0;
  /// Runs ingested per consumer thread (utilization / balance).
  std::vector<uint64_t> consumer_runs;
};

}  // namespace capp

#endif  // CAPP_TRANSPORT_TRANSPORT_H_
