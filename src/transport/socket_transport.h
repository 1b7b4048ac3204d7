// Cross-process socket transport: the wire the paper's Fig. 1 deployment
// actually implies. Producers (the device fleet) stream the existing
// binary user-run frames (transport/wire_format.h) through a stream
// socket -- unix-domain on one host, TCP across hosts -- to a
// collector-side acceptor, so the fleet processes and the collector
// process scale -- and fail -- independently.
//
// Every connection opens with the versioned handshake defined in
// transport/handshake.h (Hello -> Ack; mismatched version / fingerprint /
// dims refused before any data flows), then carries sequence-stamped
// chunks:
//
//   [u32 LE length][u64 LE seq][chunk: concatenated user-run frames] ...
//   [u32 LE 0][u64 LE final_seq]               <- FIN marker, then close
//
// The length prefix lets the reader batch reads and bound allocations;
// the sequence number makes a dropped connection *resumable*: the server
// remembers the last contiguously-ingested sequence per stream (keyed by
// client id + stream index, surviving reconnects), acks it back in the
// handshake and every kStreamAckEveryChunks (8) chunks mid-stream, so the
// client retains only the chunks in flight or not yet acked, skips any
// replayed chunk at or below it, and treats a gap as a protocol
// violation. The FIN carries the stream's final sequence as an
// end-to-end cross-check. A stream that never FINs cleanly by Finish()
// counts as a stream error and fails the run; corrupted frame bytes
// inside a chunk are caught by the frame codec's CRC on the consumer
// side. Silent loss is impossible on this path -- now even through
// connection kills, because replay + server-side dedup turn detection
// into recovery without ever double-ingesting a run.
//
// Producers write through ResilientSocketClient, and every socket call on
// either end -- listen, dial, send, read, accept, stop -- goes through the
// shared plumbing in transport/tcp_transport.h.
//
// Reports are already locally perturbed when they reach the wire, so the
// stream carries nothing sensitive (the dual-utilization design); no TLS
// or authentication is layered here. A TLS/auth channel and WAL-shipping
// standby are the recorded follow-ons (ROADMAP).
#ifndef CAPP_TRANSPORT_SOCKET_TRANSPORT_H_
#define CAPP_TRANSPORT_SOCKET_TRANSPORT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/status.h"
#include "transport/tcp_transport.h"
#include "transport/transport.h"

namespace capp {

class CollectorBackend;
class TransportHub;

/// Upper bound on one length-prefixed chunk. A corrupted length prefix
/// must not drive an unbounded allocation; honest producers push frames
/// of at most max_batch_runs runs, far below this.
inline constexpr uint32_t kMaxSocketChunkBytes = 1u << 26;

/// A fresh unix-socket path unique to this process and call (the
/// loopback hub binds one per transport session). Honors $TMPDIR when the
/// path still fits kMaxUnixSocketPathBytes; otherwise falls back to /tmp,
/// which always fits.
std::string MakeLoopbackSocketPath();

/// The collector tier of the socket transport: binds a unix socket or a
/// TCP listener, accepts producer connections, handshakes each one, and
/// feeds every received frame through an internal kQueueFramed
/// TransportHub (CRC-checked decode, shard-group routing, N consumer
/// threads) into the ShardedCollector. Used in-process by the
/// loopback kSocket hub and cross-process by tools/collector_server.
class SocketCollectorServer {
 public:
  struct Options {
    /// Where to listen (ListenEndpointFd): a unix path, refused with
    /// AlreadyExists while a live server answers on it; or TCP host +
    /// port, where port 0 binds an ephemeral port that endpoint() reports.
    SocketEndpoint endpoint;
    /// Engine-config fingerprint every client Hello must match
    /// (StreamHandshakeFingerprint); 0 on both sides also matches.
    uint64_t handshake_fingerprint = 0;
    /// Report dimensionality clients must declare; 0 accepts any (the
    /// fingerprint still covers multi-dim configs).
    uint32_t expected_dims = 0;
    int num_consumers = 2;
    size_t queue_capacity = 16;  // as TransportOptions::queue_capacity
    size_t max_batch_runs = 64;
  };

  /// Binds, listens, and starts the acceptor + consumer threads.
  /// `collector` must outlive the server.
  static Result<std::unique_ptr<SocketCollectorServer>> Create(
      CollectorBackend* collector, const Options& options);

  ~SocketCollectorServer();

  SocketCollectorServer(const SocketCollectorServer&) = delete;
  SocketCollectorServer& operator=(const SocketCollectorServer&) = delete;

  /// The bound endpoint: options.endpoint with a requested TCP port 0
  /// resolved to the port actually bound.
  const SocketEndpoint& endpoint() const { return options_.endpoint; }

  /// Blocks until at least `n` connections that spoke at least one byte
  /// have terminated (FIN, drop, or refusal), or the acceptor has died
  /// (Finish() then reports why). Zero-byte probe connections are not
  /// counted.
  void WaitForFinishedConnections(uint64_t n);

  /// Blocks until at least `n` client sessions have completed: a session
  /// (one client id) is complete when all stream_count streams it
  /// declared in its handshakes have FIN'd cleanly. This is the
  /// reconnect-proof wait -- a killed-and-resumed connection terminates
  /// twice but completes once. tools/collector_server waits for its
  /// --sessions target here.
  void WaitForCompletedSessions(uint64_t n);

  /// Chaos hook: shuts down every currently-active data connection,
  /// forcing clients onto their reconnect-with-resume path. The streams
  /// stay resumable; a subsequent reconnect replays from the last acked
  /// sequence. Returns how many connections were shut down. Used by the
  /// resume torture test and collector_server --chaos-kill-ms.
  size_t KillActiveConnections();

  /// Stops accepting, forces any half-open connection to EOF, joins every
  /// reader and consumer, and reports the session's verdict: an error for
  /// any stream left unfinned, refused handshake, rejected frame, lost
  /// run, or saturated collector aggregate. Idempotent; clean producers
  /// must have FIN'd and closed (or been abandoned) before the call.
  Status Finish();

  /// Session counters; stable only after Finish(). frames counts chunks
  /// received off the wire (duplicates included), wire_bytes the bytes
  /// read (prefixes included), runs/reports what the readers re-published
  /// into the hub.
  const TransportStats& stats() const { return stats_; }

 private:
  struct Connection {
    int fd = -1;
    std::thread reader;
    bool active = false;  // handshaked and currently serving data
  };

  /// Per-stream resume state, keyed by (client_id, stream_index) so it
  /// survives the connection that carried it.
  struct StreamState {
    uint64_t published_seq = 0;  // last contiguously-ingested sequence
    uint64_t dup_chunks = 0;     // replayed chunks skipped by dedup
    bool finned = false;
    bool active = false;  // a reader currently owns this stream
  };

  /// Per-client-session completion state.
  struct SessionState {
    uint32_t stream_count = 0;
    uint32_t finned_streams = 0;
    bool completed = false;
  };

  SocketCollectorServer(Options options, std::unique_ptr<TransportHub> hub,
                        int listen_fd, int bound_port);

  void AcceptorMain();
  void ServeConnection(int fd, size_t slot);
  /// Sends a frame on a data connection without blocking the reader on a
  /// stalled peer: non-blocking first, finishing a partial frame
  /// blockingly (a torn ack would poison the client's ack scan).
  static bool SendOnConnection(int fd, std::span<const uint8_t> frame);

  Options options_;
  std::unique_ptr<TransportHub> hub_;
  int listen_fd_ = -1;
  std::thread acceptor_;
  std::atomic<bool> stopping_{false};

  std::mutex mu_;  // guards conns_, streams_, sessions_, counters below
  std::condition_variable conn_finished_cv_;
  std::condition_variable stream_released_cv_;
  std::vector<Connection> conns_;
  std::map<std::pair<uint64_t, uint32_t>, StreamState> streams_;
  std::map<uint64_t, SessionState> sessions_;
  uint64_t accepted_ = 0;   // connections that spoke >= 1 byte
  uint64_t finished_ = 0;   // of those, fully terminated
  uint64_t probes_ = 0;     // zero-byte connections (liveness checks)
  uint64_t completed_sessions_ = 0;
  uint64_t handshake_rejects_ = 0;
  uint64_t duplicate_chunks_ = 0;
  uint64_t protocol_violations_ = 0;  // seq gap, FIN mismatch, bad length
  uint64_t reader_decode_failures_ = 0;
  uint64_t chunks_ = 0;
  uint64_t bytes_read_ = 0;
  bool acceptor_failed_ = false;  // died on a listener error
  Status acceptor_status_;

  bool finished_server_ = false;
  Status finish_status_;
  TransportStats stats_;
};

}  // namespace capp

#endif  // CAPP_TRANSPORT_SOCKET_TRANSPORT_H_
