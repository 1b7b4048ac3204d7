// TCP leg of the socket transport, plus the client-side reliability
// layer both socket families share.
//
// The wire protocol is byte-identical over AF_UNIX and TCP: the same
// handshake (transport/handshake.h), the same sequence-stamped chunk
// framing, the same FIN. This header adds what multi-host deployment
// needs on top of the codec:
//
//   * endpoint plumbing -- parse HOST:PORT, bind/listen a TCP acceptor
//     (port 0 binds an ephemeral port and reports it back), and dial
//     either family with an EINTR-correct connect;
//   * deterministic backoff jitter for reconnect storms -- N striped
//     connections (or N fleet hosts) redialing a restarted collector
//     must not retry in lockstep, and seeding the jitter from the stream
//     index keeps runs reproducible;
//   * ResumeBuffer + ResilientSocketClient: the retained window of
//     unacked chunks and the client that replays it through a redial, so
//     a killed connection becomes a resumed stream instead of an aborted
//     run. The server's sequence dedup guarantees a replayed chunk never
//     double-ingests, so aggregate digests stay bit-identical through
//     any kill/resume schedule.
#ifndef CAPP_TRANSPORT_TCP_TRANSPORT_H_
#define CAPP_TRANSPORT_TCP_TRANSPORT_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"
#include "transport/socket_transport.h"

namespace capp {

/// Where a socket-transport peer lives: a unix-socket path, or a TCP
/// host + port. Exactly one family is set.
struct SocketEndpoint {
  std::string unix_path;
  std::string tcp_host;
  int tcp_port = 0;

  bool is_tcp() const { return !tcp_host.empty(); }
  /// "path" or "host:port", for log and error messages.
  std::string ToString() const;
};

/// Parses "HOST:PORT" (numeric IPv4 or a resolvable name; port in
/// [0, 65535] -- 0 is only meaningful for listeners, which bind an
/// ephemeral port) into a TCP endpoint.
Result<SocketEndpoint> ParseTcpEndpoint(std::string_view host_port);

/// Binds and listens a TCP acceptor socket on host:port (SO_REUSEADDR;
/// port 0 picks an ephemeral port). Returns the listening fd and stores
/// the actually-bound port in *bound_port.
Result<int> TcpListenFd(const std::string& host, int port, int backlog,
                        int* bound_port);

/// Completes a connect() that a signal interrupted. POSIX: after EINTR
/// the connection attempt continues asynchronously, so closing the fd
/// and erroring would fail a perfectly healthy connection under signal
/// load. Polls the fd for writability (itself EINTR-proof) and reads
/// SO_ERROR for the real verdict.
Status FinishInterruptedConnect(int fd, const std::string& what);

/// Creates and connects a stream socket of the endpoint's family
/// (TCP_NODELAY on TCP; EINTR handled via FinishInterruptedConnect).
/// Returns the connected fd.
Result<int> ConnectEndpointFd(const SocketEndpoint& endpoint);

/// Backoff before reconnect attempt `attempt` (0-based): exponential
/// from backoff_ms, capped at 2s per step, scaled by a deterministic
/// jitter in [0.5, 1.0] derived from (jitter_seed, attempt). Two stripes
/// (different seeds) redialing together spread out; the same stripe
/// replays the same schedule run over run.
int BackoffDelayMs(int backoff_ms, int attempt, uint64_t jitter_seed);

/// A process-unique client id for stream identity across reconnects:
/// pid-and-counter based with a per-process random component, so
/// concurrent fleet processes (even across hosts) do not collide.
uint64_t GenerateTransportClientId();

/// The retained window of sent-but-unacked chunks, oldest first: the
/// chunks still in flight to the server plus those it ingested since its
/// last ack, which comes every kStreamAckEveryChunks chunks and trims
/// everything at or below the acked sequence.
class ResumeBuffer {
 public:
  void Retain(uint64_t seq, std::span<const uint8_t> bytes);
  /// Drops every retained chunk with seq <= acked_seq.
  void TrimThrough(uint64_t acked_seq);
  bool empty() const { return chunks_.empty(); }
  size_t chunk_count() const { return chunks_.size(); }
  size_t byte_count() const { return bytes_retained_; }
  /// Sequence of the oldest retained chunk; 0 when empty.
  uint64_t oldest_seq() const {
    return chunks_.empty() ? 0 : chunks_.front().seq;
  }

  struct Chunk {
    uint64_t seq = 0;
    std::vector<uint8_t> bytes;
  };
  const std::deque<Chunk>& chunks() const { return chunks_; }

 private:
  std::deque<Chunk> chunks_;
  size_t bytes_retained_ = 0;
};

/// Producer-side connection with handshake, sequencing, and
/// reconnect-with-resume. Not thread-safe; the hub guards each stripe
/// with its own mutex.
class ResilientSocketClient {
 public:
  struct Options {
    SocketEndpoint endpoint;
    /// Handshake identity + compatibility surface (handshake.h).
    uint64_t fingerprint = 0;
    uint32_t dims = 1;
    uint64_t client_id = 0;
    uint32_t stream_index = 0;
    uint32_t stream_count = 1;
    /// Initial-connect retries (server may still be coming up); same
    /// semantics as TransportOptions::connect_retries.
    int connect_retries = 0;
    int connect_backoff_ms = 50;
    /// Redial attempts after a mid-stream connection death before the
    /// stream gives up and the write fails loudly.
    int reconnect_attempts = 5;
  };

  /// Dials, handshakes, and verifies the server accepted. A refusal
  /// (version/fingerprint/dims mismatch) is FailedPrecondition and is
  /// never retried; connect errors retry per connect_retries.
  static Result<std::unique_ptr<ResilientSocketClient>> Connect(
      const Options& options);

  /// Sends one chunk under the next sequence number, retaining it for
  /// replay. A dead connection triggers redial + resume; only after
  /// reconnect_attempts failed redials (or a non-resumable condition:
  /// refused handshake, server forgot acked data) does this fail.
  Status WriteChunk(std::span<const uint8_t> payload);

  /// Ends the stream: FIN carrying the final sequence, then waits for
  /// the server to consume it (shutdown + drain to EOF, so a TCP close
  /// cannot RST the FIN away). Reconnects and replays like WriteChunk
  /// if the FIN write finds the connection dead.
  Status Finish();

  void Close();

  /// Redials that successfully resumed the stream mid-run.
  uint64_t reconnects() const { return reconnects_; }
  /// Chunks retransmitted from the resume window across all redials.
  uint64_t replayed_chunks() const { return replayed_chunks_; }

 private:
  explicit ResilientSocketClient(const Options& options)
      : options_(options) {}

  /// One dial + handshake. On success the connection is live and the
  /// returned value is the server's resume_seq for this stream.
  Result<uint64_t> DialAndHandshake(int dial_attempts);
  /// Re-dials and replays every retained chunk past the server's ack.
  Status ReconnectAndReplay();
  /// Consumes any stream acks sitting in the receive buffer and trims
  /// the resume window. Never blocks; read errors are left for the next
  /// write to surface.
  void DrainAcks();

  Options options_;
  std::optional<SocketClient> client_;
  ResumeBuffer window_;
  uint64_t next_seq_ = 1;   // sequence the next chunk will carry
  uint64_t reconnects_ = 0;
  uint64_t replayed_chunks_ = 0;
  std::vector<uint8_t> ack_pending_;  // partial stream-ack bytes
  Status ack_error_;  // latched corrupt-ack verdict
};

}  // namespace capp

#endif  // CAPP_TRANSPORT_TCP_TRANSPORT_H_
