// Socket plumbing for every endpoint, plus the client-side reliability
// layer both socket families share. This is the one place that opens,
// dials, reads, writes and stops a socket: the collector server
// (transport/socket_transport.h), the metrics scrape server
// (telemetry/metrics_socket.h) and the producer client all go through it.
//
// The wire protocol is byte-identical over AF_UNIX and TCP: the same
// handshake (transport/handshake.h), the same sequence-stamped chunk
// framing, the same FIN. This header adds what multi-host deployment
// needs on top of the codec:
//
//   * fd helpers -- one ErrnoStatus, one EINTR-proof SIGPIPE-free
//     SendAll, one ReadFull that tells a clean EOF from a truncation;
//   * endpoint plumbing -- parse HOST:PORT; listen on either family
//     (a unix path refuses a live server and reclaims a stale file, TCP
//     port 0 binds an ephemeral port and reports it back); dial either
//     family with an EINTR-correct connect; run an acceptor loop and
//     stop it;
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

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/status.h"

namespace capp {

/// Where a socket-transport peer lives: a unix-socket path, or a TCP
/// host + port. Exactly one family is set.
struct SocketEndpoint {
  std::string unix_path;
  std::string tcp_host;
  int tcp_port = 0;

  static SocketEndpoint Unix(std::string path) {
    SocketEndpoint endpoint;
    endpoint.unix_path = std::move(path);
    return endpoint;
  }

  bool is_tcp() const { return !tcp_host.empty(); }
  /// "path" or "host:port", for log and error messages.
  std::string ToString() const;
};

/// Parses "HOST:PORT" (numeric IPv4 or a resolvable name; port in
/// [0, 65535] -- 0 is only meaningful for listeners, which bind an
/// ephemeral port) into a TCP endpoint.
Result<SocketEndpoint> ParseTcpEndpoint(std::string_view host_port);

/// Status::Internal("<what>: <strerror(errno)>").
Status ErrnoStatus(const std::string& what);

/// Blocking send of every byte (EINTR-proof). MSG_NOSIGNAL: a vanished
/// peer surfaces as a Status, never as a SIGPIPE that kills the process.
Status SendAll(int fd, std::span<const uint8_t> bytes);

enum class ReadOutcome {
  kOk,        // all n bytes read
  kCleanEof,  // EOF before the first byte (a boundary between chunks)
  kError,     // EOF mid-read (truncation) or a socket error
};

/// Blocking read of exactly n bytes (EINTR-proof).
ReadOutcome ReadFull(int fd, uint8_t* buf, size_t n);

/// Binds and listens a stream socket on the endpoint. A unix path that a
/// live server still answers on is refused with AlreadyExists (probe
/// connect); only a stale file (connect -> ECONNREFUSED) is unlinked
/// first. TCP sets SO_REUSEADDR, and port 0 picks an ephemeral port.
/// Returns the listening fd and stores the bound TCP port (0 for unix)
/// in *bound_port when it is non-null.
Result<int> ListenEndpointFd(const SocketEndpoint& endpoint, int backlog,
                             int* bound_port);

/// Creates and connects a stream socket of the endpoint's family
/// (TCP_NODELAY on TCP). A signal that interrupts connect() does not fail
/// it: the attempt continues asynchronously, so the dial polls for the
/// verdict and reads SO_ERROR. Returns the connected fd.
Result<int> ConnectEndpointFd(const SocketEndpoint& endpoint);

/// The acceptor loop: accepts on listen_fd and hands every connection to
/// `serve`, which owns the fd, until StopAcceptor. Transient failures
/// pass: a peer that reset before accept() is skipped, and running out of
/// descriptors or kernel memory backs off and retries (the connection
/// waits in the backlog). Returns OK once stopped, or the listener error
/// that ended the loop.
Status AcceptLoop(int listen_fd, const std::atomic<bool>& stopping,
                  const std::function<void(int fd)>& serve);

/// Stops the thread running AcceptLoop on *listen_fd, bound at `self`;
/// the caller has already raised the loop's `stopping` flag. Every
/// connection whose connect() completed is in the backlog, so the loop
/// must drain it rather than abandon it: the listener turns non-blocking
/// (the loop ends at the first empty accept), and a zero-byte dial to
/// `self` wakes a blocked accept(). When that dial fails (backlog full,
/// path raced away), shutdown() on the listener fails the accept
/// instead. Then joins the thread, closes the listener (*listen_fd = -1)
/// and unlinks a unix path.
void StopAcceptor(const SocketEndpoint& self, int* listen_fd,
                  std::thread* acceptor);

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
/// reconnect-with-resume. It owns one connected fd at a time and writes
/// each chunk as [u32 LE length][u64 LE seq] then the payload (two
/// sends), the FIN as a zero length plus the final sequence. Not
/// thread-safe; the hub guards each stripe with its own mutex.
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

  ~ResilientSocketClient() { Close(); }
  ResilientSocketClient(const ResilientSocketClient&) = delete;
  ResilientSocketClient& operator=(const ResilientSocketClient&) = delete;

  /// Redials that successfully resumed the stream mid-run.
  uint64_t reconnects() const { return reconnects_; }
  /// Chunks retransmitted from the resume window across all redials.
  uint64_t replayed_chunks() const { return replayed_chunks_; }

 private:
  explicit ResilientSocketClient(const Options& options)
      : options_(options) {}

  /// Up to dial_attempts dials + handshakes (backing off between them).
  /// On success the connection is live and the returned value is the
  /// server's resume_seq for this stream.
  Result<uint64_t> DialAndHandshake(int dial_attempts);
  /// One dial + handshake; leaves a failed connection for the caller to
  /// close.
  Result<uint64_t> DialOnce();
  /// Sends one sequence-stamped chunk on the live connection.
  Status SendChunk(uint64_t seq, std::span<const uint8_t> payload);
  /// Re-dials and replays every retained chunk past the server's ack.
  Status ReconnectAndReplay();
  /// Consumes any stream acks sitting in the receive buffer and trims
  /// the resume window. Never blocks; read errors are left for the next
  /// write to surface.
  void DrainAcks();

  Options options_;
  int fd_ = -1;  // the live connection; -1 while down
  ResumeBuffer window_;
  uint64_t next_seq_ = 1;   // sequence the next chunk will carry
  uint64_t reconnects_ = 0;
  uint64_t replayed_chunks_ = 0;
  std::vector<uint8_t> ack_pending_;  // partial stream-ack bytes
  Status ack_error_;  // latched corrupt-ack verdict
};

}  // namespace capp

#endif  // CAPP_TRANSPORT_TCP_TRANSPORT_H_
