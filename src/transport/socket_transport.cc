#include "transport/socket_transport.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <utility>

#include "core/check.h"
#include "storage/collector_backend.h"
#include "telemetry/instruments.h"
#include "telemetry/metrics.h"
#include "transport/handshake.h"
#include "transport/transport_hub.h"
#include "transport/wire_format.h"

namespace capp {
namespace {

uint32_t ReadU32Le(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 |
         static_cast<uint32_t>(p[3]) << 24;
}

uint64_t ReadU64Le(const uint8_t* p) {
  return static_cast<uint64_t>(ReadU32Le(p)) |
         static_cast<uint64_t>(ReadU32Le(p + 4)) << 32;
}

}  // namespace

std::string MakeLoopbackSocketPath() {
  // pid + per-process counter keeps concurrent test binaries and repeated
  // hub sessions within one process from colliding on a path.
  static std::atomic<uint64_t> counter{0};
  const std::string name = "capp-sock-" + std::to_string(::getpid()) + "-" +
                           std::to_string(counter.fetch_add(1)) + ".sock";
  // Honor TMPDIR (sandboxed CI, multi-user hosts) when the resulting path
  // still fits sockaddr_un's sun_path; an over-long TMPDIR falls back to
  // /tmp, which always fits.
  if (const char* tmpdir = std::getenv("TMPDIR");
      tmpdir != nullptr && tmpdir[0] != '\0') {
    std::string dir(tmpdir);
    if (dir.back() == '/') dir.pop_back();
    const std::string candidate = dir + "/" + name;
    if (candidate.size() <= kMaxUnixSocketPathBytes) return candidate;
  }
  return "/tmp/" + name;
}

SocketCollectorServer::SocketCollectorServer(
    Options options, std::unique_ptr<TransportHub> hub, int listen_fd,
    int bound_port)
    : options_(std::move(options)),
      hub_(std::move(hub)),
      listen_fd_(listen_fd) {
  if (options_.endpoint.is_tcp()) options_.endpoint.tcp_port = bound_port;
}

Result<std::unique_ptr<SocketCollectorServer>> SocketCollectorServer::Create(
    CollectorBackend* collector, const Options& options) {
  if (collector == nullptr) {
    return Status::InvalidArgument("socket server needs a collector");
  }
  // The ingest tier behind the acceptor is a regular framed hub; its
  // validation covers the consumer/queue knobs.
  TransportOptions inner;
  inner.kind = TransportKind::kQueueFramed;
  inner.queue_capacity = options.queue_capacity;
  inner.num_consumers = options.num_consumers;
  inner.max_batch_runs = options.max_batch_runs;
  CAPP_ASSIGN_OR_RETURN(auto hub, TransportHub::Create(collector, inner));
  int bound_port = 0;
  CAPP_ASSIGN_OR_RETURN(
      const int listen_fd,
      ListenEndpointFd(options.endpoint, /*backlog=*/64, &bound_port));
  std::unique_ptr<SocketCollectorServer> server(new SocketCollectorServer(
      options, std::move(hub), listen_fd, bound_port));
  server->acceptor_ =
      std::thread([s = server.get()] { s->AcceptorMain(); });
  return server;
}

SocketCollectorServer::~SocketCollectorServer() {
  // Abnormal teardown takes the same path as a clean shutdown; Finish
  // force-EOFs any connection still open, so it cannot hang.
  if (!finished_server_) Finish();
}

void SocketCollectorServer::AcceptorMain() {
  // Finish's wake-up connection closes without sending a byte and is
  // served as a benign probe.
  Status failed = AcceptLoop(listen_fd_, stopping_, [this](int fd) {
    size_t slot;
    {
      std::lock_guard<std::mutex> lock(mu_);
      slot = conns_.size();
      conns_.push_back({fd, {}, false});
    }
    std::thread reader([this, fd, slot] { ServeConnection(fd, slot); });
    std::lock_guard<std::mutex> lock(mu_);
    conns_[slot].reader = std::move(reader);
  });
  if (!failed.ok()) {
    // A real listener error (the socket yanked or shut down under us):
    // dying silently would leave the waiters blocked forever. Record the
    // reason and wake every waiter instead.
    std::lock_guard<std::mutex> lock(mu_);
    acceptor_failed_ = true;
    acceptor_status_ = std::move(failed);
    conn_finished_cv_.notify_all();
  }
}

bool SocketCollectorServer::SendOnConnection(
    int fd, std::span<const uint8_t> frame) {
  // Opportunistic: skip entirely if the peer's receive window is full
  // (the reader must never block ingest on a stalled client), but finish
  // a partially-written frame blockingly -- a torn ack would poison the
  // client's ack scan.
  const ssize_t sent =
      ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
  if (sent < 0) {
    return errno == EAGAIN || errno == EWOULDBLOCK;  // skipped, not failed
  }
  return SendAll(fd, frame.subspan(static_cast<size_t>(sent))).ok();
}

void SocketCollectorServer::ServeConnection(int fd, size_t slot) {
  const bool telemetry_on = telemetry::Enabled();
  if (telemetry_on) telemetry::metrics::SocketOpenConnections().Add(1);
  // Every way out ends here, under mu_: release the descriptor as soon as
  // the connection is over -- a long-running server must not hold every
  // past session's fd until shutdown (that's fd exhaustion after ~1k
  // sessions) -- and wake the waiters. The thread handle stays for
  // Finish() to join.
  const auto close_locked = [&] {
    ::close(fd);
    conns_[slot].fd = -1;
    conns_[slot].active = false;
    if (telemetry_on) telemetry::metrics::SocketOpenConnections().Add(-1);
    stream_released_cv_.notify_all();
    conn_finished_cv_.notify_all();
  };

  // ---- handshake ---------------------------------------------------------
  // First byte decides probe vs peer: a connection that closes without
  // sending anything is a liveness probe (bind guard, shutdown wake-up,
  // port scan) and leaves no trace in the session counters.
  uint8_t hello_bytes[kHandshakeHelloBytes];
  const ReadOutcome first = ReadFull(fd, hello_bytes, 1);
  if (first != ReadOutcome::kOk) {
    std::lock_guard<std::mutex> lock(mu_);
    if (first == ReadOutcome::kCleanEof) {
      ++probes_;
    } else {
      ++accepted_;  // spoke at the TCP level, then died: dropped peer
      ++finished_;
      ++handshake_rejects_;
    }
    close_locked();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++accepted_;
  }
  bool reject = false;
  HandshakeHello hello;
  HandshakeRefusal refusal = HandshakeRefusal::kNone;
  if (ReadFull(fd, hello_bytes + 1, kHandshakeHelloBytes - 1) !=
      ReadOutcome::kOk) {
    reject = true;  // truncated hello: close without an ack
  } else if (auto decoded = DecodeHandshakeHello(hello_bytes);
             !decoded.ok()) {
    reject = true;  // malformed hello: no field is trustworthy, no ack
  } else {
    hello = *decoded;
    if (hello.version != kTransportProtocolVersion) {
      refusal = HandshakeRefusal::kBadVersion;
    } else if (hello.fingerprint != options_.handshake_fingerprint) {
      refusal = HandshakeRefusal::kBadFingerprint;
    } else if (options_.expected_dims != 0 &&
               hello.dims != options_.expected_dims) {
      refusal = HandshakeRefusal::kBadDims;
    }
    if (refusal != HandshakeRefusal::kNone) {
      reject = true;
      HandshakeAck nack;
      nack.accepted = false;
      nack.refusal = refusal;
      nack.fingerprint = options_.handshake_fingerprint;
      nack.dims = options_.expected_dims;
      uint8_t ack_bytes[kHandshakeAckBytes];
      EncodeHandshakeAck(nack, ack_bytes);
      (void)SendAll(fd, ack_bytes);
    }
  }
  if (reject) {
    std::lock_guard<std::mutex> lock(mu_);
    ++handshake_rejects_;
    ++finished_;
    close_locked();
    return;
  }

  // Claim the stream. A stream still owned by a previous reader (its
  // connection was just killed and the client already redialed) must be
  // released first, or the old reader's in-flight chunk could ingest
  // *after* we read published_seq and the replay would double-ingest.
  const auto stream_key = std::make_pair(hello.client_id, hello.stream_index);
  uint64_t published = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    StreamState& st = streams_[stream_key];
    stream_released_cv_.wait(lock, [&] {
      return !st.active || stopping_.load(std::memory_order_acquire);
    });
    if (st.active) {  // stopping: abandon before taking ownership
      ++finished_;
      ++protocol_violations_;
      close_locked();
      return;
    }
    st.active = true;
    published = st.published_seq;
    conns_[slot].active = true;
    SessionState& session = sessions_[hello.client_id];
    session.stream_count = hello.stream_count;
  }
  HandshakeAck ack;
  ack.accepted = true;
  ack.fingerprint = options_.handshake_fingerprint;
  ack.dims = hello.dims;
  ack.resume_seq = published;
  uint8_t ack_bytes[kHandshakeAckBytes];
  EncodeHandshakeAck(ack, ack_bytes);
  const bool ack_sent = SendAll(fd, ack_bytes).ok();

  // ---- sequenced data stream ---------------------------------------------
  // Every connection re-publishes its frames through its own staging
  // producer; the inner hub's consumers CRC-check and ingest them.
  TransportHub::Producer producer = hub_->MakeProducer();
  std::vector<uint8_t> chunk;
  uint64_t chunks = 0;
  uint64_t bytes = 0;
  uint64_t dups = 0;
  uint64_t decode_failures = 0;
  bool violation = false;
  bool got_fin = false;
  while (ack_sent) {
    uint8_t prefix[12];
    if (ReadFull(fd, prefix, sizeof(prefix)) != ReadOutcome::kOk) {
      break;  // interrupted: resumable, the stream just stays unfinned
    }
    const uint32_t len = ReadU32Le(prefix);
    const uint64_t seq = ReadU64Le(prefix + 4);
    if (len == 0) {
      // FIN. Its sequence is the end-to-end cross-check: every chunk the
      // client ever sent must be contiguously ingested (or deduped), or
      // the stream is not clean. A FIN must also actually end the stream
      // -- a length prefix corrupted to zero mid-stream would otherwise
      // discard every following chunk under a clean verdict.
      bytes += sizeof(prefix);
      if (seq != published) {
        violation = true;  // chunks the server never saw: loud failure
        break;
      }
      // The client blocks on this ack before declaring the run finished
      // (EOF alone cannot distinguish "FIN ingested" from "server died
      // with the FIN in flight"). The FIN ack's distinct magic matters:
      // when the final chunk count lands on the ack cadence, the last
      // mid-stream ack carries the same sequence, and the client must not
      // mistake it for FIN confirmation.
      uint8_t fin_ack[kStreamAckBytes];
      EncodeStreamFinAck(published, fin_ack);
      (void)SendAll(fd, fin_ack);
      uint8_t trailing = 0;
      if (ReadFull(fd, &trailing, 1) != ReadOutcome::kCleanEof) {
        violation = true;
        break;
      }
      got_fin = true;
      break;
    }
    if (len > kMaxSocketChunkBytes) {  // corrupted length prefix
      violation = true;
      break;
    }
    chunk.resize(len);
    if (ReadFull(fd, chunk.data(), len) != ReadOutcome::kOk) {
      break;  // truncated mid-chunk: resumable
    }
    ++chunks;
    bytes += len + sizeof(prefix);
    if (telemetry_on) {
      telemetry::metrics::SocketReadChunksTotal().Add(1);
      telemetry::metrics::SocketReadBytesTotal().Add(len + sizeof(prefix));
      telemetry::metrics::SocketReadChunkBytes().Record(len);
    }
    if (seq <= published) {
      // Replay of a chunk this stream already ingested (the client could
      // not know it was acked before the old connection died). Skipping
      // it is what makes reconnect digest-safe: a resent run never
      // double-ingests -- the transport-level mirror of the WAL's
      // run-level dedup.
      ++dups;
      continue;
    }
    if (seq != published + 1) {
      violation = true;  // sequence gap: the client skipped data
      break;
    }
    std::span<const uint8_t> rest(chunk);
    while (!rest.empty()) {
      const auto header = PeekUserRunFrame(rest);
      if (!header.ok()) {
        // Framing is lost for the rest of this chunk (frames are not
        // resynchronizable), but the next length prefix still is.
        ++decode_failures;
        break;
      }
      producer.PublishEncoded(rest.first(header->frame_bytes),
                              header->user_id,
                              static_cast<size_t>(header->count));
      rest = rest.subspan(header->frame_bytes);
    }
    published = seq;
    if (published % kStreamAckEveryChunks == 0) {
      uint8_t ack_frame[kStreamAckBytes];
      EncodeStreamAck(published, ack_frame);
      if (!SendOnConnection(fd, ack_frame)) break;
    }
  }
  producer.Flush();

  std::lock_guard<std::mutex> lock(mu_);
  StreamState& st = streams_[stream_key];
  st.published_seq = published;  // only grows while we owned the stream
  st.dup_chunks += dups;
  st.active = false;
  if (got_fin && !violation && !st.finned) {
    st.finned = true;
    SessionState& session = sessions_[hello.client_id];
    ++session.finned_streams;
    if (!session.completed &&
        session.finned_streams >= session.stream_count) {
      session.completed = true;
      ++completed_sessions_;
    }
  }
  ++finished_;
  if (violation) ++protocol_violations_;
  duplicate_chunks_ += dups;
  chunks_ += chunks;
  bytes_read_ += bytes;
  reader_decode_failures_ += decode_failures;
  close_locked();
}

void SocketCollectorServer::WaitForFinishedConnections(uint64_t n) {
  std::unique_lock<std::mutex> lock(mu_);
  conn_finished_cv_.wait(
      lock, [&] { return finished_ >= n || acceptor_failed_; });
}

void SocketCollectorServer::WaitForCompletedSessions(uint64_t n) {
  std::unique_lock<std::mutex> lock(mu_);
  conn_finished_cv_.wait(
      lock, [&] { return completed_sessions_ >= n || acceptor_failed_; });
}

size_t SocketCollectorServer::KillActiveConnections() {
  std::lock_guard<std::mutex> lock(mu_);
  size_t killed = 0;
  for (Connection& conn : conns_) {
    if (conn.active && conn.fd >= 0) {
      ::shutdown(conn.fd, SHUT_RDWR);
      ++killed;
    }
  }
  return killed;
}

Status SocketCollectorServer::Finish() {
  if (finished_server_) return finish_status_;
  finished_server_ = true;

  // Stop the acceptor: raise the flag, release the readers, then let
  // StopAcceptor drain the backlog and join.
  stopping_.store(true, std::memory_order_release);
  {
    // Under mu_, so a reader between its predicate check and its wait
    // cannot miss the wake-up: release readers parked on a stream claim.
    std::lock_guard<std::mutex> lock(mu_);
    stream_released_cv_.notify_all();
  }
  StopAcceptor(options_.endpoint, &listen_fd_, &acceptor_);

  // Well-behaved clients already FIN'd and closed (their readers closed
  // the fds as they finished); shutdown() forces an EOF on anything
  // still half-open so every reader is joinable.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Connection& conn : conns_) {
      if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RDWR);
    }
  }
  for (Connection& conn : conns_) {  // stable: the acceptor has exited
    if (conn.reader.joinable()) conn.reader.join();
  }

  const Status hub_status = hub_->Drain();
  stats_ = hub_->stats();
  // A stream error is a *stream* that never reached a clean FIN -- not a
  // terminated connection. A connection killed mid-chunk whose stream a
  // later reconnect resumed to its FIN is recovery, not loss.
  uint64_t unfinned_streams = 0;
  for (const auto& [key, st] : streams_) {
    if (!st.finned) ++unfinned_streams;
  }
  stats_.connections = accepted_;
  stats_.stream_errors = unfinned_streams;
  stats_.handshake_rejects = handshake_rejects_;
  stats_.duplicate_chunks = duplicate_chunks_;
  stats_.decode_failures += reader_decode_failures_;
  // On-the-wire view: chunks received and bytes read, not the inner
  // hub's re-staged frames.
  stats_.frames = chunks_;
  stats_.wire_bytes = bytes_read_;

  if (acceptor_failed_) {
    finish_status_ = acceptor_status_;
  } else if (unfinned_streams > 0) {
    finish_status_ = Status::Internal(
        "socket transport: " + std::to_string(unfinned_streams) +
        " stream(s) interrupted and never resumed to a clean FIN");
  } else if (protocol_violations_ > 0) {
    finish_status_ = Status::Internal(
        "socket transport: " + std::to_string(protocol_violations_) +
        " protocol violation(s) (sequence gap, FIN mismatch, or bad "
        "chunk length)");
  } else if (handshake_rejects_ > 0) {
    finish_status_ = Status::FailedPrecondition(
        "socket transport: " + std::to_string(handshake_rejects_) +
        " connection(s) refused at handshake (version/fingerprint/dims "
        "mismatch or malformed hello)");
  } else if (reader_decode_failures_ > 0) {
    finish_status_ = Status::Internal(
        "socket transport: " + std::to_string(reader_decode_failures_) +
        " corrupted chunk(s) could not be split into frames");
  } else {
    finish_status_ = hub_status;
  }
  return finish_status_;
}

}  // namespace capp
