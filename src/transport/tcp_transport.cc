#include "transport/tcp_transport.h"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <random>
#include <utility>

#include "core/check.h"
#include "telemetry/instruments.h"
#include "telemetry/metrics.h"
#include "transport/handshake.h"
#include "transport/socket_transport.h"
#include "transport/transport.h"

namespace capp {
namespace {

static_assert(kMaxUnixSocketPathBytes + 1 == sizeof(sockaddr_un{}.sun_path),
              "sun_path holds the longest path plus its terminator");

// How long the acceptor waits before retrying an accept that failed for
// want of descriptors or kernel memory.
constexpr std::chrono::milliseconds kAcceptRetryBackoff{10};

// SplitMix64 finalizer: a cheap, well-mixed hash for jitter and ids.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// One address a stream socket binds or dials.
struct Address {
  sockaddr_storage storage;
  socklen_t len = 0;

  int family() const { return storage.ss_family; }
  const sockaddr* get() const {
    return reinterpret_cast<const sockaddr*>(&storage);
  }
};

// The endpoint's addresses: its unix path, or every resolution of its
// TCP host (passive ones for a listener).
Result<std::vector<Address>> ResolveEndpoint(const SocketEndpoint& endpoint,
                                             bool passive) {
  if (!endpoint.is_tcp()) {
    const std::string& path = endpoint.unix_path;
    if (path.empty() || path.size() > kMaxUnixSocketPathBytes) {
      return Status::InvalidArgument("bad unix socket path: '" + path + "'");
    }
    Address address;
    auto* addr = reinterpret_cast<sockaddr_un*>(&address.storage);
    std::memset(addr, 0, sizeof(*addr));
    addr->sun_family = AF_UNIX;
    std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
    address.len = sizeof(*addr);
    return std::vector<Address>{address};
  }
  if (endpoint.tcp_port < 0 || endpoint.tcp_port > 65535) {
    return Status::InvalidArgument("TCP port out of range: " +
                                   std::to_string(endpoint.tcp_port));
  }
  addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV | (passive ? AI_PASSIVE : 0);
  addrinfo* addrs = nullptr;
  const std::string service = std::to_string(endpoint.tcp_port);
  if (const int rc = ::getaddrinfo(endpoint.tcp_host.c_str(),
                                   service.c_str(), &hints, &addrs);
      rc != 0) {
    return Status::InvalidArgument("cannot resolve '" + endpoint.tcp_host +
                                   "': " + ::gai_strerror(rc));
  }
  std::vector<Address> addresses;
  for (const addrinfo* ai = addrs; ai != nullptr; ai = ai->ai_next) {
    Address address;
    std::memcpy(&address.storage, ai->ai_addr, ai->ai_addrlen);
    address.len = ai->ai_addrlen;
    addresses.push_back(address);
  }
  ::freeaddrinfo(addrs);
  if (addresses.empty()) {
    return Status::Internal("no addresses for '" + endpoint.tcp_host + "'");
  }
  return addresses;
}

// Connects a fresh stream socket to `address`; returns 0 and the fd in
// *fd, or the errno the dial failed with. POSIX: a connect() interrupted
// by a signal continues asynchronously, so closing the fd and erroring
// would fail a healthy connection under signal load. Poll for
// writability instead (itself EINTR-proof) and read SO_ERROR's verdict.
int Dial(const Address& address, int* fd) {
  *fd = ::socket(address.family(), SOCK_STREAM, 0);
  if (*fd < 0) return errno;
  int error = ::connect(*fd, address.get(), address.len) == 0 ? 0 : errno;
  if (error == EINTR) {
    pollfd pfd{*fd, POLLOUT, 0};
    int rc;
    do {
      rc = ::poll(&pfd, 1, -1);
    } while (rc < 0 && errno == EINTR);  // the very signal storm we fix
    socklen_t len = sizeof(error);
    if (rc < 0 ||
        ::getsockopt(*fd, SOL_SOCKET, SO_ERROR, &error, &len) != 0) {
      error = errno;
    }
  }
  if (error != 0) {
    ::close(*fd);
    *fd = -1;
    return error;
  }
  if (address.family() != AF_UNIX) {
    // Chunks are already batched producer-side; Nagle coalescing only adds
    // latency between a chunk and the ack clock that trims the resume
    // window.
    const int one = 1;
    ::setsockopt(*fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return 0;
}

// Blocking read of exactly n bytes as a Status (the handshake and FIN
// acks, which the server sends promptly).
Status ReadExact(int fd, uint8_t* buf, size_t n) {
  switch (ReadFull(fd, buf, n)) {
    case ReadOutcome::kOk:
      return Status::OK();
    case ReadOutcome::kCleanEof:
      return Status::Internal("socket closed by peer");
    case ReadOutcome::kError:
      break;
  }
  return Status::Internal("socket read failed or truncated");
}

// Non-blocking read: appends whatever is already in the receive buffer
// to *out. EOF and socket errors are errors -- the connection is dead.
Status ReadAvailable(int fd, std::vector<uint8_t>* out) {
  for (;;) {
    uint8_t buf[4096];
    const ssize_t got = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (got > 0) {
      out->insert(out->end(), buf, buf + got);
      continue;
    }
    if (got == 0) return Status::Internal("socket closed by peer");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
    return ErrnoStatus("socket read");
  }
}

// The 12-byte chunk prefix: u32 LE length (0 for the FIN), u64 LE seq.
void EncodeChunkPrefix(uint32_t len, uint64_t seq, uint8_t prefix[12]) {
  for (int i = 0; i < 4; ++i) prefix[i] = static_cast<uint8_t>(len >> (8 * i));
  for (int i = 0; i < 8; ++i) {
    prefix[4 + i] = static_cast<uint8_t>(seq >> (8 * i));
  }
}

}  // namespace

Status ErrnoStatus(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

Status SendAll(int fd, std::span<const uint8_t> bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t sent = ::send(fd, bytes.data() + done, bytes.size() - done,
                                MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("socket write");
    }
    done += static_cast<size_t>(sent);
  }
  return Status::OK();
}

ReadOutcome ReadFull(int fd, uint8_t* buf, size_t n) {
  size_t done = 0;
  while (done < n) {
    const ssize_t got = ::recv(fd, buf + done, n - done, 0);
    if (got == 0) {
      return done == 0 ? ReadOutcome::kCleanEof : ReadOutcome::kError;
    }
    if (got < 0) {
      if (errno == EINTR) continue;
      return ReadOutcome::kError;
    }
    done += static_cast<size_t>(got);
  }
  return ReadOutcome::kOk;
}

std::string SocketEndpoint::ToString() const {
  if (is_tcp()) return tcp_host + ":" + std::to_string(tcp_port);
  return unix_path;
}

Result<SocketEndpoint> ParseTcpEndpoint(std::string_view host_port) {
  const size_t colon = host_port.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 == host_port.size()) {
    return Status::InvalidArgument("expected HOST:PORT, got '" +
                                   std::string(host_port) + "'");
  }
  SocketEndpoint endpoint;
  endpoint.tcp_host = std::string(host_port.substr(0, colon));
  const std::string_view port_str = host_port.substr(colon + 1);
  int port = 0;
  for (const char c : port_str) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("bad TCP port '" +
                                     std::string(port_str) + "'");
    }
    port = port * 10 + (c - '0');
    if (port > 65535) {
      return Status::InvalidArgument("TCP port out of range: '" +
                                     std::string(port_str) + "'");
    }
  }
  endpoint.tcp_port = port;
  return endpoint;
}

Result<int> ListenEndpointFd(const SocketEndpoint& endpoint, int backlog,
                             int* bound_port) {
  CAPP_ASSIGN_OR_RETURN(const std::vector<Address> addresses,
                        ResolveEndpoint(endpoint, /*passive=*/true));
  if (!endpoint.is_tcp()) {
    // Bind guard: a second server must not silently steal a live
    // server's path (an unconditional unlink orphans the first
    // listener). A completed probe connect means someone is serving;
    // ECONNREFUSED means a stale file from a dead server, which is safe
    // to unlink; ENOENT means a fresh path.
    int probe = -1;
    const int probe_error = Dial(addresses.front(), &probe);
    if (probe_error == 0) {
      ::close(probe);
      return Status::AlreadyExists("socket path " + endpoint.unix_path +
                                   " already has a live server");
    }
    if (probe_error == ECONNREFUSED) ::unlink(endpoint.unix_path.c_str());
  }
  Status last;
  for (const Address& address : addresses) {
    const int fd = ::socket(address.family(), SOCK_STREAM, 0);
    if (fd < 0) {
      last = ErrnoStatus("socket");
      continue;
    }
    // Collector restarts must not wait out TIME_WAIT from their own
    // previous run (a no-op on unix sockets).
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    const bool bound = ::bind(fd, address.get(), address.len) == 0;
    if (!bound || ::listen(fd, backlog) != 0) {
      last = ErrnoStatus("bind/listen " + endpoint.ToString());
      ::close(fd);
      if (bound && !endpoint.is_tcp()) ::unlink(endpoint.unix_path.c_str());
      continue;
    }
    int port = 0;
    if (endpoint.is_tcp()) {
      sockaddr_storage local;
      socklen_t local_len = sizeof(local);
      if (::getsockname(fd, reinterpret_cast<sockaddr*>(&local),
                        &local_len) != 0) {
        last = ErrnoStatus("getsockname");
        ::close(fd);
        continue;
      }
      port = ntohs(local.ss_family == AF_INET
                       ? reinterpret_cast<const sockaddr_in*>(&local)->sin_port
                       : reinterpret_cast<const sockaddr_in6*>(&local)
                             ->sin6_port);
    }
    if (bound_port != nullptr) *bound_port = port;
    return fd;
  }
  return last;
}

Result<int> ConnectEndpointFd(const SocketEndpoint& endpoint) {
  CAPP_ASSIGN_OR_RETURN(const std::vector<Address> addresses,
                        ResolveEndpoint(endpoint, /*passive=*/false));
  int error = 0;
  for (const Address& address : addresses) {
    int fd = -1;
    error = Dial(address, &fd);
    if (error == 0) return fd;
  }
  return Status::Internal("connect to " + endpoint.ToString() + ": " +
                          std::strerror(error));
}

Status AcceptLoop(int listen_fd, const std::atomic<bool>& stopping,
                  const std::function<void(int fd)>& serve) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      serve(fd);
      continue;
    }
    const int error = errno;
    // A peer that connected and reset before we got here kills its own
    // connection, not the server.
    if (error == EINTR || error == ECONNABORTED || error == EPROTO) continue;
    // Stopping: the backlog drained (EAGAIN), the listener was shut down,
    // or what is left cannot be accepted and is abandoned.
    if (stopping.load(std::memory_order_acquire)) return Status::OK();
    if (error == EMFILE || error == ENFILE || error == ENOBUFS ||
        error == ENOMEM) {
      // Resource exhaustion passes: the pending connection stays in the
      // backlog, so back off and retry rather than stop serving for good.
      std::this_thread::sleep_for(kAcceptRetryBackoff);
      continue;
    }
    return Status::Internal(std::string("accept: ") + std::strerror(error));
  }
}

void StopAcceptor(const SocketEndpoint& self, int* listen_fd,
                  std::thread* acceptor) {
  const int flags = ::fcntl(*listen_fd, F_GETFL, 0);
  ::fcntl(*listen_fd, F_SETFL, flags | O_NONBLOCK);
  if (auto wake = ConnectEndpointFd(self); wake.ok()) {
    ::close(*wake);
  } else {
    // Linux: shutdown on a listening socket fails a blocked accept.
    ::shutdown(*listen_fd, SHUT_RDWR);
  }
  if (acceptor->joinable()) acceptor->join();
  ::close(*listen_fd);
  *listen_fd = -1;
  if (!self.is_tcp()) ::unlink(self.unix_path.c_str());
}

int BackoffDelayMs(int backoff_ms, int attempt, uint64_t jitter_seed) {
  CAPP_CHECK(backoff_ms >= 1);
  CAPP_CHECK(attempt >= 0);
  const int shift = attempt < 6 ? attempt : 6;
  int64_t base = static_cast<int64_t>(backoff_ms) << shift;
  if (base > 2000) base = 2000;
  // Deterministic jitter fraction in [0.5, 1.0): same (seed, attempt)
  // always waits the same time, different streams spread out.
  const uint64_t h = Mix64(jitter_seed ^ (0xA5A5A5A5A5A5A5A5ull *
                                          static_cast<uint64_t>(attempt + 1)));
  const double fraction =
      0.5 + 0.5 * (static_cast<double>(h >> 11) / 9007199254740992.0);
  const int delay = static_cast<int>(static_cast<double>(base) * fraction);
  return delay < 1 ? 1 : delay;
}

uint64_t GenerateTransportClientId() {
  // One random salt per process plus pid plus a counter: concurrent
  // fleet processes (even across hosts, where pids collide) get distinct
  // stream identities, and one process's hubs get distinct ids too.
  static const uint64_t process_salt = [] {
    std::random_device rd;
    return (static_cast<uint64_t>(rd()) << 32) ^ rd();
  }();
  static std::atomic<uint64_t> counter{0};
  const uint64_t n = counter.fetch_add(1);
  return Mix64(process_salt ^ Mix64(static_cast<uint64_t>(::getpid())) ^
               (n * 0xD1B54A32D192ED03ull));
}

// --------------------------------------------------------- resume buffer ---

void ResumeBuffer::Retain(uint64_t seq, std::span<const uint8_t> bytes) {
  CAPP_CHECK(chunks_.empty() || seq > chunks_.back().seq);
  chunks_.push_back({seq, std::vector<uint8_t>(bytes.begin(), bytes.end())});
  bytes_retained_ += bytes.size();
}

void ResumeBuffer::TrimThrough(uint64_t acked_seq) {
  while (!chunks_.empty() && chunks_.front().seq <= acked_seq) {
    bytes_retained_ -= chunks_.front().bytes.size();
    chunks_.pop_front();
  }
}

// ------------------------------------------------------- resilient client --

Result<std::unique_ptr<ResilientSocketClient>> ResilientSocketClient::Connect(
    const Options& options) {
  if (options.stream_count < 1 ||
      options.stream_index >= options.stream_count) {
    return Status::InvalidArgument("bad stream_index/stream_count");
  }
  std::unique_ptr<ResilientSocketClient> client(
      new ResilientSocketClient(options));
  CAPP_ASSIGN_OR_RETURN(const uint64_t resume_seq,
                        client->DialAndHandshake(1 + options.connect_retries));
  // A fresh client id cannot have server-side history.
  if (resume_seq != 0) {
    return Status::Internal(
        "server reports prior state for a fresh stream (resume_seq=" +
        std::to_string(resume_seq) + ")");
  }
  return client;
}

Result<uint64_t> ResilientSocketClient::DialAndHandshake(int dial_attempts) {
  CAPP_CHECK(dial_attempts >= 1);
  const uint64_t jitter_seed =
      Mix64(options_.client_id) ^ options_.stream_index;
  Status last = Status::Internal("no dial attempts made");
  for (int attempt = 0; attempt < dial_attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(BackoffDelayMs(
          options_.connect_backoff_ms, attempt - 1, jitter_seed)));
    }
    auto resumed = DialOnce();
    if (resumed.ok()) {
      ack_pending_.clear();
      return resumed;
    }
    Close();
    // A refusal is a configuration mismatch, not a flaky network;
    // retrying cannot fix it and must not mask it.
    if (resumed.status().code() == StatusCode::kFailedPrecondition) {
      return resumed.status();
    }
    last = resumed.status();
  }
  return last;
}

Result<uint64_t> ResilientSocketClient::DialOnce() {
  Close();
  CAPP_ASSIGN_OR_RETURN(fd_, ConnectEndpointFd(options_.endpoint));
  HandshakeHello hello;
  hello.version = kTransportProtocolVersion;
  hello.capabilities = kCapResume;
  hello.fingerprint = options_.fingerprint;
  hello.dims = options_.dims;
  hello.client_id = options_.client_id;
  hello.stream_index = options_.stream_index;
  hello.stream_count = options_.stream_count;
  uint8_t hello_bytes[kHandshakeHelloBytes];
  EncodeHandshakeHello(hello, hello_bytes);
  CAPP_RETURN_IF_ERROR(SendAll(fd_, hello_bytes));
  uint8_t ack_bytes[kHandshakeAckBytes];
  if (Status read = ReadExact(fd_, ack_bytes, sizeof(ack_bytes));
      !read.ok()) {
    return Status::Internal("handshake with " + options_.endpoint.ToString() +
                            " failed: " + read.message());
  }
  CAPP_ASSIGN_OR_RETURN(const HandshakeAck ack,
                        DecodeHandshakeAck(ack_bytes));
  if (!ack.accepted) {
    return Status::FailedPrecondition(
        "collector at " + options_.endpoint.ToString() +
        " refused handshake: " +
        std::string(HandshakeRefusalName(ack.refusal)));
  }
  return ack.resume_seq;
}

Status ResilientSocketClient::SendChunk(uint64_t seq,
                                        std::span<const uint8_t> payload) {
  CAPP_CHECK(!payload.empty());  // zero length is the FIN marker
  CAPP_CHECK(payload.size() <= kMaxSocketChunkBytes);
  CAPP_CHECK(seq >= 1);  // sequence numbers start at 1
  uint8_t prefix[12];
  EncodeChunkPrefix(static_cast<uint32_t>(payload.size()), seq, prefix);
  CAPP_RETURN_IF_ERROR(SendAll(fd_, prefix));
  CAPP_RETURN_IF_ERROR(SendAll(fd_, payload));
  if (telemetry::Enabled()) {
    telemetry::metrics::SocketWriteChunksTotal().Add(1);
    telemetry::metrics::SocketWriteBytesTotal().Add(payload.size() +
                                                    sizeof(prefix));
    telemetry::metrics::SocketWriteChunkBytes().Record(payload.size());
  }
  return Status::OK();
}

Status ResilientSocketClient::ReconnectAndReplay() {
  Close();
  Status last = Status::Internal("no reconnect attempts allowed");
  for (int attempt = 0; attempt < options_.reconnect_attempts; ++attempt) {
    auto resumed = DialAndHandshake(1);
    if (!resumed.ok()) {
      last = resumed.status();
      if (resumed.status().code() == StatusCode::kFailedPrecondition) {
        return last;  // refused: not retryable
      }
      // DialAndHandshake(1) does not sleep; pace the redials here.
      std::this_thread::sleep_for(std::chrono::milliseconds(BackoffDelayMs(
          options_.connect_backoff_ms, attempt,
          Mix64(options_.client_id) ^ options_.stream_index)));
      continue;
    }
    const uint64_t resume_seq = *resumed;
    if (resume_seq >= next_seq_) {
      return Status::Internal(
          "server acked sequence " + std::to_string(resume_seq) +
          " beyond what this stream ever sent");
    }
    if (!window_.empty() && resume_seq + 1 < window_.oldest_seq()) {
      // The server wants chunks we already dropped after an ack. That
      // means its stream state regressed (or it is a different server);
      // resuming would leave a hole, which its sequence check would
      // reject anyway. Fail loudly instead.
      return Status::Internal(
          "server resume point " + std::to_string(resume_seq) +
          " is below the retained replay window (oldest " +
          std::to_string(window_.oldest_seq()) + ")");
    }
    window_.TrimThrough(resume_seq);
    bool replay_failed = false;
    uint64_t replayed = 0;
    for (const ResumeBuffer::Chunk& chunk : window_.chunks()) {
      if (Status sent = SendChunk(chunk.seq, chunk.bytes); !sent.ok()) {
        last = sent;
        replay_failed = true;
        break;
      }
      ++replayed;
    }
    if (replay_failed) continue;
    ++reconnects_;
    replayed_chunks_ += replayed;
    return Status::OK();
  }
  return Status::Internal(
      "could not resume stream to " + options_.endpoint.ToString() +
      " after " + std::to_string(options_.reconnect_attempts) +
      " reconnect attempt(s): " + last.message());
}

void ResilientSocketClient::DrainAcks() {
  if (fd_ < 0) return;
  // A dead connection is left for the next write to surface.
  if (!ReadAvailable(fd_, &ack_pending_).ok()) return;
  size_t consumed = 0;
  while (ack_pending_.size() - consumed >= kStreamAckBytes) {
    auto acked = DecodeStreamAck(
        std::span<const uint8_t>(ack_pending_).subspan(consumed,
                                                       kStreamAckBytes));
    if (!acked.ok()) {
      // A torn or corrupt ack stream means the trim clock is untrustworthy;
      // latch the verdict -- the next write fails loudly.
      ack_error_ = acked.status();
      break;
    }
    window_.TrimThrough(*acked);
    consumed += kStreamAckBytes;
  }
  if (consumed > 0) {
    ack_pending_.erase(ack_pending_.begin(),
                       ack_pending_.begin() + consumed);
  }
}

Status ResilientSocketClient::WriteChunk(std::span<const uint8_t> payload) {
  if (!ack_error_.ok()) return ack_error_;
  const uint64_t seq = next_seq_++;
  window_.Retain(seq, payload);
  DrainAcks();
  if (!ack_error_.ok()) return ack_error_;
  Status sent = fd_ >= 0 ? SendChunk(seq, payload)
                         : Status::Internal("connection is down");
  if (sent.ok()) return sent;
  // The chunk is already in the window; a successful resume replays it.
  return ReconnectAndReplay();
}

Status ResilientSocketClient::Finish() {
  if (!ack_error_.ok()) return ack_error_;
  const uint64_t final_seq = next_seq_ - 1;
  Status last = Status::OK();
  for (int round = 0; round <= options_.reconnect_attempts; ++round) {
    if (fd_ < 0) {
      if (Status resumed = ReconnectAndReplay(); !resumed.ok()) {
        return resumed;
      }
    }
    // FIN, then half-close and wait for the server's final ack: EOF alone
    // cannot distinguish "FIN ingested" from "server died with the FIN in
    // flight", and a full close could RST the FIN away on TCP.
    uint8_t fin[12];
    EncodeChunkPrefix(0, final_seq, fin);
    last = SendAll(fd_, fin);
    if (last.ok()) {
      ::shutdown(fd_, SHUT_WR);
      for (;;) {
        // Complete whatever partial ack the last non-blocking drain left
        // in ack_pending_ before decoding -- reading raw frames off the
        // socket here would misalign the ack stream.
        while (ack_pending_.size() < kStreamAckBytes) {
          const size_t need = kStreamAckBytes - ack_pending_.size();
          uint8_t buf[kStreamAckBytes];
          last = ReadExact(fd_, buf, need);
          if (!last.ok()) break;
          ack_pending_.insert(ack_pending_.end(), buf, buf + need);
        }
        if (!last.ok()) break;
        const std::span<const uint8_t> frame =
            std::span<const uint8_t>(ack_pending_).first(kStreamAckBytes);
        // Mid-stream acks may still be queued ahead of the FIN ack; only
        // the FIN-ack magic confirms the FIN itself was ingested. A
        // mid-stream ack carrying final_seq (chunk count on the ack
        // cadence) must NOT end the wait: if the connection then dies
        // with the FIN unread, the stream would be stranded unfinned
        // server-side while this client reports success.
        if (auto fin_acked = DecodeStreamFinAck(frame); fin_acked.ok()) {
          ack_pending_.erase(ack_pending_.begin(),
                             ack_pending_.begin() + kStreamAckBytes);
          if (*fin_acked != final_seq) {
            last = Status::Internal(
                "server acknowledged FIN at sequence " +
                std::to_string(*fin_acked) + ", expected " +
                std::to_string(final_seq));
            break;
          }
          Close();
          return Status::OK();
        }
        auto acked = DecodeStreamAck(frame);
        ack_pending_.erase(ack_pending_.begin(),
                           ack_pending_.begin() + kStreamAckBytes);
        if (!acked.ok()) {
          last = acked.status();
          break;
        }
        window_.TrimThrough(*acked);
      }
    }
    Close();  // force the next round onto the reconnect path
  }
  return Status::Internal("stream FIN to " + options_.endpoint.ToString() +
                          " was never acknowledged: " + last.message());
}

void ResilientSocketClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace capp
