#include "telemetry/metrics_socket.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <span>
#include <utility>

#include "transport/tcp_transport.h"

namespace capp::telemetry {
namespace {

// A scrape request fits in one line; anything longer is garbage.
constexpr size_t kMaxRequestBytes = 4096;

void SendBestEffort(int fd, const std::string& data) {
  // A scrape client that vanished leaves nothing to salvage.
  (void)SendAll(fd, std::span(reinterpret_cast<const uint8_t*>(data.data()),
                              data.size()));
}

}  // namespace

MetricsSocketServer::MetricsSocketServer(const MetricsRegistry* registry,
                                         std::string socket_path,
                                         int listen_fd)
    : registry_(registry),
      socket_path_(std::move(socket_path)),
      listen_fd_(listen_fd) {}

Result<std::unique_ptr<MetricsSocketServer>> MetricsSocketServer::Create(
    const MetricsRegistry* registry, const std::string& socket_path) {
  if (registry == nullptr) {
    return Status::InvalidArgument("metrics server needs a registry");
  }
  CAPP_ASSIGN_OR_RETURN(
      const int listen_fd,
      ListenEndpointFd(SocketEndpoint::Unix(socket_path), /*backlog=*/16,
                       /*bound_port=*/nullptr));
  std::unique_ptr<MetricsSocketServer> server(
      new MetricsSocketServer(registry, socket_path, listen_fd));
  server->server_ = std::thread([s = server.get()] { s->ServeMain(); });
  return server;
}

MetricsSocketServer::~MetricsSocketServer() { Stop(); }

void MetricsSocketServer::ServeMain() {
  // A listener error just ends the thread: a dead scrape endpoint must
  // never take ingest down with it.
  (void)AcceptLoop(listen_fd_, stopping_, [this](int fd) {
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);  // the wake-up connection, or a late scraper
    } else {
      ServeConnection(fd);
    }
  });
}

void MetricsSocketServer::ServeConnection(int fd) {
  // Bound a stalled client: scrapes are one short line, so two seconds
  // of silence means the peer is gone or not a scraper.
  struct timeval timeout;
  timeout.tv_sec = 2;
  timeout.tv_usec = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

  std::string request;
  char buf[512];
  while (request.find('\n') == std::string::npos &&
         request.size() < kMaxRequestBytes) {
    const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
    if (got <= 0) {
      if (got < 0 && errno == EINTR) continue;
      break;  // EOF or timeout: serve whatever arrived
    }
    request.append(buf, static_cast<size_t>(got));
  }
  const size_t eol = request.find_first_of("\r\n");
  const std::string line =
      eol == std::string::npos ? request : request.substr(0, eol);

  if (line.rfind("GET ", 0) == 0 || line == "metrics") {
    const std::string body = registry_->RenderPrometheus();
    std::string response =
        "HTTP/1.0 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4\r\n"
        "Content-Length: " +
        std::to_string(body.size()) + "\r\n\r\n";
    response += body;
    SendBestEffort(fd, response);
  } else if (line == "stats") {
    SendBestEffort(fd, registry_->RenderJson() + "\n");
  } else {
    SendBestEffort(fd, "ERR unknown verb (want GET /metrics, metrics, "
                       "or stats)\n");
  }
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
}

void MetricsSocketServer::Stop() {
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_release);
  StopAcceptor(SocketEndpoint::Unix(socket_path_), &listen_fd_, &server_);
}

}  // namespace capp::telemetry
