// Live metrics scrape endpoint: a side unix-domain socket, separate from
// the ingest socket, answering two verbs per connection:
//
//   "GET /metrics..."  -> a minimal HTTP/1.0 200 response whose body is
//                         the registry's Prometheus text exposition
//                         (curl --unix-socket PATH http://x/metrics works)
//   "stats"            -> the registry's JSON snapshot, one line
//
// Scrapes are served one at a time on the server's own thread; they only
// read relaxed atomics, so a scrape never blocks ingest. A stuck client
// is bounded by a per-connection receive timeout. Listening, accepting
// and stopping use the socket transport's plumbing
// (transport/tcp_transport.h), the same the collector server uses.
#ifndef CAPP_TELEMETRY_METRICS_SOCKET_H_
#define CAPP_TELEMETRY_METRICS_SOCKET_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "core/status.h"
#include "telemetry/registry.h"

namespace capp::telemetry {

class MetricsSocketServer {
 public:
  /// Binds `socket_path` and starts the serve thread. A live server
  /// already on the path is refused with AlreadyExists; only a stale
  /// file is reclaimed. `registry` must outlive the server.
  static Result<std::unique_ptr<MetricsSocketServer>> Create(
      const MetricsRegistry* registry, const std::string& socket_path);

  ~MetricsSocketServer();

  MetricsSocketServer(const MetricsSocketServer&) = delete;
  MetricsSocketServer& operator=(const MetricsSocketServer&) = delete;

  /// Stops the serve thread, closes the listener, and removes the socket
  /// file. Idempotent; the destructor calls it.
  void Stop();

  const std::string& socket_path() const { return socket_path_; }

 private:
  MetricsSocketServer(const MetricsRegistry* registry,
                      std::string socket_path, int listen_fd);

  void ServeMain();
  void ServeConnection(int fd);

  const MetricsRegistry* registry_;
  std::string socket_path_;
  int listen_fd_;
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;
  std::thread server_;
};

}  // namespace capp::telemetry

#endif  // CAPP_TELEMETRY_METRICS_SOCKET_H_
