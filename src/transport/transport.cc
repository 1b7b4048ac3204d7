#include "transport/transport.h"

#include <string>

namespace capp {

std::string_view TransportKindName(TransportKind kind) {
  switch (kind) {
    case TransportKind::kDirect:
      return "direct";
    case TransportKind::kQueueFramed:
      return "framed";
    case TransportKind::kSocket:
      return "socket";
  }
  return "unknown";
}

Result<TransportKind> ParseTransportKind(std::string_view name) {
  for (TransportKind kind : {TransportKind::kDirect,
                             TransportKind::kQueueFramed,
                             TransportKind::kSocket}) {
    if (name == TransportKindName(kind)) return kind;
  }
  return Status::InvalidArgument("unknown transport kind: " +
                                 std::string(name));
}

Status ValidateTransportOptions(const TransportOptions& options) {
  if (options.queue_capacity < 1) {
    return Status::InvalidArgument("transport queue_capacity must be >= 1");
  }
  if (options.num_consumers < 1) {
    return Status::InvalidArgument("transport num_consumers must be >= 1");
  }
  if (options.max_batch_runs < 1) {
    return Status::InvalidArgument("transport max_batch_runs must be >= 1");
  }
  if (options.owned_shards && options.kind == TransportKind::kDirect) {
    // Single-writer collector shards are only sound when the routing
    // guarantees one writer per shard; reject the unsound combination
    // here rather than racing silently at runtime.
    return Status::InvalidArgument(
        "owned_shards requires a queued transport: under kDirect every "
        "worker thread ingests directly, so no shard has a single writer");
  }
  // sockaddr_un::sun_path is 108 bytes on Linux; leave headroom for the
  // terminator. Checked for every kind so a config cannot become invalid
  // by flipping the kind to kSocket.
  if (options.socket_path.size() > 100) {
    return Status::InvalidArgument(
        "transport socket_path exceeds the unix-socket path limit (100 "
        "bytes)");
  }
  if (options.connect_retries < 0) {
    return Status::InvalidArgument("transport connect_retries must be >= 0");
  }
  if (options.connect_backoff_ms < 1) {
    return Status::InvalidArgument(
        "transport connect_backoff_ms must be >= 1");
  }
  if (!options.tcp_host.empty() && !options.socket_path.empty()) {
    return Status::InvalidArgument(
        "transport tcp_host and socket_path are mutually exclusive: pick "
        "one collector endpoint");
  }
  if (options.tcp_port < 0 || options.tcp_port > 65535) {
    return Status::InvalidArgument("transport tcp_port must be in [0, 65535]");
  }
  if (!options.tcp_host.empty() && options.tcp_port == 0) {
    return Status::InvalidArgument(
        "transport tcp_host needs an explicit tcp_port (0 is only "
        "meaningful for listeners)");
  }
  if (options.connect_streams < 1 || options.connect_streams > 64) {
    return Status::InvalidArgument(
        "transport connect_streams must be in [1, 64]");
  }
  if (options.reconnect_attempts < 0) {
    return Status::InvalidArgument(
        "transport reconnect_attempts must be >= 0");
  }
  return Status::OK();
}

}  // namespace capp
