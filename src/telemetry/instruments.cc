#include "telemetry/instruments.h"

#include "telemetry/registry.h"

namespace capp::telemetry::metrics {
namespace {

Counter& C(const char* name, const char* help) {
  return MetricsRegistry::Global().GetCounter(name, help);
}

Gauge& G(const char* name, const char* help) {
  return MetricsRegistry::Global().GetGauge(name, help);
}

Histogram& Hs(const char* name, const char* help) {
  return MetricsRegistry::Global().GetHistogram(
      name, HistogramUnit::kNanoseconds, help);
}

Histogram& Hb(const char* name, const char* help) {
  return MetricsRegistry::Global().GetHistogram(name, HistogramUnit::kBytes,
                                                help);
}

}  // namespace

Histogram& FleetChunkSeconds() {
  static Histogram& h = Hs("capp_fleet_chunk_seconds",
                           "Perturb+publish wall time per fleet chunk");
  return h;
}

Counter& TransportPushStallsTotal() {
  static Counter& c = C("capp_transport_push_stalls_total",
                        "Producer pushes that blocked on a full queue");
  return c;
}

Counter& TransportPopWaitsTotal() {
  static Counter& c = C("capp_transport_pop_waits_total",
                        "Consumer pops that blocked on an empty queue");
  return c;
}

Histogram& TransportPushStallSeconds() {
  static Histogram& h = Hs("capp_transport_push_stall_seconds",
                           "Time producers spent blocked on a full queue");
  return h;
}

Histogram& TransportPopWaitSeconds() {
  static Histogram& h = Hs("capp_transport_pop_wait_seconds",
                           "Time consumers spent blocked on an empty queue");
  return h;
}

Gauge& TransportQueueDepth() {
  static Gauge& g = G("capp_transport_queue_depth",
                      "Frames currently enqueued across transport queues");
  return g;
}

Histogram& TransportEncodeSeconds() {
  static Histogram& h = Hs("capp_transport_encode_seconds",
                           "Wire-format encode time per user run (sampled)");
  return h;
}

Counter& SocketWriteChunksTotal() {
  static Counter& c = C("capp_socket_write_chunks_total",
                        "Length-prefixed chunks written to the socket");
  return c;
}

Counter& SocketWriteBytesTotal() {
  static Counter& c = C("capp_socket_write_bytes_total",
                        "Bytes written to the socket (incl. length prefix)");
  return c;
}

Histogram& SocketWriteChunkBytes() {
  static Histogram& h = Hb("capp_socket_write_chunk_bytes",
                           "Payload size of each chunk written");
  return h;
}

Counter& SocketReadChunksTotal() {
  static Counter& c = C("capp_socket_read_chunks_total",
                        "Length-prefixed chunks read from the socket");
  return c;
}

Counter& SocketReadBytesTotal() {
  static Counter& c = C("capp_socket_read_bytes_total",
                        "Bytes read from the socket (incl. length prefix)");
  return c;
}

Histogram& SocketReadChunkBytes() {
  static Histogram& h = Hb("capp_socket_read_chunk_bytes",
                           "Payload size of each chunk read");
  return h;
}

Gauge& SocketOpenConnections() {
  static Gauge& g = G("capp_socket_open_connections",
                      "Fleet connections currently being served");
  return g;
}

Counter& IngestRunsTotal() {
  static Counter& c = C("capp_ingest_runs_total",
                        "User runs ingested by the sharded collector");
  return c;
}

Counter& IngestReportsTotal() {
  static Counter& c = C("capp_ingest_reports_total",
                        "Finite per-slot reports ingested by the sharded "
                        "collector");
  return c;
}

Histogram& IngestBatchSeconds() {
  static Histogram& h = Hs("capp_ingest_batch_seconds",
                           "Collector ingest time per batch of runs "
                           "(sampled)");
  return h;
}

Counter& SeqlockReadRetriesTotal() {
  static Counter& c = C("capp_seqlock_read_retries_total",
                        "Owned-shard aggregate reads retried mid-write");
  return c;
}

Gauge& CollectorDims() {
  static Gauge& g = G("capp_collector_dims",
                      "Attributes per report of the newest collector");
  return g;
}

Counter& IngestDimRowsTotal() {
  static Counter& c = C("capp_ingest_dim_rows_total",
                        "Per-attribute slot rows ingested through the "
                        "dims-aware (d >= 2) collector path");
  return c;
}

Counter& WalAppendsTotal() {
  static Counter& c = C("capp_wal_appends_total", "Frames appended to the WAL");
  return c;
}

Counter& WalAppendedBytesTotal() {
  static Counter& c = C("capp_wal_appended_bytes_total",
                        "Payload bytes appended to the WAL");
  return c;
}

Counter& WalFsyncsTotal() {
  static Counter& c = C("capp_wal_fsyncs_total", "WAL fdatasync calls");
  return c;
}

Counter& WalRotationsTotal() {
  static Counter& c = C("capp_wal_rotations_total", "WAL segment rotations");
  return c;
}

Counter& WalCheckpointsTotal() {
  static Counter& c = C("capp_wal_checkpoints_total", "WAL checkpoints taken");
  return c;
}

Counter& WalAppendStallsTotal() {
  static Counter& c = C("capp_wal_append_stalls_total",
                        "Ingests that waited for the WAL log thread to "
                        "take a full batch");
  return c;
}

Counter& WalRecoverySegmentsTotal() {
  static Counter& c = C("capp_wal_recovery_segments_total",
                        "WAL segments replayed by recovery");
  return c;
}

Counter& WalRecoveryFramesTotal() {
  static Counter& c = C("capp_wal_recovery_frames_total",
                        "WAL frames re-ingested by recovery");
  return c;
}

Counter& WalRecoveryBytesDiscardedTotal() {
  static Counter& c = C("capp_wal_recovery_bytes_discarded_total",
                        "Torn-tail WAL bytes recovery truncated away");
  return c;
}

Counter& WalRunsDedupedTotal() {
  static Counter& c = C("capp_wal_runs_deduped_total",
                        "Resent runs skipped by user-id dedup, in "
                        "recovery and live ingest");
  return c;
}

Histogram& WalAppendSeconds() {
  static Histogram& h = Hs("capp_wal_append_seconds",
                           "WAL append time per frame (sampled)");
  return h;
}

Histogram& WalFsyncSeconds() {
  static Histogram& h = Hs("capp_wal_fsync_seconds",
                           "WAL fdatasync latency");
  return h;
}

Histogram& WalRotateSeconds() {
  static Histogram& h = Hs("capp_wal_rotate_seconds",
                           "WAL segment rotation latency");
  return h;
}

Histogram& WalCheckpointSeconds() {
  static Histogram& h = Hs("capp_wal_checkpoint_seconds",
                           "WAL checkpoint latency (quiesce + write + swap)");
  return h;
}

Counter& AnalyticsWindowsTotal() {
  static Counter& c = C("capp_analytics_windows_total",
                        "Sliding windows analyzed");
  return c;
}

Histogram& AnalyticsWindowSeconds() {
  static Histogram& h = Hs("capp_analytics_window_seconds",
                           "Compute time per analytics window");
  return h;
}

}  // namespace capp::telemetry::metrics
