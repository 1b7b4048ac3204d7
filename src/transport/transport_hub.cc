#include "transport/transport_hub.h"

#include <optional>
#include <utility>

#include "core/check.h"
#include "telemetry/instruments.h"
#include "telemetry/metrics.h"
#include "transport/socket_transport.h"
#include "transport/tcp_transport.h"
#include "transport/wire_format.h"

namespace capp {

TransportHub::TransportHub(CollectorBackend* collector,
                           const TransportOptions& options)
    : collector_(collector), options_(options) {}

Result<std::unique_ptr<TransportHub>> TransportHub::Create(
    CollectorBackend* collector, const TransportOptions& options) {
  if (collector == nullptr) {
    return Status::InvalidArgument("transport hub needs a collector");
  }
  CAPP_RETURN_IF_ERROR(ValidateTransportOptions(options));
  // unique_ptr: consumer threads capture `this`, so the hub must not move.
  std::unique_ptr<TransportHub> hub(new TransportHub(collector, options));
  if (options.kind == TransportKind::kQueueFramed) {
    // Each consumer drains a private ring; producers route each run to
    // the ring of the consumer owning its shard group.
    const size_t consumers = static_cast<size_t>(options.num_consumers);
    for (size_t c = 0; c < consumers; ++c) {
      hub->queues_.push_back(
          std::make_unique<MpscQueue<std::unique_ptr<ReportFrame>>>(
              options.queue_capacity));
    }
    hub->consumer_counters_.resize(consumers);
    hub->consumers_.reserve(consumers);
    for (size_t c = 0; c < consumers; ++c) {
      hub->consumers_.emplace_back(
          [hub = hub.get(), c] { hub->ConsumerMain(c); });
    }
  } else if (options.kind == TransportKind::kSocket) {
    SocketEndpoint endpoint;
    if (!options.tcp_host.empty()) {
      // TCP client mode: an external collector_server --tcp owns ingest.
      endpoint.tcp_host = options.tcp_host;
      endpoint.tcp_port = options.tcp_port;
    } else if (!options.socket_path.empty()) {
      // Unix client mode: an external collector_server owns ingest; the
      // local collector stays empty.
      endpoint.unix_path = options.socket_path;
      hub->socket_path_ = options.socket_path;
    } else {
      // Loopback: this hub runs the collector server too, so a single
      // process exercises the full socket path end to end.
      SocketCollectorServer::Options server_options;
      server_options.socket_path = MakeLoopbackSocketPath();
      server_options.handshake_fingerprint = options.handshake_fingerprint;
      server_options.expected_dims =
          static_cast<uint32_t>(collector->dims());
      server_options.num_consumers = options.num_consumers;
      server_options.queue_capacity = options.queue_capacity;
      server_options.max_batch_runs = options.max_batch_runs;
      CAPP_ASSIGN_OR_RETURN(
          hub->socket_server_,
          SocketCollectorServer::Create(collector, server_options));
      hub->socket_path_ = hub->socket_server_->socket_path();
      endpoint.unix_path = hub->socket_path_;
    }
    // One stream identity for the whole hub; each stripe is one
    // independently resumable connection under it.
    const uint64_t client_id = GenerateTransportClientId();
    const int streams = options.connect_streams;
    for (int s = 0; s < streams; ++s) {
      ResilientSocketClient::Options stripe_options;
      stripe_options.endpoint = endpoint;
      stripe_options.fingerprint = options.handshake_fingerprint;
      stripe_options.dims = static_cast<uint32_t>(collector->dims());
      stripe_options.client_id = client_id;
      stripe_options.stream_index = static_cast<uint32_t>(s);
      stripe_options.stream_count = static_cast<uint32_t>(streams);
      stripe_options.connect_retries = options.connect_retries;
      stripe_options.connect_backoff_ms = options.connect_backoff_ms;
      stripe_options.reconnect_attempts = options.reconnect_attempts;
      auto stripe = std::make_unique<SocketStripe>();
      CAPP_ASSIGN_OR_RETURN(stripe->client,
                            ResilientSocketClient::Connect(stripe_options));
      hub->stripes_.push_back(std::move(stripe));
    }
  }
  return hub;
}

TransportHub::~TransportHub() {
  // Normal callers Drain() explicitly (and check its Status); this is the
  // abnormal-teardown path.
  if (!drained_) {
    for (auto& queue : queues_) queue->Close();
    for (std::thread& t : consumers_) t.join();
    consumers_.clear();
    for (auto& stripe : stripes_) {
      if (stripe->client != nullptr) stripe->client->Close();
    }
    socket_server_.reset();  // force-finishes: joins acceptor and readers
    drained_ = true;
  }
}

// ------------------------------------------------------------- producer ----

TransportHub::Producer::Producer(Producer&& other) noexcept
    : hub_(other.hub_),
      stripe_(other.stripe_),
      frames_(std::move(other.frames_)),
      frames_pushed_(other.frames_pushed_),
      runs_(other.runs_),
      reports_(other.reports_),
      wire_bytes_(other.wire_bytes_) {
  other.hub_ = nullptr;
}

TransportHub::Producer::~Producer() {
  if (hub_ == nullptr) return;
  Flush();
  for (auto& frame : frames_) {
    if (frame != nullptr) hub_->ReleaseFrame(std::move(frame));
  }
  hub_->MergeProducerCounters(*this);
  hub_->live_producers_.fetch_sub(1, std::memory_order_release);
}

size_t TransportHub::GroupForUser(uint64_t user_id) const {
  if (queues_.size() < 2) return 0;
  // The consumer that owns the run's shard: two runs landing in the same
  // shard always route to the same consumer, so no shard ever has two
  // writing consumers.
  return collector_->ShardIndexOf(user_id) % queues_.size();
}

void TransportHub::Producer::Publish(uint64_t user_id, size_t base_slot,
                                     size_t dims,
                                     std::span<const double> values) {
  ++runs_;
  reports_ += values.size();
  if (hub_->options_.kind == TransportKind::kDirect) {
    hub_->collector_->IngestUserRun(user_id, base_slot, dims, values);
    return;
  }
  // kQueueFramed and kSocket both stage encoded wire frames (0xC5 at
  // d = 1, 0xC6 above); they differ only in where PushFrame sends them.
  const size_t group = StagingGroup(user_id);
  {
    telemetry::ScopedTimer encode_timer;
    if (telemetry::Enabled() && telemetry::ShouldSample()) {
      encode_timer.Arm(&telemetry::metrics::TransportEncodeSeconds());
    }
    AppendMultiDimRunFrame(user_id, base_slot, dims, values,
                           frames_[group]->bytes);
  }
  RunStaged(group);
}

void TransportHub::Producer::PublishEncoded(
    std::span<const uint8_t> frame_bytes, uint64_t user_id,
    size_t report_count) {
  CAPP_DCHECK(hub_->options_.kind == TransportKind::kQueueFramed);
  ++runs_;
  reports_ += report_count;
  const size_t group = StagingGroup(user_id);
  std::vector<uint8_t>& bytes = frames_[group]->bytes;
  bytes.insert(bytes.end(), frame_bytes.begin(), frame_bytes.end());
  RunStaged(group);
}

size_t TransportHub::Producer::StagingGroup(uint64_t user_id) {
  const size_t group = hub_->GroupForUser(user_id);
  if (frames_.size() <= group) frames_.resize(hub_->ProducerGroupCount());
  if (frames_[group] == nullptr) frames_[group] = hub_->AcquireFrame();
  return group;
}

void TransportHub::Producer::RunStaged(size_t group) {
  if (++frames_[group]->run_count >= hub_->options_.max_batch_runs) {
    hub_->PushFrame(*this, group);
  }
}

void TransportHub::Producer::Flush() {
  for (size_t group = 0; group < frames_.size(); ++group) {
    if (frames_[group] != nullptr && frames_[group]->run_count > 0) {
      hub_->PushFrame(*this, group);
    }
  }
}

void TransportHub::PushFrame(Producer& producer, size_t group) {
  std::unique_ptr<ReportFrame>& frame = producer.frames_[group];
  ++producer.frames_pushed_;
  if (options_.kind == TransportKind::kSocket) {
    // One sequence-stamped chunk per staged frame (12-byte prefix:
    // length + sequence); the buffer is reused in place instead of
    // round-tripping the pool.
    producer.wire_bytes_ += frame->bytes.size() + 12;
    WriteSocketChunk(producer.stripe_, frame->bytes);
    frame->Clear();
    return;
  }
  producer.wire_bytes_ += frame->bytes.size();
  const bool pushed = queues_[group]->Push(std::move(frame));
  // The queue is only closed by Drain/teardown, which require all
  // producers to be done first.
  CAPP_CHECK(pushed);
}

void TransportHub::WriteSocketChunk(size_t stripe_index,
                                    std::span<const uint8_t> payload) {
  if (payload.empty()) return;
  CAPP_DCHECK(stripe_index < stripes_.size());
  SocketStripe& stripe = *stripes_[stripe_index];
  std::lock_guard<std::mutex> lock(stripe.mu);
  // Each stream is ordered: after one *unrecoverable* failure (the
  // resilient client already redialed and replayed as far as allowed)
  // nothing later can arrive intact, so the first failure latches and
  // the rest are skipped (a dead server would otherwise error once per
  // chunk).
  if (stripe.client == nullptr || !stripe.status.ok()) return;
  Status written = stripe.client->WriteChunk(payload);
  if (!written.ok()) stripe.status = std::move(written);
}

void TransportHub::MergeProducerCounters(const Producer& producer) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.frames += producer.frames_pushed_;
  stats_.runs += producer.runs_;
  stats_.reports += producer.reports_;
  stats_.wire_bytes += producer.wire_bytes_;
}

// ------------------------------------------------------------- consumer ----

void TransportHub::ConsumerMain(size_t consumer_index) {
  MpscQueue<std::unique_ptr<ReportFrame>>& queue = *queues_[consumer_index];
  IngestScratch scratch;
  scratch.values.resize(kIngestBatchRuns);
  for (;;) {
    std::optional<std::unique_ptr<ReportFrame>> frame = queue.Pop();
    if (!frame.has_value()) return;  // closed: abnormal teardown
    const bool poison = (*frame)->poison;
    if (!poison) IngestFrame(**frame, consumer_index, scratch);
    ReleaseFrame(std::move(*frame));
    if (poison) return;
  }
}

void TransportHub::IngestFrame(const ReportFrame& frame,
                               size_t consumer_index,
                               IngestScratch& scratch) {
  ConsumerCounters& counters = consumer_counters_[consumer_index];
  const size_t dims = collector_->dims();
  std::span<const uint8_t> bytes(frame.bytes);
  size_t cursor = 0;
  bool failed = false;
  while (cursor < bytes.size() && !failed) {
    // Decode up to kIngestBatchRuns runs, each into its own pooled
    // buffer, and ingest them as one collector batch.
    scratch.runs.clear();
    while (cursor < bytes.size() &&
           scratch.runs.size() < kIngestBatchRuns) {
      const size_t k = scratch.runs.size();
      UserRun run;
      uint64_t base_slot = 0;
      uint64_t run_dims = 1;
      auto used = DecodeUserRunFrame(bytes.subspan(cursor), &run.user_id,
                                     &base_slot, &run_dims,
                                     scratch.values[k]);
      if (!used.ok() || run_dims != dims) {
        // A corrupted frame cannot be resynchronized; count it and drop
        // the rest of the batch, after ingesting the runs decoded before
        // it. Drain() turns a nonzero count into an error. A
        // dimensionality mismatch is the same class of wrongness: the
        // payload's cells would be silently reinterpreted, so it counts
        // as a decode failure rather than reaching the collector.
        ++counters.decode_failures;
        failed = true;
        break;
      }
      run.base_slot = base_slot;
      run.values = scratch.values[k];
      scratch.runs.push_back(run);
      cursor += *used;
    }
    if (scratch.runs.empty()) break;
    collector_->IngestUserRuns(dims, scratch.runs);
    counters.runs += scratch.runs.size();
  }
}

// ------------------------------------------------------------ frame pool ----

std::unique_ptr<ReportFrame> TransportHub::AcquireFrame() {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    if (!pool_.empty()) {
      std::unique_ptr<ReportFrame> frame = std::move(pool_.back());
      pool_.pop_back();
      return frame;
    }
  }
  return std::make_unique<ReportFrame>();
}

void TransportHub::ReleaseFrame(std::unique_ptr<ReportFrame> frame) {
  frame->Clear();
  std::lock_guard<std::mutex> lock(pool_mu_);
  pool_.push_back(std::move(frame));
}

// -------------------------------------------------------------- shutdown ----

void TransportHub::DrainQueues() {
  // One pill per consumer, pushed onto the ring that consumer drains:
  // FIFO guarantees every data frame ahead of the pill is ingested first,
  // and each consumer stops at its pill. (kDirect has no consumers.)
  for (size_t c = 0; c < consumers_.size(); ++c) {
    auto pill = AcquireFrame();
    pill->poison = true;
    CAPP_CHECK(queues_[c]->Push(std::move(pill)));
  }
  for (std::thread& t : consumers_) t.join();
  consumers_.clear();

  for (const auto& queue : queues_) {
    stats_.push_stalls += queue->push_stalls();
    stats_.pop_waits += queue->pop_waits();
  }
  uint64_t consumed_runs = 0;
  for (const ConsumerCounters& counters : consumer_counters_) {
    stats_.consumer_runs.push_back(counters.runs);
    stats_.decode_failures += counters.decode_failures;
    consumed_runs += counters.runs;
  }
  if (stats_.decode_failures > 0) {
    drain_status_ = Status::Internal("transport dropped " +
                                     std::to_string(stats_.decode_failures) +
                                     " corrupted wire frame(s)");
  } else if (options_.kind != TransportKind::kDirect &&
             consumed_runs != stats_.runs) {
    drain_status_ = Status::Internal(
        "transport lost runs: published " + std::to_string(stats_.runs) +
        ", ingested " + std::to_string(consumed_runs));
  }
}

void TransportHub::DrainSocket() {
  // Producers have flushed; end every stripe's stream. The resilient
  // Finish FINs with the stream's final sequence and blocks for the
  // server's acknowledgement -- redialing and replaying if the
  // connection dies under it -- so "Drain returned OK" means the server
  // really ingested everything (a close without an acked FIN is a stream
  // error server-side).
  Status socket_status;
  for (auto& stripe_ptr : stripes_) {
    SocketStripe& stripe = *stripe_ptr;
    std::lock_guard<std::mutex> lock(stripe.mu);
    if (stripe.client == nullptr) continue;
    if (stripe.status.ok()) {
      Status fin = stripe.client->Finish();
      if (!fin.ok()) stripe.status = std::move(fin);
    }
    stripe.client->Close();
    stats_.reconnects += stripe.client->reconnects();
    stats_.replayed_chunks += stripe.client->replayed_chunks();
    if (socket_status.ok() && !stripe.status.ok()) {
      socket_status = stripe.status;
    }
  }
  if (socket_server_ == nullptr) {
    // Client mode: ingest happens in the collector server's process; only
    // local write/resume failures are observable here. The server's own
    // Finish() holds the ingest-side verdict.
    drain_status_ = socket_status;
    return;
  }
  const Status finish = socket_server_->Finish();
  const TransportStats& server = socket_server_->stats();
  // Producer-side counters (frames = chunks written, wire_bytes written)
  // stay; the ingest-side view comes from the server.
  stats_.push_stalls = server.push_stalls;
  stats_.pop_waits = server.pop_waits;
  stats_.decode_failures = server.decode_failures;
  stats_.connections = server.connections;
  stats_.stream_errors = server.stream_errors;
  stats_.handshake_rejects = server.handshake_rejects;
  stats_.duplicate_chunks = server.duplicate_chunks;
  stats_.consumer_runs = server.consumer_runs;
  uint64_t ingested_runs = 0;
  for (uint64_t runs : server.consumer_runs) ingested_runs += runs;
  if (!socket_status.ok()) {
    drain_status_ = socket_status;
  } else if (!finish.ok()) {
    drain_status_ = finish;
  } else if (ingested_runs != stats_.runs) {
    // Covers bytes that arrived but were not published by this hub's own
    // producers (e.g. an injected raw connection) as well as true loss.
    drain_status_ = Status::Internal(
        "transport lost runs: published " + std::to_string(stats_.runs) +
        ", ingested " + std::to_string(ingested_runs));
  }
}

Status TransportHub::Drain() {
  // Idempotent, including the failure: a repeat call re-reports the first
  // drain's verdict instead of masking corruption or loss with OK.
  if (drained_) return drain_status_;
  // A Producer outliving Drain() could flush a frame after the pills --
  // pushed successfully but never popped, i.e. silent loss the run-count
  // cross-check below cannot see. Make the misuse loud instead.
  CAPP_DCHECK(live_producers_.load(std::memory_order_acquire) == 0);
  drained_ = true;
  if (options_.kind == TransportKind::kSocket) {
    DrainSocket();
  } else {
    DrainQueues();
  }
  // Saturated aggregates mean the collector's count/mean/M2 no longer
  // describe the reports that were published -- as loud as losing them.
  // (The loopback socket path reports this through the server's Finish.)
  const uint64_t saturated = collector_->saturated_report_count();
  if (drain_status_.ok() && saturated > 0) {
    drain_status_ = Status::Internal(
        "collector aggregates saturated " + std::to_string(saturated) +
        " report(s) beyond +/-2^16; per-slot count/mean/M2 are wrong for "
        "this workload (normalize reports before ingest)");
  }
  return drain_status_;
}

}  // namespace capp
