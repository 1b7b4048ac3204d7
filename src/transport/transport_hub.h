// TransportHub: the broker tier between report producers and the sharded
// collector. Producers encode user runs as wire frames into pooled
// batches and push them onto bounded MPSC rings; N consumer threads
// CRC-check and decode the frames and ingest every run via
// ShardedCollector::IngestUserRun, so the in-process queue (kQueueFramed)
// carries exactly the bytes a socket transport would. Under kSocket the
// frames really do cross a socket: producers write handshaked,
// sequence-stamped chunks over connect_streams striped connections to a
// collector-side acceptor (SocketCollectorServer) -- an in-process
// loopback one by default, or an external collector process when
// TransportOptions::socket_path or tcp_host is set. Each stripe is an
// independently resumable stream (ResilientSocketClient): a killed
// connection redials and replays its unacked window, and the server's
// sequence dedup keeps the result bit-identical.
//
// Shard-group routing: each consumer owns its own ring, and every run is
// routed to the consumer owning the run's shard group (shard_index %
// num_consumers). Two consumers then never ingest into the same shard,
// so the ShardedCollector shard mutexes are never contended between
// consumers, and TransportOptions::owned_shards can drop them entirely.
//
// Determinism: the hub delivers whole user runs, and the collector's
// per-slot aggregates accumulate in exact integer arithmetic
// (SlotAggregate), so collector state is a pure function of the multiset
// of runs -- bit-identical across every TransportKind and any producer x
// consumer thread mix. Report loss is impossible by construction: Push
// blocks instead of dropping (backpressure), Drain flushes and joins
// before returning, and the poison-pill protocol guarantees FIFO
// delivery of every data frame before any consumer exits.
#ifndef CAPP_TRANSPORT_TRANSPORT_HUB_H_
#define CAPP_TRANSPORT_TRANSPORT_HUB_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/status.h"
#include "storage/collector_backend.h"
#include "transport/frame.h"
#include "transport/mpsc_queue.h"
#include "transport/transport.h"

namespace capp {

class ResilientSocketClient;
class SocketCollectorServer;

/// One transport session: create, publish through Producers, Drain.
class TransportHub {
 public:
  /// A per-producer-thread staging handle; not thread-safe. Destroying (or
  /// Flush()ing) delivers any partially filled frame. All Producers must
  /// be destroyed before Drain().
  class Producer {
   public:
    Producer(Producer&& other) noexcept;
    Producer& operator=(Producer&&) = delete;
    Producer(const Producer&) = delete;
    Producer& operator=(const Producer&) = delete;
    ~Producer();

    /// Publishes one device's d-dimensional run: `values` is dim-major
    /// (dims * slots doubles, dimension k's run at [k * slots, (k+1) *
    /// slots) -- the 0xC6 wire payload order). The queued kinds stage it
    /// as one wire frame: 0xC5 at dims == 1, 0xC6 above.
    void Publish(uint64_t user_id, size_t base_slot, size_t dims,
                 std::span<const double> values);

    /// Publishes one device's run of consecutive one-dimensional slot
    /// reports.
    void Publish(uint64_t user_id, size_t base_slot,
                 std::span<const double> values) {
      Publish(user_id, base_slot, 1, values);
    }

    /// Publishes one already-encoded wire frame (kQueueFramed only). The
    /// socket server's readers use this to re-stage bytes received off a
    /// connection without decoding and re-encoding them; the consumer
    /// still CRC-checks every frame before ingest.
    void PublishEncoded(std::span<const uint8_t> frame_bytes,
                        uint64_t user_id, size_t report_count);

    /// Pushes the partially filled frames, if any.
    void Flush();

   private:
    friend class TransportHub;
    explicit Producer(TransportHub* hub) : hub_(hub) {}

    // The routing group of `user_id`'s run, its staging frame acquired.
    size_t StagingGroup(uint64_t user_id);
    // Counts one run staged into `group`; pushes the frame once full.
    void RunStaged(size_t group);

    TransportHub* hub_;  // null after move
    // The socket stripe this producer's chunks ride (kSocket only):
    // assigned round-robin at MakeProducer, so producers on different
    // stripes never serialize on one connection mutex.
    size_t stripe_ = 0;
    // One staging frame per routing group: one per consumer ring (a
    // single slot under kSocket).
    std::vector<std::unique_ptr<ReportFrame>> frames_;
    // Local counters, merged into the hub once on destruction.
    uint64_t frames_pushed_ = 0;
    uint64_t runs_ = 0;
    uint64_t reports_ = 0;
    uint64_t wire_bytes_ = 0;
  };

  /// Starts the consumer threads (none under kDirect; under kSocket they
  /// live in the collector server). `collector` must outlive the hub.
  static Result<std::unique_ptr<TransportHub>> Create(
      CollectorBackend* collector, const TransportOptions& options);

  ~TransportHub();

  TransportHub(const TransportHub&) = delete;
  TransportHub& operator=(const TransportHub&) = delete;

  Producer MakeProducer() {
    live_producers_.fetch_add(1, std::memory_order_relaxed);
    Producer producer(this);
    if (!stripes_.empty()) {
      producer.stripe_ =
          next_stripe_.fetch_add(1, std::memory_order_relaxed) %
          stripes_.size();
    }
    return producer;
  }

  /// Shuts the transport down cleanly: pushes one poison pill per
  /// consumer (or FINs the socket and finishes the server), joins
  /// everything, and finalizes stats(). Requires every Producer to be
  /// destroyed or flushed first. Idempotent. Fails if any frame was
  /// rejected (codec corruption), any socket stream ended abnormally, any
  /// run was lost, or the collector's aggregates saturated -- wrong or
  /// missing data must be loud.
  Status Drain();

  const TransportOptions& options() const { return options_; }

  /// The unix-socket path producers connect to (kSocket only, empty
  /// otherwise). Loopback mode reports the auto-generated server path;
  /// tests use it to inject raw byte streams.
  const std::string& socket_path() const { return socket_path_; }

  /// Transport counters; stable only after Drain().
  const TransportStats& stats() const { return stats_; }

 private:
  // Per-consumer counters, indexed by consumer id; each consumer writes
  // only its own slot while running, and Drain merges after joining.
  // Cache-line-aligned so sibling consumers' per-run increments don't
  // false-share.
  struct alignas(64) ConsumerCounters {
    uint64_t runs = 0;
    uint64_t decode_failures = 0;
  };

  TransportHub(CollectorBackend* collector, const TransportOptions& options);

  void ConsumerMain(size_t consumer_index);
  void IngestFrame(const ReportFrame& frame, size_t consumer_index,
                   std::vector<double>& scratch);

  // The routing group of one user's runs: the owning consumer's index
  // (0 with a single ring or under kSocket).
  size_t GroupForUser(uint64_t user_id) const;
  // Staging groups a Producer needs (one per ring, at least 1).
  size_t ProducerGroupCount() const {
    return queues_.empty() ? 1 : queues_.size();
  }

  std::unique_ptr<ReportFrame> AcquireFrame();
  void ReleaseFrame(std::unique_ptr<ReportFrame> frame);
  void PushFrame(Producer& producer, size_t group);
  void WriteSocketChunk(size_t stripe, std::span<const uint8_t> payload);
  void MergeProducerCounters(const Producer& producer);
  void DrainQueues();
  void DrainSocket();

  CollectorBackend* collector_;
  TransportOptions options_;
  // One ring per consumer under kQueueFramed; empty under kDirect and
  // kSocket.
  std::vector<std::unique_ptr<MpscQueue<std::unique_ptr<ReportFrame>>>>
      queues_;

  std::mutex pool_mu_;
  std::vector<std::unique_ptr<ReportFrame>> pool_;

  std::mutex stats_mu_;  // guards stats_ while producers merge
  TransportStats stats_;

  std::vector<ConsumerCounters> consumer_counters_;
  std::vector<std::thread> consumers_;

  // kSocket state: the loopback collector server (when no external
  // endpoint was given) and the striped producer-side connections the
  // chunks funnel through. Each stripe is one independently resumable
  // handshaked stream with its own mutex, so producers pinned to
  // different stripes never contend. Write failures latch into the
  // stripe's status -- each stream is ordered, so nothing after the
  // first failure can arrive intact anyway -- and Drain reports the
  // first one.
  struct SocketStripe {
    std::mutex mu;
    std::unique_ptr<ResilientSocketClient> client;
    Status status;
  };
  std::unique_ptr<SocketCollectorServer> socket_server_;
  std::vector<std::unique_ptr<SocketStripe>> stripes_;
  std::atomic<uint64_t> next_stripe_{0};
  std::string socket_path_;

  // Producers alive (created minus destroyed): a frame flushed after the
  // pills would never be popped, so Drain() asserts this hit zero.
  std::atomic<int> live_producers_{0};
  bool drained_ = false;
  Status drain_status_;  // the first Drain()'s verdict, re-reported after
};

}  // namespace capp

#endif  // CAPP_TRANSPORT_TRANSPORT_HUB_H_
