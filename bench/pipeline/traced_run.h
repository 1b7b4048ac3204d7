// The traced trial: Fleet::Run's loop rebuilt from the layers' public
// functions, with a timer around every call, so each layer's time is
// measured from outside the program. The rebuilt loop makes the same
// calls in the same order on the same thread layout as Fleet::Run; the
// benchmark gates it on producing the untraced trial's digest and
// collector state bit for bit, which is what makes its layer table a
// breakdown of the untraced number rather than of some other pipeline.
#ifndef CAPP_BENCH_PIPELINE_TRACED_RUN_H_
#define CAPP_BENCH_PIPELINE_TRACED_RUN_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "algorithms/factory.h"
#include "core/check.h"
#include "core/rng.h"
#include "core/stream_digest.h"
#include "engine/fleet.h"
#include "engine/thread_pool.h"
#include "multidim/multidim_perturber.h"
#include "pipeline/trace.h"
#include "pipeline/trial.h"
#include "pipeline/workloads.h"
#include "stream/session.h"
#include "stream/smoothing.h"
#include "transport/transport_hub.h"
#include "transport/wire_format.h"

namespace capp::pipeline {

struct LayerMetric {
  std::string name;
  double value;
  const char* unit;
};

struct TracedResult {
  std::string error;  // empty when the trial completed
  uint64_t stream_digest = 0;
  uint64_t state_digest = 0;
  bool recovery_matches = true;
  bool codec_round_trip = true;
  double complete_s = 0.0;
  double other_share = 0.0;
  size_t spans = 0;
  size_t unresolved_parents = 0;
  std::vector<LayerMetric> layers;
};

namespace traced_internal {

struct ChunkSums {
  std::vector<double> true_sum;
  std::vector<double> report_sum;
  uint64_t digest = 0;
};

struct SampledRun {
  uint64_t user_id;
  std::vector<double> values;
};

inline double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
inline double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace traced_internal

/// Runs one traced trial of `w`. `untraced_complete_s` (the untraced
/// median of first report to complete result) sets trace.overhead; a
/// non-empty `span_path` receives the Chrome trace.
inline TracedResult RunTracedTrial(const Workload& w, uint64_t seed,
                                   size_t users, double untraced_complete_s,
                                   const std::string& span_path) {
  using namespace traced_internal;
  TracedResult r;
  std::optional<ScratchDir> wal_dir;
  if (w.wal) {
    wal_dir.emplace();
    if (wal_dir->path().empty()) {
      r.error = "cannot create a WAL directory under TMPDIR";
      return r;
    }
  }
  EngineConfig config =
      MakeEngineConfig(w, seed, users, wal_dir ? wal_dir->path() : "");
  // What Fleet::Create derives from the config: the publication SMA and,
  // for the socket, the handshake fingerprint.
  const PerturberOptions perturber_options{config.epsilon, config.window};
  auto probe = CreatePerturber(config.algorithm, perturber_options);
  if (!probe.ok()) {
    r.error = probe.status().ToString();
    return r;
  }
  const int smoothing = (*probe)->publication_smoothing_window();
  if (config.transport.kind == TransportKind::kSocket) {
    config.transport.handshake_fingerprint = StreamHandshakeFingerprint(
        config.epsilon, config.window, config.dims, config.multidim_strategy);
  }

  Tracer tracer;
  ThreadTrace& main = tracer.Local();
  const uint64_t trial_span = tracer.NewSpanId();
  main.Begin(kTrial, trial_span);
  auto step = [&](Layer layer) { main.Begin(layer, tracer.NewSpanId()); };
  auto fail = [&](const Status& status) {
    r.error = status.ToString();
    return r;
  };

  // ---- Setup: collector, durable tier, reservation, hub. ----
  step(kCreate);
  auto collector = CreateCollector(config);
  std::optional<StreamingAnalyzer> analyzer;
  if (w.analytics) {
    auto created = AnalyzerFor(config);
    if (!created.ok()) return fail(created.status());
    analyzer.emplace(std::move(*created));
  }
  main.End();
  if (!collector.ok()) return fail(collector.status());
  // Ingest is timed by a decorator on whichever thread calls it; under the
  // WAL a second decorator outside the durable tier gives WAL self time as
  // outer minus inner.
  TimedBackend inner(&*collector, &tracer, kIngest);
  std::unique_ptr<DurableCollector> durable;
  std::optional<TimedBackend> outer;
  if (w.wal) {
    step(kCreate);
    auto created = DurableCollector::Create(&inner, DurableOptionsFor(config));
    main.End();
    if (!created.ok()) return fail(created.status());
    durable = std::move(*created);
    outer.emplace(durable.get(), &tracer, kWal);
  }
  CollectorBackend* const entry =
      outer ? static_cast<CollectorBackend*>(&*outer) : &inner;
  step(kReserve);
  entry->ReserveUsers(users);
  main.End();
  std::unique_ptr<TransportHub> hub;
  if (config.transport.kind != TransportKind::kDirect) {
    step(kHub);
    auto created = TransportHub::Create(entry, config.transport);
    main.End();
    if (!created.ok()) return fail(created.status());
    hub = std::move(*created);
  }
  std::optional<LiveReader> reader;
  if (w.live_queries) reader.emplace(&*collector, &tracer, trial_span);

  // ---- The worker loop: Fleet::Run's, call for call. ----
  const size_t slots = config.num_slots;
  const size_t dims = config.dims;
  const size_t cells = dims * slots;
  const size_t chunk_size = config.chunk_size;
  const size_t num_chunks = (users + chunk_size - 1) / chunk_size;
  const int threads = static_cast<int>(std::min<size_t>(
      ResolveThreadCount(config.num_threads), num_chunks));
  std::vector<ChunkSums> chunk_sums(num_chunks);
  std::vector<std::vector<SampledRun>> sampled_runs(num_chunks);

  const int64_t loop_start = NowNs();
  ParallelFor(num_chunks, threads, [&](size_t chunk) {
    ThreadTrace& trace = tracer.Local();
    trace.worker = true;
    const uint64_t begin = chunk * chunk_size;
    const uint64_t end = std::min<uint64_t>(users, begin + chunk_size);
    ChunkSums& sums = chunk_sums[chunk];
    sums.true_sum.assign(cells, 0.0);
    sums.report_sum.assign(cells, 0.0);
    auto session = UserSession::Create(begin, config.algorithm,
                                       perturber_options, /*seed=*/0);
    CAPP_CHECK(session.ok());
    std::optional<MultidimPerturber> multidim;
    if (dims > 1) {
      auto created = MultidimPerturber::Create(
          dims, config.multidim_strategy, perturber_options,
          config.algorithm);
      CAPP_CHECK(created.ok());
      multidim.emplace(std::move(*created));
    }
    std::vector<double> truth;
    std::vector<double> report_values(cells);
    std::vector<double> published;
    std::vector<double> sma_scratch;
    std::vector<double> dim_row;
    std::vector<double> dim_smoothed;
    std::optional<TransportHub::Producer> producer;
    if (hub != nullptr) producer.emplace(hub->MakeProducer());

    for (uint64_t uid = begin; uid < end; ++uid) {
      const bool sampled = Sampled(uid);
      auto id = [&](Layer layer) {
        return sampled ? UserSpanId(uid, layer) : 0;
      };
      if (sampled) trace.Begin(kUser, id(kUser), uid);

      trace.Begin(kSynth, id(kSynth), uid);
      Rng signal_rng(UserStreamSeed(config.seed, uid, 0));
      if (dims == 1) {
        GenerateUserSignalInto(config.signal, slots, signal_rng, truth);
      } else {
        GenerateUserSignalMultiInto(config.signal, dims, slots, signal_rng,
                                    truth);
      }

      trace.Next(kPerturb, id(kPerturb), uid);
      if (dims == 1) {
        session->ResetForUser(uid, UserStreamSeed(config.seed, uid, 1));
        session->ReportChunk(truth, report_values);
      } else {
        multidim->ResetForUser(UserStreamSeed(config.seed, uid, 1));
        multidim->PerturbStream(truth, slots, report_values);
      }

      trace.Next(kPublish, id(kPublish), uid);
      if (producer.has_value()) {
        if (dims == 1) {
          producer->Publish(uid, /*base_slot=*/0, report_values);
        } else {
          producer->Publish(uid, /*base_slot=*/0, dims, report_values);
        }
      } else if (dims == 1) {
        entry->IngestUserRun(uid, /*base_slot=*/0, report_values);
      } else {
        entry->IngestUserRun(uid, /*base_slot=*/0, dims, report_values);
      }

      trace.Next(kSmooth, id(kSmooth), uid);
      if (dims == 1) {
        CAPP_CHECK(SimpleMovingAverageInto(report_values, smoothing,
                                           published, sma_scratch)
                       .ok());
      } else {
        published.resize(cells);
        for (size_t k = 0; k < dims; ++k) {
          dim_row.assign(
              report_values.begin() + static_cast<ptrdiff_t>(k * slots),
              report_values.begin() +
                  static_cast<ptrdiff_t>((k + 1) * slots));
          CAPP_CHECK(SimpleMovingAverageInto(dim_row, smoothing,
                                             dim_smoothed, sma_scratch)
                         .ok());
          std::copy(dim_smoothed.begin(), dim_smoothed.end(),
                    published.begin() + static_cast<ptrdiff_t>(k * slots));
        }
      }

      trace.Next(kReduce, id(kReduce), uid);
      for (size_t t = 0; t < cells; ++t) {
        sums.true_sum[t] += truth[t];
        sums.report_sum[t] += report_values[t];
      }

      trace.Next(kDigest, id(kDigest), uid);
      sums.digest ^= UserStreamDigest(uid, published);
      trace.End();

      if (sampled) {
        sampled_runs[chunk].push_back({uid, report_values});
        trace.End();
      }
    }
    // The producer's destructor pushes its last partial frames: publish
    // work, as in Fleet::Run where it ends the chunk lambda.
    trace.Begin(kPublish);
    producer.reset();
    trace.End();
    trace.active_until_ns = NowNs();
  });

  // ---- Tail: drain, WAL flush, saturation check; then analysis. ----
  step(kDrain);
  Status tail;
  if (hub != nullptr) tail = hub->Drain();
  if (durable != nullptr && tail.ok()) {
    step(kFlush);
    tail = durable->Flush();
    main.End();
  }
  if (tail.ok() && collector->saturated_report_count() > 0) {
    tail = Status::Internal("collector aggregates saturated");
  }
  main.End();
  const int64_t drain_end = NowNs();
  if (reader) {
    reader->Stop();
    if (!reader->ok()) r.error = "a live histogram read failed";
  }
  if (!tail.ok()) return fail(tail);
  if (analyzer) {
    step(kAnalyze);
    for (size_t dim = 0; dim < dims; ++dim) {
      auto analysis = analyzer->AnalyzeCollectorDim(*collector, dim);
      if (!analysis.ok()) r.error = analysis.status().ToString();
    }
    main.End();
  }
  main.End();  // trial
  r.complete_s = Seconds(drain_end - loop_start) +
                 Seconds(tracer.InclusiveNs(kAnalyze));

  for (const ChunkSums& sums : chunk_sums) r.stream_digest ^= sums.digest;
  r.state_digest = CollectorStateDigest(*collector);

  // ---- Codec side measurement on the sampled users' runs, off the
  // critical path: encode them all, then decode them all. ----
  std::vector<uint8_t> wire;
  size_t sampled_reports = 0;
  auto encode_all = [&] {
    wire.clear();
    sampled_reports = 0;
    for (const auto& runs : sampled_runs) {
      for (const SampledRun& run : runs) {
        AppendMultiDimRunFrame(run.user_id, 0, dims, run.values, wire);
        sampled_reports += run.values.size();
      }
    }
  };
  encode_all();  // grows and touches the buffer, as a producer's reused
                 // frame buffers are in steady state
  const int64_t encode_start = NowNs();
  encode_all();
  const int64_t encode_ns = NowNs() - encode_start;
  std::vector<double> decoded;
  auto decode_all = [&](bool verify) {
    size_t cursor = 0;
    for (const auto& runs : sampled_runs) {
      for (const SampledRun& run : runs) {
        uint64_t user_id = 0;
        uint64_t base_slot = 0;
        uint64_t frame_dims = 0;
        auto used = DecodeUserRunFrame(std::span(wire).subspan(cursor),
                                       &user_id, &base_slot, &frame_dims,
                                       decoded);
        if (!used.ok()) {
          r.codec_round_trip = false;
          return;
        }
        cursor += *used;
        if (verify && (user_id != run.user_id || frame_dims != dims ||
                       decoded != run.values)) {
          r.codec_round_trip = false;
        }
      }
    }
  };
  const int64_t decode_start = NowNs();
  decode_all(/*verify=*/false);
  const int64_t decode_ns = NowNs() - decode_start;
  decode_all(/*verify=*/true);

  // ---- Durable tier: stats, then a timed replay of the whole log. ----
  double recover_mb_per_s = 0.0;
  WalStats wal;
  if (durable != nullptr) {
    wal = durable->wal_stats();
    outer.reset();
    durable.reset();  // seals the log
    step(kRecover);
    const Recovery recovery = RecoverWal(config);
    main.End();
    r.recovery_matches =
        recovery.status.ok() && recovery.state_digest == r.state_digest;
    recover_mb_per_s =
        Ratio(static_cast<double>(wal.bytes_appended) / (1 << 20),
              recovery.seconds);
  }

  // ---- The layer table. ----
  const double reports = static_cast<double>(users * cells);
  auto per_report = [&](int64_t ns) { return Ratio(ns, reports); };
  // other.share: the part of the workers' active time no layer timer
  // covers -- per-chunk setup, loop overhead, sampling. Time a worker
  // spends waiting for the others to finish is scheduling, not untimed
  // work, so each worker's wall ends at its last chunk.
  int64_t worker_busy_ns = 0;
  int64_t worker_active_ns = 0;
  for (const auto& t : tracer.threads()) {
    if (!t->worker) continue;
    for (const Layer layer : kUserLayers) worker_busy_ns += t->SelfNs(layer);
    worker_active_ns += t->active_until_ns - loop_start;
  }
  r.other_share = 1.0 - Ratio(worker_busy_ns, worker_active_ns);
  r.spans = tracer.SpanCount();
  r.unresolved_parents = tracer.UnresolvedParents();

  auto add = [&](const char* name, double value, const char* unit) {
    r.layers.push_back({name, value, unit});
  };
  add("synth.ns_per_report", per_report(tracer.SelfNs(kSynth)), "ns/report");
  add("perturb.ns_per_report", per_report(tracer.SelfNs(kPerturb)),
      "ns/report");
  add("publish.ns_per_report", per_report(tracer.SelfNs(kPublish)),
      "ns/report");
  add("ingest.ns_per_report", per_report(tracer.SelfNs(kIngest)),
      "ns/report");
  add("smooth.ns_per_report", per_report(tracer.SelfNs(kSmooth)),
      "ns/report");
  add("reduce.ns_per_report", per_report(tracer.SelfNs(kReduce)),
      "ns/report");
  add("digest.ns_per_report", per_report(tracer.SelfNs(kDigest)),
      "ns/report");
  add("codec.encode_ns_per_report",
      Ratio(static_cast<double>(encode_ns), sampled_reports), "ns/report");
  add("codec.decode_ns_per_report",
      Ratio(static_cast<double>(decode_ns), sampled_reports), "ns/report");
  add("drain.ms", Ms(tracer.InclusiveNs(kDrain)), "ms");
  add("setup.create_ms", Ms(tracer.InclusiveNs(kCreate)), "ms");
  add("setup.reserve_ms", Ms(tracer.InclusiveNs(kReserve)), "ms");
  add("other.share", r.other_share, "share");
  add("trace.overhead", Ratio(r.complete_s, untraced_complete_s) - 1.0,
      "share");
  if (hub != nullptr) {
    const TransportStats& transport = hub->stats();
    const double frames = static_cast<double>(transport.frames);
    add("setup.hub_ms", Ms(tracer.InclusiveNs(kHub)), "ms");
    add("consumer.busy_share",
        Ratio(tracer.SelfNs(kIngest, /*worker=*/false),
              static_cast<double>(w.consumers) *
                  static_cast<double>(drain_end - loop_start)),
        "share");
    add("transport.push_stalls_per_frame",
        Ratio(static_cast<double>(transport.push_stalls), frames),
        "stalls/frame");
    add("transport.pop_waits_per_frame",
        Ratio(static_cast<double>(transport.pop_waits), frames),
        "waits/frame");
    add("transport.wire_bytes_per_report",
        Ratio(static_cast<double>(transport.wire_bytes), reports),
        "B/report");
  }
  if (w.wal) {
    add("wal.ns_per_report", per_report(tracer.SelfNs(kWal)), "ns/report");
    add("wal.flush_ms", Ms(tracer.InclusiveNs(kFlush)), "ms");
    add("wal.fsyncs", static_cast<double>(wal.fsyncs), "count");
    add("wal.bytes_per_report",
        Ratio(static_cast<double>(wal.bytes_appended), reports), "B/report");
    add("recover.mb_per_s", recover_mb_per_s, "MB/s");
  }
  if (w.live_queries) {
    const double reads = static_cast<double>(tracer.Calls(kQueryAggregates));
    add("query.aggregates_ms",
        Ratio(Ms(tracer.InclusiveNs(kQueryAggregates)), reads), "ms");
    add("query.histograms_ms",
        Ratio(Ms(tracer.InclusiveNs(kQueryHistograms)), reads), "ms");
    add("query.seqlock_retries_per_read",
        Ratio(static_cast<double>(collector->seqlock_read_retries()), reads),
        "retries/read");
    add("query.reads", reads, "count");
  }
  if (analyzer) {
    add("analyze.ms_per_dim",
        Ratio(Ms(tracer.InclusiveNs(kAnalyze)), static_cast<double>(dims)),
        "ms");
  }
  if (!span_path.empty() && !tracer.WriteChromeTrace(span_path)) {
    r.error = "cannot write " + span_path;
  }
  return r;
}

}  // namespace capp::pipeline

#endif  // CAPP_BENCH_PIPELINE_TRACED_RUN_H_
