#include "engine/fleet.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <memory>
#include <numbers>
#include <optional>
#include <span>
#include <utility>

#include "analysis/streaming_analytics.h"
#include "core/check.h"
#include "core/math_utils.h"
#include "core/stream_digest.h"
#include "data/generators.h"
#include "engine/thread_pool.h"
#include "stream/smoothing.h"
#include "telemetry/instruments.h"
#include "telemetry/metrics.h"
#include "transport/transport_hub.h"

namespace capp {
namespace {

// Per-chunk accumulators, reduced in chunk order after the parallel phase.
struct ChunkSums {
  std::vector<double> true_sum;
  std::vector<double> report_sum;
  uint64_t digest = 0;
  size_t reports = 0;
};

// Shared base angles of the sinusoid workload: sin/cos(2*pi*t/period) for
// every slot, cached per thread. The per-user series is then one sincos of
// the user's phase plus two multiply-adds per slot (angle addition),
// instead of a libm sin call per (user, slot) -- which profiling showed
// was the single largest per-report cost after the perturbation hot path
// was batched. The identity is exact in real arithmetic; the generated
// signal can differ from naive per-slot sin evaluation in the last ulp,
// identically for every thread count and for the scalar and batched
// perturbation paths (the workload is input data, generated before either
// path runs).
struct SinusoidBase {
  size_t n = 0;
  double period = 0.0;
  std::vector<double> sin_base;
  std::vector<double> cos_base;

  void Ensure(size_t num_slots, double new_period) {
    if (n == num_slots && period == new_period) return;
    sin_base.resize(num_slots);
    cos_base.resize(num_slots);
    for (size_t t = 0; t < num_slots; ++t) {
      const double angle =
          2.0 * std::numbers::pi * static_cast<double>(t) / new_period;
      sin_base[t] = std::sin(angle);
      cos_base[t] = std::cos(angle);
    }
    n = num_slots;
    period = new_period;
  }
};

}  // namespace

uint64_t UserStreamSeed(uint64_t fleet_seed, uint64_t user_id,
                        uint64_t stream) {
  return SplitMix64Mix(SplitMix64Mix(fleet_seed ^ SplitMix64Mix(user_id)) +
                       stream);
}

std::vector<double> GenerateUserSignal(SignalKind kind, size_t num_slots,
                                       Rng& rng) {
  std::vector<double> out;
  GenerateUserSignalInto(kind, num_slots, rng, out);
  return out;
}

void GenerateUserSignalInto(SignalKind kind, size_t num_slots, Rng& rng,
                            std::vector<double>& out) {
  switch (kind) {
    case SignalKind::kConstant:
      ConstantSeriesInto(num_slots, rng.Uniform(0.3, 0.7), out);
      return;
    case SignalKind::kSinusoid: {
      // A shared daily cycle with per-user phase jitter and sensor noise:
      // 0.5 + 0.15 * sin(2*pi*t/24 + phase) + N(0, 0.03), clamped. The
      // sin(a + phase) term expands over the cached base angles (see
      // SinusoidBase above); the RNG draw order (phase, then one Gaussian
      // per slot) is part of the workload's determinism contract.
      constexpr double kPeriod = 24.0;
      constexpr double kAmplitude = 0.15;
      constexpr double kOffset = 0.5;
      thread_local SinusoidBase base;
      base.Ensure(num_slots, kPeriod);
      const double phase = rng.Uniform(-0.5, 0.5);
      const double sin_phase = std::sin(phase);
      const double cos_phase = std::cos(phase);
      // The per-slot noise is block-generated into `out` (Rng::FillGaussian
      // pins the scalar draw order, so the phase-then-per-slot-noise
      // contract is unchanged), and 0.03 * g reproduces
      // rng.Gaussian(0.0, 0.03) bit-for-bit. With the RNG out of the loop,
      // the angle-addition + clamp body vectorizes.
      out.resize(num_slots);
      rng.FillGaussian(out);
      for (size_t t = 0; t < num_slots; ++t) {
        const double wave =
            base.sin_base[t] * cos_phase + base.cos_base[t] * sin_phase;
        out[t] = Clamp(kOffset + kAmplitude * wave + 0.03 * out[t], 0.0, 1.0);
      }
      return;
    }
    case SignalKind::kAr1: {
      Ar1SeriesInto(num_slots, /*phi=*/0.9, /*sigma=*/0.05, /*mean=*/0.5,
                    rng, out);
      for (double& x : out) x = Clamp(x, 0.0, 1.0);
      return;
    }
    case SignalKind::kRandomWalk:
      ReflectedRandomWalkInto(num_slots, /*sigma=*/0.05,
                              /*x0=*/rng.Uniform(0.2, 0.8), rng, out);
      return;
    case SignalKind::kPiecewise: {
      static constexpr double kLevels[] = {0.1, 0.35, 0.65, 0.9};
      PiecewiseConstantSeriesInto(num_slots, /*min_run=*/5,
                                  /*max_run=*/20, kLevels, rng, out);
      return;
    }
  }
  CAPP_CHECK(false);  // Unreachable: all kinds handled above.
}

void GenerateUserSignalMultiInto(SignalKind kind, size_t dims,
                                 size_t num_slots, Rng& rng,
                                 std::vector<double>& out) {
  if (dims <= 1) {
    GenerateUserSignalInto(kind, num_slots, rng, out);
    return;
  }
  if (kind == SignalKind::kSinusoid) {
    // The d attributes of one user are correlated readings of the same
    // daily cycle: one phase draw shifted by a fixed per-dimension offset
    // (attribute k leads attribute 0 by 0.35 * k radians), and one block
    // Gaussian draw covering every dimension's noise. The d = 1 slice of
    // this path is exactly GenerateUserSignalInto's sinusoid: same phase
    // draw first, then FillGaussian -- just over a longer block.
    constexpr double kPeriod = 24.0;
    constexpr double kAmplitude = 0.15;
    constexpr double kOffset = 0.5;
    constexpr double kDimPhaseStep = 0.35;
    thread_local SinusoidBase base;
    base.Ensure(num_slots, kPeriod);
    const double phase = rng.Uniform(-0.5, 0.5);
    out.resize(dims * num_slots);
    rng.FillGaussian(out);
    for (size_t k = 0; k < dims; ++k) {
      const double dim_phase =
          phase + kDimPhaseStep * static_cast<double>(k);
      const double sin_phase = std::sin(dim_phase);
      const double cos_phase = std::cos(dim_phase);
      double* run = out.data() + k * num_slots;
      for (size_t t = 0; t < num_slots; ++t) {
        const double wave =
            base.sin_base[t] * cos_phase + base.cos_base[t] * sin_phase;
        run[t] = Clamp(kOffset + kAmplitude * wave + 0.03 * run[t], 0.0, 1.0);
      }
    }
    return;
  }
  // The other workload families are inherently serial in their RNG use;
  // dimension k's series is simply the k-th stream drawn from the user's
  // signal RNG.
  out.resize(dims * num_slots);
  thread_local std::vector<double> dim_series;
  for (size_t k = 0; k < dims; ++k) {
    GenerateUserSignalInto(kind, num_slots, rng, dim_series);
    std::copy(dim_series.begin(), dim_series.end(),
              out.begin() + static_cast<ptrdiff_t>(k * num_slots));
  }
}

Fleet::Fleet(EngineConfig config,
             std::unique_ptr<ShardedCollector> collector,
             int smoothing_window)
    : config_(std::move(config)),
      collector_(std::move(collector)),
      smoothing_window_(smoothing_window) {}

Result<Fleet> Fleet::Create(EngineConfig config) {
  CAPP_RETURN_IF_ERROR(ValidateEngineConfig(config));
  // Probe the device once: an unsupported algorithm, strategy or inner
  // (sampling kinds) fails here with a real Status instead of
  // CHECK-failing inside a worker thread, and the device yields the
  // publication smoothing recommendation.
  CAPP_ASSIGN_OR_RETURN(
      MultidimPerturber probe,
      MultidimPerturber::Create(config.dims, config.multidim_strategy,
                                {config.epsilon, config.window},
                                config.algorithm));
  const int smoothing = config.smoothing_window != 0
                            ? config.smoothing_window
                            : probe.publication_smoothing_window();
  ShardedCollectorOptions collector_options;
  collector_options.num_shards = config.num_shards;
  collector_options.dims = config.dims;
  // Validation already pinned the sound combination (a queued kind, whose
  // shard-group routing gives every shard one writer), so the transport's
  // ownership claim translates directly into single-writer collector
  // storage.
  collector_options.single_writer = config.transport.owned_shards;
  if (config.analytics.enabled) {
    // Histogram geometry follows the fleet's per-slot budget, so a
    // StreamingAnalyzer created at the same budget/resolution consumes
    // the collector's bins directly. Budget split spends epsilon /
    // (dims * window) per (dimension, slot) publication; sample split
    // spends the whole epsilon / window on the one dimension it uploads.
    const double per_slot_budget =
        config.dims > 1 &&
                config.multidim_strategy == MultidimStrategy::kBudgetSplit
            ? config.epsilon /
                  (static_cast<double>(config.dims) * config.window)
            : config.epsilon / config.window;
    CAPP_ASSIGN_OR_RETURN(
        collector_options.histogram,
        StreamingAnalyzer::CollectorHistogramOptions(
            per_slot_budget, config.analytics.histogram_buckets));
  }
  CAPP_ASSIGN_OR_RETURN(ShardedCollector collector,
                        ShardedCollector::Create(collector_options));
  if (config.transport.kind == TransportKind::kSocket &&
      config.transport.handshake_fingerprint == 0) {
    // Stamp the budget/shape fingerprint into the socket handshake so a
    // collector configured differently refuses this fleet before any
    // report flows. An explicit nonzero value (tests, cross-version
    // experiments) is left alone.
    config.transport.handshake_fingerprint = StreamHandshakeFingerprint(
        config.epsilon, config.window, config.dims,
        config.multidim_strategy);
  }
  Fleet fleet(std::move(config),
              std::make_unique<ShardedCollector>(std::move(collector)),
              smoothing);
  if (fleet.config_.durability.enabled()) {
    // The durable tier recovers any pre-existing WAL/checkpoint state
    // into the (empty) collector right here, then arms the writer.
    DurableCollectorOptions durable_options;
    durable_options.wal.dir = fleet.config_.durability.dir;
    durable_options.wal.fingerprint = EngineConfigFingerprint(fleet.config_);
    durable_options.wal.fsync_policy = fleet.config_.durability.fsync_policy;
    durable_options.wal.fsync_every_frames =
        fleet.config_.durability.fsync_every_frames;
    durable_options.wal.fsync_interval_ms =
        fleet.config_.durability.fsync_interval_ms;
    durable_options.checkpoint_every_runs =
        fleet.config_.durability.checkpoint_every_runs;
    CAPP_ASSIGN_OR_RETURN(
        fleet.durable_,
        DurableCollector::Create(fleet.collector_.get(), durable_options));
  }
  return fleet;
}

Result<EngineStats> Fleet::Run() {
  if (ran_) {
    return Status::FailedPrecondition("Fleet::Run may be called only once");
  }
  ran_ = true;

  const size_t users = config_.num_users;
  const size_t slots = config_.num_slots;
  const size_t dims = config_.dims;
  // Everything per-slot generalizes to per-cell: a user's run, the chunk
  // accumulators, and the collector's storage all hold dims * slots
  // doubles, dim-major. cells == slots at d = 1, so that path's loop
  // bounds, arithmetic, and digests are untouched.
  const size_t cells = dims * slots;
  const size_t chunk_size = config_.chunk_size;
  const size_t num_chunks = (users + chunk_size - 1) / chunk_size;
  const int threads =
      static_cast<int>(std::min<size_t>(ResolveThreadCount(
                                            config_.num_threads),
                                        num_chunks));

  std::vector<ChunkSums> chunk_sums(num_chunks);
  // The ingest seam: the durable decorator (WAL tee + dedup) when
  // durability is on, the bare collector otherwise.
  CollectorBackend* const ingest = &backend();
  ingest->ReserveUsers(users);
  // kDirect ingests in place (no hub): each worker stages up to
  // transport.max_batch_runs runs and hands them to the collector as one
  // batch. The queued kinds put the transport tier between workers and
  // collector. Either way the published streams -- and with
  // SlotAggregate's exact sums, the collector aggregates -- are
  // bit-identical.
  std::unique_ptr<TransportHub> hub;
  if (config_.transport.kind != TransportKind::kDirect) {
    CAPP_ASSIGN_OR_RETURN(hub,
                          TransportHub::Create(ingest, config_.transport));
  }
  const auto start = std::chrono::steady_clock::now();

  ParallelFor(num_chunks, threads, [&](size_t chunk) {
    // One timer per chunk (thousands of users), so the cost amortizes to
    // nothing and the histogram still resolves stragglers.
    telemetry::ScopedTimer chunk_timer;
    if (telemetry::Enabled()) {
      chunk_timer.Arm(&telemetry::metrics::FleetChunkSeconds());
    }
    const uint64_t begin = chunk * chunk_size;
    const uint64_t end =
        std::min<uint64_t>(users, begin + chunk_size);
    ChunkSums& sums = chunk_sums[chunk];
    sums.true_sum.assign(cells, 0.0);
    sums.report_sum.assign(cells, 0.0);
    // Pooled per-worker state, reused across every user in the chunk: one
    // device per user of a lane group (reseeded per user via ResetForUser
    // -- no perturber or mechanism construction on the per-user path) and
    // preallocated signal/report/smoothing buffers. The per-report hot
    // path is allocation-free after the first group. Every d, d = 1
    // included, runs through the same device (MultidimPerturber).
    //
    // When the device supports lanes (budget split -- always at d = 1 --
    // with an SW inner, d dividing kLanes), users go through the
    // perturbation in lane groups of kLanes / d users, one lane per (user,
    // dimension), which overlaps their feedback chains. The chunk's last
    // users (fewer than a group) and every other algorithm, strategy or d
    // take the per-user PerturbStream. Both are bit-identical to per-slot
    // Report, so the grouping is invisible in the results.
    constexpr size_t kLanes = StreamPerturber::kLanes;
    std::vector<MultidimPerturber> devices;
    auto add_device = [&] {
      auto created = MultidimPerturber::Create(
          dims, config_.multidim_strategy, {config_.epsilon, config_.window},
          config_.algorithm);
      CAPP_CHECK(created.ok());  // Probed in Create.
      devices.push_back(std::move(*created));
    };
    add_device();
    const bool lanes = devices[0].supports_lanes();
    const size_t group = lanes ? kLanes / dims : 1;
    while (devices.size() < group) add_device();
    std::vector<std::vector<double>> truths(group);
    std::vector<std::vector<double>> reports(group,
                                             std::vector<double>(cells));
    std::vector<double> published(cells);
    std::vector<double> sma_scratch;
    std::optional<TransportHub::Producer> producer;
    if (hub != nullptr) producer.emplace(hub->MakeProducer());
    // kDirect staging: the users' runs, back to back, until
    // max_batch_runs are staged or the chunk ends.
    const size_t batch_runs = config_.transport.max_batch_runs;
    std::vector<uint64_t> staged_users;
    std::vector<double> staged_values;
    std::vector<UserRun> batch;
    auto flush_staged = [&] {
      if (staged_users.empty()) return;
      batch.clear();
      for (size_t i = 0; i < staged_users.size(); ++i) {
        batch.push_back({staged_users[i], /*base_slot=*/0,
                         std::span<const double>(staged_values)
                             .subspan(i * cells, cells)});
      }
      ingest->IngestUserRuns(dims, batch);
      staged_users.clear();
      staged_values.clear();
    };

    // Everything after perturbation, for one user, in uid order.
    auto finish_user = [&](uint64_t uid, const std::vector<double>& truth,
                           const std::vector<double>& report_values) {
      // The device's whole stream is delivered as one run (a
      // d-dimensional device's is its full dim-major block). Queued
      // transports stage the run into a pooled frame; kDirect stages it
      // for the next collector batch.
      if (producer.has_value()) {
        producer->Publish(uid, /*base_slot=*/0, dims, report_values);
      } else {
        staged_users.push_back(uid);
        staged_values.insert(staged_values.end(), report_values.begin(),
                             report_values.end());
        if (staged_users.size() >= batch_runs) flush_staged();
      }
      sums.reports += cells;
      // The collector-side SMA is per attribute: each dim-major row is
      // read where it lies and smoothed into its row of the published
      // block, which keeps the dim-major layout (it is what the digest
      // hashes).
      const std::span<const double> rows(report_values);
      for (size_t k = 0; k < dims; ++k) {
        CAPP_CHECK(SimpleMovingAverageInto(
                       rows.subspan(k * slots, slots), smoothing_window_,
                       std::span(published).subspan(k * slots, slots),
                       sma_scratch)
                       .ok());
      }
      // The digest is one chunk-level hash of the published block
      // (core/stream_digest.h), so the slot-sum accumulation no longer
      // carries a serial hash chain and vectorizes on its own. v1 fused a
      // per-byte FNV chain into this loop to hide the sums in its latency
      // shadow; v2's whole hash costs less than the chain's first word.
      for (size_t t = 0; t < cells; ++t) {
        sums.true_sum[t] += truth[t];
        sums.report_sum[t] += report_values[t];
      }
      sums.digest ^= UserStreamDigest(uid, published);
    };

    // Synthesizes user uid's signal into truths[u] and reseeds pooled
    // device u for it.
    auto start_user = [&](size_t u, uint64_t uid) {
      Rng signal_rng(UserStreamSeed(config_.seed, uid, 0));
      GenerateUserSignalMultiInto(config_.signal, dims, slots, signal_rng,
                                  truths[u]);
      devices[u].ResetForUser(UserStreamSeed(config_.seed, uid, 1));
    };

    uint64_t uid = begin;
    std::array<std::span<const double>, kLanes> truth_views;
    std::array<std::span<double>, kLanes> report_views;
    for (; lanes && end - uid >= group; uid += group) {
      for (size_t u = 0; u < group; ++u) {
        start_user(u, uid + u);
        truth_views[u] = truths[u];
        report_views[u] = reports[u];
      }
      MultidimPerturber::PerturbLanes(devices,
                                      std::span(truth_views).first(group),
                                      std::span(report_views).first(group));
      for (size_t u = 0; u < group; ++u) {
        finish_user(uid + u, truths[u], reports[u]);
      }
    }
    for (; uid < end; ++uid) {
      start_user(0, uid);
      // All of the user's slots go through the batched perturbation
      // pipeline in one call (bit-identical to per-slot Report).
      devices[0].PerturbStream(truths[0], slots, reports[0]);
      finish_user(uid, truths[0], reports[0]);
    }
    flush_staged();
  });

  EngineStats stats;
  if (hub != nullptr) {
    // Every producer flushed when its chunk lambda returned; Drain pushes
    // the poison pills (or FINs the socket), joins everything, and
    // verifies nothing was lost or saturated. The clock stops after the
    // drain so reports/s measures end-to-end ingest, not just production.
    CAPP_RETURN_IF_ERROR(hub->Drain());
    stats.transport = hub->stats();
  }
  if (durable_ != nullptr) {
    // A run's verdict includes its durability: flush + fdatasync the WAL
    // tail and surface the first append/checkpoint failure, if any.
    CAPP_RETURN_IF_ERROR(durable_->Flush());
    stats.wal = durable_->wal_stats();
  }
  // kDirect has no Drain to fail; surface saturated aggregates just as
  // loudly here (fleet workloads are sanitized to [0, 1], so this only
  // fires when an unnormalized signal slips in).
  stats.owned_shards = collector_->options().single_writer;
  stats.seqlock_read_retries = collector_->seqlock_read_retries();
  stats.aggregate_saturations = collector_->saturated_report_count();
  if (stats.aggregate_saturations > 0) {
    return Status::Internal(
        "collector aggregates saturated " +
        std::to_string(stats.aggregate_saturations) +
        " report(s) beyond +/-2^16; per-slot statistics would be wrong");
  }
  const auto stop = std::chrono::steady_clock::now();

  // Sequential reduction in chunk order: chunk boundaries depend only on
  // chunk_size, so these sums are independent of the thread count.
  std::vector<double> true_mean(cells, 0.0);
  std::vector<double> report_mean(cells, 0.0);
  for (const ChunkSums& sums : chunk_sums) {
    for (size_t t = 0; t < cells; ++t) {
      true_mean[t] += sums.true_sum[t];
      report_mean[t] += sums.report_sum[t];
    }
    stats.stream_digest ^= sums.digest;
    stats.reports += sums.reports;
  }
  const double inv_users = 1.0 / static_cast<double>(users);
  for (size_t t = 0; t < cells; ++t) {
    true_mean[t] *= inv_users;
    report_mean[t] *= inv_users;
  }
  // The published population mean: SMA is linear, so smoothing the mean of
  // the raw reports equals the mean of the per-user smoothed streams. Each
  // attribute's dim-major row is smoothed on its own, matching the
  // per-user publication path above.
  std::vector<double> published_mean(cells);
  stats.per_dim_mse.resize(dims);
  stats.per_dim_mae.resize(dims);
  KahanSum total_mse;
  KahanSum total_mae;
  for (size_t k = 0; k < dims; ++k) {
    const std::vector<double> row(
        report_mean.begin() + static_cast<ptrdiff_t>(k * slots),
        report_mean.begin() + static_cast<ptrdiff_t>((k + 1) * slots));
    auto smoothed = SimpleMovingAverage(row, smoothing_window_);
    CAPP_CHECK(smoothed.ok());
    std::copy(smoothed->begin(), smoothed->end(),
              published_mean.begin() + static_cast<ptrdiff_t>(k * slots));
    KahanSum dim_mse;
    KahanSum dim_mae;
    for (size_t t = 0; t < slots; ++t) {
      const double err =
          published_mean[k * slots + t] - true_mean[k * slots + t];
      const double sq = err * err;
      const double abs = std::fabs(err);
      dim_mse.Add(sq);
      dim_mae.Add(abs);
      total_mse.Add(sq);
      total_mae.Add(abs);
    }
    stats.per_dim_mse[k] = dim_mse.Total() / static_cast<double>(slots);
    stats.per_dim_mae[k] = dim_mae.Total() / static_cast<double>(slots);
  }

  stats.users = users;
  stats.slots = slots;
  stats.dims = dims;
  stats.threads = static_cast<size_t>(threads);
  stats.chunks = num_chunks;
  stats.elapsed_seconds =
      std::chrono::duration<double>(stop - start).count();
  stats.reports_per_sec =
      stats.elapsed_seconds > 0.0
          ? static_cast<double>(stats.reports) / stats.elapsed_seconds
          : 0.0;
  stats.mean_slot_mse = total_mse.Total() / static_cast<double>(cells);
  stats.mean_abs_error = total_mae.Total() / static_cast<double>(cells);
  stats.true_slot_means = std::move(true_mean);
  stats.published_slot_means = std::move(published_mean);
  return stats;
}

}  // namespace capp
