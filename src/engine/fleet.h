// Fleet: a thread-pool-driven simulator of the paper's many-device
// deployment (Fig. 1) at population scale.
//
// A Fleet owns one simulated population. Each user is an independent
// device (a MultidimPerturber, for every d >= 1) whose RNG seeds are
// derived from (fleet seed, user id) with splitmix64, so a user's
// perturbed stream is a pure function of the config -- never of thread
// scheduling. At d = 1 the device reports exactly what a UserSession
// would for the fleet's finite inputs. The population is split into
// fixed-size chunks of users; worker threads claim chunks, perturb every
// user in the chunk, and deliver each user's stream to the collector as
// one run (staged into IngestUserRuns batches, or a frame through the
// transport). Per-chunk accumulators are reduced in chunk order
// afterwards, so the reported statistics (and the published-stream
// digest) are bit-identical for any thread count.
#ifndef CAPP_ENGINE_FLEET_H_
#define CAPP_ENGINE_FLEET_H_

#include <memory>
#include <vector>

#include "core/rng.h"
#include "core/status.h"
#include "engine/engine_config.h"
#include "engine/sharded_collector.h"
#include "storage/durable_collector.h"

namespace capp {

/// Derives the RNG seed for one user's stream from the fleet seed. `stream`
/// distinguishes independent per-user randomness consumers (0 = workload
/// signal, 1 = perturbation). Pure function: the determinism contract.
uint64_t UserStreamSeed(uint64_t fleet_seed, uint64_t user_id,
                        uint64_t stream);

/// Generates one user's true (unperturbed) workload, already in [0, 1].
/// Deterministic given the Rng state.
std::vector<double> GenerateUserSignal(SignalKind kind, size_t num_slots,
                                       Rng& rng);

/// In-place variant: writes the signal into `out` (cleared and refilled,
/// capacity reused). Identical values and RNG consumption; the fleet
/// workers call this once per user on a pooled buffer.
void GenerateUserSignalInto(SignalKind kind, size_t num_slots, Rng& rng,
                            std::vector<double>& out);

/// d-dimensional variant: fills `out` with dims * num_slots doubles,
/// dim-major (dimension k's series at [k * num_slots, (k+1) * num_slots)).
/// dims == 1 is GenerateUserSignalInto exactly -- same values, same RNG
/// consumption. For the sinusoid workload the dimensions are correlated:
/// they share the user's phase draw (each shifted by a fixed per-dimension
/// offset) and one block Gaussian draw covers all dims * num_slots noise
/// samples; other kinds generate the dimensions sequentially from the
/// same RNG.
void GenerateUserSignalMultiInto(SignalKind kind, size_t dims,
                                 size_t num_slots, Rng& rng,
                                 std::vector<double>& out);

/// A simulated population of user devices feeding one ShardedCollector.
class Fleet {
 public:
  /// Validates the config (including that the algorithm supports online
  /// per-slot operation) and prepares an empty collector. With
  /// EngineConfig::durability set, any existing WAL/checkpoint state
  /// under durability.dir is recovered into the collector here, before
  /// Run -- a resumed fleet then re-sends every run and the durable
  /// tier's user-id dedup lands each exactly once.
  static Result<Fleet> Create(EngineConfig config);

  /// Simulates the whole fleet over all slots, ingesting every report into
  /// the collector, and returns throughput/accuracy statistics. Run once
  /// per Fleet.
  Result<EngineStats> Run();

  /// The collector that received the fleet's reports (valid after Run).
  const ShardedCollector& collector() const { return *collector_; }

  /// The ingest seam the fleet's reports go through: the durable
  /// decorator when durability is on, the collector itself otherwise.
  CollectorBackend& backend() {
    return durable_ != nullptr
               ? static_cast<CollectorBackend&>(*durable_)
               : static_cast<CollectorBackend&>(*collector_);
  }

  const EngineConfig& config() const { return config_; }

  /// The collector-side SMA window in effect (config override or the
  /// algorithm's recommendation).
  int smoothing_window() const { return smoothing_window_; }

 private:
  Fleet(EngineConfig config, std::unique_ptr<ShardedCollector> collector,
        int smoothing_window);

  EngineConfig config_;
  // Heap-held so the durable decorator's backend pointer stays valid
  // when the Fleet itself is moved out of Create's Result.
  std::unique_ptr<ShardedCollector> collector_;
  std::unique_ptr<DurableCollector> durable_;  // null when durability off
  int smoothing_window_;
  bool ran_ = false;
};

}  // namespace capp

#endif  // CAPP_ENGINE_FLEET_H_
