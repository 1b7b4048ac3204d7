// Checkpoint files: exact snapshots of a CollectorBackend's sharded
// aggregate state, bounding recovery cost to (snapshot + WAL tail)
// instead of O(stream length).
//
// File layout (all integers little-endian):
//
//   "CAPPCKP1" magic | u32 version | u64 config fingerprint
//   | u64 covers_through_segment | u64 num_shards
//   per shard:
//     u64 user count | {u64 user_id, u32 last_slot, u32 reports} ...
//     u64 slot count | {5 x u64 SlotAggregate::Packed words} ...
//     u64 histogram entries | u32 ...
//     u64 report_count | u64 saturated_reports
//   u32 CRC32 over everything above
//
// covers_through_segment records the WAL rotation point the snapshot was
// taken at: every segment with seqno <= covers is fully contained in the
// snapshot and may be deleted (truncated) once the checkpoint file is
// durable. Because the aggregate sums are exact integers, restore +
// replay-of-later-segments is bit-identical to never having crashed.
// Files are written atomically (tmp + fdatasync + rename + dir fsync),
// so a crash mid-checkpoint leaves the previous checkpoint intact.
#ifndef CAPP_STORAGE_CHECKPOINT_H_
#define CAPP_STORAGE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "storage/collector_backend.h"

namespace capp {

/// A decoded checkpoint file.
struct CheckpointImage {
  uint64_t fingerprint = 0;
  uint64_t covers_through_segment = 0;
  /// Values per slot of the collector that wrote the snapshot. A
  /// one-dimensional checkpoint is always the version-1 file -- the
  /// pre-multidim bytes, unchanged -- while dims >= 2 writes version 2,
  /// which inserts this count after num_shards. Restore refuses a dims
  /// mismatch: shard slot arrays are flat cell arrays (slot * dims +
  /// dim), so restoring into a differently-dimensioned collector would
  /// silently reinterpret every cell.
  uint64_t dims = 1;
  std::vector<CollectorShardState> shards;
};

/// The checkpoint file path for a given rotation point.
std::string CheckpointPath(const std::string& dir, uint64_t covers_segment);

/// Lists checkpoint files in `dir`, ascending by covered segment.
Result<std::vector<std::string>> ListCheckpointFiles(const std::string& dir);

/// Serializes every shard of `backend` and atomically writes the file.
/// Fails (nothing written in the file's place) if a shard export or a
/// write fails.
Status WriteCheckpointFile(const std::string& dir, uint64_t fingerprint,
                           uint64_t covers_segment,
                           const CollectorBackend& backend);

/// Reads and fully validates a checkpoint file (magic, version,
/// fingerprint, CRC). FailedPrecondition on a fingerprint mismatch,
/// Internal on corruption -- checkpoints are written atomically, so a
/// damaged one is never a benign crash artifact.
Result<CheckpointImage> ReadCheckpointFile(const std::string& path,
                                      uint64_t expected_fingerprint);

/// Restores a decoded checkpoint into an empty backend.
Status RestoreCheckpoint(CheckpointImage checkpoint, CollectorBackend* backend);

}  // namespace capp

#endif  // CAPP_STORAGE_CHECKPOINT_H_
