// Tests for the durable collector tier (src/storage/): WAL segment
// round-trips, truncation at every byte boundary, bit-flip fuzzing over
// header/frames/trailer, frames straddling the recovery read buffer's
// refills, Rng-seeded mutation of a multi-segment log, the recovery
// counters' export, fingerprint (duplicate/foreign-log) detection,
// checkpoint round-trips and pinned checkpoint bytes, the headline
// recovery invariant -- replay after a simulated crash reproduces the
// collector's aggregate state bit-identically (pure-WAL and
// checkpoint+WAL both), or fails loudly with the backend untouched;
// never a half-applied log -- and the DurableCollector's log thread:
// idle kTimed syncs, kPerRun visibility, ingest after Seal, log-thread
// write errors, and a concurrent hammer.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "engine/engine_config.h"
#include "engine/fleet.h"
#include "engine/sharded_collector.h"
#include "storage/checkpoint.h"
#include "storage/collector_backend.h"
#include "storage/durable_collector.h"
#include "storage/storage_io.h"
#include "storage/wal.h"
#include "telemetry/instruments.h"
#include "telemetry/metrics.h"
#include "transport/wire_format.h"

namespace capp {
namespace {

constexpr uint64_t kFp = 0xFEEDFACECAFED00DULL;

// A scratch WAL directory, removed on scope exit.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/capp_storage_test_XXXXXX";
    char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path_ = made;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Deterministic synthetic runs: user i reports `slots` values from its
// own arithmetic pattern. Finite, unit-range-ish, unique per user.
std::vector<double> RunValues(uint64_t user_id, size_t slots) {
  std::vector<double> values(slots);
  for (size_t t = 0; t < slots; ++t) {
    values[t] = 0.01 * static_cast<double>((user_id * 37 + t * 11) % 173) -
                0.5;
  }
  return values;
}

WalOptions TestWalOptions(const std::string& dir) {
  WalOptions options;
  options.dir = dir;
  options.fingerprint = kFp;
  options.fsync_policy = WalFsyncPolicy::kPerFrames;
  options.fsync_every_frames = 8;
  return options;
}

// Writes `users` runs into a fresh segment and seals it; returns the
// segment path.
std::string WriteSealedSegment(const std::string& dir, size_t users,
                               size_t slots) {
  auto writer = WalWriter::Create(TestWalOptions(dir), 1);
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  std::vector<uint8_t> frame;
  for (uint64_t u = 0; u < users; ++u) {
    frame.clear();
    AppendUserRunFrame(u, 0, RunValues(u, slots), frame);
    EXPECT_TRUE(writer->Append(frame).ok());
  }
  EXPECT_TRUE(writer->Seal().ok());
  auto segments = ListWalSegments(dir);
  EXPECT_TRUE(segments.ok());
  EXPECT_EQ(segments->size(), 1u);
  return (*segments)[0].path;
}

ShardedCollector MakeCollector() {
  ShardedCollectorOptions options;
  options.num_shards = 4;
  auto collector = ShardedCollector::Create(options);
  EXPECT_TRUE(collector.ok());
  return std::move(*collector);
}

// ------------------------------------------------------------ wal scan ----

TEST(WalTest, SealedSegmentRoundTrips) {
  TempDir dir;
  const size_t kUsers = 50;
  const size_t kSlots = 7;
  const std::string path = WriteSealedSegment(dir.path(), kUsers, kSlots);

  auto scan = ScanWalSegment(path, kFp);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->header_ok);
  EXPECT_TRUE(scan->sealed);
  EXPECT_EQ(scan->seqno, 1u);
  EXPECT_EQ(scan->frames, kUsers);
  EXPECT_EQ(scan->discarded_bytes, 0u);

  size_t next_user = 0;
  const Status replayed = ReplayWalSegment(
      *scan, [&](uint64_t user_id, uint64_t base_slot, uint64_t dims,
                 std::span<const double> values) {
        EXPECT_EQ(user_id, next_user);
        EXPECT_EQ(base_slot, 0u);
        EXPECT_EQ(dims, 1u);
        const std::vector<double> expected = RunValues(user_id, kSlots);
        ASSERT_EQ(values.size(), expected.size());
        for (size_t t = 0; t < values.size(); ++t) {
          EXPECT_EQ(values[t], expected[t]);
        }
        ++next_user;
      });
  EXPECT_TRUE(replayed.ok()) << replayed.ToString();
  EXPECT_EQ(next_user, kUsers);
}

TEST(WalTest, ZeroFrameSealedSegmentIsValid) {
  TempDir dir;
  auto writer = WalWriter::Create(TestWalOptions(dir.path()), 3);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Seal().ok());
  auto scan = ScanWalSegment(dir.path() + "/wal-00000003.log", kFp);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->header_ok);
  EXPECT_TRUE(scan->sealed);
  EXPECT_EQ(scan->frames, 0u);
  EXPECT_EQ(scan->discarded_bytes, 0u);
}

TEST(WalTest, FingerprintMismatchIsRefusedNotTruncated) {
  TempDir dir;
  const std::string path = WriteSealedSegment(dir.path(), 5, 3);
  auto scan = ScanWalSegment(path, kFp ^ 1);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kFailedPrecondition);
}

// The crash invariant at byte granularity: for EVERY prefix length of a
// sealed segment, the scan must yield some clean prefix of the original
// frames (never an error, never a mangled frame) and replay must
// reproduce those frames exactly.
TEST(WalTest, TruncationAtEveryByteBoundaryYieldsCleanPrefix) {
  TempDir dir;
  const size_t kUsers = 12;
  const size_t kSlots = 5;
  const std::string path = WriteSealedSegment(dir.path(), kUsers, kSlots);
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());

  TempDir scratch;
  const std::string cut_path = scratch.path() + "/wal-00000001.log";
  for (size_t len = 0; len <= bytes->size(); ++len) {
    ASSERT_TRUE(
        AtomicWriteFile(cut_path, {bytes->data(), len}).ok());
    auto scan = ScanWalSegment(cut_path, kFp);
    ASSERT_TRUE(scan.ok()) << "len=" << len << ": "
                           << scan.status().ToString();
    if (len < bytes->size()) {
      EXPECT_FALSE(scan->sealed) << "len=" << len;
    }
    ASSERT_LE(scan->frames, kUsers);
    if (!scan->header_ok) {
      EXPECT_EQ(scan->frames, 0u);
      continue;
    }
    uint64_t next_user = 0;
    const Status replayed = ReplayWalSegment(
        *scan, [&](uint64_t user_id, uint64_t base_slot, uint64_t dims,
                   std::span<const double> values) {
          ASSERT_EQ(user_id, next_user) << "len=" << len;
          ASSERT_EQ(base_slot, 0u);
          ASSERT_EQ(dims, 1u);
          const std::vector<double> expected = RunValues(user_id, kSlots);
          ASSERT_EQ(values.size(), expected.size());
          for (size_t t = 0; t < values.size(); ++t) {
            ASSERT_EQ(values[t], expected[t]);
          }
          ++next_user;
        });
    ASSERT_TRUE(replayed.ok()) << "len=" << len;
    EXPECT_EQ(next_user, scan->frames);
  }
}

// Bit-flip fuzz over the whole file: a flipped byte anywhere (header,
// frame interior, trailer) must either invalidate the header (whole file
// discarded), truncate the scan at or before the damaged frame, or -- if
// it lands in the fingerprint field with a CRC the header check cannot
// vouch for -- never pass anything mangled to replay. Replayed frames
// must always match the originals exactly.
TEST(WalTest, BitFlipFuzzNeverReplaysAMangledFrame) {
  TempDir dir;
  const size_t kUsers = 8;
  const size_t kSlots = 4;
  const std::string path = WriteSealedSegment(dir.path(), kUsers, kSlots);
  auto pristine = ReadFileBytes(path);
  ASSERT_TRUE(pristine.ok());

  TempDir scratch;
  const std::string fuzz_path = scratch.path() + "/wal-00000001.log";
  for (size_t pos = 0; pos < pristine->size(); ++pos) {
    std::vector<uint8_t> mutated = *pristine;
    mutated[pos] ^= 0x5A;
    ASSERT_TRUE(AtomicWriteFile(fuzz_path, mutated).ok());
    auto scan = ScanWalSegment(fuzz_path, kFp);
    if (!scan.ok()) {
      // Only the fingerprint-mismatch path may error: a flip inside the
      // stored fingerprint whose header CRC happens to still match is
      // impossible (CRC32 catches all single-byte damage), so this can
      // only be... nothing. Any error here is a bug.
      ADD_FAILURE() << "pos=" << pos << ": " << scan.status().ToString();
      continue;
    }
    if (!scan->header_ok) continue;  // header damage: whole file dropped
    ASSERT_LE(scan->frames, kUsers) << "pos=" << pos;
    uint64_t next_user = 0;
    const Status replayed = ReplayWalSegment(
        *scan, [&](uint64_t user_id, uint64_t base_slot, uint64_t dims,
                   std::span<const double> values) {
          ASSERT_EQ(user_id, next_user) << "pos=" << pos;
          ASSERT_EQ(base_slot, 0u);
          ASSERT_EQ(dims, 1u);
          const std::vector<double> expected = RunValues(user_id, kSlots);
          ASSERT_EQ(values.size(), expected.size()) << "pos=" << pos;
          for (size_t t = 0; t < values.size(); ++t) {
            ASSERT_EQ(values[t], expected[t]) << "pos=" << pos;
          }
          ++next_user;
        });
    ASSERT_TRUE(replayed.ok()) << "pos=" << pos;
    EXPECT_EQ(next_user, scan->frames);
  }
}

TEST(WalTest, RotationSealsAndNumbersSegments) {
  TempDir dir;
  WalOptions options = TestWalOptions(dir.path());
  options.segment_max_bytes = 256;  // force rotations quickly
  auto writer = WalWriter::Create(options, 1);
  ASSERT_TRUE(writer.ok());
  std::vector<uint8_t> frame;
  for (uint64_t u = 0; u < 40; ++u) {
    frame.clear();
    AppendUserRunFrame(u, 0, RunValues(u, 6), frame);
    ASSERT_TRUE(writer->Append(frame).ok());
  }
  ASSERT_TRUE(writer->Seal().ok());
  auto segments = ListWalSegments(dir.path());
  ASSERT_TRUE(segments.ok());
  ASSERT_GT(segments->size(), 2u);
  uint64_t total_frames = 0;
  for (size_t i = 0; i < segments->size(); ++i) {
    EXPECT_EQ((*segments)[i].seqno, i + 1);  // dense, ascending
    auto scan = ScanWalSegment((*segments)[i].path, kFp);
    ASSERT_TRUE(scan.ok());
    EXPECT_TRUE(scan->sealed) << (*segments)[i].path;
    EXPECT_EQ(scan->discarded_bytes, 0u);
    total_frames += scan->frames;
  }
  EXPECT_EQ(total_frames, 40u);
}

// Dim-major d-dimensional run values: attribute k's slot series derived
// from the scalar pattern with a per-attribute offset, unique per cell.
std::vector<double> MultiRunValues(uint64_t user_id, size_t dims,
                                   size_t slots) {
  std::vector<double> values(dims * slots);
  for (size_t k = 0; k < dims; ++k) {
    for (size_t t = 0; t < slots; ++t) {
      values[k * slots + t] =
          0.01 * static_cast<double>((user_id * 37 + k * 53 + t * 11) %
                                     173) -
          0.5;
    }
  }
  return values;
}

TEST(WalTest, MixedDimsSegmentReplaysBothFrameKinds) {
  // One segment interleaving legacy 0xC5 frames with d = 4 0xC6 frames:
  // the replay callback must surface each frame's own dimension count
  // with its dim-major payload intact -- the WAL stores frames verbatim
  // and never reinterprets them.
  TempDir dir;
  const size_t kSlots = 5;
  const size_t kDims = 4;
  const size_t kUsers = 20;
  auto writer = WalWriter::Create(TestWalOptions(dir.path()), 1);
  ASSERT_TRUE(writer.ok());
  std::vector<uint8_t> frame;
  for (uint64_t u = 0; u < kUsers; ++u) {
    frame.clear();
    if (u % 2 == 0) {
      AppendUserRunFrame(u, 0, RunValues(u, kSlots), frame);
    } else {
      AppendMultiDimRunFrame(u, 0, kDims, MultiRunValues(u, kDims, kSlots),
                             frame);
    }
    ASSERT_TRUE(writer->Append(frame).ok());
  }
  ASSERT_TRUE(writer->Seal().ok());

  auto segments = ListWalSegments(dir.path());
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 1u);
  auto scan = ScanWalSegment((*segments)[0].path, kFp);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->sealed);
  EXPECT_EQ(scan->frames, kUsers);

  uint64_t next_user = 0;
  const Status replayed = ReplayWalSegment(
      *scan, [&](uint64_t user_id, uint64_t base_slot, uint64_t dims,
                 std::span<const double> values) {
        ASSERT_EQ(user_id, next_user);
        ASSERT_EQ(base_slot, 0u);
        const std::vector<double> expected =
            (user_id % 2 == 0) ? RunValues(user_id, kSlots)
                               : MultiRunValues(user_id, kDims, kSlots);
        ASSERT_EQ(dims, user_id % 2 == 0 ? 1u : kDims);
        ASSERT_EQ(values.size(), expected.size());
        for (size_t i = 0; i < values.size(); ++i) {
          ASSERT_EQ(values[i], expected[i]) << "cell " << i;
        }
        ++next_user;
      });
  EXPECT_TRUE(replayed.ok()) << replayed.ToString();
  EXPECT_EQ(next_user, kUsers);
}

// ---------------------------------------------------------- checkpoints ----

TEST(CheckpointTest, RoundTripsExactAggregateState) {
  ShardedCollector original = MakeCollector();
  for (uint64_t u = 0; u < 200; ++u) {
    original.IngestUserRun(u, 0, RunValues(u, 9));
  }
  TempDir dir;
  ASSERT_TRUE(WriteCheckpointFile(dir.path(), kFp, 5, original).ok());

  auto files = ListCheckpointFiles(dir.path());
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 1u);
  auto image = ReadCheckpointFile((*files)[0], kFp);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(image->covers_through_segment, 5u);

  ShardedCollector restored = MakeCollector();
  ASSERT_TRUE(RestoreCheckpoint(std::move(*image), &restored).ok());
  EXPECT_EQ(restored.user_count(), original.user_count());
  EXPECT_EQ(restored.report_count(), original.report_count());
  EXPECT_EQ(CollectorStateDigest(restored),
            CollectorStateDigest(original));
  // The restored collector keeps working as if it ingested directly.
  EXPECT_TRUE(restored.Contains(7));
  restored.IngestUserRun(1000, 0, RunValues(1000, 9));
  original.IngestUserRun(1000, 0, RunValues(1000, 9));
  EXPECT_EQ(CollectorStateDigest(restored),
            CollectorStateDigest(original));
}

TEST(CheckpointTest, RefusesForeignFingerprintAndCorruption) {
  ShardedCollector collector = MakeCollector();
  for (uint64_t u = 0; u < 20; ++u) {
    collector.IngestUserRun(u, 0, RunValues(u, 4));
  }
  TempDir dir;
  ASSERT_TRUE(WriteCheckpointFile(dir.path(), kFp, 1, collector).ok());
  const std::string path = CheckpointPath(dir.path(), 1);

  EXPECT_EQ(ReadCheckpointFile(path, kFp ^ 1).status().code(),
            StatusCode::kFailedPrecondition);

  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  for (size_t pos : {size_t{0}, bytes->size() / 2, bytes->size() - 1}) {
    std::vector<uint8_t> mutated = *bytes;
    mutated[pos] ^= 0xFF;
    ASSERT_TRUE(AtomicWriteFile(path, mutated).ok());
    EXPECT_FALSE(ReadCheckpointFile(path, kFp).ok()) << "pos=" << pos;
  }
}

TEST(CheckpointTest, CheckpointBytesArePinned) {
  // A known-answer pin on the checkpoint file itself: a fixed Rng-seeded
  // population with random (non-sequential) 64-bit ids, so neither shard
  // membership nor the user index's table order follows id order, and
  // some users report twice. The bytes pin the per-shard user order
  // (first-seen), the entry fields and the aggregate encoding; both
  // locking modes must write the same file. If a deliberate format
  // change lands, recompute and update the constant in the same commit.
  constexpr uint64_t kPinnedFileHash = 0x4e1fe15a4f9a57f0ULL;
  for (const bool single_writer : {false, true}) {
    SCOPED_TRACE(single_writer);
    ShardedCollectorOptions options;
    options.num_shards = 16;
    options.single_writer = single_writer;
    auto collector = ShardedCollector::Create(options);
    ASSERT_TRUE(collector.ok());
    Rng rng(0xC4EC7);
    std::vector<uint64_t> ids(3000);
    for (uint64_t& id : ids) id = rng.NextUint64();
    for (size_t i = 0; i < ids.size(); ++i) {
      const size_t base = rng.UniformInt(40);
      std::vector<double> run(1 + rng.UniformInt(8));
      for (double& v : run) v = rng.Uniform(-1.5, 2.5);
      collector->IngestUserRun(ids[i], base, run);
      if (i % 3 == 0) {
        // A later run from an earlier user, past its first run's slots.
        const uint64_t earlier = ids[rng.UniformInt(i + 1)];
        std::vector<double> more(1 + rng.UniformInt(4));
        for (double& v : more) v = rng.Uniform(-1.5, 2.5);
        collector->IngestUserRun(earlier, 48 + rng.UniformInt(8), more);
      }
    }
    TempDir dir;
    ASSERT_TRUE(WriteCheckpointFile(dir.path(), kFp, 3, *collector).ok());
    auto bytes = ReadFileBytes(CheckpointPath(dir.path(), 3));
    ASSERT_TRUE(bytes.ok());
    uint64_t hash = 0xCBF29CE484222325ULL;  // FNV-1a over the file bytes
    for (uint8_t b : *bytes) hash = (hash ^ b) * 0x100000001B3ULL;
    EXPECT_EQ(hash, kPinnedFileHash)
        << std::hex << "0x" << hash << " over " << std::dec
        << bytes->size() << " bytes";
  }
}

// ----------------------------------------------------- durable recovery ----

DurableCollectorOptions TestDurableOptions(const std::string& dir,
                                           size_t checkpoint_every = 0) {
  DurableCollectorOptions options;
  options.wal = TestWalOptions(dir);
  options.checkpoint_every_runs = checkpoint_every;
  return options;
}

// The oracle for every recovery test: what the aggregates look like when
// nothing ever crashed.
uint64_t OracleDigest(size_t users, size_t slots) {
  ShardedCollector oracle = MakeCollector();
  for (uint64_t u = 0; u < users; ++u) {
    oracle.IngestUserRun(u, 0, RunValues(u, slots));
  }
  return CollectorStateDigest(oracle);
}

TEST(DurableCollectorTest, PureWalRecoveryIsBitIdentical) {
  const size_t kUsers = 300;
  const size_t kSlots = 6;
  TempDir dir;
  {
    ShardedCollector backend = MakeCollector();
    auto durable =
        DurableCollector::Create(&backend, TestDurableOptions(dir.path()));
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    for (uint64_t u = 0; u < kUsers; ++u) {
      (*durable)->IngestUserRun(u, 0, RunValues(u, kSlots));
    }
    ASSERT_TRUE((*durable)->Seal().ok());
  }
  ShardedCollector recovered = MakeCollector();
  auto durable =
      DurableCollector::Create(&recovered, TestDurableOptions(dir.path()));
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  EXPECT_EQ(recovered.user_count(), kUsers);
  EXPECT_EQ(CollectorStateDigest(recovered), OracleDigest(kUsers, kSlots));
  const WalStats stats = (*durable)->wal_stats();
  EXPECT_EQ(stats.frames_replayed, kUsers);
  EXPECT_EQ(stats.checkpoint_restored, 0u);

  // A resumed fleet re-sends everything; dedup lands each run once.
  for (uint64_t u = 0; u < kUsers; ++u) {
    (*durable)->IngestUserRun(u, 0, RunValues(u, kSlots));
  }
  EXPECT_EQ((*durable)->wal_stats().runs_deduped, kUsers);
  EXPECT_EQ(CollectorStateDigest(recovered), OracleDigest(kUsers, kSlots));
}

TEST(DurableCollectorTest, WalReplayDigestIsPinned) {
  // The recovery digest for a fixed synthetic workload, pinned to a
  // constant. The workload uses only deterministic IEEE arithmetic (no
  // libm), so this value is platform-independent; it anchors the whole
  // stack -- wire frames, WAL replay, fixed-point aggregation, and the
  // word-level state digest -- against silent definitional drift. If a
  // deliberate format change lands, recompute and update the constant in
  // the same commit.
  constexpr uint64_t kPinnedDigest = 0xcf67f51a0721aaa5ULL;
  const size_t kUsers = 100;
  const size_t kSlots = 6;
  TempDir dir;
  {
    ShardedCollector backend = MakeCollector();
    auto durable =
        DurableCollector::Create(&backend, TestDurableOptions(dir.path()));
    ASSERT_TRUE(durable.ok());
    for (uint64_t u = 0; u < kUsers; ++u) {
      (*durable)->IngestUserRun(u, 0, RunValues(u, kSlots));
    }
    ASSERT_TRUE((*durable)->Seal().ok());
    EXPECT_EQ(CollectorStateDigest(backend), kPinnedDigest);
  }
  // Replay lands the same digest whether the recovered backend runs in
  // mutex mode or single-writer (owned-shard) mode: recovery is
  // single-threaded, so the owned mode is sound here too.
  for (const bool single_writer : {false, true}) {
    SCOPED_TRACE(single_writer);
    ShardedCollectorOptions options;
    options.num_shards = 4;
    options.single_writer = single_writer;
    auto recovered = ShardedCollector::Create(options);
    ASSERT_TRUE(recovered.ok());
    auto durable = DurableCollector::Create(&*recovered,
                                            TestDurableOptions(dir.path()));
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    EXPECT_EQ(CollectorStateDigest(*recovered), kPinnedDigest);
  }
}

TEST(DurableCollectorTest, CheckpointPlusWalRecoveryIsBitIdentical) {
  const size_t kUsers = 500;
  const size_t kSlots = 5;
  TempDir dir;
  {
    ShardedCollector backend = MakeCollector();
    auto durable = DurableCollector::Create(
        &backend, TestDurableOptions(dir.path(), /*checkpoint_every=*/128));
    ASSERT_TRUE(durable.ok());
    for (uint64_t u = 0; u < kUsers; ++u) {
      (*durable)->IngestUserRun(u, 0, RunValues(u, kSlots));
    }
    EXPECT_GE((*durable)->wal_stats().checkpoints, 2u);
    ASSERT_TRUE((*durable)->Seal().ok());
  }
  ShardedCollector recovered = MakeCollector();
  auto durable = DurableCollector::Create(
      &recovered, TestDurableOptions(dir.path(), /*checkpoint_every=*/128));
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  EXPECT_EQ(recovered.user_count(), kUsers);
  EXPECT_EQ(CollectorStateDigest(recovered), OracleDigest(kUsers, kSlots));
  EXPECT_EQ((*durable)->wal_stats().checkpoint_restored, 1u);
}

TEST(DurableCollectorTest, MultiDimRunsSurviveRecoveryBitIdentically) {
  // d = 4 streams through the WAL: ingest, seal, recover into a fresh
  // d = 4 collector -- aggregate state must be bit-identical, exactly
  // the d = 1 recovery contract.
  const size_t kUsers = 150;
  const size_t kSlots = 5;
  const size_t kDims = 4;
  auto make_d4 = [] {
    ShardedCollectorOptions options;
    options.num_shards = 4;
    options.dims = kDims;
    auto collector = ShardedCollector::Create(options);
    EXPECT_TRUE(collector.ok());
    return std::move(*collector);
  };
  TempDir dir;
  uint64_t original_digest = 0;
  {
    ShardedCollector backend = make_d4();
    auto durable =
        DurableCollector::Create(&backend, TestDurableOptions(dir.path()));
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    for (uint64_t u = 0; u < kUsers; ++u) {
      (*durable)->IngestUserRun(u, 0, kDims,
                                MultiRunValues(u, kDims, kSlots));
    }
    ASSERT_TRUE((*durable)->Seal().ok());
    original_digest = CollectorStateDigest(backend);
  }
  ShardedCollector recovered = make_d4();
  auto durable =
      DurableCollector::Create(&recovered, TestDurableOptions(dir.path()));
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  EXPECT_EQ(recovered.user_count(), kUsers);
  EXPECT_EQ(CollectorStateDigest(recovered), original_digest);
  EXPECT_EQ((*durable)->wal_stats().frames_replayed, kUsers);
}

TEST(DurableCollectorTest, RecoveryRefusesDimsMismatchedFrames) {
  // A log carrying d = 4 frames recovered into a d = 1 collector (same
  // fingerprint -- the doctored/shuffled-log case the fingerprint cannot
  // catch) must refuse loudly with the backend untouched, never
  // reinterpret the cells.
  const size_t kSlots = 5;
  const size_t kDims = 4;
  TempDir dir;
  {
    auto writer = WalWriter::Create(TestWalOptions(dir.path()), 1);
    ASSERT_TRUE(writer.ok());
    std::vector<uint8_t> frame;
    for (uint64_t u = 0; u < 10; ++u) {
      frame.clear();
      AppendMultiDimRunFrame(u, 0, kDims, MultiRunValues(u, kDims, kSlots),
                             frame);
      ASSERT_TRUE(writer->Append(frame).ok());
    }
    ASSERT_TRUE(writer->Seal().ok());
  }
  ShardedCollector backend = MakeCollector();  // dims = 1
  auto durable =
      DurableCollector::Create(&backend, TestDurableOptions(dir.path()));
  ASSERT_FALSE(durable.ok());
  EXPECT_EQ(durable.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(backend.user_count(), 0u);
  EXPECT_EQ(backend.report_count(), 0u);
}

TEST(DurableCollectorTest, RecoveryRefusesFramesPastTheCellIndex) {
  // A CRC-valid frame whose base_slot would wrap (2^64 - 5), demand a
  // ~48 TB slot array (2^40) or truncate in the uint32 cell index (2^32)
  // must make recovery fail loudly -- not crash in the collector, and
  // not be truncated away like a torn tail -- with the backend
  // untouched.
  for (uint64_t bad : {~uint64_t{0} - 4, uint64_t{1} << 40, kWireMaxCells}) {
    SCOPED_TRACE(bad);
    TempDir dir;
    {
      auto writer = WalWriter::Create(TestWalOptions(dir.path()), 1);
      ASSERT_TRUE(writer.ok());
      std::vector<uint8_t> frame;
      for (uint64_t u = 0; u < 3; ++u) {
        frame.clear();
        AppendUserRunFrame(u, u == 1 ? bad : 0, RunValues(u, 4), frame);
        ASSERT_TRUE(writer->Append(frame).ok());
      }
      ASSERT_TRUE(writer->Seal().ok());
    }
    ShardedCollector backend = MakeCollector();
    auto durable =
        DurableCollector::Create(&backend, TestDurableOptions(dir.path()));
    ASSERT_FALSE(durable.ok());
    EXPECT_EQ(durable.status().code(), StatusCode::kOutOfRange)
        << durable.status().ToString();
    EXPECT_EQ(backend.user_count(), 0u);
    EXPECT_EQ(backend.report_count(), 0u);
  }
}

// Writes users [0, users) through a DurableCollector in `dir`, then
// tears its one segment the way a SIGKILL mid-write would: the trailer
// ripped off and `tail` (a frame that never finished) on the end.
void WriteTornLog(const std::string& dir, size_t users, size_t slots,
                  std::span<const uint8_t> tail) {
  {
    ShardedCollector backend = MakeCollector();
    auto durable = DurableCollector::Create(&backend, TestDurableOptions(dir));
    ASSERT_TRUE(durable.ok());
    for (uint64_t u = 0; u < users; ++u) {
      (*durable)->IngestUserRun(u, 0, RunValues(u, slots));
    }
    ASSERT_TRUE((*durable)->Flush().ok());
    // No Seal(): the destructor seals, so tear the file afterwards.
  }
  auto segments = ListWalSegments(dir);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 1u);
  auto bytes = ReadFileBytes((*segments)[0].path);
  ASSERT_TRUE(bytes.ok());
  std::vector<uint8_t> torn(bytes->begin(), bytes->end() - 13);
  torn.insert(torn.end(), tail.begin(), tail.end());
  ASSERT_TRUE(AtomicWriteFile((*segments)[0].path, torn).ok());
}

// Simulated SIGKILL: a torn frame lands after the last durable one.
// Recovery truncates it and replays the durable prefix, the "fleet"
// re-sends every run, and the result matches the no-crash oracle. One
// torn tail is two bytes of a frame; the other a frame cut short in its
// payload whose header reads as a run past the cell index -- still a torn
// write, not a frame for recovery to refuse.
TEST(DurableCollectorTest, TornTailThenResendMatchesOracle) {
  const size_t kUsers = 100;
  const size_t kSlots = 6;
  std::vector<uint8_t> past_index;
  AppendUserRunFrame(kUsers, uint64_t{1} << 40, RunValues(kUsers, kSlots),
                     past_index);
  past_index.resize(past_index.size() - 9);
  for (const std::vector<uint8_t>& tail :
       {std::vector<uint8_t>{0xC5, 0x33}, past_index}) {
    SCOPED_TRACE(tail.size());
    TempDir dir;
    ASSERT_NO_FATAL_FAILURE(WriteTornLog(dir.path(), kUsers / 2, kSlots, tail));
    ShardedCollector recovered = MakeCollector();
    auto durable =
        DurableCollector::Create(&recovered, TestDurableOptions(dir.path()));
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    EXPECT_EQ((*durable)->wal_stats().bytes_discarded, tail.size());
    EXPECT_EQ(recovered.user_count(), kUsers / 2);
    for (uint64_t u = 0; u < kUsers; ++u) {
      (*durable)->IngestUserRun(u, 0, RunValues(u, kSlots));
    }
    ASSERT_TRUE((*durable)->Flush().ok());
    EXPECT_EQ((*durable)->wal_stats().runs_deduped, kUsers / 2);
    EXPECT_EQ(CollectorStateDigest(recovered), OracleDigest(kUsers, kSlots));
  }
}

// Regression: recovery must repair (truncate + seal) a torn final
// segment, because the fresh segment the writer opens above it would
// otherwise turn it into a corrupt *interior* segment and the third
// incarnation would refuse the whole log.
TEST(DurableCollectorTest, RecoverySurvivesBackToBackCrashes) {
  const size_t kSlots = 4;
  TempDir dir;
  const uint8_t tail[] = {0xC5};
  ASSERT_NO_FATAL_FAILURE(WriteTornLog(dir.path(), 30, kSlots, tail));
  // Crash incarnation 2: recovers, appends a few runs, dies unsealed.
  {
    ShardedCollector backend = MakeCollector();
    auto durable =
        DurableCollector::Create(&backend, TestDurableOptions(dir.path()));
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    for (uint64_t u = 30; u < 40; ++u) {
      (*durable)->IngestUserRun(u, 0, RunValues(u, kSlots));
    }
    ASSERT_TRUE((*durable)->Flush().ok());
  }
  // Incarnation 3 must still recover everything.
  ShardedCollector recovered = MakeCollector();
  auto durable =
      DurableCollector::Create(&recovered, TestDurableOptions(dir.path()));
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  EXPECT_EQ(recovered.user_count(), 40u);
  EXPECT_EQ(CollectorStateDigest(recovered), OracleDigest(40, kSlots));
}

TEST(DurableCollectorTest, CorruptInteriorSegmentFailsLoudlyUntouched) {
  const size_t kSlots = 4;
  TempDir dir;
  {
    ShardedCollector backend = MakeCollector();
    DurableCollectorOptions options = TestDurableOptions(dir.path());
    options.wal.segment_max_bytes = 512;  // force several segments
    auto durable = DurableCollector::Create(&backend, options);
    ASSERT_TRUE(durable.ok());
    for (uint64_t u = 0; u < 60; ++u) {
      (*durable)->IngestUserRun(u, 0, RunValues(u, kSlots));
    }
    ASSERT_TRUE((*durable)->Seal().ok());
  }
  auto segments = ListWalSegments(dir.path());
  ASSERT_TRUE(segments.ok());
  ASSERT_GT(segments->size(), 2u);
  {
    // Flip a byte inside an interior (sealed) segment's frames.
    auto bytes = ReadFileBytes((*segments)[1].path);
    ASSERT_TRUE(bytes.ok());
    std::vector<uint8_t> mutated = *bytes;
    mutated[mutated.size() / 2] ^= 0xFF;
    ASSERT_TRUE(AtomicWriteFile((*segments)[1].path, mutated).ok());
  }
  ShardedCollector recovered = MakeCollector();
  auto durable =
      DurableCollector::Create(&recovered, TestDurableOptions(dir.path()));
  ASSERT_FALSE(durable.ok());
  EXPECT_EQ(durable.status().code(), StatusCode::kInternal);
  // Never half-applied: the failed recovery left the backend untouched.
  EXPECT_EQ(recovered.user_count(), 0u);
  EXPECT_EQ(recovered.report_count(), 0u);
}

TEST(DurableCollectorTest, ForeignLogIsRefused) {
  TempDir dir;
  WriteSealedSegment(dir.path(), 10, 3);  // fingerprint kFp
  ShardedCollector recovered = MakeCollector();
  DurableCollectorOptions options = TestDurableOptions(dir.path());
  options.wal.fingerprint = kFp ^ 0xBEEF;  // a different configuration
  auto durable = DurableCollector::Create(&recovered, options);
  ASSERT_FALSE(durable.ok());
  EXPECT_EQ(durable.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(recovered.user_count(), 0u);
}

TEST(DurableCollectorTest, RefusesNonEmptyBackend) {
  TempDir dir;
  ShardedCollector backend = MakeCollector();
  backend.IngestUserRun(1, 0, RunValues(1, 3));
  auto durable =
      DurableCollector::Create(&backend, TestDurableOptions(dir.path()));
  ASSERT_FALSE(durable.ok());
  EXPECT_EQ(durable.status().code(), StatusCode::kFailedPrecondition);
}

// -------------------------------------------------- buffer boundaries ----

// Segments laid out byte by byte, for tests that need a frame at a given
// file offset: where recovery refills its kWalReadBufferBytes buffer. The
// reader starts with the file's first kWalReadBufferBytes bytes and
// refills at the start of the first frame that does not fit whole (it
// moves that frame's bytes to the front and reads on), so while no frame
// is larger than the buffer, each refill boundary lies one buffer length
// past the start of the frame that crossed the previous one.
constexpr size_t kSegmentHeaderBytes = 32;
constexpr size_t kSegmentTrailerBytes = 13;

size_t VarintBytes(uint64_t value) {
  size_t bytes = 1;
  for (; value >= 0x80; value >>= 7) ++bytes;
  return bytes;
}

struct LaidFrame {
  uint64_t user_id = 0;
  uint64_t base_slot = 0;
  size_t count = 0;
  size_t begin = 0;  // file offset of the frame's first byte
  size_t end = 0;    // one past its last byte
};

class SegmentLayout {
 public:
  // File offset of the next frame.
  size_t end() const {
    return frames_.empty() ? kSegmentHeaderBytes : frames_.back().end;
  }
  const std::vector<LaidFrame>& frames() const { return frames_; }

  // Appends a frame of `count` values whose user id is an `id_bytes`-byte
  // varint (distinct per frame).
  const LaidFrame& Add(size_t count, uint64_t base_slot = 0,
                       size_t id_bytes = 2) {
    LaidFrame frame;
    frame.user_id = (uint64_t{1} << (7 * (id_bytes - 1))) + frames_.size();
    frame.base_slot = base_slot;
    frame.count = count;
    frame.begin = end();
    frame.end = frame.begin + 1 + id_bytes + VarintBytes(base_slot) +
                VarintBytes(count) + 8 * count + 4;
    frames_.push_back(frame);
    return frames_.back();
  }

  // Appends one frame exactly `bytes` long (at least 16), picking the
  // user-id and base-slot varint lengths that make the size come out.
  void AddExact(size_t bytes) {
    for (size_t id_bytes = 2; id_bytes <= 8; ++id_bytes) {
      for (uint64_t base_slot : {uint64_t{0}, uint64_t{128}}) {
        for (size_t count_bytes = 1; count_bytes <= 3; ++count_bytes) {
          const size_t fixed =
              1 + id_bytes + VarintBytes(base_slot) + count_bytes + 4;
          if (bytes < fixed || (bytes - fixed) % 8 != 0) continue;
          const size_t count = (bytes - fixed) / 8;
          if (VarintBytes(count) != count_bytes) continue;
          Add(count, base_slot, id_bytes);
          ASSERT_EQ(frames_.back().end - frames_.back().begin, bytes);
          return;
        }
      }
    }
    FAIL() << "no frame shape is " << bytes << " bytes long";
  }

  // Appends mixed-size frames (at most ~20 KB each) while the next frame
  // would start more than `room` bytes before `offset`.
  void FillUntil(size_t offset, size_t room) {
    static constexpr size_t kMixedCounts[] = {1,  700,  17, 2500,
                                              60, 1200, 5,  300};
    while (end() + room < offset) {
      Add(kMixedCounts[frames_.size() % std::size(kMixedCounts)]);
    }
  }

  // Writes the frames as sealed segment 1 under `dir`; returns its path.
  std::string Write(const std::string& dir) const {
    auto writer = WalWriter::Create(TestWalOptions(dir), 1);
    EXPECT_TRUE(writer.ok()) << writer.status().ToString();
    std::vector<uint8_t> bytes;
    for (const LaidFrame& frame : frames_) {
      bytes.clear();
      AppendUserRunFrame(frame.user_id, frame.base_slot,
                         RunValues(frame.user_id, frame.count), bytes);
      EXPECT_TRUE(writer->Append(bytes).ok());
    }
    EXPECT_TRUE(writer->Seal().ok());
    const std::string path = dir + "/wal-00000001.log";
    EXPECT_EQ(std::filesystem::file_size(path),
              end() + kSegmentTrailerBytes);
    return path;
  }

  // Frames whole within the first `len` bytes of the file.
  size_t WholeFrames(size_t len) const {
    size_t whole = 0;
    while (whole < frames_.size() && frames_[whole].end <= len) ++whole;
    return whole;
  }

  // Digest of a collector that ingested the first `frames` frames.
  uint64_t PrefixDigest(size_t frames) const {
    ShardedCollector oracle = MakeCollector();
    for (size_t i = 0; i < frames; ++i) {
      const LaidFrame& frame = frames_[i];
      oracle.IngestUserRun(frame.user_id, frame.base_slot,
                           RunValues(frame.user_id, frame.count));
    }
    return CollectorStateDigest(oracle);
  }

 private:
  std::vector<LaidFrame> frames_;
};

// Scans the segment at `path`, now `len` bytes long, and checks that it
// yields exactly the frames whole within those bytes and that replay
// reproduces each of them.
void ExpectCleanPrefix(const std::string& path, const SegmentLayout& layout,
                       size_t len) {
  SCOPED_TRACE("len=" + std::to_string(len));
  auto scan = ScanWalSegment(path, kFp);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  if (len < kSegmentHeaderBytes) {
    EXPECT_FALSE(scan->header_ok);
    EXPECT_EQ(scan->discarded_bytes, len);
    return;
  }
  ASSERT_TRUE(scan->header_ok);
  const size_t whole = layout.WholeFrames(len);
  const size_t frames_end =
      whole == 0 ? kSegmentHeaderBytes : layout.frames()[whole - 1].end;
  const bool sealed = len == layout.end() + kSegmentTrailerBytes;
  EXPECT_EQ(scan->sealed, sealed);
  ASSERT_EQ(scan->frames, whole);
  EXPECT_EQ(scan->frames_end, frames_end);
  EXPECT_EQ(scan->discarded_bytes,
            len - frames_end - (sealed ? kSegmentTrailerBytes : 0));
  size_t next = 0;
  const Status replayed = ReplayWalSegment(
      *scan, [&](uint64_t user_id, uint64_t base_slot, uint64_t dims,
                 std::span<const double> values) {
        ASSERT_LT(next, whole);
        const LaidFrame& frame = layout.frames()[next++];
        ASSERT_EQ(user_id, frame.user_id);
        ASSERT_EQ(base_slot, frame.base_slot);
        ASSERT_EQ(dims, 1u);
        const std::vector<double> expected =
            RunValues(frame.user_id, frame.count);
        ASSERT_TRUE(std::equal(values.begin(), values.end(),
                               expected.begin(), expected.end()));
      });
  ASSERT_TRUE(replayed.ok()) << replayed.ToString();
  EXPECT_EQ(next, whole);
}

// Cuts the segment at `path` to each length in `lens`, longest first
// (each cut only shortens the file), checking a clean prefix at each.
void ExpectCleanPrefixesAt(const std::string& path,
                           const SegmentLayout& layout,
                           std::vector<size_t> lens) {
  std::sort(lens.rbegin(), lens.rend());
  for (size_t len : lens) {
    ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(len)), 0);
    ASSERT_NO_FATAL_FAILURE(ExpectCleanPrefix(path, layout, len));
  }
}

// A segment over three buffers long whose refills fall inside a header
// varint, a payload and a CRC: a frame straddling a refill is whole, and
// a cut at every byte around each refill still yields a clean prefix.
TEST(WalReadBufferTest, RefillsInsideHeaderPayloadAndCrcKeepCleanPrefixes) {
  constexpr size_t kBuffer = kWalReadBufferBytes;
  enum class Lands { kInHeaderVarint, kInPayload, kInCrc };
  SegmentLayout layout;
  std::vector<size_t> refills;
  std::vector<size_t> straddler_ends;
  size_t refill = kBuffer;
  for (Lands lands : {Lands::kInHeaderVarint, Lands::kInPayload,
                      Lands::kInCrc}) {
    const size_t count = lands == Lands::kInPayload ? 1000 : 500;
    const size_t header = 1 + 2 + 1 + VarintBytes(count);
    size_t into = 2;  // inside the 2-byte user-id varint
    if (lands == Lands::kInPayload) into = header + 3001;
    if (lands == Lands::kInCrc) into = header + 8 * count + 2;
    layout.FillUntil(refill, 40000);
    ASSERT_NO_FATAL_FAILURE(layout.AddExact(refill - into - layout.end()));
    const LaidFrame& straddler = layout.Add(count);
    ASSERT_EQ(straddler.begin + into, refill);
    refills.push_back(refill);
    straddler_ends.push_back(straddler.end);
    refill = straddler.begin + kBuffer;
  }
  layout.FillUntil(3 * kBuffer + 40000, 0);
  ASSERT_GE(layout.end(), 3 * kBuffer);

  TempDir dir;
  const std::string path = layout.Write(dir.path());
  std::vector<size_t> lens = {layout.end() + kSegmentTrailerBytes};
  for (size_t i = 0; i < refills.size(); ++i) {
    for (size_t len = refills[i] - 16; len <= refills[i] + 16; ++len) {
      lens.push_back(len);
    }
    for (size_t len = straddler_ends[i] - 4; len <= straddler_ends[i];
         ++len) {
      lens.push_back(len);
    }
  }
  ExpectCleanPrefixesAt(path, layout, lens);
}

// One frame larger than the buffer (2^18 values, 2 MiB): the buffer grows
// to hold it, it round-trips, and cut short anywhere it is truncated.
TEST(WalReadBufferTest, FrameLargerThanTheBufferRoundTripsAndTruncates) {
  SegmentLayout layout;
  layout.Add(10);
  layout.Add(700);
  const LaidFrame big = layout.Add(size_t{1} << 18);
  ASSERT_GT(big.end - big.begin, kWalReadBufferBytes);
  layout.Add(3);
  layout.Add(1000);

  TempDir dir;
  const std::string path = layout.Write(dir.path());
  ExpectCleanPrefixesAt(
      path, layout,
      {layout.end() + kSegmentTrailerBytes, big.end + 1, big.end,
       big.end - 1, big.end - 4, kWalReadBufferBytes + 1,
       kWalReadBufferBytes, big.begin + 7, big.begin + 1});
}

// The out-of-range frame of RecoveryRefusesFramesPastTheCellIndex, laid
// across a refill: whole, it refuses the log; cut short, it is a torn
// tail like any other.
TEST(WalReadBufferTest, OutOfRangeFrameAcrossARefillIsRefusedUnlessTorn) {
  constexpr size_t kBuffer = kWalReadBufferBytes;
  SegmentLayout layout;
  layout.FillUntil(kBuffer, 40000);
  ASSERT_NO_FATAL_FAILURE(layout.AddExact(kBuffer - 3000 - layout.end()));
  const LaidFrame bad = layout.Add(1000, uint64_t{1} << 40);
  ASSERT_LT(bad.begin, kBuffer);
  ASSERT_GT(bad.end, kBuffer);
  const size_t bad_index = layout.frames().size() - 1;
  layout.Add(20);
  layout.Add(300);

  {
    TempDir dir;
    const std::string path = layout.Write(dir.path());
    auto scan = ScanWalSegment(path, kFp);
    ASSERT_FALSE(scan.ok());
    EXPECT_EQ(scan.status().code(), StatusCode::kOutOfRange);
    ShardedCollector backend = MakeCollector();
    auto durable =
        DurableCollector::Create(&backend, TestDurableOptions(dir.path()));
    ASSERT_FALSE(durable.ok());
    EXPECT_EQ(durable.status().code(), StatusCode::kOutOfRange)
        << durable.status().ToString();
    EXPECT_EQ(backend.user_count(), 0u);
    EXPECT_EQ(backend.report_count(), 0u);
  }
  for (size_t len : {bad.end - 1, kBuffer + 100, kBuffer}) {
    SCOPED_TRACE(len);
    TempDir dir;
    const std::string path = layout.Write(dir.path());
    ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(len)), 0);
    auto scan = ScanWalSegment(path, kFp);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    EXPECT_EQ(scan->frames, bad_index);
    EXPECT_EQ(scan->discarded_bytes, len - bad.begin);
    ShardedCollector recovered = MakeCollector();
    auto durable =
        DurableCollector::Create(&recovered, TestDurableOptions(dir.path()));
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    EXPECT_EQ(recovered.user_count(), bad_index);
    EXPECT_EQ(CollectorStateDigest(recovered),
              layout.PrefixDigest(bad_index));
  }
}

// ------------------------------------------------------- wal mutation ----

// Writes `bytes` to `path` (no fsync: the file only feeds a recovery).
void WriteFileForTest(const std::string& path,
                      std::span<const uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// File offsets of the frames in a sealed segment's bytes.
std::vector<size_t> FrameOffsets(std::span<const uint8_t> segment) {
  std::vector<size_t> offsets;
  size_t offset = kSegmentHeaderBytes;
  while (segment[offset] != 0xA7) {  // the trailer marker
    auto header = PeekUserRunFrame(segment.subspan(offset));
    EXPECT_TRUE(header.ok());
    if (!header.ok()) break;
    offsets.push_back(offset);
    offset += header->frame_bytes;
  }
  return offsets;
}

// Deterministic mutation testing of recovery: a three-segment log, each
// segment longer than the read buffer, takes one mutation at a time --
// a byte flip, a truncation, spliced junk, a count varint claiming
// kWireMaxRunLength - 1 values, or a duplicated frame. Damage to an
// interior segment must refuse the log with the backend untouched;
// damage to the final segment must recover exactly the frames before
// it, with the digest of a collector that never crashed.
TEST(WalMutationTest, MutatedLogRecoversItsPrefixOrRefuses) {
  constexpr int kMutations = 200;
  static constexpr size_t kCounts[] = {1, 700, 17, 2500, 60, 1200, 5, 300};
  TempDir pristine_dir;
  std::vector<size_t> counts;  // user u's run has counts[u] values
  {
    WalOptions options = TestWalOptions(pristine_dir.path());
    // Two full segments, then a final one of just over a buffer.
    options.segment_max_bytes = kWalReadBufferBytes + kWalReadBufferBytes / 8;
    const size_t log_bytes = 3 * options.segment_max_bytes;
    auto writer = WalWriter::Create(options, 1);
    ASSERT_TRUE(writer.ok());
    std::vector<uint8_t> frame;
    while (writer->stats().bytes_appended < log_bytes) {
      const uint64_t user = counts.size();
      counts.push_back(kCounts[user % std::size(kCounts)]);
      frame.clear();
      AppendUserRunFrame(user, 0, RunValues(user, counts.back()), frame);
      ASSERT_TRUE(writer->Append(frame).ok());
    }
    ASSERT_TRUE(writer->Seal().ok());
  }
  auto listed = ListWalSegments(pristine_dir.path());
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 3u);
  std::vector<std::vector<uint8_t>> segments;
  std::vector<std::vector<size_t>> offsets;
  for (const WalSegmentScan& segment : *listed) {
    auto bytes = ReadFileBytes(segment.path);
    ASSERT_TRUE(bytes.ok());
    ASSERT_GT(bytes->size(), kWalReadBufferBytes);
    offsets.push_back(FrameOffsets(*bytes));
    segments.push_back(std::move(*bytes));
  }
  const size_t interior_frames = offsets[0].size() + offsets[1].size();
  ASSERT_EQ(interior_frames + offsets[2].size(), counts.size());

  std::map<size_t, uint64_t> oracle;  // frames -> digest of that prefix
  auto prefix_digest = [&](size_t frames) {
    auto [it, inserted] = oracle.try_emplace(frames, 0);
    if (inserted) {
      ShardedCollector collector = MakeCollector();
      for (uint64_t u = 0; u < frames; ++u) {
        collector.IngestUserRun(u, 0, RunValues(u, counts[u]));
      }
      it->second = CollectorStateDigest(collector);
    }
    return it->second;
  };

  Rng rng(0x5EC7);
  int refused = 0;
  for (int trial = 0; trial < kMutations; ++trial) {
    // Half the mutations hit the final segment.
    const size_t target = std::min<size_t>(rng.UniformInt(4), 2);
    std::vector<uint8_t> bytes = segments[target];
    const std::vector<size_t>& frames = offsets[target];
    const size_t frame = rng.UniformInt(frames.size());
    // Damage at byte `at` costs the frames that do not end before it.
    size_t at = 0;
    std::string what;
    switch (rng.UniformInt(5)) {
      case 0:
        at = rng.UniformInt(bytes.size());
        bytes[at] ^= static_cast<uint8_t>(1 + rng.UniformInt(255));
        what = "flip";
        break;
      case 1:
        at = rng.UniformInt(bytes.size());
        bytes.resize(at);
        what = "truncate";
        break;
      case 2: {
        at = rng.UniformInt(bytes.size() + 1);
        std::vector<uint8_t> junk(1 + rng.UniformInt(64));
        for (uint8_t& b : junk) b = static_cast<uint8_t>(rng.NextUint64());
        bytes.insert(bytes.begin() + at, junk.begin(), junk.end());
        what = "junk";
        break;
      }
      case 3: {
        // 0xC5 | user_id | base_slot | count: rewrite the count varint.
        at = frames[frame];
        uint64_t skip = 0;
        size_t count_at = at + 1;
        count_at += DecodeVarint(std::span(bytes).subspan(count_at), &skip);
        count_at += DecodeVarint(std::span(bytes).subspan(count_at), &skip);
        const size_t count_bytes =
            DecodeVarint(std::span(bytes).subspan(count_at), &skip);
        std::vector<uint8_t> huge;
        AppendVarint(kWireMaxRunLength - 1, huge);
        bytes.erase(bytes.begin() + count_at,
                    bytes.begin() + count_at + count_bytes);
        bytes.insert(bytes.begin() + count_at, huge.begin(), huge.end());
        what = "count";
        break;
      }
      default: {
        const size_t end =
            frame + 1 < frames.size() ? frames[frame + 1]
                                      : bytes.size() - kSegmentTrailerBytes;
        const std::vector<uint8_t> copy(bytes.begin() + frames[frame],
                                        bytes.begin() + end);
        bytes.insert(bytes.begin() + end, copy.begin(), copy.end());
        at = bytes.size();  // no frame is lost; the trailer's count lies
        what = "duplicate";
        break;
      }
    }
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + what +
                 " in segment " + std::to_string(target) + " at byte " +
                 std::to_string(at));

    TempDir dir;
    for (size_t s = 0; s < segments.size(); ++s) {
      const std::string path =
          dir.path() + "/" + std::filesystem::path((*listed)[s].path)
                                 .filename()
                                 .string();
      ASSERT_NO_FATAL_FAILURE(
          WriteFileForTest(path, s == target ? bytes : segments[s]));
    }
    ShardedCollector recovered = MakeCollector();
    auto durable =
        DurableCollector::Create(&recovered, TestDurableOptions(dir.path()));
    if (target < 2) {
      ASSERT_FALSE(durable.ok());
      EXPECT_EQ(durable.status().code(), StatusCode::kInternal)
          << durable.status().ToString();
      EXPECT_EQ(recovered.user_count(), 0u);
      EXPECT_EQ(recovered.report_count(), 0u);
      ++refused;
      continue;
    }
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    size_t survivors = interior_frames;
    for (size_t f = 0; f < frames.size(); ++f) {
      const size_t frame_end = f + 1 < frames.size()
                                   ? frames[f + 1]
                                   : segments[2].size() - kSegmentTrailerBytes;
      if (frame_end <= at) ++survivors;
    }
    EXPECT_EQ(recovered.user_count(), survivors);
    EXPECT_EQ((*durable)->wal_stats().frames_replayed, survivors);
    EXPECT_EQ((*durable)->wal_stats().runs_deduped,
              what == "duplicate" ? 1u : 0u);
    EXPECT_EQ(CollectorStateDigest(recovered), prefix_digest(survivors));
  }
  // Both outcomes were exercised.
  EXPECT_GT(refused, kMutations / 4);
  EXPECT_LT(refused, 3 * kMutations / 4);
}

// Recovery publishes its WalStats summary to the metrics registry.
TEST(DurableCollectorTest, TornTailRecoveryMovesTheRecoveryCounters) {
  const telemetry::TelemetryConfig saved = telemetry::CurrentConfig();
  telemetry::TelemetryConfig on;
  on.enabled = true;
  telemetry::Configure(on);
  const size_t kUsers = 40;
  const uint8_t tail[] = {0xC5, 0x33, 0x01};
  TempDir dir;
  ASSERT_NO_FATAL_FAILURE(WriteTornLog(dir.path(), kUsers, 4, tail));
  namespace metrics = telemetry::metrics;
  const uint64_t segments = metrics::WalRecoverySegmentsTotal().Value();
  const uint64_t frames = metrics::WalRecoveryFramesTotal().Value();
  const uint64_t discarded =
      metrics::WalRecoveryBytesDiscardedTotal().Value();
  const uint64_t deduped = metrics::WalRunsDedupedTotal().Value();
  {
    ShardedCollector recovered = MakeCollector();
    auto durable =
        DurableCollector::Create(&recovered, TestDurableOptions(dir.path()));
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    EXPECT_EQ(metrics::WalRecoverySegmentsTotal().Value() - segments, 1u);
    EXPECT_EQ(metrics::WalRecoveryFramesTotal().Value() - frames, kUsers);
    EXPECT_EQ(metrics::WalRecoveryBytesDiscardedTotal().Value() - discarded,
              sizeof(tail));
    (*durable)->IngestUserRun(0, 0, RunValues(0, 4));  // a resent run
    EXPECT_EQ(metrics::WalRunsDedupedTotal().Value() - deduped, 1u);
    const WalStats stats = (*durable)->wal_stats();
    EXPECT_EQ(stats.frames_replayed, kUsers);
    EXPECT_EQ(stats.bytes_discarded, sizeof(tail));
    EXPECT_EQ(stats.runs_deduped, 1u);
  }
  telemetry::Configure(saved);
}

// ------------------------------------------------------------ log thread --

// The one segment under `dir`, scanned now.
WalSegmentScan ScanOnlySegment(const std::string& dir) {
  auto segments = ListWalSegments(dir);
  EXPECT_TRUE(segments.ok());
  EXPECT_EQ(segments->size(), 1u);
  auto scan = ScanWalSegment(segments->front().path, kFp);
  EXPECT_TRUE(scan.ok()) << scan.status().ToString();
  return *scan;
}

// kTimed bounds the time between fdatasyncs even when ingest stops: with
// no further run, Flush or Seal, an idle log still syncs its tail.
TEST(DurableLogThreadTest, TimedPolicySyncsAnIdleLog) {
  TempDir dir;
  ShardedCollector backend = MakeCollector();
  DurableCollectorOptions options = TestDurableOptions(dir.path());
  options.wal.fsync_policy = WalFsyncPolicy::kTimed;
  options.wal.fsync_interval_ms = 20;
  auto durable = DurableCollector::Create(&backend, options);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  (*durable)->IngestUserRun(7, 0, RunValues(7, 6));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_GE((*durable)->wal_stats().fsyncs, 1u);
  const WalSegmentScan scan = ScanOnlySegment(dir.path());
  EXPECT_TRUE(scan.header_ok);
  EXPECT_EQ(scan.frames, 1u);
}

// Four ingest threads against one thread that keeps flushing, reading
// stats and checkpointing: every run is logged or deduped exactly once,
// and the log recovers to the live state.
TEST(DurableLogThreadTest, ConcurrentIngestFlushAndCheckpointRecover) {
  constexpr int kThreads = 4;
  constexpr uint64_t kUsersPerThread = 4000;
  constexpr uint64_t kResentPerThread = 1000;
  constexpr size_t kSlots = 8;
  TempDir dir;
  uint64_t live_digest = 0;
  {
    ShardedCollector backend = MakeCollector();
    auto durable = DurableCollector::Create(
        &backend, TestDurableOptions(dir.path(), /*checkpoint_every=*/3000));
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    DurableCollector* const log = durable->get();
    std::atomic<bool> done{false};
    std::thread control([&] {
      while (!done.load(std::memory_order_relaxed)) {
        EXPECT_TRUE(log->Flush().ok());
        (void)log->wal_stats();
        EXPECT_TRUE(log->Checkpoint().ok());
      }
    });
    std::vector<std::thread> ingest;
    for (int t = 0; t < kThreads; ++t) {
      ingest.emplace_back([&, t] {
        const uint64_t first = static_cast<uint64_t>(t) * kUsersPerThread;
        for (uint64_t u = first; u < first + kUsersPerThread; ++u) {
          log->IngestUserRun(u, 0, RunValues(u, kSlots));
        }
        // Resends of runs this thread already ingested: dedup drops them.
        for (uint64_t u = first; u < first + kResentPerThread; ++u) {
          log->IngestUserRun(u, 0, RunValues(u, kSlots));
        }
      });
    }
    for (std::thread& thread : ingest) thread.join();
    done.store(true, std::memory_order_relaxed);
    control.join();
    ASSERT_TRUE(log->Flush().ok());
    const WalStats stats = log->wal_stats();
    EXPECT_EQ(stats.frames_appended + stats.runs_deduped,
              kThreads * (kUsersPerThread + kResentPerThread));
    EXPECT_EQ(stats.runs_deduped, kThreads * kResentPerThread);
    EXPECT_GE(stats.checkpoints, 1u);
    live_digest = CollectorStateDigest(backend);
    EXPECT_EQ(live_digest, OracleDigest(kThreads * kUsersPerThread, kSlots));
    ASSERT_TRUE(log->Seal().ok());
  }
  ShardedCollector recovered = MakeCollector();
  auto durable = DurableCollector::Create(
      &recovered, TestDurableOptions(dir.path(), /*checkpoint_every=*/3000));
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  EXPECT_EQ(CollectorStateDigest(recovered), live_digest);
}

// kPerRun keeps durable-before-visible: once IngestUserRun returns, its
// frame is on disk for any reader.
TEST(DurableLogThreadTest, PerRunIngestReturnsOnlyOnceItsFrameIsOnDisk) {
  TempDir dir;
  ShardedCollector backend = MakeCollector();
  DurableCollectorOptions options = TestDurableOptions(dir.path());
  options.wal.fsync_policy = WalFsyncPolicy::kPerRun;
  auto durable = DurableCollector::Create(&backend, options);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  for (uint64_t u = 0; u < 20; ++u) {
    (*durable)->IngestUserRun(u, 0, RunValues(u, 5));
    EXPECT_EQ(ScanOnlySegment(dir.path()).frames, u + 1);
  }
  EXPECT_EQ((*durable)->wal_stats().fsyncs, 20u);
}

TEST(DurableLogThreadTest, IngestAfterSealLatchesFailedPrecondition) {
  TempDir dir;
  ShardedCollector backend = MakeCollector();
  auto durable =
      DurableCollector::Create(&backend, TestDurableOptions(dir.path()));
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  (*durable)->IngestUserRun(1, 0, RunValues(1, 4));
  ASSERT_TRUE((*durable)->Seal().ok());
  (*durable)->IngestUserRun(2, 0, RunValues(2, 4));
  EXPECT_EQ((*durable)->CheckHealthy().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*durable)->Flush().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*durable)->Seal().code(), StatusCode::kFailedPrecondition);
  // The sealed log holds the one run ingested before Seal, nothing after.
  const WalSegmentScan scan = ScanOnlySegment(dir.path());
  EXPECT_TRUE(scan.sealed);
  EXPECT_EQ(scan.frames, 1u);
}

// A write error raised on the log thread -- here the next rotation's
// open() after the directory vanished -- surfaces from Flush.
TEST(DurableLogThreadTest, LogThreadWriteErrorSurfacesFromFlush) {
  TempDir dir;
  ShardedCollector backend = MakeCollector();
  DurableCollectorOptions options = TestDurableOptions(dir.path());
  options.wal.segment_max_bytes = 512;
  auto durable = DurableCollector::Create(&backend, options);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  for (uint64_t u = 0; u < 10; ++u) {
    (*durable)->IngestUserRun(u, 0, RunValues(u, 4));
  }
  ASSERT_TRUE((*durable)->Flush().ok());
  std::filesystem::remove_all(dir.path());
  // ~45-byte frames: a rotation within the next dozen runs.
  for (uint64_t u = 10; u < 60; ++u) {
    (*durable)->IngestUserRun(u, 0, RunValues(u, 4));
  }
  const Status flushed = (*durable)->Flush();
  EXPECT_EQ(flushed.code(), StatusCode::kInternal) << flushed.ToString();
  EXPECT_EQ((*durable)->CheckHealthy().code(), StatusCode::kInternal);
}

// ------------------------------------------------------ fleet integration --

EngineConfig SmallFleetConfig() {
  EngineConfig config;
  config.num_users = 2000;
  config.num_slots = 12;
  config.num_threads = 2;
  config.chunk_size = 256;
  return config;
}

TEST(DurableFleetTest, WalOnMatchesWalOffBitForBit) {
  EngineConfig off_config = SmallFleetConfig();
  auto off = Fleet::Create(off_config);
  ASSERT_TRUE(off.ok());
  auto off_stats = off->Run();
  ASSERT_TRUE(off_stats.ok()) << off_stats.status().ToString();

  TempDir dir;
  EngineConfig on_config = SmallFleetConfig();
  on_config.durability.dir = dir.path();
  on_config.durability.fsync_policy = WalFsyncPolicy::kPerFrames;
  on_config.durability.fsync_every_frames = 256;
  auto on = Fleet::Create(on_config);
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  auto on_stats = on->Run();
  ASSERT_TRUE(on_stats.ok()) << on_stats.status().ToString();

  EXPECT_EQ(on_stats->stream_digest, off_stats->stream_digest);
  EXPECT_EQ(CollectorStateDigest(on->backend()),
            CollectorStateDigest(off->backend()));
  EXPECT_EQ(on_stats->wal.frames_appended, on_config.num_users);
  EXPECT_EQ(off_stats->wal.frames_appended, 0u);
}

TEST(DurableFleetTest, ResumedFleetRecoversAndDedups) {
  TempDir dir;
  EngineConfig config = SmallFleetConfig();
  config.durability.dir = dir.path();
  config.durability.checkpoint_every_runs = 512;
  uint64_t oracle_digest = 0;
  {
    auto fleet = Fleet::Create(config);
    ASSERT_TRUE(fleet.ok());
    auto stats = fleet->Run();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_GE(stats->wal.checkpoints, 1u);
    oracle_digest = CollectorStateDigest(fleet->backend());
  }
  // Same config, same directory: Create recovers the whole population,
  // Run re-sends it, dedup drops every resend, digest is unchanged.
  auto resumed = Fleet::Create(config);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->collector().user_count(), config.num_users);
  auto stats = resumed->Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->wal.runs_deduped, config.num_users);
  EXPECT_EQ(CollectorStateDigest(resumed->backend()), oracle_digest);
}

// Multi-threaded ingest through the framed queue transport with the WAL
// tee in the middle -- the TSan configuration for the durable tier.
TEST(DurableFleetTest, QueueFramedTransportWithWalStaysBitIdentical) {
  EngineConfig off_config = SmallFleetConfig();
  auto off = Fleet::Create(off_config);
  ASSERT_TRUE(off.ok());
  auto off_stats = off->Run();
  ASSERT_TRUE(off_stats.ok());

  TempDir dir;
  EngineConfig config = SmallFleetConfig();
  config.transport.kind = TransportKind::kQueueFramed;
  config.transport.num_consumers = 3;
  config.durability.dir = dir.path();
  config.durability.checkpoint_every_runs = 777;
  auto fleet = Fleet::Create(config);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  auto stats = fleet->Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->stream_digest, off_stats->stream_digest);
  EXPECT_EQ(CollectorStateDigest(fleet->backend()),
            CollectorStateDigest(off->backend()));
}

TEST(DurableFleetTest, ExternalSocketWalConfigIsRejected) {
  EngineConfig config = SmallFleetConfig();
  config.transport.kind = TransportKind::kSocket;
  config.transport.socket_path = "/tmp/nonexistent.sock";
  config.durability.dir = "/tmp/never-created-wal";
  EXPECT_EQ(ValidateEngineConfig(config).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace capp
