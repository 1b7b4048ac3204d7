// Tests for the durable collector tier (src/storage/): WAL segment
// round-trips, truncation at every byte boundary, bit-flip fuzzing over
// header/frames/trailer, fingerprint (duplicate/foreign-log) detection,
// checkpoint round-trips, the headline recovery invariant -- replay
// after a simulated crash reproduces the collector's aggregate state
// bit-identically (pure-WAL and checkpoint+WAL both), or fails loudly
// with the backend untouched; never a half-applied log -- and the
// DurableCollector's log thread: idle kTimed syncs, kPerRun visibility,
// ingest after Seal, log-thread write errors, and a concurrent hammer.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine_config.h"
#include "engine/fleet.h"
#include "engine/sharded_collector.h"
#include "storage/checkpoint.h"
#include "storage/collector_backend.h"
#include "storage/durable_collector.h"
#include "storage/storage_io.h"
#include "storage/wal.h"
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

ShardedCollector MakeCollector(bool keep_streams = false) {
  ShardedCollectorOptions options;
  options.num_shards = 4;
  options.keep_streams = keep_streams;
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

TEST(CheckpointTest, ExportRefusedInKeepStreamsMode) {
  ShardedCollector collector = MakeCollector(/*keep_streams=*/true);
  EXPECT_EQ(collector.ExportShardState(0).status().code(),
            StatusCode::kFailedPrecondition);
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
    options.keep_streams = false;
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
    options.keep_streams = false;
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

TEST(DurableCollectorTest, CheckpointingRequiresSnapshotSupport) {
  TempDir dir;
  ShardedCollector backend = MakeCollector(/*keep_streams=*/true);
  auto durable = DurableCollector::Create(
      &backend, TestDurableOptions(dir.path(), /*checkpoint_every=*/10));
  ASSERT_FALSE(durable.ok());
  EXPECT_EQ(durable.status().code(), StatusCode::kFailedPrecondition);
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
  config.keep_streams = false;
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
