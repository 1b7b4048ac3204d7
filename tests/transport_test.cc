// Tests for the async report transport: varint/CRC wire codec round-trips
// and corruption rejection (including non-canonical overlong varints),
// the bounded MPSC queue's backpressure and shutdown, the socket stream
// path (unix and TCP) with fault injection -- handshake refusals, raw
// corruption, connection kills with reconnect-and-resume -- and the
// headline determinism contract: fleet digests and collector aggregates
// bit-identical across kDirect/kQueueFramed/kSocket, every producer x
// consumer thread mix, and mutex or owned-shard ingest.
#include <csignal>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "engine/engine_config.h"
#include "engine/fleet.h"
#include "engine/sharded_collector.h"
#include "transport/handshake.h"
#include "transport/mpsc_queue.h"
#include "transport/socket_transport.h"
#include "transport/tcp_transport.h"
#include "transport/transport.h"
#include "transport/transport_hub.h"
#include "transport/wire_format.h"

namespace capp {
namespace {

// --------------------------------------------------------------- varint ----

TEST(VarintTest, RoundTripsBoundaryValues) {
  const uint64_t cases[] = {0,
                            1,
                            127,
                            128,
                            129,
                            16383,
                            16384,
                            (1ULL << 32) - 1,
                            1ULL << 32,
                            (1ULL << 63),
                            std::numeric_limits<uint64_t>::max()};
  for (uint64_t value : cases) {
    SCOPED_TRACE(value);
    std::vector<uint8_t> bytes;
    AppendVarint(value, bytes);
    EXPECT_LE(bytes.size(), 10u);
    uint64_t decoded = 0;
    EXPECT_EQ(DecodeVarint(bytes, &decoded), bytes.size());
    EXPECT_EQ(decoded, value);
  }
}

TEST(VarintTest, RejectsTruncationAndOverflow) {
  std::vector<uint8_t> bytes;
  AppendVarint(std::numeric_limits<uint64_t>::max(), bytes);
  uint64_t decoded = 0;
  // Every strict prefix still has the continuation bit set.
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_EQ(DecodeVarint(std::span(bytes).subspan(0, len), &decoded), 0u)
        << len;
  }
  // An 11-byte encoding (or a 10th byte carrying more than 1 bit) is
  // invalid no matter what follows.
  const std::vector<uint8_t> overlong(11, 0x80);
  EXPECT_EQ(DecodeVarint(overlong, &decoded), 0u);
  std::vector<uint8_t> overflow(9, 0x80);
  overflow.push_back(0x02);  // bit 64
  EXPECT_EQ(DecodeVarint(overflow, &decoded), 0u);
}

TEST(VarintTest, RejectsOverlongEncodings) {
  // The minimal-length rule: a multi-byte varint must not end in a zero
  // group. 0x80 0x00 "decodes" to the same 0 as the canonical single
  // byte, so accepting it would give values two wire representations.
  uint64_t decoded = 99;
  const std::vector<std::vector<uint8_t>> overlong = {
      {0x80, 0x00},              // 0 in two bytes
      {0x81, 0x00},              // 1 in two bytes
      {0xFF, 0x00},              // 127 in two bytes
      {0x80, 0x80, 0x00},        // 0 in three bytes
      {0xAC, 0x82, 0x80, 0x00},  // a mid-size value padded with zeros
  };
  for (const auto& bytes : overlong) {
    SCOPED_TRACE(testing::Message() << bytes.size() << " bytes");
    EXPECT_EQ(DecodeVarint(bytes, &decoded), 0u);
  }
  // The canonical encodings of the same values still decode.
  EXPECT_EQ(DecodeVarint(std::vector<uint8_t>{0x00}, &decoded), 1u);
  EXPECT_EQ(decoded, 0u);
  EXPECT_EQ(DecodeVarint(std::vector<uint8_t>{0x7F}, &decoded), 1u);
  EXPECT_EQ(decoded, 127u);
}

// ---------------------------------------------------------------- crc32 ----

TEST(Crc32Test, MatchesKnownVector) {
  // The classic check value: CRC32("123456789") = 0xCBF43926.
  const uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(digits), 0xCBF43926u);
  EXPECT_EQ(Crc32({}), 0x00000000u);
}

// ----------------------------------------------------------- wire frames ----

TEST(WireFormatTest, RoundTripsArbitraryRuns) {
  Rng rng(11);
  std::vector<uint8_t> bytes;
  for (int trial = 0; trial < 50; ++trial) {
    SCOPED_TRACE(trial);
    const uint64_t user = rng.NextUint64();
    const uint64_t base_slot = rng.UniformInt(1000);
    std::vector<double> values;
    const size_t n = rng.UniformInt(40);  // includes empty runs
    for (size_t i = 0; i < n; ++i) {
      values.push_back(rng.Uniform(-1e6, 1e6));
    }
    bytes.clear();
    AppendUserRunFrame(user, base_slot, values, bytes);

    uint64_t decoded_user = 0;
    uint64_t decoded_base = 0;
    std::vector<double> decoded;
    auto used = DecodeUserRunFrame(bytes, &decoded_user, &decoded_base,
                                   decoded);
    ASSERT_TRUE(used.ok()) << used.status().ToString();
    EXPECT_EQ(*used, bytes.size());
    EXPECT_EQ(decoded_user, user);
    EXPECT_EQ(decoded_base, base_slot);
    ASSERT_EQ(decoded.size(), values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(decoded[i]),
                std::bit_cast<uint64_t>(values[i]))
          << i;
    }
  }
}

TEST(WireFormatTest, RoundTripsNonFinitePayloads) {
  // The codec is bit-transparent; filtering non-finite values is the
  // collector's job, not the wire's.
  const std::vector<double> values = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(), -0.0};
  std::vector<uint8_t> bytes;
  AppendUserRunFrame(7, 0, values, bytes);
  uint64_t user = 0;
  uint64_t base = 0;
  std::vector<double> decoded;
  ASSERT_TRUE(DecodeUserRunFrame(bytes, &user, &base, decoded).ok());
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_TRUE(std::isnan(decoded[0]));
  EXPECT_TRUE(std::isinf(decoded[1]));
  EXPECT_EQ(std::bit_cast<uint64_t>(decoded[2]),
            std::bit_cast<uint64_t>(-0.0));
}

TEST(WireFormatTest, ConcatenatedFramesDecodeSequentially) {
  std::vector<uint8_t> bytes;
  const std::vector<double> run_a = {0.1, 0.2, 0.3};
  const std::vector<double> run_b = {0.9};
  AppendUserRunFrame(1, 0, run_a, bytes);
  AppendUserRunFrame(2, 5, run_b, bytes);

  uint64_t user = 0;
  uint64_t base = 0;
  std::vector<double> decoded;
  auto first = DecodeUserRunFrame(bytes, &user, &base, decoded);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(user, 1u);
  EXPECT_EQ(decoded, run_a);
  auto second = DecodeUserRunFrame(std::span(bytes).subspan(*first), &user,
                                   &base, decoded);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(user, 2u);
  EXPECT_EQ(base, 5u);
  EXPECT_EQ(decoded, run_b);
  EXPECT_EQ(*first + *second, bytes.size());
}

TEST(WireFormatTest, RejectsEveryTruncation) {
  std::vector<uint8_t> bytes;
  const std::vector<double> run = {0.25, -0.5, 1.75};
  AppendUserRunFrame(123456789, 42, run, bytes);
  uint64_t user = 0;
  uint64_t base = 0;
  std::vector<double> decoded;
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(
        DecodeUserRunFrame(std::span(bytes).subspan(0, len), &user, &base,
                           decoded)
            .ok())
        << "prefix length " << len;
  }
}

TEST(WireFormatTest, RejectsEverySingleByteCorruption) {
  std::vector<uint8_t> bytes;
  const std::vector<double> run = {0.5, 0.125, -2.0, 0.75};
  AppendUserRunFrame(99, 3, run, bytes);
  uint64_t user = 0;
  uint64_t base = 0;
  std::vector<double> decoded;
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (uint8_t flip : {uint8_t{0x01}, uint8_t{0x80}}) {
      std::vector<uint8_t> corrupted = bytes;
      corrupted[i] ^= flip;
      EXPECT_FALSE(
          DecodeUserRunFrame(corrupted, &user, &base, decoded).ok())
          << "byte " << i << " flip " << int{flip};
    }
  }
}

TEST(WireFormatTest, RejectsAbsurdRunLength) {
  // Hand-build a frame whose count varint claims 2^30 values.
  std::vector<uint8_t> bytes;
  bytes.push_back(kWireFrameMagic);
  AppendVarint(1, bytes);          // user_id
  AppendVarint(0, bytes);          // base_slot
  AppendVarint(1ULL << 30, bytes); // count: over the cap
  const uint32_t crc = Crc32(bytes);
  for (int b = 0; b < 4; ++b) {
    bytes.push_back(static_cast<uint8_t>(crc >> (8 * b)));
  }
  uint64_t user = 0;
  uint64_t base = 0;
  std::vector<double> decoded;
  EXPECT_FALSE(DecodeUserRunFrame(bytes, &user, &base, decoded).ok());
}

TEST(WireFormatTest, RejectsOverlongVarintInEveryField) {
  // Hand-build frames where exactly one header varint is overlong but the
  // CRC is correct, so only the canonicality rule can reject them. The
  // documented "overlong-varint rejected" guarantee must hold per field.
  const uint64_t field_values[3] = {5, 7, 2};  // user_id, base_slot, count
  const std::vector<double> payload = {0.25, -0.5};
  for (int overlong_field = 0; overlong_field < 3; ++overlong_field) {
    SCOPED_TRACE(overlong_field);
    std::vector<uint8_t> bytes;
    bytes.push_back(kWireFrameMagic);
    for (int field = 0; field < 3; ++field) {
      if (field == overlong_field) {
        // value | 0x80 continuation, then a zero final group.
        bytes.push_back(static_cast<uint8_t>(field_values[field]) | 0x80);
        bytes.push_back(0x00);
      } else {
        AppendVarint(field_values[field], bytes);
      }
    }
    for (double v : payload) {
      const uint64_t word = std::bit_cast<uint64_t>(v);
      for (int b = 0; b < 8; ++b) {
        bytes.push_back(static_cast<uint8_t>(word >> (8 * b)));
      }
    }
    const uint32_t crc = Crc32(bytes);
    for (int b = 0; b < 4; ++b) {
      bytes.push_back(static_cast<uint8_t>(crc >> (8 * b)));
    }
    uint64_t user = 0;
    uint64_t base = 0;
    std::vector<double> decoded;
    EXPECT_FALSE(DecodeUserRunFrame(bytes, &user, &base, decoded).ok());
    EXPECT_FALSE(PeekUserRunFrame(bytes).ok());
  }
}

TEST(WireFormatTest, PeekParsesHeaderWithoutTouchingPayload) {
  std::vector<uint8_t> bytes;
  const std::vector<double> run = {0.5, 0.25, -1.0};
  AppendUserRunFrame(123456789, 42, run, bytes);
  AppendUserRunFrame(7, 0, {}, bytes);

  auto first = PeekUserRunFrame(bytes);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->user_id, 123456789u);
  EXPECT_EQ(first->base_slot, 42u);
  EXPECT_EQ(first->count, run.size());
  // Peek skips the CRC, so a payload flip is invisible to it (the
  // consumer-side decode still catches it).
  std::vector<uint8_t> corrupted = bytes;
  corrupted[first->frame_bytes - 6] ^= 0x10;  // payload byte
  EXPECT_TRUE(PeekUserRunFrame(corrupted).ok());

  auto second =
      PeekUserRunFrame(std::span(bytes).subspan(first->frame_bytes));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->user_id, 7u);
  EXPECT_EQ(second->count, 0u);
  EXPECT_EQ(first->frame_bytes + second->frame_bytes, bytes.size());

  // A frame whose implied length runs past the buffer is rejected.
  EXPECT_FALSE(
      PeekUserRunFrame(std::span(bytes).subspan(0, first->frame_bytes - 1))
          .ok());
}

TEST(WireFormatTest, FrameLengthNeedsOnlyTheHeader) {
  // Both frame kinds, with 10-byte user-id and base-slot varints.
  const std::vector<double> run(6, 0.5);
  for (const uint64_t dims : {uint64_t{1}, uint64_t{2}}) {
    SCOPED_TRACE(dims);
    std::vector<uint8_t> bytes;
    AppendMultiDimRunFrame(~uint64_t{0}, ~uint64_t{0}, dims, run, bytes);
    const size_t header = bytes.size() - run.size() * 8 - 4;
    EXPECT_LE(header, kWireMaxFrameHeaderBytes);
    // The header alone is enough; a header cut short is not.
    auto length = UserRunFrameLength(std::span(bytes).first(header));
    ASSERT_TRUE(length.ok()) << length.status().ToString();
    EXPECT_EQ(*length, bytes.size());
    EXPECT_FALSE(UserRunFrameLength(std::span(bytes).first(header - 1)).ok());
  }
  // A huge count is a length, not an allocation: the caller decides
  // whether the bytes it claims exist.
  std::vector<uint8_t> huge = {kWireFrameMagic, 0x01, 0x00};
  AppendVarint(kWireMaxRunLength, huge);
  auto length = UserRunFrameLength(huge);
  ASSERT_TRUE(length.ok());
  EXPECT_EQ(*length, huge.size() + kWireMaxRunLength * 8 + 4);
  huge[0] = 0x00;
  EXPECT_FALSE(UserRunFrameLength(huge).ok());
}

// ------------------------------------------------- multi-dim wire frames ----

// Hand-builds a frame byte by byte with a correct CRC: the reference the
// bulk-copy encoder is pinned against. `dims` is written only on 0xC6.
std::vector<uint8_t> BuildRawFrame(uint8_t magic, uint64_t user_id,
                                   uint64_t base_slot, uint64_t dims,
                                   std::span<const double> payload) {
  std::vector<uint8_t> bytes;
  bytes.push_back(magic);
  AppendVarint(user_id, bytes);
  AppendVarint(base_slot, bytes);
  if (magic == kWireFrameMagicMultiDim) AppendVarint(dims, bytes);
  AppendVarint(payload.size(), bytes);
  for (double v : payload) {
    const uint64_t word = std::bit_cast<uint64_t>(v);
    for (int b = 0; b < 8; ++b) {
      bytes.push_back(static_cast<uint8_t>(word >> (8 * b)));
    }
  }
  const uint32_t crc = Crc32(bytes);
  for (int b = 0; b < 4; ++b) {
    bytes.push_back(static_cast<uint8_t>(crc >> (8 * b)));
  }
  return bytes;
}

// A 0xC6 frame with arbitrary header values (so tests can exercise
// combinations AppendMultiDimRunFrame refuses to emit), leaving only the
// decoder's validation rules to reject it.
std::vector<uint8_t> BuildRawMultiDimFrame(uint64_t user_id,
                                           uint64_t base_slot, uint64_t dims,
                                           std::span<const double> payload) {
  return BuildRawFrame(kWireFrameMagicMultiDim, user_id, base_slot, dims,
                       payload);
}

TEST(WireFormatTest, BulkEncoderMatchesBytewiseReference) {
  // Payload bits the copy must carry untouched: signed zero, NaNs with
  // payload bits (quiet and signaling, both signs), subnormals, +-inf.
  const std::vector<double> values = {
      -0.0,
      std::bit_cast<double>(uint64_t{0x7FF8DEADBEEF0001}),
      std::bit_cast<double>(uint64_t{0xFFF0000000000001}),
      std::numeric_limits<double>::denorm_min(),
      std::bit_cast<double>(uint64_t{0x800FFFFFFFFFFFFF}),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      0.5,
      -1e300,
      std::bit_cast<double>(uint64_t{0x000FFFFFFFFFFFFF}),
      1.0,
      0.0};
  const std::vector<uint8_t> prefix = {0xAB, 0xCD, 0xEF};
  for (const uint64_t dims : {uint64_t{1}, uint64_t{2}, uint64_t{3},
                              uint64_t{4}}) {
    SCOPED_TRACE(dims);
    std::vector<uint8_t> out = prefix;
    AppendMultiDimRunFrame(300, 70000, dims, values, out);
    std::vector<uint8_t> expected = prefix;
    const std::vector<uint8_t> reference =
        dims == 1 ? BuildRawFrame(kWireFrameMagic, 300, 70000, 1, values)
                  : BuildRawMultiDimFrame(300, 70000, dims, values);
    expected.insert(expected.end(), reference.begin(), reference.end());
    EXPECT_EQ(out, expected);

    // Decoding into a reused vector, larger or smaller than the run,
    // leaves exactly the frame's values in it.
    for (const size_t stale : {size_t{50}, size_t{2}}) {
      std::vector<double> decoded(stale, 9.0);
      uint64_t user = 0;
      uint64_t base = 0;
      uint64_t decoded_dims = 0;
      auto used = DecodeUserRunFrame(std::span(out).subspan(prefix.size()),
                                     &user, &base, &decoded_dims, decoded);
      ASSERT_TRUE(used.ok()) << used.status().ToString();
      EXPECT_EQ(*used, out.size() - prefix.size());
      EXPECT_EQ(decoded_dims, dims);
      ASSERT_EQ(decoded.size(), values.size());
      for (size_t i = 0; i < values.size(); ++i) {
        EXPECT_EQ(std::bit_cast<uint64_t>(decoded[i]),
                  std::bit_cast<uint64_t>(values[i]))
            << i;
      }
    }
  }
  // The legacy encoder and an empty run go through the same copy.
  std::vector<uint8_t> legacy = prefix;
  AppendUserRunFrame(5, 0, values, legacy);
  std::vector<uint8_t> expected = prefix;
  const auto reference = BuildRawFrame(kWireFrameMagic, 5, 0, 1, values);
  expected.insert(expected.end(), reference.begin(), reference.end());
  EXPECT_EQ(legacy, expected);
  std::vector<uint8_t> empty;
  AppendUserRunFrame(5, 0, {}, empty);
  EXPECT_EQ(empty, BuildRawFrame(kWireFrameMagic, 5, 0, 1, {}));
  std::vector<double> decoded(4, 9.0);
  uint64_t user = 0;
  uint64_t base = 0;
  ASSERT_TRUE(DecodeUserRunFrame(empty, &user, &base, decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(WireFormatTest, MultiDimD1EmitsLegacyFrameByteForByte) {
  // The d=1 compatibility guarantee at its root: the multi-dim append
  // with dims=1 and the legacy append produce identical bytes, so no
  // committed digest, WAL fingerprint, or baseline can move.
  const std::vector<double> run = {0.25, -0.5, 1.75};
  std::vector<uint8_t> legacy;
  AppendUserRunFrame(123456789, 42, run, legacy);
  std::vector<uint8_t> multi;
  AppendMultiDimRunFrame(123456789, 42, 1, run, multi);
  EXPECT_EQ(multi, legacy);
  EXPECT_EQ(multi.front(), kWireFrameMagic);
}

TEST(WireFormatTest, MultiDimRoundTripsDimMajorRuns) {
  Rng rng(13);
  std::vector<uint8_t> bytes;
  for (const size_t dims : {size_t{2}, size_t{3}, size_t{8}}) {
    SCOPED_TRACE(dims);
    const size_t slots = 1 + rng.UniformInt(12);
    std::vector<double> values;
    for (size_t i = 0; i < dims * slots; ++i) {
      values.push_back(rng.Uniform(-1e6, 1e6));
    }
    bytes.clear();
    AppendMultiDimRunFrame(77, 5, dims, values, bytes);
    EXPECT_EQ(bytes.front(), kWireFrameMagicMultiDim);

    uint64_t user = 0;
    uint64_t base = 0;
    uint64_t decoded_dims = 0;
    std::vector<double> decoded;
    auto used =
        DecodeUserRunFrame(bytes, &user, &base, &decoded_dims, decoded);
    ASSERT_TRUE(used.ok()) << used.status().ToString();
    EXPECT_EQ(*used, bytes.size());
    EXPECT_EQ(user, 77u);
    EXPECT_EQ(base, 5u);
    EXPECT_EQ(decoded_dims, dims);
    ASSERT_EQ(decoded.size(), values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(decoded[i]),
                std::bit_cast<uint64_t>(values[i]))
          << i;
    }
    // Peek sees the same header without touching the payload.
    auto header = PeekUserRunFrame(bytes);
    ASSERT_TRUE(header.ok());
    EXPECT_EQ(header->user_id, 77u);
    EXPECT_EQ(header->dims, dims);
    EXPECT_EQ(header->count, values.size());
    EXPECT_EQ(header->frame_bytes, bytes.size());
  }
}

TEST(WireFormatTest, LegacyDecodeRejectsMultiDimFrame) {
  // A one-dimensional call site handed a d-dim frame must fail loudly,
  // never flatten d attributes into one scalar run.
  const std::vector<double> values = {0.1, 0.2, 0.3, 0.4};
  std::vector<uint8_t> bytes;
  AppendMultiDimRunFrame(9, 0, 2, values, bytes);
  uint64_t user = 0;
  uint64_t base = 0;
  std::vector<double> decoded;
  EXPECT_FALSE(DecodeUserRunFrame(bytes, &user, &base, decoded).ok());
  // The dims-aware decode accepts legacy frames with dims = 1.
  std::vector<uint8_t> legacy;
  AppendUserRunFrame(9, 0, values, legacy);
  uint64_t dims = 0;
  ASSERT_TRUE(DecodeUserRunFrame(legacy, &user, &base, &dims, decoded).ok());
  EXPECT_EQ(dims, 1u);
}

TEST(WireFormatTest, MultiDimRejectsEveryTruncation) {
  std::vector<uint8_t> bytes;
  const std::vector<double> values = {0.25, -0.5, 1.75, 0.125};
  AppendMultiDimRunFrame(123456789, 42, 2, values, bytes);
  uint64_t user = 0;
  uint64_t base = 0;
  uint64_t dims = 0;
  std::vector<double> decoded;
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(DecodeUserRunFrame(std::span(bytes).subspan(0, len), &user,
                                    &base, &dims, decoded)
                     .ok())
        << "prefix length " << len;
  }
}

TEST(WireFormatTest, MultiDimRejectsEverySingleByteCorruption) {
  std::vector<uint8_t> bytes;
  const std::vector<double> values = {0.5, 0.125, -2.0, 0.75, 0.25, 1.5};
  AppendMultiDimRunFrame(99, 3, 3, values, bytes);
  uint64_t user = 0;
  uint64_t base = 0;
  uint64_t dims = 0;
  std::vector<double> decoded;
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (uint8_t flip : {uint8_t{0x01}, uint8_t{0x80}}) {
      std::vector<uint8_t> corrupted = bytes;
      corrupted[i] ^= flip;
      EXPECT_FALSE(DecodeUserRunFrame(corrupted, &user, &base, &dims,
                                      decoded)
                       .ok())
          << "byte " << i << " flip " << int{flip};
    }
  }
}

TEST(WireFormatTest, MultiDimRejectsOverlongVarintInEveryField) {
  // Mirrors the 0xC5 per-field overlong corpus with the fourth (dims)
  // header varint included; the CRC is correct, so only canonicality can
  // reject these.
  const uint64_t field_values[4] = {5, 7, 2, 4};  // user, base, dims, count
  const std::vector<double> payload = {0.25, -0.5, 0.75, 0.125};
  for (int overlong_field = 0; overlong_field < 4; ++overlong_field) {
    SCOPED_TRACE(overlong_field);
    std::vector<uint8_t> bytes;
    bytes.push_back(kWireFrameMagicMultiDim);
    for (int field = 0; field < 4; ++field) {
      if (field == overlong_field) {
        bytes.push_back(static_cast<uint8_t>(field_values[field]) | 0x80);
        bytes.push_back(0x00);
      } else {
        AppendVarint(field_values[field], bytes);
      }
    }
    for (double v : payload) {
      const uint64_t word = std::bit_cast<uint64_t>(v);
      for (int b = 0; b < 8; ++b) {
        bytes.push_back(static_cast<uint8_t>(word >> (8 * b)));
      }
    }
    const uint32_t crc = Crc32(bytes);
    for (int b = 0; b < 4; ++b) {
      bytes.push_back(static_cast<uint8_t>(crc >> (8 * b)));
    }
    uint64_t user = 0;
    uint64_t base = 0;
    uint64_t dims = 0;
    std::vector<double> decoded;
    EXPECT_FALSE(
        DecodeUserRunFrame(bytes, &user, &base, &dims, decoded).ok());
    EXPECT_FALSE(PeekUserRunFrame(bytes).ok());
  }
}

TEST(WireFormatTest, MultiDimRejectsBadDimsAndCounts) {
  const std::vector<double> four = {0.1, 0.2, 0.3, 0.4};
  uint64_t user = 0;
  uint64_t base = 0;
  uint64_t dims = 0;
  std::vector<double> decoded;

  // dims = 0: meaningless, rejected loudly.
  const auto zero_dims = BuildRawMultiDimFrame(1, 0, 0, four);
  EXPECT_FALSE(
      DecodeUserRunFrame(zero_dims, &user, &base, &dims, decoded).ok());
  EXPECT_FALSE(PeekUserRunFrame(zero_dims).ok());

  // dims = 1 on a 0xC6 frame: non-canonical (d=1 travels as 0xC5).
  const auto one_dim = BuildRawMultiDimFrame(1, 0, 1, four);
  EXPECT_FALSE(
      DecodeUserRunFrame(one_dim, &user, &base, &dims, decoded).ok());
  EXPECT_FALSE(PeekUserRunFrame(one_dim).ok());

  // count % dims != 0: a 3-double payload cannot be 2-dimensional.
  const std::vector<double> three = {0.1, 0.2, 0.3};
  const auto ragged = BuildRawMultiDimFrame(1, 0, 2, three);
  EXPECT_FALSE(
      DecodeUserRunFrame(ragged, &user, &base, &dims, decoded).ok());
  EXPECT_FALSE(PeekUserRunFrame(ragged).ok());

  // dims over the cap is rejected before any per-dimension arithmetic.
  const auto absurd = BuildRawMultiDimFrame(1, 0, kWireMaxDims + 1, four);
  EXPECT_FALSE(
      DecodeUserRunFrame(absurd, &user, &base, &dims, decoded).ok());
  EXPECT_FALSE(PeekUserRunFrame(absurd).ok());
}

TEST(WireFormatTest, RefusesRunsEndingPastTheCellIndex) {
  // CRC-valid frames whose run would end past the collector's uint32
  // cell index (base_slot + slots > kWireMaxCells / dims) are refused as
  // OutOfRange by decode and peek alike -- near 2^64 the comparison must
  // not wrap -- while the largest legal base_slot still decodes.
  uint64_t user_id = 0;
  uint64_t base_slot = 0;
  uint64_t dims = 0;
  std::vector<double> values;
  for (uint64_t d : {uint64_t{1}, uint64_t{4}}) {
    SCOPED_TRACE(d);
    const std::vector<double> run(3 * d, 0.5);  // 3 slots per dimension
    const uint64_t largest = kWireMaxCells / d - 3;
    for (uint64_t bad : {~uint64_t{0} - 4, uint64_t{1} << 40, kWireMaxCells,
                         largest + 1}) {
      SCOPED_TRACE(bad);
      std::vector<uint8_t> frame;
      AppendMultiDimRunFrame(7, bad, d, run, frame);
      const auto decoded =
          DecodeUserRunFrame(frame, &user_id, &base_slot, &dims, values);
      ASSERT_FALSE(decoded.ok());
      EXPECT_EQ(decoded.status().code(), StatusCode::kOutOfRange);
      EXPECT_EQ(PeekUserRunFrame(frame).status().code(),
                StatusCode::kOutOfRange);
      // Cut short or CRC-damaged, the same header is just a broken frame
      // (what a WAL scan truncates as a torn tail), not OutOfRange.
      const std::span<const uint8_t> torn(frame.data(), frame.size() - 5);
      EXPECT_EQ(PeekUserRunFrame(torn).status().code(),
                StatusCode::kInvalidArgument);
      frame.back() ^= 0x01;
      for (auto damaged : {torn, std::span<const uint8_t>(frame)}) {
        EXPECT_EQ(
            DecodeUserRunFrame(damaged, &user_id, &base_slot, &dims, values)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
      }
    }
    std::vector<uint8_t> frame;
    AppendMultiDimRunFrame(7, largest, d, run, frame);
    const auto decoded =
        DecodeUserRunFrame(frame, &user_id, &base_slot, &dims, values);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(base_slot, largest);
    EXPECT_EQ(dims, d);
    EXPECT_EQ(values, run);
    EXPECT_TRUE(PeekUserRunFrame(frame).ok());
    // Its last cell is the index's last cell.
    EXPECT_EQ((largest + 3) * d - 1, kWireMaxCells - 1);
  }
}

// ------------------------------------------------------------ mpsc queue ----

TEST(MpscQueueTest, FifoWithinCapacity) {
  MpscQueue<int> queue(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(queue.Push(i));
  EXPECT_EQ(queue.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    auto item = queue.Pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);
  }
  EXPECT_EQ(queue.push_stalls(), 0u);
}

TEST(MpscQueueTest, WrapsAroundTheRing) {
  MpscQueue<int> queue(2);
  int next = 0;
  for (int round = 0; round < 5; ++round) {
    EXPECT_TRUE(queue.Push(next++));
    EXPECT_TRUE(queue.Push(next++));
    EXPECT_EQ(*queue.Pop(), 2 * round);
    EXPECT_EQ(*queue.Pop(), 2 * round + 1);
  }
}

TEST(MpscQueueTest, PushBlocksUntilPopMakesRoom) {
  MpscQueue<int> queue(1);
  ASSERT_TRUE(queue.Push(1));
  std::thread producer([&] { EXPECT_TRUE(queue.Push(2)); });
  // Wait until the producer has actually stalled on the full ring.
  while (queue.push_stalls() == 0) std::this_thread::yield();
  EXPECT_EQ(*queue.Pop(), 1);
  producer.join();
  EXPECT_EQ(*queue.Pop(), 2);
  EXPECT_EQ(queue.push_stalls(), 1u);
}

TEST(MpscQueueTest, PopBlocksUntilPush) {
  MpscQueue<int> queue(2);
  std::thread consumer([&] {
    auto item = queue.Pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, 7);
  });
  while (queue.pop_waits() == 0) std::this_thread::yield();
  EXPECT_TRUE(queue.Push(7));
  consumer.join();
}

TEST(MpscQueueTest, CloseUnblocksAndDrains) {
  MpscQueue<int> queue(4);
  EXPECT_TRUE(queue.Push(1));
  queue.Close();
  EXPECT_FALSE(queue.Push(2));          // rejected after close...
  EXPECT_EQ(*queue.Pop(), 1);           // ...but queued items still drain
  EXPECT_FALSE(queue.Pop().has_value());  // then closed-and-drained
}

// ---------------------------------------------- transport kind / options ----

TEST(TransportOptionsTest, KindNamesRoundTrip) {
  for (TransportKind kind : {TransportKind::kDirect,
                             TransportKind::kQueueFramed,
                             TransportKind::kSocket}) {
    auto parsed = ParseTransportKind(TransportKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseTransportKind("carrier-pigeon").ok());
}

TEST(TransportOptionsTest, ValidationCatchesBadKnobs) {
  TransportOptions good;
  EXPECT_TRUE(ValidateTransportOptions(good).ok());
  TransportOptions bad = good;
  bad.queue_capacity = 0;
  EXPECT_FALSE(ValidateTransportOptions(bad).ok());
  bad = good;
  bad.num_consumers = 0;
  EXPECT_FALSE(ValidateTransportOptions(bad).ok());
  bad = good;
  bad.max_batch_runs = 0;
  EXPECT_FALSE(ValidateTransportOptions(bad).ok());
  bad = good;
  bad.socket_path = std::string(200, 'x');  // over sun_path's limit
  EXPECT_FALSE(ValidateTransportOptions(bad).ok());

  EngineConfig config;
  config.transport.num_consumers = 0;
  EXPECT_FALSE(ValidateEngineConfig(config).ok());
}

// -------------------------------------------------------- transport hub ----

TEST(TransportHubTest, DeliversRunsToCollector) {
  // Every kind delivers the same runs. kDirect is a pass-through (no
  // frames, no consumers); kSocket's loopback server demuxes the
  // producers' chunks back into a framed hub. On the queued kinds routing
  // is a pure function of the user id: consumer c ingests exactly the
  // runs whose shard group (shard index % consumers) is c.
  for (TransportKind kind :
       {TransportKind::kDirect, TransportKind::kQueueFramed,
        TransportKind::kSocket}) {
    SCOPED_TRACE(TransportKindName(kind));
    auto collector = ShardedCollector::Create();
    ASSERT_TRUE(collector.ok());
    TransportOptions options;
    options.kind = kind;
    options.queue_capacity = 4;
    options.num_consumers = 2;
    options.max_batch_runs = 3;
    auto hub = TransportHub::Create(&*collector, options);
    ASSERT_TRUE(hub.ok()) << hub.status().ToString();
    {
      auto producer = (*hub)->MakeProducer();
      const std::vector<double> run = {0.25, 0.5, 0.75};
      for (uint64_t user = 0; user < 10; ++user) {
        producer.Publish(user, 2, run);
      }
    }
    const Status drained = (*hub)->Drain();
    ASSERT_TRUE(drained.ok()) << drained.ToString();
    EXPECT_EQ(collector->user_count(), 10u);
    EXPECT_EQ(collector->report_count(), 30u);
    EXPECT_EQ(collector->SlotCount(4), 3u);
    const auto aggregates = collector->PopulationSlotAggregates();
    ASSERT_EQ(aggregates.size(), 5u);
    EXPECT_EQ(aggregates[1].Count(), 0u);
    for (size_t t = 2; t < 5; ++t) {
      EXPECT_EQ(aggregates[t].Count(), 10u) << t;
      EXPECT_DOUBLE_EQ(aggregates[t].Mean(), 0.25 * static_cast<double>(t - 1))
          << t;
    }
    const TransportStats& stats = (*hub)->stats();
    EXPECT_EQ(stats.runs, 10u);
    EXPECT_EQ(stats.reports, 30u);
    EXPECT_EQ(stats.decode_failures, 0u);
    if (kind == TransportKind::kDirect) {
      EXPECT_EQ(stats.frames, 0u);
      EXPECT_TRUE(stats.consumer_runs.empty());
      continue;
    }
    EXPECT_GT(stats.wire_bytes, 30u * 8u);
    std::vector<uint64_t> expected(2, 0);
    for (uint64_t user = 0; user < 10; ++user) {
      ++expected[collector->ShardIndexOf(user) % 2];
    }
    EXPECT_EQ(stats.consumer_runs, expected);
    if (kind == TransportKind::kSocket) {
      EXPECT_FALSE((*hub)->socket_path().empty());
      EXPECT_EQ(stats.frames, 4u);  // chunks: ceil(10 runs / 3 per chunk)
      EXPECT_EQ(stats.connections, 1u);
      EXPECT_EQ(stats.stream_errors, 0u);
    }
  }
}

TEST(TransportHubTest, SocketClientModeReachesExternalServer) {
  // The cross-process topology, in-process: a standalone collector
  // server owns ingest, and a client-mode hub (socket_path set) streams
  // to it. The hub's local collector must stay untouched.
  auto server_collector = ShardedCollector::Create();
  ASSERT_TRUE(server_collector.ok());
  SocketCollectorServer::Options server_options;
  server_options.socket_path = MakeLoopbackSocketPath();
  server_options.num_consumers = 2;
  auto server =
      SocketCollectorServer::Create(&*server_collector, server_options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto local_collector = ShardedCollector::Create();
  ASSERT_TRUE(local_collector.ok());
  TransportOptions options;
  options.kind = TransportKind::kSocket;
  options.socket_path = server_options.socket_path;
  options.max_batch_runs = 4;
  auto hub = TransportHub::Create(&*local_collector, options);
  ASSERT_TRUE(hub.ok()) << hub.status().ToString();
  {
    auto producer = (*hub)->MakeProducer();
    const std::vector<double> run = {0.1, 0.9};
    for (uint64_t user = 0; user < 25; ++user) {
      producer.Publish(user, 0, run);
    }
  }
  ASSERT_TRUE((*hub)->Drain().ok());
  (*server)->WaitForFinishedConnections(1);
  const Status finished = (*server)->Finish();
  ASSERT_TRUE(finished.ok()) << finished.ToString();

  EXPECT_EQ(local_collector->report_count(), 0u);
  EXPECT_EQ(server_collector->user_count(), 25u);
  EXPECT_EQ(server_collector->report_count(), 50u);
  const TransportStats& stats = (*server)->stats();
  EXPECT_EQ(stats.connections, 1u);
  EXPECT_EQ(stats.runs, 25u);
  EXPECT_EQ(stats.reports, 50u);
  EXPECT_EQ(stats.stream_errors, 0u);
}

TEST(TransportHubTest, DrainIsIdempotentAndEmptyHubDrains) {
  auto collector = ShardedCollector::Create();
  ASSERT_TRUE(collector.ok());
  TransportOptions options;
  options.kind = TransportKind::kQueueFramed;
  auto hub = TransportHub::Create(&*collector, options);
  ASSERT_TRUE(hub.ok());
  EXPECT_TRUE((*hub)->Drain().ok());
  EXPECT_TRUE((*hub)->Drain().ok());
  EXPECT_EQ(collector->report_count(), 0u);
}

TEST(TransportHubTest, FramesPastTheCellIndexFailDrain) {
  // Each frame's base_slot would wrap (2^64 - 5), demand a ~48 TB slot
  // array (2^40), or truncate in the uint32 index (2^32) inside the
  // collector; the consumer's decode refuses it first, on the mutex and
  // the owned-shard ingest paths alike.
  for (bool owned : {false, true}) {
    for (uint64_t bad : {~uint64_t{0} - 4, uint64_t{1} << 40, kWireMaxCells}) {
      SCOPED_TRACE(owned);
      SCOPED_TRACE(bad);
      auto collector = ShardedCollector::Create({.single_writer = owned});
      ASSERT_TRUE(collector.ok());
      TransportOptions options;
      options.kind = TransportKind::kQueueFramed;
      options.num_consumers = 2;
      options.owned_shards = owned;
      auto hub = TransportHub::Create(&*collector, options);
      ASSERT_TRUE(hub.ok());
      {
        auto producer = (*hub)->MakeProducer();
        producer.Publish(1, bad, std::vector<double>{0.5, 0.25});
      }
      EXPECT_FALSE((*hub)->Drain().ok());
      EXPECT_EQ((*hub)->stats().decode_failures, 1u);
      EXPECT_EQ(collector->report_count(), 0u);
    }
  }
}

TEST(TransportHubTest, CorruptRunIngestsExactlyTheRunsBeforeIt) {
  // A consumer decodes a frame's runs into collector batches of up to 64.
  // When run k fails its CRC, runs 0..k-1 -- in earlier batches or in the
  // batch being decoded -- are ingested, k and everything after it are
  // dropped, and the one decode failure fails Drain.
  constexpr uint64_t kRuns = 100;
  const std::vector<double> run = {0.25, 0.5, 0.75};
  for (uint64_t bad : {uint64_t{0}, uint64_t{3}, uint64_t{63}, uint64_t{64},
                       uint64_t{70}, kRuns - 1}) {
    SCOPED_TRACE(bad);
    auto collector = ShardedCollector::Create();
    ASSERT_TRUE(collector.ok());
    TransportOptions options;
    options.kind = TransportKind::kQueueFramed;
    options.num_consumers = 1;
    options.max_batch_runs = kRuns;  // all of them in one frame
    auto hub = TransportHub::Create(&*collector, options);
    ASSERT_TRUE(hub.ok());
    {
      auto producer = (*hub)->MakeProducer();
      std::vector<uint8_t> bytes;
      for (uint64_t user = 0; user < kRuns; ++user) {
        bytes.clear();
        AppendUserRunFrame(user, 0, run, bytes);
        if (user == bad) bytes[bytes.size() - 6] ^= 0x40;  // payload bit
        producer.PublishEncoded(bytes, user, run.size());
      }
    }
    EXPECT_FALSE((*hub)->Drain().ok());
    EXPECT_EQ((*hub)->stats().decode_failures, 1u);
    EXPECT_EQ(collector->user_count(), bad);
    EXPECT_EQ(collector->report_count(), bad * run.size());
    for (uint64_t user = 0; user < kRuns; ++user) {
      EXPECT_EQ(collector->Contains(user), user < bad) << user;
    }
  }
}

TEST(TransportHubTest, NoLossUnderBackpressure) {
  // A capacity-2 ring, single-run frames, and 8 concurrent producers: the
  // ring is forced to fill, so correctness here means blocking, not
  // dropping. Every report must arrive exactly once.
  auto collector = ShardedCollector::Create();
  ASSERT_TRUE(collector.ok());
  TransportOptions options;
  options.kind = TransportKind::kQueueFramed;
  options.queue_capacity = 2;
  options.num_consumers = 1;
  options.max_batch_runs = 1;
  auto hub = TransportHub::Create(&*collector, options);
  ASSERT_TRUE(hub.ok());

  constexpr size_t kProducers = 8;
  constexpr size_t kUsersPerProducer = 200;
  const std::vector<double> run = {0.1, 0.9};
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      auto producer = (*hub)->MakeProducer();
      for (size_t u = 0; u < kUsersPerProducer; ++u) {
        producer.Publish(p * kUsersPerProducer + u, 0, run);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  ASSERT_TRUE((*hub)->Drain().ok());

  EXPECT_EQ(collector->user_count(), kProducers * kUsersPerProducer);
  EXPECT_EQ(collector->report_count(),
            kProducers * kUsersPerProducer * run.size());
  const TransportStats& stats = (*hub)->stats();
  EXPECT_EQ(stats.frames, kProducers * kUsersPerProducer);
  EXPECT_EQ(stats.runs, kProducers * kUsersPerProducer);
}

// --------------------------------------------- socket fault injection ----

// Appends one sequence-stamped data chunk ([u32 len][u64 seq][payload])
// to `out` -- the v2 framing every post-handshake byte uses.
void AppendSeqChunk(uint64_t seq, std::span<const uint8_t> payload,
                    std::vector<uint8_t>& out) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  for (int b = 0; b < 4; ++b) {
    out.push_back(static_cast<uint8_t>(len >> (8 * b)));
  }
  for (int b = 0; b < 8; ++b) {
    out.push_back(static_cast<uint8_t>(seq >> (8 * b)));
  }
  out.insert(out.end(), payload.begin(), payload.end());
}

// Appends the FIN marker carrying the stream's final sequence.
void AppendFin(uint64_t final_seq, std::vector<uint8_t>& out) {
  AppendSeqChunk(final_seq, {}, out);
}

// Completes the v2 handshake on a connected `client` as a well-formed
// d=1, fingerprint-0 peer, leaving the connection ready for raw
// data-section bytes.
Status HandshakeOver(SocketClient& client, uint64_t client_id) {
  HandshakeHello hello;
  hello.client_id = client_id;
  uint8_t hello_bytes[kHandshakeHelloBytes];
  EncodeHandshakeHello(hello, hello_bytes);
  CAPP_RETURN_IF_ERROR(client.SendRaw(hello_bytes));
  uint8_t ack_bytes[kHandshakeAckBytes];
  CAPP_RETURN_IF_ERROR(client.ReadExact(ack_bytes, sizeof(ack_bytes)));
  auto ack = DecodeHandshakeAck(ack_bytes);
  CAPP_RETURN_IF_ERROR(ack.status());
  EXPECT_TRUE(ack->accepted) << HandshakeRefusalName(ack->refusal);
  EXPECT_EQ(ack->resume_seq, 0u);
  return Status::OK();
}

// Dials `path` and handshakes (HandshakeOver).
Result<SocketClient> HandshakeOn(const std::string& path,
                                 uint64_t client_id = 99) {
  auto client = SocketClient::Connect(path);
  if (!client.ok()) return client.status();
  CAPP_RETURN_IF_ERROR(HandshakeOver(*client, client_id));
  return std::move(*client);
}

// Harness for injecting raw byte streams into a SocketCollectorServer
// after a well-formed handshake. Every abnormal stream must surface as a
// Finish()/Drain() error -- the transport's contract is that loss and
// corruption are loud, never silent.
class SocketFaultTest : public ::testing::Test {
 protected:
  void StartServer(int num_consumers = 1, uint64_t fingerprint = 0,
                   uint32_t expected_dims = 0) {
    auto collector = ShardedCollector::Create();
    ASSERT_TRUE(collector.ok());
    collector_.emplace(std::move(collector.value()));
    SocketCollectorServer::Options options;
    options.socket_path = MakeLoopbackSocketPath();
    options.num_consumers = num_consumers;
    options.handshake_fingerprint = fingerprint;
    options.expected_dims = expected_dims;
    auto server = SocketCollectorServer::Create(&*collector_, options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
  }

  // A well-formed data section: one seq-1 chunk of two wire frames, then
  // the FIN for sequence 1.
  std::vector<uint8_t> ValidStream() {
    std::vector<uint8_t> frames;
    AppendUserRunFrame(1, 0, std::vector<double>{0.25, 0.5, 0.75}, frames);
    AppendUserRunFrame(2, 3, std::vector<double>{0.125}, frames);
    std::vector<uint8_t> stream;
    AppendSeqChunk(1, frames, stream);
    AppendFin(1, stream);
    return stream;
  }

  Status SendAndFinish(std::span<const uint8_t> bytes) {
    auto client = HandshakeOn(server_->socket_path());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    EXPECT_TRUE(client->SendRaw(bytes).ok());
    // Protocol-conforming close, mirroring ResilientSocketClient::Finish:
    // half-close the write side (so a server blocked mid-read on a faulty
    // stream sees EOF instead of deadlocking against our read), then wait
    // for the final stream ack or the server's hangup before closing.
    // Closing with the fin ack unread would turn the server's clean-EOF
    // check into an ECONNRESET.
    ::shutdown(client->fd(), SHUT_WR);
    uint8_t fin_ack[kStreamAckBytes];
    (void)client->ReadExact(fin_ack, sizeof(fin_ack));
    client->Close();
    server_->WaitForFinishedConnections(1);
    return server_->Finish();
  }

  std::optional<ShardedCollector> collector_;
  std::unique_ptr<SocketCollectorServer> server_;
};

TEST_F(SocketFaultTest, ValidRawStreamDrainsClean) {
  // Control: the injected stream is exactly what a producer writes, so
  // the session must finish clean and the reports must land.
  StartServer();
  const Status finished = SendAndFinish(ValidStream());
  EXPECT_TRUE(finished.ok()) << finished.ToString();
  EXPECT_EQ(collector_->report_count(), 4u);
  EXPECT_EQ(server_->stats().stream_errors, 0u);
}

TEST_F(SocketFaultTest, TruncatedStreamMidFrameIsLoud) {
  // The length prefix promises more bytes than ever arrive: the reader
  // must count a stream error, not ingest a partial chunk.
  StartServer();
  const std::vector<uint8_t> stream = ValidStream();
  const std::vector<uint8_t> truncated(stream.begin(),
                                       stream.begin() + 10);
  const Status finished = SendAndFinish(truncated);
  EXPECT_FALSE(finished.ok());
  EXPECT_EQ(server_->stats().stream_errors, 1u);
  // Finish is idempotent, including the failure.
  EXPECT_EQ(server_->Finish(), finished);
}

TEST_F(SocketFaultTest, ConnectionDropBeforeFinIsLoud) {
  // Every chunk arrived intact, but the FIN marker never did: the
  // producer may have died before flushing its last frame, so the
  // session cannot be trusted to be complete.
  StartServer();
  std::vector<uint8_t> stream = ValidStream();
  stream.resize(stream.size() - 12);  // drop the FIN marker
  const Status finished = SendAndFinish(stream);
  EXPECT_FALSE(finished.ok());
  EXPECT_EQ(server_->stats().stream_errors, 1u);
  // The data itself was fine, so the reports are present -- the error
  // says the session is incomplete, not that these bytes were bad.
  EXPECT_EQ(collector_->report_count(), 4u);
}

TEST_F(SocketFaultTest, FinMarkerMidStreamIsLoud) {
  // A zero length prefix with more bytes behind it is not a clean end of
  // session -- a prefix corrupted to zero must not silently discard the
  // rest of the stream under an OK verdict.
  StartServer();
  std::vector<uint8_t> frames;
  AppendUserRunFrame(1, 0, std::vector<double>{0.25, 0.5, 0.75}, frames);
  std::vector<uint8_t> doubled;
  AppendSeqChunk(1, frames, doubled);
  AppendFin(1, doubled);  // a "FIN" with more bytes behind it
  AppendFin(1, doubled);
  const Status finished = SendAndFinish(doubled);
  EXPECT_FALSE(finished.ok());
  EXPECT_EQ(server_->stats().stream_errors, 1u);
}

TEST_F(SocketFaultTest, EveryCorruptedStreamPrefixIsCaught) {
  // Fuzz loop: flip one bit at every byte position of a valid stream
  // (length prefix, frame headers, payload, CRC, FIN marker). Whatever
  // the flip hits -- framing, codec, or stream protocol -- the session
  // must end in an error; no corruption may be silently absorbed.
  const std::vector<uint8_t> stream = ValidStream();
  for (size_t i = 0; i < stream.size(); ++i) {
    SCOPED_TRACE(i);
    std::vector<uint8_t> corrupted = stream;
    corrupted[i] ^= 0x01;
    StartServer();
    EXPECT_FALSE(SendAndFinish(corrupted).ok()) << "byte " << i;
    server_.reset();
  }
}

TEST_F(SocketFaultTest, RawInjectionIntoLoopbackHubFailsItsCrossCheck) {
  // Bytes arriving on the hub's loopback socket that its own producers
  // never published must fail Drain's published-vs-ingested cross-check
  // (and corrupt injected bytes fail earlier, as decode/stream errors).
  auto collector = ShardedCollector::Create();
  ASSERT_TRUE(collector.ok());
  TransportOptions options;
  options.kind = TransportKind::kSocket;
  options.num_consumers = 1;
  auto hub = TransportHub::Create(&*collector, options);
  ASSERT_TRUE(hub.ok());
  {
    // A foreign-but-well-formed peer: its own client id, clean handshake,
    // clean FIN. The hub's producers never published these runs, so the
    // cross-check must still fail the drain.
    auto client = HandshakeOn((*hub)->socket_path(), /*client_id=*/12345);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->SendRaw(ValidStream()).ok());
    ::shutdown(client->fd(), SHUT_WR);
    uint8_t fin_ack[kStreamAckBytes];
    (void)client->ReadExact(fin_ack, sizeof(fin_ack));
    client->Close();
  }
  { (*hub)->MakeProducer().Publish(50, 0, std::vector<double>{0.5}); }
  const Status drained = (*hub)->Drain();
  EXPECT_FALSE(drained.ok());
  EXPECT_NE(drained.message().find("lost runs"), std::string::npos)
      << drained.ToString();
}

// ------------------------------------------------- handshake refusals ----

TEST_F(SocketFaultTest, MismatchedHelloIsRefusedBeforeIngest) {
  // A peer whose version, fingerprint, or dims disagree must get a typed
  // refusal ack and never reach the data path -- wrong-budget reports
  // silently merged into the aggregates would be undetectable downstream.
  struct Case {
    const char* name;
    uint32_t version;
    uint64_t fingerprint;
    uint32_t dims;
    HandshakeRefusal want;
  };
  const uint64_t server_fp = 0xF00DF00DF00DF00Dull;
  const Case cases[] = {
      {"version", kTransportProtocolVersion + 1, server_fp, 2,
       HandshakeRefusal::kBadVersion},
      {"fingerprint", kTransportProtocolVersion, server_fp + 1, 2,
       HandshakeRefusal::kBadFingerprint},
      {"dims", kTransportProtocolVersion, server_fp, 3,
       HandshakeRefusal::kBadDims},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    StartServer(1, server_fp, /*expected_dims=*/2);
    auto client = SocketClient::Connect(server_->socket_path());
    ASSERT_TRUE(client.ok());
    HandshakeHello hello;
    hello.version = c.version;
    hello.fingerprint = c.fingerprint;
    hello.dims = c.dims;
    hello.client_id = 42;
    uint8_t hello_bytes[kHandshakeHelloBytes];
    EncodeHandshakeHello(hello, hello_bytes);
    ASSERT_TRUE(client->SendRaw(hello_bytes).ok());
    uint8_t ack_bytes[kHandshakeAckBytes];
    ASSERT_TRUE(client->ReadExact(ack_bytes, sizeof(ack_bytes)).ok());
    auto ack = DecodeHandshakeAck(ack_bytes);
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    EXPECT_FALSE(ack->accepted);
    EXPECT_EQ(ack->refusal, c.want);
    // The nack echoes the server's own view, so the operator sees both
    // sides of the disagreement in one log line.
    EXPECT_EQ(ack->fingerprint, server_fp);
    // Data sent anyway must go nowhere (the server has already closed).
    (void)client->SendRaw(ValidStream());
    client->Close();
    server_->WaitForFinishedConnections(1);
    const Status finished = server_->Finish();
    EXPECT_FALSE(finished.ok());
    EXPECT_EQ(finished.code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(server_->stats().handshake_rejects, 1u);
    EXPECT_EQ(collector_->report_count(), 0u);
    server_.reset();
  }
}

TEST_F(SocketFaultTest, CorruptedHelloNeverReachesIngest) {
  // Bit-flip corpus over the hello as the *server* sees it: every flip
  // must be caught by magic/CRC validation, rejected without an ack, and
  // nothing behind it may ingest.
  HandshakeHello hello;
  hello.client_id = 77;
  uint8_t good[kHandshakeHelloBytes];
  EncodeHandshakeHello(hello, good);
  for (size_t i = 0; i < kHandshakeHelloBytes; ++i) {
    SCOPED_TRACE(i);
    StartServer();
    auto client = SocketClient::Connect(server_->socket_path());
    ASSERT_TRUE(client.ok());
    std::vector<uint8_t> corrupted(good, good + kHandshakeHelloBytes);
    corrupted[i] ^= 0x01;
    ASSERT_TRUE(client->SendRaw(corrupted).ok());
    (void)client->SendRaw(ValidStream());  // must never ingest
    client->Close();
    server_->WaitForFinishedConnections(1);
    EXPECT_FALSE(server_->Finish().ok());
    EXPECT_EQ(server_->stats().handshake_rejects, 1u);
    EXPECT_EQ(collector_->report_count(), 0u);
    server_.reset();
  }
}

TEST_F(SocketFaultTest, TruncatedHelloIsRejectedNotHung) {
  // Every strict prefix of a valid hello (>= 1 byte -- zero bytes is the
  // probe case below) must finish as a handshake reject, not wedge the
  // reader waiting for bytes that never come.
  HandshakeHello hello;
  hello.client_id = 77;
  uint8_t good[kHandshakeHelloBytes];
  EncodeHandshakeHello(hello, good);
  for (size_t len = 1; len < kHandshakeHelloBytes; ++len) {
    SCOPED_TRACE(len);
    StartServer();
    auto client = SocketClient::Connect(server_->socket_path());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(
        client->SendRaw(std::span<const uint8_t>(good, len)).ok());
    client->Close();
    server_->WaitForFinishedConnections(1);
    EXPECT_FALSE(server_->Finish().ok());
    EXPECT_EQ(server_->stats().handshake_rejects, 1u);
    server_.reset();
  }
}

TEST_F(SocketFaultTest, ZeroByteConnectionIsABenignProbe) {
  // Connect-and-close without a byte is how the bind guard, the
  // shutdown wake-up, and port scanners look. It must leave no trace:
  // not a connection, not a reject, not an error.
  StartServer();
  {
    auto probe = SocketClient::Connect(server_->socket_path());
    ASSERT_TRUE(probe.ok());
    probe->Close();
  }
  const Status finished = SendAndFinish(ValidStream());
  EXPECT_TRUE(finished.ok()) << finished.ToString();
  EXPECT_EQ(server_->stats().connections, 1u);  // the real peer only
  EXPECT_EQ(server_->stats().handshake_rejects, 0u);
}

TEST_F(SocketFaultTest, FramePastTheCellIndexIsRefused) {
  // A CRC-valid frame whose base_slot would wrap the collector's slot
  // arithmetic: the reader's header peek refuses it, so it never reaches
  // a consumer, and the session fails loudly.
  StartServer();
  std::vector<uint8_t> frames;
  AppendUserRunFrame(1, ~uint64_t{0} - 4, std::vector<double>{0.5}, frames);
  std::vector<uint8_t> stream;
  AppendSeqChunk(1, frames, stream);
  AppendFin(1, stream);
  const Status finished = SendAndFinish(stream);
  EXPECT_FALSE(finished.ok());
  EXPECT_EQ(server_->stats().decode_failures, 1u);
  EXPECT_EQ(collector_->report_count(), 0u);
}

TEST_F(SocketFaultTest, AcceptorServesBacklogAfterDescriptorExhaustion) {
  // Running out of descriptors is transient: connections that waited in
  // the backlog while accept() failed with EMFILE must be handshaked and
  // served once descriptors free up. The client sockets exist before the
  // table fills (connect() needs no new descriptor); a receive timeout
  // turns a stranded connection into a failed read instead of a hang.
  StartServer();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, server_->socket_path().c_str(),
               sizeof(addr.sun_path) - 1);
  std::vector<SocketClient> clients;
  for (int i = 0; i < 2; ++i) {
    clients.push_back(SocketClient::Adopt(::socket(AF_UNIX, SOCK_STREAM, 0)));
    ASSERT_TRUE(clients.back().connected());
    const timeval timeout{5, 0};
    ASSERT_EQ(::setsockopt(clients.back().fd(), SOL_SOCKET, SO_RCVTIMEO,
                           &timeout, sizeof(timeout)),
              0);
  }
  // Fill the table under a lowered limit and connect both clients; the
  // acceptor's blocked accept() may already hold one slot, so at least
  // the second connection hits EMFILE. Then free everything.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit lowered = saved;
  lowered.rlim_cur = std::min<rlim_t>(saved.rlim_cur, 256);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  std::vector<int> fillers;
  for (int fd; (fd = ::dup(clients[0].fd())) >= 0;) fillers.push_back(fd);
  const int fill_errno = errno;
  int connected = 0;
  for (const SocketClient& client : clients) {
    connected += ::connect(client.fd(), reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  for (int fd : fillers) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  EXPECT_EQ(fill_errno, EMFILE);
  ASSERT_EQ(connected, 2);

  for (uint64_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(i);
    const Status handshaked = HandshakeOver(clients[i], /*client_id=*/100 + i);
    ASSERT_TRUE(handshaked.ok()) << handshaked.ToString();
    std::vector<uint8_t> frames;
    AppendUserRunFrame(10 + i, 0, std::vector<double>{0.25, 0.5}, frames);
    std::vector<uint8_t> stream;
    AppendSeqChunk(1, frames, stream);
    AppendFin(1, stream);
    ASSERT_TRUE(clients[i].SendRaw(stream).ok());
    uint8_t fin_ack[kStreamAckBytes];
    ASSERT_TRUE(clients[i].ReadExact(fin_ack, sizeof(fin_ack)).ok());
    clients[i].Close();
  }
  server_->WaitForCompletedSessions(2);
  const Status finished = server_->Finish();
  EXPECT_TRUE(finished.ok()) << finished.ToString();
  EXPECT_EQ(server_->stats().connections, 2u);
  EXPECT_EQ(collector_->report_count(), 4u);
}

// ------------------------------------------- connect under signal load ----

void IgnoreSignalForEintrTest(int) {}

TEST(SocketEintrTest, ConnectSurvivesSignalStorm) {
  // Regression for the EINTR-from-connect() bug: with a no-SA_RESTART
  // handler installed and a thread storming SIGUSR1 at the connecting
  // thread, an interrupted connect() must be completed via poll +
  // SO_ERROR, never failed. Before the fix, any EINTR here surfaced as a
  // hard connect error.
  auto collector = ShardedCollector::Create();
  ASSERT_TRUE(collector.ok());
  SocketCollectorServer::Options options;
  options.socket_path = MakeLoopbackSocketPath();
  options.num_consumers = 1;
  auto server = SocketCollectorServer::Create(&*collector, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  struct sigaction action {};
  struct sigaction old_action {};
  action.sa_handler = IgnoreSignalForEintrTest;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // deliberately no SA_RESTART
  ASSERT_EQ(sigaction(SIGUSR1, &action, &old_action), 0);

  std::atomic<bool> stop{false};
  const pthread_t target = pthread_self();
  std::thread storm([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      pthread_kill(target, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  });
  for (int i = 0; i < 200; ++i) {
    auto client = SocketClient::Connect(options.socket_path);
    EXPECT_TRUE(client.ok()) << "connect " << i << ": "
                             << client.status().ToString();
    if (client.ok()) client->Close();
  }
  stop.store(true, std::memory_order_relaxed);
  storm.join();
  ASSERT_EQ(sigaction(SIGUSR1, &old_action, nullptr), 0);

  // All 200 were zero-byte probes: the server must shrug them off.
  const Status finished = (*server)->Finish();
  EXPECT_TRUE(finished.ok()) << finished.ToString();
  EXPECT_EQ((*server)->stats().connections, 0u);
}

// ------------------------------------------------------- bind guarding ----

TEST(SocketBindGuardTest, SecondServerOnLivePathIsRefused) {
  // Two collector processes pointed at one socket path: the second must
  // refuse with AlreadyExists instead of silently unlinking the first
  // server's socket out from under its fleet.
  auto collector1 = ShardedCollector::Create();
  ASSERT_TRUE(collector1.ok());
  SocketCollectorServer::Options options;
  options.socket_path = MakeLoopbackSocketPath();
  options.num_consumers = 1;
  auto server1 = SocketCollectorServer::Create(&*collector1, options);
  ASSERT_TRUE(server1.ok()) << server1.status().ToString();

  auto collector2 = ShardedCollector::Create();
  ASSERT_TRUE(collector2.ok());
  auto server2 = SocketCollectorServer::Create(&*collector2, options);
  ASSERT_FALSE(server2.ok());
  EXPECT_EQ(server2.status().code(), StatusCode::kAlreadyExists)
      << server2.status().ToString();

  // The first server must be completely unharmed by the probe: a real
  // session still drains clean.
  {
    auto client = HandshakeOn(options.socket_path, /*client_id=*/5);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    std::vector<uint8_t> frames;
    AppendUserRunFrame(1, 0, std::vector<double>{0.5}, frames);
    std::vector<uint8_t> stream;
    AppendSeqChunk(1, frames, stream);
    AppendFin(1, stream);
    ASSERT_TRUE(client->SendRaw(stream).ok());
    ::shutdown(client->fd(), SHUT_WR);
    uint8_t fin_ack[kStreamAckBytes];
    (void)client->ReadExact(fin_ack, sizeof(fin_ack));
    client->Close();
  }
  (*server1)->WaitForFinishedConnections(1);
  const Status finished = (*server1)->Finish();
  EXPECT_TRUE(finished.ok()) << finished.ToString();
  EXPECT_EQ(collector1->report_count(), 1u);
}

TEST(SocketBindGuardTest, StaleSocketFileIsReclaimed) {
  // A socket file left behind by a dead server (bound once, never
  // unlinked, nobody listening) must be reclaimed, not refused --
  // otherwise every crash would need a manual rm before restart.
  const std::string path = MakeLoopbackSocketPath();
  {
    auto collector = ShardedCollector::Create();
    ASSERT_TRUE(collector.ok());
    SocketCollectorServer::Options options;
    options.socket_path = path;
    options.num_consumers = 1;
    auto server = SocketCollectorServer::Create(&*collector, options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    ASSERT_TRUE((*server)->Finish().ok());
  }
  // The listener is gone; whether or not the file lingers, a new server
  // must bind the same path cleanly.
  auto collector = ShardedCollector::Create();
  ASSERT_TRUE(collector.ok());
  SocketCollectorServer::Options options;
  options.socket_path = path;
  options.num_consumers = 1;
  auto server = SocketCollectorServer::Create(&*collector, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_TRUE((*server)->Finish().ok());
}

// ------------------------------------------------- loopback path TMPDIR ----

TEST(LoopbackSocketPathTest, HonorsTmpdirWithSunPathGuard) {
  const char* old_tmpdir = std::getenv("TMPDIR");
  const std::string saved = old_tmpdir != nullptr ? old_tmpdir : "";

  // A usable TMPDIR is honored.
  char tmpl[] = "/tmp/capp-tmpdir-XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string tmpdir = tmpl;
  ASSERT_EQ(::setenv("TMPDIR", tmpdir.c_str(), 1), 0);
  const std::string under_tmpdir = MakeLoopbackSocketPath();
  EXPECT_EQ(under_tmpdir.rfind(tmpdir + "/", 0), 0u) << under_tmpdir;
  {
    // And the path actually binds: a server comes up on it.
    auto collector = ShardedCollector::Create();
    ASSERT_TRUE(collector.ok());
    SocketCollectorServer::Options options;
    options.socket_path = under_tmpdir;
    options.num_consumers = 1;
    auto server = SocketCollectorServer::Create(&*collector, options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    EXPECT_TRUE((*server)->Finish().ok());
  }

  // A TMPDIR too long for sockaddr_un::sun_path (108 bytes with the NUL)
  // falls back to /tmp instead of producing an unbindable path.
  const std::string absurd = "/tmp/" + std::string(150, 'x');
  ASSERT_EQ(::setenv("TMPDIR", absurd.c_str(), 1), 0);
  const std::string fallback = MakeLoopbackSocketPath();
  EXPECT_EQ(fallback.rfind("/tmp/", 0), 0u) << fallback;
  EXPECT_LT(fallback.size(), 108u);

  if (saved.empty()) {
    ::unsetenv("TMPDIR");
  } else {
    ::setenv("TMPDIR", saved.c_str(), 1);
  }
  ::rmdir(tmpdir.c_str());
}

// --------------------------------------------------- reconnect backoff ----

TEST(BackoffDelayTest, DeterministicJitteredExponential) {
  // Same (backoff, attempt, seed) -> same delay, run over run: reconnect
  // schedules must be reproducible.
  for (int attempt = 0; attempt < 10; ++attempt) {
    EXPECT_EQ(BackoffDelayMs(50, attempt, 7),
              BackoffDelayMs(50, attempt, 7));
  }
  // The envelope: exponential base (shift capped at 6, total capped at
  // 2000ms) scaled by jitter in [0.5, 1.0).
  for (const int backoff : {1, 10, 50}) {
    for (int attempt = 0; attempt < 12; ++attempt) {
      for (const uint64_t seed : {0ull, 1ull, 0xDEADBEEFull}) {
        SCOPED_TRACE(testing::Message() << backoff << "/" << attempt
                                        << "/" << seed);
        const int shift = attempt < 6 ? attempt : 6;
        int64_t base = static_cast<int64_t>(backoff) << shift;
        if (base > 2000) base = 2000;
        const int delay = BackoffDelayMs(backoff, attempt, seed);
        EXPECT_GE(delay, 1);
        EXPECT_LE(delay, base);
        EXPECT_GE(delay, static_cast<int>(base / 2) - 1);
      }
    }
  }
}

TEST(BackoffDelayTest, SeedsSpreadTheHerd) {
  // The point of the jitter: stripes redialing after the same kill must
  // not retry in lockstep. 64 seeds at the same attempt must spread over
  // many distinct delays.
  std::set<int> delays;
  for (uint64_t seed = 0; seed < 64; ++seed) {
    delays.insert(BackoffDelayMs(200, 3, seed));
  }
  EXPECT_GE(delays.size(), 16u);
}

// ------------------------------------------------------- TCP endpoints ----

TEST(TcpEndpointTest, ParsesAndRejects) {
  auto ok = ParseTcpEndpoint("127.0.0.1:7433");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->tcp_host, "127.0.0.1");
  EXPECT_EQ(ok->tcp_port, 7433);
  EXPECT_TRUE(ok->is_tcp());

  auto ephemeral = ParseTcpEndpoint("localhost:0");
  ASSERT_TRUE(ephemeral.ok());
  EXPECT_EQ(ephemeral->tcp_port, 0);

  // The *last* colon splits, so bracketless IPv6-ish hosts survive.
  auto multi = ParseTcpEndpoint("fe80::1:9000");
  ASSERT_TRUE(multi.ok());
  EXPECT_EQ(multi->tcp_host, "fe80::1");
  EXPECT_EQ(multi->tcp_port, 9000);

  EXPECT_FALSE(ParseTcpEndpoint("nocolon").ok());
  EXPECT_FALSE(ParseTcpEndpoint(":7433").ok());
  EXPECT_FALSE(ParseTcpEndpoint("host:").ok());
  EXPECT_FALSE(ParseTcpEndpoint("host:99999").ok());
  EXPECT_FALSE(ParseTcpEndpoint("host:12x").ok());
}

TEST(TcpTransportTest, TcpLoopbackDigestMatchesInProcess) {
  // The tentpole contract in miniature: a client-mode hub streaming over
  // real TCP (ephemeral port on 127.0.0.1) produces a server collector
  // bit-identical to ingesting the same runs in-process.
  auto publish_all = [](TransportHub& hub) {
    auto producer = hub.MakeProducer();
    Rng rng(99);
    for (uint64_t user = 0; user < 200; ++user) {
      std::vector<double> run;
      for (int t = 0; t < 8; ++t) run.push_back(rng.Uniform(0.0, 1.0));
      producer.Publish(user, 0, run);
    }
  };

  // Oracle: the same runs through a direct hub.
  auto oracle = ShardedCollector::Create();
  ASSERT_TRUE(oracle.ok());
  {
    TransportOptions direct;
    direct.kind = TransportKind::kDirect;
    auto hub = TransportHub::Create(&*oracle, direct);
    ASSERT_TRUE(hub.ok());
    publish_all(**hub);
    ASSERT_TRUE((*hub)->Drain().ok());
  }

  // Server on an ephemeral TCP port.
  auto server_collector = ShardedCollector::Create();
  ASSERT_TRUE(server_collector.ok());
  SocketCollectorServer::Options server_options;
  server_options.tcp_host = "127.0.0.1";
  server_options.tcp_port = 0;
  server_options.num_consumers = 2;
  auto server =
      SocketCollectorServer::Create(&*server_collector, server_options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_GT((*server)->tcp_port(), 0);

  auto local_collector = ShardedCollector::Create();
  ASSERT_TRUE(local_collector.ok());
  TransportOptions options;
  options.kind = TransportKind::kSocket;
  options.tcp_host = "127.0.0.1";
  options.tcp_port = (*server)->tcp_port();
  options.connect_streams = 2;
  auto hub = TransportHub::Create(&*local_collector, options);
  ASSERT_TRUE(hub.ok()) << hub.status().ToString();
  publish_all(**hub);
  ASSERT_TRUE((*hub)->Drain().ok());
  (*server)->WaitForCompletedSessions(1);
  const Status finished = (*server)->Finish();
  ASSERT_TRUE(finished.ok()) << finished.ToString();

  EXPECT_EQ(local_collector->report_count(), 0u);
  EXPECT_EQ(server_collector->user_count(), 200u);
  EXPECT_EQ(CollectorStateDigest(*server_collector),
            CollectorStateDigest(*oracle));
  EXPECT_EQ((*server)->stats().stream_errors, 0u);
}

// ------------------------------------------------ reconnect with resume ----

TEST(ResumeTest, KilledConnectionResumesWithDigestIntact) {
  // Deterministic kill/resume: write, hard-kill the server side, write
  // more, finish. The client must redial and replay; the server's dedup
  // must keep the collector bit-identical to a never-killed run.
  auto oracle = ShardedCollector::Create();
  ASSERT_TRUE(oracle.ok());
  auto collector = ShardedCollector::Create();
  ASSERT_TRUE(collector.ok());
  SocketCollectorServer::Options server_options;
  server_options.socket_path = MakeLoopbackSocketPath();
  server_options.num_consumers = 1;
  auto server = SocketCollectorServer::Create(&*collector, server_options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  ResilientSocketClient::Options client_options;
  client_options.endpoint.unix_path = server_options.socket_path;
  client_options.client_id = 4242;
  client_options.connect_backoff_ms = 1;
  client_options.reconnect_attempts = 50;
  auto client = ResilientSocketClient::Connect(client_options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  Rng rng(4242);
  uint64_t next_user = 0;
  auto write_users = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> run;
      for (int t = 0; t < 6; ++t) run.push_back(rng.Uniform(0.0, 1.0));
      std::vector<uint8_t> frame;
      AppendUserRunFrame(next_user, 0, run, frame);
      oracle->IngestUserRun(next_user, 0, run);
      const Status sent = (*client)->WriteChunk(frame);
      ASSERT_TRUE(sent.ok()) << sent.ToString();
      ++next_user;
    }
  };

  write_users(40);
  // Kill every active connection twice, with writes in between, so the
  // client crosses the reconnect path mid-stream (not only at FIN).
  EXPECT_EQ((*server)->KillActiveConnections(), 1u);
  write_users(40);
  (*server)->KillActiveConnections();
  write_users(40);

  const Status finished_client = (*client)->Finish();
  ASSERT_TRUE(finished_client.ok()) << finished_client.ToString();
  EXPECT_GE((*client)->reconnects(), 1u);
  (*client)->Close();

  (*server)->WaitForCompletedSessions(1);
  const Status finished = (*server)->Finish();
  ASSERT_TRUE(finished.ok()) << finished.ToString();
  EXPECT_EQ((*server)->stats().stream_errors, 0u);
  EXPECT_EQ(collector->user_count(), 120u);
  EXPECT_EQ(CollectorStateDigest(*collector), CollectorStateDigest(*oracle));
}

TEST(ResumeTortureTest, StripedHubSurvivesRepeatedKills) {
  // The stochastic flavor: a striped client-mode hub under a killer
  // thread that keeps hard-closing every active connection at arbitrary
  // chunk boundaries. Whatever the kill schedule, Drain must succeed and
  // the server collector must match the no-kill oracle bit for bit.
  auto publish_all = [](TransportHub& hub, size_t producers) {
    std::vector<std::thread> threads;
    for (size_t p = 0; p < producers; ++p) {
      threads.emplace_back([&hub, p, producers] {
        auto producer = hub.MakeProducer();
        for (uint64_t user = p; user < 400; user += producers) {
          Rng rng(1000 + user);
          std::vector<double> run;
          for (int t = 0; t < 10; ++t) run.push_back(rng.Uniform(0.0, 1.0));
          producer.Publish(user, 0, run);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  };

  auto oracle = ShardedCollector::Create();
  ASSERT_TRUE(oracle.ok());
  {
    TransportOptions direct;
    direct.kind = TransportKind::kDirect;
    auto hub = TransportHub::Create(&*oracle, direct);
    ASSERT_TRUE(hub.ok());
    publish_all(**hub, 4);
    ASSERT_TRUE((*hub)->Drain().ok());
  }

  auto collector = ShardedCollector::Create();
  ASSERT_TRUE(collector.ok());
  SocketCollectorServer::Options server_options;
  server_options.socket_path = MakeLoopbackSocketPath();
  server_options.num_consumers = 2;
  auto server = SocketCollectorServer::Create(&*collector, server_options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto local = ShardedCollector::Create();
  ASSERT_TRUE(local.ok());
  TransportOptions options;
  options.kind = TransportKind::kSocket;
  options.socket_path = server_options.socket_path;
  options.connect_streams = 4;
  options.connect_backoff_ms = 1;
  options.reconnect_attempts = 500;
  options.max_batch_runs = 4;  // small chunks: more kill boundaries
  auto hub = TransportHub::Create(&*local, options);
  ASSERT_TRUE(hub.ok()) << hub.status().ToString();

  std::atomic<bool> stop_killer{false};
  std::thread killer([&] {
    Rng rng(31337);
    while (!stop_killer.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(500 + rng.UniformInt(1500)));
      (*server)->KillActiveConnections();
    }
  });
  publish_all(**hub, 4);
  stop_killer.store(true, std::memory_order_relaxed);
  killer.join();

  const Status drained = (*hub)->Drain();
  ASSERT_TRUE(drained.ok()) << drained.ToString();
  (*server)->WaitForCompletedSessions(1);
  const Status finished = (*server)->Finish();
  ASSERT_TRUE(finished.ok()) << finished.ToString();
  EXPECT_EQ((*server)->stats().stream_errors, 0u);
  EXPECT_EQ(collector->user_count(), 400u);
  EXPECT_EQ(CollectorStateDigest(*collector), CollectorStateDigest(*oracle));
}

// --------------------------------------- fleet determinism across wires ----

EngineConfig TransportFleetConfig(AlgorithmKind algorithm) {
  EngineConfig config;
  config.algorithm = algorithm;
  config.epsilon = 1.0;
  config.window = 10;
  config.num_users = 300;
  config.num_slots = 24;
  config.chunk_size = 32;
  config.seed = 1234;
  config.signal = SignalKind::kSinusoid;
  // The analytics histogram tier rides along so its integer bin counts
  // are pinned by the same bit-identity matrix as the aggregates.
  config.analytics.enabled = true;
  return config;
}

struct FleetObservation {
  EngineStats stats;
  std::vector<SlotAggregate> aggregates;
  std::vector<std::vector<uint64_t>> histograms;
  size_t report_count = 0;
};

FleetObservation RunFleet(EngineConfig config) {
  auto fleet = Fleet::Create(config);
  EXPECT_TRUE(fleet.ok());
  auto stats = fleet->Run();
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  auto histograms = fleet->collector().PopulationSlotHistograms();
  EXPECT_TRUE(histograms.ok());
  return {*stats, fleet->collector().PopulationSlotAggregates(),
          std::move(*histograms), fleet->collector().report_count()};
}

// Runs `base` through every transport mode -- kDirect, and kQueueFramed
// and kSocket with mutex or owned-shard (single-writer seqlock) ingest --
// at 1, 4 and 8 producers and each of `consumer_counts`, and expects
// every run to match the plain direct run bit for bit: digest, error
// statistics, per-cell aggregates, and histogram bins. Exactness of the
// aggregates comes from SlotAggregate's integer accumulation; the digest
// is computed producer-side from per-user streams; histogram bins are
// integer counts of a pure per-value bin function, so the streaming
// analytics tier inherits the same contract.
void ExpectBitIdenticalAcrossModes(const EngineConfig& base,
                                   std::initializer_list<int> consumer_counts) {
  const FleetObservation baseline = RunFleet(base);
  ASSERT_EQ(baseline.aggregates.size(), base.dims * base.num_slots);
  for (int producers : {1, 4, 8}) {
    for (TransportKind kind :
         {TransportKind::kDirect, TransportKind::kQueueFramed,
          TransportKind::kSocket}) {
      for (int consumers : consumer_counts) {
        for (bool owned : {false, true}) {
          // kDirect has no consumers, so no consumer count or ownership.
          if (kind == TransportKind::kDirect &&
              (owned || consumers != *consumer_counts.begin())) {
            continue;
          }
          SCOPED_TRACE(TransportKindName(kind));
          SCOPED_TRACE(producers);
          SCOPED_TRACE(consumers);
          SCOPED_TRACE(owned);
          EngineConfig config = base;
          config.num_threads = producers;
          config.transport.kind = kind;
          config.transport.num_consumers = consumers;
          config.transport.queue_capacity = 8;
          config.transport.max_batch_runs = 16;
          config.transport.owned_shards = owned;
          const FleetObservation run = RunFleet(config);
          EXPECT_EQ(run.stats.stream_digest, baseline.stats.stream_digest);
          EXPECT_EQ(std::bit_cast<uint64_t>(run.stats.mean_slot_mse),
                    std::bit_cast<uint64_t>(baseline.stats.mean_slot_mse));
          ASSERT_EQ(run.stats.per_dim_mse.size(),
                    baseline.stats.per_dim_mse.size());
          for (size_t k = 0; k < run.stats.per_dim_mse.size(); ++k) {
            EXPECT_EQ(std::bit_cast<uint64_t>(run.stats.per_dim_mse[k]),
                      std::bit_cast<uint64_t>(baseline.stats.per_dim_mse[k]))
                << "dim " << k;
          }
          EXPECT_EQ(run.report_count, baseline.report_count);
          ASSERT_EQ(run.aggregates.size(), baseline.aggregates.size());
          for (size_t t = 0; t < run.aggregates.size(); ++t) {
            const SlotAggregate& got = run.aggregates[t];
            const SlotAggregate& want = baseline.aggregates[t];
            EXPECT_EQ(got.Count(), want.Count()) << "cell " << t;
            EXPECT_EQ(std::bit_cast<uint64_t>(got.Mean()),
                      std::bit_cast<uint64_t>(want.Mean()))
                << "cell " << t;
            EXPECT_EQ(std::bit_cast<uint64_t>(got.M2()),
                      std::bit_cast<uint64_t>(want.M2()))
                << "cell " << t;
          }
          EXPECT_EQ(run.histograms, baseline.histograms);
        }
      }
    }
  }
}

// The headline acceptance test: the mode matrix above for CAPP, IPP and
// APP at 1, 2 and 4 consumers.
TEST(TransportDeterminismTest, BitIdenticalAcrossKindsAndThreadMixes) {
  for (AlgorithmKind algorithm :
       {AlgorithmKind::kCapp, AlgorithmKind::kIpp, AlgorithmKind::kApp}) {
    SCOPED_TRACE(AlgorithmKindName(algorithm));
    ExpectBitIdenticalAcrossModes(TransportFleetConfig(algorithm), {1, 2, 4});
  }
}

// The multi-dimensional flavor: a d=4 fleet under both strategies at 2
// consumers. The queued paths carry these runs in 0xC6 frames, so this
// also pins the d-dim wire codec end to end.
TEST(TransportDeterminismTest, MultiDimBitIdenticalAcrossKindsAndModes) {
  for (MultidimStrategy strategy :
       {MultidimStrategy::kBudgetSplit, MultidimStrategy::kSampleSplit}) {
    SCOPED_TRACE(MultidimStrategyName(strategy));
    EngineConfig config = TransportFleetConfig(AlgorithmKind::kCapp);
    config.dims = 4;
    config.multidim_strategy = strategy;
    ExpectBitIdenticalAcrossModes(config, {2});
  }
}

// A fleet whose frames claim a different dimensionality than the
// collector was built with must count decode failures and fail Drain's
// cross-check, never silently reinterpret cells.
TEST(TransportDeterminismTest, FrameDimsMismatchIsLoud) {
  auto collector = ShardedCollector::Create();
  ASSERT_TRUE(collector.ok());  // a d=1 collector
  TransportOptions options;
  options.kind = TransportKind::kQueueFramed;
  options.num_consumers = 1;
  auto hub = TransportHub::Create(&*collector, options);
  ASSERT_TRUE(hub.ok());
  {
    auto producer = (*hub)->MakeProducer();
    const std::vector<double> run = {0.1, 0.2, 0.3, 0.4};
    producer.Publish(1, 0, /*dims=*/2, run);  // 0xC6 into a d=1 collector
  }
  const Status drained = (*hub)->Drain();
  EXPECT_FALSE(drained.ok());
  EXPECT_GT((*hub)->stats().decode_failures, 0u);
  EXPECT_EQ(collector->report_count(), 0u);
}

TEST(TransportDeterminismTest, QueuedFleetReportsTransportStats) {
  EngineConfig config = TransportFleetConfig(AlgorithmKind::kCapp);
  config.num_threads = 4;
  config.transport.kind = TransportKind::kQueueFramed;
  config.transport.num_consumers = 2;
  config.transport.max_batch_runs = 8;
  const FleetObservation run = RunFleet(config);
  EXPECT_EQ(run.stats.transport.runs, config.num_users);
  EXPECT_EQ(run.stats.transport.reports,
            config.num_users * config.num_slots);
  EXPECT_GT(run.stats.transport.frames, 0u);
  EXPECT_GT(run.stats.transport.wire_bytes,
            config.num_users * config.num_slots * 8);
  EXPECT_EQ(run.stats.transport.consumer_runs.size(), 2u);

  // The direct fleet leaves transport counters zeroed.
  const FleetObservation direct =
      RunFleet(TransportFleetConfig(AlgorithmKind::kCapp));
  EXPECT_EQ(direct.stats.transport.frames, 0u);
  EXPECT_EQ(direct.stats.transport.runs, 0u);
}

// --------------------------------------------------- aggregate saturation ----

TEST(SaturationTest, HubDrainFailsWhenAggregatesSaturate) {
  // An unnormalized workload (|value| > 2^16, e.g. raw taxi fares or
  // heart-rate-in-milliseconds telemetry) silently clamps inside the
  // fixed-point aggregates; the transport must refuse to call that a
  // clean session.
  for (TransportKind kind :
       {TransportKind::kDirect, TransportKind::kQueueFramed,
        TransportKind::kSocket}) {
    SCOPED_TRACE(TransportKindName(kind));
    auto collector = ShardedCollector::Create();
    ASSERT_TRUE(collector.ok());
    TransportOptions options;
    options.kind = kind;
    options.num_consumers = 1;
    auto hub = TransportHub::Create(&*collector, options);
    ASSERT_TRUE(hub.ok());
    {
      auto producer = (*hub)->MakeProducer();
      producer.Publish(1, 0, std::vector<double>{0.5, 1.0e6, 0.25});
      producer.Publish(2, 0, std::vector<double>{-70000.0});
    }
    const Status drained = (*hub)->Drain();
    EXPECT_FALSE(drained.ok());
    EXPECT_NE(drained.message().find("saturated"), std::string::npos)
        << drained.ToString();
    EXPECT_EQ(collector->saturated_report_count(), 2u);
    // The in-range reports still landed; only the clamped ones lie.
    EXPECT_EQ(collector->report_count(), 4u);
  }
}

}  // namespace
}  // namespace capp
