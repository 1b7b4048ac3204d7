#include "transport/wire_format.h"

#include <array>
#include <bit>
#include <cstring>
#include <string>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "core/check.h"

namespace capp {
namespace {

// Slice-by-8 CRC32 (same 0xEDB88320 polynomial and values as the classic
// bytewise loop): table[0] is the ordinary table; table[k][b] advances b
// through k additional zero bytes, letting the hot loop fold 8 input
// bytes per iteration. The WAL fsyncs large frame batches, so CRC
// throughput is on the durability ingest path, not just the wire.
constexpr std::array<std::array<uint32_t, 256>, 8> kCrcTable = [] {
  std::array<std::array<uint32_t, 256>, 8> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      table[k][i] = table[0][table[k - 1][i] & 0xFFu] ^
                    (table[k - 1][i] >> 8);
    }
  }
  return table;
}();

// Advances the CRC register `c` (pre-inverted, as the loops carry it)
// over n bytes, 8 at a time through the tables, then bytewise.
uint32_t Crc32Slice8Update(uint32_t c, const uint8_t* p, size_t n) {
  static_assert(std::endian::native == std::endian::little,
                "the 8-byte fold reads input as a little-endian word");
  while (n >= 8) {
    uint64_t chunk;
    __builtin_memcpy(&chunk, p, 8);  // frames are little-endian already
    chunk ^= c;
    c = kCrcTable[7][chunk & 0xFFu] ^
        kCrcTable[6][(chunk >> 8) & 0xFFu] ^
        kCrcTable[5][(chunk >> 16) & 0xFFu] ^
        kCrcTable[4][(chunk >> 24) & 0xFFu] ^
        kCrcTable[3][(chunk >> 32) & 0xFFu] ^
        kCrcTable[2][(chunk >> 40) & 0xFFu] ^
        kCrcTable[1][(chunk >> 48) & 0xFFu] ^
        kCrcTable[0][chunk >> 56];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    c = kCrcTable[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    ++p;
    --n;
  }
  return c;
}

#if defined(__x86_64__)
#define CAPP_CRC_FOLD_TARGET __attribute__((target("pclmul,sse4.1")))

CAPP_CRC_FOLD_TARGET inline __m128i Load16(const uint8_t* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

// The lane x moved forward by the distance `k`'s two constants encode,
// plus the next 16 bytes.
CAPP_CRC_FOLD_TARGET inline __m128i Fold16(__m128i x, __m128i k,
                                           __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009), in the
// bit-reflected domain of 0xEDB88320 with zlib's constants: k1/k2 fold a
// 128-bit lane forward 512 bits, k3/k4 forward 128 bits, k5 reduces 64
// bits to 32 + 32, and mu/P' are the Barrett pair (x^64 / P, P). Advances
// the register `c` over n bytes, n a multiple of 16 and at least 64.
// Compiled for PCLMULQDQ and SSE4.1 whatever the build flags; Crc32 calls
// it only after checking the host has both.
CAPP_CRC_FOLD_TARGET uint32_t Crc32Fold(uint32_t c, const uint8_t* p,
                                        size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i mu_poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_set_epi32(0, -1, 0, -1);
  // Four independent 128-bit lanes over 64-byte blocks.
  __m128i x0 =
      _mm_xor_si128(Load16(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = Load16(p + 16);
  __m128i x2 = Load16(p + 32);
  __m128i x3 = Load16(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = Fold16(x0, k1k2, Load16(p));
    x1 = Fold16(x1, k1k2, Load16(p + 16));
    x2 = Fold16(x2, k1k2, Load16(p + 32));
    x3 = Fold16(x3, k1k2, Load16(p + 48));
  }
  // Into one lane, then one 16-byte block at a time.
  x0 = Fold16(x0, k3k4, x1);
  x0 = Fold16(x0, k3k4, x2);
  x0 = Fold16(x0, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = Fold16(x0, k3k4, Load16(p));
  // 128 bits to 64, then 64 to 32 + 32.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00),
      _mm_srli_si128(x0, 4));
  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_and_si128(x0, low32);
  t = _mm_and_si128(_mm_clmulepi64_si128(t, mu_poly, 0x10), low32);
  t = _mm_clmulepi64_si128(t, mu_poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

#undef CAPP_CRC_FOLD_TARGET
#endif

// Varints cap at 10 bytes: ceil(64 / 7).
constexpr size_t kMaxVarintBytes = 10;

Status FrameError(const std::string& what) {
  return Status::InvalidArgument("wire frame: " + what);
}

// Appends one frame: magic, the header varints (dims only on 0xC6), the
// payload, and the CRC32 trailer. The payload is the values' IEEE-754 bits
// little-endian, which is the host order (Crc32 static_asserts it), so it
// goes in with one resize and one copy.
void AppendFrame(uint8_t magic, uint64_t user_id, uint64_t base_slot,
                 uint64_t dims, std::span<const double> values,
                 std::vector<uint8_t>& out) {
  const size_t start = out.size();
  out.push_back(magic);
  AppendVarint(user_id, out);
  AppendVarint(base_slot, out);
  if (magic == kWireFrameMagicMultiDim) AppendVarint(dims, out);
  AppendVarint(values.size(), out);
  const size_t payload_at = out.size();
  const size_t payload = values.size() * sizeof(double);
  out.resize(payload_at + payload + 4);
  if (payload > 0) {
    std::memcpy(out.data() + payload_at, values.data(), payload);
  }
  const uint32_t crc = Crc32(
      std::span(out).subspan(start, payload_at + payload - start));
  std::memcpy(out.data() + payload_at + payload, &crc, 4);
}

}  // namespace

void AppendVarint(uint64_t value, std::vector<uint8_t>& out) {
  while (value >= 0x80) {
    out.push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<uint8_t>(value));
}

size_t DecodeVarint(std::span<const uint8_t> bytes, uint64_t* value) {
  uint64_t result = 0;
  for (size_t i = 0; i < bytes.size() && i < kMaxVarintBytes; ++i) {
    const uint8_t byte = bytes[i];
    // Byte 10 may only carry the single remaining bit of a 64-bit value.
    if (i == kMaxVarintBytes - 1 && byte > 1) return 0;
    result |= static_cast<uint64_t>(byte & 0x7F) << (7 * i);
    if ((byte & 0x80) == 0) {
      // Minimal-length rule: a final group of zero means the previous byte
      // already determined the value (0x80 0x00 would decode to the same 0
      // as the single byte 0x00), so accepting it would give values more
      // than one wire representation -- and let a flipped continuation bit
      // survive as a "valid" overlong varint. Reject every non-canonical
      // encoding instead.
      if (i > 0 && byte == 0) return 0;
      *value = result;
      return i + 1;
    }
  }
  return 0;  // Ran out of bytes with the continuation bit still set.
}

uint32_t Crc32(std::span<const uint8_t> bytes) {
  uint32_t c = 0xFFFFFFFFu;
  const uint8_t* p = bytes.data();
  size_t n = bytes.size();
#if defined(__x86_64__)
  static const bool kFold = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  if (kFold && n >= 64) {
    const size_t folded = n & ~size_t{15};
    c = Crc32Fold(c, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return Crc32Slice8Update(c, p, n) ^ 0xFFFFFFFFu;
}

namespace internal {

uint32_t Crc32Slice8(std::span<const uint8_t> bytes) {
  return Crc32Slice8Update(0xFFFFFFFFu, bytes.data(), bytes.size()) ^
         0xFFFFFFFFu;
}

}  // namespace internal

void AppendUserRunFrame(uint64_t user_id, uint64_t base_slot,
                        std::span<const double> values,
                        std::vector<uint8_t>& out) {
  // Encode must honor the same bound decode enforces, or a frame could be
  // produced that every consumer rejects as corrupt.
  CAPP_CHECK(values.size() <= kWireMaxRunLength);
  AppendFrame(kWireFrameMagic, user_id, base_slot, 1, values, out);
}

void AppendMultiDimRunFrame(uint64_t user_id, uint64_t base_slot,
                            uint64_t dims, std::span<const double> values,
                            std::vector<uint8_t>& out) {
  CAPP_CHECK(dims >= 1 && dims <= kWireMaxDims);
  if (dims == 1) {
    // The canonical one-dimensional frame: d=1 byte streams (and so every
    // committed digest and WAL fingerprint) are unchanged by this path.
    AppendUserRunFrame(user_id, base_slot, values, out);
    return;
  }
  CAPP_CHECK(values.size() <= kWireMaxRunLength);
  CAPP_CHECK(values.size() % dims == 0);
  AppendFrame(kWireFrameMagicMultiDim, user_id, base_slot, dims, values, out);
}

namespace {

// Shared header parse for both decode and peek: magic, the 3 (0xC5) or 4
// (0xC6) varints, and the dims/count validity rules. On success `cursor`
// is one past the header and the outputs are validated.
Status ParseFrameHeader(std::span<const uint8_t> bytes, uint64_t* user_id,
                        uint64_t* base_slot, uint64_t* dims,
                        uint64_t* count, size_t* cursor) {
  if (bytes.empty()) return FrameError("empty input");
  const bool multi = bytes[0] == kWireFrameMagicMultiDim;
  if (!multi && bytes[0] != kWireFrameMagic) {
    return FrameError("bad magic byte");
  }
  *cursor = 1;
  *dims = 1;
  for (auto [field, name] : {std::pair{user_id, "user_id"},
                             {base_slot, "base_slot"}}) {
    const size_t used = DecodeVarint(bytes.subspan(*cursor), field);
    if (used == 0) {
      return FrameError(std::string("truncated ") + name + " varint");
    }
    *cursor += used;
  }
  if (multi) {
    const size_t used = DecodeVarint(bytes.subspan(*cursor), dims);
    if (used == 0) return FrameError("truncated dims varint");
    *cursor += used;
    if (*dims == 0) return FrameError("zero dims");
    if (*dims == 1) {
      // d=1 must travel as 0xC5; a 0xC6 claiming one dimension would give
      // the same run two wire representations (and two digest-relevant
      // byte streams), exactly the ambiguity the canonical-varint rule
      // exists to kill.
      return FrameError("non-canonical dims=1 multi-dim frame");
    }
    if (*dims > kWireMaxDims) return FrameError("absurd dimension count");
  }
  {
    const size_t used = DecodeVarint(bytes.subspan(*cursor), count);
    if (used == 0) return FrameError("truncated count varint");
    *cursor += used;
  }
  if (*count > kWireMaxRunLength) return FrameError("absurd run length");
  if (multi && *count % *dims != 0) {
    return FrameError("count not divisible by dims");
  }
  return Status::OK();
}

// The run's last cell ((base_slot + slots) * dims - 1) must fit the
// collector's uint32 cell index, i.e. base_slot + slots <= limit.
// Compared as a subtraction so a base_slot near 2^64 cannot wrap;
// slots <= limit always holds because count <= kWireMaxRunLength.
// Checked only once the frame is otherwise whole (and, on decode,
// CRC-valid), so OutOfRange never describes a torn or damaged frame.
Status CheckRunFitsCellIndex(uint64_t base_slot, uint64_t dims,
                             uint64_t count) {
  static_assert(kWireMaxRunLength <= kWireMaxCells);
  const uint64_t limit = kWireMaxCells / dims;
  if (base_slot > limit - count / dims) {
    return Status::OutOfRange(
        "wire frame: run ends past the collector's uint32 cell index");
  }
  return Status::OK();
}

}  // namespace

Result<size_t> DecodeUserRunFrame(std::span<const uint8_t> bytes,
                                  uint64_t* user_id, uint64_t* base_slot,
                                  uint64_t* dims,
                                  std::vector<double>& values) {
  uint64_t count = 0;
  size_t cursor = 0;
  CAPP_RETURN_IF_ERROR(
      ParseFrameHeader(bytes, user_id, base_slot, dims, &count, &cursor));
  // Payload + trailer must fit in what's left (checked before multiplying
  // blows past the span: count is already <= 2^24).
  const size_t payload = static_cast<size_t>(count) * 8;
  if (bytes.size() - cursor < payload + 4) {
    return FrameError("truncated payload");
  }
  const uint32_t computed = Crc32(bytes.subspan(0, cursor + payload));
  uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + cursor + payload, 4);
  if (computed != stored) return FrameError("CRC mismatch");
  CAPP_RETURN_IF_ERROR(CheckRunFitsCellIndex(*base_slot, *dims, count));

  // Little-endian payload on a little-endian host: one bulk copy.
  values.resize(count);
  if (payload > 0) std::memcpy(values.data(), bytes.data() + cursor, payload);
  return cursor + payload + 4;
}

Result<size_t> DecodeUserRunFrame(std::span<const uint8_t> bytes,
                                  uint64_t* user_id, uint64_t* base_slot,
                                  std::vector<double>& values) {
  uint64_t dims = 1;
  CAPP_ASSIGN_OR_RETURN(
      const size_t consumed,
      DecodeUserRunFrame(bytes, user_id, base_slot, &dims, values));
  if (dims != 1) {
    // This overload's callers treat every value as one slot's scalar;
    // silently flattening a d-dim payload here would merge attributes.
    return FrameError("multi-dim frame through the one-dim decoder");
  }
  return consumed;
}

Result<size_t> UserRunFrameLength(std::span<const uint8_t> bytes) {
  uint64_t user_id = 0;
  uint64_t base_slot = 0;
  uint64_t dims = 1;
  uint64_t count = 0;
  size_t cursor = 0;
  CAPP_RETURN_IF_ERROR(
      ParseFrameHeader(bytes, &user_id, &base_slot, &dims, &count, &cursor));
  return cursor + static_cast<size_t>(count) * 8 + 4;
}

Result<WireFrameHeader> PeekUserRunFrame(std::span<const uint8_t> bytes) {
  WireFrameHeader header;
  size_t cursor = 0;
  CAPP_RETURN_IF_ERROR(ParseFrameHeader(bytes, &header.user_id,
                                        &header.base_slot, &header.dims,
                                        &header.count, &cursor));
  header.frame_bytes = cursor + static_cast<size_t>(header.count) * 8 + 4;
  if (header.frame_bytes > bytes.size()) {
    return FrameError("frame extends past the buffer");
  }
  CAPP_RETURN_IF_ERROR(
      CheckRunFitsCellIndex(header.base_slot, header.dims, header.count));
  return header;
}

}  // namespace capp
