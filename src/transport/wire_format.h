// Binary wire framing for sanitized user-run report batches: the compact,
// fast sibling of stream/report_io.h's CSV format. One frame carries one
// device's run of consecutive slot reports:
//
//   [0xC5 magic] [varint user_id] [varint base_slot] [varint count]
//   [count x 8-byte little-endian IEEE-754 doubles] [4-byte LE CRC32]
//
// Multi-attribute runs (d values per slot) travel in the 0xC6 frame,
// which inserts a dimension count after base_slot:
//
//   [0xC6 magic] [varint user_id] [varint base_slot] [varint dims]
//   [varint count] [count x 8-byte LE doubles, dim-major] [4-byte LE CRC32]
//
// `count` stays the total number of doubles (so framing math is shared),
// `dims` must divide it, and the payload is dim-major: all of dimension
// 0's slots, then dimension 1's, so each attribute is one contiguous
// scalar run and per-dimension consumers slice instead of gather. A
// one-dimensional run always uses 0xC5 -- 0xC6 with dims=1 is rejected
// as non-canonical, exactly like an overlong varint -- so every d=1
// byte stream, digest, WAL fingerprint, and committed baseline is
// unchanged by the multi-dim extension.
//
// The CRC32 (IEEE reflected polynomial) covers everything before the
// trailer, so truncated, bit-flipped, or mis-framed bytes are rejected
// instead of poisoning the collector. Frames are self-delimiting and
// concatenate freely: a transport batch is just frames back to back.
// Reports are already locally perturbed when they reach the wire, so the
// format carries nothing sensitive and brokers may buffer or replay it
// freely (the paper's Fig. 1 deployment model).
#ifndef CAPP_TRANSPORT_WIRE_FORMAT_H_
#define CAPP_TRANSPORT_WIRE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/status.h"

namespace capp {

/// First byte of every one-dimensional user-run frame.
inline constexpr uint8_t kWireFrameMagic = 0xC5;

/// First byte of every multi-dimensional (d >= 2) user-run frame.
inline constexpr uint8_t kWireFrameMagicMultiDim = 0xC6;

/// Upper bound on a frame's report count; decode rejects anything larger
/// before trusting the length (a corrupted varint must not drive a huge
/// allocation).
inline constexpr uint64_t kWireMaxRunLength = 1u << 24;

/// Upper bound on a 0xC6 frame's dimension count; decode rejects anything
/// larger before trusting the per-dimension arithmetic.
inline constexpr uint64_t kWireMaxDims = 1u << 12;

/// Cells the collector can index (cell = slot * dims + dim, held in a
/// uint32). Decode and peek refuse a frame whose run ends past it --
/// base_slot + count / dims > kWireMaxCells / dims -- with OutOfRange,
/// so a CRC-valid frame cannot drive the collector's slot arithmetic
/// past its index.
inline constexpr uint64_t kWireMaxCells = uint64_t{1} << 32;

/// Appends `value` as a LEB128 varint (7 bits per byte, high bit = more).
void AppendVarint(uint64_t value, std::vector<uint8_t>& out);

/// Decodes a varint from the head of `bytes` into *value. Returns the
/// number of bytes consumed, or 0 if `bytes` is truncated, the encoding
/// exceeds 10 bytes / overflows 64 bits, or the encoding is non-canonical
/// (overlong: a multi-byte varint whose final group is zero, e.g.
/// 0x80 0x00). Every value has exactly one accepted wire representation.
size_t DecodeVarint(std::span<const uint8_t> bytes, uint64_t* value);

/// CRC32 (IEEE 802.3, reflected, init/final 0xFFFFFFFF) of `bytes`. On
/// x86-64 hosts with PCLMULQDQ and SSE4.1 (checked once, at the first
/// call) inputs of 64 bytes or more fold 16 bytes per carry-less
/// multiply; the value is the same on every path.
uint32_t Crc32(std::span<const uint8_t> bytes);

namespace internal {

/// Crc32 through the portable slice-by-8 tables alone: the path of hosts
/// without carry-less multiply, and the reference the folded path is
/// tested against.
uint32_t Crc32Slice8(std::span<const uint8_t> bytes);

}  // namespace internal

/// Appends one framed user run to `out`. Any double bit pattern
/// round-trips exactly.
void AppendUserRunFrame(uint64_t user_id, uint64_t base_slot,
                        std::span<const double> values,
                        std::vector<uint8_t>& out);

/// Appends one framed d-dimensional user run (`values` dim-major, size a
/// multiple of `dims`). dims == 1 emits the 0xC5 frame byte-for-byte;
/// dims >= 2 emits 0xC6.
void AppendMultiDimRunFrame(uint64_t user_id, uint64_t base_slot,
                            uint64_t dims, std::span<const double> values,
                            std::vector<uint8_t>& out);

/// Decodes the frame at the head of `bytes`. On success fills *user_id,
/// *base_slot, and `values` (cleared and refilled, capacity reused) and
/// returns the number of bytes consumed, so concatenated frames decode by
/// advancing a cursor. Fails with InvalidArgument on a bad magic byte,
/// truncation, an absurd run length, or a CRC mismatch, and with
/// OutOfRange on an otherwise whole, CRC-valid frame whose run ends past
/// kWireMaxCells (so OutOfRange never means a torn frame); `values` is
/// unspecified after a failure. This overload serves one-dimensional
/// call sites: a 0xC6 frame decodes successfully only through the
/// dims-aware overload below (here it fails loudly rather than silently
/// flattening d attributes into one).
Result<size_t> DecodeUserRunFrame(std::span<const uint8_t> bytes,
                                  uint64_t* user_id, uint64_t* base_slot,
                                  std::vector<double>& values);

/// Dims-aware decode accepting both magics: a 0xC5 frame yields
/// *dims == 1, a 0xC6 frame yields its encoded dimension count. `values`
/// is filled in the payload's dim-major order. Beyond the 0xC5 failure
/// modes, fails loudly on dims == 0, a 0xC6 frame claiming dims == 1
/// (non-canonical: d=1 must travel as 0xC5), dims > kWireMaxDims, and a
/// count that `dims` does not divide.
Result<size_t> DecodeUserRunFrame(std::span<const uint8_t> bytes,
                                  uint64_t* user_id, uint64_t* base_slot,
                                  uint64_t* dims,
                                  std::vector<double>& values);

/// Longest frame header: the magic byte and four varints of at most 10
/// bytes each (0xC6 carries user_id, base_slot, dims and count).
inline constexpr size_t kWireMaxFrameHeaderBytes = 1 + 4 * 10;

/// Length of the frame at the head of `bytes` -- header, payload and CRC
/// -- read from its header alone: unlike PeekUserRunFrame, the rest of
/// the frame may lie past `bytes`. Fails like PeekUserRunFrame on a bad
/// magic byte, a malformed varint, or an absurd run length or dimension
/// count; checks neither the CRC nor the slot range. Given at least
/// kWireMaxFrameHeaderBytes bytes, a failure means the header is damaged,
/// not cut short. A reader that streams frames from a file uses this to
/// learn how many bytes to buffer before decoding.
Result<size_t> UserRunFrameLength(std::span<const uint8_t> bytes);

/// Header of one wire frame, parsed without touching payload or CRC.
struct WireFrameHeader {
  uint64_t user_id = 0;
  uint64_t base_slot = 0;
  uint64_t dims = 1;      ///< Values per slot (1 for a 0xC5 frame).
  uint64_t count = 0;     ///< Doubles in the frame's payload (all dims).
  size_t frame_bytes = 0; ///< Whole frame length, CRC trailer included.
};

/// Parses just the header of the frame at the head of `bytes` -- magic,
/// varints, and the implied total length -- without validating the CRC.
/// The socket reader uses this to split a received chunk into individual
/// frames and route each by user id; the consumer still CRC-checks every
/// frame before ingest. Accepts both 0xC5 and 0xC6 frames, applying the
/// same dims and slot-range validation as the dims-aware decode. Fails on
/// a bad magic byte, a malformed varint, an absurd run length or
/// dimension count, a run ending past kWireMaxCells, or a frame
/// extending past `bytes`.
Result<WireFrameHeader> PeekUserRunFrame(std::span<const uint8_t> bytes);

}  // namespace capp

#endif  // CAPP_TRANSPORT_WIRE_FORMAT_H_
