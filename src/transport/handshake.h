// Versioned connection handshake for the socket transport (unix *and*
// TCP): the first bytes on every connection, exchanged before any wire
// frame flows, so mismatched peers are refused loudly instead of
// mis-ingesting each other's streams.
//
//   client -> server   Hello  (44 bytes, fixed layout, CRC32 trailer)
//   server -> client   Ack    (41 bytes, fixed layout, CRC32 trailer)
//
// The Hello carries the protocol version, capability bits, the client's
// engine-config fingerprint and dimension count (the server refuses any
// mismatch), and the stream's identity: a per-process client id plus the
// stream's index within the client's striped connection set. The Ack
// echoes the server's view and -- the resume half of the protocol -- the
// last chunk sequence number the server fully ingested for this stream,
// so a reconnecting client replays exactly the suffix the server missed.
//
// After an accepted handshake the chunk protocol is sequence-stamped:
//
//   [u32 LE length][u64 LE seq][chunk payload] ...   data chunk
//   [u32 LE 0][u64 LE final_seq]                     FIN, then close
//
// seq starts at 1 and survives reconnects; the server skips any chunk at
// or below its last ingested sequence (replay dedup -- a resent chunk can
// never double-ingest) and treats a gap as a protocol violation. The FIN
// carries the stream's final sequence as a cross-check: a stream is clean
// only if the server's contiguously-ingested sequence matches it. Every
// kStreamAckEveryChunks (8) ingested chunks the server sends a 16-byte
// StreamAck back over the same connection so the client can trim its
// retained replay window to the chunks in flight or not yet acked; after
// ingesting a valid FIN it sends one final 16-byte ack under the distinct
// kStreamFinAckMagic, which is the only frame that lets the client
// declare the stream complete.
//
// A connection that closes after zero bytes is a benign probe (liveness
// checks, port scans, the server's own shutdown wake-up) and is ignored.
#ifndef CAPP_TRANSPORT_HANDSHAKE_H_
#define CAPP_TRANSPORT_HANDSHAKE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "core/status.h"

namespace capp {

/// First four bytes of a client Hello ("CAPP", little-endian).
inline constexpr uint32_t kHandshakeHelloMagic = 0x50504143u;
/// First four bytes of a server Ack ("CAPA", little-endian).
inline constexpr uint32_t kHandshakeAckMagic = 0x41504143u;
/// First four bytes of a mid-stream server ack ("CAPK", little-endian).
inline constexpr uint32_t kStreamAckMagic = 0x4B504143u;
/// First four bytes of the post-FIN server ack ("CAPF", little-endian).
/// Deliberately distinct from kStreamAckMagic: when a stream's chunk
/// count lands exactly on the ack cadence, the last mid-stream ack and
/// the FIN ack carry the same sequence number, and only the magic tells
/// the client "your FIN was ingested" apart from "your last chunk was".
/// Conflating them lets a connection kill strand a server-side stream
/// unfinned while the client believes the run completed.
inline constexpr uint32_t kStreamFinAckMagic = 0x46504143u;

/// Protocol version of the handshake + sequenced-chunk framing. Version 1
/// was the pre-handshake bare chunk stream (never tagged on the wire);
/// version 2 added the handshake, sequence numbers, and resume.
inline constexpr uint32_t kTransportProtocolVersion = 2;

/// Capability bit: the peer retains (client) / acks (server) a resume
/// window, so a dropped connection can be replayed instead of aborted.
inline constexpr uint32_t kCapResume = 1u << 0;

/// Encoded sizes, CRC trailer included.
inline constexpr size_t kHandshakeHelloBytes = 44;
inline constexpr size_t kHandshakeAckBytes = 41;
inline constexpr size_t kStreamAckBytes = 16;

/// Server -> client ack cadence: one StreamAck per this many ingested
/// chunks. The client's retained replay window holds the chunks in flight
/// (socket buffers and the server's consumer ring) plus up to this many
/// ingested but not yet acked, so the cadence is what keeps a fast
/// producer's resident memory low; an ack costs 16 bytes per 8 chunks of
/// up to a few hundred KB.
inline constexpr uint64_t kStreamAckEveryChunks = 8;

/// Why a server refused a Hello.
enum class HandshakeRefusal : uint32_t {
  kNone = 0,
  kBadVersion = 1,      ///< Peer speaks a different protocol version.
  kBadFingerprint = 2,  ///< Engine-config fingerprints differ.
  kBadDims = 3,         ///< Report dimensionality differs.
  kMalformed = 4,       ///< Frame failed magic/CRC/shape validation.
};

/// Display name of a refusal code ("version mismatch", ...).
std::string_view HandshakeRefusalName(HandshakeRefusal refusal);

/// The client's opening frame.
struct HandshakeHello {
  uint32_t version = kTransportProtocolVersion;
  uint32_t capabilities = kCapResume;
  /// Engine-config fingerprint both peers must share (see
  /// StreamHandshakeFingerprint); 0 means "unfingerprinted" and still
  /// must match the server's 0.
  uint64_t fingerprint = 0;
  /// Values per slot the client's frames will carry.
  uint32_t dims = 1;
  /// Identity of the stream, stable across reconnects: one client id per
  /// fleet process (or hub), one stream index per striped connection.
  uint64_t client_id = 0;
  uint32_t stream_index = 0;
  /// Total striped streams this client will open; the server completes
  /// the client's session when this many streams have FIN'd.
  uint32_t stream_count = 1;
};

/// The server's reply.
struct HandshakeAck {
  bool accepted = false;
  HandshakeRefusal refusal = HandshakeRefusal::kNone;
  uint32_t version = kTransportProtocolVersion;
  uint32_t capabilities = kCapResume;
  uint64_t fingerprint = 0;
  uint32_t dims = 1;
  /// Last chunk sequence number the server contiguously ingested for this
  /// stream (0 for a fresh stream). The client replays everything after
  /// it from its retained window.
  uint64_t resume_seq = 0;
};

/// Encodes a Hello into exactly kHandshakeHelloBytes at `out`.
void EncodeHandshakeHello(const HandshakeHello& hello, uint8_t* out);

/// Decodes a Hello; fails on a short span, bad magic, or CRC mismatch.
/// Version/fingerprint/dims *policy* is the server's call, not the
/// codec's: a well-formed Hello from an incompatible peer decodes fine
/// and is refused with a typed Ack.
Result<HandshakeHello> DecodeHandshakeHello(std::span<const uint8_t> bytes);

/// Encodes an Ack into exactly kHandshakeAckBytes at `out`.
void EncodeHandshakeAck(const HandshakeAck& ack, uint8_t* out);

/// Decodes an Ack; fails on a short span, bad magic, or CRC mismatch.
Result<HandshakeAck> DecodeHandshakeAck(std::span<const uint8_t> bytes);

/// Encodes a mid-stream server ack into exactly kStreamAckBytes at `out`.
void EncodeStreamAck(uint64_t acked_seq, uint8_t* out);

/// Decodes a mid-stream ack; fails on a short span, bad magic, or CRC
/// mismatch. Returns the acked sequence number.
Result<uint64_t> DecodeStreamAck(std::span<const uint8_t> bytes);

/// Encodes the post-FIN server ack (kStreamFinAckMagic, same 16-byte
/// layout as a mid-stream ack) into exactly kStreamAckBytes at `out`.
void EncodeStreamFinAck(uint64_t final_seq, uint8_t* out);

/// Decodes a post-FIN ack; fails on a short span, bad magic (including a
/// mid-stream ack's magic), or CRC mismatch.
Result<uint64_t> DecodeStreamFinAck(std::span<const uint8_t> bytes);

}  // namespace capp

#endif  // CAPP_TRANSPORT_HANDSHAKE_H_
