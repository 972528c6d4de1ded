#pragma once

/// \file
/// Binary wire protocol of the networked embed service: a compact
/// length-prefixed framing (versioned 16-byte header, explicit little-endian
/// field encoding) plus payload codecs for EmbedRequest / EmbedResponse /
/// FaultSet and the STATS snapshot. Decoding is hardened: every read is
/// bounds-checked, counts are validated against the remaining payload, and
/// malformed input (truncated frames, bad magic, absurd lengths, garbage
/// bytes) decodes to a clean error — never UB. The codec is shared verbatim
/// by net::Server, net::Client and the wire fuzz tests.
///
/// Frame layout (all integers little-endian):
///
///   offset 0   u8[4]  magic  'D' 'B' 'R' '1'
///   offset 4   u8     protocol version (kWireVersion)
///   offset 5   u8     opcode (Op; replies set kReplyBit)
///   offset 6   u16    flags (reserved, must be zero)
///   offset 8   u32    request id (client-chosen, echoed on the reply)
///   offset 12  u32    payload length (<= kMaxPayload)
///   offset 16  u8[payload length] payload
///
/// Every reply payload leads with a WireStatus byte; a non-kOk status is
/// followed only by an error-message string. Payload encodings are
/// documented on the encode_* functions below.
///
/// Copies: a sender encodes each payload once, in place behind its header
/// (FrameWriter); a receiver reads straight into its FrameParser's buffer
/// (FrameParser::receive) and decodes from a view of it (Frame::payload).
/// Word vectors cross as one block copy each way (copy_wire_order).

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "service/engine.hpp"
#include "service/session.hpp"
#include "service/types.hpp"

namespace dbr::net {

/// Protocol version carried by every frame header.
inline constexpr std::uint8_t kWireVersion = 1;
/// Frame header size in bytes.
inline constexpr std::size_t kHeaderSize = 16;
/// Upper bound on a frame payload; larger lengths are rejected at the
/// header, before any allocation, so a hostile length cannot OOM the peer.
inline constexpr std::uint32_t kMaxPayload = 16u << 20;
/// Frame magic bytes "DBR1".
inline constexpr std::uint8_t kMagic[4] = {'D', 'B', 'R', '1'};
/// Set on the opcode of every reply frame.
inline constexpr std::uint8_t kReplyBit = 0x80;
/// Largest FaultKind byte a request may carry (decode_request, session config).
inline constexpr std::uint8_t kMaxFaultKind =
    static_cast<std::uint8_t>(service::FaultKind::kMixed);
/// Largest Strategy byte a request or reply may carry.
inline constexpr std::uint8_t kMaxStrategy =
    static_cast<std::uint8_t>(service::Strategy::kMixed);
/// Largest EmbedStatus byte a reply may carry.
inline constexpr std::uint8_t kMaxEmbedStatus =
    static_cast<std::uint8_t>(service::EmbedStatus::kInternalError);

/// Operation selector of a request frame. Session ops act on the
/// connection's lazily created EmbedSession; kSolve is stateless.
enum class Op : std::uint8_t {
  kSolve = 1,          ///< stateless one-shot solve (EmbedRequest payload)
  kSessionConfig = 2,  ///< bind the connection session's instance/strategy
  kFaultAdd = 3,       ///< kinded add_fault on the session
  kFaultRemove = 4,    ///< kinded clear_fault on the session
  kFaultReset = 5,     ///< reset_faults on the session
  kSessionSolve = 6,   ///< current_ring of the session
  kStats = 7,          ///< coherent engine/server/session stats snapshot
};

/// True for opcodes a request frame may carry.
bool valid_op(std::uint8_t raw);

/// Wire-level outcome of one request, orthogonal to service::EmbedStatus
/// (which classifies the *embedding* answer inside a kOk reply).
enum class WireStatus : std::uint8_t {
  kOk = 0,            ///< request executed; payload follows
  kBadFrame = 1,      ///< payload did not decode / unknown opcode
  kBadRequest = 2,    ///< a documented precondition was violated
  kNoSession = 3,     ///< session op before kSessionConfig
  kOverloaded = 4,    ///< admission control rejected (queue bound reached)
  kTimeout = 5,       ///< request exceeded the server's per-request deadline
  kShuttingDown = 6,  ///< server is draining; no new work accepted
  kInternal = 7,      ///< unexpected server-side failure
};

/// Short lower-case name of a wire status (e.g. "ok", "overloaded").
const char* to_string(WireStatus s);

/// Decoded frame header (magic stripped, fields validated).
struct FrameHeader {
  std::uint8_t version = kWireVersion;
  std::uint8_t opcode = 0;       ///< raw opcode byte (may carry kReplyBit)
  std::uint16_t flags = 0;       ///< reserved; must be zero
  std::uint32_t request_id = 0;  ///< echoed on the reply
  std::uint32_t payload_len = 0;
};

/// Why a header (or stream) failed to parse. Errors at this level poison
/// the whole byte stream — the connection must be closed, since frame
/// boundaries can no longer be trusted.
enum class FrameError : std::uint8_t {
  kNone = 0,
  kBadMagic,    ///< first four bytes are not "DBR1"
  kBadVersion,  ///< unknown protocol version
  kBadFlags,    ///< reserved flags set
  kOversized,   ///< payload length exceeds kMaxPayload
};

/// Parses a frame header from the first kHeaderSize bytes of `bytes`.
/// Returns nullopt with *err = kNone when fewer bytes are available (read
/// more), nullopt with *err != kNone on a malformed header.
std::optional<FrameHeader> decode_header(std::span<const std::uint8_t> bytes,
                                         FrameError* err);

/// Appends a frame header for `payload_len` payload bytes to `out`.
void encode_header(std::vector<std::uint8_t>& out, std::uint8_t opcode,
                   std::uint32_t request_id, std::uint32_t payload_len);

/// The byte-order helper: copies `count` unsigned integers of type T from
/// `src` to `dst` (either may be unaligned), converting between host order
/// and the wire's little-endian order. The conversion is its own inverse,
/// so encoders and decoders both use it. The host's byte order is fixed at
/// compile time: on a little-endian host this is a single memcpy, and only
/// a big-endian build carries the per-value byte swap. Callers therefore
/// have one path and no runtime branch.
template <typename T>
void copy_wire_order(void* dst, const void* src, std::size_t count) {
  static_assert(std::is_unsigned_v<T>);
  if constexpr (std::endian::native == std::endian::little) {
    if (count != 0) std::memcpy(dst, src, count * sizeof(T));
  } else {
    auto* d = static_cast<std::uint8_t*>(dst);
    const auto* s = static_cast<const std::uint8_t*>(src);
    for (std::size_t i = 0; i < count * sizeof(T); i += sizeof(T))
      for (std::size_t b = 0; b < sizeof(T); ++b)
        d[i + b] = s[i + sizeof(T) - 1 - b];
  }
}

/// Bounds-checked little-endian reader over one payload. All accessors
/// return zero values once the reader has failed; check ok() (and
/// exhausted() for trailing garbage) after the last field.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint16_t u16() { return get<std::uint16_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  double f64() { return std::bit_cast<double>(u64()); }
  /// Length-prefixed (u32) byte string; fails if the length exceeds the
  /// remaining payload.
  std::string str();
  /// Length-prefixed (u32 count) vector of u64 words, read as one block;
  /// the count is validated against the remaining bytes before any
  /// allocation.
  std::vector<Word> words();

  /// True while every read so far stayed in bounds.
  bool ok() const { return ok_; }
  /// True when the payload was consumed exactly (no trailing bytes).
  bool exhausted() const { return ok_ && pos_ == bytes_.size(); }
  std::size_t remaining() const { return ok_ ? bytes_.size() - pos_ : 0; }

 private:
  /// Consumes `count` bytes and returns where they start, or fails the
  /// reader (and returns null) when fewer remain.
  const std::uint8_t* take(std::size_t count) {
    if (!ok_ || bytes_.size() - pos_ < count) {
      ok_ = false;
      return nullptr;
    }
    const std::uint8_t* p = bytes_.data() + pos_;
    pos_ += count;
    return p;
  }
  template <typename T>
  T get() {
    T v = 0;
    if (const std::uint8_t* p = take(sizeof(T))) copy_wire_order<T>(&v, p, 1);
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Little-endian appender building one payload (or whole frame) at the end
/// of a caller-owned buffer. Each field is one append; a word vector is one
/// block copy.
class WireWriter {
 public:
  explicit WireWriter(std::vector<std::uint8_t>& out) : out_(&out) {}

  void u8(std::uint8_t v) { out_->push_back(v); }
  void u16(std::uint16_t v) { put(&v, 1); }
  void u32(std::uint32_t v) { put(&v, 1); }
  void u64(std::uint64_t v) { put(&v, 1); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s);
  /// u32 count, then the words. Throws std::length_error when the count
  /// does not fit the u32 prefix.
  void words(std::span<const Word> ws);

 protected:
  std::vector<std::uint8_t>* out_;

 private:
  template <typename T>
  void put(const T* src, std::size_t count) {
    const std::size_t at = out_->size();
    out_->resize(at + count * sizeof(T));
    copy_wire_order<T>(out_->data() + at, src, count);
  }
};

/// Builds one frame in place at the end of a caller-owned buffer, so a
/// payload is encoded exactly once, directly behind its header.
///
/// Contract:
///  * The constructor appends a 16-byte header for `opcode` and
///    `request_id` whose length field is still zero, and remembers where
///    the frame starts. Bytes before that point are never touched, so
///    frames can be built back to back in one buffer.
///  * Everything appended to the buffer after construction is the payload:
///    fields written through the WireWriter base, or an encode_* function
///    appending to the same vector.
///  * finish() checks the payload against kMaxPayload. When it fits,
///    finish() fills in the header's length and returns true. When it does
///    not, finish() truncates the buffer back to the end of the header and
///    returns false. The header is still reserved, so the caller can write
///    a different payload (a typed error, say) and call finish() again.
///  * restart() drops the payload written so far in the same way.
/// Until finish() has returned true the buffer does not hold a valid frame.
class FrameWriter : public WireWriter {
 public:
  FrameWriter(std::vector<std::uint8_t>& out, std::uint8_t opcode,
              std::uint32_t request_id);

  /// Payload bytes written since the header (or the last restart()).
  std::size_t payload_size() const {
    return out_->size() - start_ - kHeaderSize;
  }
  /// Truncates the buffer to the end of the header (an empty payload).
  void restart() { out_->resize(start_ + kHeaderSize); }
  /// Seals the frame; false (and an empty payload) when it is oversized.
  [[nodiscard]] bool finish();

 private:
  std::size_t start_;  ///< offset of the frame's first header byte
};

// --- FaultSet ---------------------------------------------------------------

/// Appends a FaultSet: u32 node count, node words, u32 edge count, edge
/// words.
void encode_fault_set(WireWriter& w, const service::FaultSet& set);

/// Reads a FaultSet written by encode_fault_set; false on malformed input.
bool decode_fault_set(WireReader& r, service::FaultSet* set);

// --- EmbedRequest (kSolve payload) ------------------------------------------

/// Appends a kSolve payload: u32 base, u32 n, u8 fault kind, u8 strategy,
/// u8 want_ring, u8 reserved, then a FaultSet encoding written straight
/// from request.faults (nodes) and request.edge_faults (edges). `want_ring`
/// false asks the server to omit
/// the ring words from the reply (bounds/lengths still included) — the load
/// generator's bandwidth mode.
void encode_request(std::vector<std::uint8_t>& out,
                    const service::EmbedRequest& request, bool want_ring);

/// Decodes a kSolve payload. Enum bytes outside the declared ranges and
/// counts that overrun the payload fail cleanly (returns false, outputs
/// untouched or partially filled but always valid vectors).
bool decode_request(std::span<const std::uint8_t> payload,
                    service::EmbedRequest* request, bool* want_ring);

// --- EmbedResponse (solve reply payload) ------------------------------------

/// A decoded solve reply: the embedding answer plus serve provenance. The
/// wire mirror of service::EmbedResponse (with the shared_ptr flattened).
struct WireEmbed {
  service::EmbedStatus status = service::EmbedStatus::kOk;
  service::Strategy strategy_used = service::Strategy::kAuto;
  bool cache_hit = false;
  bool context_cache_hit = false;
  bool repaired = false;
  bool quarantined = false;
  std::uint64_t ring_length = 0;
  std::uint64_t lower_bound = 0;
  std::uint64_t upper_bound = 0;
  double compute_micros = 0.0;
  double latency_micros = 0.0;  ///< server-side serve latency
  std::string error;
  bool has_ring = false;  ///< ring words present (want_ring was set)
  std::vector<Word> ring;
};

/// Appends a solve reply payload (after the caller's WireStatus byte):
/// fixed fields, error string, u8 has_ring, and the ring words when
/// `want_ring`. The encoding is a pure function of the response, so
/// encode/decode round-trips bit-identically.
void encode_embed(WireWriter& w, const service::EmbedResponse& response,
                  bool want_ring);

/// Reads a solve reply payload written by encode_embed.
bool decode_embed(WireReader& r, WireEmbed* out);

// --- STATS reply ------------------------------------------------------------

/// Server-side counters returned by the STATS op (net::Server internals).
struct WireServerStats {
  std::uint64_t accepted = 0;     ///< connections accepted since start
  std::uint64_t connections = 0;  ///< currently open connections
  std::uint64_t frames_in = 0;    ///< request frames parsed
  std::uint64_t frames_out = 0;   ///< reply frames written
  std::uint64_t solves = 0;       ///< solve ops executed (kSolve + kSessionSolve)
  std::uint64_t overloaded = 0;   ///< ops rejected by admission control
  std::uint64_t timeouts = 0;     ///< ops past their deadline
  std::uint64_t bad_frames = 0;   ///< malformed frames / unknown opcodes
  std::uint64_t shutdown_rejects = 0;  ///< ops rejected while draining
  bool draining = false;          ///< graceful drain in progress
};

/// Per-shard slice of the fabric STATS extension: placement counters of
/// one engine shard (service::FabricShardStats flattened; the shard's own
/// engine counters fold into the aggregate engine snapshot rather than
/// riding the wire per shard).
struct WireFabricShard {
  std::uint32_t shard = 0;            ///< dense shard id
  bool alive = true;                  ///< false between kill and revive
  std::uint64_t keys_owned = 0;       ///< observed instance keys owned
  std::uint64_t queries = 0;          ///< requests routed to this shard
  std::uint64_t context_builds = 0;   ///< this shard's context-cache misses

  bool operator==(const WireFabricShard&) const = default;
};

/// Fabric-aggregate counters of a fabric-mode server's STATS reply,
/// including the Section-2.4 remap cost estimate (total rounds + messages
/// of the distributed rebuilds the remaps so far are priced at).
struct WireFabricStats {
  std::uint64_t queries = 0;        ///< total requests routed
  std::uint64_t remap_events = 0;   ///< kill/revive transitions
  std::uint64_t remapped_keys = 0;  ///< keys whose owner changed
  std::uint64_t remap_rounds = 0;   ///< Section-2.4 rebuild rounds charged
  std::uint64_t remap_messages = 0; ///< Section-2.4 rebuild message envelope
  std::vector<WireFabricShard> shards;

  bool operator==(const WireFabricStats&) const = default;
};

/// Everything the STATS op reports: one coherent engine snapshot
/// (EmbedEngine::stats_snapshot; in fabric mode the per-shard snapshots
/// summed), the server's own counters, when the connection has a configured
/// session its SessionStats/RepairStats, and — from fabric-mode servers —
/// the per-shard/aggregate fabric section. The fabric section is an
/// append-only protocol extension: peers speaking the original payload
/// (without even the has_fabric byte) still interoperate, see decode_stats.
struct WireStats {
  service::EngineStatsSnapshot engine;
  WireServerStats server;
  bool has_session = false;
  service::SessionStats session;
  service::RepairStats repair;
  bool has_fabric = false;
  WireFabricStats fabric;
};

/// Appends a STATS reply payload (after the caller's WireStatus byte).
void encode_stats(WireWriter& w, const WireStats& stats);

/// Reads a STATS reply payload written by encode_stats. Versioned: a
/// payload that ends after the session block (the pre-fabric encoding) is
/// accepted with has_fabric = false, so stats from an older peer still
/// decode.
bool decode_stats(WireReader& r, WireStats* out);

// --- Stream framing ---------------------------------------------------------

/// One complete frame extracted from a byte stream.
struct Frame {
  FrameHeader header;
  /// A view into the FrameParser's buffer, not a copy. It stays valid
  /// until the next receive() or feed() on that parser (or its
  /// destruction); further next() calls leave it intact. Copy the bytes
  /// out to keep them longer.
  std::span<const std::uint8_t> payload;
};

/// Incremental frame extractor over a TCP byte stream. Bytes arrive through
/// receive() (the socket writes straight into the parser's buffer) or
/// feed() (a copy from a caller's buffer), in chunks of any size; next()
/// yields complete frames in order as views into that buffer. A
/// header-level error (bad magic/version/flags/length) is sticky: the
/// stream can no longer be framed and the connection must be dropped. A
/// length over kMaxPayload is such an error, found from the header alone,
/// so it never drives an allocation.
class FrameParser {
 public:
  enum class Result : std::uint8_t {
    kFrame,     ///< *frame was filled
    kNeedMore,  ///< no complete frame buffered yet
    kError,     ///< unframeable stream; see error()
  };

  /// Least free space receive() offers a read.
  static constexpr std::size_t kMinReceive = 64 * 1024;

  FrameParser() = default;
  FrameParser(FrameParser&& other) noexcept { *this = std::move(other); }
  FrameParser& operator=(FrameParser&& other) noexcept {
    buf_ = std::move(other.buf_);
    cap_ = std::exchange(other.cap_, 0);
    begin_ = std::exchange(other.begin_, 0);
    end_ = std::exchange(other.end_, 0);
    error_ = std::exchange(other.error_, FrameError::kNone);
    return *this;
  }

  /// Receives straight into the parser's buffer. Calls `read(dst, space)`
  /// once, where `dst` points at `space` free bytes at the buffer's tail;
  /// `read` has recv()'s contract (bytes written, 0 at end of stream,
  /// negative on error) and receive() returns its result, keeping the
  /// bytes when it is positive. `space` is at least kMinReceive and, once
  /// a partly received frame's header is known, enough for the rest of
  /// that frame, but never more than the bytes already buffered beyond
  /// kMinReceive, so the buffer grows with bytes that really arrived.
  /// Invalidates every payload view handed out before.
  template <typename ReadFn>
  auto receive(ReadFn&& read) {
    std::uint8_t* dst = reserve(receive_space());
    const auto got = read(dst, cap_ - end_);
    if (got > 0) end_ += static_cast<std::size_t>(got);
    return got;
  }

  /// Appends a copy of `bytes` (a receive() for bytes already in memory).
  /// Invalidates every payload view handed out before.
  void feed(std::span<const std::uint8_t> bytes);

  /// Extracts the next complete frame, if any. Its payload is a view; see
  /// Frame::payload for how long it lives.
  Result next(Frame* frame);

  FrameError error() const { return error_; }
  /// Bytes buffered but not yet consumed (for tests / introspection).
  std::size_t buffered() const { return end_ - begin_; }

 private:
  /// Free space receive() asks for (see its comment).
  std::size_t receive_space() const;
  /// Makes room for `space` bytes at the tail, moving the unconsumed bytes
  /// to the front or into a larger buffer when needed; returns the tail.
  std::uint8_t* reserve(std::size_t space);

  std::unique_ptr<std::uint8_t[]> buf_;
  std::size_t cap_ = 0;    ///< size of buf_
  std::size_t begin_ = 0;  ///< first unconsumed byte
  std::size_t end_ = 0;    ///< one past the last received byte
  FrameError error_ = FrameError::kNone;
};

}  // namespace dbr::net
