#include "net/wire.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace dbr::net {

namespace {

constexpr std::uint8_t kMaxFaultKind =
    static_cast<std::uint8_t>(service::FaultKind::kMixed);
constexpr std::uint8_t kMaxStrategy =
    static_cast<std::uint8_t>(service::Strategy::kMixed);
constexpr std::uint8_t kMaxEmbedStatus =
    static_cast<std::uint8_t>(service::EmbedStatus::kInternalError);

}  // namespace

bool valid_op(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(Op::kSolve) &&
         raw <= static_cast<std::uint8_t>(Op::kStats);
}

const char* to_string(WireStatus s) {
  switch (s) {
    case WireStatus::kOk: return "ok";
    case WireStatus::kBadFrame: return "bad_frame";
    case WireStatus::kBadRequest: return "bad_request";
    case WireStatus::kNoSession: return "no_session";
    case WireStatus::kOverloaded: return "overloaded";
    case WireStatus::kTimeout: return "timeout";
    case WireStatus::kShuttingDown: return "shutting_down";
    case WireStatus::kInternal: return "internal";
  }
  return "unknown";
}

// --- header -----------------------------------------------------------------

std::optional<FrameHeader> decode_header(std::span<const std::uint8_t> bytes,
                                         FrameError* err) {
  if (err != nullptr) *err = FrameError::kNone;
  if (bytes.size() < kHeaderSize) return std::nullopt;
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    if (err != nullptr) *err = FrameError::kBadMagic;
    return std::nullopt;
  }
  WireReader r(bytes.subspan(sizeof(kMagic), kHeaderSize - sizeof(kMagic)));
  FrameHeader h;
  h.version = r.u8();
  h.opcode = r.u8();
  h.flags = r.u16();
  h.request_id = r.u32();
  h.payload_len = r.u32();
  if (h.version != kWireVersion) {
    if (err != nullptr) *err = FrameError::kBadVersion;
    return std::nullopt;
  }
  if (h.flags != 0) {
    if (err != nullptr) *err = FrameError::kBadFlags;
    return std::nullopt;
  }
  if (h.payload_len > kMaxPayload) {
    if (err != nullptr) *err = FrameError::kOversized;
    return std::nullopt;
  }
  return h;
}

void encode_header(std::vector<std::uint8_t>& out, std::uint8_t opcode,
                   std::uint32_t request_id, std::uint32_t payload_len) {
  out.insert(out.end(), kMagic, kMagic + sizeof(kMagic));
  WireWriter w(out);
  w.u8(kWireVersion);
  w.u8(opcode);
  w.u16(0);  // flags
  w.u32(request_id);
  w.u32(payload_len);
}

// --- reader / writer --------------------------------------------------------

std::string WireReader::str() {
  const std::uint32_t len = u32();
  const std::uint8_t* p = take(len);
  if (p == nullptr) return {};
  return std::string(reinterpret_cast<const char*>(p), len);
}

std::vector<Word> WireReader::words() {
  const std::uint32_t count = u32();
  // Validate against the remaining payload *before* allocating: a hostile
  // count must not drive an allocation it cannot back with bytes.
  if (!ok_ || bytes_.size() - pos_ < static_cast<std::size_t>(count) * 8) {
    ok_ = false;
    return {};
  }
  std::vector<Word> out(count);
  copy_wire_order<Word>(out.data(), take(out.size() * 8), out.size());
  return out;
}

void WireWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  out_->insert(out_->end(), s.begin(), s.end());
}

void WireWriter::words(std::span<const Word> ws) {
  if (ws.size() > UINT32_MAX)
    throw std::length_error("word vector too long for its u32 count");
  u32(static_cast<std::uint32_t>(ws.size()));
  put(ws.data(), ws.size());
}

FrameWriter::FrameWriter(std::vector<std::uint8_t>& out, std::uint8_t opcode,
                         std::uint32_t request_id)
    : WireWriter(out), start_(out.size()) {
  encode_header(out, opcode, request_id, 0);  // length filled in by finish()
}

bool FrameWriter::finish() {
  const std::size_t size = payload_size();
  if (size > kMaxPayload) {
    restart();
    return false;
  }
  const auto len = static_cast<std::uint32_t>(size);
  copy_wire_order<std::uint32_t>(out_->data() + start_ + kHeaderSize - 4, &len,
                                 1);
  return true;
}

// --- FaultSet ---------------------------------------------------------------

void encode_fault_set(WireWriter& w, const service::FaultSet& set) {
  w.words(set.nodes);
  w.words(set.edges);
}

bool decode_fault_set(WireReader& r, service::FaultSet* set) {
  set->nodes = r.words();
  set->edges = r.words();
  return r.ok();
}

// --- EmbedRequest -----------------------------------------------------------

void encode_request(std::vector<std::uint8_t>& out,
                    const service::EmbedRequest& request, bool want_ring) {
  WireWriter w(out);
  w.u32(request.base);
  w.u32(request.n);
  w.u8(static_cast<std::uint8_t>(request.fault_kind));
  w.u8(static_cast<std::uint8_t>(request.strategy));
  w.u8(want_ring ? 1 : 0);
  w.u8(0);  // reserved
  // The FaultSet layout (encode_fault_set), written from the request's own
  // vectors.
  w.words(request.faults);
  w.words(request.edge_faults);
}

bool decode_request(std::span<const std::uint8_t> payload,
                    service::EmbedRequest* request, bool* want_ring) {
  WireReader r(payload);
  service::EmbedRequest req;
  req.base = r.u32();
  req.n = r.u32();
  const std::uint8_t kind = r.u8();
  const std::uint8_t strategy = r.u8();
  const std::uint8_t ring = r.u8();
  r.u8();  // reserved
  if (!r.ok() || kind > kMaxFaultKind || strategy > kMaxStrategy || ring > 1)
    return false;
  req.fault_kind = static_cast<service::FaultKind>(kind);
  req.strategy = static_cast<service::Strategy>(strategy);
  req.faults = r.words();
  req.edge_faults = r.words();
  if (!r.exhausted()) return false;
  *request = std::move(req);
  if (want_ring != nullptr) *want_ring = ring != 0;
  return true;
}

// --- EmbedResponse ----------------------------------------------------------

void encode_embed(WireWriter& w, const service::EmbedResponse& response,
                  bool want_ring) {
  const service::EmbedResult& result = *response.result;
  w.u8(static_cast<std::uint8_t>(result.status));
  w.u8(static_cast<std::uint8_t>(result.strategy_used));
  w.u8(response.cache_hit ? 1 : 0);
  w.u8(response.context_cache_hit ? 1 : 0);
  w.u8(response.repaired ? 1 : 0);
  w.u8(result.quarantined ? 1 : 0);
  w.u16(0);  // reserved
  w.u64(result.ring_length);
  w.u64(result.lower_bound);
  w.u64(result.upper_bound);
  w.f64(result.compute_micros);
  w.f64(response.latency_micros);
  w.str(result.error);
  w.u8(want_ring ? 1 : 0);
  if (want_ring) w.words(result.ring.nodes);
}

bool decode_embed(WireReader& r, WireEmbed* out) {
  WireEmbed e;
  const std::uint8_t status = r.u8();
  const std::uint8_t strategy = r.u8();
  const std::uint8_t cache_hit = r.u8();
  const std::uint8_t context_hit = r.u8();
  const std::uint8_t repaired = r.u8();
  const std::uint8_t quarantined = r.u8();
  r.u16();  // reserved
  if (!r.ok() || status > kMaxEmbedStatus || strategy > kMaxStrategy ||
      cache_hit > 1 || context_hit > 1 || repaired > 1 || quarantined > 1)
    return false;
  e.status = static_cast<service::EmbedStatus>(status);
  e.strategy_used = static_cast<service::Strategy>(strategy);
  e.cache_hit = cache_hit != 0;
  e.context_cache_hit = context_hit != 0;
  e.repaired = repaired != 0;
  e.quarantined = quarantined != 0;
  e.ring_length = r.u64();
  e.lower_bound = r.u64();
  e.upper_bound = r.u64();
  e.compute_micros = r.f64();
  e.latency_micros = r.f64();
  e.error = r.str();
  const std::uint8_t has_ring = r.u8();
  if (!r.ok() || has_ring > 1) return false;
  e.has_ring = has_ring != 0;
  if (e.has_ring) e.ring = r.words();
  if (!r.ok()) return false;
  *out = std::move(e);
  return true;
}

// --- STATS ------------------------------------------------------------------

namespace {

/// Appends the versioned fabric extension (u8 has_fabric, then the
/// aggregate counters and per-shard entries). Always the last section of
/// the payload, so a pre-fabric decoder simply never reads it.
void encode_fabric_section(WireWriter& w, const WireStats& stats) {
  w.u8(stats.has_fabric ? 1 : 0);
  if (!stats.has_fabric) return;
  const WireFabricStats& f = stats.fabric;
  w.u64(f.queries);
  w.u64(f.hot_keys);
  w.u64(f.replica_reads);
  w.u64(f.remap_events);
  w.u64(f.remapped_keys);
  w.u64(f.remap_rounds);
  w.u64(f.remap_messages);
  w.u32(static_cast<std::uint32_t>(f.shards.size()));
  for (const WireFabricShard& s : f.shards) {
    w.u32(s.shard);
    w.u8(s.alive ? 1 : 0);
    w.u64(s.keys_owned);
    w.u64(s.queries);
    w.u64(s.replica_reads);
    w.u64(s.context_builds);
  }
}

/// Reads the fabric extension, tolerating its complete absence (a payload
/// from a pre-fabric peer ends right after the session block).
bool decode_fabric_section(WireReader& r, WireStats* s) {
  if (r.remaining() == 0) {
    s->has_fabric = false;  // pre-fabric peer: nothing more on the wire
    return true;
  }
  const std::uint8_t has_fabric = r.u8();
  if (!r.ok() || has_fabric > 1) return false;
  s->has_fabric = has_fabric != 0;
  if (!s->has_fabric) return true;
  WireFabricStats& f = s->fabric;
  f.queries = r.u64();
  f.hot_keys = r.u64();
  f.replica_reads = r.u64();
  f.remap_events = r.u64();
  f.remapped_keys = r.u64();
  f.remap_rounds = r.u64();
  f.remap_messages = r.u64();
  const std::uint32_t count = r.u32();
  if (!r.ok()) return false;
  // Each shard entry is at least 37 payload bytes; reject counts the
  // remaining payload cannot possibly hold before allocating.
  constexpr std::size_t kShardBytes = 4 + 1 + 4 * 8;
  if (count > r.remaining() / kShardBytes) return false;
  f.shards.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    WireFabricShard shard;
    shard.shard = r.u32();
    const std::uint8_t alive = r.u8();
    if (alive > 1) return false;
    shard.alive = alive != 0;
    shard.keys_owned = r.u64();
    shard.queries = r.u64();
    shard.replica_reads = r.u64();
    shard.context_builds = r.u64();
    f.shards.push_back(shard);
  }
  return r.ok();
}

}  // namespace

void encode_stats(WireWriter& w, const WireStats& stats) {
  const service::EngineStatsSnapshot& e = stats.engine;
  w.u64(e.serve.queries);
  w.u64(e.serve.result_hits);
  w.u64(e.serve.context_hits);
  w.u64(e.serve.context_misses);
  w.u64(e.cache.hits);
  w.u64(e.cache.misses);
  w.u64(e.cache.evictions);
  w.u64(e.cache.entries);
  w.u64(e.contexts.hits);
  w.u64(e.contexts.misses);
  w.u64(e.contexts.entries);
  w.u64(e.validation.checked);
  w.u64(e.validation.violations);
  const WireServerStats& s = stats.server;
  w.u64(s.accepted);
  w.u64(s.connections);
  w.u64(s.frames_in);
  w.u64(s.frames_out);
  w.u64(s.solves);
  w.u64(s.overloaded);
  w.u64(s.timeouts);
  w.u64(s.bad_frames);
  w.u64(s.shutdown_rejects);
  w.u8(s.draining ? 1 : 0);
  w.u8(stats.has_session ? 1 : 0);
  if (stats.has_session) {
    w.u64(stats.session.adds);
    w.u64(stats.session.removes);
    w.u64(stats.session.noop_mutations);
    w.u64(stats.session.solves);
    w.u64(stats.session.memoized);
    w.u64(stats.session.result_cache_hits);
    w.f64(stats.session.solve_micros_total);
    w.u64(stats.repair.spliced);
    w.u64(stats.repair.fell_back);
    w.u64(stats.repair.oracle_rejections);
    w.f64(stats.repair.repair_micros_total);
  }
  encode_fabric_section(w, stats);
}

bool decode_stats(WireReader& r, WireStats* out) {
  WireStats s;
  s.engine.serve.queries = r.u64();
  s.engine.serve.result_hits = r.u64();
  s.engine.serve.context_hits = r.u64();
  s.engine.serve.context_misses = r.u64();
  s.engine.cache.hits = r.u64();
  s.engine.cache.misses = r.u64();
  s.engine.cache.evictions = r.u64();
  s.engine.cache.entries = r.u64();
  s.engine.contexts.hits = r.u64();
  s.engine.contexts.misses = r.u64();
  s.engine.contexts.entries = r.u64();
  s.engine.validation.checked = r.u64();
  s.engine.validation.violations = r.u64();
  s.server.accepted = r.u64();
  s.server.connections = r.u64();
  s.server.frames_in = r.u64();
  s.server.frames_out = r.u64();
  s.server.solves = r.u64();
  s.server.overloaded = r.u64();
  s.server.timeouts = r.u64();
  s.server.bad_frames = r.u64();
  s.server.shutdown_rejects = r.u64();
  const std::uint8_t draining = r.u8();
  const std::uint8_t has_session = r.u8();
  if (!r.ok() || draining > 1 || has_session > 1) return false;
  s.server.draining = draining != 0;
  s.has_session = has_session != 0;
  if (s.has_session) {
    s.session.adds = r.u64();
    s.session.removes = r.u64();
    s.session.noop_mutations = r.u64();
    s.session.solves = r.u64();
    s.session.memoized = r.u64();
    s.session.result_cache_hits = r.u64();
    s.session.solve_micros_total = r.f64();
    s.repair.spliced = r.u64();
    s.repair.fell_back = r.u64();
    s.repair.oracle_rejections = r.u64();
    s.repair.repair_micros_total = r.f64();
  }
  if (!r.ok()) return false;
  if (!decode_fabric_section(r, &s)) return false;
  *out = s;
  return true;
}

// --- FrameParser ------------------------------------------------------------

std::size_t FrameParser::receive_space() const {
  const std::size_t live = end_ - begin_;
  FrameError err = FrameError::kNone;
  const std::optional<FrameHeader> header =
      decode_header({buf_.get() + begin_, live}, &err);
  const std::size_t frame_size =
      header ? kHeaderSize + header->payload_len : 0;
  if (frame_size <= live) return kMinReceive;  // no partial frame pending
  // Room for the rest of the pending frame, but at most twice what is
  // buffered: a header alone cannot make the buffer grow by much.
  return std::max(kMinReceive, std::min(frame_size - live, live));
}

std::uint8_t* FrameParser::reserve(std::size_t space) {
  if (begin_ == end_) begin_ = end_ = 0;  // all consumed: restart at the front
  if (cap_ - end_ >= space) return buf_.get() + end_;
  const std::size_t live = end_ - begin_;
  if (cap_ - live >= space) {
    std::memmove(buf_.get(), buf_.get() + begin_, live);
  } else {
    // Geometric growth, so a stream fed in slivers is copied O(1) times.
    const std::size_t cap = std::max(live + space, 2 * cap_);
    auto grown = std::make_unique_for_overwrite<std::uint8_t[]>(cap);
    if (live != 0) std::memcpy(grown.get(), buf_.get() + begin_, live);
    buf_ = std::move(grown);
    cap_ = cap;
  }
  begin_ = 0;
  end_ = live;
  return buf_.get() + end_;
}

void FrameParser::feed(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return;
  std::memcpy(reserve(bytes.size()), bytes.data(), bytes.size());
  end_ += bytes.size();
}

FrameParser::Result FrameParser::next(Frame* frame) {
  if (error_ != FrameError::kNone) return Result::kError;
  const std::span<const std::uint8_t> view(buf_.get() + begin_, end_ - begin_);
  FrameError err = FrameError::kNone;
  const std::optional<FrameHeader> header = decode_header(view, &err);
  if (!header) {
    if (err != FrameError::kNone) {
      error_ = err;
      return Result::kError;
    }
    return Result::kNeedMore;
  }
  if (view.size() - kHeaderSize < header->payload_len) return Result::kNeedMore;
  frame->header = *header;
  frame->payload = view.subspan(kHeaderSize, header->payload_len);
  begin_ += kHeaderSize + header->payload_len;
  return Result::kFrame;
}

}  // namespace dbr::net
