#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "service/types.hpp"

// Wire-codec round-trip fuzz + malformed-frame corpus. The round-trip half
// generates random requests/responses/stats, encodes, decodes, and asserts
// bit-identity of every field; the adversarial half feeds truncated frames,
// bad magic, absurd lengths, and plain garbage through decode_* and the
// FrameParser and asserts a clean error every time — no crash, no UB (this
// file runs under the ASan/UBSan CI job like every other test).
//
// Knobs (env): DBR_WIRE_FUZZ_ITERS  iterations per fuzz test (default 300)

namespace dbr::net {
namespace {

using service::EmbedRequest;
using service::EmbedResponse;
using service::EmbedResult;
using service::EmbedStatus;
using service::FaultKind;
using service::FaultSet;
using service::Strategy;

std::size_t fuzz_iters() {
  if (const char* v = std::getenv("DBR_WIRE_FUZZ_ITERS")) {
    const long long parsed = std::atoll(v);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 300;
}

FaultSet random_fault_set(std::mt19937_64& rng) {
  FaultSet set;
  std::uniform_int_distribution<int> count(0, 6);
  std::uniform_int_distribution<Word> word(0, 1u << 20);
  const int nodes = count(rng);
  const int edges = count(rng);
  for (int i = 0; i < nodes; ++i) set.nodes.push_back(word(rng));
  for (int i = 0; i < edges; ++i) set.edges.push_back(word(rng));
  return set;
}

EmbedRequest random_request(std::mt19937_64& rng) {
  EmbedRequest req;
  req.base = static_cast<Digit>(2 + rng() % 7);
  req.n = static_cast<unsigned>(2 + rng() % 12);
  req.fault_kind = static_cast<FaultKind>(rng() % 3);
  req.strategy = static_cast<Strategy>(rng() % 7);
  FaultSet set = random_fault_set(rng);
  req.faults = std::move(set.nodes);
  req.edge_faults = std::move(set.edges);
  return req;
}

EmbedResponse random_response(std::mt19937_64& rng) {
  auto result = std::make_shared<EmbedResult>();
  result->status = static_cast<EmbedStatus>(rng() % 4);
  result->strategy_used = static_cast<Strategy>(rng() % 7);
  result->ring_length = rng() % 4096;
  result->lower_bound = rng() % 4096;
  result->upper_bound = rng() % 4096;
  result->compute_micros = static_cast<double>(rng() % 1000000) / 7.0;
  result->quarantined = (rng() % 4) == 0;
  if (result->status != EmbedStatus::kOk)
    result->error = "synthetic error #" + std::to_string(rng() % 100);
  const std::size_t ring_words = rng() % 64;
  for (std::size_t i = 0; i < ring_words; ++i)
    result->ring.nodes.push_back(rng() % (1u << 24));
  EmbedResponse resp;
  resp.result = std::move(result);
  resp.cache_hit = rng() % 2;
  resp.context_cache_hit = rng() % 2;
  resp.repaired = rng() % 2;
  resp.latency_micros = static_cast<double>(rng() % 1000000) / 3.0;
  return resp;
}

TEST(WireHeader, RoundTrip) {
  std::vector<std::uint8_t> bytes;
  encode_header(bytes, static_cast<std::uint8_t>(Op::kSolve), 0xdeadbeef, 12);
  ASSERT_EQ(bytes.size(), kHeaderSize);
  FrameError err = FrameError::kNone;
  const auto header = decode_header(bytes, &err);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(err, FrameError::kNone);
  EXPECT_EQ(header->version, kWireVersion);
  EXPECT_EQ(header->opcode, static_cast<std::uint8_t>(Op::kSolve));
  EXPECT_EQ(header->flags, 0);
  EXPECT_EQ(header->request_id, 0xdeadbeefu);
  EXPECT_EQ(header->payload_len, 12u);
}

TEST(WireHeader, ShortPrefixAsksForMore) {
  std::vector<std::uint8_t> bytes;
  encode_header(bytes, static_cast<std::uint8_t>(Op::kStats), 7, 0);
  for (std::size_t len = 0; len < kHeaderSize; ++len) {
    FrameError err = FrameError::kBadMagic;  // must be reset to kNone
    const auto header = decode_header(
        std::span<const std::uint8_t>(bytes.data(), len), &err);
    EXPECT_FALSE(header.has_value()) << "len=" << len;
    EXPECT_EQ(err, FrameError::kNone) << "len=" << len;
  }
}

TEST(WireHeader, RejectsBadMagicVersionFlagsLength) {
  std::vector<std::uint8_t> good;
  encode_header(good, static_cast<std::uint8_t>(Op::kSolve), 1, 4);
  FrameError err = FrameError::kNone;

  auto bad = good;
  bad[0] = 'X';
  EXPECT_FALSE(decode_header(bad, &err).has_value());
  EXPECT_EQ(err, FrameError::kBadMagic);

  bad = good;
  bad[4] = kWireVersion + 9;
  EXPECT_FALSE(decode_header(bad, &err).has_value());
  EXPECT_EQ(err, FrameError::kBadVersion);

  bad = good;
  bad[6] = 0x01;  // reserved flags
  EXPECT_FALSE(decode_header(bad, &err).has_value());
  EXPECT_EQ(err, FrameError::kBadFlags);

  bad = good;
  bad[12] = 0xff;  // payload_len little-endian low byte
  bad[13] = 0xff;
  bad[14] = 0xff;
  bad[15] = 0x7f;  // ~2 GiB: absurd, rejected before any allocation
  EXPECT_FALSE(decode_header(bad, &err).has_value());
  EXPECT_EQ(err, FrameError::kOversized);
}

TEST(WireFuzz, RequestRoundTripIsBitIdentical) {
  std::mt19937_64 rng(20260808);
  for (std::size_t i = 0; i < fuzz_iters(); ++i) {
    const EmbedRequest req = random_request(rng);
    const bool want_ring = rng() % 2;
    std::vector<std::uint8_t> payload;
    encode_request(payload, req, want_ring);
    EmbedRequest back;
    bool ring = !want_ring;
    ASSERT_TRUE(decode_request(payload, &back, &ring)) << "iter=" << i;
    EXPECT_EQ(back.base, req.base) << "iter=" << i;
    EXPECT_EQ(back.n, req.n) << "iter=" << i;
    EXPECT_EQ(back.fault_kind, req.fault_kind) << "iter=" << i;
    EXPECT_EQ(back.strategy, req.strategy) << "iter=" << i;
    EXPECT_EQ(back.faults, req.faults) << "iter=" << i;
    EXPECT_EQ(back.edge_faults, req.edge_faults) << "iter=" << i;
    EXPECT_EQ(ring, want_ring) << "iter=" << i;
  }
}

/// Encodes `resp`, decodes it back, and checks every field bit for bit.
void expect_embed_round_trip(const EmbedResponse& resp, bool want_ring,
                             const std::string& label) {
  std::vector<std::uint8_t> payload;
  WireWriter w(payload);
  encode_embed(w, resp, want_ring);
  WireReader r(payload);
  WireEmbed back;
  ASSERT_TRUE(decode_embed(r, &back)) << label;
  ASSERT_TRUE(r.exhausted()) << label;
  EXPECT_EQ(back.status, resp.result->status) << label;
  EXPECT_EQ(back.strategy_used, resp.result->strategy_used) << label;
  EXPECT_EQ(back.cache_hit, resp.cache_hit) << label;
  EXPECT_EQ(back.context_cache_hit, resp.context_cache_hit) << label;
  EXPECT_EQ(back.repaired, resp.repaired) << label;
  EXPECT_EQ(back.quarantined, resp.result->quarantined) << label;
  EXPECT_EQ(back.ring_length, resp.result->ring_length) << label;
  EXPECT_EQ(back.lower_bound, resp.result->lower_bound) << label;
  EXPECT_EQ(back.upper_bound, resp.result->upper_bound) << label;
  // Doubles cross the wire as their exact IEEE bits, so == is exact.
  EXPECT_EQ(back.compute_micros, resp.result->compute_micros) << label;
  EXPECT_EQ(back.latency_micros, resp.latency_micros) << label;
  EXPECT_EQ(back.error, resp.result->error) << label;
  EXPECT_EQ(back.has_ring, want_ring) << label;
  if (want_ring)
    EXPECT_EQ(back.ring, resp.result->ring.nodes) << label;
  else
    EXPECT_TRUE(back.ring.empty()) << label;
}

TEST(WireFuzz, EmbedRoundTripIsBitIdentical) {
  std::mt19937_64 rng(20260809);
  for (std::size_t i = 0; i < fuzz_iters(); ++i) {
    const EmbedResponse resp = random_response(rng);
    const bool want_ring = rng() % 2;
    expect_embed_round_trip(resp, want_ring, "iter=" + std::to_string(i));
  }
  // The block copy at its edges: no ring words, one word, and the longest
  // ring the benchmark's hot path sends (butterfly B(3,7)), with words
  // spanning the whole 64-bit range so every byte position is exercised.
  for (const std::size_t words : {std::size_t{0}, std::size_t{1},
                                  std::size_t{15309}}) {
    const EmbedResponse base = random_response(rng);
    auto result = std::make_shared<EmbedResult>(*base.result);
    result->ring.nodes.clear();
    for (std::size_t k = 0; k < words; ++k) result->ring.nodes.push_back(rng());
    EmbedResponse resp = base;
    resp.result = std::move(result);
    expect_embed_round_trip(resp, true, "words=" + std::to_string(words));
  }
}

TEST(WireFuzz, FaultSetRoundTrip) {
  std::mt19937_64 rng(20260810);
  for (std::size_t i = 0; i < fuzz_iters(); ++i) {
    const FaultSet set = random_fault_set(rng);
    std::vector<std::uint8_t> payload;
    WireWriter w(payload);
    encode_fault_set(w, set);
    WireReader r(payload);
    FaultSet back;
    ASSERT_TRUE(decode_fault_set(r, &back)) << "iter=" << i;
    ASSERT_TRUE(r.exhausted()) << "iter=" << i;
    EXPECT_EQ(back.nodes, set.nodes) << "iter=" << i;
    EXPECT_EQ(back.edges, set.edges) << "iter=" << i;
  }
}

// Every strict prefix of a valid payload must decode to a clean failure:
// truncation can never read out of bounds or crash.
TEST(WireFuzz, TruncatedRequestFailsCleanly) {
  std::mt19937_64 rng(20260811);
  for (std::size_t i = 0; i < 50; ++i) {
    const EmbedRequest req = random_request(rng);
    std::vector<std::uint8_t> payload;
    encode_request(payload, req, true);
    for (std::size_t len = 0; len < payload.size(); ++len) {
      EmbedRequest back;
      bool ring = false;
      EXPECT_FALSE(decode_request(
          std::span<const std::uint8_t>(payload.data(), len), &back, &ring))
          << "iter=" << i << " len=" << len;
    }
  }
}

TEST(WireFuzz, GarbagePayloadsNeverMisbehave) {
  std::mt19937_64 rng(20260812);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> size(0, 512);
  for (std::size_t i = 0; i < fuzz_iters(); ++i) {
    std::vector<std::uint8_t> junk(size(rng));
    for (auto& b : junk) b = static_cast<std::uint8_t>(byte(rng));
    // Any of these may *succeed* if the junk happens to parse; the contract
    // under test is bounded reads and no UB, which ASan/UBSan enforce.
    EmbedRequest req;
    bool ring = false;
    decode_request(junk, &req, &ring);
    WireReader r1(junk);
    WireEmbed embed;
    decode_embed(r1, &embed);
    WireReader r2(junk);
    WireStats stats;
    decode_stats(r2, &stats);
    WireReader r3(junk);
    FaultSet set;
    decode_fault_set(r3, &set);
  }
}

// --- STATS versioning -------------------------------------------------------

WireStats sample_stats() {
  WireStats s;
  s.engine.serve.queries = 101;
  s.engine.serve.result_hits = 40;
  s.engine.cache.hits = 40;
  s.engine.cache.misses = 61;
  s.engine.contexts.misses = 7;
  s.engine.validation.checked = 61;
  s.server.accepted = 9;
  s.server.frames_in = 120;
  s.server.solves = 101;
  s.has_session = true;
  s.session.adds = 5;
  s.session.solves = 6;
  s.repair.spliced = 2;
  return s;
}

TEST(WireStatsVersioning, FabricSectionRoundTripsBitIdentically) {
  WireStats s = sample_stats();
  s.has_fabric = true;
  s.fabric.queries = 101;
  s.fabric.hot_keys = 3;
  s.fabric.replica_reads = 17;
  s.fabric.remap_events = 2;
  s.fabric.remapped_keys = 11;
  s.fabric.remap_rounds = 240;
  s.fabric.remap_messages = 90000;
  for (std::uint32_t i = 0; i < 4; ++i) {
    WireFabricShard shard;
    shard.shard = i;
    shard.alive = i != 2;
    shard.keys_owned = 10 + i;
    shard.queries = 100 * (i + 1);
    shard.replica_reads = 5 * i;
    shard.context_builds = 3 + i;
    s.fabric.shards.push_back(shard);
  }
  std::vector<std::uint8_t> payload;
  WireWriter w(payload);
  encode_stats(w, s);
  WireReader r(payload);
  WireStats out;
  ASSERT_TRUE(decode_stats(r, &out));
  EXPECT_TRUE(r.exhausted());
  ASSERT_TRUE(out.has_fabric);
  EXPECT_EQ(out.fabric, s.fabric);
}

TEST(WireStatsVersioning, AcceptsPreFabricPayload) {
  // A pre-fabric peer's payload ends right after the session block — it
  // does not even carry the has_fabric byte. Emulate it by truncating the
  // trailing has_fabric = 0 byte the current encoder appends.
  WireStats s = sample_stats();
  std::vector<std::uint8_t> payload;
  WireWriter w(payload);
  encode_stats(w, s);
  ASSERT_EQ(payload.back(), 0u);  // has_fabric byte of the new encoding
  payload.pop_back();

  WireReader r(payload);
  WireStats out;
  ASSERT_TRUE(decode_stats(r, &out));
  EXPECT_TRUE(r.exhausted());
  EXPECT_FALSE(out.has_fabric);
  EXPECT_EQ(out.engine.serve.queries, s.engine.serve.queries);
  EXPECT_TRUE(out.has_session);
  EXPECT_EQ(out.session.solves, s.session.solves);
}

TEST(WireStatsVersioning, NoFabricEncodingDecodesWithoutFabric) {
  WireStats s = sample_stats();
  s.has_session = false;
  std::vector<std::uint8_t> payload;
  WireWriter w(payload);
  encode_stats(w, s);
  WireReader r(payload);
  WireStats out;
  ASSERT_TRUE(decode_stats(r, &out));
  EXPECT_TRUE(r.exhausted());
  EXPECT_FALSE(out.has_fabric);
  EXPECT_FALSE(out.has_session);
}

TEST(WireStatsVersioning, HostileShardCountRejectedBeforeAllocation) {
  WireStats s = sample_stats();
  s.has_session = false;
  s.has_fabric = true;
  std::vector<std::uint8_t> payload;
  WireWriter w(payload);
  encode_stats(w, s);
  // Corrupt the shard count (the final u32 of an empty-shard encoding) to
  // claim 2^32 - 1 entries with no bytes behind them.
  ASSERT_GE(payload.size(), 4u);
  payload[payload.size() - 4] = 0xff;
  payload[payload.size() - 3] = 0xff;
  payload[payload.size() - 2] = 0xff;
  payload[payload.size() - 1] = 0xff;
  WireReader r(payload);
  WireStats out;
  EXPECT_FALSE(decode_stats(r, &out));
}

// A count field claiming more words than the payload holds must fail before
// allocating (a hostile 0xffffffff count cannot OOM the decoder).
TEST(WireFuzz, HostileCountsRejectedBeforeAllocation) {
  std::vector<std::uint8_t> payload;
  WireWriter w(payload);
  w.u32(0xffffffffu);  // word count with no words behind it
  WireReader r(payload);
  const std::vector<Word> words = r.words();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(words.empty());
}

// --- golden bytes -----------------------------------------------------------

std::string to_hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

EmbedRequest golden_request() {
  EmbedRequest req;
  req.base = 3;
  req.n = 7;
  req.fault_kind = FaultKind::kMixed;
  req.strategy = Strategy::kMixed;
  req.faults = {0x0102030405060708ull, 42};
  req.edge_faults = {0xdeadbeefull};
  return req;
}

EmbedResponse golden_response() {
  auto result = std::make_shared<EmbedResult>();
  result->status = EmbedStatus::kOk;
  result->strategy_used = Strategy::kButterfly;
  result->ring_length = 3;
  result->lower_bound = 2;
  result->upper_bound = 27;
  result->compute_micros = 1.5;
  result->error = "e!";
  result->ring.nodes = {1, 0x8000000000000001ull, 26};
  EmbedResponse resp;
  resp.result = std::move(result);
  resp.cache_hit = true;
  resp.repaired = true;
  resp.latency_micros = -0.25;
  return resp;
}

// Whole frames pinned to committed bytes: header fields, every payload
// field, and the word vectors in little-endian order, byte for byte. The
// hex was produced by the byte-at-a-time encoder the block codec replaced,
// so these also prove the two agree on the wire.
TEST(WireGolden, RequestFrameBytes) {
  std::vector<std::uint8_t> frame;
  FrameWriter w(frame, static_cast<std::uint8_t>(Op::kSolve), 0x01020304u);
  encode_request(frame, golden_request(), true);
  ASSERT_TRUE(w.finish());
  EXPECT_EQ(to_hex(frame),
            "4442523101010000040302012c000000"
            "03000000070000000206010002000000"
            "08070605040302012a00000000000000"
            "01000000efbeadde00000000");
  // The two-step form (header from encode_header, then the payload) makes
  // the same bytes.
  std::vector<std::uint8_t> payload;
  encode_request(payload, golden_request(), true);
  std::vector<std::uint8_t> two_step;
  encode_header(two_step, static_cast<std::uint8_t>(Op::kSolve), 0x01020304u,
                static_cast<std::uint32_t>(payload.size()));
  two_step.insert(two_step.end(), payload.begin(), payload.end());
  EXPECT_EQ(two_step, frame);
}

TEST(WireGolden, ReplyFrameBytes) {
  std::vector<std::uint8_t> frame;
  FrameWriter w(frame, static_cast<std::uint8_t>(Op::kSolve) | kReplyBit,
                0x0a0b0c0du);
  w.u8(static_cast<std::uint8_t>(WireStatus::kOk));
  encode_embed(w, golden_response(), true);
  ASSERT_TRUE(w.finish());
  EXPECT_EQ(to_hex(frame),
            "44425231018100000d0c0b0a54000000"
            "00000501000100000003000000000000"
            "0002000000000000001b000000000000"
            "00000000000000f83f000000000000d0"
            "bf020000006521010300000001000000"
            "0000000001000000000000801a000000"
            "00000000");
}

// --- FrameWriter --------------------------------------------------------------

TEST(FrameWriter, BuildsFramesBackToBack) {
  std::vector<std::uint8_t> out;
  FrameWriter first(out, static_cast<std::uint8_t>(Op::kStats), 1);
  ASSERT_TRUE(first.finish());
  FrameWriter second(out, static_cast<std::uint8_t>(Op::kSessionSolve), 2);
  second.u8(1);
  ASSERT_TRUE(second.finish());
  ASSERT_EQ(out.size(), 2 * kHeaderSize + 1);
  FrameParser parser;
  parser.feed(out);
  Frame f;
  ASSERT_EQ(parser.next(&f), FrameParser::Result::kFrame);
  EXPECT_EQ(f.header.request_id, 1u);
  EXPECT_TRUE(f.payload.empty());
  ASSERT_EQ(parser.next(&f), FrameParser::Result::kFrame);
  EXPECT_EQ(f.header.request_id, 2u);
  ASSERT_EQ(f.payload.size(), 1u);
  EXPECT_EQ(f.payload[0], 1u);
}

TEST(FrameWriter, PayloadAtTheCapFitsOneMoreByteDoesNot) {
  for (const std::size_t extra : {std::size_t{0}, std::size_t{1}}) {
    std::vector<std::uint8_t> out;
    FrameWriter w(out, static_cast<std::uint8_t>(Op::kSolve) | kReplyBit, 5);
    out.resize(out.size() + kMaxPayload + extra, 0x5a);
    EXPECT_EQ(w.finish(), extra == 0) << "extra=" << extra;
  }
}

// A reply too large to frame (a synthetic 2^21-word ring: 16 MiB of words
// plus the fixed fields) is refused by finish(), which rewinds to the
// header and leaves earlier frames in the buffer untouched; the typed
// error written in its place frames and decodes cleanly.
TEST(FrameWriter, OversizedReplyRewindsToHeader) {
  std::vector<std::uint8_t> out;
  FrameWriter earlier(out, static_cast<std::uint8_t>(Op::kStats) | kReplyBit, 6);
  earlier.u8(static_cast<std::uint8_t>(WireStatus::kOk));
  ASSERT_TRUE(earlier.finish());
  const std::vector<std::uint8_t> before = out;

  auto result = std::make_shared<EmbedResult>();
  result->ring.nodes.assign(std::size_t{1} << 21, Word{7});
  result->ring_length = result->ring.nodes.size();
  EmbedResponse resp;
  resp.result = std::move(result);
  FrameWriter w(out, static_cast<std::uint8_t>(Op::kSolve) | kReplyBit, 7);
  w.u8(static_cast<std::uint8_t>(WireStatus::kOk));
  encode_embed(w, resp, true);
  EXPECT_GT(w.payload_size(), std::size_t{kMaxPayload});
  EXPECT_FALSE(w.finish());
  EXPECT_EQ(w.payload_size(), 0u);
  ASSERT_EQ(out.size(), before.size() + kHeaderSize);
  EXPECT_TRUE(std::equal(before.begin(), before.end(), out.begin()));

  w.u8(static_cast<std::uint8_t>(WireStatus::kBadRequest));
  w.str("reply too large");
  ASSERT_TRUE(w.finish());
  FrameParser parser;
  parser.feed(out);
  Frame f;
  ASSERT_EQ(parser.next(&f), FrameParser::Result::kFrame);
  EXPECT_EQ(f.header.request_id, 6u);
  ASSERT_EQ(parser.next(&f), FrameParser::Result::kFrame);
  EXPECT_EQ(f.header.request_id, 7u);
  WireReader r(f.payload);
  EXPECT_EQ(r.u8(), static_cast<std::uint8_t>(WireStatus::kBadRequest));
  EXPECT_EQ(r.str(), "reply too large");
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(parser.buffered(), 0u);
}

// --- FrameParser --------------------------------------------------------------

/// Frames of assorted sizes back to back: small requests, an empty payload
/// and a long ring reply, so reads split headers and payloads alike.
struct Stream {
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint32_t> ids;
  std::vector<std::vector<std::uint8_t>> payloads;
};

Stream mixed_stream(std::mt19937_64& rng) {
  Stream s;
  for (std::uint32_t id = 1; id <= 5; ++id) {
    const std::size_t start = s.bytes.size();
    FrameWriter w(s.bytes, static_cast<std::uint8_t>(Op::kSolve), id);
    if (id == 3) {
      auto result = std::make_shared<EmbedResult>();
      for (std::size_t k = 0; k < 15309; ++k) result->ring.nodes.push_back(rng());
      EmbedResponse resp;
      resp.result = std::move(result);
      encode_embed(w, resp, true);
    } else if (id != 4) {
      encode_request(s.bytes, random_request(rng), true);
    }
    EXPECT_TRUE(w.finish());
    s.ids.push_back(id);
    s.payloads.emplace_back(s.bytes.begin() + static_cast<std::ptrdiff_t>(
                                                  start + kHeaderSize),
                            s.bytes.end());
  }
  return s;
}

TEST(FrameParser, ReassemblesFramesAcrossArbitraryChunks) {
  std::mt19937_64 rng(20260813);
  // Frames back-to-back, fed one random-sized sliver at a time.
  const Stream stream = mixed_stream(rng);
  FrameParser parser;
  std::vector<std::uint32_t> ids;
  std::vector<std::vector<std::uint8_t>> payloads;
  std::size_t pos = 0;
  while (pos < stream.bytes.size()) {
    const std::size_t chunk =
        std::min<std::size_t>(1 + rng() % 7, stream.bytes.size() - pos);
    parser.feed(std::span<const std::uint8_t>(stream.bytes.data() + pos, chunk));
    pos += chunk;
    Frame f;
    // A payload is a view that the next feed may overwrite: copy it out.
    while (parser.next(&f) == FrameParser::Result::kFrame) {
      ids.push_back(f.header.request_id);
      payloads.emplace_back(f.payload.begin(), f.payload.end());
    }
  }
  EXPECT_EQ(ids, stream.ids);
  EXPECT_EQ(payloads, stream.payloads);
  EXPECT_EQ(parser.buffered(), 0u);
}

// The same stream through receive(), the socket path: each read is handed
// the parser's own buffer and writes a random-length piece of the stream.
TEST(FrameParser, ReceiveReassemblesFramesAcrossArbitraryReads) {
  std::mt19937_64 rng(20260815);
  for (int round = 0; round < 20; ++round) {
    const Stream stream = mixed_stream(rng);
    FrameParser parser;
    std::vector<std::uint32_t> ids;
    std::vector<std::vector<std::uint8_t>> payloads;
    std::size_t pos = 0;
    // Mostly small reads, sometimes as much as the parser offers.
    const auto read = [&](std::uint8_t* dst, std::size_t space) -> long {
      EXPECT_GE(space, FrameParser::kMinReceive);
      std::size_t n = rng() % 4 == 0 ? space : 1 + rng() % 3000;
      n = std::min({n, space, stream.bytes.size() - pos});
      std::memcpy(dst, stream.bytes.data() + pos, n);
      pos += n;
      return static_cast<long>(n);
    };
    while (pos < stream.bytes.size()) {
      ASSERT_GT(parser.receive(read), 0);
      Frame f;
      while (parser.next(&f) == FrameParser::Result::kFrame) {
        ids.push_back(f.header.request_id);
        payloads.emplace_back(f.payload.begin(), f.payload.end());
      }
    }
    EXPECT_EQ(ids, stream.ids) << "round=" << round;
    EXPECT_EQ(payloads, stream.payloads) << "round=" << round;
    EXPECT_EQ(parser.buffered(), 0u) << "round=" << round;
    // End of stream passes through unchanged.
    EXPECT_EQ(parser.receive([](std::uint8_t*, std::size_t) { return 0L; }), 0);
  }
}

// A payload view stays intact while later frames are extracted and until
// the next receive: the server copies requests out only after draining
// every frame of a read.
TEST(FrameParser, PayloadViewLivesUntilNextReceive) {
  std::mt19937_64 rng(20260816);
  const Stream stream = mixed_stream(rng);
  FrameParser parser;
  std::size_t pos = 0;
  while (pos < stream.bytes.size()) {
    parser.receive([&](std::uint8_t* dst, std::size_t space) {
      const std::size_t n = std::min(space, stream.bytes.size() - pos);
      std::memcpy(dst, stream.bytes.data() + pos, n);
      pos += n;
      return static_cast<long>(n);
    });
  }
  std::vector<Frame> frames;
  Frame f;
  while (parser.next(&f) == FrameParser::Result::kFrame) frames.push_back(f);
  ASSERT_EQ(frames.size(), stream.ids.size());
  EXPECT_EQ(parser.next(&f), FrameParser::Result::kNeedMore);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].header.request_id, stream.ids[i]);
    EXPECT_TRUE(std::equal(frames[i].payload.begin(), frames[i].payload.end(),
                           stream.payloads[i].begin(),
                           stream.payloads[i].end()))
        << "frame " << i;
  }
}

// Lengths over kMaxPayload fail from the header alone. A legal but huge
// length cannot make the parser allocate for bytes that never arrive: the
// next read is offered room in proportion to what is buffered.
TEST(FrameParser, HostileLengthsRejectedBeforeAllocation) {
  std::vector<std::uint8_t> header;
  encode_header(header, static_cast<std::uint8_t>(Op::kSolve), 1,
                kMaxPayload);
  const auto send = [&](FrameParser& parser, std::span<const std::uint8_t> b) {
    return parser.receive([&](std::uint8_t* dst, std::size_t space) {
      EXPECT_LE(space, 2 * FrameParser::kMinReceive);
      std::memcpy(dst, b.data(), b.size());
      return static_cast<long>(b.size());
    });
  };
  FrameParser legal;
  send(legal, header);
  Frame f;
  EXPECT_EQ(legal.next(&f), FrameParser::Result::kNeedMore);
  send(legal, std::vector<std::uint8_t>(100, 0));  // asserts the space offered
  EXPECT_EQ(legal.next(&f), FrameParser::Result::kNeedMore);

  header[12] = header[13] = header[14] = header[15] = 0xff;
  FrameParser hostile;
  send(hostile, header);
  EXPECT_EQ(hostile.next(&f), FrameParser::Result::kError);
  EXPECT_EQ(hostile.error(), FrameError::kOversized);
}

TEST(FrameParser, StickyErrorOnGarbageStream) {
  FrameParser parser;
  std::vector<std::uint8_t> junk = {'n', 'o', 'p', 'e', 0, 0, 0, 0,
                                    0,   0,   0,   0,   0, 0, 0, 0};
  parser.feed(junk);
  Frame f;
  EXPECT_EQ(parser.next(&f), FrameParser::Result::kError);
  EXPECT_EQ(parser.error(), FrameError::kBadMagic);
  // Feeding a perfectly valid frame afterwards cannot resurrect the stream:
  // frame boundaries are untrusted once framing has failed.
  std::vector<std::uint8_t> good;
  encode_header(good, static_cast<std::uint8_t>(Op::kStats), 1, 0);
  parser.feed(good);
  EXPECT_EQ(parser.next(&f), FrameParser::Result::kError);
}

TEST(FrameParser, OversizedLengthIsAnError) {
  std::vector<std::uint8_t> header;
  encode_header(header, static_cast<std::uint8_t>(Op::kSolve), 1, 0);
  header[12] = 0xff;
  header[13] = 0xff;
  header[14] = 0xff;
  header[15] = 0xff;
  FrameParser parser;
  parser.feed(header);
  Frame f;
  EXPECT_EQ(parser.next(&f), FrameParser::Result::kError);
  EXPECT_EQ(parser.error(), FrameError::kOversized);
}

TEST(FrameParser, RandomJunkNeverCrashes) {
  std::mt19937_64 rng(20260814);
  std::uniform_int_distribution<int> byte(0, 255);
  for (std::size_t i = 0; i < fuzz_iters(); ++i) {
    FrameParser parser;
    std::vector<std::uint8_t> junk(1 + rng() % 256);
    for (auto& b : junk) b = static_cast<std::uint8_t>(byte(rng));
    // Occasionally lead with real magic so the fuzz also explores the
    // header-accepted-then-truncated path.
    if (rng() % 3 == 0 && junk.size() >= 4) {
      junk[0] = kMagic[0];
      junk[1] = kMagic[1];
      junk[2] = kMagic[2];
      junk[3] = kMagic[3];
      if (junk.size() >= 5 && rng() % 2) junk[4] = kWireVersion;
    }
    parser.feed(junk);
    Frame f;
    for (int steps = 0; steps < 64; ++steps) {
      const FrameParser::Result res = parser.next(&f);
      if (res != FrameParser::Result::kFrame) break;
    }
  }
}

}  // namespace
}  // namespace dbr::net
