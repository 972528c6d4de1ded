#include "codec.hpp"

namespace perfbench {

using dbr::net::Frame;
using dbr::net::FrameParser;
using dbr::net::Op;
using dbr::net::WireReader;
using dbr::net::WireStatus;
using dbr::net::WireWriter;

std::vector<std::uint8_t> request_frame(const dbr::service::EmbedRequest& request,
                                        std::uint32_t id) {
  std::vector<std::uint8_t> payload;
  dbr::net::encode_request(payload, request, true);
  std::vector<std::uint8_t> frame;
  dbr::net::encode_header(frame, static_cast<std::uint8_t>(Op::kSolve), id,
                          static_cast<std::uint32_t>(payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

bool parse_request_frame(const std::vector<std::uint8_t>& frame,
                         dbr::service::EmbedRequest* request) {
  if (frame.size() < dbr::net::kHeaderSize) return false;
  bool want_ring = false;
  return dbr::net::decode_request(
      std::span<const std::uint8_t>(frame).subspan(dbr::net::kHeaderSize), request,
      &want_ring);
}

std::vector<std::uint8_t> reply_frame(const dbr::service::EmbedResponse& response,
                                      std::uint32_t id) {
  std::vector<std::uint8_t> payload;
  WireWriter w(payload);
  w.u8(static_cast<std::uint8_t>(WireStatus::kOk));
  dbr::net::encode_embed(w, response, true);
  std::vector<std::uint8_t> frame;
  dbr::net::encode_header(frame,
                          static_cast<std::uint8_t>(Op::kSolve) | dbr::net::kReplyBit,
                          id, static_cast<std::uint32_t>(payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

bool parse_reply_frame(const std::vector<std::uint8_t>& bytes,
                       dbr::net::WireEmbed* out) {
  FrameParser parser;
  parser.feed(bytes);
  Frame frame;
  if (parser.next(&frame) != FrameParser::Result::kFrame) return false;
  WireReader r(frame.payload);
  if (r.u8() != static_cast<std::uint8_t>(WireStatus::kOk)) return false;
  return dbr::net::decode_embed(r, out);
}

std::size_t reply_roundtrip(const dbr::service::EmbedResponse& response,
                            Tracer* tracer, std::uint64_t request_id,
                            std::int64_t parent) {
  std::int64_t span = tracer->begin("net.encode_reply", request_id, parent);
  const std::vector<std::uint8_t> frame =
      reply_frame(response, static_cast<std::uint32_t>(request_id));
  tracer->end(span);
  span = tracer->begin("net.decode_reply", request_id, parent);
  dbr::net::WireEmbed decoded;
  parse_reply_frame(frame, &decoded);
  tracer->end(span);
  return frame.size();
}

}  // namespace perfbench
