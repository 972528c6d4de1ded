#pragma once

// In-process wire round trips built only from net/wire.hpp's public codec,
// framed the way net::Client and net::Server frame a kSolve exchange. The
// traced run times each step as its own span.

#include <cstdint>
#include <vector>

#include "net/wire.hpp"
#include "trace.hpp"

namespace perfbench {

/// A kSolve request frame (header + payload) with want_ring set.
std::vector<std::uint8_t> request_frame(const dbr::service::EmbedRequest& request,
                                        std::uint32_t id);
/// Parses a request frame; false when it does not decode.
bool parse_request_frame(const std::vector<std::uint8_t>& frame,
                         dbr::service::EmbedRequest* request);
/// A kOk solve reply frame carrying the ring.
std::vector<std::uint8_t> reply_frame(const dbr::service::EmbedResponse& response,
                                      std::uint32_t id);
/// Parses a reply frame through a FrameParser; false when it does not decode.
bool parse_reply_frame(const std::vector<std::uint8_t>& frame,
                       dbr::net::WireEmbed* out);

/// Encodes then decodes `response` as a reply, recording "net.encode_reply"
/// and "net.decode_reply" spans under `parent`. Returns the frame size.
std::size_t reply_roundtrip(const dbr::service::EmbedResponse& response,
                            Tracer* tracer, std::uint64_t request_id,
                            std::int64_t parent);

}  // namespace perfbench
