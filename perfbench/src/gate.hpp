#pragma once

// Correctness gate. Runs outside the timed window. A stateless reply must be
// bit-identical (by ring hash) to an in-process compute_uncached reference;
// a session answer, which a repair splice may legitimately make differ from
// a cold solve, must pass the independent verify/ oracle.

#include <cstdint>
#include <string>

#include "net/wire.hpp"
#include "service/types.hpp"

namespace perfbench {

/// Hash of everything deterministic in an answer: status, strategy used,
/// length, bounds and every ring word. The two overloads agree on the same
/// answer, in process or decoded from the wire.
std::uint64_t answer_hash(const dbr::service::EmbedResult& result);
std::uint64_t answer_hash(const dbr::net::WireEmbed& reply);

/// Session check: runs verify::check_response on the answer. Returns an
/// empty string when it passes, else the oracle's findings.
std::string session_violation(const dbr::service::EmbedRequest& state,
                              const dbr::service::EmbedResult& answer);

}  // namespace perfbench
