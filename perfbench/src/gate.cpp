#include "gate.hpp"

#include <array>
#include <bit>
#include <span>

#include "verify/oracle.hpp"

namespace perfbench {

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h * 0xbf58476d1ce4e5b9ull;
}

std::uint64_t answer_hash(dbr::service::EmbedStatus status,
                          dbr::service::Strategy strategy_used,
                          std::span<const dbr::Word> ring,
                          std::uint64_t ring_length, std::uint64_t lower,
                          std::uint64_t upper) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = mix(h, static_cast<std::uint64_t>(status));
  h = mix(h, static_cast<std::uint64_t>(strategy_used));
  h = mix(h, ring_length);
  h = mix(h, lower);
  h = mix(h, upper);
  h = mix(h, ring.size());
  // Four independent lanes, so hashing a long ring on the client thread
  // costs about a cycle per word instead of a serial multiply chain. Each
  // lane step is a bijection, so a changed word always changes its lane.
  std::array<std::uint64_t, 4> lane{h, h ^ 1, h ^ 2, h ^ 3};
  std::size_t i = 0;
  for (; i + lane.size() <= ring.size(); i += lane.size()) {
    for (std::size_t k = 0; k < lane.size(); ++k)
      lane[k] = std::rotl(lane[k] ^ ring[i + k], 31) * 0x9e3779b97f4a7c15ull;
  }
  for (; i < ring.size(); ++i) h = mix(h, ring[i]);
  for (const std::uint64_t l : lane) h = mix(h, l);
  return h;
}

}  // namespace

std::uint64_t answer_hash(const dbr::service::EmbedResult& r) {
  return answer_hash(r.status, r.strategy_used, r.ring.nodes, r.ring_length,
                     r.lower_bound, r.upper_bound);
}

std::uint64_t answer_hash(const dbr::net::WireEmbed& r) {
  return answer_hash(r.status, r.strategy_used, r.ring, r.ring_length,
                     r.lower_bound, r.upper_bound);
}

std::string session_violation(const dbr::service::EmbedRequest& state,
                              const dbr::service::EmbedResult& answer) {
  if (answer.quarantined) return "answer was quarantined by the server";
  const dbr::verify::OracleReport report =
      dbr::verify::check_response(state, answer);
  return report.ok() ? std::string() : report.to_string();
}

}  // namespace perfbench
