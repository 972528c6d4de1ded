// Self-tests of the benchmark's own machinery: seeded traffic, percentile
// reporting and the correctness gate. Exit status 0 when every check passes.
//
//   perfbench_selftest

#include <iostream>
#include <string>
#include <vector>

#include "codec.hpp"
#include "gate.hpp"
#include "service/engine.hpp"
#include "stats.hpp"
#include "traffic.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++failures;
}

/// A flat fingerprint of every request list the workloads draw from a seed.
std::vector<std::uint64_t> traffic_fingerprint(std::uint64_t seed) {
  std::vector<std::uint64_t> out;
  for (const EmbedRequest& r : make_hot_pool(seed)) out.push_back(request_key(r));
  for (unsigned c = 0; c < 2; ++c) {
    HotStream hot(seed, c);
    for (int i = 0; i < 200; ++i) out.push_back(hot.next());
  }
  ColdStream cold(seed);
  for (int i = 0; i < 200; ++i) out.push_back(request_key(cold.next()));
  for (const EmbedRequest& r : make_cold_warmup(seed)) out.push_back(request_key(r));
  for (unsigned c = 0; c < 2; ++c) {
    ChurnScript script(seed, c);
    for (int i = 0; i < 200; ++i) {
      const Mutation m = script.next();
      out.push_back(m.word * 4 + (m.add ? 2 : 0) + (m.kind == FaultKind::kEdge ? 1 : 0));
    }
  }
  return out;
}

void test_traffic() {
  expect(traffic_fingerprint(7) == traffic_fingerprint(7),
         "same seed gives the same request lists");
  expect(traffic_fingerprint(7) != traffic_fingerprint(8),
         "a different seed gives different request lists");
  ColdStream cold(3);
  std::unordered_set<std::uint64_t> keys;
  // More than a fast window sends; single-fault cells alone would run dry.
  for (int i = 0; i < 40000; ++i) keys.insert(request_key(cold.next()));
  expect(keys.size() == 40000, "cold_sweep requests are pairwise distinct");
  ChurnScript script(5, 1);
  bool bounded = true;
  for (int i = 0; i < 1000; ++i) {
    script.next();
    const EmbedRequest s = script.state_request();
    const std::size_t live = s.faults.size() + s.edge_faults.size();
    bounded = bounded && live >= ChurnScript::kMinFaults && live <= ChurnScript::kMaxFaults;
  }
  expect(bounded, "churn fault set stays within its bounds");
}

void test_percentile() {
  const Percentile p = percentile({5, 1, 4, 2, 3, 6, 7, 8, 9, 10}, 90);
  expect(p.samples == 10, "percentile reports its sample count");
  expect(p.value > 9.0 && p.value < 10.0, "p90 of 1..10 interpolates to 9.1");
  expect(p.beyond == 1, "one sample lies beyond p90 of 1..10");
  expect(percentile({}, 50).samples == 0, "empty input reports zero samples");
}

void test_gate() {
  dbr::service::EmbedEngine engine;
  const EmbedRequest request = make_hot_pool(11)[1];  // FFC on B(2,12)
  const auto reference = engine.compute_uncached(request);
  const std::uint64_t want = answer_hash(*reference);
  dbr::service::EmbedResponse response;
  response.result = reference;
  dbr::net::WireEmbed reply;
  expect(parse_reply_frame(reply_frame(response, 1), &reply), "reply frame decodes");
  expect(answer_hash(reply) == want, "an untouched stateless reply passes");

  dbr::net::WireEmbed tampered = reply;
  tampered.ring[tampered.ring.size() / 2] ^= 1;
  expect(answer_hash(tampered) != want, "a tampered stateless ring is flagged");
  dbr::net::WireEmbed wrong = reply;
  wrong.status = dbr::service::EmbedStatus::kNoEmbedding;
  expect(answer_hash(wrong) != want, "a wrong stateless status is flagged");

  expect(session_violation(request, *reference).empty(),
         "the oracle accepts a correct session answer");
  dbr::service::EmbedResult bad_ring = *reference;
  bad_ring.ring.nodes[bad_ring.ring.nodes.size() / 2] ^= 1;
  expect(!session_violation(request, bad_ring).empty(),
         "the oracle flags a tampered session ring");
  dbr::service::EmbedResult no_ring = *reference;
  no_ring.status = dbr::service::EmbedStatus::kNoEmbedding;
  no_ring.ring.nodes.clear();
  no_ring.ring_length = 0;
  expect(!session_violation(request, no_ring).empty(),
         "the oracle flags a wrong session status");
}

}  // namespace

int main() {
  test_traffic();
  test_percentile();
  test_gate();
  std::cout << (failures == 0 ? "all self-tests passed" : "self-tests FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}
