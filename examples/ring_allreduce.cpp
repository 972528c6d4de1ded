// The paper's whole point, end to end: "allow a faulty De Bruijn network to
// efficiently support algorithms that make use of a ring" (Chapter 1).
//
// This example fails processors in B(2,8), re-embeds the fault-free ring
// with the FFC algorithm, and then runs a classic ring algorithm - a
// ring all-reduce (global sum) - on the surviving machine through the
// message-passing simulator. Every transfer uses only physical De Bruijn
// links (the ring has unit dilation), and completes in |ring| - 1 rounds.
//
//   $ ./ring_allreduce [f]        (default: 4 faults)

#include <cstdlib>
#include <iostream>
#include <map>

#include "core/ffc.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace dbr;
  const unsigned f = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 4;

  const auto ctx = core::InstanceContext::make(2, 8);
  const WordSpace& ws = ctx->words();
  Rng rng(99);
  const auto faults = rng.sample_distinct(ws.size(), f);

  std::cout << "B(2,8): 256 processors, " << f << " failed\n";
  const auto result = core::solve_ffc(*ctx, faults);
  const auto& ring = result.cycle.nodes;
  std::cout << "fault-free ring: " << ring.size() << " processors\n";

  // Each surviving processor contributes value = its own id; the ring
  // all-reduce pipelines partial sums around the embedded cycle.
  std::map<Word, std::size_t> position;
  for (std::size_t i = 0; i < ring.size(); ++i) position[ring[i]] = i;

  sim::Engine engine(ws.size(), [&ws](NodeId u, NodeId v) {
    return ws.suffix(u) == ws.prefix(v);  // physical De Bruijn links only
  });
  for (Word v : faults) engine.kill(v);

  // Round 0: the ring start sends its value; each receiver adds its own and
  // forwards; after |ring| - 1 hops the final node holds the global sum.
  std::uint64_t expected = 0;
  for (Word v : ring) expected += v;

  const Word start = ring.front();
  engine.post(start, ring[1], {start, 1, {start}});
  std::uint64_t global_sum = 0;
  while (!engine.idle()) {
    engine.step([&](NodeId dest, std::vector<sim::Message>& batch) {
      for (const sim::Message& m : batch) {
        const std::uint64_t acc = m.payload[0] + dest;
        const std::size_t pos = position.at(dest);
        if (pos + 1 < ring.size()) {
          engine.post(dest, ring[pos + 1], {dest, 1, {acc}});
        } else {
          global_sum = acc;  // last ring node holds the reduction
        }
      }
    });
  }

  std::cout << "all-reduce finished in " << engine.rounds() << " rounds (= |ring|-1 = "
            << ring.size() - 1 << ")\n";
  std::cout << "global sum = " << global_sum << ", expected = " << expected << " -> "
            << (global_sum == expected ? "CORRECT" : "WRONG") << "\n";
  std::cout << "\nEvery hop used a physical link of the faulty machine: the\n"
               "embedded ring has unit dilation and congestion (Section 1.1).\n";
  return global_sum == expected ? 0 : 1;
}
