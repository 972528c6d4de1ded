// Stateful fault-churn sessions: any EmbedSession fault history must yield
// exactly the ring a fresh stateless query computes for the final fault set
// (oracle-validated), with the pinned context making re-solves
// precompute-free, and the sim/ driver composing the three layers.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "service/engine.hpp"
#include "service/session.hpp"
#include "sim/session_driver.hpp"
#include "util/require.hpp"
#include "verify/oracle.hpp"
#include "verify/scenario.hpp"

namespace dbr::service {
namespace {

constexpr Strategy kAllStrategies[] = {
    Strategy::kAuto,     Strategy::kFfc,     Strategy::kEdgeAuto,
    Strategy::kEdgeScan, Strategy::kEdgePhi, Strategy::kButterfly};

EmbedRequest request_for(const verify::ChurnScript& script,
                         std::vector<Word> faults) {
  EmbedRequest req = script.base_request;
  req.faults = std::move(faults);
  return req;
}

// --------------------------------------------------------------------------
// Churn scripts (the scenario generator's churn regime).

TEST(ChurnScriptTest, DeterministicFromSeedAndStrategy) {
  for (Strategy s : kAllStrategies) {
    const verify::ChurnScript a = verify::make_churn_script(7, s, 40);
    const verify::ChurnScript b = verify::make_churn_script(7, s, 40);
    EXPECT_EQ(a.base_request.base, b.base_request.base);
    EXPECT_EQ(a.base_request.n, b.base_request.n);
    EXPECT_EQ(a.events, b.events) << a.describe();
  }
}

TEST(ChurnScriptTest, EveryEventMutatesTheLiveSet) {
  for (Strategy s : kAllStrategies) {
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      const verify::ChurnScript script = verify::make_churn_script(seed, s, 30);
      std::vector<Word> live;
      for (const verify::ChurnEvent& e : script.events) {
        const auto it = std::find(live.begin(), live.end(), e.fault);
        if (e.add) {
          ASSERT_EQ(it, live.end()) << script.describe();
          live.push_back(e.fault);
        } else {
          ASSERT_NE(it, live.end()) << script.describe();
          live.erase(it);
        }
      }
      EXPECT_EQ(script.final_faults().size(), live.size());
    }
  }
}

TEST(ChurnScriptTest, ExplicitInstanceOverloadClampsMaxLiveToTheWordSpace) {
  // B(2,2) has only 4 node words; a cap far above that must still terminate
  // and never hold more than the whole space live.
  EmbedRequest instance;
  instance.base = 2;
  instance.n = 2;
  instance.fault_kind = FaultKind::kNode;
  instance.strategy = Strategy::kFfc;
  const verify::ChurnScript script =
      verify::make_churn_script(5, instance, 60, /*max_live=*/50);
  EXPECT_EQ(script.events.size(), 60u);
  std::vector<Word> live;
  for (const verify::ChurnEvent& e : script.events) {
    if (e.add) {
      live.push_back(e.fault);
    } else {
      live.erase(std::find(live.begin(), live.end(), e.fault));
    }
    EXPECT_LE(live.size(), 4u);
    EXPECT_LT(e.fault, 4u);
  }
}

TEST(ChurnScriptTest, DescribeLeadsWithReproductionTuple) {
  const verify::ChurnScript script =
      verify::make_churn_script(3, Strategy::kFfc, 5);
  const std::string text = script.describe();
  EXPECT_NE(text.find("seed=3"), std::string::npos);
  EXPECT_NE(text.find("strategy=ffc"), std::string::npos);
}

// --------------------------------------------------------------------------
// Session-vs-stateless equivalence (oracle-validated).

TEST(EmbedSessionTest, AnyFaultHistoryMatchesStatelessQueryOnFinalSet) {
  for (Strategy s : kAllStrategies) {
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      const verify::ChurnScript script = verify::make_churn_script(seed, s, 24);
      EmbedEngine engine;
      EmbedSession session(engine, script.base_request.base,
                           script.base_request.n,
                           script.base_request.fault_kind,
                           script.base_request.strategy);
      for (const verify::ChurnEvent& e : script.events) {
        if (e.add) {
          EXPECT_TRUE(session.add_fault(e.fault)) << script.describe();
        } else {
          EXPECT_TRUE(session.clear_fault(e.fault)) << script.describe();
        }
      }
      const EmbedResponse& churned = session.current_ring();

      EmbedEngine fresh;  // independent engine: no shared cache state
      const EmbedRequest final_request =
          request_for(script, script.final_faults());
      const EmbedResponse stateless = fresh.query(final_request);
      ASSERT_TRUE(churned.result && stateless.result);
      EXPECT_TRUE(churned.result->same_embedding(*stateless.result))
          << script.describe();

      const verify::OracleReport report =
          verify::check_response(final_request, *churned.result);
      EXPECT_TRUE(report.ok()) << script.describe() << " -> "
                               << report.to_string();
    }
  }
}

TEST(EmbedSessionTest, IntermediateRingsPassTheOracleAfterEveryEvent) {
  for (Strategy s : {Strategy::kFfc, Strategy::kEdgeAuto, Strategy::kButterfly}) {
    const verify::ChurnScript script = verify::make_churn_script(11, s, 16);
    EmbedEngine engine;
    EmbedSession session(engine, script.base_request.base,
                         script.base_request.n, script.base_request.fault_kind,
                         script.base_request.strategy);
    for (const verify::ChurnEvent& e : script.events) {
      if (e.add) {
        session.add_fault(e.fault);
      } else {
        session.clear_fault(e.fault);
      }
      const EmbedResponse& ring = session.current_ring();
      ASSERT_TRUE(ring.result);
      const verify::OracleReport report = verify::check_response(
          request_for(script, session.faults()), *ring.result);
      EXPECT_TRUE(report.ok()) << script.describe() << " -> "
                               << report.to_string();
    }
  }
}

// --------------------------------------------------------------------------
// Incremental behavior: memoization, result-cache reuse, pinned context.

TEST(EmbedSessionTest, UnchangedFaultSetIsMemoizedNotResolved) {
  EmbedEngine engine;
  EmbedSession session(engine, 2, 6, FaultKind::kNode);
  session.add_fault(3);
  session.current_ring();
  session.current_ring();
  session.current_ring();
  EXPECT_EQ(session.stats().solves, 1u);
  EXPECT_EQ(session.stats().memoized, 2u);
}

TEST(EmbedSessionTest, RevisitedFaultStateIsAResultCacheHit) {
  EmbedEngine engine;
  EmbedSession session(engine, 2, 6, FaultKind::kNode);
  session.add_fault(3);
  const EmbedResponse first = session.current_ring();
  EXPECT_FALSE(first.cache_hit);

  session.add_fault(9);
  session.current_ring();
  session.clear_fault(9);  // back to {3}
  const EmbedResponse revisited = session.current_ring();
  EXPECT_TRUE(revisited.cache_hit);
  EXPECT_EQ(revisited.result.get(), first.result.get());  // exact bytes
  EXPECT_EQ(session.stats().result_cache_hits, 1u);
  EXPECT_EQ(session.stats().adds, 2u);
  EXPECT_EQ(session.stats().removes, 1u);
}

TEST(EmbedSessionTest, ResolvesReuseThePinnedContextNotARebuild) {
  EmbedEngine engine;
  EmbedSession session(engine, 3, 4, FaultKind::kEdge);
  const auto baseline = engine.context_cache_stats();
  session.add_fault(5);
  session.current_ring();
  session.add_fault(17);
  session.current_ring();
  // No further context-cache traffic: the session solves on its pin.
  const auto after = engine.context_cache_stats();
  EXPECT_EQ(after.misses, baseline.misses);
  EXPECT_EQ(session.context().use_count() >= 1, true);
  // Both solves report context reuse.
  EXPECT_EQ(engine.serve_stats().context_hits, 2u);
  EXPECT_EQ(engine.serve_stats().context_misses, 0u);
}

TEST(EmbedSessionTest, PinnedContextSurvivesContextCacheClear) {
  EmbedEngine engine;
  EmbedSession session(engine, 2, 6, FaultKind::kNode);
  engine.context_cache().clear();
  session.add_fault(1);
  const EmbedResponse& ring = session.current_ring();
  ASSERT_TRUE(ring.result);
  EXPECT_EQ(ring.result->status, EmbedStatus::kOk);
}

TEST(EmbedSessionTest, NoopMutationsDoNotDirtyTheSession) {
  EmbedEngine engine;
  EmbedSession session(engine, 2, 6, FaultKind::kNode);
  session.add_fault(3);
  session.current_ring();
  EXPECT_FALSE(session.add_fault(3));    // already faulty
  EXPECT_FALSE(session.clear_fault(9));  // was never faulty
  session.current_ring();
  EXPECT_EQ(session.stats().solves, 1u);
  EXPECT_EQ(session.stats().noop_mutations, 2u);
}

TEST(EmbedSessionTest, ResetFaultsOnAnEmptySessionIsACheapNoop) {
  EmbedEngine engine;
  EmbedSession session(engine, 2, 6, FaultKind::kNode);
  const EmbedResponse first = session.current_ring();
  session.reset_faults();  // nothing to drop: must not dirty the session
  const EmbedResponse again = session.current_ring();
  EXPECT_EQ(session.stats().solves, 1u);
  EXPECT_EQ(session.stats().memoized, 1u);
  EXPECT_EQ(session.stats().noop_mutations, 1u);
  EXPECT_EQ(again.result.get(), first.result.get());  // memoized bytes
}

TEST(EmbedSessionTest, ChurnRoundTripBackToTheSolvedSetIsMemoized) {
  // Mutations that round-trip the canonical solve set (an add undone by a
  // clear before any solve ran) must serve the memoized answer without any
  // engine traffic, not force a spurious recompute.
  EmbedEngine engine;
  EmbedSession session(engine, 2, 6, FaultKind::kNode);
  session.add_fault(3);
  const EmbedResponse solved = session.current_ring();
  session.add_fault(9);
  session.clear_fault(9);  // back to {3} without an intervening solve
  const std::uint64_t queries_before = engine.serve_stats().queries;
  const EmbedResponse again = session.current_ring();
  EXPECT_EQ(engine.serve_stats().queries, queries_before);  // no engine call
  EXPECT_EQ(session.stats().solves, 1u);
  EXPECT_EQ(session.stats().memoized, 1u);
  EXPECT_EQ(again.result.get(), solved.result.get());
}

TEST(EmbedSessionTest, DominatedLinkChurnRoundTripIsMemoizedNotResolved) {
  // A mixed session keeps dominated cuts live (so a router repair can
  // resurface them), but cutting and restoring a link under a dead router
  // leaves the canonical solve set untouched — the memoized result must
  // survive without a spurious engine query.
  EmbedEngine engine;
  EmbedSession session(engine, 2, 6, FaultKind::kMixed);
  session.add_fault(FaultKind::kNode, 3);
  const EmbedResponse solved = session.current_ring();
  const WordSpace& ws = session.context()->words();
  const Word dominated = ws.edge_word(3, 0);  // a link out of dead router 3
  session.add_fault(FaultKind::kEdge, dominated);
  const std::uint64_t queries_before = engine.serve_stats().queries;
  const EmbedResponse cut = session.current_ring();
  EXPECT_EQ(engine.serve_stats().queries, queries_before);
  EXPECT_EQ(cut.result.get(), solved.result.get());
  session.clear_fault(FaultKind::kEdge, dominated);
  const EmbedResponse restored = session.current_ring();
  EXPECT_EQ(engine.serve_stats().queries, queries_before);
  EXPECT_EQ(restored.result.get(), solved.result.get());
  EXPECT_EQ(session.stats().solves, 1u);
  EXPECT_EQ(session.stats().memoized, 2u);
}

TEST(EmbedSessionTest, ResetFaultsReturnsToTheFaultFreeRing) {
  EmbedEngine engine;
  EmbedSession session(engine, 2, 6, FaultKind::kNode);
  const EmbedResponse fault_free = session.current_ring();
  session.add_fault(3);
  session.add_fault(7);
  session.current_ring();
  session.reset_faults();
  const EmbedResponse again = session.current_ring();
  ASSERT_TRUE(again.result && fault_free.result);
  EXPECT_TRUE(again.result->same_embedding(*fault_free.result));
  EXPECT_TRUE(session.faults().empty());
}

// --------------------------------------------------------------------------
// Constructor and mutation preconditions.

TEST(EmbedSessionTest, ConstructorRejectsInvalidInstances) {
  EmbedEngine engine;
  // Strategy/fault-kind mismatch.
  EXPECT_THROW(EmbedSession(engine, 2, 6, FaultKind::kEdge, Strategy::kFfc),
               precondition_error);
  EXPECT_THROW(EmbedSession(engine, 2, 6, FaultKind::kNode, Strategy::kEdgeScan),
               precondition_error);
  // gcd(d, n) != 1 for the butterfly lift.
  EXPECT_THROW(EmbedSession(engine, 2, 6, FaultKind::kEdge, Strategy::kButterfly),
               precondition_error);
  // n < 2 for edge strategies.
  EXPECT_THROW(EmbedSession(engine, 4, 1, FaultKind::kEdge, Strategy::kEdgePhi),
               precondition_error);
}

// The session constructor and a stateless query share one precondition
// gate: over every concrete strategy, fault kind and a mix of valid and
// invalid shapes, the constructor throws exactly when the fault-free query
// answers kBadRequest, with the same message.
TEST(EmbedSessionTest, ConstructorPreconditionsMatchTheEngine) {
  EmbedEngine engine;
  constexpr Strategy kConcrete[] = {Strategy::kFfc,      Strategy::kEdgeAuto,
                                    Strategy::kEdgeScan, Strategy::kEdgePhi,
                                    Strategy::kButterfly, Strategy::kMixed};
  constexpr FaultKind kKinds[] = {FaultKind::kNode, FaultKind::kEdge,
                                  FaultKind::kMixed};
  constexpr std::pair<Digit, unsigned> kShapes[] = {{2, 6}, {3, 7}, {4, 1},
                                                    {2, 1}};
  int rejected = 0;
  for (const auto& [d, n] : kShapes) {
    for (const Strategy strategy : kConcrete) {
      for (const FaultKind kind : kKinds) {
        EmbedRequest request;
        request.base = d;
        request.n = n;
        request.fault_kind = kind;
        request.strategy = strategy;
        const EmbedResponse response = engine.query(request);
        ASSERT_TRUE(response.result);
        bool threw = false;
        std::string message;
        try {
          const EmbedSession session(engine, d, n, kind, strategy);
        } catch (const precondition_error& e) {
          threw = true;
          message = e.what();
        }
        const bool bad = response.result->status == EmbedStatus::kBadRequest;
        const std::string where = "B(" + std::to_string(d) + "," +
                                  std::to_string(n) + ") " +
                                  to_string(strategy) + "/" + to_string(kind);
        EXPECT_EQ(threw, bad) << where << ": " << response.result->error;
        if (threw && bad) {
          EXPECT_EQ(message, response.result->error) << where;
          ++rejected;
        }
      }
    }
  }
  // Both outcomes occur: kind mismatches, n = 1, gcd(2, 6) = 2, and the
  // valid pairings that embed.
  EXPECT_GT(rejected, 0);
  EXPECT_LT(rejected, 72);
}

TEST(EmbedSessionTest, AddFaultRejectsOutOfRangeWords) {
  EmbedEngine engine;
  EmbedSession node_session(engine, 2, 6, FaultKind::kNode);
  EXPECT_THROW(node_session.add_fault(64), precondition_error);  // d^n = 64
  EmbedSession edge_session(engine, 2, 6, FaultKind::kEdge);
  edge_session.add_fault(64);  // valid edge word: limit is d^(n+1) = 128
  EXPECT_THROW(edge_session.add_fault(128), precondition_error);
}

}  // namespace
}  // namespace dbr::service

// --------------------------------------------------------------------------
// sim/ composition: fail-stop kill events drive the session.

namespace dbr::sim {
namespace {

using service::EmbedEngine;
using service::EmbedSession;
using service::EmbedStatus;
using service::FaultKind;
using service::Strategy;

Engine debruijn_network(const WordSpace& ws) {
  const DeBruijnDigraph graph(ws);
  return Engine(ws.size(),
                [graph](NodeId u, NodeId v) { return graph.has_edge(u, v); });
}

TEST(SessionDriverTest, KillsAndRepairsKeepNetworkAndSessionInSync) {
  const WordSpace ws(2, 6);
  Engine net = debruijn_network(ws);
  EmbedEngine engine;
  EmbedSession session(engine, 2, 6, FaultKind::kNode, Strategy::kFfc);
  SessionDriver driver(net, session);

  driver.kill(3);
  driver.kill(9);
  driver.repair(9);
  EXPECT_FALSE(net.alive(3));
  EXPECT_TRUE(net.alive(9));
  EXPECT_EQ(session.faults(), (std::vector<Word>{3}));
  EXPECT_EQ(driver.stats().kills, 2u);
  EXPECT_EQ(driver.stats().repairs, 1u);

  const auto& ring = driver.current_ring();
  ASSERT_TRUE(ring.result);
  ASSERT_EQ(ring.result->status, EmbedStatus::kOk);
  for (Word v : ring.result->ring.nodes) {
    EXPECT_TRUE(net.alive(v));  // the ring avoids every dead processor
  }
}

TEST(SessionDriverTest, DriveScriptComposesSimSessionAndVerifyLayers) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const verify::ChurnScript script =
        verify::make_churn_script(seed, Strategy::kFfc, 20);
    const WordSpace ws(script.base_request.base, script.base_request.n);
    Engine net = debruijn_network(ws);
    EmbedEngine engine;
    EmbedSession session(engine, script.base_request.base,
                         script.base_request.n, FaultKind::kNode,
                         Strategy::kFfc);
    SessionDriver driver(net, session);
    const ChurnDriveStats stats = drive_script(driver, script);

    EXPECT_EQ(stats.kills + stats.repairs, script.events.size())
        << script.describe();
    EXPECT_EQ(stats.rings_embedded + stats.no_embeddings,
              script.events.size());
    // The network's dead set equals the session's final fault set.
    const std::vector<Word> final_faults = script.final_faults();
    EXPECT_EQ(session.faults(), final_faults);
    for (Word v = 0; v < ws.size(); ++v) {
      const bool faulty = std::find(final_faults.begin(), final_faults.end(),
                                    v) != final_faults.end();
      EXPECT_EQ(net.alive(v), !faulty);
    }
    // The final ring is exactly the stateless answer, validated end-to-end.
    const auto& ring = driver.current_ring();
    ASSERT_TRUE(ring.result);
    service::EmbedRequest final_request = script.base_request;
    final_request.faults = final_faults;
    const verify::OracleReport report =
        verify::check_response(final_request, *ring.result);
    EXPECT_TRUE(report.ok()) << script.describe() << " -> "
                             << report.to_string();
  }
}

TEST(SessionDriverTest, RequiresNodeFaultSessionsAndMatchingSize) {
  const WordSpace ws(2, 6);
  Engine net = debruijn_network(ws);
  EmbedEngine engine;
  EmbedSession edge_session(engine, 2, 6, FaultKind::kEdge);
  EXPECT_THROW(SessionDriver(net, edge_session), precondition_error);
  EmbedSession mismatched(engine, 2, 8, FaultKind::kNode);
  EXPECT_THROW(SessionDriver(net, mismatched), precondition_error);
}

}  // namespace
}  // namespace dbr::sim
