#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"
#include "service/engine.hpp"
#include "service/session.hpp"

// End-to-end tests of net::Server over real loopback sockets: wire answers
// must be bit-identical to in-process engine answers, and each production
// state — backpressure (kOverloaded), per-request timeouts (kTimeout),
// graceful drain (kShuttingDown + clean exit) and malformed-stream handling
// — has a dedicated test. Servers bind ephemeral ports (ServerOptions::port
// = 0), so tests never collide with each other or with the host.

namespace dbr::net {
namespace {

using service::EmbedEngine;
using service::EmbedRequest;
using service::EmbedResponse;
using service::EmbedStatus;
using service::EngineOptions;
using service::FaultKind;
using service::Strategy;

EmbedRequest node_request(Digit d, unsigned n, std::vector<Word> faults) {
  EmbedRequest req;
  req.base = d;
  req.n = n;
  req.fault_kind = FaultKind::kNode;
  req.faults = std::move(faults);
  return req;
}

/// Engine + started server + connected client, torn down in order.
struct Rig {
  explicit Rig(ServerOptions options = {}, EngineOptions engine_options = {}) {
    engine = std::make_unique<EmbedEngine>(engine_options);
    server = std::make_unique<Server>(*engine, options);
    server->start();
    client.connect("127.0.0.1", server->port());
  }
  ~Rig() {
    client.close();
    if (server && !server->stopped()) server->stop();
  }

  std::unique_ptr<EmbedEngine> engine;
  std::unique_ptr<Server> server;
  Client client;
};

TEST(NetServer, SolveMatchesInProcessAnswerBitForBit) {
  Rig rig;
  const EmbedRequest req = node_request(2, 11, {5, 99, 1234});
  const EmbedResponse local = rig.engine->query(req);
  ASSERT_EQ(local.result->status, EmbedStatus::kOk);

  const Client::SolveReply remote = rig.client.solve(req, /*want_ring=*/true);
  ASSERT_EQ(remote.status, WireStatus::kOk) << remote.message;
  EXPECT_EQ(remote.embed.status, local.result->status);
  EXPECT_EQ(remote.embed.strategy_used, local.result->strategy_used);
  EXPECT_EQ(remote.embed.ring_length, local.result->ring_length);
  EXPECT_EQ(remote.embed.lower_bound, local.result->lower_bound);
  EXPECT_EQ(remote.embed.upper_bound, local.result->upper_bound);
  ASSERT_TRUE(remote.embed.has_ring);
  // The engine caches results, so the wire answer is the *same* computation
  // — the ring words must match exactly, not just be equally valid.
  EXPECT_EQ(remote.embed.ring, local.result->ring.nodes);
  EXPECT_TRUE(remote.embed.cache_hit);  // local.query() filled the cache
}

TEST(NetServer, PipelinedBurstKeepsRequestOrder) {
  Rig rig;
  std::vector<EmbedRequest> reqs;
  for (Word f = 1; f <= 8; ++f) reqs.push_back(node_request(2, 11, {f}));
  const std::vector<Client::SolveReply> replies =
      rig.client.solve_pipeline(reqs, /*want_ring=*/false);
  ASSERT_EQ(replies.size(), reqs.size());
  for (std::size_t i = 0; i < replies.size(); ++i) {
    ASSERT_EQ(replies[i].status, WireStatus::kOk)
        << "i=" << i << " " << replies[i].message;
    EXPECT_EQ(replies[i].embed.status, EmbedStatus::kOk) << "i=" << i;
    EXPECT_FALSE(replies[i].embed.has_ring) << "i=" << i;
    // Distinct faults produce distinct cache keys; matching each reply to
    // its request's in-process answer proves replies did not reorder.
    const EmbedResponse local = rig.engine->query(reqs[i]);
    EXPECT_EQ(replies[i].embed.ring_length, local.result->ring_length)
        << "i=" << i;
  }
}

TEST(NetServer, SessionWalkthroughMirrorsInProcessSession) {
  EngineOptions eopts;
  eopts.incremental_repair = true;
  Rig rig({}, eopts);

  // Wire session and a local mirror on an identical second engine, stepped
  // in lockstep: every current_ring must agree on status and length.
  EmbedEngine local_engine(eopts);
  service::EmbedSession local(local_engine, 2, 11, FaultKind::kNode);

  ASSERT_EQ(rig.client.configure_session(2, 11, FaultKind::kNode).status,
            WireStatus::kOk);
  for (const Word fault : {Word{3}, Word{200}, Word{777}}) {
    const Client::FaultReply fr = rig.client.add_fault(FaultKind::kNode, fault);
    ASSERT_EQ(fr.status, WireStatus::kOk) << fr.message;
    EXPECT_TRUE(fr.changed);
    EXPECT_TRUE(local.add_fault(FaultKind::kNode, fault));
    const Client::SolveReply remote = rig.client.session_solve();
    const EmbedResponse mirror = local.current_ring();
    ASSERT_EQ(remote.status, WireStatus::kOk) << remote.message;
    EXPECT_EQ(remote.embed.status, mirror.result->status);
    EXPECT_EQ(remote.embed.ring_length, mirror.result->ring_length);
  }
  // Removing a fault exercises the repair path over the wire.
  ASSERT_EQ(rig.client.clear_fault(FaultKind::kNode, 200).status,
            WireStatus::kOk);
  EXPECT_TRUE(local.clear_fault(FaultKind::kNode, 200));
  const Client::SolveReply repaired = rig.client.session_solve();
  const EmbedResponse mirror = local.current_ring();
  ASSERT_EQ(repaired.status, WireStatus::kOk) << repaired.message;
  EXPECT_EQ(repaired.embed.status, mirror.result->status);
  EXPECT_EQ(repaired.embed.ring_length, mirror.result->ring_length);
  EXPECT_EQ(repaired.embed.repaired, mirror.repaired);

  ASSERT_EQ(rig.client.reset_faults().status, WireStatus::kOk);
  const Client::SolveReply clean = rig.client.session_solve();
  ASSERT_EQ(clean.status, WireStatus::kOk);
  EXPECT_EQ(clean.embed.status, EmbedStatus::kOk);
}

TEST(NetServer, SessionOpsBeforeConfigAnswerNoSession) {
  Rig rig;
  EXPECT_EQ(rig.client.add_fault(FaultKind::kNode, 1).status,
            WireStatus::kNoSession);
  EXPECT_EQ(rig.client.session_solve().status, WireStatus::kNoSession);
  EXPECT_EQ(rig.client.reset_faults().status, WireStatus::kNoSession);
  // The connection survives the rejections.
  EXPECT_EQ(rig.client.stats().status, WireStatus::kOk);
}

TEST(NetServer, BadInstanceAnswersBadRequestNotDisconnect) {
  Rig rig;
  ASSERT_EQ(rig.client.configure_session(1, 0, FaultKind::kNode).status,
            WireStatus::kOk);  // config stores, the session is lazy
  const Client::SolveReply reply = rig.client.session_solve();
  EXPECT_EQ(reply.status, WireStatus::kBadRequest);
  EXPECT_FALSE(reply.message.empty());
  EXPECT_EQ(rig.client.stats().status, WireStatus::kOk);
}

// A precondition failure's text crosses the wire as-is, so it must be the
// named condition alone: no source file path or line of the check.
TEST(NetServer, BadRequestReplyCarriesNoSourcePath) {
  Rig rig;
  const auto expect_clean = [](const std::string& message) {
    EXPECT_EQ(message.rfind("fault word 64 out of range", 0), 0u) << message;
    EXPECT_EQ(message.find(".cpp:"), std::string::npos) << message;
    EXPECT_EQ(message.find('/'), std::string::npos) << message;
  };
  // Stateful: the session's add_fault precondition answers kBadRequest.
  ASSERT_EQ(rig.client.configure_session(2, 6, FaultKind::kNode).status,
            WireStatus::kOk);
  const Client::FaultReply fault = rig.client.add_fault(FaultKind::kNode, 64);
  EXPECT_EQ(fault.status, WireStatus::kBadRequest);
  expect_clean(fault.message);
  // Stateless: the engine's answer carries the same text in its error.
  const Client::SolveReply solve = rig.client.solve(node_request(2, 6, {64}));
  ASSERT_EQ(solve.status, WireStatus::kOk) << solve.message;
  EXPECT_EQ(solve.embed.status, EmbedStatus::kBadRequest);
  expect_clean(solve.embed.error);
}

TEST(NetServer, BackpressureEngagesUnderTinyQueueBound) {
  ServerOptions opts;
  opts.workers = 1;
  opts.max_pending = 1;
  opts.debug_solve_delay_ms = 30.0;  // hold the one admitted slot busy
  Rig rig(opts);

  // Several clients firing concurrently against one slow worker and a
  // one-deep admission queue: at least one must bounce with kOverloaded,
  // and every reply must be either kOk or kOverloaded — never a hang, a
  // disconnect, or a reordering.
  constexpr int kClients = 5;
  std::atomic<int> ok{0}, overloaded{0}, other{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      Client c;
      c.connect("127.0.0.1", rig.server->port());
      const Client::SolveReply r =
          c.solve(node_request(2, 11, {static_cast<Word>(t + 1)}), false);
      if (r.status == WireStatus::kOk)
        ok.fetch_add(1);
      else if (r.status == WireStatus::kOverloaded)
        overloaded.fetch_add(1);
      else
        other.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(other.load(), 0);
  EXPECT_GE(ok.load(), 1);
  EXPECT_GE(overloaded.load(), 1);
  EXPECT_EQ(ok.load() + overloaded.load(), kClients);
  EXPECT_GE(rig.server->stats().overloaded, 1u);
}

TEST(NetServer, RequestPastDeadlineAnswersTimeout) {
  ServerOptions opts;
  opts.workers = 1;
  opts.request_timeout_ms = 10.0;
  opts.debug_solve_delay_ms = 50.0;  // every solve overruns the deadline
  Rig rig(opts);
  const Client::SolveReply reply =
      rig.client.solve(node_request(2, 11, {42}), false);
  EXPECT_EQ(reply.status, WireStatus::kTimeout);
  EXPECT_GE(rig.server->stats().timeouts, 1u);
  // The connection is still healthy after a timeout reply.
  EXPECT_EQ(rig.client.stats().status, WireStatus::kOk);
}

TEST(NetServer, TightDeadlineEnforcedAtReplyEnqueue) {
  ServerOptions opts;
  opts.workers = 1;
  opts.request_timeout_ms = 1.0;  // tighter than any cold solve
  Rig rig(opts);
  // No debug delay: a genuine cold solve of B(2,15) (context build plus the
  // full FFC construction over 32768 nodes, ring encoding included) takes
  // well over a millisecond, so its kOk payload is ready only after the
  // budget. The server must swap it for kTimeout when the reply is
  // enqueued — a late success must never reach the wire.
  const Client::SolveReply reply =
      rig.client.solve(node_request(2, 15, {42}), /*want_ring=*/true);
  EXPECT_EQ(reply.status, WireStatus::kTimeout);
  EXPECT_GE(rig.server->stats().timeouts, 1u);
  // The connection is still healthy after the timeout reply.
  EXPECT_EQ(rig.client.stats().status, WireStatus::kOk);
}

TEST(NetServer, GracefulDrainFinishesInFlightAndRejectsNew) {
  ServerOptions opts;
  opts.workers = 1;
  opts.debug_solve_delay_ms = 50.0;
  Rig rig(opts);

  // One slow solve in flight when drain starts: it must complete with kOk
  // (drain finishes admitted work; it does not cancel it).
  std::thread in_flight([&] {
    Client c;
    c.connect("127.0.0.1", rig.server->port());
    const Client::SolveReply r = c.solve(node_request(2, 11, {7}), false);
    EXPECT_EQ(r.status, WireStatus::kOk) << r.message;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  rig.server->drain();

  // Frames arriving after drain() answer kShuttingDown (while the in-flight
  // solve still holds the worker, proving rejection does not wait).
  const Client::SolveReply rejected =
      rig.client.solve(node_request(2, 11, {8}), false);
  EXPECT_EQ(rejected.status, WireStatus::kShuttingDown);

  in_flight.join();
  rig.server->wait();
  EXPECT_TRUE(rig.server->stopped());
  EXPECT_GE(rig.server->stats().shutdown_rejects, 1u);

  // A fresh connect must fail: the listener is gone.
  Client late;
  EXPECT_THROW(late.connect("127.0.0.1", rig.server->port()), TransportError);
}

TEST(NetServer, GarbageStreamClosesThatConnectionOnly) {
  Rig rig;
  // Raw socket speaking garbage: the server must drop it...
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(rig.server->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const char junk[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_GT(::send(fd, junk, sizeof(junk) - 1, 0), 0);
  char buf[64];
  const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);  // blocks until close
  EXPECT_EQ(r, 0) << "server should close a garbage connection";
  ::close(fd);

  // ...while a well-behaved connection on the same server keeps working.
  const Client::SolveReply reply =
      rig.client.solve(node_request(2, 11, {3}), false);
  EXPECT_EQ(reply.status, WireStatus::kOk) << reply.message;
  EXPECT_GE(rig.server->stats().bad_frames, 1u);
}

TEST(NetServer, TruncatedPayloadWithValidHeaderAnswersBadFrame) {
  Rig rig;
  // Hand-build a kSolve frame whose payload is one lonely byte: the header
  // frames fine, the payload does not decode — the server must answer
  // kBadFrame and keep the connection.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(rig.server->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  std::vector<std::uint8_t> frame;
  encode_header(frame, static_cast<std::uint8_t>(Op::kSolve), 9, 1);
  frame.push_back(0x5a);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  std::uint8_t buf[256];
  std::size_t got = 0;
  while (got < kHeaderSize) {
    const ssize_t r = ::recv(fd, buf + got, sizeof(buf) - got, 0);
    ASSERT_GT(r, 0);
    got += static_cast<std::size_t>(r);
  }
  FrameError err = FrameError::kNone;
  const auto header = decode_header({buf, kHeaderSize}, &err);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->opcode, static_cast<std::uint8_t>(Op::kSolve) | kReplyBit);
  EXPECT_EQ(header->request_id, 9u);
  ::close(fd);

  const Client::SolveReply reply =
      rig.client.solve(node_request(2, 11, {3}), false);
  EXPECT_EQ(reply.status, WireStatus::kOk);
}

// A reply too large for one frame (the fault-free B(2,21) FFC ring: 2^21
// words, a payload of 16,777,274 bytes against the 16 MiB cap) used to go
// out with an oversized length, which the client could not frame: that
// solve and every later one on the connection failed. It now answers a
// typed kBadRequest naming the cap, and the connection stays usable.
TEST(NetServer, OversizedReplyAnswersBadRequestAndKeepsConnection) {
  Rig rig;
  // The B(2,21) solve takes about a second in a release build and far
  // longer under the sanitizers: give its receive more than the default
  // 10 s before it counts as a stuck server.
  rig.client.connect("127.0.0.1", rig.server->port(), /*timeout_ms=*/300000.0);
  EmbedRequest big = node_request(2, 21, {});
  big.strategy = Strategy::kFfc;
  const Client::SolveReply refused = rig.client.solve(big, /*want_ring=*/true);
  EXPECT_EQ(refused.status, WireStatus::kBadRequest);
  EXPECT_NE(refused.message.find("16 MiB"), std::string::npos)
      << refused.message;
  EXPECT_NE(refused.message.find("want_ring=false"), std::string::npos)
      << refused.message;

  // The answer itself is still available without the ring.
  const Client::SolveReply bare = rig.client.solve(big, /*want_ring=*/false);
  ASSERT_EQ(bare.status, WireStatus::kOk) << bare.message;
  EXPECT_EQ(bare.embed.status, EmbedStatus::kOk);
  EXPECT_FALSE(bare.embed.has_ring);

  // The next solve on the same connection is bit-identical to in-process.
  const EmbedRequest req = node_request(2, 11, {5, 99, 1234});
  const EmbedResponse local = rig.engine->query(req);
  const Client::SolveReply next = rig.client.solve(req, /*want_ring=*/true);
  ASSERT_EQ(next.status, WireStatus::kOk) << next.message;
  EXPECT_EQ(next.embed.ring_length, local.result->ring_length);
  EXPECT_EQ(next.embed.ring, local.result->ring.nodes);
}

TEST(NetServer, StatsOpReportsServerAndSessionCounters) {
  Rig rig;
  ASSERT_EQ(rig.client.solve(node_request(2, 11, {1}), false).status,
            WireStatus::kOk);
  Client::StatsReply before = rig.client.stats();
  ASSERT_EQ(before.status, WireStatus::kOk) << before.message;
  EXPECT_FALSE(before.stats.has_session);
  EXPECT_GE(before.stats.server.solves, 1u);
  EXPECT_GE(before.stats.server.frames_in, 2u);
  EXPECT_EQ(before.stats.engine.serve.queries, 1u);
  EXPECT_FALSE(before.stats.server.draining);

  ASSERT_EQ(rig.client.configure_session(2, 11, FaultKind::kNode).status,
            WireStatus::kOk);
  ASSERT_EQ(rig.client.add_fault(FaultKind::kNode, 77).status, WireStatus::kOk);
  ASSERT_EQ(rig.client.session_solve(false).status, WireStatus::kOk);
  const Client::StatsReply after = rig.client.stats();
  ASSERT_EQ(after.status, WireStatus::kOk);
  EXPECT_TRUE(after.stats.has_session);
  EXPECT_GE(after.stats.session.solves, 1u);
  EXPECT_GE(after.stats.server.solves, 2u);
}

}  // namespace
}  // namespace dbr::net
