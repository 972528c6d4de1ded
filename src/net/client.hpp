#pragma once

/// \file
/// net::Client — a small blocking client for the wire protocol. One client
/// drives one connection; requests are synchronous round-trips except
/// solve_pipeline(), which writes a whole batch of kSolve frames before
/// reading any reply (the load generator's high-throughput mode — the
/// server batches a pipelined burst into one worker task). Not thread-safe;
/// use one Client per thread.
///
/// Copies: each request is encoded in place into one reusable send buffer
/// (FrameWriter), and each reply is received straight into the connection's
/// FrameParser and decoded from a view of it, so a reply's ring words are
/// copied once, into the returned WireEmbed.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "service/types.hpp"

namespace dbr::net {

/// Socket-level failure (connect/read/write error, peer hangup, receive
/// timeout, or an unparseable reply stream). Wire-level rejections (e.g.
/// kOverloaded) are *statuses*, not exceptions — load tests count them.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Blocking wire-protocol client. See the file comment for the model.
class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Connects to host:port (IPv4 dotted quad or "localhost"). The timeout
  /// bounds every subsequent receive, so a stuck server surfaces as a
  /// TransportError instead of a hang.
  void connect(const std::string& host, std::uint16_t port,
               double timeout_ms = 10000.0);
  bool connected() const { return fd_ >= 0; }
  void close();

  /// Status-plus-message reply of an op with no result body.
  struct Reply {
    WireStatus status = WireStatus::kInternal;
    std::string message;
  };
  /// Reply of a solve op; `embed` is valid only when status == kOk.
  struct SolveReply : Reply {
    WireEmbed embed;
  };
  /// Reply of a fault add/remove; `changed` mirrors the session bool.
  struct FaultReply : Reply {
    bool changed = false;
  };
  /// Reply of the STATS op; `stats` is valid only when status == kOk.
  struct StatsReply : Reply {
    WireStats stats;
  };

  /// One stateless solve round-trip.
  SolveReply solve(const service::EmbedRequest& request, bool want_ring = true);

  /// Writes every request frame back-to-back, then reads the replies in
  /// order. Replies come back in request order (the server serializes ops
  /// per connection).
  std::vector<SolveReply> solve_pipeline(
      std::span<const service::EmbedRequest> requests, bool want_ring);

  /// Binds this connection's session instance; resets any prior session.
  Reply configure_session(Digit base, unsigned n, service::FaultKind kind,
                          service::Strategy strategy = service::Strategy::kAuto);
  FaultReply add_fault(service::FaultKind kind, Word fault);
  FaultReply clear_fault(service::FaultKind kind, Word fault);
  Reply reset_faults();
  /// current_ring() of the connection's session.
  SolveReply session_solve(bool want_ring = true);
  /// Coherent engine + server (+ this connection's session) stats snapshot.
  /// Against a fabric-mode server the reply additionally carries the
  /// per-shard/aggregate fabric counters (WireStats::has_fabric / fabric);
  /// a pre-fabric server's shorter payload still decodes (has_fabric stays
  /// false).
  StatsReply stats();

 private:
  /// Starts a request frame for `op` at the end of the send buffer.
  FrameWriter start_frame(Op op, std::uint32_t request_id);
  /// Seals a request frame; throws (emptying the send buffer) when its
  /// payload is over kMaxPayload.
  void seal_frame(FrameWriter& frame);
  /// Writes the whole send buffer to the socket, then empties it.
  void send_out();
  /// seal_frame() then send_out().
  void send_frame(FrameWriter& frame);
  /// Reads until one complete frame is available; validates the reply bit
  /// and the echoed request id. The payload view lives until the next
  /// receive on this connection.
  Frame recv_reply(Op op, std::uint32_t request_id);
  /// Receives the reply to (op, request_id) and reads its status prologue
  /// into *reply; `r` is left positioned after it.
  void recv_status(Op op, std::uint32_t request_id, Reply* reply,
                   WireReader* r);
  SolveReply recv_solve_reply(Op op, std::uint32_t request_id);
  FaultReply fault_op(Op op, service::FaultKind kind, Word fault);

  int fd_ = -1;
  std::uint32_t next_id_ = 1;
  FrameParser parser_;
  std::vector<std::uint8_t> out_;  ///< send buffer, reused across requests
};

}  // namespace dbr::net
