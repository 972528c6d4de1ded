#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace dbr::net {

namespace {

/// Reads the leading WireStatus byte and, for non-kOk, the error string.
/// Returns false when even that prologue is malformed.
bool read_status(WireReader& r, WireStatus* status, std::string* message) {
  const std::uint8_t raw = r.u8();
  if (!r.ok() || raw > static_cast<std::uint8_t>(WireStatus::kInternal))
    return false;
  *status = static_cast<WireStatus>(raw);
  if (*status != WireStatus::kOk) {
    *message = r.str();
    return r.exhausted();
  }
  return true;
}

}  // namespace

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      next_id_(other.next_id_),
      parser_(std::move(other.parser_)),
      out_(std::move(other.out_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    next_id_ = other.next_id_;
    parser_ = std::move(other.parser_);
    out_ = std::move(other.out_);
  }
  return *this;
}

void Client::connect(const std::string& host, std::uint16_t port,
                     double timeout_ms) {
  close();
  const std::string addr_str = host == "localhost" ? "127.0.0.1" : host;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, addr_str.c_str(), &addr.sin_addr) != 1)
    throw TransportError("bad address: " + host);
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0)
    throw TransportError(std::string("socket: ") + std::strerror(errno));
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string err = std::strerror(errno);
    close();
    throw TransportError("connect " + host + ":" + std::to_string(port) +
                         ": " + err);
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout_ms / 1000.0);
    tv.tv_usec = static_cast<suseconds_t>(
        (timeout_ms - static_cast<double>(tv.tv_sec) * 1000.0) * 1000.0);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  parser_ = FrameParser();
  out_.clear();
}

FrameWriter Client::start_frame(Op op, std::uint32_t request_id) {
  if (fd_ < 0) throw TransportError("client is not connected");
  return FrameWriter(out_, static_cast<std::uint8_t>(op), request_id);
}

void Client::seal_frame(FrameWriter& frame) {
  if (!frame.finish()) {
    out_.clear();
    throw TransportError("request payload exceeds the " +
                         std::to_string(kMaxPayload >> 20) +
                         " MiB frame cap");
  }
}

void Client::send_out() {
  std::size_t sent = 0;
  while (sent < out_.size()) {
    const ssize_t w =
        ::send(fd_, out_.data() + sent, out_.size() - sent, MSG_NOSIGNAL);
    if (w > 0) {
      sent += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    out_.clear();
    throw TransportError(std::string("send: ") + std::strerror(errno));
  }
  out_.clear();
}

void Client::send_frame(FrameWriter& frame) {
  seal_frame(frame);
  send_out();
}

Frame Client::recv_reply(Op op, std::uint32_t request_id) {
  Frame frame;
  for (;;) {
    const FrameParser::Result res = parser_.next(&frame);
    if (res == FrameParser::Result::kFrame) break;
    if (res == FrameParser::Result::kError)
      throw TransportError("unparseable reply stream from server");
    const ssize_t r = parser_.receive([this](std::uint8_t* dst, std::size_t n) {
      return ::recv(fd_, dst, n, 0);
    });
    if (r > 0) continue;
    if (r == 0) throw TransportError("server closed the connection");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      throw TransportError("receive timed out");
    throw TransportError(std::string("recv: ") + std::strerror(errno));
  }
  const std::uint8_t expect =
      static_cast<std::uint8_t>(op) | kReplyBit;
  if (frame.header.opcode != expect || frame.header.request_id != request_id)
    throw TransportError("reply frame does not match the request");
  return frame;
}

void Client::recv_status(Op op, std::uint32_t request_id, Reply* reply,
                         WireReader* r) {
  *r = WireReader(recv_reply(op, request_id).payload);
  if (!read_status(*r, &reply->status, &reply->message))
    throw TransportError("malformed reply payload");
}

Client::SolveReply Client::recv_solve_reply(Op op, std::uint32_t request_id) {
  SolveReply reply;
  WireReader r({});
  recv_status(op, request_id, &reply, &r);
  if (reply.status == WireStatus::kOk && !decode_embed(r, &reply.embed))
    throw TransportError("malformed solve reply payload");
  return reply;
}

Client::SolveReply Client::solve(const service::EmbedRequest& request,
                                 bool want_ring) {
  const std::uint32_t id = next_id_++;
  FrameWriter frame = start_frame(Op::kSolve, id);
  encode_request(out_, request, want_ring);
  send_frame(frame);
  return recv_solve_reply(Op::kSolve, id);
}

std::vector<Client::SolveReply> Client::solve_pipeline(
    std::span<const service::EmbedRequest> requests, bool want_ring) {
  if (requests.empty()) return {};
  const std::uint32_t first_id = next_id_;
  for (const service::EmbedRequest& request : requests) {
    FrameWriter frame = start_frame(Op::kSolve, next_id_++);
    encode_request(out_, request, want_ring);
    seal_frame(frame);
  }
  send_out();
  std::vector<SolveReply> replies;
  replies.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i)
    replies.push_back(recv_solve_reply(
        Op::kSolve, first_id + static_cast<std::uint32_t>(i)));
  return replies;
}

Client::Reply Client::configure_session(Digit base, unsigned n,
                                        service::FaultKind kind,
                                        service::Strategy strategy) {
  const std::uint32_t id = next_id_++;
  FrameWriter w = start_frame(Op::kSessionConfig, id);
  w.u32(base);
  w.u32(n);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u8(static_cast<std::uint8_t>(strategy));
  w.u16(0);  // reserved
  send_frame(w);
  Reply reply;
  WireReader r({});
  recv_status(Op::kSessionConfig, id, &reply, &r);
  return reply;
}

Client::FaultReply Client::fault_op(Op op, service::FaultKind kind,
                                    Word fault) {
  const std::uint32_t id = next_id_++;
  FrameWriter w = start_frame(op, id);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(fault);
  send_frame(w);
  FaultReply reply;
  WireReader r({});
  recv_status(op, id, &reply, &r);
  if (reply.status == WireStatus::kOk) {
    reply.changed = r.u8() != 0;
    if (!r.exhausted()) throw TransportError("malformed fault reply payload");
  }
  return reply;
}

Client::FaultReply Client::add_fault(service::FaultKind kind, Word fault) {
  return fault_op(Op::kFaultAdd, kind, fault);
}

Client::FaultReply Client::clear_fault(service::FaultKind kind, Word fault) {
  return fault_op(Op::kFaultRemove, kind, fault);
}

Client::Reply Client::reset_faults() {
  const std::uint32_t id = next_id_++;
  FrameWriter w = start_frame(Op::kFaultReset, id);
  send_frame(w);
  Reply reply;
  WireReader r({});
  recv_status(Op::kFaultReset, id, &reply, &r);
  return reply;
}

Client::SolveReply Client::session_solve(bool want_ring) {
  const std::uint32_t id = next_id_++;
  FrameWriter w = start_frame(Op::kSessionSolve, id);
  w.u8(want_ring ? 1 : 0);
  send_frame(w);
  return recv_solve_reply(Op::kSessionSolve, id);
}

Client::StatsReply Client::stats() {
  const std::uint32_t id = next_id_++;
  FrameWriter w = start_frame(Op::kStats, id);
  send_frame(w);
  StatsReply reply;
  WireReader r({});
  recv_status(Op::kStats, id, &reply, &r);
  if (reply.status == WireStatus::kOk && !decode_stats(r, &reply.stats))
    throw TransportError("malformed stats reply payload");
  return reply;
}

}  // namespace dbr::net
