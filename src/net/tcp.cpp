#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "common/errors.hpp"

namespace geoproof::net {

namespace {

void send_all(int fd, const std::uint8_t* data, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw NetError(std::string("send failed: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

void recv_exact(int fd, std::uint8_t* data, std::size_t len) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, data + got, len - got, 0);
    if (n == 0) throw NetError("peer closed connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      throw NetError(std::string("recv failed: ") + std::strerror(errno));
    }
    got += static_cast<std::size_t>(n);
  }
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    throw NetError("fcntl(O_NONBLOCK) failed");
  }
}

void append_frame(Bytes& out, BytesView payload) {
  if (payload.size() > kMaxFrameBytes) {
    throw NetError("send_frame: frame too large");
  }
  const auto len = static_cast<std::uint32_t>(payload.size());
  out.push_back(static_cast<std::uint8_t>(len >> 24));
  out.push_back(static_cast<std::uint8_t>(len >> 16));
  out.push_back(static_cast<std::uint8_t>(len >> 8));
  out.push_back(static_cast<std::uint8_t>(len));
  append(out, payload);
}

/// Why a non-blocking drain/flush stopped. The server and the async
/// client share these loops and differ only in how they fail.
enum class IoStatus {
  kOk,       // made progress; nothing more ready right now
  kBlocked,  // partial write: wait for EPOLLOUT
  kClosed,   // orderly peer close
  kError,    // transport failure or oversized frame (see `error`)
};

/// Drain everything a non-blocking socket has ready into `frames`.
IoStatus drain_into(int fd, FrameAssembler& frames, std::string& error) {
  std::uint8_t chunk[16384];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n == 0) return IoStatus::kClosed;
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kOk;
      error = std::string("recv failed: ") + std::strerror(errno);
      return IoStatus::kError;
    }
    try {
      frames.feed(BytesView(chunk, static_cast<std::size_t>(n)));
    } catch (const NetError& e) {
      error = e.what();  // oversized frame announced
      return IoStatus::kError;
    }
  }
}

/// Drain everything a non-blocking socket has ready, raw, into `buf`
/// (stream-mode sibling of drain_into — no framing).
IoStatus drain_bytes(int fd, Bytes& buf, std::string& error) {
  std::uint8_t chunk[16384];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n == 0) return IoStatus::kClosed;
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kOk;
      error = std::string("recv failed: ") + std::strerror(errno);
      return IoStatus::kError;
    }
    append(buf, BytesView(chunk, static_cast<std::size_t>(n)));
  }
}

/// Flush out[out_off..] to a non-blocking socket; compacts when drained.
IoStatus flush_buffer(int fd, Bytes& out, std::size_t& out_off,
                      std::string& error) {
  while (out_off < out.size()) {
    const ssize_t n = ::send(fd, out.data() + out_off, out.size() - out_off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kBlocked;
      error = std::string("send failed: ") + std::strerror(errno);
      return IoStatus::kError;
    }
    out_off += static_cast<std::size_t>(n);
  }
  out.clear();
  out_off = 0;
  return IoStatus::kOk;
}

Socket connect_loopback(const std::string& host, std::uint16_t port,
                        const char* who) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw NetError(std::string(who) + ": socket() failed");
  Socket sock(fd);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw NetError(std::string(who) + ": bad address " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    throw NetError(std::string(who) + ": connect failed: " +
                   std::strerror(errno));
  }
  set_nodelay(fd);
  return sock;
}

/// A Bytes(BytesView) handler as a frame handler that replies inline.
TcpServer::FrameHandler inline_replies(RequestHandler handler) {
  if (!handler) return nullptr;  // the constructor rejects it
  return [handler = std::move(handler)](BytesView frame,
                                        TcpServer::Reply reply) {
    reply.send(handler(frame));
  };
}

}  // namespace

// --------------------------------------------------------------------------
// Blocking frame helpers
// --------------------------------------------------------------------------

void send_frame(const Socket& sock, BytesView payload) {
  if (!sock.valid()) throw NetError("send_frame: invalid socket");
  if (payload.size() > kMaxFrameBytes) {
    throw NetError("send_frame: frame too large");
  }
  std::uint8_t header[4];
  const auto len = static_cast<std::uint32_t>(payload.size());
  header[0] = static_cast<std::uint8_t>(len >> 24);
  header[1] = static_cast<std::uint8_t>(len >> 16);
  header[2] = static_cast<std::uint8_t>(len >> 8);
  header[3] = static_cast<std::uint8_t>(len);
  send_all(sock.fd(), header, 4);
  if (!payload.empty()) send_all(sock.fd(), payload.data(), payload.size());
}

Bytes recv_frame(const Socket& sock) {
  if (!sock.valid()) throw NetError("recv_frame: invalid socket");
  std::uint8_t header[4];
  recv_exact(sock.fd(), header, 4);
  const std::uint32_t len = (static_cast<std::uint32_t>(header[0]) << 24) |
                            (static_cast<std::uint32_t>(header[1]) << 16) |
                            (static_cast<std::uint32_t>(header[2]) << 8) |
                            static_cast<std::uint32_t>(header[3]);
  if (len > kMaxFrameBytes) throw NetError("recv_frame: frame too large");
  Bytes payload(len);
  if (len > 0) recv_exact(sock.fd(), payload.data(), len);
  return payload;
}

// --------------------------------------------------------------------------
// FrameAssembler
// --------------------------------------------------------------------------

void FrameAssembler::feed(BytesView data) {
  append(buf_, data);
  std::size_t off = 0;
  while (buf_.size() - off >= 4) {
    const std::uint32_t len = (static_cast<std::uint32_t>(buf_[off]) << 24) |
                              (static_cast<std::uint32_t>(buf_[off + 1]) << 16) |
                              (static_cast<std::uint32_t>(buf_[off + 2]) << 8) |
                              static_cast<std::uint32_t>(buf_[off + 3]);
    if (len > kMaxFrameBytes) {
      buf_.clear();
      throw NetError("FrameAssembler: frame too large");
    }
    if (buf_.size() - off - 4 < len) break;  // payload still arriving
    frames_.emplace_back(buf_.begin() + static_cast<std::ptrdiff_t>(off + 4),
                         buf_.begin() +
                             static_cast<std::ptrdiff_t>(off + 4 + len));
    off += 4 + len;
  }
  if (off > 0) buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(off));
}

std::optional<Bytes> FrameAssembler::next() {
  if (frames_.empty()) return std::nullopt;
  Bytes frame = std::move(frames_.front());
  frames_.pop_front();
  return frame;
}

// --------------------------------------------------------------------------
// TcpServer::Reply
// --------------------------------------------------------------------------

TcpServer::Reply::~Reply() {
  if (const auto conn = owed_conn()) server_->close_conn(*conn);
}

std::shared_ptr<TcpServer::Conn> TcpServer::Reply::owed_conn() const {
  auto conn = conn_.lock();
  if (!conn || conn->closed || seq_ < conn->owed_base ||
      conn->owed[seq_ - conn->owed_base].response) {
    return nullptr;
  }
  return conn;
}

void TcpServer::Reply::send(Bytes response) {
  const auto conn = owed_conn();
  conn_.reset();  // answered (or gone): the destructor has nothing to drop
  if (!conn) return;
  Owed& owed = conn->owed[seq_ - conn->owed_base];
  owed.response = std::move(response);
  owed.on_cancel = nullptr;
  server_->release_replies(*conn);
}

void TcpServer::Reply::on_cancel(std::function<void()> fn) {
  if (const auto conn = owed_conn()) {
    conn->owed[seq_ - conn->owed_base].on_cancel = std::move(fn);
  }
}

// --------------------------------------------------------------------------
// TcpServer (non-blocking, multiplexing)
// --------------------------------------------------------------------------

TcpServer::TcpServer(FrameHandler handler)
    : TcpServer(std::move(handler), Options{}) {}

TcpServer::TcpServer(FrameHandler handler, const Options& options)
    : TcpServer(std::move(handler), StreamHandler{}, options) {}

TcpServer::TcpServer(RequestHandler handler)
    : TcpServer(std::move(handler), Options{}) {}

TcpServer::TcpServer(RequestHandler handler, const Options& options)
    : TcpServer(inline_replies(std::move(handler)), StreamHandler{}, options) {}

TcpServer::TcpServer(StreamHandler handler)
    : TcpServer(std::move(handler), Options{}) {}

TcpServer::TcpServer(StreamHandler handler, const Options& options)
    : TcpServer(FrameHandler{}, std::move(handler), options) {}

TcpServer::TcpServer(FrameHandler frame_handler, StreamHandler stream_handler,
                     const Options& options)
    : handler_(std::move(frame_handler)),
      stream_handler_(std::move(stream_handler)) {
  if (!handler_ && !stream_handler_.on_input) {
    throw InvalidArgument("TcpServer: null handler");
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw NetError("TcpServer: socket() failed");
  listener_ = Socket(fd);

  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    throw NetError("TcpServer: bad host \"" + options.host + "\"");
  }
  addr.sin_port = htons(options.port);  // 0 = kernel-chosen ephemeral
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    throw NetError(std::string("TcpServer: bind failed: ") +
                   std::strerror(errno));
  }
  socklen_t addrlen = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addrlen) != 0) {
    throw NetError("TcpServer: getsockname failed");
  }
  port_ = ntohs(addr.sin_port);

  if (::listen(fd, options.backlog) != 0) {
    throw NetError(std::string("TcpServer: listen failed: ") +
                   std::strerror(errno));
  }
  set_nonblocking(fd);
  loop_.add_fd(fd, /*want_read=*/true, /*want_write=*/false,
               [this](bool readable, bool, bool) {
                 if (readable) on_listener_ready();
               });
  thread_ = std::thread([this] { loop_.run(); });
}

TcpServer::~TcpServer() { stop(); }

void TcpServer::stop() {
  if (stopped_.exchange(true)) return;
  loop_.stop();
  if (thread_.joinable()) thread_.join();
  // The loop thread is gone: close what is left on this thread, which
  // cancels every reply still outstanding.
  std::vector<std::shared_ptr<Conn>> open;
  for (const auto& [fd, conn] : conns_) open.push_back(conn);
  for (const auto& conn : open) close_conn(*conn);
  listener_.close();
}

void TcpServer::on_listener_ready() {
  for (;;) {
    const int cfd = ::accept(listener_.fd(), nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: drained; anything else: try again on next event
    }
    set_nodelay(cfd);
    set_nonblocking(cfd);
    auto conn = std::make_shared<Conn>();
    conn->sock = Socket(cfd);
    conns_.emplace(cfd, std::move(conn));
    loop_.add_fd(cfd, /*want_read=*/true, /*want_write=*/false,
                 [this, cfd](bool r, bool w, bool e) {
                   on_conn_ready(cfd, r, w, e);
                 });
  }
}

void TcpServer::close_conn(Conn& conn) {
  if (conn.closed) return;
  conn.closed = true;
  const int fd = conn.sock.fd();
  loop_.remove_fd(fd);
  std::vector<std::function<void()>> cancels;
  for (Owed& owed : conn.owed) {
    if (owed.on_cancel) cancels.push_back(std::move(owed.on_cancel));
  }
  conn.owed.clear();
  conn.sock.close();
  conns_.erase(fd);  // may destroy `conn`
  for (const auto& cancel : cancels) cancel();
}

bool TcpServer::flush_writes(Conn& conn) {
  std::string error;
  const int fd = conn.sock.fd();
  switch (flush_buffer(fd, conn.out, conn.out_off, error)) {
    case IoStatus::kOk:
      if (conn.closing) {
        // Half-closed peer: its last responses are flushed, we are done.
        close_conn(conn);
        return false;
      }
      if (conn.want_write) {
        conn.want_write = false;
        loop_.set_interest(fd, true, false);
      }
      return true;
    case IoStatus::kBlocked:
      if (!conn.want_write) {
        conn.want_write = true;
        loop_.set_interest(fd, true, true);
      }
      return true;
    default:
      close_conn(conn);
      return false;
  }
}

void TcpServer::release_replies(Conn& conn) {
  while (!conn.owed.empty() && conn.owed.front().response) {
    const Bytes& response = *conn.owed.front().response;
    if (response.size() > kMaxFrameBytes) {
      close_conn(conn);
      return;
    }
    append_frame(conn.out, response);
    conn.owed.pop_front();
    ++conn.owed_base;
  }
  if (!conn.out.empty()) flush_writes(conn);
}

void TcpServer::on_conn_ready(int fd, bool readable, bool writable,
                              bool error) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  const std::shared_ptr<Conn> conn = it->second;  // survives close_conn

  if (error) {
    close_conn(*conn);
    return;
  }
  if (writable && !flush_writes(*conn)) return;
  if (!readable) return;

  std::string drain_error;
  const IoStatus status =
      stream_handler_.on_input ? drain_bytes(fd, conn->in, drain_error)
                               : drain_into(fd, conn->frames, drain_error);
  if (status == IoStatus::kError) {
    // Transport failure or oversized frame announcement: drop the peer.
    close_conn(*conn);
    return;
  }
  if (stream_handler_.on_input) {
    on_conn_stream(*conn, status == IoStatus::kClosed);
  } else {
    on_conn_frames(conn, status == IoStatus::kClosed);
  }
}

void TcpServer::on_conn_frames(const std::shared_ptr<Conn>& conn,
                               bool peer_closed) {
  // Dispatch every fully-received request — including ones that arrived
  // in the same drain as an orderly EOF. Only a partial trailing frame
  // dies with the close.
  while (const auto frame = conn->frames.next()) {
    conn->owed.emplace_back();
    const std::uint64_t seq = conn->owed_base + conn->owed.size() - 1;
    try {
      handler_(*frame, Reply(this, conn, seq));
    } catch (const Error&) {
      // Handler rejected the request (or produced an over-cap response):
      // drop the connection. A production server would answer with an
      // error frame; for the reproduction the auditors treat a dropped
      // connection as a failed audit.
      close_conn(*conn);
    }
    if (conn->closed) return;
  }

  if (!peer_closed) return;
  // The requester is gone: outstanding replies are cancelled. A
  // half-closing client still reads the ones already complete, so a
  // blocked `out` closes the connection once it drains (flush_writes).
  if (!conn->owed.empty() || conn->out.empty()) {
    close_conn(*conn);
    return;
  }
  conn->closing = true;
}

void TcpServer::on_conn_stream(Conn& conn, bool peer_closed) {
  // conn.closing doubles as "response already queued" in stream mode —
  // one request per connection, so further input is ignored and the
  // connection dies once the response drains.
  if (!conn.closing) {
    if (conn.in.size() > kMaxStreamRequestBytes) {
      close_conn(conn);
      return;
    }
    std::optional<Bytes> response;
    try {
      response = stream_handler_.on_input(conn.in);
    } catch (const Error&) {
      close_conn(conn);
      return;
    }
    if (response) {
      conn.out = std::move(*response);
      conn.out_off = 0;
      conn.closing = true;  // write-then-close (HTTP/1.0)
      conn.in.clear();
    }
  }
  if (!conn.out.empty()) {
    flush_writes(conn);  // closes once drained (conn.closing is set)
  } else if (conn.closing || peer_closed) {
    close_conn(conn);
  }
}

// --------------------------------------------------------------------------
// TcpRequestChannel (blocking)
// --------------------------------------------------------------------------

TcpRequestChannel::TcpRequestChannel(const std::string& host,
                                     std::uint16_t port)
    : sock_(connect_loopback(host, port, "TcpRequestChannel")) {}

Bytes TcpRequestChannel::request(BytesView message) {
  send_frame(sock_, message);
  return recv_frame(sock_);
}

// --------------------------------------------------------------------------
// AsyncTcpChannel
// --------------------------------------------------------------------------

AsyncTcpChannel::AsyncTcpChannel(EventLoop& loop, const std::string& host,
                                 std::uint16_t port)
    : loop_(&loop), sock_(connect_loopback(host, port, "AsyncTcpChannel")) {
  set_nonblocking(sock_.fd());
  loop_->add_fd(sock_.fd(), /*want_read=*/true, /*want_write=*/false,
                [this](bool r, bool w, bool e) { on_ready(r, w, e); });
}

AsyncTcpChannel::~AsyncTcpChannel() { teardown("channel destroyed"); }

void AsyncTcpChannel::teardown(const std::string& reason) {
  // Mark broken before failing the pending queue: a completion that
  // re-enters begin_request during teardown must take the broken-channel
  // path (settle inline), not try to write to the half-dead socket.
  break_reason_ = reason;
  broken_ = true;
  if (sock_.valid()) {
    loop_->remove_fd(sock_.fd());
    sock_.close();
  }
  fail_all(reason);
}

void AsyncTcpChannel::settle(Pending& p, AsyncResult&& result) {
  if (p.settled) return;
  p.settled = true;
  --live_;
  if (p.deadline_timer != 0) {
    loop_->cancel_timer(p.deadline_timer);
    p.deadline_timer = 0;
  }
  CompletionFn done = std::move(p.done);
  p.done = nullptr;
  done(std::move(result));  // may re-enter begin_request
}

void AsyncTcpChannel::fail_all(const std::string& reason) {
  // Settle in wire order. Completions may call begin_request, which on a
  // broken channel settles inline without touching pending_, so iterating
  // by index over a deque we only pop from the front of is safe.
  while (!pending_.empty()) {
    Pending p = std::move(pending_.front());
    pending_.pop_front();
    if (!p.settled) {
      settle(p, AsyncResult{AsyncStatus::kError, {}, reason});
    }
  }
}

void AsyncTcpChannel::update_interest() {
  if (!sock_.valid()) return;
  const bool want = out_off_ < out_.size();
  if (want == want_write_) return;  // skip no-op epoll_ctl(MOD)
  loop_->set_interest(sock_.fd(), true, want);
  want_write_ = want;
}

bool AsyncTcpChannel::flush_writes() {
  std::string error;
  switch (flush_buffer(sock_.fd(), out_, out_off_, error)) {
    case IoStatus::kOk:
    case IoStatus::kBlocked:
      update_interest();
      return true;
    default:
      teardown(error);
      return false;
  }
}

void AsyncTcpChannel::deliver_frames() {
  while (const auto frame = frames_.next()) {
    // Responses correlate positionally: the front pending entry owns this
    // frame. Entries already settled (timeout/cancel) still occupy their
    // wire slot — they consume their frame and discard it so the stream
    // stays in sync.
    if (pending_.empty()) {
      // A response nobody asked for: protocol violation by the peer.
      teardown("unsolicited response frame");
      return;
    }
    Pending p = std::move(pending_.front());
    pending_.pop_front();
    if (!p.settled) {
      settle(p, AsyncResult{AsyncStatus::kOk, std::move(*frame), {}});
    }
  }
}

void AsyncTcpChannel::on_ready(bool readable, bool writable, bool error) {
  if (broken_) return;
  if (error) {
    teardown("connection error");
    return;
  }
  if (writable && !flush_writes()) return;
  if (!readable) return;

  std::string drain_error;
  switch (drain_into(sock_.fd(), frames_, drain_error)) {
    case IoStatus::kOk:
      deliver_frames();
      return;
    case IoStatus::kClosed:
      // Hand over every response that fully arrived before the EOF —
      // pipelined requests the server answered before closing must not
      // be failed retroactively. deliver_frames may itself tear the
      // channel down (unsolicited frame); only fail the remainder here.
      deliver_frames();
      if (!broken_) {
        teardown(frames_.mid_frame() ? "peer closed mid-frame"
                                     : "peer closed connection");
      }
      return;
    default:
      teardown(drain_error);
      return;
  }
}

AsyncChannel::RequestId AsyncTcpChannel::begin_request(BytesView message,
                                                       CompletionFn done,
                                                       Millis deadline) {
  if (!done) throw InvalidArgument("AsyncTcpChannel: null completion");
  const RequestId id = next_id_++;
  if (broken_) {
    done(AsyncResult{AsyncStatus::kError, {},
                     "channel broken: " + break_reason_});
    return id;
  }
  if (message.size() > kMaxFrameBytes) {
    // Nothing reaches the wire, so the request owns no response slot —
    // fail it inline and leave the connection healthy.
    done(AsyncResult{AsyncStatus::kError, {}, "request frame too large"});
    return id;
  }

  Pending p;
  p.id = id;
  p.done = std::move(done);
  pending_.push_back(std::move(p));
  ++live_;
  if (deadline > Millis{0}) {
    pending_.back().deadline_timer = loop_->schedule_after(deadline, [this, id] {
      for (Pending& entry : pending_) {
        if (entry.id == id) {
          if (!entry.settled) {
            entry.deadline_timer = 0;  // firing now; nothing to cancel
            settle(entry, AsyncResult{AsyncStatus::kTimeout, {},
                                      "request deadline expired"});
          }
          return;
        }
      }
    });
  }

  append_frame(out_, message);
  flush_writes();
  return id;
}

bool AsyncTcpChannel::cancel(RequestId id) {
  for (Pending& entry : pending_) {
    if (entry.id == id) {
      if (entry.settled) return false;
      // The request may already be on the wire; its response slot stays in
      // pending_ and the late response is discarded on arrival.
      settle(entry, AsyncResult{AsyncStatus::kCancelled, {},
                                "request cancelled"});
      return true;
    }
  }
  return false;
}

}  // namespace geoproof::net
