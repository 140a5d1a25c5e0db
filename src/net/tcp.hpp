// Real-TCP transport over loopback: length-prefixed frames, a non-blocking
// multiplexing server, and both channel flavours (async event-loop client,
// blocking legacy client).
//
// The "manual networking" path of the reproduction: the same protocol
// engines that run on the simulator also run over genuine sockets, so the
// timing code path is exercised against a real kernel network stack.
//
// Framing: 4-byte big-endian length + payload (64 MiB cap). Responses on a
// connection are returned in request order, so pipelined requests correlate
// positionally on the wire; AsyncChannel::RequestId is the client-side
// correlation id used for deadlines and cancellation. The server may answer
// a request later than its handler call (a deferred TcpServer::Reply,
// completed from the server's loop thread); the order holds regardless, a
// finished reply waiting behind any earlier one still outstanding.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/bytes.hpp"
#include "net/async.hpp"
#include "net/channel.hpp"

namespace geoproof::net {

/// Frame payload size cap shared by every frame codepath (blocking helpers,
/// FrameAssembler, server and clients).
inline constexpr std::size_t kMaxFrameBytes = 64u * 1024 * 1024;

/// Write a length-prefixed frame; throws NetError on failure.
void send_frame(const Socket& sock, BytesView payload);

/// Read one frame; throws NetError on failure or orderly peer close.
Bytes recv_frame(const Socket& sock);

/// Incremental frame parser for the non-blocking paths: feed whatever bytes
/// the socket produced, pop complete frames as they assemble. Handles
/// payloads split across arbitrarily many reads, including mid-header
/// splits. Throws NetError from feed() as soon as a header announces a
/// frame beyond kMaxFrameBytes — before buffering any of its payload.
class FrameAssembler {
 public:
  void feed(BytesView data);
  /// Pop the next complete frame, or nullopt when more bytes are needed.
  std::optional<Bytes> next();
  /// A frame is partially assembled — an orderly peer close now would be
  /// mid-frame (the caller decides whether that is an error).
  bool mid_frame() const { return !buf_.empty(); }

 private:
  Bytes buf_;                  // unparsed bytes (header-first)
  std::deque<Bytes> frames_;   // completed payloads
};

/// Raw-byte connection handler for TcpServer's stream mode (no frame
/// framing — how the /metrics HTTP endpoint rides the same server).
/// `on_input` sees the connection's full accumulated input after every
/// read and returns the complete response once it can parse a request
/// (nullopt = keep reading). The server writes the response and closes
/// the connection (HTTP/1.0 semantics); input is capped at
/// kMaxStreamRequestBytes, beyond which the connection is dropped.
/// Wrapped in a struct so the constructor overload set stays unambiguous
/// against RequestHandler.
struct StreamHandler {
  std::function<std::optional<Bytes>(const Bytes& input)> on_input;
};

/// Stream-mode per-connection input cap: plenty for any scrape request
/// line + headers, small enough that a misdirected frame client cannot
/// balloon the buffer.
inline constexpr std::size_t kMaxStreamRequestBytes = 64u * 1024;

/// Multiplexing request/response server on 127.0.0.1 with an ephemeral
/// port. A dedicated thread pumps an EventLoop: accepts are non-blocking
/// and every connection progresses independently, so concurrent clients
/// are served interleaved. Each connection is a stream of frames; the
/// frame handler gets every request with a Reply, which it completes
/// inline or later from any callback on loop() (a deferred reply), so one
/// loop thread can hold many slow requests at once. Responses leave a
/// connection in request order: a finished reply waits behind an earlier
/// request still outstanding. When the peer closes, or the connection
/// fails, with replies outstanding, each one's on_cancel hook runs and
/// its handle becomes a no-op; a half-closing peer still gets the replies
/// already complete. A handler exception, a reply dropped unsent, or a
/// malformed/oversized frame drops that connection only. Destruction
/// stops the loop and cancels what is still outstanding.
///
/// The StreamHandler constructors select stream mode instead: no framing,
/// one request per connection, response-then-close (see StreamHandler).
class TcpServer {
 private:
  struct Conn;

 public:
  /// One request's response, owed by the frame handler. Move-only and
  /// loop-thread-only. Once the connection is gone every call is a no-op.
  /// Dropping a reply unsent drops its connection: the responses queued
  /// behind it could never go out.
  class Reply {
   public:
    Reply(Reply&& other) noexcept = default;
    ~Reply();

    /// Queue the response; it goes out once every earlier request on the
    /// connection has been answered. Later calls are ignored.
    void send(Bytes response);
    /// Run `fn` if the connection closes before send(): the requester is
    /// gone, so the work behind this reply should stop. It runs on the
    /// loop thread, or on the thread calling stop() during shutdown.
    void on_cancel(std::function<void()> fn);
    /// The serving loop, where a deferred reply and the timers and
    /// channels that produce it run (valid on a reply a handler received).
    EventLoop& loop() const { return server_->loop_; }

   private:
    friend class TcpServer;
    Reply(TcpServer* server, std::weak_ptr<Conn> conn, std::uint64_t seq)
        : server_(server), conn_(std::move(conn)), seq_(seq) {}
    /// The connection while this reply is still owed to it, else null.
    std::shared_ptr<Conn> owed_conn() const;

    TcpServer* server_ = nullptr;
    std::weak_ptr<Conn> conn_;
    std::uint64_t seq_ = 0;  // request number on the connection
  };

  using FrameHandler = std::function<void(BytesView frame, Reply reply)>;

  /// Bind address. The default requests an ephemeral port on loopback:
  /// port 0 lets the kernel pick, and port() reports the chosen value —
  /// spawned-daemon harnesses bind 0 and read the port back instead of
  /// racing to guess a free one. SO_REUSEADDR is always set, so an
  /// explicit port can be rebound while a previous owner's connections
  /// linger in TIME_WAIT.
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  // 0 = kernel-chosen; see port()
    int backlog = 64;
  };

  explicit TcpServer(FrameHandler handler);
  TcpServer(FrameHandler handler, const Options& options);
  /// Inline replies: each request's response is `handler`'s return value.
  explicit TcpServer(RequestHandler handler);
  TcpServer(RequestHandler handler, const Options& options);
  explicit TcpServer(StreamHandler handler);
  TcpServer(StreamHandler handler, const Options& options);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  std::uint16_t port() const { return port_; }
  /// The loop serving every connection. Deferred replies, and the timers
  /// and channels that produce them, live on it (loop-thread-only).
  EventLoop& loop() { return loop_; }
  void stop();

 private:
  struct Owed {
    std::optional<Bytes> response;  // set by Reply::send
    std::function<void()> on_cancel;
  };

  struct Conn {
    Socket sock;
    FrameAssembler frames;  // frame mode only
    Bytes in;               // stream mode only: raw accumulated input
    Bytes out;              // queued response bytes
    std::size_t out_off = 0;
    bool want_write = false;  // current epoll write interest (skip no-op MODs)
    bool closing = false;     // peer sent EOF (or stream response queued);
                              // close once `out` drains
    bool closed = false;      // torn down; its replies are no-ops
    std::deque<Owed> owed;    // frame mode: responses in request order
    std::uint64_t owed_base = 0;  // request number of owed.front()
  };

  TcpServer(FrameHandler frame_handler, StreamHandler stream_handler,
            const Options& options);

  void on_listener_ready();
  void on_conn_ready(int fd, bool readable, bool writable, bool error);
  void on_conn_frames(const std::shared_ptr<Conn>& conn, bool peer_closed);
  void on_conn_stream(Conn& conn, bool peer_closed);
  /// Move the finished replies at the front of `owed` onto the wire.
  void release_replies(Conn& conn);
  /// Tear down, then run the on_cancel hooks of outstanding replies.
  void close_conn(Conn& conn);
  bool flush_writes(Conn& conn);

  FrameHandler handler_;
  StreamHandler stream_handler_;
  Socket listener_;
  std::uint16_t port_ = 0;
  EventLoop loop_;
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;  // loop thread only
  std::thread thread_;
  std::atomic<bool> stopped_{false};
};

/// Client-side blocking RequestChannel over a persistent TCP connection.
/// Kept as the simple synchronous client (and the adapter substrate for
/// legacy blocking audits); new concurrent code uses AsyncTcpChannel.
class TcpRequestChannel final : public RequestChannel {
 public:
  TcpRequestChannel(const std::string& host, std::uint16_t port);

  Bytes request(BytesView message) override;

 private:
  Socket sock_;
};

/// Non-blocking client channel multiplexing many in-flight requests over
/// one persistent connection, driven by an EventLoop. Requests pipeline on
/// the wire and correlate positionally (the server answers in order);
/// deadlines run on the loop's timers; a timed-out or cancelled
/// request's late response is consumed and discarded so the stream stays
/// in sync. All methods are loop-thread-only.
class AsyncTcpChannel final : public AsyncChannel {
 public:
  AsyncTcpChannel(EventLoop& loop, const std::string& host,
                  std::uint16_t port);
  ~AsyncTcpChannel() override;

  AsyncTcpChannel(const AsyncTcpChannel&) = delete;
  AsyncTcpChannel& operator=(const AsyncTcpChannel&) = delete;

  RequestId begin_request(BytesView message, CompletionFn done,
                          Millis deadline) override;
  using AsyncChannel::begin_request;
  bool cancel(RequestId id) override;

  std::size_t in_flight() const { return live_; }
  /// The connection has failed; every further request completes kError.
  bool broken() const { return broken_; }

 private:
  struct Pending {
    RequestId id = 0;
    CompletionFn done;
    EventLoop::TimerId deadline_timer = 0;  // 0 = none
    bool settled = false;  // completed (timeout/cancel); response pending
  };

  void on_ready(bool readable, bool writable, bool error);
  bool flush_writes();
  void deliver_frames();
  void settle(Pending& p, AsyncResult&& result);
  void fail_all(const std::string& reason);
  void update_interest();
  /// Break the connection: mark broken, deregister + close the socket,
  /// fail every pending request with `reason`.
  void teardown(const std::string& reason);

  EventLoop* loop_;
  Socket sock_;
  FrameAssembler frames_;
  Bytes out_;
  std::size_t out_off_ = 0;
  bool want_write_ = false;  // current epoll write interest
  std::deque<Pending> pending_;  // wire order; front = next response
  std::size_t live_ = 0;         // pending entries not yet settled
  RequestId next_id_ = 1;
  bool broken_ = false;
  std::string break_reason_;
};

}  // namespace geoproof::net
