#include "daemon/vantage_daemon.hpp"

#include <exception>
#include <utility>

#include "common/errors.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/transcript.hpp"

namespace geoproof::daemon {

/// One MeasureRequest in progress.
struct VantageDaemon::Session {
  Session(const MeasureRequest& req, net::TcpServer::Reply r)
      : request(req), reply(std::move(r)), rng(req.probe_seed) {}

  MeasureRequest request;
  net::TcpServer::Reply reply;
  std::unique_ptr<net::AsyncTcpChannel> prover;
  Rng rng;
  SampleReport report;
  net::EventLoop::TimerId delay = 0;  // pending emulated path delay
  Millis sweep_start{0};
  Millis round_start{0};
};

VantageDaemon::VantageDaemon(VantageConfig config) : config_(std::move(config)) {
  server_ = std::make_unique<net::TcpServer>(
      [this](BytesView frame, net::TcpServer::Reply reply) {
        serve(frame, std::move(reply));
      },
      net::TcpServer::Options{config_.host, config_.port, /*backlog=*/16});
  log::info("vantage", "listening",
            {{"name", config_.name},
             {"host", config_.host},
             {"port", server_->port()}});
}

VantageDaemon::~VantageDaemon() { stop(); }

void VantageDaemon::stop() {
  if (!server_) return;
  // Joins the loop thread, then cancels the sessions whose auditor is
  // still connected.
  server_->stop();
  // Finished sessions whose release was still queued on the loop.
  while (!sessions_.empty()) drop(sessions_.begin()->first);
}

void VantageDaemon::serve(BytesView frame, net::TcpServer::Reply reply) {
  // Throwing here would make the server drop the connection and leave the
  // auditor with only "connection closed" instead of the reason.
  try {
    switch (type_of(frame)) {
      case MsgType::kPing: {
        const Ping ping = decode_ping(frame);
        reply.send(encode(Pong{ping.nonce, config_.name}));
        return;
      }
      case MsgType::kMeasureRequest: {
        const MeasureRequest request = decode_measure_request(frame);
        if (request.rounds == 0 || request.n_segments == 0) {
          throw ProtocolError("vantage: rounds and n_segments must be > 0");
        }
        if (config_.lie_rtt_ms > 0.0) {
          sweeps_.fetch_add(1, std::memory_order_relaxed);
          reply.send(encode(fabricate(request)));
          return;
        }
        start_sweep(request, std::move(reply));
        return;
      }
      default:
        reply.send(encode(ErrorReply{"vantage: unexpected message type"}));
    }
  } catch (const Error& err) {
    reply.send(encode(ErrorReply{err.what()}));
  }
}

SampleReport VantageDaemon::fabricate(const MeasureRequest& request) const {
  // A convincing liar reports a tight, jittery sample set around its
  // chosen RTT — exactly what an honest vantage at the fabricated
  // distance would produce.
  SampleReport report;
  report.vantage_name = config_.name;
  report.latitude_deg = config_.latitude_deg;
  report.longitude_deg = config_.longitude_deg;
  report.completed = true;
  Rng rng(request.probe_seed ^ 0x11e5);
  report.rtt_ms.reserve(request.rounds);
  for (std::uint32_t i = 0; i < request.rounds; ++i) {
    report.rtt_ms.push_back(config_.lie_rtt_ms * (1.0 + 0.02 * rng.next_double()));
  }
  report.elapsed_ms = config_.lie_rtt_ms * request.rounds;
  return report;
}

VantageDaemon::Session* VantageDaemon::find(SessionId id) {
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

void VantageDaemon::start_sweep(const MeasureRequest& request,
                                net::TcpServer::Reply reply) {
  const SessionId id = next_session_++;
  auto owned = std::make_unique<Session>(request, std::move(reply));
  Session& session = *owned;
  session.report.vantage_name = config_.name;
  session.report.latitude_deg = config_.latitude_deg;
  session.report.longitude_deg = config_.longitude_deg;
  session.reply.on_cancel([this, id] {
    log::info("vantage", "sweep cancelled: auditor gone",
              {{"name", config_.name}});
    drop(id);
  });
  sessions_.emplace(id, std::move(owned));
  in_flight_.fetch_add(1, std::memory_order_relaxed);

  try {
    session.prover = std::make_unique<net::AsyncTcpChannel>(
        session.reply.loop(), request.prover_host, request.prover_port);
  } catch (const std::exception& err) {
    finish(id, session, err.what());
    return;
  }
  session.sweep_start = timer_.now();
  next_round(id, session);
}

void VantageDaemon::next_round(SessionId id, Session& session) {
  if (session.report.rtt_ms.size() == session.request.rounds) {
    finish(id, session, {});
    return;
  }
  core::SegmentRequest seg;
  seg.file_id = session.request.file_id;
  seg.index = session.rng.next_below(session.request.n_segments);
  const auto fetch = [this, id, wire = seg.serialize()] {
    Session* s = find(id);
    if (s == nullptr) return;
    s->delay = 0;
    s->prover->begin_request(wire, [this, id](net::AsyncResult&& result) {
      on_segment(id, std::move(result));
    });
  };

  session.round_start = timer_.now();
  const Millis emulated{2.0 * config_.extra_oneway_ms};
  if (emulated > Millis{0}) {
    // Geography emulation: the fictional path's propagation delay, waited
    // inside the timed window so the measured RTT includes it.
    session.delay = session.reply.loop().schedule_after(emulated, fetch);
  } else {
    fetch();
  }
}

void VantageDaemon::on_segment(SessionId id, net::AsyncResult&& result) {
  Session* session = find(id);
  if (session == nullptr) return;  // cancelled: the channel is closing
  const Millis rtt = timer_.now() - session->round_start;
  if (!result.ok()) {
    finish(id, *session, result.error);
    return;
  }
  if (result.payload.empty()) {
    finish(id, *session, "vantage: empty segment from prover");
    return;
  }
  SampleReport& report = session->report;
  report.rtt_ms.push_back(rtt.count());
  rounds_.fetch_add(1, std::memory_order_relaxed);
  if (session->request.max_rtt_ms > 0.0 &&
      rtt.count() > session->request.max_rtt_ms) {
    ++report.timing_violations;
    violations_.fetch_add(1, std::memory_order_relaxed);
  }
  next_round(id, *session);
}

void VantageDaemon::finish(SessionId id, Session& session,
                           const std::string& error) {
  SampleReport& report = session.report;
  report.completed = error.empty();
  if (report.completed) {
    report.elapsed_ms = (timer_.now() - session.sweep_start).count();
  } else {
    report.error = error;
    log::warn("vantage", "sweep failed",
              {{"name", config_.name}, {"error", error}});
  }
  sweeps_.fetch_add(1, std::memory_order_relaxed);
  log::info("vantage", "sweep done",
            {{"name", config_.name},
             {"rounds", static_cast<std::uint64_t>(report.rtt_ms.size())},
             {"completed", report.completed},
             {"violations", static_cast<std::uint64_t>(report.timing_violations)},
             {"elapsed_ms", report.elapsed_ms}});
  session.reply.send(encode(report));
  // This may run inside the prover channel's own completion: release the
  // session once the loop is back outside it.
  session.reply.loop().post([this, id] { drop(id); });
}

void VantageDaemon::drop(SessionId id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  // Unlink first: closing the channel fails its pending request, and that
  // completion must find the session gone.
  const std::unique_ptr<Session> session = std::move(it->second);
  sessions_.erase(it);
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  if (session->delay != 0) session->reply.loop().cancel_timer(session->delay);
}

}  // namespace geoproof::daemon
