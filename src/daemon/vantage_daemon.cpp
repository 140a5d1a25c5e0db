#include "daemon/vantage_daemon.hpp"

#include <exception>
#include <thread>

#include "common/errors.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/transcript.hpp"
#include "net/channel.hpp"

namespace geoproof::daemon {

VantageDaemon::VantageDaemon(VantageConfig config) : config_(std::move(config)) {
  server_ = std::make_unique<net::TcpServer>(
      [this](BytesView frame) { return serve(frame); },
      net::TcpServer::Options{config_.host, config_.port, /*backlog=*/16});
  log::info("vantage", "listening",
            {{"name", config_.name},
             {"host", config_.host},
             {"port", server_->port()}});
}

void VantageDaemon::stop() {
  if (server_) server_->stop();
}

Bytes VantageDaemon::serve(BytesView frame) {
  // Throwing here would make the server drop the connection and leave the
  // auditor with only "connection closed" instead of the reason.
  try {
    switch (type_of(frame)) {
      case MsgType::kPing: {
        const Ping ping = decode_ping(frame);
        return encode(Pong{ping.nonce, config_.name});
      }
      case MsgType::kMeasureRequest:
        return encode(measure(decode_measure_request(frame)));
      default:
        return encode(ErrorReply{"vantage: unexpected message type"});
    }
  } catch (const Error& err) {
    return encode(ErrorReply{err.what()});
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

SampleReport VantageDaemon::measure(const MeasureRequest& request) {
  if (request.rounds == 0 || request.n_segments == 0) {
    throw ProtocolError("vantage: rounds and n_segments must be > 0");
  }
  if (config_.lie_rtt_ms > 0.0) {
    sweeps_.fetch_add(1, std::memory_order_relaxed);
    return fabricate(request);
  }

  SampleReport report;
  report.vantage_name = config_.name;
  report.latitude_deg = config_.latitude_deg;
  report.longitude_deg = config_.longitude_deg;

  try {
    net::TcpRequestChannel prover(request.prover_host, request.prover_port);
    Rng rng(request.probe_seed);
    const net::SteadyAuditTimer timer;
    const Nanos emulated = to_nanos(Millis{2.0 * config_.extra_oneway_ms});
    const Millis sweep_start = timer.now();

    for (std::uint32_t round = 0; round < request.rounds; ++round) {
      core::SegmentRequest seg;
      seg.file_id = request.file_id;
      seg.index = rng.next_below(request.n_segments);
      const Bytes wire = seg.serialize();

      const Millis start = timer.now();
      if (emulated.count() > 0) {
        // Geography emulation: the fictional path's propagation delay,
        // slept inside the timed window so the measured RTT includes it.
        std::this_thread::sleep_for(emulated);
      }
      const Bytes segment = prover.request(wire);
      const Millis rtt = timer.now() - start;

      if (segment.empty()) {
        throw ProtocolError("vantage: empty segment from prover");
      }
      report.rtt_ms.push_back(rtt.count());
      rounds_.fetch_add(1, std::memory_order_relaxed);
      if (request.max_rtt_ms > 0.0 && rtt.count() > request.max_rtt_ms) {
        ++report.timing_violations;
        violations_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    report.elapsed_ms = (timer.now() - sweep_start).count();
    report.completed = true;
  } catch (const std::exception& err) {
    report.completed = false;
    report.error = err.what();
    log::warn("vantage", "sweep failed",
              {{"name", config_.name}, {"error", err.what()}});
  }

  sweeps_.fetch_add(1, std::memory_order_relaxed);
  log::info("vantage", "sweep done",
            {{"name", config_.name},
             {"rounds", static_cast<std::uint64_t>(report.rtt_ms.size())},
             {"completed", report.completed},
             {"violations", static_cast<std::uint64_t>(report.timing_violations)},
             {"elapsed_ms", report.elapsed_ms}});
  return report;
}

}  // namespace geoproof::daemon
