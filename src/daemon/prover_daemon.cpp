#include "daemon/prover_daemon.hpp"

#include <memory>

#include "common/errors.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/transcript.hpp"

namespace geoproof::daemon {

ProverDaemon::ProverDaemon(ProverConfig config) : config_(std::move(config)) {
  if (config_.file_bytes == 0) {
    throw InvalidArgument("ProverDaemon: file_bytes must be > 0");
  }
  Rng rng(config_.seed);
  const Bytes file = rng.next_bytes(
      static_cast<std::size_t>(config_.file_bytes));
  const Bytes master_key = rng.next_bytes(16);
  const por::PorEncoder encoder{por::PorParams{}};
  file_ = encoder.encode(file, config_.file_id, master_key);
  log::info("prover", "file encoded",
            {{"file_id", config_.file_id},
             {"bytes", config_.file_bytes},
             {"segments", file_.n_segments},
             {"segment_bytes", static_cast<std::uint64_t>(file_.segment_bytes)}});

  server_ = std::make_unique<net::TcpServer>(
      [this](BytesView request, net::TcpServer::Reply reply) {
        serve(request, std::move(reply));
      },
      net::TcpServer::Options{config_.host, config_.port, /*backlog=*/64});
  log::info("prover", "listening",
            {{"host", config_.host}, {"port", server_->port()}});
}

void ProverDaemon::stop() {
  if (server_) server_->stop();
}

void ProverDaemon::serve(BytesView request, net::TcpServer::Reply reply) {
  const Bytes& segment = core::lookup_segment(file_, request);
  if (config_.stall_ms <= 0.0) {
    served_.fetch_add(1, std::memory_order_relaxed);
    reply.send(segment);
    return;
  }
  // The stall is a timer on the serving loop: other requests proceed
  // meanwhile, and a requester that hangs up cancels its answer.
  net::EventLoop& loop = reply.loop();
  auto held = std::make_shared<net::TcpServer::Reply>(std::move(reply));
  const net::EventLoop::TimerId timer = loop.schedule_after(
      Millis{config_.stall_ms}, [this, held, &segment] {
        served_.fetch_add(1, std::memory_order_relaxed);
        held->send(segment);
      });
  held->on_cancel([&loop, timer] { loop.cancel_timer(timer); });
}

}  // namespace geoproof::daemon
