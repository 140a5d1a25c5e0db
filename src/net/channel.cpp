#include "net/channel.hpp"

#include "common/errors.hpp"

namespace geoproof::net {

AsyncChannel::RequestId RequestChannel::begin_request(BytesView message,
                                                      CompletionFn done,
                                                      Millis /*deadline*/) {
  const RequestId id = next_id_++;
  done(AsyncResult{AsyncStatus::kOk, request(message), {}});
  return id;
}

SteadyAuditTimer::SteadyAuditTimer()
    : start_(std::chrono::steady_clock::now()) {}

Millis SteadyAuditTimer::now() const {
  return std::chrono::duration_cast<Millis>(std::chrono::steady_clock::now() -
                                            start_);
}

SimRequestChannel::SimRequestChannel(SimClock& clock, LatencyFn one_way,
                                     RequestHandler handler)
    : clock_(&clock), one_way_(std::move(one_way)),
      handler_(std::move(handler)) {
  if (!one_way_) throw InvalidArgument("SimRequestChannel: null latency fn");
  if (!handler_) throw InvalidArgument("SimRequestChannel: null handler");
}

Bytes SimRequestChannel::request(BytesView message) {
  clock_->advance(one_way_(message.size()));
  Bytes response = handler_(message);
  clock_->advance(one_way_(response.size()));
  ++exchanges_;
  return response;
}

SimRequestChannel::LatencyFn lan_latency(LanModel model, Kilometers distance,
                                         std::uint64_t jitter_seed) {
  if (jitter_seed == 0) {
    return [model, distance](std::size_t bytes) {
      return model.one_way(distance, bytes);
    };
  }
  // Owned Rng shared by the returned closure (deterministic per seed).
  auto rng = std::make_shared<Rng>(jitter_seed);
  return [model, distance, rng](std::size_t bytes) {
    return model.sample_one_way(distance, bytes, *rng);
  };
}

SimRequestChannel::LatencyFn internet_latency(InternetModel model,
                                              Kilometers distance,
                                              std::uint64_t jitter_seed) {
  if (jitter_seed == 0) {
    return [model, distance](std::size_t) { return model.one_way(distance); };
  }
  auto rng = std::make_shared<Rng>(jitter_seed);
  return [model, distance, rng](std::size_t) {
    return Millis{model.sample_rtt(distance, *rng).count() / 2.0};
  };
}

}  // namespace geoproof::net
