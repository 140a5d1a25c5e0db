// registry_sweep: the storage proof at compliance-sweep scale.
//
// One core::AuditService holds 4096 MAC registrations across 16
// VerifierDevice sites; each site has its own SimClock/LAN world and all of
// a site's registrations live on one shard (stealing off), as the engine
// contract requires. core::ShardedAuditEngine (4 shards, batch_size 64)
// calls sweep_once() repeatedly. The LAN runs in virtual time, so the
// workload is CPU-bound in crypto, por and core.
//
// The provider serves segments and tags precomputed at set-up, so the timed
// path carries no harness MAC work. One registration in 64 is a lost file
// (every tag wrong: integrity must fail) and one site sits behind a relay
// adding ~20 ms to the LAN round trip (Δt must fail).
#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "core/audit_service.hpp"
#include "core/sharded_engine.hpp"
#include "crypto/mac.hpp"
#include "crypto/signature.hpp"
#include "geoloc/schemes.hpp"
#include "net/channel.hpp"
#include "net/geo.hpp"
#include "por/params.hpp"
#include "proc.hpp"
#include "workloads.hpp"

namespace geobench {

namespace {

using namespace geoproof;

constexpr unsigned kSites = 16;
constexpr unsigned kPerSite = 256;
constexpr unsigned kShards = 4;
constexpr unsigned kBatch = 64;
constexpr unsigned kGroupsPerSite = kPerSite / kBatch;
constexpr std::uint32_t kChallenge = 10;
constexpr std::uint64_t kSegmentsPerFile = 32;
constexpr unsigned kLostEvery = 64;
constexpr double kRelayOneWayMs = 10.0;
constexpr int kSetups = 3;
/// Key budget: a device signs once per batch, so it needs kGroupsPerSite
/// signatures per sweep. Devices are provisioned for this many sweeps per
/// second of run; a faster engine ends its run at the key budget (noted in
/// the output) instead of failing audits on exhausted keys.
constexpr double kMaxSweepsPerSecond = 25.0;
constexpr unsigned kExtraSweeps = 4;
/// ~280 sweeps per 20 s run leave >= 10 requests beyond p95.
constexpr double kTailPct = 95.0;

using Segments = std::vector<std::vector<Bytes>>;  // [file id - 1][index]

struct Site {
  SimClock clock;
  net::SimAuditTimer timer{clock};
  std::unique_ptr<net::SimRequestChannel> channel;
  std::unique_ptr<core::VerifierDevice> device;
  std::unique_ptr<core::MacAuditScheme> scheme;
  bool relayed = false;
};

struct World {
  Bytes master;
  por::PorParams params;
  Segments segments;
  std::vector<bool> lost;  // [file id - 1]
  std::vector<std::unique_ptr<Site>> sites;
  core::AuditService service{core::AuditService::Options{.history_limit = 8}};
  double setup_s = 0.0;

  unsigned site_of(std::uint64_t file_id) const {
    return static_cast<unsigned>((file_id - 1) / kPerSite);
  }
  std::uint32_t keys_remaining_min() const {
    std::uint32_t least = UINT32_MAX;
    for (const auto& s : sites) {
      least = std::min(least, s->device->audits_remaining());
    }
    return least;
  }
  std::uint64_t keys_remaining_sum() const {
    std::uint64_t sum = 0;
    for (const auto& s : sites) sum += s->device->audits_remaining();
    return sum;
  }
};

unsigned signer_height(double seconds) {
  const double sweeps = std::ceil(seconds * kMaxSweepsPerSecond) + kExtraSweeps;
  const double signatures = sweeps * kGroupsPerSite;
  return static_cast<unsigned>(std::ceil(std::log2(signatures)));
}

/// Deterministic segment payload + tag for one file; every tag is wrong
/// for a lost file.
std::vector<Bytes> make_file(const Bytes& master, const por::PorParams& params,
                             std::uint64_t file_id, bool lost,
                             std::uint64_t seed) {
  const crypto::SegmentMac mac(
      por::PorKeys::derive(master, file_id, params.tag).mac_key, params.tag);
  Rng rng(seed ^ (file_id * 0x9e3779b97f4a7c15ull));
  std::vector<Bytes> out;
  out.reserve(kSegmentsPerFile);
  for (std::uint64_t i = 0; i < kSegmentsPerFile; ++i) {
    Bytes wire = rng.next_bytes(params.blocks_per_segment * params.block_size);
    Bytes tag = mac.tag(wire, i, file_id);
    if (lost) tag[0] ^= 0x80;
    append(wire, tag);
    out.push_back(std::move(wire));
  }
  return out;
}

/// Key generation, tag precompute (sites in parallel, one thread per
/// shard) and the adds.
std::unique_ptr<World> build_world(std::uint64_t seed, unsigned height) {
  const double t0 = now_ms();
  auto w = std::make_unique<World>();
  Rng rng(seed);
  w->master = rng.next_bytes(16);
  w->segments.resize(kSites * kPerSite);
  w->lost.assign(kSites * kPerSite, false);
  for (unsigned g = 0; g < kSites * kPerSite / kLostEvery; ++g) {
    w->lost[g * kLostEvery + rng.next_below(kLostEvery)] = true;
  }
  const unsigned relayed = static_cast<unsigned>(rng.next_below(kSites));
  const std::vector<geoloc::Landmark> contracted = geoloc::spiral_landmarks(
      net::places::brisbane(), Kilometers{1500.0}, kSites, "site");
  w->sites.resize(kSites);

  const auto build_site = [&](unsigned s) {
    auto site = std::make_unique<Site>();
    site->relayed = s == relayed;
    for (unsigned r = 0; r < kPerSite; ++r) {
      const std::uint64_t id = s * kPerSite + r + 1;
      w->segments[id - 1] = make_file(w->master, w->params, id,
                                      w->lost[id - 1], seed);
    }
    net::SimRequestChannel::LatencyFn lan = net::lan_latency(
        net::LanModel{}, Kilometers{0.1}, seed ^ (0x1a7 + s));
    if (site->relayed) {
      lan = [lan](std::size_t bytes) {
        return lan(bytes) + Millis{kRelayOneWayMs};
      };
    }
    const Segments& segments = w->segments;
    site->channel = std::make_unique<net::SimRequestChannel>(
        site->clock, std::move(lan), [&segments](BytesView request) {
          const core::SegmentRequest req =
              core::SegmentRequest::deserialize(request);
          if (req.file_id == 0 || req.file_id > segments.size() ||
              req.index >= kSegmentsPerFile) {
            throw std::out_of_range("segment request out of range");
          }
          return segments[req.file_id - 1][req.index];
        });
    // The device sits in the contracted data centre, a few km from the
    // contract's reference point (inside the 5 km position tolerance).
    core::VerifierDevice::Config dcfg;
    dcfg.position = net::destination(contracted[s].pos, 22.5 * s,
                                     Kilometers{0.5 + 0.2 * s});
    dcfg.signer_seed = bytes_of("geobench-site-" + std::to_string(s) + "-" +
                                std::to_string(seed));
    dcfg.signer_height = height;
    dcfg.challenge_seed = seed * 31 + s;
    site->device = std::make_unique<core::VerifierDevice>(
        dcfg, *site->channel, site->timer);
    core::AuditorConfig acfg;
    acfg.master_key = w->master;
    acfg.verifier_pk = site->device->public_key();
    acfg.expected_position = contracted[s].pos;
    acfg.nonce_seed = seed * 131 + s;
    site->scheme = std::make_unique<core::MacAuditScheme>(acfg, w->params);
    w->sites[s] = std::move(site);
  };
  {
    std::vector<std::jthread> workers;
    for (unsigned t = 0; t < kShards; ++t) {
      workers.emplace_back([&, t] {
        for (unsigned s = t; s < kSites; s += kShards) build_site(s);
      });
    }
  }
  for (unsigned s = 0; s < kSites; ++s) {
    for (unsigned r = 0; r < kPerSite; ++r) {
      const std::uint64_t id = s * kPerSite + r + 1;
      w->service.add(*w->sites[s]->scheme, *w->sites[s]->device,
                     core::FileRecord{id, kSegmentsPerFile, 0}, kChallenge);
    }
  }
  w->setup_s = (now_ms() - t0) / 1e3;
  return w;
}

/// Empty when the verdict is the one this registration must get.
std::string judge(const World& w, std::uint64_t file_id,
                  const core::AuditReport& r) {
  using F = core::AuditFailure;
  if (r.failed(F::kAborted)) return "audit aborted";
  const bool lost = w.lost[file_id - 1];
  const bool relayed = w.sites[w.site_of(file_id)]->relayed;
  if (!lost && !relayed) {
    return r.accepted ? "" : "honest audit rejected: " + r.summary();
  }
  if (r.accepted) return "adversarial audit accepted";
  if (lost && !r.failed(F::kTag)) return "lost file passed integrity";
  if (relayed && !r.failed(F::kTiming)) return "relayed audit passed Δt";
  return {};
}

/// Per-shard verdict tallies written by the engine's report hook; each
/// shard's slot is touched only by that shard's worker (stealing is off).
struct alignas(64) ShardTally {
  Tally tally;
  std::vector<double> position_error_km;
};

struct Engine {
  std::vector<ShardTally> shards{kShards};
  std::unique_ptr<core::ShardedAuditEngine> engine;
  /// Keep each verdict's position error. Set for one sweep only (every
  /// registration once), so the measured phase stores nothing per audit.
  bool keep_position_error = false;

  explicit Engine(World& w) {
    core::ShardedAuditEngine::Options o;
    o.shards = kShards;
    o.partitioner = [](std::uint64_t id, std::size_t n) {
      return static_cast<std::size_t>((id - 1) / kPerSite) % n;
    };
    o.work_stealing = false;
    o.batch_size = kBatch;
    o.report_hook = [this, &w](std::uint64_t id, const core::AuditReport& r,
                               std::size_t shard) {
      ShardTally& t = shards[shard];
      t.tally.count(judge(w, id, r));
      if (keep_position_error) {
        t.position_error_km.push_back(r.position_error.value);
      }
    };
    engine = std::make_unique<core::ShardedAuditEngine>(w.service, o);
  }

  /// Fold the shard tallies into `out` and reset them.
  void drain(Tally& out, std::vector<double>* position_error_km) {
    for (ShardTally& t : shards) {
      out.attempted += t.tally.attempted;
      out.failed += t.tally.failed;
      for (const std::string& r : t.tally.reasons) {
        if (out.reasons.size() < 8) out.reasons.push_back(r);
      }
      if (position_error_km != nullptr) {
        position_error_km->insert(position_error_km->end(),
                                  t.position_error_km.begin(),
                                  t.position_error_km.end());
      }
      t = ShardTally{};
    }
  }
};

/// A sweep would need more keys than every device has left.
bool keys_exhausted(const World& w) {
  return w.keys_remaining_min() < kGroupsPerSite;
}

// ── Traced replay ─────────────────────────────────────────────────────────

struct LayerSamples {
  std::vector<double> plan_us, device_ms, verify_ms, record_us;
  core::BatchedTranscripts last_batch;
};

/// AuditService::run_group's steps for one 64-registration group, each
/// public call under a span when `tr` is given: make_request per audit,
/// VerifierDevice::run_audit_batch, AuditScheme::verify_batch, and
/// AuditService::record per audit. Returns the group's latency in ms.
double replay_group(World& w, unsigned site, unsigned group, Trace* tr,
                    LayerSamples* s, Tally& tally) {
  Site& st = *w.sites[site];
  const std::uint64_t first = site * kPerSite + group * kBatch + 1;
  const double start = now_ms();
  const int root = tr != nullptr ? tr->open("core.request", -1) : -1;
  const auto timed = [&](const char* name, auto&& fn) {
    if (tr == nullptr) return fn(), 0.0;
    const int span = tr->open(name, root);
    fn();
    tr->close(span);
    return tr->at(span).duration_ms();
  };
  try {
    std::vector<core::FileRecord> files;
    std::vector<core::AuditRequest> requests;
    for (std::uint64_t id = first; id < first + kBatch; ++id) {
      const core::AuditService::Registration& reg =
          w.service.registration(id);
      files.push_back(reg.file);
      const double ms = timed("core.plan", [&] {
        requests.push_back(
            reg.scheme->make_request(reg.file, reg.challenge_size));
      });
      if (s != nullptr) s->plan_us.push_back(ms * 1e3);
    }
    core::BatchedTranscripts batch;
    const double device_ms = timed("core.device_batch", [&] {
      batch = st.device->run_audit_batch(requests);
    });
    std::vector<core::AuditReport> reports;
    const double verify_ms = timed("core.verify_batch", [&] {
      reports = st.scheme->verify_batch(files, batch);
    });
    for (std::uint64_t id = first; id < first + kBatch; ++id) {
      const core::AuditReport& report = reports[id - first];
      tally.count(judge(w, id, report));
      const double ms = timed("core.record", [&] {
        w.service.record(id, st.clock.now(), report);
      });
      if (s != nullptr) s->record_us.push_back(ms * 1e3);
    }
    if (s != nullptr) {
      s->device_ms.push_back(device_ms);
      s->verify_ms.push_back(verify_ms);
      s->last_batch = std::move(batch);
    }
  } catch (const std::exception& err) {
    for (unsigned i = 0; i < kBatch; ++i) {
      tally.count(std::string("group aborted: ") + err.what());
    }
  }
  if (tr != nullptr) tr->close(root);
  return now_ms() - start;
}

/// Replay every group of one sweep on this thread; returns each latency.
std::vector<double> replay_sweep(World& w, Trace* tr, LayerSamples* s,
                                 Tally& tally) {
  std::vector<double> latencies;
  for (unsigned site = 0; site < kSites; ++site) {
    for (unsigned g = 0; g < kGroupsPerSite; ++g) {
      latencies.push_back(replay_group(w, site, g, tr, s, tally));
    }
  }
  return latencies;
}

double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (const double x : v) total += x;
  return total;
}

/// Median of `reps` timings of `fn` in microseconds, over `per_rep` calls.
template <typename Fn>
double time_us(int reps, std::size_t per_rep, Fn fn) {
  std::vector<double> us;
  for (int r = 0; r < reps; ++r) {
    const double start = now_ms();
    fn();
    us.push_back((now_ms() - start) * 1e3 / static_cast<double>(per_rep));
  }
  return median(us);
}

}  // namespace

void registry_sweep(const Config& cfg, Outcome& out) {
  EndToEnd e;
  e.tail_pct = kTailPct;
  const unsigned height = signer_height(cfg.seconds);
  std::unique_ptr<World> w;
  for (int rep = 0; rep < kSetups; ++rep) {
    w.reset();
    w = build_world(cfg.seed, height);
    e.setup_s.push_back(w->setup_s);
  }
  Engine engine(*w);
  // Warm-up (caches, pool threads), which also audits every registration
  // once for fix_error_km_p50: each device's position error is fixed.
  engine.keep_position_error = true;
  engine.engine->sweep_once();
  engine.keep_position_error = false;
  engine.drain(out.tally, &e.fix_error_km);

  const std::uint64_t audits0 = engine.engine->stats().audits;
  const double cpu0 = self_cpu_ms();
  const double t0 = now_ms();
  const double deadline = t0 + cfg.seconds * 1e3;
  while (now_ms() < deadline && !keys_exhausted(*w)) {
    const double start = now_ms();
    engine.engine->sweep_once();
    e.latency_ms.push_back(now_ms() - start);
  }
  e.measured_s = (now_ms() - t0) / 1e3;
  e.cpu_ms = self_cpu_ms() - cpu0;
  e.ops = engine.engine->stats().audits - audits0;
  engine.drain(out.tally, nullptr);
  if (now_ms() < deadline) {
    out.notes.push_back("measured phase ended early at the key budget");
  }
  e.rss_mb = self_rss_peak_mb();
  out.notes.push_back("signer_height " + std::to_string(height) +
                      ", keys_remaining_min " +
                      std::to_string(w->keys_remaining_min()));
  set_end_to_end(e, out.tally, out.metrics, out.notes);
}

void registry_sweep_traced(const Config& cfg, double seconds, Outcome& out) {
  std::unique_ptr<World> w = build_world(cfg.seed, signer_height(seconds));
  const std::uint64_t keys0 = w->keys_remaining_sum();
  std::uint64_t audits = 0;

  // Round robin, so host drift hits every phase alike: an untraced
  // single-thread replay of a whole sweep (the overhead baseline and the
  // efficiency numerator), an engine sweep (its denominator), and a traced
  // replay.
  std::vector<double> untraced, traced, ladder_sweep_ms, sweep_ms;
  Trace trace;
  LayerSamples layers;
  Engine engine(*w);
  const double end = now_ms() + seconds * 1e3;
  do {
    if (keys_exhausted(*w)) break;
    const std::vector<double> plain =
        replay_sweep(*w, nullptr, nullptr, out.tally);
    ladder_sweep_ms.push_back(sum(plain));
    untraced.insert(untraced.end(), plain.begin(), plain.end());
    audits += kSites * kPerSite;

    if (keys_exhausted(*w)) break;
    const double start = now_ms();
    engine.engine->sweep_once();
    sweep_ms.push_back(now_ms() - start);
    audits += kSites * kPerSite;

    if (keys_exhausted(*w)) break;
    const std::vector<double> lat =
        replay_sweep(*w, &trace, &layers, out.tally);
    traced.insert(traced.end(), lat.begin(), lat.end());
    audits += kSites * kPerSite;
  } while (now_ms() < end);
  engine.drain(out.tally, nullptr);
  trace.write(cfg.out_dir + "/registry_sweep.spans.jsonl");
  const std::uint64_t signatures = keys0 - w->keys_remaining_sum();

  // Crypto and POR micro-timings on the last replayed batch.
  const core::BatchedTranscripts& batch = layers.last_batch;
  const Bytes input = batch.signing_input();
  crypto::MerkleSigner signer(bytes_of("geobench-probe-signer"), 5);
  std::vector<crypto::MerkleSignature> sigs;
  const double sign_us = time_us(16, 1, [&] { sigs.push_back(signer.sign(input)); });
  bool verified = true;
  const double verify_us = time_us(16, 1, [&] {
    verified = crypto::merkle_verify(signer.public_key(), input, sigs.back()) &&
               verified;
  });
  out.tally.check(verified, "probe signature verifies");
  std::size_t segments = 0;
  std::size_t tags_ok = 0;
  for (const core::AuditTranscript& t : batch.transcripts) {
    segments += t.segments.size();
  }
  const std::size_t data_bytes =
      w->params.blocks_per_segment * w->params.block_size;
  const double mac_us = time_us(5, std::max<std::size_t>(segments, 1), [&] {
    tags_ok = 0;
    for (const core::AuditTranscript& t : batch.transcripts) {
      const crypto::SegmentMac mac(
          por::PorKeys::derive(w->master, t.file_id, w->params.tag).mac_key,
          w->params.tag);
      for (std::size_t j = 0; j < t.segments.size(); ++j) {
        const BytesView seg(t.segments[j]);
        if (mac.verify(seg.subspan(0, data_bytes), t.challenge[j], t.file_id,
                       seg.subspan(data_bytes))) {
          ++tags_ok;
        }
      }
    }
  });
  std::size_t expected_ok = 0;
  for (const core::AuditTranscript& t : batch.transcripts) {
    if (!w->lost[t.file_id - 1]) expected_ok += t.segments.size();
  }
  out.tally.check(tags_ok == expected_ok, "segment tags verify except lost");

  Metrics& m = out.metrics;
  m.set("core.plan_us", median(layers.plan_us), "us");
  m.set("core.device_batch_ms", median(layers.device_ms), "ms");
  m.set("core.verify_batch_ms", median(layers.verify_ms), "ms");
  m.set("core.record_us", median(layers.record_us), "us");
  m.set("core.engine_efficiency",
        sweep_ms.empty() ? 0.0
                         : median(ladder_sweep_ms) /
                               (kShards * median(sweep_ms)),
        "ratio");
  m.set("core.audits_per_signature",
        signatures == 0 ? 0.0
                        : static_cast<double>(audits) /
                              static_cast<double>(signatures),
        "count");
  m.set("core.keys_remaining_min",
        static_cast<double>(w->keys_remaining_min()), "count");
  m.set("crypto.sign_us", sign_us, "us");
  m.set("crypto.sig_verify_us", verify_us, "us");
  m.set("por.mac_verify_us", mac_us, "us");
  m.set("ladder.gap_ratio", gap_ratio(trace.ladders("core.request")),
        "ratio");
  m.set("trace.overhead_ratio",
        median(untraced) > 0.0 ? median(traced) / median(untraced) : 0.0,
        "ratio");
}

}  // namespace geobench
