// Umbrella header: the GeoProof public API in one include.
//
//   #include "geoproof.hpp"
//
// For finer-grained builds include the per-module headers directly. The
// library layering is README.md's dependency line; tools/geoproof_lint.py's
// `layer` rule checks every module's includes against its link line.
#pragma once

// Foundations
#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/errors.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "common/units.hpp"

// Cryptographic substrate
#include "crypto/aes.hpp"
#include "crypto/aes_ctr.hpp"
#include "crypto/cmac.hpp"
#include "crypto/drbg.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/hmac.hpp"
#include "crypto/mac.hpp"
#include "crypto/prp.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signature.hpp"

// Error correction
#include "ecc/block_code.hpp"
#include "ecc/gf256.hpp"
#include "ecc/reed_solomon.hpp"

// Storage and network substrates
#include "net/async.hpp"
#include "net/channel.hpp"
#include "net/geo.hpp"
#include "net/latency.hpp"
#include "net/tcp.hpp"
#include "storage/block_store.hpp"
#include "storage/disk_model.hpp"

// Observability: the process-wide metrics registry, audit-span tracing,
// and the /metrics + /statusz HTTP scrape endpoint (obs::Registry,
// obs::SpanRecorder, obs::MetricsServer).
#include "obs/fields.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_server.hpp"
#include "obs/span.hpp"

// Baselines the paper argues against
#include "distbound/attacks.hpp"
#include "distbound/brands_chaum.hpp"
#include "distbound/hancke_kuhn.hpp"
#include "distbound/reid.hpp"
#include "geoloc/schemes.hpp"

// Proof of storage
#include "por/analysis.hpp"
#include "por/dynamic.hpp"
#include "por/encoded_io.hpp"
#include "por/encoder.hpp"
#include "por/merkle.hpp"
#include "por/params.hpp"
#include "por/sentinel.hpp"

// GeoProof. The public audit API is core::AuditScheme (scheme.hpp): all
// three flavours — MacAuditScheme, SentinelAuditScheme and
// DynamicAuditScheme — live there (dynamic_geoproof.hpp adds the dynamic
// provider's wire service), and core::AuditService schedules
// heterogeneous (scheme, file, provider) registrations through it.
#include "core/audit_service.hpp"
#include "core/deployment.hpp"
#include "core/dynamic_geoproof.hpp"
#include "core/gps.hpp"
#include "core/policy.hpp"
#include "core/provider.hpp"
#include "core/replication.hpp"
#include "core/scheme.hpp"
#include "core/sharded_engine.hpp"
#include "core/transcript.hpp"
#include "core/verifier.hpp"

// Location estimation: vantage-fleet delay measurement + Byzantine-robust
// multilateration (locate::VantageFleet, locate::Multilaterator), and
// the §V-C composite audit (locate::MultiAuditor) on the same solver.
#include "locate/composite.hpp"
#include "locate/delay_model.hpp"
#include "locate/fleet.hpp"
#include "locate/measurement.hpp"
#include "locate/multilaterate.hpp"

// Continuous position tracking: per-provider sliding-window tracks with
// online re-solve and error ellipses (track::PositionTrack), CUSUM
// relocation alarms (track::ChangePointDetector), and the thread-safe
// streaming registry shard workers feed (track::TrackService).
#include "track/changepoint.hpp"
#include "track/position_track.hpp"
#include "track/track_service.hpp"

// Real-process daemons (apps/geoproofd, geoproof-vantage, geoproof-audit):
// the prover/vantage serving cores, the auditor fan-out client, and the
// control-protocol wire messages they exchange.
#include "common/flags.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "daemon/auditor_client.hpp"
#include "daemon/prover_daemon.hpp"
#include "daemon/signal.hpp"
#include "daemon/track_stream.hpp"
#include "daemon/vantage_daemon.hpp"
#include "daemon/wire.hpp"
