#include "core/transcript.hpp"

#include <algorithm>

#include "common/errors.hpp"
#include "common/serialize.hpp"
#include "por/encoder.hpp"

namespace geoproof::core {

namespace {
constexpr std::uint32_t kMaxChallenge = 1u << 20;  // parser sanity cap
}

Bytes AuditRequest::serialize() const {
  ByteWriter w;
  w.u64(file_id);
  w.u64(n_segments);
  w.u32(k);
  w.bytes(nonce);
  w.u32(static_cast<std::uint32_t>(positions.size()));
  for (const std::uint64_t p : positions) w.u64(p);
  return std::move(w).take();
}

AuditRequest AuditRequest::deserialize(BytesView data) {
  ByteReader r(data);
  AuditRequest req;
  req.file_id = r.u64();
  req.n_segments = r.u64();
  req.k = r.u32();
  req.nonce = r.bytes();
  const std::uint32_t n_positions = r.u32();
  if (n_positions > kMaxChallenge) {
    throw SerializeError("AuditRequest: position count exceeds sanity cap");
  }
  req.positions.reserve(n_positions);
  for (std::uint32_t i = 0; i < n_positions; ++i) {
    req.positions.push_back(r.u64());
  }
  r.expect_done();
  if (req.k > kMaxChallenge) {
    throw SerializeError("AuditRequest: k exceeds sanity cap");
  }
  if (!req.positions.empty() && req.positions.size() != req.k) {
    throw SerializeError("AuditRequest: k disagrees with explicit positions");
  }
  return req;
}

Bytes SegmentRequest::serialize() const {
  ByteWriter w;
  w.u64(file_id);
  w.u64(index);
  return std::move(w).take();
}

SegmentRequest SegmentRequest::deserialize(BytesView data) {
  ByteReader r(data);
  SegmentRequest req;
  req.file_id = r.u64();
  req.index = r.u64();
  r.expect_done();
  return req;
}

const Bytes& lookup_segment(const por::EncodedFile& file, BytesView request) {
  const SegmentRequest req = SegmentRequest::deserialize(request);
  if (req.file_id != file.file_id) {
    throw StorageError("segment request for unknown file " +
                       std::to_string(req.file_id));
  }
  if (req.index >= file.n_segments) {
    throw StorageError("segment index " + std::to_string(req.index) +
                       " out of range");
  }
  return file.segments[static_cast<std::size_t>(req.index)];
}

Bytes AuditTranscript::serialize() const {
  if (challenge.size() != rtts.size() || challenge.size() != segments.size()) {
    throw SerializeError("AuditTranscript: inconsistent round counts");
  }
  ByteWriter w;
  w.u64(file_id);
  w.bytes(nonce);
  w.f64(position.lat_deg);
  w.f64(position.lon_deg);
  w.u32(static_cast<std::uint32_t>(challenge.size()));
  for (std::size_t i = 0; i < challenge.size(); ++i) {
    w.u64(challenge[i]);
    w.f64(rtts[i].count());
    w.bytes(segments[i]);
  }
  return std::move(w).take();
}

AuditTranscript AuditTranscript::deserialize(BytesView data) {
  ByteReader r(data);
  AuditTranscript t;
  t.file_id = r.u64();
  t.nonce = r.bytes();
  t.position.lat_deg = r.f64();
  t.position.lon_deg = r.f64();
  const std::uint32_t rounds = r.u32();
  if (rounds > kMaxChallenge) {
    throw SerializeError("AuditTranscript: round count exceeds sanity cap");
  }
  t.challenge.reserve(rounds);
  t.rtts.reserve(rounds);
  t.segments.reserve(rounds);
  for (std::uint32_t i = 0; i < rounds; ++i) {
    t.challenge.push_back(r.u64());
    t.rtts.push_back(Millis{r.f64()});
    t.segments.push_back(r.bytes());
  }
  r.expect_done();
  return t;
}

Millis AuditTranscript::max_rtt() const {
  Millis best{0};
  for (const Millis& m : rtts) best = std::max(best, m);
  return best;
}

Millis AuditTranscript::mean_rtt() const {
  if (rtts.empty()) return Millis{0};
  double sum = 0.0;
  for (const Millis& m : rtts) sum += m.count();
  return Millis{sum / static_cast<double>(rtts.size())};
}

Millis AuditTranscript::min_rtt() const {
  if (rtts.empty()) return Millis{0};
  Millis best = rtts.front();
  for (const Millis& m : rtts) best = std::min(best, m);
  return best;
}

std::uint64_t AuditTranscript::exchanged_bytes() const {
  // Each round: one SegmentRequest (two u64s = 16 bytes) out, one segment
  // back.
  std::uint64_t total = 16 * segments.size();
  for (const Bytes& s : segments) total += s.size();
  return total;
}

Bytes SignedTranscript::serialize() const {
  ByteWriter w;
  w.bytes(transcript.serialize());
  w.bytes(signature.serialize());
  return std::move(w).take();
}

SignedTranscript SignedTranscript::deserialize(BytesView data) {
  ByteReader r(data);
  SignedTranscript st;
  st.transcript = AuditTranscript::deserialize(r.bytes());
  st.signature = crypto::MerkleSignature::deserialize(r.bytes());
  r.expect_done();
  return st;
}

Bytes BatchedTranscripts::signing_input() const {
  ByteWriter w;
  w.u64(transcripts.size());
  for (const AuditTranscript& t : transcripts) w.bytes(t.serialize());
  return std::move(w).take();
}

}  // namespace geoproof::core
