#include "core/transcript.hpp"

#include <gtest/gtest.h>

#include "common/errors.hpp"
#include "por/encoder.hpp"

namespace geoproof::core {
namespace {

AuditTranscript sample_transcript() {
  AuditTranscript t;
  t.file_id = 99;
  t.nonce = bytes_of("nonce-123");
  t.position = {-27.47, 153.02};
  t.challenge = {5, 17, 3};
  t.rtts = {Millis{14.2}, Millis{13.9}, Millis{15.5}};
  t.segments = {bytes_of("seg-five"), bytes_of("seg-seventeen"),
                bytes_of("seg-three")};
  return t;
}

TEST(AuditRequest, SerializeRoundTrip) {
  AuditRequest req;
  req.file_id = 7;
  req.n_segments = 1000;
  req.k = 20;
  req.nonce = bytes_of("fresh-nonce");
  const AuditRequest back = AuditRequest::deserialize(req.serialize());
  EXPECT_EQ(back.file_id, 7u);
  EXPECT_EQ(back.n_segments, 1000u);
  EXPECT_EQ(back.k, 20u);
  EXPECT_EQ(back.nonce, req.nonce);
}

TEST(AuditRequest, RejectsTruncation) {
  AuditRequest req;
  req.nonce = bytes_of("n");
  Bytes wire = req.serialize();
  wire.pop_back();
  EXPECT_THROW(AuditRequest::deserialize(wire), SerializeError);
}

TEST(AuditRequest, RejectsOversizeK) {
  AuditRequest req;
  req.k = 5u << 20;
  EXPECT_THROW(AuditRequest::deserialize(req.serialize()), SerializeError);
}

TEST(AuditRequest, ExplicitPositionsRoundTrip) {
  // The unified request carries TPA-chosen challenges (sentinel positions,
  // Merkle indices) inline.
  AuditRequest req;
  req.file_id = 7;
  req.k = 3;
  req.nonce = bytes_of("fresh-nonce");
  req.positions = {42, 7, 99};
  const AuditRequest back = AuditRequest::deserialize(req.serialize());
  EXPECT_EQ(back.positions, req.positions);
  EXPECT_EQ(back.k, 3u);
}

TEST(AuditRequest, RejectsPositionCountDisagreeingWithK) {
  AuditRequest req;
  req.k = 2;
  req.positions = {1, 2, 3};
  EXPECT_THROW(AuditRequest::deserialize(req.serialize()), SerializeError);
}

TEST(SegmentRequest, SerializeRoundTrip) {
  const SegmentRequest req{42, 1234567};
  const SegmentRequest back = SegmentRequest::deserialize(req.serialize());
  EXPECT_EQ(back.file_id, 42u);
  EXPECT_EQ(back.index, 1234567u);
}

TEST(SegmentRequest, RejectsTrailingBytes) {
  Bytes wire = SegmentRequest{1, 2}.serialize();
  wire.push_back(0);
  EXPECT_THROW(SegmentRequest::deserialize(wire), SerializeError);
}

por::EncodedFile three_segment_file() {
  por::EncodedFile file;
  file.file_id = 7;
  file.n_segments = 3;
  file.segments = {bytes_of("seg-0"), bytes_of("seg-1"), bytes_of("seg-2")};
  return file;
}

TEST(LookupSegment, ServesRequestedSegment) {
  const por::EncodedFile file = three_segment_file();
  EXPECT_EQ(lookup_segment(file, SegmentRequest{7, 0}.serialize()),
            bytes_of("seg-0"));
  EXPECT_EQ(lookup_segment(file, SegmentRequest{7, 2}.serialize()),
            bytes_of("seg-2"));
}

TEST(LookupSegment, RejectsForeignFileId) {
  const por::EncodedFile file = three_segment_file();
  EXPECT_THROW(lookup_segment(file, SegmentRequest{8, 0}.serialize()),
               StorageError);
}

TEST(LookupSegment, RejectsIndexAtSegmentCount) {
  const por::EncodedFile file = three_segment_file();
  EXPECT_THROW(lookup_segment(file, SegmentRequest{7, 3}.serialize()),
               StorageError);
  EXPECT_THROW(
      lookup_segment(file, SegmentRequest{7, ~std::uint64_t{0}}.serialize()),
      StorageError);
}

TEST(LookupSegment, RejectsTruncatedRequest) {
  const por::EncodedFile file = three_segment_file();
  Bytes wire = SegmentRequest{7, 1}.serialize();
  wire.pop_back();
  EXPECT_THROW(lookup_segment(file, wire), SerializeError);
  EXPECT_THROW(lookup_segment(file, Bytes{}), SerializeError);
}

TEST(AuditTranscript, SerializeRoundTrip) {
  const AuditTranscript t = sample_transcript();
  const AuditTranscript back = AuditTranscript::deserialize(t.serialize());
  EXPECT_EQ(back.file_id, t.file_id);
  EXPECT_EQ(back.nonce, t.nonce);
  EXPECT_EQ(back.position, t.position);
  EXPECT_EQ(back.challenge, t.challenge);
  EXPECT_EQ(back.segments, t.segments);
  ASSERT_EQ(back.rtts.size(), t.rtts.size());
  for (std::size_t i = 0; i < t.rtts.size(); ++i) {
    EXPECT_DOUBLE_EQ(back.rtts[i].count(), t.rtts[i].count());
  }
}

TEST(AuditTranscript, MaxRtt) {
  const AuditTranscript t = sample_transcript();
  EXPECT_DOUBLE_EQ(t.max_rtt().count(), 15.5);
  EXPECT_DOUBLE_EQ(AuditTranscript{}.max_rtt().count(), 0.0);
}

TEST(AuditTranscript, InconsistentRoundsRejectedOnSerialize) {
  AuditTranscript t = sample_transcript();
  t.rtts.pop_back();
  EXPECT_THROW(t.serialize(), SerializeError);
}

TEST(AuditTranscript, DifferentContentDifferentBytes) {
  // The signature covers serialize(); any field change must alter it.
  const Bytes base = sample_transcript().serialize();
  {
    AuditTranscript t = sample_transcript();
    t.position.lat_deg += 0.0001;
    EXPECT_NE(t.serialize(), base);
  }
  {
    AuditTranscript t = sample_transcript();
    t.rtts[1] = Millis{1.0};
    EXPECT_NE(t.serialize(), base);
  }
  {
    AuditTranscript t = sample_transcript();
    t.segments[0][0] ^= 1;
    EXPECT_NE(t.serialize(), base);
  }
  {
    AuditTranscript t = sample_transcript();
    t.nonce[0] ^= 1;
    EXPECT_NE(t.serialize(), base);
  }
}

TEST(SignedTranscript, SerializeRoundTrip) {
  crypto::MerkleSigner signer(bytes_of("seed"), 3);
  SignedTranscript st;
  st.transcript = sample_transcript();
  st.signature = signer.sign(st.transcript.serialize());

  const SignedTranscript back = SignedTranscript::deserialize(st.serialize());
  EXPECT_EQ(back.transcript.challenge, st.transcript.challenge);
  EXPECT_TRUE(crypto::merkle_verify(signer.public_key(),
                                    back.transcript.serialize(),
                                    back.signature));
}

TEST(SignedTranscript, GarbageRejected) {
  EXPECT_THROW(SignedTranscript::deserialize(bytes_of("garbage")), Error);
}

}  // namespace
}  // namespace geoproof::core
