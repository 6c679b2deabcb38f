#include "core/messages.hpp"

#include "core/pki.hpp"

#include <gtest/gtest.h>

#include "crypto/drbg.hpp"

namespace cicero::core {
namespace {

Event sample_event() {
  Event e;
  e.id = EventId{7, 42};
  e.kind = EventKind::kFlowRequest;
  e.match = {100, 200};
  e.reserved_bps = 5e6;
  e.member = 0;
  e.forwarded = false;
  e.sig = {1, 2, 3};
  return e;
}

sched::Update sample_update() {
  sched::Update u;
  u.id = 1234;
  u.switch_node = 9;
  u.op = sched::UpdateOp::kInstall;
  u.rule = {{100, 200}, 10, 5e6};
  return u;
}

TEST(CoreMessages, EventRoundTrip) {
  const Event e = sample_event();
  const auto back = Event::decode(e.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->id, e.id);
  EXPECT_EQ(back->kind, e.kind);
  EXPECT_EQ(back->match, e.match);
  EXPECT_DOUBLE_EQ(back->reserved_bps, e.reserved_bps);
  EXPECT_EQ(back->forwarded, e.forwarded);
  EXPECT_EQ(back->sig, e.sig);
}

TEST(CoreMessages, ForwardFlagOutsideSignedBody) {
  // §4.1: the forwarded tag must be mutable without invalidating the
  // origin signature.
  Event e = sample_event();
  const util::Bytes body_before = e.body();
  e.forwarded = true;
  EXPECT_EQ(e.body(), body_before);
}

TEST(CoreMessages, SignedEventVerifies) {
  crypto::Drbg d(1);
  const auto kp = crypto::SchnorrKeyPair::generate(d);
  Event e = sample_event();
  e.sig = crypto::schnorr_sign(kp.sk, e.body()).to_bytes();
  PkiDirectory pki;
  pki.register_origin(e.id.origin, kp.pk);
  EXPECT_TRUE(pki.verify_event(e));
  // Tampering with the match invalidates it.
  Event bad = e;
  bad.match.dst_host = 201;
  EXPECT_FALSE(pki.verify_event(bad));
  // Unknown origin fails.
  Event unknown = e;
  unknown.id.origin = 1000;
  EXPECT_FALSE(pki.verify_event(unknown));
}

TEST(CoreMessages, EventDecodeRejectsGarbage) {
  EXPECT_FALSE(Event::decode({}).has_value());
  EXPECT_FALSE(Event::decode({0x55, 0x01}).has_value());
  util::Bytes truncated = sample_event().encode();
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(Event::decode(truncated).has_value());
}

TEST(CoreMessages, DecodeRejectsOutOfRangeFields) {
  // Byte 13 is the EventKind of an Event and the UpdateOp of an UpdateMsg
  // (tag, then a u32 and a u64 before it).
  util::Bytes event = sample_event().encode();
  event[13] = static_cast<std::uint8_t>(EventKind::kAggMismatch);
  EXPECT_TRUE(Event::decode(event).has_value());
  event[13] = static_cast<std::uint8_t>(EventKind::kAggMismatch) + 1;
  EXPECT_FALSE(Event::decode(event).has_value());

  UpdateMsg m;
  m.update = sample_update();
  util::Bytes update = m.encode();
  update[13] = static_cast<std::uint8_t>(sched::UpdateOp::kRemove) + 1;
  EXPECT_FALSE(UpdateMsg::decode(update).has_value());

  // A present partial must be canonical: signer 0 means "no partial" and
  // is only ever sent as empty bytes.
  crypto::PartialSignature unsigned_partial;
  unsigned_partial.payload = {0xAA};
  util::Writer w;
  w.u8(static_cast<std::uint8_t>(CoreMsgTag::kPartialShare));
  w.u64(1);
  w.u64(2);
  w.bytes(unsigned_partial.to_bytes());
  EXPECT_FALSE(PartialShareMsg::decode(w.data()).has_value());
}

TEST(CoreMessages, UpdateIdBaseUniquePerEvent) {
  const auto a = update_id_base(EventId{1, 1});
  const auto b = update_id_base(EventId{1, 2});
  const auto c = update_id_base(EventId{2, 1});
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
  // 256 update slots per event never collide with the next event.
  EXPECT_LT(a + 255, b);
}

TEST(CoreMessages, CauseOfInvertsUpdateIdBase) {
  for (const std::uint32_t origin : {0u, (1u << 24) - 1}) {
    for (const std::uint64_t seq : {std::uint64_t{0}, std::uint64_t{0xFFFFFFFF}}) {
      const EventId e{origin, seq};
      for (const sched::UpdateId i : {0u, 255u}) {
        EXPECT_EQ(cause_of(update_id_base(e) + i), e) << origin << " " << seq << " " << i;
      }
    }
  }
}

TEST(CoreMessages, UpdateMsgRoundTripWithPartial) {
  UpdateMsg m;
  m.update = sample_update();
  m.cause = EventId{7, 42};
  m.partial.signer = 3;
  m.partial.payload = {0xAA, 0xBB};
  const auto back = UpdateMsg::decode(m.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->update, m.update);
  EXPECT_EQ(back->cause, m.cause);
  EXPECT_EQ(back->partial, m.partial);
}

TEST(CoreMessages, UpdateMsgRoundTripWithoutPartial) {
  UpdateMsg m;
  m.update = sample_update();
  m.cause = EventId{7, 42};
  const auto back = UpdateMsg::decode(m.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->partial.signer, 0u);
  EXPECT_TRUE(back->partial.payload.empty());
}

TEST(CoreMessages, AggUpdateRoundTrip) {
  AggUpdateMsg m;
  m.update = sample_update();
  m.cause = EventId{1, 2};
  m.agg_sig = {5, 6, 7};
  const auto back = AggUpdateMsg::decode(m.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->update, m.update);
  EXPECT_EQ(back->agg_sig, m.agg_sig);
}

TEST(CoreMessages, AckRoundTripAndVerification) {
  crypto::Drbg d(2);
  const auto kp = crypto::SchnorrKeyPair::generate(d);
  AckMsg a;
  a.update_id = 77;
  a.switch_node = 5;
  a.sig = crypto::schnorr_sign(kp.sk, a.body()).to_bytes();
  const auto back = AckMsg::decode(a.encode());
  ASSERT_TRUE(back.has_value());
  PkiDirectory pki;
  pki.register_origin(5, kp.pk);
  EXPECT_TRUE(pki.verify_ack(*back));
  AckMsg forged = *back;
  forged.update_id = 78;
  EXPECT_FALSE(pki.verify_ack(forged));
}

TEST(CoreMessages, AggregatorNotifyRoundTrip) {
  AggregatorNotifyMsg m;
  m.phase = 3;
  m.aggregator = 12;
  m.quorum = 2;
  m.controllers = {10, 11, 12};
  const auto back = AggregatorNotifyMsg::decode(m.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->aggregator, 12u);
  EXPECT_EQ(back->quorum, 2u);
  EXPECT_EQ(back->controllers, (std::vector<sim::NodeId>{10, 11, 12}));
}

TEST(CoreMessages, TagsAreDistinct) {
  EXPECT_EQ(peek_tag(sample_event().encode()),
            static_cast<std::uint8_t>(CoreMsgTag::kEvent));
  UpdateMsg u;
  u.update = sample_update();
  EXPECT_EQ(peek_tag(u.encode()), static_cast<std::uint8_t>(CoreMsgTag::kUpdate));
  EXPECT_FALSE(peek_tag({}).has_value());
}

TEST(CoreMessages, UpdateSigningBytesCoverRule) {
  auto u = sample_update();
  const auto bytes1 = update_signing_bytes(u);
  u.rule.next_hop = 11;
  EXPECT_NE(update_signing_bytes(u), bytes1);
}

// Golden bytes: one fixed instance of every core message and of every
// signed-byte function, pinned as hex.  The property suite only proves the
// codecs agree with themselves; these pin the exact bytes that peers,
// signatures, audit logs and cp_bytes_per_update depend on, so a codec
// rewrite must reproduce them bit for bit.

SegmentManifest golden_manifest() {
  SegmentManifest m;
  m.update = sample_update();
  m.preds = {{100, 1, 11}};
  m.succs = {{101, 2, 12}, {102, 3, 13}};
  m.sink = true;
  return m;
}

TEST(CoreMessagesGolden, WireBytes) {
  Event e = sample_event();
  e.kind = EventKind::kAggMismatch;
  e.member = 3;
  e.forwarded = true;
  EXPECT_EQ(util::to_hex(e.encode()),
            "02070000002a000000000000000464000000c800000000000000d012534103000000010300000001"
            "0203");

  UpdateMsg um;
  um.update = sample_update();
  um.cause = EventId{7, 42};
  EXPECT_EQ(util::to_hex(um.encode()),
            "03d204000000000000090000000064000000c80000000a00000000000000d0125341070000002a00"
            "0000000000000000000000000000");
  um.partial.signer = 3;
  um.partial.payload = {0xAA, 0xBB};
  um.frost_commitment = {0xC0, 0xC1};
  EXPECT_EQ(util::to_hex(um.encode()),
            "03d204000000000000090000000064000000c80000000a00000000000000d0125341070000002a00"
            "0000000000000a0000000300000002000000aabb02000000c0c1");

  AggUpdateMsg am;
  am.update = sample_update();
  am.update.op = sched::UpdateOp::kRemove;
  am.cause = EventId{1, 2};
  am.agg_sig = {5, 6, 7};
  EXPECT_EQ(util::to_hex(am.encode()),
            "05d204000000000000090000000164000000c80000000a00000000000000d0125341010000000200"
            "00000000000003000000050607");

  PartialShareMsg ps;
  ps.update_id = 0x0102030405060708ULL;
  ps.digest = 0x1122334455667788ULL;
  ps.partial.signer = 2;
  ps.partial.payload = {0x10, 0x20, 0x30};
  EXPECT_EQ(util::to_hex(ps.encode()),
            "0c080706050403020188776655443322110b0000000200000003000000102030");

  AckMsg ack;
  ack.update_id = 77;
  ack.switch_node = 5;
  ack.sig = {9, 8};
  EXPECT_EQ(util::to_hex(ack.encode()), "044d0000000000000005000000020000000908");

  FrostSessionMsg fs;
  fs.update_id = 55;
  fs.commitments = {{1, 2}, {3}};
  EXPECT_EQ(util::to_hex(fs.encode()), "083700000000000000020000000200000001020100000003");

  FrostPartialMsg fp;
  fp.update_id = 56;
  fp.signer_index = 4;
  fp.z = {0xEE};
  EXPECT_EQ(util::to_hex(fp.encode()), "0938000000000000000400000001000000ee");

  AggregatorNotifyMsg an;
  an.phase = 3;
  an.aggregator = 12;
  an.quorum = 2;
  an.controllers = {10, 11, 12};
  EXPECT_EQ(util::to_hex(an.encode()),
            "0703000000000000000c00000002000000030000000a0000000b0000000c000000");

  ManifestMsg mm;
  mm.manifest = golden_manifest();
  mm.cause = EventId{7, 42};
  mm.epoch = 9;
  mm.partial.signer = 1;
  mm.partial.payload = {0x55};
  EXPECT_EQ(util::to_hex(mm.encode()),
            "0ad204000000000000090000000064000000c80000000a00000000000000d0125341010000006400"
            "000000000000010000000b000000020000006500000000000000020000000c000000660000000000"
            "0000030000000d00000001070000002a000000000000000900000000000000090000000100000001"
            "00000055");

  SegmentDoneMsg sd;
  sd.for_update = 101;
  sd.done_update = 100;
  sd.switch_node = 1;
  sd.epoch = 9;
  sd.sig = {0xAB};
  EXPECT_EQ(util::to_hex(sd.encode()),
            "0b6500000000000000640000000000000001000000090000000000000001000000ab");
}

TEST(CoreMessagesGolden, SignedBytes) {
  Event e = sample_event();
  e.kind = EventKind::kAddController;
  e.member = 3;
  EXPECT_EQ(util::to_hex(e.body()),
            "0c00000063696365726f2f6576656e74070000002a000000000000000264000000c8000000000000"
            "00d012534103000000");

  AckMsg ack;
  ack.update_id = 77;
  ack.switch_node = 5;
  EXPECT_EQ(util::to_hex(ack.body()), "0a00000063696365726f2f61636b4d0000000000000005000000");

  SegmentDoneMsg sd;
  sd.for_update = 101;
  sd.done_update = 100;
  sd.switch_node = 1;
  sd.epoch = 9;
  EXPECT_EQ(util::to_hex(sd.body()),
            "0e00000063696365726f2f736567646f6e6565000000000000006400000000000000010000000900"
            "000000000000");

  EXPECT_EQ(util::to_hex(update_signing_bytes(sample_update())),
            "0d00000063696365726f2f757064617465d204000000000000090000000064000000c80000000a00"
            "000000000000d0125341");
  EXPECT_EQ(util::to_hex(manifest_signing_bytes(golden_manifest(), 9)),
            "0f00000063696365726f2f6d616e6966657374d204000000000000090000000064000000c8000000"
            "0a00000000000000d0125341010000006400000000000000010000000b0000000200000065000000"
            "00000000020000000c0000006600000000000000030000000d000000010900000000000000");
}

}  // namespace
}  // namespace cicero::core
