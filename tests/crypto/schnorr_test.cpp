#include "crypto/schnorr.hpp"

#include <gtest/gtest.h>

#include "obs/metrics.hpp"

namespace cicero::crypto {
namespace {

class SchnorrTest : public ::testing::Test {
 protected:
  Drbg drbg_{42};
};

TEST_F(SchnorrTest, SignVerifyRoundTrip) {
  const auto kp = SchnorrKeyPair::generate(drbg_);
  const util::Bytes msg = util::to_bytes("network update #1");
  const auto sig = schnorr_sign(kp.sk, msg);
  EXPECT_TRUE(schnorr_verify(kp.pk, msg, sig));
}

TEST_F(SchnorrTest, RejectsWrongMessage) {
  const auto kp = SchnorrKeyPair::generate(drbg_);
  const auto sig = schnorr_sign(kp.sk, util::to_bytes("a"));
  EXPECT_FALSE(schnorr_verify(kp.pk, util::to_bytes("b"), sig));
}

TEST_F(SchnorrTest, RejectsWrongKey) {
  const auto kp1 = SchnorrKeyPair::generate(drbg_);
  const auto kp2 = SchnorrKeyPair::generate(drbg_);
  const util::Bytes msg = util::to_bytes("m");
  EXPECT_FALSE(schnorr_verify(kp2.pk, msg, schnorr_sign(kp1.sk, msg)));
}

TEST_F(SchnorrTest, RejectsTamperedSignature) {
  const auto kp = SchnorrKeyPair::generate(drbg_);
  const util::Bytes msg = util::to_bytes("m");
  auto sig = schnorr_sign(kp.sk, msg);
  sig.s = sig.s + Scalar::one();
  EXPECT_FALSE(schnorr_verify(kp.pk, msg, sig));
}

TEST_F(SchnorrTest, DeterministicNonce) {
  const auto kp = SchnorrKeyPair::generate(drbg_);
  const util::Bytes msg = util::to_bytes("m");
  EXPECT_EQ(schnorr_sign(kp.sk, msg), schnorr_sign(kp.sk, msg));
}

TEST_F(SchnorrTest, DifferentMessagesDifferentNonces) {
  const auto kp = SchnorrKeyPair::generate(drbg_);
  const auto s1 = schnorr_sign(kp.sk, util::to_bytes("m1"));
  const auto s2 = schnorr_sign(kp.sk, util::to_bytes("m2"));
  EXPECT_FALSE(s1.r == s2.r);  // nonce reuse would leak the key
}

TEST_F(SchnorrTest, SerializationRoundTrip) {
  const auto kp = SchnorrKeyPair::generate(drbg_);
  const util::Bytes msg = util::to_bytes("m");
  const auto sig = schnorr_sign(kp.sk, msg);
  const auto back = SchnorrSignature::from_bytes(sig.to_bytes());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, sig);
  EXPECT_TRUE(schnorr_verify(kp.pk, msg, *back));
}

TEST_F(SchnorrTest, FromBytesRejectsGarbage) {
  EXPECT_FALSE(SchnorrSignature::from_bytes({}).has_value());
  EXPECT_FALSE(SchnorrSignature::from_bytes({1, 2, 3}).has_value());
}

TEST_F(SchnorrTest, RejectsInfinityKey) {
  const auto kp = SchnorrKeyPair::generate(drbg_);
  const util::Bytes msg = util::to_bytes("m");
  const auto sig = schnorr_sign(kp.sk, msg);
  EXPECT_FALSE(schnorr_verify(Point::infinity(), msg, sig));
}

TEST_F(SchnorrTest, EmptyMessageSupported) {
  const auto kp = SchnorrKeyPair::generate(drbg_);
  const util::Bytes msg;
  EXPECT_TRUE(schnorr_verify(kp.pk, msg, schnorr_sign(kp.sk, msg)));
}

TEST_F(SchnorrTest, FieldInversionCounts) {
  // Keys and nonce commitments are stored affine, so keygen and signing
  // pay one inversion each and verification against a generated key none.
  // A Jacobian point reaching a serializer would raise these counts.
  auto& ops = obs::crypto_ops();
  const util::Bytes msg = util::to_bytes("update: install r at s");
  (void)SchnorrKeyPair::generate(drbg_);  // builds the generator tables once

  ops.reset();
  const auto kp = SchnorrKeyPair::generate(drbg_);
  EXPECT_EQ(ops.field_inv.load(), 1u);

  ops.reset();
  const auto sig = schnorr_sign(kp, msg);
  const util::Bytes wire = sig.to_bytes();
  EXPECT_EQ(ops.field_inv.load(), 1u);

  ops.reset();
  EXPECT_TRUE(schnorr_verify(kp.pk, msg, sig));
  EXPECT_TRUE(schnorr_verify(kp.pk, msg, *SchnorrSignature::from_bytes(wire)));
  EXPECT_EQ(ops.field_inv.load(), 0u);
}

TEST(FieldInvCounter, BatchInversionCountsOnce) {
  auto& ops = obs::crypto_ops();
  std::vector<Scalar> xs = {Scalar::from_u64(3), Scalar::from_u64(5), Scalar::from_u64(7)};
  ops.reset();
  Scalar::batch_inverse(xs);
  EXPECT_EQ(ops.field_inv.load(), 1u);
  (void)Scalar::from_u64(3).inverse();
  EXPECT_EQ(ops.field_inv.load(), 2u);
}

}  // namespace
}  // namespace cicero::crypto
