// Known-answer vectors for the secp256k1 / Schnorr / SimBLS stack.
//
// Every hex constant below was produced by the bit-serial field kernels
// (square-and-multiply inversion, shift-and-subtract wide reduction,
// multiply-then-REDC) that preceded the fused CIOS kernels.  Matching them
// proves a kernel rewrite is output-identical, not merely self-consistent.
// The mul_gen vectors for 1, 2 and n-1 are also the published secp256k1
// values of G, 2G and -G.
#include <gtest/gtest.h>

#include "crypto/dkg.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/simbls.hpp"

namespace cicero::crypto {
namespace {

const util::Bytes& kat_msg() {
  static const util::Bytes m = util::to_bytes("cicero/kat: install r17 at s4");
  return m;
}

SchnorrKeyPair kat_key() {
  Drbg d(2024);
  return SchnorrKeyPair::generate(d);
}

TEST(Kat, SchnorrPublicKey) {
  EXPECT_EQ(util::to_hex(kat_key().pk.to_bytes()),
            "04b81006ba8e2162224fd5b3b695c653e435898ce12c21b8a141ef019ea9ebfb0a41ed08b6b933bf9e"
            "7616835ac097d6d5e5cd69bd04acb50067a47485f24b818d");
}

TEST(Kat, SchnorrSignature) {
  const SchnorrKeyPair kp = kat_key();
  EXPECT_EQ(util::to_hex(schnorr_sign(kp, kat_msg()).to_bytes()),
            "41000000043acb4eb1f0a981cd1bda8fee2326b5af3f10a50903f2c146ddf98a251874b9c9f2041d38"
            "565aca385d3379d285a59326793d9806411f87e785e24418272fbe9720000000c4b9f0c5993bda7aa3"
            "f904847faecebd4d5815b8478f417767724bf61db54b97");
  EXPECT_EQ(util::to_hex(schnorr_sign(kp, util::Bytes{}).to_bytes()),
            "41000000048bfad245c09b916291d6db3a87fb0438f430e41bf647e3d6de08c1f4b94fa78ad9830c8f"
            "46948db3838dd8c9be9a02463f1adba20340322fabd87a968c570af320000000bd708cca15758082a4"
            "488d6d753b546dbfd512d9571ddac549502070167c89a6");
  // The secret-key-only overload derives the same public key.
  EXPECT_EQ(schnorr_sign(kp.sk, kat_msg()), schnorr_sign(kp, kat_msg()));
}

TEST(Kat, HashToScalar) {
  EXPECT_EQ(Scalar::hash_to_scalar(util::to_bytes("abc")).to_hex(),
            "1d19e52678cd910945b4a87d925c3556c7b8587aea1d20cda095f6ff8c6e5196");
  EXPECT_EQ(Scalar::hash_to_scalar(util::Bytes{}).to_hex(),
            "722784d315472eb33a2bbbfd41b037949511b25f9b52f0707d6421ab8a12c111");
}

TEST(Kat, FromWideBytes) {
  std::uint8_t wide[64];
  for (int i = 0; i < 64; ++i) wide[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(Scalar::from_wide_bytes(wide).to_hex(),
            "76730d0e2c1f94d0a845c9e5f7ee405eefef04abf8e3ce754279c7d6b07c7885");
  for (auto& b : wide) b = 0xff;  // 2^512 - 1: both halves saturated
  EXPECT_EQ(Scalar::from_wide_bytes(wide).to_hex(),
            "9d671cd581c69bc5e697f5e45bcd07c6741496c20e7cf878896cf21467d7d13f");
}

TEST(Kat, MulGenEdgeScalars) {
  const std::string g =
      "0479be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798483ada7726a3c4655da4"
      "fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8";
  const std::string g2 =
      "04c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee51ae168fea63dc339a3c5"
      "8419466ceaeef7f632653266d0e1236431a950cfe52a";
  const std::string neg_g =
      "0479be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798b7c52588d95c3b9aa25b"
      "0403f1eef75702e84bb7597aabe663b82f6f04ef2777";
  const Scalar n_minus_1 = -Scalar::one();
  EXPECT_EQ(Point::mul_gen(Scalar::one()).to_hex(), g);
  EXPECT_EQ(Point::mul_gen(Scalar::from_u64(2)).to_hex(), g2);
  EXPECT_EQ(Point::mul_gen(n_minus_1).to_hex(), neg_g);
  EXPECT_EQ(Point::mul_gen(ct::Secret<Scalar>(Scalar::one())).to_hex(), g);
  EXPECT_EQ(Point::mul_gen(ct::Secret<Scalar>(Scalar::from_u64(2))).to_hex(), g2);
  EXPECT_EQ(Point::mul_gen(ct::Secret<Scalar>(n_minus_1)).to_hex(), neg_g);
}

TEST(Kat, SimBlsPartialsAndAggregate) {
  Drbg d(77);
  const auto res = run_dkg({1, 2, 3, 4}, 2, d);
  EXPECT_EQ(res[0].group_public_key.to_hex(),
            "044f32b3d643dbc7f98ad01bb76fa00e6eded7fabdb32681c67d8102765b4b74224dbb169f5e77045e"
            "cd2b280cb4239a4005562e886b04747f55c62c9b4aa455a0");
  const auto& scheme = SimBlsScheme::instance();
  const PartialSignature p1 = scheme.partial_sign(res[0].share, kat_msg());
  const PartialSignature p3 = scheme.partial_sign(res[2].share, kat_msg());
  EXPECT_EQ(util::to_hex(p1.to_bytes()),
            "010000004100000004fc6f6ef97ab57f425d32cb71e34952788590c489605514ab37291e9ee59df62f"
            "5bede215894fbd8cae89a4fa2dde38b33c21b87f0cd2bdaa18f4b3a1f90ef39c");
  EXPECT_EQ(util::to_hex(p3.to_bytes()),
            "030000004100000004937421ca3d4dbe3fc44386bc7c63fd9159a38433695ac031572d5538628d6626"
            "8a7faf0a4e178b407509d2387e6c09067421f2772dcaf63cc0ed8066000efd05");
  const auto agg = scheme.aggregate(kat_msg(), {p1, p3}, 2);
  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(util::to_hex(*agg),
            "044ef82cca34755f3b48234f3f2d723b1b840e7a3483fd50e01e7d1e1ff5ea6ef9ce034577058114e4"
            "4e61417d642bd762ebf66f757a2176b29f62de01028e11eb");
  EXPECT_TRUE(scheme.verify(res[0].group_public_key, kat_msg(), *agg));
}

}  // namespace
}  // namespace cicero::crypto
