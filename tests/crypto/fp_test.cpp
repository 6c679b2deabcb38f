#include "crypto/fp.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "crypto/drbg.hpp"

namespace cicero::crypto {
namespace {

// Small prime for exhaustive-ish checks plus the secp256k1 primes.
const U256 kSmallPrime(1009);
const U256 kSecpP =
    U256::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
const U256 kSecpN =
    U256::from_hex("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141");

class FpParam : public ::testing::TestWithParam<U256> {};

INSTANTIATE_TEST_SUITE_P(Moduli, FpParam,
                         ::testing::Values(kSmallPrime, kSecpP, kSecpN));

TEST_P(FpParam, MontRoundTrip) {
  MontgomeryCtx f(GetParam());
  Drbg d(1);
  for (int i = 0; i < 20; ++i) {
    const U256 a = f.reduce(U256(d.next_scalar().raw()));
    EXPECT_EQ(f.from_mont(f.to_mont(a)), a);
  }
}

TEST_P(FpParam, AdditionIsModular) {
  MontgomeryCtx f(GetParam());
  const U256 one = f.to_mont(U256::one());
  // (m-1) + 1 == 0
  U256 m_minus_1 = GetParam();
  m_minus_1.sub_assign(U256::one());
  const U256 big = f.to_mont(m_minus_1);
  EXPECT_TRUE(f.from_mont(f.add(big, one)).is_zero());
}

TEST_P(FpParam, SubWrapAround) {
  MontgomeryCtx f(GetParam());
  const U256 zero;
  const U256 one = f.to_mont(U256::one());
  U256 m_minus_1 = GetParam();
  m_minus_1.sub_assign(U256::one());
  EXPECT_EQ(f.from_mont(f.sub(zero, one)), m_minus_1);
}

TEST_P(FpParam, MulMatchesRepeatedAdd) {
  MontgomeryCtx f(GetParam());
  const U256 a = f.to_mont(f.reduce(U256(123456789)));
  const U256 five = f.to_mont(U256(5));
  U256 sum;  // zero
  for (int i = 0; i < 5; ++i) sum = f.add(sum, a);
  EXPECT_EQ(f.mul(a, five), sum);
}

TEST_P(FpParam, InverseProperty) {
  MontgomeryCtx f(GetParam());
  Drbg d(2);
  const U256 one_m = f.one_mont();
  for (int i = 0; i < 10; ++i) {
    U256 a = f.reduce(U256(d.next_scalar().raw()));
    if (a.is_zero()) a = U256::one();
    const U256 am = f.to_mont(a);
    EXPECT_EQ(f.mul(am, f.inv(am)), one_m);
  }
}

TEST_P(FpParam, PowFermat) {
  // a^(p-1) == 1 for prime modulus and a != 0.
  MontgomeryCtx f(GetParam());
  U256 e = GetParam();
  e.sub_assign(U256::one());
  const U256 a = f.to_mont(f.reduce(U256(987654321)));
  EXPECT_EQ(f.pow(a, e), f.one_mont());
}

TEST_P(FpParam, NegIsAdditiveInverse) {
  MontgomeryCtx f(GetParam());
  const U256 a = f.to_mont(f.reduce(U256(31337)));
  EXPECT_TRUE(f.from_mont(f.add(a, f.neg(a))).is_zero());
  EXPECT_TRUE(f.neg(U256::zero()).is_zero());
}

TEST_P(FpParam, ReduceWideMatchesMul) {
  // reduce_wide(a*b) == from_mont(mul(to_mont(a), to_mont(b)))
  MontgomeryCtx f(GetParam());
  Drbg d(3);
  for (int i = 0; i < 10; ++i) {
    const U256 a = f.reduce(U256(d.next_scalar().raw()));
    const U256 b = f.reduce(U256(d.next_scalar().raw()));
    const U256 expect = f.from_mont(f.mul(f.to_mont(a), f.to_mont(b)));
    EXPECT_EQ(f.reduce_wide(mul_wide(a, b)), expect);
  }
}

// --- differential tests against references that share no code with the
// fused kernels ---------------------------------------------------------
//
// ref_reduce is bit-serial shift-and-subtract wide reduction; ref_modmul
// is schoolbook mul_wide followed by it; ref_pow is bit-serial
// square-and-multiply over ref_modmul.  All work on plain
// (non-Montgomery) residues and none calls MontgomeryCtx.

U256 ref_reduce(const U512& a, const U256& m) {
  U256 r;
  for (int i = 511; i >= 0; --i) {
    const std::uint64_t carry = r.add_assign(r);
    if (carry != 0 || r >= m) r.sub_assign(m);
    const std::uint64_t c2 = r.add_assign(U256((a.w[i / 64] >> (i % 64)) & 1));
    if (c2 != 0 || r >= m) r.sub_assign(m);
  }
  return r;
}

U512 widen(const U256& lo, const U256& hi = U256()) {
  U512 w;
  for (int i = 0; i < 4; ++i) {
    w.w[i] = lo.w[i];
    w.w[i + 4] = hi.w[i];
  }
  return w;
}

U256 ref_modmul(const U256& a, const U256& b, const U256& m) {
  return ref_reduce(mul_wide(a, b), m);
}

U256 ref_pow(const U256& a, const U256& e, const U256& m) {
  U256 result = ref_reduce(widen(U256::one()), m);
  U256 base = a;
  for (unsigned i = 0; i < e.bit_length(); ++i) {
    if (e.bit(i)) result = ref_modmul(result, base, m);
    base = ref_modmul(base, base, m);
  }
  return result;
}

const U256 kSaturated(~0ull, ~0ull, ~0ull, ~0ull);
// 2^255 - 19: top bit clear, so CIOS intermediates use the overflow word.
const U256 k25519 =
    U256::from_hex("7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed");

class FpKernelParam : public ::testing::TestWithParam<U256> {
 protected:
  const U256 m_ = GetParam();
  MontgomeryCtx f_{m_};
  const U256 r_ = ref_reduce(widen(U256(), U256::one()), m_);  // R mod m

  /// Reduced operands: edge values first (0, 1, m-1, m-2, saturated top
  /// limbs), then seeded random residues.
  std::vector<U256> operands(std::uint64_t seed, int random_count) const {
    U256 m1 = m_, m2 = m_;
    m1.sub_assign(U256(1));
    m2.sub_assign(U256(2));
    std::vector<U256> v = {U256(),
                           U256::one(),
                           m1,
                           m2,
                           ref_reduce(widen(kSaturated), m_),
                           ref_reduce(widen(U256(0, 0, ~0ull, ~0ull)), m_),
                           ref_reduce(widen(U256(~0ull, 0, 0, ~0ull)), m_)};
    Drbg d(seed);
    for (int i = 0; i < random_count; ++i) {
      const util::Bytes b = d.generate(64);
      v.push_back(ref_reduce(widen(U256::from_bytes_be(b.data(), 32),
                                   U256::from_bytes_be(b.data() + 32, 32)),
                             m_));
    }
    return v;
  }

  /// x is mul's output for plain operands a, b iff x < m and x * R == a * b.
  void expect_mont_product(const U256& x, const U256& a, const U256& b) const {
    EXPECT_LT(x, m_);
    EXPECT_EQ(ref_modmul(x, r_, m_), ref_modmul(a, b, m_))
        << "a=" << a.to_hex() << " b=" << b.to_hex();
  }
};

INSTANTIATE_TEST_SUITE_P(Moduli, FpKernelParam,
                         ::testing::Values(kSmallPrime, kSecpP, kSecpN, k25519));

TEST_P(FpKernelParam, MulMatchesSchoolbookReference) {
  const auto ops = operands(10, 24);
  for (const U256& a : ops) {
    for (const U256& b : ops) expect_mont_product(f_.mul(a, b), a, b);
  }
}

TEST_P(FpKernelParam, MulAcceptsAnyWordTimesResidue) {
  // reduce_wide's contract: one operand any 256-bit value, the other < m.
  Drbg d(11);
  std::vector<U256> wide = {U256(), U256::one(), kSaturated, U256(0, 0, 0, ~0ull), m_};
  for (int i = 0; i < 16; ++i) {
    const util::Bytes b = d.generate(32);
    wide.push_back(U256::from_bytes_be(b.data(), 32));
  }
  for (const U256& x : wide) {
    for (const U256& b : operands(12, 4)) {
      expect_mont_product(f_.mul(x, b), ref_reduce(widen(x), m_), b);
      expect_mont_product(f_.mul(b, x), ref_reduce(widen(x), m_), b);
    }
  }
}

TEST_P(FpKernelParam, SqrMatchesSchoolbookReference) {
  for (const U256& a : operands(13, 64)) {
    expect_mont_product(f_.sqr(a), a, a);
    EXPECT_EQ(f_.sqr(a), f_.mul(a, a));
  }
}

TEST_P(FpKernelParam, ConversionsMatchReference) {
  for (const U256& a : operands(14, 32)) {
    EXPECT_EQ(f_.to_mont(a), ref_modmul(a, r_, m_));
    expect_mont_product(f_.from_mont(a), a, U256::one());
  }
  EXPECT_EQ(f_.r2(), ref_modmul(r_, r_, m_));
  EXPECT_EQ(f_.one_mont(), r_);
}

TEST_P(FpKernelParam, PowMatchesBitSerialReference) {
  U256 m1 = m_, m2 = m_;
  m1.sub_assign(U256(1));
  m2.sub_assign(U256(2));
  Drbg d(15);
  // m - 2 is the exponent inv() uses.
  std::vector<U256> exps = {U256(), U256::one(), U256(2), U256(15), U256(16),
                            U256(0x10001), m1, m2, kSaturated};
  for (int i = 0; i < 4; ++i) {
    const util::Bytes b = d.generate(32);
    exps.push_back(U256::from_bytes_be(b.data(), 32));
  }
  for (const U256& a : operands(16, 3)) {
    for (const U256& e : exps) {
      EXPECT_EQ(f_.from_mont(f_.pow(f_.to_mont(a), e)), ref_pow(a, e, m_))
          << "a=" << a.to_hex() << " e=" << e.to_hex();
    }
  }
}

TEST_P(FpKernelParam, ReduceWideMatchesBitSerialReference) {
  U256 m1 = m_;
  m1.sub_assign(U256(1));
  std::vector<U512> inputs = {widen(U256()),           widen(kSaturated, kSaturated),
                              widen(m_),               widen(U256(), m_),
                              widen(m1, m1),           widen(kSaturated),
                              widen(U256(), kSaturated), mul_wide(m1, m1)};
  Drbg d(18);
  for (int i = 0; i < 64; ++i) {
    const util::Bytes b = d.generate(64);
    inputs.push_back(widen(U256::from_bytes_be(b.data(), 32),
                           U256::from_bytes_be(b.data() + 32, 32)));
  }
  for (const U512& a : inputs) EXPECT_EQ(f_.reduce_wide(a), ref_reduce(a, m_));
}

TEST(Fp, SmallPrimeExhaustiveMul) {
  // Against naive arithmetic over a tiny modulus.
  MontgomeryCtx f(U256(97));
  for (std::uint64_t a = 0; a < 97; a += 7) {
    for (std::uint64_t b = 0; b < 97; b += 5) {
      const U256 got = f.from_mont(f.mul(f.to_mont(U256(a)), f.to_mont(U256(b))));
      EXPECT_EQ(got, U256((a * b) % 97));
    }
  }
}

TEST(Fp, RejectsEvenModulus) {
  EXPECT_THROW(MontgomeryCtx(U256(10)), std::invalid_argument);
  EXPECT_THROW(MontgomeryCtx(U256(1)), std::invalid_argument);
}

TEST(Fp, InvZeroThrows) {
  MontgomeryCtx f(kSmallPrime);
  EXPECT_THROW(f.inv(U256::zero()), std::domain_error);
}

TEST(Fp, ReduceLargeValue) {
  MontgomeryCtx f(kSecpN);
  U256 over = kSecpN;
  over.add_assign(U256(5));
  EXPECT_EQ(f.reduce(over), U256(5));
}

}  // namespace
}  // namespace cicero::crypto
