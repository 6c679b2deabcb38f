#include "crypto/fp.hpp"

#include <stdexcept>
#include <vector>

#include "crypto/ct.hpp"
#include "obs/metrics.hpp"

namespace cicero::crypto {

using u128 = unsigned __int128;

namespace {
// Computes m^{-1} mod 2^64 by Newton iteration (m odd), then negates.
std::uint64_t neg_inv64(std::uint64_t m) {
  std::uint64_t inv = m;  // correct mod 2^3
  for (int i = 0; i < 5; ++i) inv *= 2 - m * inv;  // doubles precision each step
  return ~inv + 1;  // -inv mod 2^64
}

/// Returns the low word of a + b * c + carry and leaves the high word in
/// `carry`.  The sum is at most 2^128 - 1, so it never overflows.
inline std::uint64_t mac(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                         std::uint64_t& carry) {
  const u128 t = static_cast<u128>(b) * c + a + carry;
  carry = static_cast<std::uint64_t>(t >> 64);
  return static_cast<std::uint64_t>(t);
}

/// Returns the low word of a + b + carry (carry in {0, 1}) and leaves the
/// carry out in `carry`.
inline std::uint64_t adc(std::uint64_t a, std::uint64_t b, std::uint64_t& carry) {
  const u128 t = static_cast<u128>(a) + b + carry;
  carry = static_cast<std::uint64_t>(t >> 64);
  return static_cast<std::uint64_t>(t);
}
}  // namespace

MontgomeryCtx::MontgomeryCtx(const U256& modulus) : m_(modulus) {
  if (!modulus.is_odd() || modulus <= U256::one()) {
    throw std::invalid_argument("MontgomeryCtx: modulus must be odd and > 1");
  }
  n0inv_ = neg_inv64(m_.w[0]);

  // one_mont_ = 2^256 mod m: start from the reduction of 2^255 doubled once,
  // computed by repeated modular doubling of 1.
  U256 x = U256::one();
  // Reduce 1 (already < m unless m == 1, excluded above).
  for (int i = 0; i < 256; ++i) {
    const std::uint64_t carry = x.add_assign(x);
    if (carry != 0 || x >= m_) x.sub_assign(m_);
  }
  one_mont_ = x;

  // r2_ = 2^512 mod m: double one_mont_ another 256 times.
  for (int i = 0; i < 256; ++i) {
    const std::uint64_t carry = x.add_assign(x);
    if (carry != 0 || x >= m_) x.sub_assign(m_);
  }
  r2_ = x;
}

U256 MontgomeryCtx::final_sub(std::uint64_t hi, const U256& r) const {
  // With hi * 2^256 + r < 2m at most one subtraction of m is needed, and
  // when hi == 1 the wrapped 256-bit difference is exact.  Branch-free:
  // compute r - m unconditionally and select on (hi | r >= m).
  U256 s = r;
  const std::uint64_t borrow = s.sub_assign(m_);
  return U256::ct_select(ct::mask_nonzero(hi | (borrow ^ 1)), s, r);
}

U256 MontgomeryCtx::redc(std::uint64_t (&t)[8]) const {
  // Word-by-word Montgomery reduction: each round adds u * m so the low
  // word cancels.  The carry out of the round's top word is deferred to
  // the next round's top word instead of rippled, so no loop bound or
  // branch depends on the data.  t < m * R keeps the result below 2m.
  std::uint64_t hi = 0;
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t u = t[i] * n0inv_;
    std::uint64_t c = 0;
    for (int j = 0; j < 4; ++j) t[i + j] = mac(t[i + j], u, m_.w[j], c);
    t[i + 4] = adc(t[i + 4], c, hi);
  }
  return final_sub(hi, U256{t[4], t[5], t[6], t[7]});
}

U256 MontgomeryCtx::to_mont(const U256& a) const { return mul(a, r2_); }

U256 MontgomeryCtx::from_mont(const U256& a) const {
  std::uint64_t t[8] = {a.w[0], a.w[1], a.w[2], a.w[3], 0, 0, 0, 0};
  return redc(t);
}

U256 MontgomeryCtx::add(const U256& a, const U256& b) const {
  // Branch-free correction: with a, b < m the sum is < 2m, so subtract m
  // exactly when the add carried out or the wrapped sum is still >= m.
  U256 r = a;
  const std::uint64_t carry = r.add_assign(b);
  U256 t = r;
  const std::uint64_t borrow = t.sub_assign(m_);
  U256::cmov(r, t, ct::mask_nonzero(carry | (borrow ^ 1)));
  return r;
}

U256 MontgomeryCtx::sub(const U256& a, const U256& b) const {
  U256 r = a;
  const std::uint64_t borrow = r.sub_assign(b);
  U256 t = r;
  t.add_assign(m_);
  U256::cmov(r, t, ct::mask_bit(borrow));
  return r;
}

U256 MontgomeryCtx::neg(const U256& a) const {
  // m - a, with the a == 0 case folded back to 0 by cmov instead of an
  // early return (negation of a secret residue must not branch on it).
  U256 r = m_;
  r.sub_assign(a);
  U256::cmov(r, U256::zero(), a.zero_mask());
  return r;
}

U256 MontgomeryCtx::mul(const U256& a, const U256& b) const {
  // CIOS: interleave one row of a * b[i] with one reduction round, so the
  // accumulator never exceeds five words.  Between rounds
  // t = (a * b[0..i] + q[0..i] * m) / 2^(64(i+1)) < R + m, so t[4] <= 1.
  std::uint64_t t[5] = {0, 0, 0, 0, 0};
  for (int i = 0; i < 4; ++i) {
    std::uint64_t c = 0;
    for (int j = 0; j < 4; ++j) t[j] = mac(t[j], a.w[j], b.w[i], c);
    std::uint64_t t5 = 0;
    t[4] = adc(t[4], c, t5);
    const std::uint64_t u = t[0] * n0inv_;
    c = 0;
    mac(t[0], u, m_.w[0], c);  // low word cancels by choice of u
    for (int j = 1; j < 4; ++j) t[j - 1] = mac(t[j], u, m_.w[j], c);
    std::uint64_t k = 0;
    t[3] = adc(t[4], c, k);
    t[4] = t5 + k;
  }
  return final_sub(t[4], U256{t[0], t[1], t[2], t[3]});
}

U256 MontgomeryCtx::sqr(const U256& a) const {
  // Cross products a_i * a_j (i < j) once each, doubled by a one-bit
  // shift, plus the diagonal squares: 10 word multiplies instead of 16,
  // then the same REDC as from_mont.  a < m gives a^2 < m * R.
  std::uint64_t t[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    std::uint64_t c = 0;
    for (int j = i + 1; j < 4; ++j) t[i + j] = mac(t[i + j], a.w[i], a.w[j], c);
    t[i + 4] = c;
  }
  std::uint64_t c = 0;
  for (int k = 1; k < 8; ++k) t[k] = adc(t[k], t[k], c);
  for (int i = 0; i < 4; ++i) {
    std::uint64_t hi = 0;
    const std::uint64_t lo = mac(0, a.w[i], a.w[i], hi);
    t[2 * i] = adc(t[2 * i], lo, c);
    t[2 * i + 1] = adc(t[2 * i + 1], hi, c);
  }
  return redc(t);
}

U256 MontgomeryCtx::pow(const U256& a, const U256& e) const {
  // Fixed 4-bit window, most significant digit first: 4 squarings per
  // digit plus one table multiply per nonzero digit, ~330 multiplies for
  // a 256-bit exponent.  The digit skip and the table index follow `e`,
  // which is public; `a` only meets mul/sqr.
  const unsigned digits = (e.bit_length() + 3) / 4;
  if (digits == 0) return one_mont_;
  U256 table[16];
  table[0] = one_mont_;
  table[1] = a;
  for (int i = 2; i < 16; ++i) table[i] = mul(table[i - 1], a);
  const auto digit = [&e](unsigned w) {
    return static_cast<unsigned>(e.w[w / 16] >> ((w % 16) * 4)) & 15u;
  };
  U256 result = table[digit(digits - 1)];
  for (unsigned w = digits - 1; w-- > 0;) {
    for (int s = 0; s < 4; ++s) result = sqr(result);
    if (const unsigned d = digit(w); d != 0) result = mul(result, table[d]);
  }
  return result;
}

U256 MontgomeryCtx::inv(const U256& a) const {
  if (a.is_zero()) throw std::domain_error("MontgomeryCtx::inv: zero has no inverse");
  ++obs::crypto_ops().field_inv;
  U256 e = m_;
  e.sub_assign(U256(2));  // m - 2
  return pow(a, e);
}

void MontgomeryCtx::batch_inv(U256* xs, std::size_t n) const {
  if (n == 0) return;
  // Prefix products: prefix[i] = xs[0] * ... * xs[i].
  std::vector<U256> prefix(n);
  prefix[0] = xs[0];
  for (std::size_t i = 1; i < n; ++i) prefix[i] = mul(prefix[i - 1], xs[i]);
  if (prefix[n - 1].is_zero()) {
    // Some element is zero; report without clobbering the inputs.
    throw std::domain_error("MontgomeryCtx::batch_inv: zero element");
  }
  // acc = (xs[0] * ... * xs[n-1])^-1, peeled back one element at a time:
  // xs[i]^-1 = acc * prefix[i-1], then acc *= xs[i] (pre-update value).
  U256 acc = inv(prefix[n - 1]);
  for (std::size_t i = n; i-- > 1;) {
    const U256 x = xs[i];
    xs[i] = mul(acc, prefix[i - 1]);
    acc = mul(acc, x);
  }
  xs[0] = acc;
}

U256 MontgomeryCtx::reduce(const U256& a) const {
  // For 256-bit inputs at most one conditional subtraction loop is bounded;
  // handle the general case by repeated subtraction of shifted modulus.
  if (a < m_) return a;
  U256 r = a;
  const unsigned shift_max = 256 - m_.bit_length();
  for (int s = static_cast<int>(shift_max); s >= 0; --s) {
    const U256 shifted = m_.shl(static_cast<unsigned>(s));
    // m.shl(s) may have dropped high bits only if s too large; bounded by
    // construction since m.bit_length() + s <= 256.
    while (r >= shifted) r.sub_assign(shifted);
  }
  return r;
}

U256 MontgomeryCtx::reduce_wide(const U512& a) const {
  // a = hi * 2^256 + lo.  mul(x, R^2) = x * R mod m for any 256-bit x
  // (x * R^2 < m * R because R^2 mod m < m), so
  //   mul(hi, R^2)            = hi * 2^256 mod m,
  //   from_mont(mul(lo, R^2)) = lo mod m,
  // and one modular add combines them.  Every step is constant-time, which
  // the secret wide nonce and key derivations rely on.
  const U256 lo{a.w[0], a.w[1], a.w[2], a.w[3]};
  const U256 hi{a.w[4], a.w[5], a.w[6], a.w[7]};
  return add(mul(hi, r2_), from_mont(mul(lo, r2_)));
}

}  // namespace cicero::crypto
