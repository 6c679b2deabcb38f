// Montgomery-form modular arithmetic over a runtime odd modulus.
//
// `MontgomeryCtx` is a reusable prime-field context: it precomputes the
// Montgomery constants (-m^{-1} mod 2^64 and R^2 mod m, R = 2^256) for an
// arbitrary odd 256-bit modulus and exposes the standard residue
// operations.  Both secp256k1 contexts (base field and scalar order) are
// instances of this class.  Values passed to/returned from the arithmetic
// methods are in Montgomery form unless the method name says otherwise.
#pragma once

#include "crypto/u256.hpp"

namespace cicero::crypto {

class MontgomeryCtx {
 public:
  /// Builds a context for the given odd modulus (> 1).  Throws on even or
  /// trivial moduli.
  explicit MontgomeryCtx(const U256& modulus);

  const U256& modulus() const { return m_; }

  /// Conversion into/out of Montgomery form.
  U256 to_mont(const U256& a) const;    ///< a must be < modulus.
  U256 from_mont(const U256& a) const;  ///< REDC(a).

  /// Montgomery representation of 1 (i.e., R mod m).
  const U256& one_mont() const { return one_mont_; }

  /// R^2 mod m.  mul(x, r2()) == x * R mod m for any 256-bit x, and
  /// mul(a, b) then mul(_, r2()) multiplies two plain residues.
  const U256& r2() const { return r2_; }

  /// Residue arithmetic (inputs/outputs in Montgomery form, < modulus).
  U256 add(const U256& a, const U256& b) const;
  U256 sub(const U256& a, const U256& b) const;
  U256 neg(const U256& a) const;
  /// a * b * R^{-1} mod m.  Exact whenever a * b < m * R, so one operand
  /// may be any 256-bit value if the other is < m (reduce_wide relies on
  /// this).  Constant-time.
  U256 mul(const U256& a, const U256& b) const;
  /// mul(a, a) with the symmetric cross products computed once.
  /// Constant-time.
  U256 sqr(const U256& a) const;

  /// a^e with a fixed 4-bit window; `a` in Montgomery form, `e` plain.
  /// Branches and table indices follow the bits of `e`, so the exponent
  /// must be PUBLIC (the in-repo callers use e = m - 2).
  U256 pow(const U256& a, const U256& e) const;

  /// Multiplicative inverse via Fermat (modulus must be prime); input and
  /// output in Montgomery form.  Throws on zero.  Each call counts one
  /// obs::crypto_ops().field_inv.
  U256 inv(const U256& a) const;

  /// Montgomery's batch-inversion trick: inverts all `n` elements in place
  /// using a single field inversion plus 3(n-1) multiplications.  Inputs
  /// and outputs in Montgomery form.  Throws std::domain_error if any
  /// element is zero (the array is left unmodified in that case).
  void batch_inv(U256* xs, std::size_t n) const;

  /// Reduces an arbitrary (non-Montgomery) 256-bit value mod m.
  U256 reduce(const U256& a) const;

  /// Reduces a 512-bit value mod m (non-Montgomery; hash-to-field and the
  /// secret wide nonce derivation).  Three multiplies, constant-time.
  U256 reduce_wide(const U512& a) const;

 private:
  /// Montgomery reduction of an 8-word value t < m * R, in place.
  U256 redc(std::uint64_t (&t)[8]) const;
  /// Maps hi * 2^256 + r (known < 2m) into [0, m) with one cmov.
  U256 final_sub(std::uint64_t hi, const U256& r) const;

  U256 m_;
  std::uint64_t n0inv_;  // -m^{-1} mod 2^64
  U256 r2_;              // R^2 mod m
  U256 one_mont_;        // R mod m
};

}  // namespace cicero::crypto
