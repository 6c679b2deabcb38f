// Single-signer Schnorr signatures over secp256k1.
//
// This is the paper's "PKI" layer (§3.2): every event source — switches,
// controllers, administrators — holds a key pair and signs the events it
// originates.  Signatures are (R, s) with the standard verification
// equation s*G == R + H(R || PK || m)*PK.  Nonces are derived
// deterministically from the secret key and message (RFC 6979 in spirit,
// via HMAC-SHA256), so signing needs no randomness source.
#pragma once

#include <optional>

#include "crypto/ct.hpp"
#include "crypto/drbg.hpp"
#include "crypto/group.hpp"
#include "util/bytes.hpp"

namespace cicero::crypto {

struct SchnorrSignature {
  Point r;  ///< affine (Z = 1) from schnorr_sign and from_bytes
  Scalar s;

  util::Bytes to_bytes() const;
  static std::optional<SchnorrSignature> from_bytes(const util::Bytes& b);
  bool operator==(const SchnorrSignature& o) const = default;
};

struct SchnorrKeyPair {
  /// Taint-wrapped signing key: wipes on destruction, cannot reach a
  /// branch or table index, and only src/crypto may declassify it.
  ct::Secret<Scalar> sk;
  Point pk;  ///< affine (Z = 1) when built by generate()

  /// Deterministic key generation from a DRBG.
  static SchnorrKeyPair generate(Drbg& drbg);
};

/// Signs `msg` with a full key pair (deterministic nonce).  Preferred:
/// avoids re-deriving the public key for the challenge hash on every call.
/// Nonce commitment and the s = k + e*sk equation run on the constant-time
/// secret path end to end.
SchnorrSignature schnorr_sign(const SchnorrKeyPair& kp, const util::Bytes& msg);

/// Signs `msg` with `sk` alone; derives the public key first.  A plain
/// Scalar argument classifies implicitly.
SchnorrSignature schnorr_sign(const ct::Secret<Scalar>& sk, const util::Bytes& msg);

/// Verifies a signature against `pk`.
bool schnorr_verify(const Point& pk, const util::Bytes& msg, const SchnorrSignature& sig);

}  // namespace cicero::crypto
