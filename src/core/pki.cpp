#include "core/pki.hpp"

namespace cicero::core {

bool SignatureCheck::operator()() const {
  if (!pk) return false;
  const auto s = crypto::SchnorrSignature::from_bytes(sig);
  return s && crypto::schnorr_verify(*pk, body, *s);
}

}  // namespace cicero::core
