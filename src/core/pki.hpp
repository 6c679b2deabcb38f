// PKI directory: public keys of every event source (paper §3.2: "each
// event source is assigned a public/private key pair").
//
// Switches are keyed by topology node index; controllers by
// kControllerOriginBase + controller id (controller ids are never reused
// across membership changes, §4.2, so directory entries are append-only).
#pragma once

#include <map>
#include <optional>

#include "core/messages.hpp"
#include "crypto/group.hpp"

namespace cicero::core {

/// One signature check, bound to copies of its inputs: the signer's key
/// as registered when the check was made, the signed body and the
/// signature.  It reads no directory, so a SignPool worker may run it.
struct SignatureCheck {
  std::optional<crypto::Point> pk;  ///< none: unknown signer, rejected
  util::Bytes body;
  util::Bytes sig;
  bool operator()() const;
};

class PkiDirectory {
 public:
  void register_origin(std::uint32_t origin, const crypto::Point& pk) { pks_[origin] = pk; }

  std::optional<crypto::Point> lookup(std::uint32_t origin) const {
    const auto it = pks_.find(origin);
    if (it == pks_.end()) return std::nullopt;
    return it->second;
  }

  /// Checks an event signature against its origin's registered key.
  SignatureCheck event_check(const Event& e) const {
    return {lookup(e.id.origin), e.body(), e.sig};
  }
  /// Checks a switch acknowledgement.
  SignatureCheck ack_check(const AckMsg& a) const {
    return {lookup(a.switch_node), a.body(), a.sig};
  }
  /// Checks a decentralized in-band completion signal against the sending
  /// switch's registered key.
  SignatureCheck segment_done_check(const SegmentDoneMsg& d) const {
    return {lookup(d.switch_node), d.body(), d.sig};
  }

  bool verify_event(const Event& e) const { return event_check(e)(); }
  bool verify_ack(const AckMsg& a) const { return ack_check(a)(); }
  bool verify_segment_done(const SegmentDoneMsg& d) const { return segment_done_check(d)(); }

  std::size_t size() const { return pks_.size(); }

 private:
  std::map<std::uint32_t, crypto::Point> pks_;
};

}  // namespace cicero::core
