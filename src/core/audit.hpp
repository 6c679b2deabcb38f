// Auditable controller-decision log (paper §7 future work).
//
// The paper's conclusions propose coupling the control-plane state with a
// distributed ledger "to help detect (potentially transient and
// malicious) controller failures thanks to the auditability of their
// decisions".  This module implements the per-controller half of that
// idea: every update a controller emits is appended to a hash-chained,
// Schnorr-signed decision log.  Because honest controllers decide
// deterministically from the same delivered event sequence, any two
// honest logs contain the SAME update-digest set per event; a mutating
// controller's log either (a) records its corrupted updates — signed,
// non-repudiable evidence — or (b) diverges from what switches received,
// which the threshold scheme already exposes.
//
// Auditing primitives:
//   * `verify_chain` — integrity + signature check of one log;
//   * `first_divergence` — earliest event where two logs' decision sets
//     differ (order-independent), pinpointing the disagreeing event.
//
// Signing is the only expensive step of an append, and nothing in the
// simulation reads a signature.  A log given a `SignPool` therefore
// hands the Schnorr signature to a host worker and fills `sig` in when
// it is read (DESIGN.md §6).  The signature is a pure function of the
// key and the entry digest, so the log's bytes do not depend on where
// or when it was computed.
#pragma once

#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "core/messages.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "util/thread_annotations.hpp"

namespace cicero::core {

/// A small host thread pool that computes audit signatures.  Workers start
/// on the first job, so a deployment that never signs starts none.  With
/// zero workers every job runs inline in `sign`.  `sign` may be called
/// from several threads (the shards of a parallel run).
class SignPool {
 public:
  /// One worker per host core beyond the simulation thread, at most 3:
  /// none on a single-core host.
  SignPool();
  explicit SignPool(unsigned workers);
  ~SignPool();
  SignPool(const SignPool&) = delete;
  SignPool& operator=(const SignPool&) = delete;

  unsigned workers() const { return workers_; }

  /// Schnorr-signs `digest` under `key`.  The job owns copies of both, so
  /// the caller may change or destroy its key while the job runs.
  std::future<util::Bytes> sign(const crypto::SchnorrKeyPair& key,
                                const crypto::Digest& digest);

 private:
  void work();

  const unsigned workers_;
  util::Mutex mu_;
  std::condition_variable_any wake_;
  std::deque<std::packaged_task<util::Bytes()>> jobs_ CICERO_GUARDED_BY(mu_);
  bool stopping_ CICERO_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_ CICERO_GUARDED_BY(mu_);  ///< joined by ~SignPool
};

struct AuditEntry {
  std::uint64_t index = 0;
  crypto::Digest prev{};           ///< digest of the previous entry (chain)
  EventId cause;                   ///< event the decision responds to
  crypto::Digest update_digest{};  ///< digest of the emitted update's signed bytes
  util::Bytes sig;                 ///< controller signature over digest()

  /// Digest of this entry (covers index, prev, cause and decision).
  crypto::Digest digest() const;
};

class AuditLog {
 public:
  /// Signatures one log may have outstanding; an append beyond this waits
  /// for the oldest.  Keeps a log's memory bounded whatever the pool's lag.
  static constexpr std::size_t kMaxInFlight = 8;

  /// Without a pool every append signs inline.
  AuditLog() = default;
  explicit AuditLog(SignPool* pool) : pool_(pool) {}
  ~AuditLog() { drain(); }
  AuditLog(AuditLog&&) = default;
  AuditLog& operator=(AuditLog&&) = default;

  /// Appends a decision: `update_bytes` are the exact bytes the controller
  /// (threshold-)signed for the update it emitted in response to `cause`.
  /// Index, chain link and update digest are set now; the signature may
  /// still be in flight on the pool when this returns.
  void append(const EventId& cause, const util::Bytes& update_bytes,
              const crypto::SchnorrKeyPair& key);

  /// Complete entries: waits for every outstanding signature first.
  const std::vector<AuditEntry>& entries() const {
    drain();
    return entries_;
  }
  std::size_t size() const { return entries_.size(); }
  /// Signatures not yet collected into their entries (<= kMaxInFlight).
  std::size_t in_flight() const { return pending_.size(); }
  /// Waits for every outstanding signature and stores it in its entry.
  /// Logically const: the stored bytes were fixed at append time.
  void drain() const;

  /// Full integrity check: indices contiguous, hash chain unbroken, every
  /// signature valid under `pk`.
  static bool verify_chain(const std::vector<AuditEntry>& entries, const crypto::Point& pk);

  /// Decision sets grouped by event (order-independent view of the log).
  static std::map<EventId, std::multiset<std::string>> decisions(
      const std::vector<AuditEntry>& entries);

  /// Earliest event (by EventId order) whose decision sets differ between
  /// the two logs; nullopt if they agree on every event both have seen.
  /// Events present in only one log are NOT divergence (logs are compared
  /// while the system runs, so one controller may simply be ahead).
  static std::optional<EventId> first_divergence(const std::vector<AuditEntry>& a,
                                                 const std::vector<AuditEntry>& b);

 private:
  struct Pending {
    std::size_t index;
    std::future<util::Bytes> sig;
  };
  void collect_oldest() const;

  SignPool* pool_ = nullptr;
  mutable std::vector<AuditEntry> entries_;
  mutable std::deque<Pending> pending_;  ///< oldest first
};

}  // namespace cicero::core
