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
//
// The same pool computes ahead the signatures and verifications the
// simulated controllers and switches consume: each is a pure function of
// inputs fixed before the node's simulated CPU delay, so it is submitted
// when they are fixed and taken in the callback that ends the delay.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/messages.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "obs/metrics.hpp"
#include "util/thread_annotations.hpp"

namespace cicero::core {

class SignPool;
template <class Fn>
auto submit(SignPool* pool, Fn fn);

namespace detail {

/// One pooled computation, shared by the pool's queue (weakly), the
/// worker that runs it and the futures of its consumer.  Whoever claims
/// it first runs it: a worker, or the consumer taking a result no worker
/// has started.  Its crypto ops count into its own tally, which is added
/// to the taker's obs::crypto_ops() when the result is taken.
class PoolJob {
 public:
  PoolJob() = default;
  virtual ~PoolJob() = default;
  PoolJob(const PoolJob&) = delete;
  PoolJob& operator=(const PoolJob&) = delete;

 protected:
  /// Runs the job here if nobody has started it, else runs other queued
  /// jobs until it is done, then counts its crypto ops on this thread.
  /// Once per job.
  void finish();

 private:
  friend class core::SignPool;
  /// Queued -> running; false once a worker or the consumer has it.
  bool claim() {
    std::uint8_t queued = kQueued;
    return state_.compare_exchange_strong(queued, kRunning, std::memory_order_acq_rel);
  }
  /// Runs a claimed job and publishes its result.
  void run();
  virtual void compute() = 0;

  enum : std::uint8_t { kQueued, kRunning, kDone };
  std::atomic<std::uint8_t> state_{kQueued};
  /// Set when queued.  A running job's pool is alive: ~SignPool joins its
  /// workers first.
  SignPool* pool_ = nullptr;
  obs::CryptoOpCounters tally_;
  bool finished_ = false;  ///< consumer side only
};

template <class T>
class PoolResult : public PoolJob {
 public:
  T take() {
    finish();
    if (error_) std::rethrow_exception(error_);
    return std::move(*value_);
  }

 protected:
  std::optional<T> value_;
  std::exception_ptr error_;
};

template <class T, class Fn>
class TypedJob final : public PoolResult<T> {
 public:
  explicit TypedJob(Fn fn) : fn_(std::move(fn)) {}

 private:
  void compute() override {
    try {
      this->value_.emplace(fn_());
    } catch (...) {
      this->error_ = std::current_exception();
    }
  }
  Fn fn_;
};

}  // namespace detail

/// The result of a job submitted to a SignPool.  Copies share the job
/// (simulator callbacks must be copyable); when the last copy goes
/// without taking the result, a job no worker has started is skipped and
/// its crypto ops are never counted.
template <class T>
class PoolFuture {
 public:
  PoolFuture() = default;
  /// True while a result is still to be taken.
  bool valid() const { return job_ != nullptr; }
  /// The result: computed here if no worker has started the job, waited
  /// for if one has.  Adds the job's crypto op counts to this thread's
  /// obs::crypto_ops().  Leaves this future empty.
  T take() {
    const std::shared_ptr<detail::PoolResult<T>> job = std::move(job_);
    return job->take();
  }

 private:
  template <class Fn>
  friend auto submit(SignPool* pool, Fn fn);
  explicit PoolFuture(std::shared_ptr<detail::PoolResult<T>> job) : job_(std::move(job)) {}
  std::shared_ptr<detail::PoolResult<T>> job_;
};

/// A small host thread pool for crypto: the audit log's signatures and
/// the signatures and verifications the simulated nodes consume.  Workers
/// start on the first job, so a deployment that submits nothing starts
/// none.  With zero workers, or with kMaxQueued jobs already waiting, a
/// job is not queued and its consumer runs it inline when it takes the
/// result; a consumer never waits behind the queue, and while it waits for
/// a job a worker is running it runs the newest queued jobs itself.
/// `submit` may be called from several threads (the shards of a parallel
/// run).
class SignPool {
 public:
  /// Jobs waiting for a worker, at most.  Bounds the pool's memory and
  /// how far the workers run ahead of the consumers.
  static constexpr std::size_t kMaxQueued = 64;

  /// One worker per host core beyond the simulation thread, at most 3:
  /// none on a single-core host.
  SignPool();
  explicit SignPool(unsigned workers);
  /// Stops the workers.  Jobs still queued stay with their futures, whose
  /// consumers run them inline.
  ~SignPool();
  SignPool(const SignPool&) = delete;
  SignPool& operator=(const SignPool&) = delete;

  unsigned workers() const { return workers_; }

 private:
  template <class Fn>
  friend auto submit(SignPool* pool, Fn fn);
  friend class detail::PoolJob;
  void enqueue(const std::shared_ptr<detail::PoolJob>& job);
  /// Runs the newest queued job on this thread; false when none is left.
  bool run_newest();
  void work();

  const unsigned workers_;
  util::Mutex mu_;
  std::condition_variable_any wake_;
  std::deque<std::weak_ptr<detail::PoolJob>> jobs_ CICERO_GUARDED_BY(mu_);
  bool stopping_ CICERO_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_ CICERO_GUARDED_BY(mu_);  ///< joined by ~SignPool
};

/// Starts `fn()` on a worker of `pool`; without a pool, its consumer runs
/// it inline when it takes the result.  The job owns `fn`, so everything
/// it reads must be captured by value.
template <class Fn>
auto submit(SignPool* pool, Fn fn) {
  using T = std::invoke_result_t<Fn&>;
  auto job = std::make_shared<detail::TypedJob<T, Fn>>(std::move(fn));
  if (pool != nullptr) pool->enqueue(job);
  return PoolFuture<T>(std::move(job));
}

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
    PoolFuture<util::Bytes> sig;
  };
  void collect_oldest() const;

  SignPool* pool_ = nullptr;
  mutable std::vector<AuditEntry> entries_;
  mutable std::deque<Pending> pending_;  ///< oldest first
};

}  // namespace cicero::core
