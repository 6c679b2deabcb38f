#include "core/audit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "crypto/drbg.hpp"
#include "crypto/simbls.hpp"

namespace cicero::core {
namespace {

class AuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    crypto::Drbg d(77);
    kp_ = crypto::SchnorrKeyPair::generate(d);
  }
  crypto::SchnorrKeyPair kp_;

  AuditLog make_log(int entries) {
    AuditLog log;
    for (int i = 0; i < entries; ++i) {
      log.append(EventId{1, static_cast<std::uint64_t>(i)},
                 util::to_bytes("update-" + std::to_string(i)), kp_);
    }
    return log;
  }
};

TEST_F(AuditTest, ChainVerifies) {
  const AuditLog log = make_log(5);
  EXPECT_EQ(log.size(), 5u);
  EXPECT_TRUE(AuditLog::verify_chain(log.entries(), kp_.pk));
}

TEST_F(AuditTest, EmptyChainVerifies) {
  EXPECT_TRUE(AuditLog::verify_chain({}, kp_.pk));
}

TEST_F(AuditTest, TamperedDecisionDetected) {
  AuditLog log = make_log(5);
  auto entries = log.entries();
  entries[2].update_digest[0] ^= 0x01;
  EXPECT_FALSE(AuditLog::verify_chain(entries, kp_.pk));
}

TEST_F(AuditTest, RemovedEntryBreaksChain) {
  AuditLog log = make_log(5);
  auto entries = log.entries();
  entries.erase(entries.begin() + 2);
  EXPECT_FALSE(AuditLog::verify_chain(entries, kp_.pk));
}

TEST_F(AuditTest, ReorderedEntriesDetected) {
  AuditLog log = make_log(4);
  auto entries = log.entries();
  std::swap(entries[1], entries[2]);
  EXPECT_FALSE(AuditLog::verify_chain(entries, kp_.pk));
}

TEST_F(AuditTest, WrongKeyRejected) {
  const AuditLog log = make_log(3);
  crypto::Drbg d(78);
  const auto other = crypto::SchnorrKeyPair::generate(d);
  EXPECT_FALSE(AuditLog::verify_chain(log.entries(), other.pk));
}

TEST_F(AuditTest, ForgedSignatureDetected) {
  AuditLog log = make_log(3);
  auto entries = log.entries();
  entries[1].sig[10] ^= 0xFF;
  EXPECT_FALSE(AuditLog::verify_chain(entries, kp_.pk));
}

TEST_F(AuditTest, HonestLogsAgree) {
  // Two controllers emitting the same decisions (possibly in different
  // per-event order) have no divergence.
  crypto::Drbg d(79);
  const auto kp2 = crypto::SchnorrKeyPair::generate(d);
  AuditLog a, b;
  a.append(EventId{1, 1}, util::to_bytes("u1"), kp_);
  a.append(EventId{1, 1}, util::to_bytes("u2"), kp_);
  a.append(EventId{1, 2}, util::to_bytes("u3"), kp_);
  b.append(EventId{1, 1}, util::to_bytes("u2"), kp2);  // different order
  b.append(EventId{1, 1}, util::to_bytes("u1"), kp2);
  b.append(EventId{1, 2}, util::to_bytes("u3"), kp2);
  EXPECT_FALSE(AuditLog::first_divergence(a.entries(), b.entries()).has_value());
}

TEST_F(AuditTest, DivergenceLocatesEvent) {
  AuditLog a, b;
  a.append(EventId{1, 1}, util::to_bytes("u1"), kp_);
  a.append(EventId{1, 2}, util::to_bytes("honest"), kp_);
  b.append(EventId{1, 1}, util::to_bytes("u1"), kp_);
  b.append(EventId{1, 2}, util::to_bytes("corrupted"), kp_);
  const auto div = AuditLog::first_divergence(a.entries(), b.entries());
  ASSERT_TRUE(div.has_value());
  EXPECT_EQ(*div, (EventId{1, 2}));
}

// --- signing on a SignPool -------------------------------------------------

/// The signature verify_chain expects, computed directly on this thread.
util::Bytes direct_sig(const crypto::SchnorrKeyPair& key, const AuditEntry& e) {
  return crypto::schnorr_sign(key, crypto::digest_bytes(e.digest())).to_bytes();
}

TEST_F(AuditTest, PooledSignaturesEqualDirectSignatures) {
  // Three logs (three keys) appended round-robin, so the pool's queue
  // interleaves their jobs; every signature must still land in its own
  // entry with the bytes an inline signer produces.
  SignPool pool(3);
  crypto::Drbg d(80);
  std::vector<crypto::SchnorrKeyPair> keys{kp_, crypto::SchnorrKeyPair::generate(d),
                                           crypto::SchnorrKeyPair::generate(d)};
  std::vector<AuditLog> pooled;
  std::vector<AuditLog> inline_logs(keys.size());
  for (std::size_t k = 0; k < keys.size(); ++k) pooled.emplace_back(&pool);
  for (int i = 0; i < 20; ++i) {
    for (std::size_t k = 0; k < keys.size(); ++k) {
      const EventId cause{static_cast<std::uint32_t>(k), static_cast<std::uint64_t>(i / 3)};
      const util::Bytes body = util::to_bytes(std::to_string(k) + "/" + std::to_string(i));
      pooled[k].append(cause, body, keys[k]);
      inline_logs[k].append(cause, body, keys[k]);
    }
  }
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const auto& entries = pooled[k].entries();
    ASSERT_EQ(entries.size(), 20u);
    EXPECT_EQ(pooled[k].in_flight(), 0u);
    for (const AuditEntry& e : entries) {
      EXPECT_EQ(e.sig, direct_sig(keys[k], e)) << "log " << k << " entry " << e.index;
    }
    const auto& ref = inline_logs[k].entries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(entries[i].digest(), ref[i].digest());
      EXPECT_EQ(entries[i].sig, ref[i].sig);
    }
    EXPECT_TRUE(AuditLog::verify_chain(entries, keys[k].pk));
  }
}

TEST_F(AuditTest, ZeroWorkerPoolSignsInlineWithSameBytes) {
  SignPool inline_pool(0);
  SignPool threaded(2);
  EXPECT_EQ(inline_pool.workers(), 0u);
  AuditLog a(&inline_pool);
  AuditLog b(&threaded);
  const AuditLog ref = make_log(12);
  for (int i = 0; i < 12; ++i) {
    const EventId cause{1, static_cast<std::uint64_t>(i)};
    const util::Bytes body = util::to_bytes("update-" + std::to_string(i));
    a.append(cause, body, kp_);
    b.append(cause, body, kp_);
  }
  ASSERT_EQ(a.entries().size(), ref.entries().size());
  for (std::size_t i = 0; i < ref.entries().size(); ++i) {
    EXPECT_EQ(a.entries()[i].sig, ref.entries()[i].sig);
    EXPECT_EQ(b.entries()[i].sig, ref.entries()[i].sig);
    EXPECT_EQ(a.entries()[i].digest(), ref.entries()[i].digest());
  }
}

TEST_F(AuditTest, DefaultPoolIsSmall) {
  EXPECT_LE(SignPool().workers(), 3u);
}

TEST_F(AuditTest, MovedLogCollectsItsPendingSignatures) {
  SignPool pool(2);
  AuditLog log(&pool);
  for (int i = 0; i < 5; ++i) {
    log.append(EventId{1, static_cast<std::uint64_t>(i)}, util::to_bytes("m"), kp_);
  }
  EXPECT_GT(log.in_flight(), 0u);
  AuditLog moved(std::move(log));
  AuditLog assigned;
  assigned = std::move(moved);
  assigned.append(EventId{1, 5}, util::to_bytes("m"), kp_);
  ASSERT_EQ(assigned.entries().size(), 6u);
  EXPECT_TRUE(AuditLog::verify_chain(assigned.entries(), kp_.pk));
}

TEST_F(AuditTest, LogDestroyedWithPendingJobsIsSafe) {
  // Jobs hold copies of the key and the digest: the caller's key may be
  // overwritten and the log destroyed while signatures are still queued.
  SignPool pool(1);
  for (int round = 0; round < 4; ++round) {
    AuditLog log(&pool);
    crypto::SchnorrKeyPair key = kp_;
    for (int i = 0; i < 8; ++i) {
      log.append(EventId{2, static_cast<std::uint64_t>(i)}, util::to_bytes("d"), key);
    }
    crypto::Drbg d(81);
    key = crypto::SchnorrKeyPair::generate(d);
    if (round == 0) {
      EXPECT_TRUE(AuditLog::verify_chain(log.entries(), kp_.pk));
    }
  }
  // The pool is still healthy after logs died with queued work.
  AuditLog after(&pool);
  after.append(EventId{3, 0}, util::to_bytes("after"), kp_);
  EXPECT_TRUE(AuditLog::verify_chain(after.entries(), kp_.pk));
}

TEST_F(AuditTest, InFlightNeverExceedsCap) {
  SignPool pool(1);
  AuditLog log(&pool);
  std::size_t peak = 0;
  for (int i = 0; i < 40; ++i) {
    log.append(EventId{1, static_cast<std::uint64_t>(i)}, util::to_bytes("c"), kp_);
    peak = std::max(peak, log.in_flight());
    ASSERT_LE(log.in_flight(), AuditLog::kMaxInFlight);
  }
  // Collection happens only at the cap or on a read, so the cap is hit.
  EXPECT_EQ(peak, AuditLog::kMaxInFlight);
  log.drain();
  EXPECT_EQ(log.in_flight(), 0u);
  EXPECT_TRUE(AuditLog::verify_chain(log.entries(), kp_.pk));
}

// --- typed jobs on a SignPool ----------------------------------------------

/// Snapshot of the process-wide crypto op counters.
std::vector<std::uint64_t> op_counts() {
  const obs::CryptoOpCounters& c = obs::crypto_ops();
  return {c.schnorr_sign,    c.schnorr_verify, c.partial_sign,
          c.partial_verify,  c.aggregate,      c.threshold_verify,
          c.frost_sign,      c.frost_aggregate, c.frost_verify,
          c.field_inv};
}

/// Holds a pool's only worker inside a job until released, so the test
/// controls what is queued behind it.
class BusyWorker {
 public:
  explicit BusyWorker(SignPool& pool)
      : job_(submit(&pool, [this] {
          started_ = true;
          while (!released_) std::this_thread::yield();
          return true;
        })) {
    while (!started_) std::this_thread::yield();
  }
  ~BusyWorker() {
    released_ = true;
    job_.take();
  }

 private:
  std::atomic<bool> started_{false};
  std::atomic<bool> released_{false};
  PoolFuture<bool> job_;
};

TEST_F(AuditTest, TypedResultsEqualInlineResults) {
  SignPool pool(3);
  crypto::Drbg d(90);
  const util::Bytes msg = util::to_bytes("typed");
  const crypto::SecretShare share{1, d.next_secret_scalar()};
  const crypto::SchnorrSignature sig = crypto::schnorr_sign(kp_, msg);

  auto signed_bytes = submit(&pool, [kp = kp_, msg] { return crypto::schnorr_sign(kp, msg); });
  auto good = submit(&pool, [pk = kp_.pk, msg, sig] {
    return crypto::schnorr_verify(pk, msg, sig);
  });
  auto bad = submit(&pool, [pk = kp_.pk, sig] {
    return crypto::schnorr_verify(pk, util::to_bytes("other"), sig);
  });
  auto partial = submit(&pool, [share, msg] {
    return crypto::SimBlsScheme::instance().partial_sign(share, msg);
  });
  auto none = submit(nullptr, [kp = kp_, msg] { return crypto::schnorr_sign(kp, msg); });

  EXPECT_EQ(signed_bytes.take(), sig);
  EXPECT_TRUE(good.take());
  EXPECT_FALSE(bad.take());
  const crypto::PartialSignature p = partial.take();
  const crypto::PartialSignature ref = crypto::SimBlsScheme::instance().partial_sign(share, msg);
  EXPECT_EQ(p.signer, ref.signer);
  EXPECT_EQ(p.payload, ref.payload);
  EXPECT_EQ(none.take(), sig);
  EXPECT_FALSE(signed_bytes.valid());
}

TEST_F(AuditTest, ZeroWorkerPoolRunsJobsInlineWhenTaken) {
  SignPool pool(0);
  const util::Bytes msg = util::to_bytes("inline");
  const auto before = op_counts();
  auto job = submit(&pool, [kp = kp_, msg] {
    return std::make_pair(std::this_thread::get_id(), crypto::schnorr_sign(kp, msg));
  });
  EXPECT_EQ(op_counts(), before) << "a job with no worker runs only when taken";
  const auto [thread, sig] = job.take();
  EXPECT_EQ(thread, std::this_thread::get_id());
  EXPECT_EQ(sig, crypto::schnorr_sign(kp_, msg));
  EXPECT_EQ(obs::crypto_ops().schnorr_sign, before[0] + 2);  // the job's and the reference's
}

TEST_F(AuditTest, UnstartedJobRunsInItsConsumer) {
  // A consumer never waits behind the queue: a job no worker has started
  // is run by whoever takes it.
  SignPool pool(1);
  BusyWorker busy(pool);
  auto job = submit(&pool, [] { return std::this_thread::get_id(); });
  EXPECT_EQ(job.take(), std::this_thread::get_id());
}

TEST_F(AuditTest, FullQueueRunsInline) {
  SignPool pool(1);
  std::vector<PoolFuture<std::thread::id>> queued;
  {
    BusyWorker busy(pool);
    for (std::size_t i = 0; i < SignPool::kMaxQueued; ++i) {
      queued.push_back(submit(&pool, [] { return std::this_thread::get_id(); }));
    }
    // Past the cap the job is not queued at all; taking it runs it here
    // even while the worker is still held.
    auto overflow = submit(&pool, [] { return std::this_thread::get_id(); });
    EXPECT_EQ(overflow.take(), std::this_thread::get_id());
  }
  for (auto& f : queued) f.take();  // the released worker or this thread
}

TEST_F(AuditTest, DiscardedJobLeavesCountersUnchanged) {
  SignPool pool(2);
  const util::Bytes msg = util::to_bytes("dropped");
  std::atomic<int> ran{0};
  const auto before = op_counts();
  {
    // Computed by a worker, then dropped: the work happened, but nothing
    // consumed it, so nothing is counted.
    auto done = submit(&pool, [kp = kp_, msg, &ran] {
      const auto sig = crypto::schnorr_sign(kp, msg);
      ++ran;
      return sig;
    });
    while (ran == 0) std::this_thread::yield();
  }
  {
    // Dropped before any worker started it: never run.
    BusyWorker a(pool);
    BusyWorker b(pool);
    auto skipped = submit(&pool, [kp = kp_, msg, &ran] {
      ++ran;
      return crypto::schnorr_sign(kp, msg);
    });
  }
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(op_counts(), before);

  // A taken job counts exactly the ops it made, field inversions included.
  obs::CryptoOpCounters direct;
  {
    obs::ScopedCryptoTally tally(direct);
    crypto::schnorr_sign(kp_, msg);
  }
  submit(&pool, [kp = kp_, msg] { return crypto::schnorr_sign(kp, msg); }).take();
  auto expected = before;
  expected[0] += direct.schnorr_sign;
  expected[9] += direct.field_inv;
  EXPECT_EQ(direct.schnorr_sign, 1u);
  EXPECT_EQ(op_counts(), expected);
}

TEST_F(AuditTest, PoolDestroyedWithJobsOutstandingIsSafe) {
  const util::Bytes msg = util::to_bytes("outstanding");
  const crypto::SchnorrSignature ref = crypto::schnorr_sign(kp_, msg);
  std::vector<PoolFuture<crypto::SchnorrSignature>> jobs;
  {
    SignPool pool(2);
    for (int i = 0; i < 40; ++i) {
      jobs.push_back(submit(&pool, [kp = kp_, msg] { return crypto::schnorr_sign(kp, msg); }));
    }
  }
  // Jobs the workers never reached run in their consumer.
  for (auto& j : jobs) EXPECT_EQ(j.take(), ref);
}

TEST_F(AuditTest, LaggingLogIsNotDivergence) {
  AuditLog a, b;
  a.append(EventId{1, 1}, util::to_bytes("u1"), kp_);
  a.append(EventId{1, 2}, util::to_bytes("u2"), kp_);
  b.append(EventId{1, 1}, util::to_bytes("u1"), kp_);  // b is behind
  EXPECT_FALSE(AuditLog::first_divergence(a.entries(), b.entries()).has_value());
}

}  // namespace
}  // namespace cicero::core
