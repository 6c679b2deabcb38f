#include "core/audit.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/drbg.hpp"

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

TEST_F(AuditTest, LaggingLogIsNotDivergence) {
  AuditLog a, b;
  a.append(EventId{1, 1}, util::to_bytes("u1"), kp_);
  a.append(EventId{1, 2}, util::to_bytes("u2"), kp_);
  b.append(EventId{1, 1}, util::to_bytes("u1"), kp_);  // b is behind
  EXPECT_FALSE(AuditLog::first_divergence(a.entries(), b.entries()).has_value());
}

}  // namespace
}  // namespace cicero::core
