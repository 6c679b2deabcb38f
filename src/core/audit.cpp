#include "core/audit.hpp"

#include <algorithm>
#include <cassert>

namespace cicero::core {

namespace {
util::Bytes sign_digest(const crypto::SchnorrKeyPair& key, const crypto::Digest& digest) {
  return crypto::schnorr_sign(key, crypto::digest_bytes(digest)).to_bytes();
}

/// The host's core count decides only where signatures are computed,
/// never their bytes or any simulated quantity.
unsigned default_workers() {
  const unsigned cores = std::thread::hardware_concurrency();
  return cores <= 1 ? 0 : std::min(cores - 1, 3u);
}
}  // namespace

SignPool::SignPool() : SignPool(default_workers()) {}

SignPool::SignPool(unsigned workers) : workers_(workers) {}

SignPool::~SignPool() {
  std::vector<std::thread> threads;
  {
    util::MutexLock lk(mu_);
    stopping_ = true;
    threads.swap(threads_);
  }
  wake_.notify_all();
  for (std::thread& t : threads) t.join();
}

void SignPool::enqueue(const std::shared_ptr<detail::PoolJob>& job) {
  if (workers_ == 0) return;
  {
    util::MutexLock lk(mu_);
    if (jobs_.size() >= kMaxQueued) return;  // left to its consumer
    if (threads_.empty()) {
      for (unsigned i = 0; i < workers_; ++i) threads_.emplace_back([this] { work(); });
    }
    job->pool_ = this;
    jobs_.push_back(job);
  }
  wake_.notify_one();
}

bool SignPool::run_newest() {
  for (;;) {
    std::shared_ptr<detail::PoolJob> job;
    {
      util::MutexLock lk(mu_);
      if (jobs_.empty()) return false;
      job = jobs_.back().lock();
      jobs_.pop_back();
    }
    if (job != nullptr && job->claim()) {
      job->run();
      return true;
    }
  }
}

void SignPool::work() {
  for (;;) {
    std::shared_ptr<detail::PoolJob> job;
    {
      util::MutexLock lk(mu_);
      while (jobs_.empty() && !stopping_) wake_.wait(mu_);
      if (stopping_) return;
      job = jobs_.front().lock();  // null once every future is gone
      jobs_.pop_front();
    }
    if (job != nullptr && job->claim()) job->run();
  }
}

namespace detail {

void PoolJob::run() {
  {
    obs::ScopedCryptoTally tally(tally_);
    compute();
  }
  state_.store(kDone, std::memory_order_release);
  state_.notify_all();
}

void PoolJob::finish() {
  assert(!finished_ && "a pooled result is taken once");
  finished_ = true;
  if (claim()) {
    run();
  } else {
    // A worker has it.  The newest queued jobs are the likeliest to be
    // taken next (the siblings of a fan-out), so run those meanwhile.
    while (state_.load(std::memory_order_acquire) != kDone && pool_->run_newest()) {
    }
    for (std::uint8_t s = state_.load(std::memory_order_acquire); s != kDone;
         s = state_.load(std::memory_order_acquire)) {
      state_.wait(s, std::memory_order_acquire);
    }
  }
  obs::crypto_ops().add(tally_);
}

}  // namespace detail

crypto::Digest AuditEntry::digest() const {
  crypto::Sha256 h;
  h.update("cicero/audit");
  util::Writer w;
  w.u64(index);
  w.raw(prev.data(), prev.size());
  w.u32(cause.origin);
  w.u64(cause.seq);
  w.raw(update_digest.data(), update_digest.size());
  h.update(w.data());
  return h.finish();
}

void AuditLog::append(const EventId& cause, const util::Bytes& update_bytes,
                      const crypto::SchnorrKeyPair& key) {
  AuditEntry e;
  e.index = entries_.size();
  if (!entries_.empty()) e.prev = entries_.back().digest();
  e.cause = cause;
  e.update_digest = crypto::Sha256::hash(update_bytes);
  if (pool_ == nullptr) {
    e.sig = sign_digest(key, e.digest());
  } else {
    if (pending_.size() == kMaxInFlight) collect_oldest();
    pending_.push_back(Pending{e.index, submit(pool_, [key, digest = e.digest()] {
                                 return sign_digest(key, digest);
                               })});
  }
  entries_.push_back(std::move(e));
}

void AuditLog::drain() const {
  while (!pending_.empty()) collect_oldest();
}

void AuditLog::collect_oldest() const {
  Pending& p = pending_.front();
  entries_[p.index].sig = p.sig.take();
  pending_.pop_front();
}

bool AuditLog::verify_chain(const std::vector<AuditEntry>& entries, const crypto::Point& pk) {
  crypto::Digest prev{};
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const AuditEntry& e = entries[i];
    if (e.index != i) return false;
    if (!std::equal(e.prev.begin(), e.prev.end(), prev.begin())) return false;
    const auto sig = crypto::SchnorrSignature::from_bytes(e.sig);
    if (!sig || !crypto::schnorr_verify(pk, crypto::digest_bytes(e.digest()), *sig)) {
      return false;
    }
    prev = e.digest();
  }
  return true;
}

std::map<EventId, std::multiset<std::string>> AuditLog::decisions(
    const std::vector<AuditEntry>& entries) {
  std::map<EventId, std::multiset<std::string>> out;
  for (const AuditEntry& e : entries) {
    out[e.cause].insert(std::string(e.update_digest.begin(), e.update_digest.end()));
  }
  return out;
}

std::optional<EventId> AuditLog::first_divergence(const std::vector<AuditEntry>& a,
                                                  const std::vector<AuditEntry>& b) {
  const auto da = decisions(a);
  const auto db = decisions(b);
  for (const auto& [event, set_a] : da) {
    const auto it = db.find(event);
    if (it == db.end()) continue;  // only one side has seen it (yet)
    if (it->second != set_a) return event;
  }
  return std::nullopt;
}

}  // namespace cicero::core
