#include "core/audit.hpp"

#include <algorithm>

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
  // Workers finish the queue before they exit.
  for (std::thread& t : threads) t.join();
}

std::future<util::Bytes> SignPool::sign(const crypto::SchnorrKeyPair& key,
                                        const crypto::Digest& digest) {
  std::packaged_task<util::Bytes()> job([key, digest] { return sign_digest(key, digest); });
  std::future<util::Bytes> sig = job.get_future();
  if (workers_ == 0) {
    job();
    return sig;
  }
  {
    util::MutexLock lk(mu_);
    if (threads_.empty()) {
      for (unsigned i = 0; i < workers_; ++i) threads_.emplace_back([this] { work(); });
    }
    jobs_.push_back(std::move(job));
  }
  wake_.notify_one();
  return sig;
}

void SignPool::work() {
  for (;;) {
    std::packaged_task<util::Bytes()> job;
    {
      util::MutexLock lk(mu_);
      while (jobs_.empty() && !stopping_) wake_.wait(mu_);
      if (jobs_.empty()) return;
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    job();
  }
}

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
    pending_.push_back(Pending{e.index, pool_->sign(key, e.digest())});
  }
  entries_.push_back(std::move(e));
}

void AuditLog::drain() const {
  while (!pending_.empty()) collect_oldest();
}

void AuditLog::collect_oldest() const {
  Pending& p = pending_.front();
  entries_[p.index].sig = p.sig.get();
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
