// Quorum state shared by every aggregator — the switch's update, manifest
// and in-network paths and the kCiceroAgg controller (DESIGN.md §4 item 9).
// Identical-update counting (Fig. 6b) buckets partials by the body they
// sign, so a Byzantine replica racing a corrupted body ahead of the honest
// copies can neither block nor join the honest quorum's bucket.  Each
// aggregator keeps its own completion policy; only storage and keying live
// here.
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <utility>

#include "crypto/threshold.hpp"
#include "sched/update.hpp"
#include "util/bytes.hpp"

namespace cicero::core {

/// One body's collected partials; `Body` is what the aggregator's
/// completion step consumes.  An empty `signing_bytes` means "no body yet"
/// (in-network compact shares can arrive first).
template <class Body>
struct Bucket {
  Body body;
  util::Bytes signing_bytes;
  std::map<crypto::ShareIndex, crypto::PartialSignature> partials;
  bool aggregating = false;
};

/// update id -> body key -> bucket.  Keys are the SHA-256 of the signing
/// bytes, or the 64-bit digest an in-network PartialShareMsg carries.
template <class Key, class Body>
using Buckets = std::map<sched::UpdateId, std::map<Key, Bucket<Body>>>;

/// The bucket for (id, key), or null.
template <class Key, class Body>
Bucket<Body>* find_bucket(Buckets<Key, Body>& pending, sched::UpdateId id, const Key& key) {
  const auto it = pending.find(id);
  if (it == pending.end()) return nullptr;
  const auto bit = it->second.find(key);
  return bit == it->second.end() ? nullptr : &bit->second;
}

template <class Body>
struct Filed {
  Bucket<Body>& bucket;
  bool conflict;  ///< this call opened a second, conflicting bucket for the id
};

/// The bucket for (id, key), opened if new, with `body` and its signing
/// bytes stored if the bucket has no body yet (`body` may be null).
template <class Key, class Body>
Filed<Body> open_bucket(Buckets<Key, Body>& pending, sched::UpdateId id, const Key& key,
                        const Body* body, util::Bytes signing_bytes) {
  auto& buckets = pending[id];
  const auto [it, opened] = buckets.try_emplace(key);
  Bucket<Body>& bucket = it->second;
  if (body != nullptr && bucket.signing_bytes.empty()) {
    bucket.body = *body;
    bucket.signing_bytes = std::move(signing_bytes);
  }
  return {bucket, opened && buckets.size() == 2};
}

/// open_bucket, then files `partial` into the bucket.
template <class Key, class Body>
Filed<Body> add_partial(Buckets<Key, Body>& pending, sched::UpdateId id, const Key& key,
                        const crypto::PartialSignature& partial, const Body* body,
                        util::Bytes signing_bytes) {
  const Filed<Body> filed = open_bucket(pending, id, key, body, std::move(signing_bytes));
  filed.bucket.partials[partial.signer] = partial;
  return filed;
}

/// Retransmission windows are short — a few ack-timeout doublings — so a
/// few thousand ids outlast any retry while keeping memory flat.
inline constexpr std::size_t kReplayWindow = 4096;

/// A finished result per update id, kept so a retransmission is answered
/// with the same result, and retired first-in first-out past `capacity`.
template <class Value>
class ReplayWindow {
 public:
  explicit ReplayWindow(std::size_t capacity = kReplayWindow) : capacity_(capacity) {}

  /// Caches `value` for `id`.  Re-inserting a live id replaces its value
  /// and keeps its age.
  void put(sched::UpdateId id, Value value) {
    if (!entries_.insert_or_assign(id, std::move(value)).second) return;
    order_.push_back(id);
    while (order_.size() > capacity_) {
      entries_.erase(order_.front());
      order_.pop_front();
    }
  }
  const Value* find(sched::UpdateId id) const {
    const auto it = entries_.find(id);
    return it == entries_.end() ? nullptr : &it->second;
  }
  bool contains(sched::UpdateId id) const { return entries_.count(id) != 0; }
  std::size_t size() const { return entries_.size(); }
  void clear() {
    entries_.clear();
    order_.clear();
  }

 private:
  std::size_t capacity_;
  std::map<sched::UpdateId, Value> entries_;
  std::deque<sched::UpdateId> order_;  ///< insertion order, oldest first
};

}  // namespace cicero::core
