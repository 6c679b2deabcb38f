// Wire-format property suite for the PBFT codec (bft::BftMessage), the
// counterpart of tests/core/messages_property_test.cpp: seeded random
// messages of every BftMsgType must survive encode -> decode -> encode
// bit-identically, every strict prefix and any trailing byte must be
// rejected, single-bit corruption must never throw out of decode — an
// accepted corrupt frame re-encodes to exactly its own bytes — and a
// forged element count must be rejected before decode allocates for it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "bft/messages.hpp"
#include "util/rng.hpp"

// --- allocation probe ------------------------------------------------------
// Counts the bytes operator new hands out on this thread while a probe is
// open, so a test can bound what one decode allocates.
namespace {
thread_local bool g_probe_open = false;
thread_local std::size_t g_probe_bytes = 0;
}  // namespace

void* operator new(std::size_t n) {
  if (g_probe_open) g_probe_bytes += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Kept out of line: inlined into a caller, the free() below would be paired
// with this file's operator new and read as a mismatched deallocation.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace cicero::bft {
namespace {

constexpr int kCasesPerSeed = 60;
constexpr std::uint64_t kSeeds[] = {1, 0xB1F7, 0xDEADBEEF};
constexpr std::uint8_t kMaxType = static_cast<std::uint8_t>(BftMsgType::kFetchReply);

util::Bytes random_bytes(util::Rng& rng, std::size_t max_len) {
  util::Bytes b(static_cast<std::size_t>(rng.next_below(max_len + 1)));
  for (auto& c : b) c = static_cast<std::uint8_t>(rng.next_u64());
  return b;
}

BftRequest random_request(util::Rng& rng) {
  BftRequest req;
  req.submitter = static_cast<ReplicaId>(rng.next_u64());
  req.local_seq = rng.next_u64();
  req.payload = random_bytes(rng, 48);
  return req;
}

BftMessage random_message(util::Rng& rng, BftMsgType type) {
  BftMessage m;
  m.type = type;
  m.sender = static_cast<ReplicaId>(rng.next_u64());
  m.view = rng.next_u64();
  m.seq = rng.next_u64();
  for (auto& b : m.digest) b = static_cast<std::uint8_t>(rng.next_u64());
  if (rng.next_below(2) == 0) m.request = random_request(rng);
  m.last_delivered = rng.next_u64();
  for (std::uint64_t i = 0, n = rng.next_below(4); i < n; ++i) {
    m.prepared.push_back(PreparedEntry{rng.next_u64(), random_request(rng)});
  }
  for (std::uint64_t i = 0, n = rng.next_below(4); i < n; ++i) {
    m.new_view_entries[rng.next_u64()] = random_request(rng);
  }
  m.new_view_next_seq = rng.next_u64();
  return m;
}

/// One random valid frame per message type.
std::vector<util::Bytes> random_frames(util::Rng& rng) {
  std::vector<util::Bytes> out;
  for (std::uint8_t t = 0; t <= kMaxType; ++t) {
    out.push_back(random_message(rng, static_cast<BftMsgType>(t)).encode(random_bytes(rng, 64)));
  }
  return out;
}

/// Re-encoded bytes of a decoded frame, or nullopt when decode rejected it.
std::optional<util::Bytes> decode_reencode(const util::Bytes& wire) {
  const auto m = BftMessage::decode(wire);
  if (!m) return std::nullopt;
  return m->first.encode(m->second);
}

TEST(BftMessagesProperty, RoundTripIsCanonical) {
  for (const std::uint64_t seed : kSeeds) {
    util::Rng rng(seed);
    for (int c = 0; c < kCasesPerSeed; ++c) {
      for (const auto& wire : random_frames(rng)) {
        const auto again = decode_reencode(wire);
        ASSERT_TRUE(again.has_value()) << "seed " << seed << " case " << c;
        EXPECT_EQ(*again, wire) << "seed " << seed << " case " << c;
      }
    }
  }
}

TEST(BftMessagesProperty, EveryStrictPrefixRejected) {
  for (const std::uint64_t seed : kSeeds) {
    util::Rng rng(seed);
    for (int c = 0; c < 4; ++c) {
      for (const auto& wire : random_frames(rng)) {
        for (std::size_t len = 0; len < wire.size(); ++len) {
          const util::Bytes prefix(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(len));
          EXPECT_FALSE(BftMessage::decode(prefix).has_value())
              << "decoded a " << len << "/" << wire.size() << "-byte prefix";
        }
      }
    }
  }
}

TEST(BftMessagesProperty, TrailingGarbageRejected) {
  util::Rng rng(99);
  for (int c = 0; c < 20; ++c) {
    for (auto wire : random_frames(rng)) {
      wire.push_back(static_cast<std::uint8_t>(rng.next_u64()));
      EXPECT_FALSE(BftMessage::decode(wire).has_value());
    }
  }
}

TEST(BftMessagesProperty, BitFlipsNeverThrowAndStayCanonical) {
  // Any accepted corruption re-encodes to exactly the corrupted bytes:
  // the decoder admits one encoding per message, so digests and dedupe
  // keys computed over wire bytes cannot disagree across hops.
  std::size_t accepted = 0;
  for (const std::uint64_t seed : kSeeds) {
    util::Rng rng(seed ^ 0xB17F11F5);
    for (int c = 0; c < kCasesPerSeed; ++c) {
      for (const auto& wire : random_frames(rng)) {
        util::Bytes corrupt = wire;
        const std::size_t flips = 1 + static_cast<std::size_t>(rng.next_below(3));
        for (std::size_t f = 0; f < flips; ++f) {
          const auto byte = static_cast<std::size_t>(rng.next_below(corrupt.size()));
          corrupt[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
        }
        std::optional<util::Bytes> out;
        ASSERT_NO_THROW(out = decode_reencode(corrupt));
        if (out.has_value()) {
          ++accepted;
          EXPECT_EQ(*out, corrupt);
        }
      }
    }
  }
  // Flips inside ids, digests and payloads are well-formed frames.
  EXPECT_GT(accepted, 0u);
}

TEST(BftMessagesProperty, UnorderedNewViewEntriesRejected) {
  // All other fields zero, so the second key's bytes occur once.
  const BftRequest req{1, 1, util::to_bytes("r")};
  BftMessage m;
  m.type = BftMsgType::kNewView;
  m.new_view_entries = {{7, req}, {9, req}};
  const util::Bytes wire = m.encode({});
  ASSERT_TRUE(BftMessage::decode(wire).has_value());
  // Rewrite the second seq (9) to 7 and then to 3: a duplicate and a
  // descending key.  Both would collapse or reorder in the decoded map.
  util::Writer nine;
  nine.u64(9);
  const auto at = std::search(wire.begin(), wire.end(), nine.data().begin(), nine.data().end());
  ASSERT_NE(at, wire.end());
  for (const std::uint8_t seq : {7, 3}) {
    util::Bytes forged = wire;
    forged[static_cast<std::size_t>(at - wire.begin())] = seq;
    EXPECT_FALSE(BftMessage::decode(forged).has_value()) << "seq " << int(seq);
  }
}

/// A kViewChange / kNewView frame whose prepared (or new-view) count
/// field claims `count` entries but whose body holds only `real` of them.
util::Bytes forged_count_frame(std::uint32_t count, bool new_view, std::size_t real) {
  util::Rng rng(11);
  util::Writer w;
  w.u8(static_cast<std::uint8_t>(new_view ? BftMsgType::kNewView : BftMsgType::kViewChange));
  w.u32(1);
  w.u64(2);
  w.u64(3);
  const crypto::Digest d{};
  w.raw(d.data(), d.size());
  w.boolean(false);
  w.u64(4);
  w.u32(new_view ? 0 : count);
  if (!new_view) {
    for (std::size_t i = 0; i < real; ++i) {
      w.u64(i);
      w.bytes(random_request(rng).encode());
    }
  }
  w.u32(new_view ? count : 0);
  if (new_view) {
    for (std::size_t i = 0; i < real; ++i) {
      w.u64(i);
      w.bytes(random_request(rng).encode());
    }
  }
  w.u64(5);
  util::Writer frame;
  frame.u8(kBftWireTag);
  frame.bytes(w.data());
  frame.bytes(util::Bytes{});
  return frame.take();
}

TEST(BftMessagesProperty, HugeCountsFailFast) {
  // The honest frame with the same entries decodes; claiming 2^32 - 1
  // (or merely more than the input can hold) is rejected, and the decode
  // allocates no more than a small multiple of the frame itself.
  for (const bool new_view : {false, true}) {
    ASSERT_TRUE(BftMessage::decode(forged_count_frame(3, new_view, 3)).has_value());
    for (const std::uint32_t count : {0xFFFFFFFFu, 0x10000000u, 1000u}) {
      const util::Bytes wire = forged_count_frame(count, new_view, 3);
      g_probe_bytes = 0;
      g_probe_open = true;
      const auto out = BftMessage::decode(wire);
      g_probe_open = false;
      EXPECT_FALSE(out.has_value()) << "count " << count << " new_view " << new_view;
      EXPECT_LE(g_probe_bytes, 4 * wire.size())
          << "count " << count << " new_view " << new_view;
    }
  }
}

}  // namespace
}  // namespace cicero::bft
