// The bounded replay window every aggregator caches its finished results
// in (core/quorum.hpp).  The bucket store is covered through its callers'
// quorum paths (switch_runtime_test, byzantine_test).
#include "core/quorum.hpp"

#include <gtest/gtest.h>

#include <string>

namespace cicero::core {
namespace {

TEST(ReplayWindow, EvictsOldestFirstPastCapacity) {
  ReplayWindow<std::string> window(3);
  for (sched::UpdateId id = 1; id <= 5; ++id) window.put(id, "v" + std::to_string(id));
  EXPECT_EQ(window.size(), 3u);
  EXPECT_FALSE(window.contains(1));
  EXPECT_FALSE(window.contains(2));
  for (sched::UpdateId id = 3; id <= 5; ++id) {
    ASSERT_NE(window.find(id), nullptr);
    EXPECT_EQ(*window.find(id), "v" + std::to_string(id));
  }
  window.put(6, "v6");  // retires 3, the oldest left
  EXPECT_FALSE(window.contains(3));
  EXPECT_TRUE(window.contains(4));
  EXPECT_TRUE(window.contains(6));
}

TEST(ReplayWindow, ReinsertReplacesValueAndKeepsAge) {
  ReplayWindow<std::string> window(3);
  window.put(1, "old");
  window.put(2, "v2");
  window.put(1, "new");  // live id: value replaced, still the oldest
  EXPECT_EQ(window.size(), 2u);
  EXPECT_EQ(*window.find(1), "new");
  window.put(3, "v3");
  EXPECT_EQ(window.size(), 3u);
  window.put(4, "v4");  // retires 1: re-inserting did not refresh it
  EXPECT_FALSE(window.contains(1));
  EXPECT_TRUE(window.contains(2));
  window.put(5, "v5");  // retires 2: exactly one slot per id
  EXPECT_FALSE(window.contains(2));
  EXPECT_EQ(window.size(), 3u);
}

TEST(ReplayWindow, EvictedIdCanReturn) {
  ReplayWindow<int> window(1);
  window.put(7, 1);
  window.put(8, 2);
  EXPECT_FALSE(window.contains(7));
  window.put(7, 3);
  EXPECT_EQ(*window.find(7), 3);
  EXPECT_FALSE(window.contains(8));
  window.clear();
  EXPECT_EQ(window.size(), 0u);
  EXPECT_EQ(window.find(7), nullptr);
}

}  // namespace
}  // namespace cicero::core
