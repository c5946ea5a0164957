#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "ps/key_layout.h"
#include "ps/latch_table.h"

namespace lapse {
namespace ps {
namespace {

TEST(LatchTableTest, SameKeySameLatch) {
  LatchTable latches(100);
  EXPECT_EQ(&latches.ForKey(42), &latches.ForKey(42));
}

TEST(LatchTableTest, IndexWithinBounds) {
  // The pool rounds the requested size up to a power of two.
  LatchTable latches(7);
  EXPECT_EQ(latches.size(), 8u);
  for (Key k = 0; k < 1000; ++k) {
    EXPECT_LT(latches.IndexOf(k), latches.size());
  }
}

TEST(LatchTableTest, MappingIsStable) {
  // Golden latch indices (Mix64 of the key, masked; partitioned pools
  // prepend the key's shard): which keys share a latch must not change.
  LatchTable flat(1000);
  const KeyLayout layout(64, 1, 2, 4);
  LatchTable partitioned(1000, &layout);
  ASSERT_EQ(flat.size(), 1024u);
  ASSERT_EQ(partitioned.size(), 1024u);
  const Key keys[] = {0, 7, 13, 40, 63};
  const size_t want_flat[] = {431, 471, 767, 274, 565};
  const size_t want_partitioned[] = {175, 215, 511, 274, 821};
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(flat.IndexOf(keys[i]), want_flat[i]) << "key " << keys[i];
    EXPECT_EQ(partitioned.IndexOf(keys[i]), want_partitioned[i])
        << "key " << keys[i];
  }
}

TEST(LatchTableTest, SpreadsKeys) {
  LatchTable latches(64);
  std::vector<int> counts(64, 0);
  for (Key k = 0; k < 6400; ++k) ++counts[latches.IndexOf(k)];
  int empty = 0;
  for (int c : counts) {
    if (c == 0) ++empty;
  }
  EXPECT_EQ(empty, 0);
}

TEST(LatchTableTest, MutualExclusion) {
  LatchTable latches(4);
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        LatchGuard lock(latches.ForKey(9));
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 40000);
}

}  // namespace
}  // namespace ps
}  // namespace lapse
