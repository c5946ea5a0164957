#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "ps/op_tracker.h"

namespace lapse {
namespace ps {
namespace {

TEST(OpTrackerTest, ImmediateIsAlwaysDone) {
  OpTracker t;
  EXPECT_TRUE(t.IsDone(OpTracker::kImmediate));
  t.Wait(OpTracker::kImmediate);  // must not block
}

TEST(OpTrackerTest, CompletesAfterAllKeys) {
  OpTracker t;
  const uint64_t op = t.Create(nullptr, {{1, 0}, {2, 0}, {3, 0}}, 123);
  t.Release(op, 0);  // the issuer served no key itself
  EXPECT_FALSE(t.IsDone(op));
  t.CompleteKeys(op, 2);
  EXPECT_FALSE(t.IsDone(op));
  t.CompleteKeys(op, 1);
  EXPECT_TRUE(t.IsDone(op));
  t.Wait(op);
}

TEST(OpTrackerTest, IssueNs) {
  OpTracker t;
  const uint64_t op = t.Create(nullptr, {{1, 0}}, 987);
  EXPECT_EQ(t.IssueNs(op), 987);
  EXPECT_EQ(t.IssueNs(9999), 0);
}

TEST(OpTrackerTest, PullDstFindsOffsets) {
  OpTracker t;
  std::vector<Val> buf(10);
  const uint64_t op = t.Create(buf.data(), {{5, 0}, {2, 4}, {9, 7}}, 0);
  EXPECT_EQ(t.PullDst(op, 5), buf.data());
  EXPECT_EQ(t.PullDst(op, 2), buf.data() + 4);
  EXPECT_EQ(t.PullDst(op, 9), buf.data() + 7);
}

TEST(OpTrackerTest, PullDstNullForPushOps) {
  OpTracker t;
  const uint64_t op = t.Create(nullptr, {{1, 0}}, 0);
  EXPECT_EQ(t.PullDst(op, 1), nullptr);
}

TEST(OpTrackerTest, WaitBlocksUntilComplete) {
  OpTracker t;
  const uint64_t op = t.Create(nullptr, {{1, 0}}, 0);
  t.Release(op, 0);
  std::thread completer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    t.CompleteKeys(op, 1);
  });
  t.Wait(op);  // must return once completed
  completer.join();
  EXPECT_TRUE(t.IsDone(op));
}

TEST(OpTrackerTest, WaitAllDrainsEverything) {
  OpTracker t;
  std::vector<uint64_t> ops;
  for (int i = 0; i < 10; ++i) {
    ops.push_back(t.Create(nullptr, {{1, 0}}, 0));
    t.Release(ops.back(), 0);
  }
  std::thread completer([&] {
    for (const uint64_t op : ops) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      t.CompleteKeys(op, 1);
    }
  });
  t.WaitAll();
  completer.join();
  EXPECT_EQ(t.NumPending(), 0u);
}

TEST(OpTrackerTest, DistinctIds) {
  OpTracker t;
  const uint64_t a = t.Create(nullptr, {{1, 0}}, 0);
  const uint64_t b = t.Create(nullptr, {{1, 0}}, 0);
  EXPECT_NE(a, b);
  EXPECT_NE(a, OpTracker::kImmediate);
}

TEST(OpTrackerTest, ConcurrentCompletions) {
  OpTracker t;
  const uint64_t op = t.Create(nullptr,
                               {{1, 0}, {2, 0}, {3, 0}, {4, 0}}, 0);
  t.Release(op, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] { t.CompleteKeys(op, 1); });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(t.IsDone(op));
}

// An issued op stays open until its issuer releases it, however fast other
// threads complete its keys: the issuer's trace events (recorded before
// the release) can then never land after the op's completion event.
TEST(OpTrackerTest, OpStaysOpenUntilIssuerReleases) {
  OpTracker t;
  const uint64_t op = t.Create(nullptr, {{1, 0}, {2, 0}, {3, 0}}, 0);
  int finished = 0;  // CompleteKeys/Release calls that returned true
  std::thread server([&] {
    for (int i = 0; i < 3; ++i) finished += t.CompleteKeys(op, 1) ? 1 : 0;
  });
  server.join();
  EXPECT_FALSE(t.IsDone(op));  // every key is complete, the op is not
  finished += t.Release(op, 0) ? 1 : 0;
  EXPECT_TRUE(t.IsDone(op));
  EXPECT_EQ(finished, 1);
  t.Wait(op);
}

}  // namespace
}  // namespace ps
}  // namespace lapse
