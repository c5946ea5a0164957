#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "ps/op_tracker.h"
#include "util/rng.h"

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

// A retired op's slot comes back under a new id: the old id stays done
// and never names the new op.
TEST(OpTrackerTest, ReusedSlotGetsFreshId) {
  OpTracker t;
  const uint64_t a = t.Create(nullptr, {{1, 0}}, 11);
  EXPECT_TRUE(t.Release(a, 1));  // finished (and retired) by its issuer
  const uint64_t b = t.Create(nullptr, {{1, 0}}, 22);
  EXPECT_NE(a, b);
  EXPECT_NE(b, OpTracker::kImmediate);
  EXPECT_LT(b, uint64_t{1} << 47);
  EXPECT_TRUE(t.IsDone(a));
  EXPECT_EQ(t.IssueNs(a), 0);
  EXPECT_EQ(t.IssueNs(b), 22);
  t.Wait(a);  // retired: returns at once
  EXPECT_FALSE(t.IsDone(b));
  t.Release(b, 1);
  EXPECT_TRUE(t.IsDone(b));
}

// Ops that complete but that nobody waits on are reclaimed by later
// Creates, so the table does not grow with them.
TEST(OpTrackerTest, UnwaitedCompletedOpsKeepSlotCountBounded) {
  OpTracker t;
  std::vector<uint64_t> pending;
  for (int i = 0; i < 8; ++i) {  // never completed: their slots stay taken
    pending.push_back(t.Create(nullptr, {{1, 0}}, 0));
    t.Release(pending.back(), 0);
  }
  for (int i = 0; i < 100'000; ++i) {
    const uint64_t op = t.Create(nullptr, {{1, 0}, {2, 0}}, 0);
    t.Release(op, 0);
    EXPECT_TRUE(t.CompleteKeys(op, 2));
  }
  EXPECT_LE(t.NumSlots(), 64u);
  EXPECT_EQ(t.NumPending(), 8u);
  for (const uint64_t op : pending) t.CompleteKeys(op, 1);
  t.WaitAll();
  EXPECT_EQ(t.NumPending(), 0u);
}

// A completion for an op that was already retired is a protocol bug.
TEST(OpTrackerDeathTest, CompletionForRetiredOpDies) {
  OpTracker t;
  const uint64_t op = t.Create(nullptr, {{1, 0}}, 0);
  t.Release(op, 0);
  t.CompleteKeys(op, 1);
  t.Wait(op);  // retires it
  EXPECT_DEATH(t.CompleteKeys(op, 1), "unknown or retired op");
  t.Create(nullptr, {{1, 0}}, 0);  // the slot now holds another op
  EXPECT_DEATH(t.CompleteKeys(op, 1), "unknown or retired op");
}

// Runs the issuer loop `issuer(progress)` on a thread of its own, which
// bumps `progress` after each wait returns. A wait that misses its wakeup
// stalls progress; since a thread parked for good cannot be joined, the
// deadline then ends the process with a failure instead of hanging.
template <typename Issuer>
void RunWithStallDeadline(const char* what, Issuer issuer) {
  std::atomic<int64_t> progress{0};
  std::atomic<bool> done{false};
  std::thread waiter([&] {
    issuer(progress);
    done.store(true);
  });
  int64_t seen = -1;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!done.load()) {
    const int64_t now_progress = progress.load();
    if (now_progress != seen) {
      seen = now_progress;
      deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    } else if (std::chrono::steady_clock::now() > deadline) {
      std::fprintf(stderr, "%s: waiter stalled after %lld waits\n", what,
                   static_cast<long long>(seen));
      std::fflush(stderr);
      std::_Exit(1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  waiter.join();
}

// Each completion lands around the moment Wait gives up spinning (400 us)
// and parks, so thousands of them race the park handshake.
TEST(OpTrackerTest, ParkedWaitMissesNoWakeup) {
  OpTracker t;
  const int kOps = 2000;
  std::atomic<uint64_t> published{0};
  std::thread completer([&] {
    Rng rng(7);
    uint64_t last = 0;
    for (int i = 0; i < kOps; ++i) {
      uint64_t op;
      while ((op = published.load()) == last) std::this_thread::yield();
      last = op;
      std::this_thread::sleep_for(
          std::chrono::microseconds(330 + rng.Uniform(120)));
      t.CompleteKeys(op, 1);
    }
  });
  RunWithStallDeadline("Wait", [&](std::atomic<int64_t>& progress) {
    for (int i = 0; i < kOps; ++i) {
      const uint64_t op = t.Create(nullptr, {{1, 0}}, 0);
      t.Release(op, 0);
      published.store(op);
      t.Wait(op);
      EXPECT_TRUE(t.IsDone(op));
      progress.fetch_add(1);
    }
  });
  completer.join();
  EXPECT_EQ(t.NumPending(), 0u);
}

// WaitAll parks at once while the completions of each round's ops trickle
// in: it may wake at any of them, but must not return before the last one
// and must not sleep through it.
TEST(OpTrackerTest, ParkedWaitAllMissesNoWakeup) {
  OpTracker t;
  const int kRounds = 1000, kOpsPerRound = 3;
  std::atomic<int> round{-1};
  std::vector<uint64_t> ops(kOpsPerRound);
  std::thread completer([&] {
    Rng rng(11);
    for (int r = 0; r < kRounds; ++r) {
      while (round.load() != r) std::this_thread::yield();
      for (const uint64_t op : ops) {
        const uint64_t us = rng.Uniform(100);
        if (us > 10) std::this_thread::sleep_for(std::chrono::microseconds(us));
        t.CompleteKeys(op, 1);
      }
    }
  });
  RunWithStallDeadline("WaitAll", [&](std::atomic<int64_t>& progress) {
    for (int r = 0; r < kRounds; ++r) {
      for (uint64_t& op : ops) {
        op = t.Create(nullptr, {{1, 0}}, 0);
        t.Release(op, 0);
      }
      round.store(r);
      t.WaitAll();
      EXPECT_EQ(t.NumPending(), 0u);
      // The completer may still be in its last CompleteKeys call; it no
      // longer reads ops once the round's final decrement is made.
      for (const uint64_t op : ops) EXPECT_TRUE(t.IsDone(op));
      progress.fetch_add(1);
    }
  });
  completer.join();
}

// Four completer threads finish one key each of the same ops, as four
// server shards would, while the issuer releases each op with one key of
// its own; WaitAll returns once all are done, and exactly one call per op
// reports finishing it.
TEST(OpTrackerTest, WaitAllWithFourCompletersAndIssuerRelease) {
  OpTracker t;
  const int kRounds = 200, kOpsPerRound = 8, kCompleters = 4;
  std::atomic<uint64_t> slots[kOpsPerRound];
  for (auto& s : slots) s.store(0);
  std::atomic<int> round{-1};
  std::atomic<int> completers_done{0};
  std::atomic<int> finishes{0};
  std::atomic<int> bad_issue_ns{0};
  std::vector<std::thread> completers;
  for (int c = 0; c < kCompleters; ++c) {
    completers.emplace_back([&, c] {
      for (int r = 0; r < kRounds; ++r) {
        while (round.load() < r) std::this_thread::yield();
        for (int i = 0; i < kOpsPerRound; ++i) {
          // Completers walk the ops in different orders.
          const int j = (i + c * 3) % kOpsPerRound;
          uint64_t op;
          while ((op = slots[j].load()) == 0) std::this_thread::yield();
          // Slot fields are read before this completer's own decrement.
          if (t.IssueNs(op) != 1000 * r + j + 1) bad_issue_ns.fetch_add(1);
          if (t.CompleteKeys(op, 1)) finishes.fetch_add(1);
        }
        completers_done.fetch_add(1);
      }
    });
  }
  for (int r = 0; r < kRounds; ++r) {
    round.store(r);
    for (int j = 0; j < kOpsPerRound; ++j) {
      const uint64_t op = t.Create(
          nullptr, {{1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 0}}, 1000 * r + j + 1);
      slots[j].store(op);  // completers may start before the release
      if (t.Release(op, 1)) finishes.fetch_add(1);
    }
    t.WaitAll();
    EXPECT_EQ(t.NumPending(), 0u);
    while (completers_done.load() < kCompleters * (r + 1)) {
      std::this_thread::yield();
    }
    for (auto& s : slots) s.store(0);
  }
  for (auto& th : completers) th.join();
  EXPECT_EQ(finishes.load(), kRounds * kOpsPerRound);
  EXPECT_EQ(bad_issue_ns.load(), 0);
  EXPECT_LE(t.NumSlots(), 4u * kOpsPerRound + 16);
}

}  // namespace
}  // namespace ps
}  // namespace lapse
