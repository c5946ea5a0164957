#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "ps/replica_manager.h"
#include "ps/system.h"
#include "util/timer.h"

// Replica-serving reads for contended read-mostly keys: ReplicaManager
// semantics (pin/read/install/flush epoch/invalidate), the end-to-end
// replica path through Worker/Server (pull-through refresh, pushes to
// pinned keys, read-your-writes, invalidation on ownership moves), and a
// churn stress test that interleaves replicated pulls, pushes, relocation,
// and eviction.

namespace lapse {
namespace {

// ------------------------------------------------- ReplicaManager unit --

ps::KeyLayout TestLayout() {
  return ps::KeyLayout(/*num_keys=*/16, /*uniform_length=*/4,
                       /*num_nodes=*/2);
}

TEST(ReplicaManagerTest, PinInstallReadInvalidateCycle) {
  const ps::KeyLayout layout = TestLayout();
  ps::ReplicaManager rm(&layout, /*staleness_micros=*/100'000,
                        /*num_latches=*/8);
  const Key k = 3;
  std::vector<Val> buf(4, -1.0f);

  // Unpinned: never served.
  EXPECT_FALSE(rm.TryRead(k, buf.data()));
  EXPECT_FALSE(rm.IsPinned(k));

  // Pinned but absent: a miss (counted), so the caller pulls through.
  rm.Pin(k);
  EXPECT_TRUE(rm.IsPinned(k));
  EXPECT_FALSE(rm.TryRead(k, buf.data()));
  EXPECT_EQ(rm.stats().stale_misses, 1);
  EXPECT_EQ(rm.stats().pinned, 1);

  // Installed: served from local memory.
  const std::vector<Val> v = {1.0f, 2.0f, 3.0f, 4.0f};
  rm.Install(k, v.data());
  ASSERT_TRUE(rm.TryRead(k, buf.data()));
  EXPECT_EQ(buf, v);

  // Invalidated (ownership moved): the copy is gone, the pin stays.
  rm.Invalidate(k);
  EXPECT_FALSE(rm.TryRead(k, buf.data()));
  EXPECT_TRUE(rm.IsPinned(k));
  EXPECT_EQ(rm.stats().invalidations, 1);

  // A fresh install revives it.
  rm.Install(k, v.data());
  EXPECT_TRUE(rm.TryRead(k, buf.data()));

  // Unpin drops pin and copy; installs for unpinned keys are ignored.
  EXPECT_FALSE(rm.Unpin(k, buf.data()));  // no folds to hand back
  EXPECT_FALSE(rm.IsPinned(k));
  EXPECT_FALSE(rm.TryRead(k, buf.data()));
  rm.Install(k, v.data());
  EXPECT_FALSE(rm.TryRead(k, buf.data()));
  EXPECT_EQ(rm.stats().pinned, 0);
}

TEST(ReplicaManagerTest, CopyOlderThanStalenessBoundIsNotServed) {
  const ps::KeyLayout layout = TestLayout();
  ps::ReplicaManager rm(&layout, /*staleness_micros=*/1, /*num_latches=*/8);
  const Key k = 5;
  rm.Pin(k);
  const std::vector<Val> v(4, 7.0f);
  rm.Install(k, v.data());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  std::vector<Val> buf(4);
  EXPECT_FALSE(rm.TryRead(k, buf.data()));
  EXPECT_GT(rm.stats().stale_misses, 0);
}

// The read-your-writes guarantee of the class doc: once a drain took
// folds out of the accumulator, no owner snapshot that may lack them is
// installed or returned.
TEST(ReplicaManagerTest, FlushEpochDropsSnapshotsThatMayLackFlushedFolds) {
  const ps::KeyLayout layout = TestLayout();
  ps::ReplicaManager rm(&layout, /*staleness_micros=*/100'000,
                        /*num_latches=*/8, /*flush_micros=*/100'000,
                        /*flush_max_folds=*/100);
  const Key k = 3;
  const std::vector<Val> pre(4, 1.0f), upd(4, 0.5f);
  std::vector<Val> buf(4), out(4, -1.0f), acc(4);
  rm.Pin(k);
  rm.FoldWrite(k, upd.data());

  // Flush in flight (unacked): every snapshot is refused, whatever its
  // issue time -- it cannot be proven to include the flushed fold.
  ASSERT_TRUE(rm.DrainKey(k, acc.data()));
  EXPECT_TRUE(rm.FlushInFlight(k));
  EXPECT_FALSE(rm.Install(k, pre.data(), NowNanos(), out.data()));
  EXPECT_FALSE(rm.TryRead(k, buf.data()));
  EXPECT_FLOAT_EQ(out[0], -1.0f);  // nothing returned either

  // Acked: snapshots requested before the settle point are still refused.
  rm.NoteWriteAcked(k);
  EXPECT_FALSE(rm.FlushInFlight(k));
  EXPECT_FALSE(rm.Install(k, pre.data(), /*issue_ns=*/0, out.data()));
  EXPECT_FALSE(rm.TryRead(k, buf.data()));

  // One requested after the settle point installs, and is the answer.
  ASSERT_TRUE(rm.Install(k, pre.data(), NowNanos(), out.data()));
  ASSERT_TRUE(rm.TryRead(k, buf.data()));
  EXPECT_FLOAT_EQ(buf[0], 1.0f);
  EXPECT_FLOAT_EQ(out[0], 1.0f);

  // Two flushes in flight: the epoch closes with the second ack only.
  rm.FoldWrite(k, upd.data());
  ASSERT_TRUE(rm.DrainKey(k, acc.data()));
  rm.FoldWrite(k, upd.data());
  ASSERT_TRUE(rm.DrainKey(k, acc.data()));
  rm.NoteWriteAcked(k);
  EXPECT_TRUE(rm.FlushInFlight(k));
  EXPECT_FALSE(rm.Install(k, pre.data(), NowNanos()));
  rm.NoteWriteAcked(k);
  EXPECT_FALSE(rm.FlushInFlight(k));
  EXPECT_TRUE(rm.Install(k, pre.data(), NowNanos()));

  // An unpin's hand-back opens the epoch too, and the epoch outlives the
  // pin: pinned again before the ack, the key still refuses snapshots,
  // and so does an unpinned key's pull answer.
  rm.FoldWrite(k, upd.data());
  ASSERT_TRUE(rm.Unpin(k, acc.data()));
  EXPECT_FALSE(rm.Install(k, pre.data(), NowNanos(), out.data()));
  rm.Pin(k);
  EXPECT_FALSE(rm.Install(k, pre.data(), NowNanos()));
  EXPECT_FALSE(rm.TryRead(k, buf.data()));
  rm.NoteWriteAcked(k);
  EXPECT_TRUE(rm.Install(k, pre.data(), NowNanos()));
  EXPECT_TRUE(rm.TryRead(k, buf.data()));
}

// --------------------------------------------------- end-to-end path ----

ps::Config ReplicationConfig2Nodes() {
  ps::Config cfg;
  cfg.num_nodes = 2;
  cfg.workers_per_node = 1;
  cfg.num_keys = 64;
  cfg.uniform_value_length = 4;
  cfg.arch = ps::Architecture::kLapse;
  cfg.latency = net::LatencyConfig::Zero();
  cfg.latency.idle_spin_ns = 0;  // few-core friendliness
  cfg.replication = true;
  // These tests exercise the serving path, not staleness expiry (the
  // ReplicaManager unit test covers that): a bound no scheduler stall on
  // a loaded tsan CI box can cross keeps the zero-fall-through asserts
  // below deterministic.
  cfg.replica_staleness_micros = 60'000'000;
  return cfg;
}

TEST(ReplicaPathTest, ReplicatedRemoteKeyIsServedLocallyAfterPullThrough) {
  ps::Config cfg = ReplicationConfig2Nodes();
  ps::PsSystem system(cfg);
  const Key k = 40;  // homed (and owned) at node 1
  const std::vector<Val> init = {1.0f, 2.0f, 3.0f, 4.0f};
  system.SetValue(k, init.data());

  system.Run([&](ps::Worker& w) {
    if (w.node() != 0) return;
    EXPECT_EQ(w.Replicate({k, k}), 1u);  // duplicates are skipped
    EXPECT_EQ(w.Replicate({k}), 0u);     // already pinned
    std::vector<Val> buf(4, 0.0f);
    // First pull: replica absent -> message path -> installs the copy.
    w.Pull({k}, buf.data());
    EXPECT_EQ(buf, init);
    // Subsequent pulls hit the fresh copy: no new remote reads.
    const int64_t remote_before = system.TotalRemoteReads();
    for (int i = 0; i < 100; ++i) {
      std::fill(buf.begin(), buf.end(), 0.0f);
      w.Pull({k}, buf.data());
      EXPECT_EQ(buf, init);
    }
    EXPECT_EQ(system.TotalRemoteReads(), remote_before);
  });

  EXPECT_GT(system.TotalReplicaReads(), 0);
  EXPECT_EQ(system.OwnerOf(k), 1);  // replication never moved the key
}

TEST(ReplicaPathTest, PushToPinnedKeyIsVisibleAtOnceAndReachesOwner) {
  ps::Config cfg = ReplicationConfig2Nodes();
  ps::PsSystem system(cfg);
  const Key k = 40;

  system.Run([&](ps::Worker& w) {
    if (w.node() != 0) return;
    w.Replicate({k});
    std::vector<Val> buf(4);
    w.Pull({k}, buf.data());  // install the copy
    const std::vector<Val> upd = {1.0f, 1.0f, 1.0f, 1.0f};
    w.Push({k}, upd.data());
    // Read-your-writes through the replica: the local fold is visible
    // immediately, even though the copy is still within the staleness
    // bound and no refresh happened.
    w.Pull({k}, buf.data());
    EXPECT_FLOAT_EQ(buf[0], 1.0f);
  });

  // The teardown flush delivered the folded update to the owner.
  std::vector<Val> final(4);
  system.GetValue(k, final.data());
  EXPECT_FLOAT_EQ(final[0], 1.0f);
  EXPECT_FLOAT_EQ(final[3], 1.0f);
}

// A pull-through refresh in flight while the node flushes its own write
// must not install (or return) its pre-flush snapshot: the flush drained
// the fold from the accumulator, so the snapshot plus the pending folds
// would lack it. Without the flush epoch, the refresh installed and later
// replica reads served the key without this node's own write.
TEST(ReplicaPathTest, ReadYourWritesSurvivesInFlightRefresh) {
  ps::Config cfg = ReplicationConfig2Nodes();
  // A real wire delay makes the interleaving deterministic: the pull's
  // response cannot arrive back before the worker issues the racing push
  // and flush a few instructions later.
  cfg.latency.remote_base_ns = 2'000'000;
  ps::PsSystem system(cfg);
  const Key k = 40;  // homed (and owned) at node 1

  system.Run([&](ps::Worker& w) {
    if (w.node() != 0) return;
    w.Replicate({k});
    std::vector<Val> buf(4, -1.0f);
    // Refresh in flight (the copy is absent, so this pull goes remote)...
    const uint64_t pull_op = w.PullAsync({k}, buf.data());
    // ...and a push folds and is flushed while it races. The pull's
    // snapshot predates the flush; the flush ack trails the pull response
    // on the same owner-to-replica connection.
    const std::vector<Val> upd(4, 1.0f);
    const uint64_t push_op = w.PushAsync({k}, upd.data());
    w.FlushReplicas();
    w.Wait(pull_op);
    w.Wait(push_op);
    // Every read after the push completes must observe the write, whether
    // it is served by the replica or goes remote again.
    std::vector<Val> after(4, -1.0f);
    w.Pull({k}, after.data());
    EXPECT_FLOAT_EQ(after[0], 1.0f);
    EXPECT_FLOAT_EQ(after[3], 1.0f);
  });

  std::vector<Val> final(4);
  system.GetValue(k, final.data());
  EXPECT_FLOAT_EQ(final[0], 1.0f);
}

// A pull of a pinned key that misses the stale copy returns the owner's
// snapshot plus this node's pending folds: the node's own completed push
// is in the answer before any flush carried it to the owner.
TEST(ReplicaPathTest, PinnedPullMissIncludesPendingFolds) {
  ps::Config cfg = ReplicationConfig2Nodes();
  cfg.replica_staleness_micros = 1'000;
  // The fold stays pending: no trigger fires before the teardown flush.
  cfg.replica_flush_micros = 1'000;
  cfg.replica_flush_max_folds = 1'000;
  ps::PsSystem system(cfg);
  const Key k = 40;  // homed (and owned) at node 1

  system.Run([&](ps::Worker& w) {
    if (w.node() != 0) return;
    w.Replicate({k});
    std::vector<Val> buf(4, -1.0f);
    w.Pull({k}, buf.data());  // install the copy
    const std::vector<Val> upd(4, 1.0f);
    w.Push({k}, upd.data());
    ASSERT_EQ(system.replica_manager(0)->PendingFolds(k), 1u);
    // Let the copy go stale, so the next pull goes to the owner.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const int64_t remote_before = system.TotalRemoteReads();
    w.Pull({k}, buf.data());
    EXPECT_EQ(system.TotalRemoteReads(), remote_before + 1);
    EXPECT_FLOAT_EQ(buf[0], 1.0f);
    EXPECT_FLOAT_EQ(buf[3], 1.0f);
  });

  std::vector<Val> final(4);
  system.GetValue(k, final.data());
  EXPECT_FLOAT_EQ(final[0], 1.0f);
}

TEST(ReplicaPathTest, OwnershipMoveInvalidatesTheReplica) {
  ps::Config cfg = ReplicationConfig2Nodes();
  ps::PsSystem system(cfg);
  const Key k = 40;  // homed at node 1

  system.Run([&](ps::Worker& w) {
    if (w.node() != 0) return;
    std::vector<Val> buf(4);
    w.Replicate({k});
    w.Pull({k}, buf.data());  // pull-through installs the copy
    ASSERT_TRUE(system.replica_manager(0)->TryRead(k, buf.data()));
    // Take the key: the home flips its owner view and fires invalidations
    // at every registered holder before it sends the transfer, and both
    // ride the same FIFO connection -- by the time Localize() returns,
    // this node's copy is gone.
    w.Localize({k});
    EXPECT_FALSE(system.replica_manager(0)->TryRead(k, buf.data()));
    EXPECT_EQ(system.replica_manager(0)->stats().invalidations, 1);
  });

  EXPECT_EQ(system.OwnerOf(k), 0);
  // The pin survives the move, so a later read (after this node loses the
  // key again) would fault a fresh copy back in.
  EXPECT_TRUE(system.replica_manager(0)->IsPinned(k));
}

TEST(ReplicaPathTest, PullIfLocalCountsFreshReplicaAsLocal) {
  ps::Config cfg = ReplicationConfig2Nodes();
  ps::PsSystem system(cfg);
  const Key replicated = 40, plain_remote = 50;
  const std::vector<Val> init = {5.0f, 6.0f, 7.0f, 8.0f};
  system.SetValue(replicated, init.data());

  system.Run([&](ps::Worker& w) {
    if (w.node() != 0) return;
    std::vector<Val> buf(4, 0.0f);
    w.Replicate({replicated});
    // Absent copy: PullIfLocal must stay non-blocking and miss.
    EXPECT_FALSE(w.PullIfLocal(replicated, buf.data()));
    w.Pull({replicated}, buf.data());  // fault the copy in
    std::fill(buf.begin(), buf.end(), 0.0f);
    EXPECT_TRUE(w.PullIfLocal(replicated, buf.data()));
    EXPECT_EQ(buf, init);
    // Un-replicated remote keys still miss.
    EXPECT_FALSE(w.PullIfLocal(plain_remote, buf.data()));
    // Owned keys still hit.
    EXPECT_TRUE(w.PullIfLocal(Key{3}, buf.data()));
  });

  EXPECT_GT(system.TotalReplicaReads(), 0);
}

// -------------------------------------------------- churn stress (tsan) --

// Interleaves replica-served pulls, pushes to the pinned key, relocation of
// the replicated key, and eviction, asserting the staleness contract the
// whole time: a replica-served read returns a value the then-current
// owner held at most staleness + one fetch round-trip ago. Ownership
// moves must invalidate replicas (a copy that kept serving the old
// owner's value stream past the bound fails the assertion), and no push
// may be lost across any interleaving.
TEST(ReplicaChurnStressTest, StalenessHoldsAcrossRelocationAndEviction) {
  ps::Config cfg;
  cfg.num_nodes = 3;
  cfg.workers_per_node = 1;
  cfg.num_keys = 64;
  cfg.uniform_value_length = 4;
  cfg.arch = ps::Architecture::kLapse;
  cfg.latency = net::LatencyConfig::Zero();
  cfg.latency.idle_spin_ns = 0;
  cfg.replication = true;
  cfg.replica_staleness_micros = 5'000;
  ps::PsSystem system(cfg);
  const Key k = 30;  // homed at node 1
  ASSERT_EQ(system.layout().Home(k), 1);

  const int64_t staleness_ns = cfg.replica_staleness_micros * 1000;
  // Covers the fetch round-trip plus scheduling noise on loaded/tsan CI.
  const int64_t slack_ns = 1'000'000'000;
  constexpr double kRunSeconds = 3.0;

  // The writer appends (ack time, cumulative count) after every
  // synchronous push; timestamps are monotone, so readers lower-bound the
  // owner state at any past instant by binary search.
  std::mutex history_mu;
  std::vector<std::pair<int64_t, int64_t>> history;
  std::atomic<int64_t> total_pushes{0};
  std::atomic<bool> stop{false};

  auto owner_count_before = [&](int64_t ns) {
    std::lock_guard<std::mutex> lock(history_mu);
    auto it = std::upper_bound(
        history.begin(), history.end(), std::make_pair(ns, INT64_MAX));
    return it == history.begin() ? int64_t{0} : std::prev(it)->second;
  };

  system.Run([&](ps::Worker& w) {
    std::vector<Val> buf(4, 0.0f);
    const std::vector<Val> one = {1.0f, 0.0f, 0.0f, 0.0f};
    const std::vector<Val> zero(4, 0.0f);
    Timer t;
    if (w.node() == 0) {
      // Reader: replica-served pulls + occasional pushes of zero (folds
      // and flushes, without perturbing the counter).
      w.Replicate({k});
      int64_t reads = 0;
      // Extend past the nominal run until at least one replica-served
      // read happened: on an overloaded machine every copy can go stale
      // (scheduling gaps exceed the staleness bound) for seconds at a
      // time, and the test asserts the replica path was exercised.
      while (t.ElapsedSeconds() < kRunSeconds ||
             (system.TotalReplicaReads() == 0 &&
              t.ElapsedSeconds() < kRunSeconds + 15.0)) {
        w.Pull({k}, buf.data());
        const int64_t now = NowNanos();
        const int64_t floor =
            owner_count_before(now - staleness_ns - slack_ns);
        ASSERT_GE(static_cast<int64_t>(buf[0]), floor)
            << "replica-served read violated the staleness bound";
        if (++reads % 64 == 0) w.Push({k}, zero.data());
      }
      stop.store(true);
    } else if (w.node() == 1) {
      // Writer (at the key's home): synchronous +1 pushes; each ack means
      // the owner applied the update before now.
      while (!stop.load() && t.ElapsedSeconds() < kRunSeconds + 20.0) {
        w.Push({k}, one.data());
        const int64_t n = total_pushes.fetch_add(1) + 1;
        std::lock_guard<std::mutex> lock(history_mu);
        history.emplace_back(NowNanos(), n);
      }
    } else {
      // Churn driver: bounce ownership with localize/evict so the home
      // keeps firing invalidations at the reader's replica.
      while (!stop.load() && t.ElapsedSeconds() < kRunSeconds + 20.0) {
        w.Localize({k});
        w.Pull({k}, buf.data());
        w.Evict({k});
      }
    }
  });

  // No push was lost across any relocation/eviction/replication
  // interleaving, and the final value lives at the current owner.
  std::vector<Val> final(4);
  system.GetValue(k, final.data());
  EXPECT_EQ(static_cast<int64_t>(final[0]), total_pushes.load());

  // The replica path and the invalidation path were both actually
  // exercised.
  EXPECT_GT(system.TotalReplicaReads(), 0);
  EXPECT_GT(system.replica_manager(0)->stats().installs, 0);
  EXPECT_GT(system.replica_manager(0)->stats().invalidations, 0);

  // No stale replica survives an ownership move: after the system
  // settled, the reader's copy either vanished with the last invalidation
  // or reflects a value the final owner served -- re-reading through the
  // replica manager can only return the settled counter value.
  std::vector<Val> replica_val(4, -1.0f);
  if (system.replica_manager(0)->TryRead(k, replica_val.data())) {
    EXPECT_LE(static_cast<int64_t>(replica_val[0]), total_pushes.load());
  }
}

}  // namespace
}  // namespace lapse
