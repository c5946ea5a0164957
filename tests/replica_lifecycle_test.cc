#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "adapt/placement_policy.h"
#include "ps/replica_manager.h"
#include "ps/system.h"
#include "util/timer.h"

// Replica lifecycle: write aggregation (Petuum-style accumulators) and
// policy-driven unpinning, from unit semantics (no fold lost across any
// flush/drain boundary) through the unpin protocol (policy decision ->
// Worker::Unreplicate -> kReplicaUnregister shrinking the home's
// directory) to a churn stress that races flushes against
// invalidate-on-move.

namespace lapse {
namespace {

// ------------------------------------------- accumulator unit semantics --

ps::KeyLayout TestLayout() {
  return ps::KeyLayout(/*num_keys=*/16, /*uniform_length=*/4,
                       /*num_nodes=*/2);
}

ps::ReplicaManager MakeAggregating(const ps::KeyLayout* layout,
                                   uint32_t max_folds = 4,
                                   int64_t flush_micros = 50'000'000) {
  return ps::ReplicaManager(layout, /*staleness_micros=*/50'000'000,
                            /*num_latches=*/8, flush_micros, max_folds);
}

TEST(ReplicaAggregationTest, FoldWriteAccumulatesAndDrainKeyResets) {
  const ps::KeyLayout layout = TestLayout();
  ps::ReplicaManager rm = MakeAggregating(&layout);
  const Key k = 3;
  const std::vector<Val> upd = {1.0f, 2.0f, 3.0f, 4.0f};

  // Unpinned: the caller must send the push itself.
  EXPECT_EQ(rm.FoldWrite(k, upd.data()),
            ps::ReplicaManager::FoldOutcome::kNotPinned);

  rm.Pin(k);
  EXPECT_EQ(rm.FoldWrite(k, upd.data()),
            ps::ReplicaManager::FoldOutcome::kFolded);
  EXPECT_EQ(rm.FoldWrite(k, upd.data()),
            ps::ReplicaManager::FoldOutcome::kFolded);
  EXPECT_EQ(rm.PendingFolds(k), 2u);
  EXPECT_EQ(rm.stats().folds, 2);

  std::vector<Val> acc(4, -1.0f);
  ASSERT_TRUE(rm.DrainKey(k, acc.data()));
  for (size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(acc[i], 2.0f * upd[i]);
  EXPECT_EQ(rm.PendingFolds(k), 0u);
  // A second drain finds nothing: folds are delivered exactly once.
  EXPECT_FALSE(rm.DrainKey(k, acc.data()));
  EXPECT_EQ(rm.stats().flushed_keys, 1);
}

TEST(ReplicaAggregationTest, FoldCountTriggersFlushDue) {
  const ps::KeyLayout layout = TestLayout();
  ps::ReplicaManager rm = MakeAggregating(&layout, /*max_folds=*/3);
  const Key k = 5;
  const std::vector<Val> upd(4, 1.0f);
  rm.Pin(k);
  EXPECT_EQ(rm.FoldWrite(k, upd.data()),
            ps::ReplicaManager::FoldOutcome::kFolded);
  EXPECT_EQ(rm.FoldWrite(k, upd.data()),
            ps::ReplicaManager::FoldOutcome::kFolded);
  EXPECT_EQ(rm.FoldWrite(k, upd.data()),
            ps::ReplicaManager::FoldOutcome::kFoldedFlushDue);
  // Still due until someone drains.
  EXPECT_EQ(rm.FoldWrite(k, upd.data()),
            ps::ReplicaManager::FoldOutcome::kFoldedFlushDue);
}

TEST(ReplicaAggregationTest, FoldAgeTriggersFlushDue) {
  const ps::KeyLayout layout = TestLayout();
  ps::ReplicaManager rm =
      MakeAggregating(&layout, /*max_folds=*/1000, /*flush_micros=*/1000);
  const Key k = 2;
  const std::vector<Val> upd(4, 1.0f);
  rm.Pin(k);
  EXPECT_FALSE(rm.FlushDue());  // nothing folded yet
  EXPECT_EQ(rm.FoldWrite(k, upd.data()),
            ps::ReplicaManager::FoldOutcome::kFolded);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  // The node's oldest fold aged past the bound: the flush is due before
  // the next push folds, whichever key that push hits. The fold itself
  // only reports the count trigger.
  EXPECT_TRUE(rm.FlushDue());
  const Key other = 7;
  rm.Pin(other);
  EXPECT_EQ(rm.FoldWrite(other, upd.data()),
            ps::ReplicaManager::FoldOutcome::kFolded);
  std::vector<Key> keys;
  std::vector<Val> vals;
  EXPECT_EQ(rm.DrainDirty(&keys, &vals), 2u);
  EXPECT_FALSE(rm.FlushDue());
}

TEST(ReplicaAggregationTest, SingleKeyDrainReArmsTheAgeClock) {
  const ps::KeyLayout layout = TestLayout();
  ps::ReplicaManager rm =
      MakeAggregating(&layout, /*max_folds=*/1000, /*flush_micros=*/1000);
  const Key k = 2;
  const std::vector<Val> upd(4, 1.0f);
  rm.Pin(k);
  rm.FoldWrite(k, upd.data());
  std::vector<Val> acc(4);
  ASSERT_TRUE(rm.DrainKey(k, acc.data()));  // e.g. an invalidation drain
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  // The set went clean with the drain, so a fresh fold after the flush
  // interval starts a NEW age window -- a stale timestamp would report
  // the flush as due and degrade aggregation to one flush per push after
  // every invalidation.
  EXPECT_FALSE(rm.FlushDue());
  EXPECT_EQ(rm.FoldWrite(k, upd.data()),
            ps::ReplicaManager::FoldOutcome::kFolded);
}

TEST(ReplicaAggregationTest, DrainDirtyCoalescesAllDirtyKeysOnce) {
  const ps::KeyLayout layout = TestLayout();
  ps::ReplicaManager rm = MakeAggregating(&layout);
  const std::vector<Val> upd(4, 1.0f);
  for (Key k = 0; k < 6; ++k) {
    rm.Pin(k);
    for (Key f = 0; f <= k; ++f) rm.FoldWrite(k, upd.data());
  }
  std::vector<Key> keys;
  std::vector<Val> vals;
  EXPECT_EQ(rm.DrainDirty(&keys, &vals), 6u);
  ASSERT_EQ(vals.size(), 4 * keys.size());
  std::vector<std::pair<Key, Val>> drained;
  for (size_t i = 0; i < keys.size(); ++i) {
    drained.emplace_back(keys[i], vals[4 * i]);
  }
  std::sort(drained.begin(), drained.end());
  ASSERT_EQ(drained.size(), 6u);
  for (Key k = 0; k < 6; ++k) {
    EXPECT_EQ(drained[k].first, k);
    EXPECT_FLOAT_EQ(drained[k].second, static_cast<Val>(k + 1));
  }
  // Everything was delivered; a second drain is empty.
  keys.clear();
  vals.clear();
  EXPECT_EQ(rm.DrainDirty(&keys, &vals), 0u);
  EXPECT_TRUE(keys.empty() && vals.empty());
}

TEST(ReplicaAggregationTest, InstallReappliesPendingFoldsOnTop) {
  const ps::KeyLayout layout = TestLayout();
  ps::ReplicaManager rm = MakeAggregating(&layout);
  const Key k = 4;
  rm.Pin(k);
  const std::vector<Val> upd(4, 2.0f);
  rm.FoldWrite(k, upd.data());
  // A refresh that was in flight when the fold happened carries an owner
  // snapshot without it; the install must put the pending fold back on
  // top or the node's own write would vanish from its visible copy.
  const std::vector<Val> snapshot(4, 10.0f);
  rm.Install(k, snapshot.data());
  std::vector<Val> buf(4);
  ASSERT_TRUE(rm.TryRead(k, buf.data()));
  for (const Val v : buf) EXPECT_FLOAT_EQ(v, 12.0f);
  // The accumulator is untouched by the install: the fold still travels
  // to the owner exactly once.
  EXPECT_EQ(rm.PendingFolds(k), 1u);
}

TEST(ReplicaAggregationTest, UnpinHandsPendingFoldsToTheCaller) {
  const ps::KeyLayout layout = TestLayout();
  ps::ReplicaManager rm = MakeAggregating(&layout);
  const Key k = 6;
  rm.Pin(k);
  const std::vector<Val> upd = {1.0f, 2.0f, 3.0f, 4.0f};
  rm.FoldWrite(k, upd.data());
  rm.FoldWrite(k, upd.data());
  std::vector<Val> pending(4, 0.0f);
  EXPECT_TRUE(rm.Unpin(k, pending.data()));
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(pending[i], 2.0f * upd[i]);
  }
  EXPECT_FALSE(rm.IsPinned(k));
  EXPECT_EQ(rm.stats().unpins, 1);
  // Unpinning without pending folds reports none.
  rm.Pin(k);
  EXPECT_FALSE(rm.Unpin(k, pending.data()));
}

// No fold lost across flush boundaries: writers fold concurrently with a
// drainer that flushes in rounds; the sum of everything drained (plus a
// final sweep) must equal the sum of everything folded, and the drained
// total is monotone, never overtaking the writers' acked-fold history.
TEST(ReplicaAggregationTest, ConcurrentFoldsAndDrainsConserveEveryFold) {
  const ps::KeyLayout layout = TestLayout();
  ps::ReplicaManager rm = MakeAggregating(&layout, /*max_folds=*/8);
  constexpr int kWriters = 3;
  constexpr int kFoldsPerWriter = 4000;
  const std::vector<Val> one(4, 1.0f);
  for (Key k = 0; k < 4; ++k) rm.Pin(k);

  // Announced *before* the fold lands, so at any instant the history is
  // an upper bound on what a drain can possibly collect.
  std::atomic<int64_t> folded{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kFoldsPerWriter; ++i) {
        const Key k = static_cast<Key>((w + i) % 4);
        folded.fetch_add(1, std::memory_order_release);
        ASSERT_NE(rm.FoldWrite(k, one.data()),
                  ps::ReplicaManager::FoldOutcome::kNotPinned);
      }
    });
  }

  double drained_total = 0;
  double prev_total = 0;
  std::vector<Key> keys;
  std::vector<Val> vals;
  auto drain = [&] {
    keys.clear();
    vals.clear();
    rm.DrainDirty(&keys, &vals);
    for (size_t i = 0; i < vals.size(); i += 4) drained_total += vals[i];
  };
  std::thread drainer([&] {
    while (!done.load(std::memory_order_acquire)) {
      drain();
      // Monotone, and never more than the writers have acked: a drained
      // fold must exist in the writer history before it can be drained.
      ASSERT_GE(drained_total, prev_total);
      ASSERT_LE(drained_total,
                static_cast<double>(folded.load(std::memory_order_acquire)));
      prev_total = drained_total;
      std::this_thread::yield();
    }
  });

  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  drainer.join();
  // Final sweep: whatever the last round missed is still in the
  // accumulators -- nothing vanished, nothing was double-delivered.
  drain();
  EXPECT_DOUBLE_EQ(drained_total,
                   static_cast<double>(kWriters) * kFoldsPerWriter);
  EXPECT_EQ(rm.stats().folds, int64_t{kWriters} * kFoldsPerWriter);
}

// ------------------------------------------------ policy unpin decisions --

ps::AdaptiveConfig PolicyConfig() {
  ps::AdaptiveConfig cfg;
  cfg.enabled = true;
  cfg.min_tick_samples = 0;  // deterministic per-call windows
  cfg.hot_threshold = 4.0;
  cfg.cold_threshold = 0.5;
  cfg.decay = 0.5;
  cfg.churn_limit = 1;
  cfg.replicate_read_fraction = 0.9;
  cfg.unreplicate_read_fraction = 0.5;
  cfg.unreplicate_cold_windows = 3;
  return cfg;
}

TEST(PlacementPolicyUnpinTest, WriteHeavyPinnedKeyIsUnreplicated) {
  adapt::PlacementPolicy policy(PolicyConfig(), /*node=*/0);
  const Key k = 7;
  auto not_owned = [](Key) { return false; };
  auto home = [](Key) { return NodeId{1}; };
  auto pinned = [k](Key q) { return q == k; };

  // Hot but write-heavy (read fraction 2/10 < 0.5): the pin stops paying
  // for itself; after unreplicate_cold_windows (3) such windows in a row
  // it is dropped -- one window alone must NOT unpin (noise resistance).
  adapt::Decisions d;
  int windows = 0;
  while (d.unreplicate.empty()) {
    ASSERT_LT(++windows, 16) << "policy never unpinned a write-heavy key";
    for (int i = 0; i < 2; ++i) policy.Record(k, /*is_write=*/false);
    for (int i = 0; i < 8; ++i) policy.Record(k, /*is_write=*/true);
    policy.Tick(not_owned, home, pinned, &d);
  }
  ASSERT_EQ(d.unreplicate.size(), 1u);
  EXPECT_EQ(d.unreplicate[0], k);
  EXPECT_TRUE(d.localize.empty());
  EXPECT_EQ(windows, 3);  // exactly the configured hysteresis

  // Read-mostly pinned keys stay pinned, however many windows pass.
  adapt::PlacementPolicy keep(PolicyConfig(), 0);
  adapt::Decisions d2;
  for (int w = 0; w < 8; ++w) {
    for (int i = 0; i < 9; ++i) keep.Record(k, false);
    keep.Record(k, true);
    keep.Tick(not_owned, home, pinned, &d2);
    EXPECT_TRUE(d2.unreplicate.empty());
  }
}

TEST(PlacementPolicyUnpinTest, MidBandWriteHeavyPinnedKeyStillUnpins) {
  // Regression: scores between cold_threshold and hot_threshold used to
  // fall in a dead band where neither the cold path nor the
  // write-heavy path could ever fire, leaving the pin immortal.
  adapt::PlacementPolicy policy(PolicyConfig(), /*node=*/0);
  const Key k = 11;
  auto not_owned = [](Key) { return false; };
  auto home = [](Key) { return NodeId{1}; };
  auto pinned = [k](Key q) { return q == k; };
  adapt::Decisions d;
  int windows = 0;
  while (d.unreplicate.empty()) {
    ASSERT_LT(++windows, 16)
        << "mid-band write-heavy pinned key never unpinned";
    // Score 2 per window: warm (>= cold 0.5) but below hot (4), all
    // writes -> read fraction 0 < 0.5, so the pin is not paying.
    policy.Record(k, /*is_write=*/true);
    policy.Record(k, /*is_write=*/true);
    policy.Tick(not_owned, home, pinned, &d);
  }
  EXPECT_EQ(d.unreplicate[0], k);
  EXPECT_EQ(windows, 3);
}

TEST(PlacementPolicyUnpinTest,
     ColdPinnedKeyIsUnreplicatedAfterNWindowsAndLocalizableAgain) {
  adapt::PlacementPolicy policy(PolicyConfig(), /*node=*/0);
  const Key k = 9;
  auto not_owned = [](Key) { return false; };
  auto home = [](Key) { return NodeId{1}; };
  bool is_pinned = true;
  auto pinned = [&](Key q) { return q == k && is_pinned; };

  // Warm it up once so the policy tracks the key, then go silent.
  for (int i = 0; i < 8; ++i) policy.Record(k, false);
  adapt::Decisions d;
  policy.Tick(not_owned, home, pinned, &d);
  EXPECT_TRUE(d.unreplicate.empty());

  // decay 0.5: scores 4 -> 2 -> 1 -> ... fall under cold_threshold 0.5
  // after a few silent windows; from then on unreplicate_cold_windows = 3
  // closed windows must pass before the unpin fires.
  int windows_until_unpin = 0;
  while (d.unreplicate.empty()) {
    ASSERT_LT(++windows_until_unpin, 32) << "policy never unpinned";
    d.unreplicate.clear();
    policy.Tick(not_owned, home, pinned, &d);
  }
  EXPECT_EQ(d.unreplicate[0], k);
  EXPECT_GE(windows_until_unpin, 3);  // the hysteresis actually counted

  // Unpinned keys are ordinary again: with fresh heat and churn wiped the
  // key becomes a localize candidate instead of staying parked.
  is_pinned = false;
  for (int i = 0; i < 8; ++i) policy.Record(k, false);
  adapt::Decisions d3;
  policy.Tick(not_owned, home, pinned, &d3);
  ASSERT_EQ(d3.localize.size(), 1u);
  EXPECT_EQ(d3.localize[0], k);
}

// ------------------------------------------------- unpin end to end ------

ps::Config ReplicationConfig2Nodes() {
  ps::Config cfg;
  cfg.num_nodes = 2;
  cfg.workers_per_node = 1;
  cfg.num_keys = 64;
  cfg.uniform_value_length = 4;
  cfg.arch = ps::Architecture::kLapse;
  cfg.latency = net::LatencyConfig::Zero();
  cfg.latency.idle_spin_ns = 0;
  cfg.replication = true;
  cfg.replica_staleness_micros = 60'000'000;
  // Flush triggers far away: the tests below control draining explicitly
  // (Unreplicate, teardown), so accumulator contents stay deterministic
  // even when a loaded CI box stalls a worker mid-sequence.
  cfg.replica_flush_micros = 60'000'000;
  cfg.replica_flush_max_folds = 1000;
  return cfg;
}

// Unreplicate drains pending folds to the owner, shrinks the home's
// replica directory (kReplicaUnregister), stops later ownership moves
// from invalidating this node, and leaves the key localizable.
TEST(ReplicaUnpinPathTest, UnreplicateFlushesShrinksDirectoryAndRelocates) {
  ps::Config cfg = ReplicationConfig2Nodes();
  ps::PsSystem system(cfg);
  const Key k = 40;  // homed (and initially owned) at node 1

  system.Run([&](ps::Worker& w) {
    if (w.node() != 0) return;
    std::vector<Val> buf(4, 0.0f);
    const std::vector<Val> one(4, 1.0f);
    ASSERT_EQ(w.Replicate({k}), 1u);
    w.Pull({k}, buf.data());  // install the copy
    // Three folds sit in the accumulator (flush triggers are far away).
    for (int i = 0; i < 3; ++i) w.Push({k}, one.data());
    EXPECT_EQ(system.replica_manager(0)->PendingFolds(k), 3u);

    // Unpin: pending folds leave for the owner, the pin drops, the home
    // forgets this holder.
    EXPECT_EQ(w.Unreplicate({k, k}), 1u);  // duplicates are skipped
    EXPECT_EQ(w.Unreplicate({k}), 0u);     // already unpinned
    EXPECT_FALSE(system.replica_manager(0)->IsPinned(k));
    w.WaitAll();  // the flush op acked: the owner applied the folds
    std::fill(buf.begin(), buf.end(), 0.0f);
    w.Pull({k}, buf.data());
    EXPECT_FLOAT_EQ(buf[0], 3.0f);  // nothing lost to the unpin

    // Ownership move after the unregister: the home must NOT invalidate
    // this node anymore (the directory shrank), and the key relocates
    // normally -- unpinned keys are eligible for localize again.
    w.Localize({k});
    EXPECT_TRUE(w.IsLocal(k));
  });

  EXPECT_EQ(system.OwnerOf(k), 0);
  EXPECT_EQ(system.replica_manager(0)->stats().invalidations, 0);
  // The home recorded exactly one unregistration.
  EXPECT_EQ(system.NodeReplicaUnregisters(1), 1);
  std::vector<Val> final(4);
  system.GetValue(k, final.data());
  EXPECT_FLOAT_EQ(final[0], 3.0f);
}

// Policy-driven unpin end to end: a manually pinned key turns
// write-heavy; the placement engine observes the mix through its sample
// rings and unpins it (Worker::Unreplicate on the manager's worker), with
// no pushed update lost across the transition.
TEST(ReplicaUnpinPathTest, PolicyUnpinsWriteHeavyKeyEndToEnd) {
  ps::Config cfg = ReplicationConfig2Nodes();
  cfg.adaptive.enabled = true;
  cfg.adaptive.sample_period = 1;
  cfg.adaptive.tick_micros = 2000;
  cfg.adaptive.min_tick_samples = 16;
  cfg.adaptive.hot_threshold = 4.0;
  cfg.adaptive.cold_threshold = 0.5;
  cfg.adaptive.unreplicate_read_fraction = 0.5;
  // Aggregation keeps the accumulator busy across the unpin.
  cfg.replica_flush_max_folds = 7;
  ps::PsSystem system(cfg);
  const Key k = 40;  // homed at node 1

  std::atomic<int64_t> pushes{0};
  system.Run([&](ps::Worker& w) {
    if (w.node() != 0) return;
    std::vector<Val> buf(4, 0.0f);
    const std::vector<Val> one(4, 1.0f);
    w.Replicate({k});
    w.Pull({k}, buf.data());
    // Write-hammer the pinned key until the engine drops the pin.
    Timer t;
    while (system.replica_manager(0)->IsPinned(k)) {
      ASSERT_LT(t.ElapsedSeconds(), 30.0)
          << "placement engine never unpinned the write-heavy key";
      w.Push({k}, one.data());
      pushes.fetch_add(1);
    }
    // Unpinned: pushes keep flowing (now sent to the owner directly).
    for (int i = 0; i < 10; ++i) {
      w.Push({k}, one.data());
      pushes.fetch_add(1);
    }
  });

  int64_t unpinned = 0;
  for (NodeId n = 0; n < cfg.num_nodes; ++n) {
    unpinned += system.placement_manager(n).stats().replicas_unpinned;
  }
  EXPECT_EQ(unpinned, 1);
  EXPECT_EQ(system.replica_manager(0)->stats().unpins, 1);
  // Conservation across pin -> aggregate -> unpin -> direct pushes.
  std::vector<Val> final(4);
  system.GetValue(k, final.data());
  EXPECT_EQ(static_cast<int64_t>(final[0]), pushes.load());
}

// ----------------------------------- churn stress: flush vs invalidate --

// Interleaves aggregated pushes (frequent flushes), ownership churn
// (localize/evict driving kReplicaInvalidate at the pushing node), and
// replica-served reads. The drain-before-invalidate protocol must deliver
// every fold exactly once: the settled owner value equals the sum of all
// acked pushes, across every interleaving of flush and invalidation.
TEST(ReplicaFlushChurnStressTest, NoFoldLostAcrossInvalidateOnMove) {
  // Once per server sharding level: the drain-confinement of the sharded
  // server must preserve the exactly-once fold delivery too.
  for (const int server_threads : {1, 4}) {
  SCOPED_TRACE("server_threads=" + std::to_string(server_threads));
  ps::Config cfg;
  cfg.server_threads = server_threads;
  cfg.num_nodes = 3;
  cfg.workers_per_node = 1;
  cfg.num_keys = 64;
  cfg.uniform_value_length = 4;
  cfg.arch = ps::Architecture::kLapse;
  cfg.latency = net::LatencyConfig::Zero();
  cfg.latency.idle_spin_ns = 0;
  cfg.replication = true;
  cfg.replica_staleness_micros = 5'000;
  cfg.replica_flush_micros = 2'000;
  cfg.replica_flush_max_folds = 4;  // flush every few folds
  ps::PsSystem system(cfg);
  const Key k = 30;  // homed at node 1
  ASSERT_EQ(system.layout().Home(k), 1);

  constexpr double kRunSeconds = 2.0;
  std::atomic<int64_t> writer_pushes{0};
  std::atomic<int64_t> home_pushes{0};
  std::atomic<bool> stop{false};

  system.Run([&](ps::Worker& w) {
    std::vector<Val> buf(4, 0.0f);
    const std::vector<Val> one = {1.0f, 0.0f, 0.0f, 0.0f};
    Timer t;
    if (w.node() == 0) {
      // Aggregating writer: every push folds locally; flushes race the
      // invalidations the churn driver provokes.
      w.Replicate({k});
      int64_t n = 0;
      while (t.ElapsedSeconds() < kRunSeconds) {
        w.Push({k}, one.data());
        writer_pushes.fetch_add(1);
        if (++n % 32 == 0) w.Pull({k}, buf.data());
      }
      stop.store(true);
    } else if (w.node() == 1) {
      // Home-side writer: tracked pushes interleave with the folds
      // arriving from node 0's flushes and the server-side drains.
      while (!stop.load() && t.ElapsedSeconds() < kRunSeconds + 20.0) {
        w.Push({k}, one.data());
        home_pushes.fetch_add(1);
      }
    } else {
      // Churn driver: bounce ownership so the home keeps firing
      // kReplicaInvalidate at the writer's replica mid-flush.
      while (!stop.load() && t.ElapsedSeconds() < kRunSeconds + 20.0) {
        w.Localize({k});
        w.Pull({k}, buf.data());
        w.Evict({k});
      }
    }
  });

  // Every fold reached the owner exactly once, through worker flushes,
  // server-side invalidation drains, and teardown flushes combined.
  std::vector<Val> final(4);
  system.GetValue(k, final.data());
  EXPECT_EQ(static_cast<int64_t>(final[0]),
            writer_pushes.load() + home_pushes.load());

  // The race was actually exercised: folds were aggregated, flushed, and
  // the writer's replica got invalidated while dirty at least once.
  const ps::ReplicaManagerStats rs = system.replica_manager(0)->stats();
  EXPECT_GT(rs.folds, 0);
  EXPECT_GT(rs.flushed_keys, 0);
  EXPECT_GT(rs.invalidations, 0);
  }
}

}  // namespace
}  // namespace lapse
