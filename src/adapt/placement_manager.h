#ifndef LAPSE_ADAPT_PLACEMENT_MANAGER_H_
#define LAPSE_ADAPT_PLACEMENT_MANAGER_H_

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "adapt/access_stats.h"
#include "adapt/placement_policy.h"
#include "net/network.h"
#include "obs/histogram.h"
#include "ps/node_context.h"
#include "ps/worker.h"
#include "util/stats.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace lapse {
namespace adapt {

// The counters of one node's placement manager, X(name, kind), written by
// its thread; the registry names them node{n}.adapt.<name>.
#define LAPSE_ADAPT_STATS(X)                                               \
  X(ticks, kCumulative)                                                    \
  /* Samples drained from the worker rings. */                             \
  X(samples, kCumulative)                                                  \
  /* Ring overflows (the manager fell behind), taken at each drain. */     \
  X(dropped_samples, kCumulative)                                          \
  X(localizes_issued, kCumulative)                                         \
  X(evictions_issued, kCumulative)                                         \
  X(replication_flags, kCumulative)                                        \
  /* Flagged keys actually pinned into the node's ReplicaManager (0        \
     unless Config::replication is on). */                                 \
  X(replicas_pinned, kCumulative)                                          \
  /* Pinned keys unpinned again by policy decision (read fraction dropped  \
     below unreplicate_read_fraction, or cold for unreplicate_cold_windows \
     windows). */                                                          \
  X(replicas_unpinned, kCumulative)

// A snapshot of one node's placement-manager counters (monitoring only).
struct AdaptStats {
  LAPSE_STAT_INT64_STRUCT(LAPSE_ADAPT_STATS)
};

// Per-node background thread that makes relocation automatic: drains the
// workers' sample rings, feeds the PlacementPolicy, and acts on its
// decisions -- LocalizeAsync for hot remote keys, Evict for keys gone
// cold, and (with Config::replication on) Replicate and Unreplicate for
// contended read-mostly keys.
//
// The manager issues protocol operations through its own ps::Worker on a
// dedicated thread slot (Config::manager_slot()), so its localizes ride the
// exact same relocation protocol, deferral queues, and trackers as
// application localizes.
//
// Lifecycle: constructed paused (acting on an idle system would only
// evict). PsSystem::Run resumes all managers while workers run and pauses
// them (draining their in-flight operations) before it quiesces the
// network, so Run()'s settled-stats guarantee still holds.
class PlacementManager {
 public:
  PlacementManager(ps::NodeContext* ctx, net::Network* network);
  ~PlacementManager();

  PlacementManager(const PlacementManager&) = delete;
  PlacementManager& operator=(const PlacementManager&) = delete;

  // Starts acting (idempotent).
  void Resume();

  // Blocks until the manager is parked between ticks with no outstanding
  // protocol operations (idempotent).
  void Pause();

  AdaptStats stats() const { return LoadStats<AdaptStats>(live_); }
  // Zeroes the counters. Only while the manager is paused.
  void ResetStats() { ResetCumulative<AdaptStats>(live_); }

  // Observability hook: each Tick()'s duration (drain + classify + act,
  // ns) is recorded into `h`. Install before Resume(); null (default)
  // costs one relaxed load per tick, off every hot path.
  void SetTickHistogram(obs::Histogram* h) {
    tick_hist_.store(h, std::memory_order_release);
  }

  NodeId node() const { return ctx_->node; }

 private:
  void Loop();
  void Tick();

  ps::NodeContext* ctx_;
  net::Network* network_;
  PlacementPolicy policy_;

  // The manager's protocol worker; created and destroyed on the manager
  // thread (a Worker is owned by exactly one thread).
  std::unique_ptr<ps::Worker> worker_;

  std::vector<AccessSample> sample_scratch_;
  Decisions decisions_scratch_;

  Mutex mu_;
  CondVar cv_;
  bool active_ LAPSE_GUARDED_BY(mu_) = false;
  // Thread is idle and drained.
  bool parked_ LAPSE_GUARDED_BY(mu_) = false;
  bool stop_ LAPSE_GUARDED_BY(mu_) = false;

  struct LiveStats {
    LAPSE_ADAPT_STATS(LAPSE_STAT_ATOMIC)
  } live_;
  std::atomic<obs::Histogram*> tick_hist_{nullptr};

  std::thread thread_;
};

}  // namespace adapt
}  // namespace lapse

#endif  // LAPSE_ADAPT_PLACEMENT_MANAGER_H_
