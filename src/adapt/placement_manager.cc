#include "adapt/placement_manager.h"

#include <chrono>

#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace lapse {
namespace adapt {

PlacementManager::PlacementManager(ps::NodeContext* ctx,
                                   net::Network* network)
    : ctx_(ctx),
      network_(network),
      policy_(ctx->config->adaptive, ctx->node,
              ctx->config->replication
                  ? ctx->config->replica_flush_max_folds
                  : 0) {
  LAPSE_CHECK(ctx_->access_stats != nullptr)
      << "PlacementManager needs the node's AccessStats";
  thread_ = std::thread([this] { Loop(); });
}

PlacementManager::~PlacementManager() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  thread_.join();
}

void PlacementManager::Resume() {
  {
    MutexLock lock(mu_);
    active_ = true;
  }
  cv_.NotifyAll();
}

void PlacementManager::Pause() {
  MutexLock lock(mu_);
  active_ = false;
  cv_.NotifyAll();
  while (!(parked_ || stop_)) cv_.Wait(mu_);
}

void PlacementManager::Loop() {
  // The protocol worker lives on this thread, in its own thread slot; its
  // worker_id is outside the application range.
  const ps::Config& cfg = *ctx_->config;
  worker_ = std::make_unique<ps::Worker>(
      ctx_, network_, /*barrier=*/nullptr, cfg.manager_slot(),
      /*global_id=*/cfg.total_workers() + ctx_->node,
      Mix64(cfg.seed ^ (0xada97ULL + static_cast<uint64_t>(ctx_->node))));

  MutexLock lock(mu_);
  while (!stop_) {
    if (!active_) {
      // Drain in-flight protocol ops before declaring ourselves parked, so
      // Pause() doubles as a barrier for everything this manager issued.
      lock.Unlock();
      worker_->WaitAll();
      lock.Lock();
      if (stop_ || active_) continue;
      parked_ = true;
      cv_.NotifyAll();
      while (!(stop_ || active_)) cv_.Wait(mu_);
      parked_ = false;
      continue;
    }
    const auto tick = std::chrono::microseconds(cfg.adaptive.tick_micros);
    const auto deadline = std::chrono::steady_clock::now() + tick;
    while (!(stop_ || !active_)) {
      if (cv_.WaitUntil(mu_, deadline)) break;  // timed out: tick is due
    }
    if (stop_ || !active_) continue;
    lock.Unlock();
    {
      obs::Histogram* th = tick_hist_.load(std::memory_order_acquire);
      const int64_t t0 = th != nullptr ? NowNanos() : 0;
      Tick();
      if (th != nullptr) th->Add(NowNanos() - t0);
    }
    lock.Lock();
  }
  lock.Unlock();
  worker_->WaitAll();
  worker_.reset();
}

void PlacementManager::Tick() {
  // Retire the previous tick's localize handles; relocations normally
  // complete well within one tick, so this seldom blocks.
  worker_->WaitAll();

  sample_scratch_.clear();
  const size_t drained = ctx_->access_stats->DrainAll(&sample_scratch_);
  live_.samples.fetch_add(static_cast<int64_t>(drained),
                          std::memory_order_relaxed);
  live_.dropped_samples.fetch_add(ctx_->access_stats->TakeDropped(),
                                  std::memory_order_relaxed);
  for (const AccessSample& s : sample_scratch_) {
    policy_.Record(s.key, s.is_write());
  }

  decisions_scratch_.localize.clear();
  decisions_scratch_.evict.clear();
  decisions_scratch_.replicate.clear();
  decisions_scratch_.unreplicate.clear();
  decisions_scratch_.flush_caps.clear();
  const ps::NodeContext* ctx = ctx_;
  policy_.Tick(
      [ctx](Key k) { return ctx->StateOf(k) == ps::KeyState::kOwned; },
      [ctx](Key k) { return ctx->layout->Home(k); },
      [ctx](Key k) {
        return ctx->replicas != nullptr && ctx->replicas->IsPinned(k);
      },
      &decisions_scratch_);
  live_.ticks.fetch_add(1, std::memory_order_relaxed);

  if (!decisions_scratch_.localize.empty()) {
    worker_->LocalizeAsync(decisions_scratch_.localize);
    live_.localizes_issued.fetch_add(
        static_cast<int64_t>(decisions_scratch_.localize.size()),
        std::memory_order_relaxed);
  }
  if (!decisions_scratch_.evict.empty()) {
    const size_t issued = worker_->Evict(decisions_scratch_.evict);
    live_.evictions_issued.fetch_add(static_cast<int64_t>(issued),
                                     std::memory_order_relaxed);
  }
  if (!decisions_scratch_.replicate.empty()) {
    // Pin the flagged keys into the node's replica store and register at
    // their homes, so subsequent reads are served from local memory
    // (Worker::Replicate). With replication off they are only counted.
    if (ctx_->replicas != nullptr) {
      const size_t pinned =
          worker_->Replicate(decisions_scratch_.replicate);
      live_.replicas_pinned.fetch_add(static_cast<int64_t>(pinned),
                                      std::memory_order_relaxed);
    }
    live_.replication_flags.fetch_add(
        static_cast<int64_t>(decisions_scratch_.replicate.size()),
        std::memory_order_relaxed);
  }
  if (!decisions_scratch_.flush_caps.empty() && ctx_->replicas != nullptr) {
    // Adaptive flush sizing: install this window's per-key count triggers.
    // Applied before unreplication so a cap for a key unpinned in the same
    // tick is wiped with the pin (Pin resets caps on any re-pin).
    for (const auto& [k, cap] : decisions_scratch_.flush_caps) {
      ctx_->replicas->SetFlushCap(k, cap);
    }
  }
  if (!decisions_scratch_.unreplicate.empty() &&
      ctx_->replicas != nullptr) {
    // The pin stopped paying for itself: drain pending folds, drop the
    // pin, unregister at the homes. The policy wiped the keys' churn
    // slate, so they are ordinary localize candidates from here on.
    const size_t unpinned =
        worker_->Unreplicate(decisions_scratch_.unreplicate);
    live_.replicas_unpinned.fetch_add(static_cast<int64_t>(unpinned),
                                      std::memory_order_relaxed);
  }
}

}  // namespace adapt
}  // namespace lapse
