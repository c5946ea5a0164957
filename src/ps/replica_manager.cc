#include "ps/replica_manager.h"

#include <algorithm>
#include <cstring>

#include "util/logging.h"
#include "util/timer.h"

namespace lapse {
namespace ps {

ReplicaManager::ReplicaManager(const KeyLayout* layout,
                               int64_t staleness_micros, size_t num_latches,
                               int64_t flush_micros, uint32_t flush_max_folds)
    : layout_(layout),
      staleness_ns_(staleness_micros * 1000),
      flush_ns_(flush_micros * 1000),
      flush_max_folds_(flush_max_folds),
      pins_(layout->num_keys()),
      install_ns_(layout->num_keys()),
      pinned_(layout->num_keys()),
      epoch_(layout->num_keys()),
      latches_(num_latches) {
  for (auto& t : install_ns_) t.store(kAbsent, std::memory_order_relaxed);
  for (auto& p : pinned_) p.store(0, std::memory_order_relaxed);
  for (auto& e : epoch_) e.store(0, std::memory_order_relaxed);
}

void ReplicaManager::Pin(Key k) {
  LatchGuard latch(latches_.ForKey(k));
  if (IsPinned(k)) return;
  // The state exists before the pin flag is published, so a reader that
  // sees the flag always finds it (the copy starts absent either way).
  pins_[k] = std::make_unique<Pinned>(layout_->Length(k));
  pinned_[k].store(1, std::memory_order_release);
  live_.pinned.fetch_add(1, std::memory_order_relaxed);
}

bool ReplicaManager::Unpin(Key k, Val* pending) {
  Latch& latch = latches_.ForKey(k);
  LatchGuard guard(latch);
  if (!IsPinned(k)) return false;
  // Hand back pending folds and drop the pin under this one latch hold:
  // a FoldWrite cannot slip between the hand-back and the unpin.
  const bool had_folds = TakeFoldsLocked(k, *pins_[k], latch, pending);
  pinned_[k].store(0, std::memory_order_release);
  install_ns_[k].store(kAbsent, std::memory_order_release);
  pins_[k].reset();
  live_.pinned.fetch_sub(1, std::memory_order_relaxed);
  live_.unpins.fetch_add(1, std::memory_order_relaxed);
  return had_folds;
}

bool ReplicaManager::TryRead(Key k, Val* dst) {
  if (!IsPinned(k)) return false;
  const int64_t now = NowNanos();
  const int64_t tag = install_ns_[k].load(std::memory_order_acquire);
  if (tag == kAbsent || now - tag > staleness_ns_) {
    live_.stale_misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  LatchGuard latch(latches_.ForKey(k));
  // Re-validate under the latch: an invalidation (or unpin) may have won
  // the race since the lock-free check.
  const int64_t tag2 = install_ns_[k].load(std::memory_order_acquire);
  if (tag2 == kAbsent || now - tag2 > staleness_ns_) {
    live_.stale_misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::memcpy(dst, pins_[k]->copy.data(), layout_->Length(k) * sizeof(Val));
  if (obs::Histogram* h =
          read_age_hist_.load(std::memory_order_acquire)) {
    h->Add(now - tag2);
  }
  return true;
}

bool ReplicaManager::Install(Key k, const Val* snapshot, int64_t issue_ns,
                             Val* out) {
  LatchGuard latch(latches_.ForKey(k));
  // The epoch check: a snapshot requested while a flush of k was in flight
  // -- or before the last one settled -- may predate it, and the drained
  // folds are no longer in the accumulator to be put back.
  const int64_t epoch = epoch_[k].load(std::memory_order_relaxed);
  if (epoch < 0 || issue_ns < epoch) return false;
  const size_t len = layout_->Length(k);
  const Val* answer = snapshot;
  if (Pinned* p = pins_[k].get()) {
    // Pending folds postdate any owner snapshot: put them back on top so
    // the copy keeps this node's own unflushed writes.
    for (size_t i = 0; i < len; ++i) p->copy[i] = snapshot[i] + p->acc[i];
    install_ns_[k].store(NowNanos(), std::memory_order_release);
    live_.installs.fetch_add(1, std::memory_order_relaxed);
    answer = p->copy.data();
  }
  if (out != nullptr) std::memcpy(out, answer, len * sizeof(Val));
  return true;
}

void ReplicaManager::NoteWriteAcked(Key k) {
  LatchGuard latch(latches_.ForKey(k));
  const int64_t epoch = epoch_[k].load(std::memory_order_relaxed);
  LAPSE_CHECK_LT(epoch, 0) << "flush ack for key " << k
                           << " with no flush in flight";
  epoch_[k].store(epoch == -1 ? NowNanos() : epoch + 1,
                  std::memory_order_release);
}

ReplicaManager::FoldOutcome ReplicaManager::FoldWrite(Key k,
                                                      const Val* update) {
  if (!IsPinned(k)) return FoldOutcome::kNotPinned;
  LatchGuard latch(latches_.ForKey(k));
  Pinned* p = pins_[k].get();
  if (p == nullptr) return FoldOutcome::kNotPinned;  // raced an unpin
  const size_t len = layout_->Length(k);
  for (size_t i = 0; i < len; ++i) p->acc[i] += update[i];
  // Read-your-writes: fold into the visible copy too (when present) so
  // this node's readers see the write before the owner does.
  if (install_ns_[k].load(std::memory_order_acquire) != kAbsent) {
    for (size_t i = 0; i < len; ++i) p->copy[i] += update[i];
  }
  live_.folds.fetch_add(1, std::memory_order_relaxed);
  if (++p->folds == 1) {
    MutexLock lock(dirty_mu_);
    dirty_.push_back(k);
    ++n_dirty_;
    if (oldest_fold_ns_.load(std::memory_order_relaxed) == kAbsent) {
      oldest_fold_ns_.store(NowNanos(), std::memory_order_release);
    }
  }
  const uint32_t cap = p->flush_cap != 0 ? p->flush_cap : flush_max_folds_;
  return p->folds >= cap ? FoldOutcome::kFoldedFlushDue : FoldOutcome::kFolded;
}

bool ReplicaManager::FlushDue() const {
  const int64_t oldest = oldest_fold_ns_.load(std::memory_order_acquire);
  return oldest != kAbsent && NowNanos() - oldest >= flush_ns_;
}

size_t ReplicaManager::DrainDirty(std::vector<Key>* keys,
                                  std::vector<Val>* vals) {
  std::vector<Key> dirty;
  {
    MutexLock lock(dirty_mu_);
    dirty.swap(dirty_);
    oldest_fold_ns_.store(kAbsent, std::memory_order_release);
  }
  size_t drained = 0;
  for (const Key k : dirty) {
    Latch& latch = latches_.ForKey(k);
    LatchGuard guard(latch);
    // A racing DrainKey/Unpin may have emptied or freed the slot.
    Pinned* p = pins_[k].get();
    if (p == nullptr || p->folds == 0) continue;
    const size_t off = vals->size();
    vals->resize(off + p->acc.size());
    TakeFoldsLocked(k, *p, latch, vals->data() + off);
    keys->push_back(k);
    ++drained;
  }
  live_.flushed_keys.fetch_add(static_cast<int64_t>(drained),
                               std::memory_order_relaxed);
  return drained;
}

bool ReplicaManager::DrainKey(Key k, Val* out) {
  Latch& latch = latches_.ForKey(k);
  LatchGuard guard(latch);
  Pinned* p = pins_[k].get();
  if (p == nullptr || !TakeFoldsLocked(k, *p, latch, out)) return false;
  live_.flushed_keys.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool ReplicaManager::TakeFoldsLocked(Key k, Pinned& p, Latch& latch,
                                     Val* out) {
  (void)latch;  // capability-only parameter: names the held latch
  if (p.folds == 0) return false;
  std::memcpy(out, p.acc.data(), p.acc.size() * sizeof(Val));
  std::fill(p.acc.begin(), p.acc.end(), Val{0});
  p.folds = 0;  // the dirty-list entry becomes a skipped no-op
  const int64_t epoch = epoch_[k].load(std::memory_order_relaxed);
  epoch_[k].store(epoch < 0 ? epoch - 1 : -1, std::memory_order_release);
  MutexLock lock(dirty_mu_);
  if (--n_dirty_ == 0) {
    // The set went clean: re-arm the age clock, or the stale timestamp
    // would make the next fold anywhere spuriously report a flush as due.
    oldest_fold_ns_.store(kAbsent, std::memory_order_release);
  }
  return true;
}

void ReplicaManager::SetFlushCap(Key k, uint32_t cap) {
  LatchGuard latch(latches_.ForKey(k));
  if (Pinned* p = pins_[k].get()) p->flush_cap = cap;
}

uint32_t ReplicaManager::FlushCap(Key k) {
  LatchGuard latch(latches_.ForKey(k));
  const Pinned* p = pins_[k].get();
  return p != nullptr && p->flush_cap != 0 ? p->flush_cap : flush_max_folds_;
}

uint32_t ReplicaManager::PendingFolds(Key k) {
  LatchGuard latch(latches_.ForKey(k));
  const Pinned* p = pins_[k].get();
  return p != nullptr ? p->folds : 0;
}

void ReplicaManager::Invalidate(Key k) {
  LatchGuard latch(latches_.ForKey(k));
  if (install_ns_[k].exchange(kAbsent, std::memory_order_acq_rel) !=
      kAbsent) {
    live_.invalidations.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace ps
}  // namespace lapse
