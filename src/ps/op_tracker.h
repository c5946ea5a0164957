#ifndef LAPSE_PS_OP_TRACKER_H_
#define LAPSE_PS_OP_TRACKER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/message.h"
#include "util/logging.h"
#include "util/sync.h"
#include "util/timer.h"

namespace lapse {
namespace ps {

// Tracks the outstanding asynchronous operations of one worker thread.
//
// An operation covers one or more keys; completions arrive key-subset-wise
// (responses from different owners, queued local ops draining, relocation
// transfers) on the node's drain threads -- several of which may complete
// keys of one op at the same time -- while the issuing worker may Wait().
// An operation is done once all its keys completed and its issuer released
// it.
//
// Ops live in a table of reusable slots, held in chunks that never move
// (chunk c holds kFirstChunk << c slots; the first is allocated with the
// tracker, by the thread that builds the system, and each later one when
// first needed). An op id names its slot: the slot index in the low
// kSlotBits bits and the slot's generation, bumped on every reuse and never
// 0, above them. So a completer reaches its op with a shift and a load,
// and the id of a retired op never matches its slot's next op. Ids stay
// below bit 47 (obs::PackUid) and are never kImmediate.
//
// Threads:
//  * The issuer -- the worker that owns this tracker; successive owners
//    must be ordered, e.g. by a thread join -- calls Create, Release, Wait,
//    WaitAll, IsDone, NumPending and NumSlots. Only it claims, retires and
//    reuses slots.
//  * A completer (a drain thread, or the issuer itself) calls PullDst,
//    IssueNs and CompleteKeys for an op it still holds keys of, that is,
//    before its own CompleteKeys on those keys. These take no lock and
//    allocate nothing.
//
// Slot reuse: a slot goes back to the free list when Wait retires its op,
// when Release finishes it, when WaitAll returns, or -- for an op nobody
// waits on -- when Create finds the free list empty and sweeps the table
// for finished ops. Each time the issuer has first seen, with acquire, the
// slot's count at zero or (WaitAll) the count of finished ops reach the
// count of ops, which completers bump after their final decrement. So
// every completer's reads of the slot (made before its decrement) happen
// before the slot is written again. Which slots hold an op is the
// issuer's own record (live_), so retiring one writes no slot line.
//
// Wakeups: Wait spins, then parks; WaitAll parks at once. A parked issuer
// announces in parked_ what it waits for: one op id, or kAll. A completer
// that finishes an op wakes it if it waits on that op, or on all ops. So
// Wait wakes only when its op is done, while WaitAll wakes at the first
// completion after it parked and parks again if ops remain: a wakeup takes
// microseconds, and the rest of a batch of responses usually lands within
// it (on embed-serving, waking WaitAll only at the last completion cost 4%
// of items/s). Each side writes its word (the op's count or finished_;
// parked_) and then reads the other's, all seq_cst, so either the waiter
// sees the completion or the completer sees the waiter. The park mutex is
// taken only to sleep and to wake a sleeper.
class OpTracker {
 public:
  // Handle value returned for operations that completed inline.
  static constexpr uint64_t kImmediate = 0;

  OpTracker() { AddChunk(); }
  OpTracker(const OpTracker&) = delete;
  OpTracker& operator=(const OpTracker&) = delete;
  ~OpTracker() {
    for (auto& c : chunks_) delete[] c.load(std::memory_order_relaxed);
  }

  // Registers an operation over `key_offsets.size()` keys and returns its
  // id. For a pull (`pull_dst` non-null) the (key, offset into pull_dst)
  // pairs are copied into the slot, whose buffer keeps its capacity across
  // reuses, so callers can pass a reusable scratch buffer; other ops use
  // only the count. In steady state no allocation happens here. The op
  // also holds one count for its issuer: however fast other threads
  // complete its keys, it stays open until the issuing call has recorded
  // it and calls Release.
  uint64_t Create(Val* pull_dst,
                  const std::vector<std::pair<Key, size_t>>& key_offsets,
                  int64_t issue_ns) {
    if (free_.empty()) Refill();
    const uint32_t index = free_.back();
    free_.pop_back();
    Slot& s = SlotAt(index);
    uint64_t gen = (s.id.load(std::memory_order_relaxed) >> kSlotBits) + 1;
    if (gen == kGenLimit) gen = 1;
    const uint64_t id = (gen << kSlotBits) | index;
    s.remaining.store(static_cast<uint32_t>(key_offsets.size()) + 1,
                      std::memory_order_relaxed);
    s.pull_dst = pull_dst;
    s.issue_ns = issue_ns;
    s.key_offsets.clear();
    if (pull_dst != nullptr) {
      s.key_offsets.insert(s.key_offsets.end(), key_offsets.begin(),
                           key_offsets.end());
      std::sort(s.key_offsets.begin(), s.key_offsets.end());
    }
    s.id.store(id, std::memory_order_relaxed);
    live_[index] = id;
    ++expect_;
    issuing_ = &s;
    issuing_id_ = id;
    return id;
  }

  // Returns the destination address for key `k` of pull op `id`, or nullptr
  // if the op has no pull buffer (or is unknown).
  Val* PullDst(uint64_t id, Key k) const {
    const Slot* s = Find(id);
    if (s == nullptr || s->pull_dst == nullptr) return nullptr;
    const auto& ko = s->key_offsets;
    auto pos = std::lower_bound(
        ko.begin(), ko.end(), std::make_pair(k, size_t{0}),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    LAPSE_CHECK(pos != ko.end() && pos->first == k)
        << "key " << k << " not part of op " << id;
    return s->pull_dst + pos->second;
  }

  // Issue timestamp of op `id` (0 if its slot holds another op).
  int64_t IssueNs(uint64_t id) const {
    const Slot* s = Find(id);
    return s == nullptr ? 0 : s->issue_ns;
  }

  // Marks `n` keys of op `id` complete. Returns true iff this call
  // completed the op (exactly one caller per op observes true -- the
  // observability layer uses it to stamp the op's completion event at the
  // site that actually finished it). Dies on an unknown or retired op.
  bool CompleteKeys(uint64_t id, size_t n) {
    if (id == kImmediate || n == 0) return false;
    Slot* s = Find(id);
    LAPSE_CHECK(s != nullptr) << "completion for unknown or retired op " << id;
    const uint32_t before = s->remaining.fetch_sub(
        static_cast<uint32_t>(n), std::memory_order_seq_cst);
    LAPSE_CHECK_GE(before, n)
        << "completion for unknown or retired op " << id;
    if (before != n) return false;
    // The slot is the issuer's again: touch only the tracker's words.
    finished_.fetch_add(1, std::memory_order_seq_cst);
    const uint64_t parked = parked_.load(std::memory_order_seq_cst);
    if (parked == id || parked == kAll) Wake(parked);
    return true;
  }

  // The issuer's last call on op `id`, the op it created last: completes
  // the `inline_keys` keys it served itself and drops the issuer's hold.
  // Returns true iff this call completed the op, which it then retires:
  // the issuer is the op's only waiter, so no wakeup is owed.
  bool Release(uint64_t id, size_t inline_keys) {
    LAPSE_CHECK_EQ(id, issuing_id_);
    issuing_id_ = 0;
    const uint32_t n = static_cast<uint32_t>(inline_keys) + 1;
    const uint32_t before =
        issuing_->remaining.fetch_sub(n, std::memory_order_acq_rel);
    LAPSE_CHECK_GE(before, n);
    if (before != n) return false;
    --expect_;  // no completer counts this op in finished_
    Retire(id & kSlotMask);
    return true;
  }

  // Blocks until op `id` is fully complete, then retires it. Spins briefly
  // before parking: completions typically arrive within tens of
  // microseconds (one simulated network round trip), far below the OS
  // wakeup granularity.
  void Wait(uint64_t id) {
    if (id == kImmediate) return;
    Slot* s = Issued(id);
    if (s == nullptr) return;  // retired already
    if (s->remaining.load(std::memory_order_acquire) != 0) {
      const int64_t spin_until = NowNanos() + kWaitSpinNs;
      while (s->remaining.load(std::memory_order_acquire) != 0) {
        if (NowNanos() >= spin_until) {
          Park(id, [s] {
            return s->remaining.load(std::memory_order_seq_cst) == 0;
          });
          break;
        }
        for (int p = 0; p < 32; ++p) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      }
    }
    Retire(id & kSlotMask);
  }

  // Blocks until every op created so far completed, then retires them
  // all. Parks at once.
  void WaitAll() {
    Park(kAll, [this] {
      return finished_.load(std::memory_order_seq_cst) == expect_;
    });
    for (uint32_t i = 0; i < num_slots_; ++i) {
      if (live_[i] != 0) Retire(i);
    }
  }

  // True if op `id` has fully completed (or was retired).
  bool IsDone(uint64_t id) const {
    if (id == kImmediate) return true;
    const Slot* s = Issued(id);
    return s == nullptr || s->remaining.load(std::memory_order_acquire) == 0;
  }

  size_t NumPending() const {
    size_t n = 0;
    for (uint32_t i = 0; i < num_slots_; ++i) {
      if (live_[i] != 0 &&
          SlotAt(i).remaining.load(std::memory_order_acquire) > 0) {
        ++n;
      }
    }
    return n;
  }

  // Slots allocated so far (free or holding an op).
  size_t NumSlots() const { return num_slots_; }

 private:
  static constexpr int kSlotBits = 20;
  static constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;
  // Generations run 1 .. kGenLimit - 1, so ids stay below bit 47.
  static constexpr uint64_t kGenLimit = uint64_t{1} << (47 - kSlotBits);
  static constexpr int kFirstChunkLog2 = 4;
  static constexpr uint32_t kFirstChunk = uint32_t{1} << kFirstChunkLog2;
  // kFirstChunk * (2^kNumChunks - 1) slots in all, below 2^kSlotBits.
  static constexpr int kNumChunks = 16;
  static constexpr uint64_t kAll = ~uint64_t{0};  // parked_: WaitAll
  static constexpr int64_t kWaitSpinNs = 400'000;

  struct alignas(64) Slot {
    // Keys not yet completed, plus one for the issuer's hold.
    std::atomic<uint32_t> remaining{0};
    // Id of the slot's latest op (0 before the first), whose generation
    // the next op's id bumps. Atomic so a stale id can be checked against
    // it from any thread.
    std::atomic<uint64_t> id{0};
    Val* pull_dst = nullptr;
    int64_t issue_ns = 0;
    // Pulls only: (key, offset into pull_dst) pairs, sorted by key.
    std::vector<std::pair<Key, size_t>> key_offsets;
  };

  // Slot `index` of an allocated chunk.
  Slot& SlotAt(uint64_t index) const {
    const uint64_t j = index + kFirstChunk;
    const int c = 63 - __builtin_clzll(j) - kFirstChunkLog2;
    return chunks_[c].load(std::memory_order_acquire)[j - (kFirstChunk << c)];
  }

  // The slot of op `id`, or null if the id names no allocated slot or the
  // slot's latest op is another one. For completers, whose op is live.
  Slot* Find(uint64_t id) const {
    const uint64_t j = (id & kSlotMask) + kFirstChunk;
    const int c = 63 - __builtin_clzll(j) - kFirstChunkLog2;
    if (c >= kNumChunks) return nullptr;
    Slot* chunk = chunks_[c].load(std::memory_order_acquire);
    if (chunk == nullptr) return nullptr;
    Slot& s = chunk[j - (kFirstChunk << c)];
    return s.id.load(std::memory_order_relaxed) == id ? &s : nullptr;
  }

  // Issuer side: the slot of op `id` while the op is not retired, or null.
  Slot* Issued(uint64_t id) const {
    const uint64_t index = id & kSlotMask;
    return index < num_slots_ && live_[index] == id ? &SlotAt(index)
                                                   : nullptr;
  }

  void Retire(uint64_t index) {
    live_[index] = 0;
    free_.push_back(static_cast<uint32_t>(index));
  }

  // Create found no free slot: reclaims every finished op nobody waited
  // on, and adds a chunk when that freed under a quarter of the slots, so
  // a sweep is paid for by at least a quarter as many Creates.
  void Refill() {
    for (uint32_t i = 0; i < num_slots_; ++i) {
      if (live_[i] != 0 &&
          SlotAt(i).remaining.load(std::memory_order_acquire) == 0) {
        Retire(i);
      }
    }
    if (free_.size() * 4 < num_slots_) AddChunk();
  }

  void AddChunk() {
    LAPSE_CHECK_LT(num_chunks_, kNumChunks)
        << "more than " << num_slots_ << " ops outstanding on one worker";
    const uint32_t n = kFirstChunk << num_chunks_;
    chunks_[num_chunks_++].store(new Slot[n], std::memory_order_release);
    free_.reserve(num_slots_ + n);
    live_.resize(num_slots_ + n, 0);
    // Lowest index on top: the table stays dense.
    for (uint32_t i = num_slots_ + n; i-- > num_slots_;) free_.push_back(i);
    num_slots_ += n;
  }

  // Blocks until done() holds. `word` (an op id, or kAll) names what the
  // issuer waits for; a completer that finishes such an op clears it.
  template <typename Done>
  void Park(uint64_t word, Done done) {
    for (;;) {
      parked_.store(word, std::memory_order_seq_cst);
      if (done()) break;
      MutexLock lock(park_mu_);
      while (parked_.load(std::memory_order_relaxed) == word) {
        park_cv_.Wait(park_mu_);
      }
      // Woken: ops may remain (WaitAll), and a completer that read parked_
      // just before an earlier wait ended may wake a later one.
    }
    parked_.store(0, std::memory_order_relaxed);
  }

  void Wake(uint64_t word) {
    {
      MutexLock lock(park_mu_);
      if (parked_.load(std::memory_order_relaxed) != word) return;
      parked_.store(0, std::memory_order_relaxed);
    }
    // Outside the lock: a waiter woken on this core must not find the
    // mutex still held and block on it a second time.
    park_cv_.NotifyOne();
  }

  // Read by every Find; written only when a chunk is added. On a line of
  // its own, so Create's writes below do not evict it from completers.
  alignas(64) std::atomic<Slot*> chunks_[kNumChunks] = {};

  // Issuer-only state.
  alignas(64) std::vector<uint32_t> free_;  // capacity num_slots_
  std::vector<uint64_t> live_;  // per slot: its op's id while not retired
  uint32_t num_slots_ = 0;
  int num_chunks_ = 0;
  // Ops that a completer must finish: every op created, less those the
  // issuer's Release finished.
  uint64_t expect_ = 0;
  Slot* issuing_ = nullptr;  // the op Create made last, for Release
  uint64_t issuing_id_ = 0;

  // Completer-written: ops finished by a CompleteKeys; and what a parked
  // issuer waits for (0 = nobody parked).
  alignas(64) std::atomic<uint64_t> finished_{0};
  std::atomic<uint64_t> parked_{0};
  Mutex park_mu_;
  CondVar park_cv_;
};

}  // namespace ps
}  // namespace lapse

#endif  // LAPSE_PS_OP_TRACKER_H_
