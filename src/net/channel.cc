#include "net/channel.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/timer.h"

namespace lapse {
namespace net {

namespace {

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

Lane::~Lane() {
  Block* b = head_block_ != nullptr
                 ? head_block_
                 : first_.load(std::memory_order_acquire);
  while (b != nullptr) {
    Block* next = b->next.load(std::memory_order_acquire);
    delete b;
    b = next;
  }
  delete spare_.load(std::memory_order_acquire);
}

void Lane::Push(Message msg) {
  if (tail_pos_ == kBlockSlots) {
    Block* b = spare_.load(std::memory_order_acquire);
    if (b != nullptr) {
      spare_.store(nullptr, std::memory_order_relaxed);
    } else {
      b = new Block;
    }
    // Published to the consumer by the tail_ store below.
    (tail_block_ != nullptr ? tail_block_->next : first_)
        .store(b, std::memory_order_relaxed);
    tail_block_ = b;
    tail_pos_ = 0;
  }
  last_deliver_ns_ = msg.deliver_ns;
  tail_block_->slots[tail_pos_++] = std::move(msg);
  // seq_cst: the sender's half of the parked-flag handshake (Inbox::Put).
  tail_.store(tail_.load(std::memory_order_relaxed) + 1,
              std::memory_order_seq_cst);
}

Message& Lane::Front() {
  if (head_pos_ == kBlockSlots) {
    // The producer linked the next block before publishing its first
    // message, which Refresh saw.
    Block* done = head_block_;
    head_block_ = (done != nullptr ? done->next : first_)
                      .load(std::memory_order_relaxed);
    head_pos_ = 0;
    if (done != nullptr) {
      // Every slot of `done` has been moved from; hand it back.
      done->next.store(nullptr, std::memory_order_relaxed);
      if (spare_.load(std::memory_order_relaxed) == nullptr) {
        spare_.store(done, std::memory_order_release);
      } else {
        delete done;
      }
    }
  }
  return head_block_->slots[head_pos_];
}

Inbox::~Inbox() {
  Lane* lane = lane_list_.load(std::memory_order_acquire);
  while (lane != nullptr) {
    Lane* next = lane->next_lane_;
    delete lane;
    lane = next;
  }
}

Lane* Inbox::AddLane() {
  Lane* lane = new Lane;
  Lane* head = lane_list_.load(std::memory_order_relaxed);
  // seq_cst: a parking drain thread's re-check (Arrived) must see a lane
  // added before a send on it that did not see parked_.
  do {
    lane->next_lane_ = head;
  } while (!lane_list_.compare_exchange_weak(head, lane,
                                             std::memory_order_seq_cst,
                                             std::memory_order_relaxed));
  return lane;
}

void Inbox::Put(Lane& lane, Message msg) {
  // The push's tail store and this load are seq_cst, as are Park's store
  // of parked_ and its re-check's loads: either this load sees parked_, or
  // the drain thread's re-check sees the push.
  lane.Push(std::move(msg));
  if (parked_.load(std::memory_order_seq_cst)) Wake();
}

void Inbox::Put(Message msg) {
  Lane* lane = nullptr;
  for (Lane* l : direct_lanes_) {
    if (l->last_deliver_ns() <= msg.deliver_ns) {
      lane = l;
      break;
    }
  }
  if (lane == nullptr) {
    lane = AddLane();
    direct_lanes_.push_back(lane);
  }
  Put(*lane, std::move(msg));
}

int64_t Inbox::PutCount() const {
  int64_t total = 0;
  for (const Lane* l = lane_list_.load(std::memory_order_acquire);
       l != nullptr; l = l->next_lane_) {
    total += l->PutCount();
  }
  return total;
}

int64_t Inbox::Scan() {
  Lane* head = lane_list_.load(std::memory_order_acquire);
  for (Lane* l = head; l != lanes_seen_; l = l->next_lane_) {
    lanes_.push_back(l);
  }
  lanes_seen_ = head;
  ready_.clear();
  pending_ = 0;
  int64_t earliest = kNever;
  for (Lane* l : lanes_) {
    if (!l->Refresh()) continue;
    ready_.push_back(l);
    pending_ += l->seen_tail_ - l->head_;
    earliest = std::min(earliest, l->Front().deliver_ns);
  }
  return earliest;
}

bool Inbox::Arrived() const {
  if (lane_list_.load(std::memory_order_seq_cst) != lanes_seen_) return true;
  for (const Lane* l : lanes_) {
    if (l->Grew()) return true;
  }
  return false;
}

int Inbox::NextDue(int64_t due) const {
  int best = -1;
  int64_t best_ns = kNever;
  for (size_t i = 0; i < ready_.size(); ++i) {
    const int64_t d = ready_[i]->Front().deliver_ns;
    if (d <= due && (best < 0 || d < best_ns)) {
      best = static_cast<int>(i);
      best_ns = d;
    }
  }
  return best;
}

void Inbox::PopAt(int i) {
  Lane* l = ready_[i];
  l->Pop();
  --pending_;
  if (l->Empty()) {
    ready_[i] = ready_.back();
    ready_.pop_back();
  }
}

bool Inbox::WaitDeliverable(int64_t* due) {
  // OS timer wakeups are ~50us-grained, far coarser than the simulated
  // latencies (2-30us). To keep the latency model honest we sleep only for
  // the bulk of long waits and spin for the final stretch.
  constexpr int64_t kSpinWindowNs = 120'000;
  int64_t idle_until = -1;
  for (;;) {
    // Read before the scan: every message put before Shutdown is seen.
    const bool shutdown = shutdown_.load(std::memory_order_acquire);
    const int64_t earliest = Scan();
    if (shutdown) {
      // Drain promptly; no need to honor latency.
      *due = kNever;
      return !ready_.empty();
    }
    if (!ready_.empty()) {
      const int64_t now = NowNanos();
      if (earliest <= now) {
        *due = now;
        return true;
      }
      idle_until = -1;
      if (earliest - now > kSpinWindowNs) {
        Park(earliest - kSpinWindowNs);
      } else {
        // Look again as soon as anything arrives: it may be due earlier.
        while (!Arrived() && NowNanos() < earliest) CpuRelax();
      }
      continue;
    }
    // Idle: spin-poll briefly before parking. A condition-variable wakeup
    // costs ~50-200us -- more than the whole simulated relocation protocol
    // -- so a short spin keeps multi-hop protocols at realistic speed.
    if (idle_until < 0) idle_until = NowNanos() + idle_spin_ns_;
    while (!Arrived() && !shutdown_.load(std::memory_order_relaxed) &&
           NowNanos() < idle_until) {
      CpuRelax();
    }
    if (NowNanos() >= idle_until) Park(kNever);
  }
}

void Inbox::Park(int64_t deadline_ns) {
  // The handshake with Put(Lane&, Message): this store and Arrived's loads
  // are seq_cst.
  parked_.store(true, std::memory_order_seq_cst);
  if (Arrived() || shutdown_.load(std::memory_order_acquire)) {
    parked_.store(false, std::memory_order_relaxed);
    return;
  }
  MutexLock lock(park_mu_);
  while (parked_.load(std::memory_order_relaxed)) {
    if (deadline_ns == kNever) {
      park_cv_.Wait(park_mu_);
    } else if (park_cv_.WaitUntil(
                   park_mu_, std::chrono::steady_clock::time_point(
                                 std::chrono::nanoseconds(deadline_ns)))) {
      break;
    }
  }
  parked_.store(false, std::memory_order_relaxed);
}

void Inbox::Wake() {
  MutexLock lock(park_mu_);
  parked_.store(false, std::memory_order_relaxed);
  park_cv_.NotifyOne();
}

bool Inbox::Take(Message* out) {
  int64_t due;
  if (!WaitDeliverable(&due)) return false;
  const int i = NextDue(due);
  *out = std::move(ready_[i]->Front());
  if (obs::Histogram* h = depth_hist_.load(std::memory_order_acquire)) {
    h->Add(pending_);
  }
  PopAt(i);
  return true;
}

bool Inbox::TakeBatch(std::vector<Message>* out) {
  int64_t due;
  if (!WaitDeliverable(&due)) return false;
  obs::Histogram* h = depth_hist_.load(std::memory_order_acquire);
  for (int i = NextDue(due); i >= 0; i = NextDue(due)) {
    out->push_back(std::move(ready_[i]->Front()));
    if (h != nullptr) h->Add(pending_);
    PopAt(i);
  }
  return true;
}

bool Inbox::TryTake(Message* out) {
  const bool shutdown = shutdown_.load(std::memory_order_acquire);
  if (Scan() == kNever) return false;
  const int i = NextDue(shutdown ? kNever : NowNanos());
  if (i < 0) return false;
  *out = std::move(ready_[i]->Front());
  PopAt(i);
  return true;
}

void Inbox::Shutdown() {
  shutdown_.store(true, std::memory_order_release);
  MutexLock lock(park_mu_);
  parked_.store(false, std::memory_order_relaxed);
  park_cv_.NotifyAll();
}

}  // namespace net
}  // namespace lapse
