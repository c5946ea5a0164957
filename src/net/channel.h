#ifndef LAPSE_NET_CHANNEL_H_
#define LAPSE_NET_CHANNEL_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "net/message.h"
#include "obs/histogram.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace lapse {
namespace net {

// One sender's connection into one Inbox: an unbounded FIFO of messages in
// fixed-size blocks, with a single producer (whichever endpoint currently
// holds the sender's thread slot) and a single consumer (the inbox's drain
// thread). A push writes one block slot and publishes it with one seq_cst
// store of tail_; it takes no lock and executes no read-modify-write. The
// drain thread hands each finished block back through spare_, so a lane
// whose drain thread keeps within a block of it allocates nothing.
//
// Messages in a lane are in non-decreasing deliver_ns order: endpoints
// clamp to last_deliver_ns() (the per-connection FIFO clamp), and
// Inbox::Put(Message) picks a lane that keeps the order.
class Lane {
 public:
  Lane() = default;
  ~Lane();
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  // Producer only: deliver_ns of the last message pushed (0 before any).
  int64_t last_deliver_ns() const { return last_deliver_ns_; }

  // Messages ever pushed. Monotone; safe from any thread.
  int64_t PutCount() const { return tail_.load(std::memory_order_acquire); }

 private:
  friend class Inbox;

  static constexpr int kBlockSlots = 32;
  struct Block {
    Message slots[kBlockSlots];
    std::atomic<Block*> next{nullptr};
  };

  // Producer: appends msg (its deliver_ns must not precede
  // last_deliver_ns()) and publishes it.
  void Push(Message msg);

  // Consumer: makes every published message visible; returns whether any
  // is untaken.
  bool Refresh() {
    seen_tail_ = tail_.load(std::memory_order_acquire);
    return head_ != seen_tail_;
  }
  // Consumer: whether messages were published since the last Refresh.
  // seq_cst: Inbox::Park's re-check is one half of the parked-flag
  // handshake (a plain load on x86).
  bool Grew() const {
    return tail_.load(std::memory_order_seq_cst) != seen_tail_;
  }
  bool Empty() const { return head_ == seen_tail_; }
  // Consumer: the oldest untaken message; requires !Empty().
  Message& Front();
  // Consumer: drops Front() (already moved from).
  void Pop() {
    ++head_pos_;
    ++head_;
  }

  // Producer side, on the line that tail_ publishes.
  alignas(64) std::atomic<int64_t> tail_{0};
  Block* tail_block_ = nullptr;
  int tail_pos_ = kBlockSlots;  // kBlockSlots: the next push needs a block
  int64_t last_deliver_ns_ = 0;
  // The producer links its first block here and every later one through
  // the previous block's `next`.
  std::atomic<Block*> first_{nullptr};
  // One finished block handed back by the consumer (null = none). Only the
  // consumer turns it non-null and only the producer turns it null, so
  // plain loads and stores suffice.
  std::atomic<Block*> spare_{nullptr};

  // Consumer side.
  alignas(64) Block* head_block_ = nullptr;
  int head_pos_ = kBlockSlots;
  int64_t head_ = 0;
  int64_t seen_tail_ = 0;

  // The owning inbox's lane list; set before the lane is published.
  Lane* next_lane_ = nullptr;
};

// Per-(node, shard) delivery queue: one Lane per sender, drained by one
// thread. Senders stamp each message with a delivery time; the drain thread
// takes messages in delivery-time order across all lanes, and never before
// their delivery time has passed (this is how the simulated latency
// materializes).
//
// FIFO-per-connection (the TCP property the paper's consistency proofs rely
// on) comes from the lane plus the Endpoint's clamp: a connection is one
// lane, the clamp keeps a lane's delivery times non-decreasing, and the
// drain thread only ever takes a lane's oldest message.
//
// A send costs the lane push (its seq_cst tail store is the one locked
// instruction) and one load of the parked flag (a line the drain thread
// writes only when it parks or wakes). It shares
// no mutex, counter or queue with other senders, so concurrent senders to
// one inbox never wait on each other or on the drain thread. The drain
// thread spins while idle, then parks on a condition variable; only then
// does a send take a mutex, to wake it. On a 4-core Xeon host a whole
// Endpoint::Send (clock read and NIC reservations included) costs about
// 0.3 us with one sender and 0.4 us with three; through the mutex and
// priority queue this inbox replaced it cost 0.7-0.9 us and 4.2 us.
//
// One consumer per inbox: Take, TakeBatch and TryTake must all be called
// from the same thread (or from threads ordered by other synchronization).
class Inbox {
 public:
  explicit Inbox(int64_t idle_spin_ns = 1'000'000)
      : idle_spin_ns_(idle_spin_ns) {}
  ~Inbox();
  Inbox(const Inbox&) = delete;
  Inbox& operator=(const Inbox&) = delete;

  // Adds a lane for a new sender (any thread). The inbox owns it.
  Lane* AddLane();

  // Pushes `msg` (deliver_ns set, not before lane.last_deliver_ns()) onto
  // `lane`, whose producer the caller is, and wakes a parked drain thread.
  void Put(Lane& lane, Message msg);

  // Enqueues a message without an endpoint (deliver_ns must be set), in any
  // delivery-time order. For one producer thread only (tests, tools): it
  // appends to the first of its own lanes whose last message is not later,
  // adding a lane when none fits.
  void Put(Message msg);

  // Blocks until a message is deliverable or the inbox is shut down.
  // Returns false on shutdown with an empty queue (remaining messages are
  // still drained first so protocols can quiesce).
  bool Take(Message* out);

  // Non-blocking variant; returns false if nothing is deliverable yet.
  bool TryTake(Message* out);

  // Blocks like Take, then appends *all* currently-deliverable messages to
  // `out` in delivery order, each moved straight out of its lane. Returns
  // false on shutdown with an empty queue.
  bool TakeBatch(std::vector<Message>* out);

  // Wakes the drain thread and makes Take return false once drained.
  void Shutdown();

  // Observability hook: the drain thread records, for every message it
  // takes, how many messages the inbox held (that one included) when it
  // last looked. Install before traffic starts; null (the default) costs
  // one relaxed load + branch per Take or TakeBatch.
  void SetDepthHistogram(obs::Histogram* h) {
    depth_hist_.store(h, std::memory_order_release);
  }

  // Total messages ever put into this inbox: the sum of its lane tails.
  // Monotone. Together with a consumer-side processed counter this lets a
  // system quiesce: when every inbox's PutCount equals its server's
  // processed count, no message is queued or being handled anywhere.
  int64_t PutCount() const;

 private:
  static constexpr int64_t kNever = INT64_MAX;

  // Blocks until a lane's head is deliverable or the inbox shut down.
  // Returns false only on shutdown with every lane empty. Otherwise ready_
  // holds the non-empty lanes and *due is the latest delivery time that
  // may be taken now (kNever after shutdown).
  bool WaitDeliverable(int64_t* due);
  // Refreshes every lane (picking up new ones) and collects the non-empty
  // ones into ready_. Returns the earliest head delivery time, or kNever.
  int64_t Scan();
  // Whether a lane was added or grew since the last Scan.
  bool Arrived() const;
  // Index in ready_ of the lane with the earliest head due by `due`, or -1.
  int NextDue(int64_t due) const;
  // Pops ready_[i]'s head (already moved from); drops the lane from ready_
  // once empty.
  void PopAt(int i);
  // Waits until a sender wakes the drain thread, `deadline_ns` passes or
  // the inbox shuts down; returns at once if a lane grew meanwhile.
  void Park(int64_t deadline_ns);
  void Wake();

  const int64_t idle_spin_ns_;
  // Prepend-only list of every lane, newest first.
  std::atomic<Lane*> lane_list_{nullptr};
  std::atomic<obs::Histogram*> depth_hist_{nullptr};
  std::atomic<bool> shutdown_{false};

  // Set by the drain thread before it sleeps; senders that see it wake
  // it. Its line holds only park state, which changes only when the
  // drain thread parks or wakes, so a send merely reads it.
  alignas(64) std::atomic<bool> parked_{false};
  Mutex park_mu_;
  CondVar park_cv_;

  // Drain-thread state.
  alignas(64) std::vector<Lane*> lanes_;  // snapshot of lane_list_
  Lane* lanes_seen_ = nullptr;            // lane_list_ head of the snapshot
  std::vector<Lane*> ready_;              // non-empty lanes at the last Scan
  int64_t pending_ = 0;  // untaken messages at the last Scan

  // Put(Message)'s own lanes (its single producer thread only).
  std::vector<Lane*> direct_lanes_;
};

}  // namespace net
}  // namespace lapse

#endif  // LAPSE_NET_CHANNEL_H_
