#ifndef LAPSE_PS_COALESCER_H_
#define LAPSE_PS_COALESCER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/network.h"
#include "obs/timeline.h"
#include "ps/node_context.h"

namespace lapse {
namespace ps {

// The one wire format of pulls and pushes: kBatchOp requests and the
// kBatchResp responses to them. An envelope carries the key entries of one
// or more sub-ops (tracker ops of one origin thread) bound for one
// (node, shard):
//   keys   = key entries, shard-pure
//   vals   = payloads concatenated in entry order: push updates in a
//            request, pulled values in a response (push acks carry none)
//   aux[0]                  = n_ops, the number of sub-ops listed
//   aux[1 .. n_ops]         = per-sub-op word: tracker op id, with
//                             kTracedOpBit set when the op is traced; op id
//                             kImmediate is a fire-and-forget sub-op that
//                             is never acked (forwarded replica folds)
//   aux[n_ops+1 ..]         = per-key-entry word: (mask << 1) | is_push,
//                             mask bit s set <=> sub-op s references it
// An envelope lists only the sub-ops its entries reference. The mask width
// is what bounds coalesce_max_ops at kMaxSubOps.
constexpr int64_t kTracedOpBit = int64_t{1} << 62;
constexpr uint32_t kMaxSubOps = 62;

constexpr int64_t OpWord(uint64_t op_id, bool traced) {
  return static_cast<int64_t>(op_id) | (traced ? kTracedOpBit : 0);
}
constexpr uint64_t OpIdOf(int64_t op_word) {
  return static_cast<uint64_t>(op_word & ~kTracedOpBit);
}
constexpr bool IsTraced(int64_t op_word) {
  return (op_word & kTracedOpBit) != 0;
}
constexpr int64_t EntryWord(uint64_t mask, bool is_push) {
  return static_cast<int64_t>((mask << 1) | (is_push ? 1 : 0));
}
constexpr uint64_t EntryMask(int64_t word) {
  return static_cast<uint64_t>(word) >> 1;
}
constexpr bool IsPush(int64_t word) { return (word & 1) != 0; }

// Read side of an envelope.
struct EnvelopeView {
  explicit EnvelopeView(const net::Message& m);

  size_t n_ops;
  const int64_t* ops;    // sub-op words
  const int64_t* words;  // entry words, one per key
  uint64_t acked;        // sub-op bits owed an ack (op id != kImmediate)
};

// Write side: entries collected for one outgoing envelope, their masks
// indexing some op table (the coalescer's, or an incoming envelope's).
struct Envelope {
  std::vector<Key> keys;
  std::vector<Val> vals;
  std::vector<int64_t> words;
  uint64_t used = 0;  // union of the entries' masks

  bool empty() const { return keys.empty(); }
  void Add(Key k, int64_t word, const Val* v, size_t n) {
    keys.push_back(k);
    words.push_back(word);
    used |= EntryMask(word);
    vals.insert(vals.end(), v, v + n);
  }
  // Moves the entries into `m` behind an op table of just the sub-ops they
  // reference (taken from `op_words`, renumbered in order), sets m->traced,
  // and leaves the builder empty.
  void Seal(const int64_t* op_words, net::Message* m);
};

// The request builder of one worker thread: every remote pull or push key,
// replica flush and broadcast-ops fan-out is queued here, in a batch per
// (destination node, shard), and leaves as one kBatchOp envelope per batch.
// Batches are shard-pure, so each routes straight to the owning server
// shard's inbox.
//
// Config::coalescing only decides whether a batch may be held for more
// ops. Off, a batch leaves as soon as the op that filled it finishes
// issuing, so it carries exactly one sub-op. On, it is released by a dual
// trigger -- the same age/count shape as the replica flush logic:
//   * count: it holds Config::coalesce_max_ops sub-ops, checked as soon as
//     the enqueueing operation finishes issuing, or
//   * age: its oldest queued sub-op is Config::coalesce_delay_micros old,
//     checked at the start of every subsequent pull/push of this worker.
// Wait/WaitAll/IsDone force an immediate drain of any batch still holding
// the awaited op, so barriers and sync wrappers never stall on a held
// batch (a queued sub-op cannot complete before its batch is sent). The
// delay knob is therefore an explicit batching-vs-latency contract: only
// ops nobody is waiting on are held, and for at most the delay bound.
// Replica flushes are never held.
//
// Within a held batch, concurrent pulls of the same key are deduplicated
// onto one key entry and fanned out from the single response; pushes always
// keep their own entry. Entry order preserves this worker's per-key issue
// order, so read-your-writes holds through a batch.
//
// Owned by exactly one Worker; not thread-safe.
class Coalescer {
 public:
  Coalescer(NodeContext* ctx, net::Endpoint* endpoint, int32_t thread,
            obs::EventRing* trace_ring);

  Coalescer(const Coalescer&) = delete;
  Coalescer& operator=(const Coalescer&) = delete;

  // Opens op `op_id`'s enqueue scope; AddPull/AddPush calls until EndOp
  // belong to it. The enqueue clock is read on the first Add, and only when
  // batches may be held, so ops that turn out fully local pay nothing.
  void BeginOp(uint64_t op_id, bool traced) {
    cur_op_ = op_id;
    cur_traced_ = traced;
    cur_queued_ = false;
  }

  // Queues one remote key of the current op on slot (dst * num_shards +
  // shard), the same slot arithmetic as Worker::GroupSlot.
  void AddPull(NodeId slot, Key k);
  void AddPush(NodeId slot, Key k, const Val* vals, size_t len);

  // Closes the current op's scope. Its batches leave at once when
  // `send_now` is set or coalescing is off; otherwise the dual trigger
  // decides, for every held batch.
  void EndOp(bool send_now = false);

  // Age/count check without an enqueue scope -- the one branch per
  // operation the coalescer costs on the all-local fast path. Called at
  // the top of every pull/push so a worker that goes local-only cannot
  // strand a held batch past its delay bound.
  void MaybeDrain() {
    if (!active_slots_.empty()) Scan(/*send_cur=*/false);
  }

  // Immediately sends the batch holding op `op` (all held batches, in
  // fact: forced drains are barrier-shaped). No-op unless the op has
  // queued sub-ops. Backs Wait/IsDone.
  void DrainIfQueued(uint64_t op) {
    if (op == OpTracker::kImmediate || queued_ops_.empty()) return;
    if (queued_ops_.find(op) == queued_ops_.end()) return;
    DrainAll();
  }

  // Sends every held batch. Backs WaitAll, worker teardown, and
  // LocalizeAsync (relocations must not overtake held ops of their own
  // worker). Returns true if anything was sent.
  bool DrainAll();

 private:
  struct SubOp {
    uint64_t op_id;
    int64_t enqueue_ns;
    bool traced;
  };
  // One batch: everything queued for one (destination, shard) slot.
  struct SlotBatch {
    std::vector<SubOp> ops;  // the envelope's op table, by mask bit
    Envelope env;
    // Latest entry of each key, for pull deduplication in held batches. A
    // pull merges onto it only when it is itself a pull; anything later
    // appends (and repoints), which is what keeps per-key entry order =
    // issue order.
    std::unordered_map<Key, size_t> last_entry;
  };

  // Registers the current op in slot's batch (first key of this op on
  // this slot) and returns its sub-op bit.
  uint64_t RegisterOp(NodeId slot, SlotBatch& b);

  // Drains every active slot that is due: by the dual trigger, or, with
  // `send_cur`, because the current op queued on it.
  void Scan(bool send_cur);

  // Builds and sends one slot's kBatchOp message; records batch-size /
  // wait histograms, stats, and kCoalesceWait trace events.
  void DrainSlot(NodeId slot, int64_t now);

  NodeContext* ctx_;
  net::Endpoint* endpoint_;
  int32_t thread_;
  obs::EventRing* trace_ring_;  // this worker's ring; null when obs off
  NodeId num_shards_;
  bool hold_;  // Config::coalescing: batches may wait for more ops
  uint32_t max_ops_;
  int64_t delay_ns_;

  std::vector<SlotBatch> slots_;
  std::vector<NodeId> active_slots_;  // slots with a non-empty batch
  // Ops with held (unsent) sub-ops -> number of slots holding them. What
  // makes Wait(op)'s drain-only-if-held check O(1). Empty unless hold_.
  std::unordered_map<uint64_t, uint32_t> queued_ops_;
  std::vector<int64_t> op_words_;  // DrainSlot scratch

  // Current enqueue scope (BeginOp .. EndOp).
  uint64_t cur_op_ = OpTracker::kImmediate;
  bool cur_traced_ = false;
  bool cur_queued_ = false;  // the current op queued a key
  int64_t cur_now_ = 0;      // its enqueue time (held batches only)
};

}  // namespace ps
}  // namespace lapse

#endif  // LAPSE_PS_COALESCER_H_
