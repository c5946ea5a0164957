#include "ps/coalescer.h"

#include <utility>

#include "util/logging.h"
#include "util/timer.h"

namespace lapse {
namespace ps {

using net::BufferPool;
using net::Message;
using net::MsgType;

EnvelopeView::EnvelopeView(const Message& m) {
  LAPSE_CHECK(!m.aux.empty());
  n_ops = static_cast<size_t>(m.aux[0]);
  LAPSE_CHECK_EQ(m.aux.size(), 1 + n_ops + m.keys.size());
  ops = m.aux.data() + 1;
  words = ops + n_ops;
}

void Envelope::Seal(const int64_t* op_words, Message* m) {
  const int n_ops = __builtin_popcountll(used);
  m->aux = BufferPool::GetAux();
  m->aux.reserve(1 + static_cast<size_t>(n_ops) + words.size());
  m->aux.push_back(n_ops);
  m->traced = false;
  for (uint64_t r = used; r != 0; r &= r - 1) {
    const int64_t op_word = op_words[__builtin_ctzll(r)];
    m->aux.push_back(op_word);
    m->traced |= IsTraced(op_word);
  }
  // Bits 0..n_ops-1 all referenced: the masks need no renumbering.
  const bool dense = (used & (used + 1)) == 0;
  for (const int64_t w : words) {
    uint64_t mask = EntryMask(w);
    if (!dense) {
      uint64_t packed = 0;
      for (uint64_t r = mask; r != 0; r &= r - 1) {
        packed |= uint64_t{1}
                  << __builtin_popcountll(used & ((r & -r) - 1));
      }
      mask = packed;
    }
    m->aux.push_back(EntryWord(mask, IsPush(w)));
  }
  m->keys = std::move(keys);
  m->vals = std::move(vals);
  keys = BufferPool::GetKeys();
  vals = BufferPool::GetVals();
  words.clear();
  used = 0;
}

Coalescer::Coalescer(NodeContext* ctx, net::Endpoint* endpoint,
                     int32_t thread, obs::EventRing* trace_ring)
    : ctx_(ctx),
      endpoint_(endpoint),
      thread_(thread),
      trace_ring_(trace_ring),
      num_shards_(static_cast<NodeId>(ctx->layout->num_shards())),
      hold_(ctx->config->coalescing),
      max_ops_(ctx->config->coalesce_max_ops),
      delay_ns_(ctx->config->coalesce_delay_micros * 1000) {
  LAPSE_CHECK(!hold_ || max_ops_ <= kMaxSubOps);
  slots_.resize(static_cast<size_t>(ctx->layout->num_nodes()) *
                static_cast<size_t>(num_shards_));
}

uint64_t Coalescer::RegisterOp(NodeId slot, SlotBatch& b) {
  if (b.ops.empty() || b.ops.back().op_word != cur_op_) {
    // A queued sub-op cannot complete before its batch is sent, so a held
    // op's tracker id cannot be recycled: ids in one batch are distinct
    // and the back-of-list check is enough.
    if (!cur_queued_) {
      cur_queued_ = true;
      if (hold_) cur_now_ = NowNanos();
    }
    if (b.ops.empty()) active_slots_.push_back(slot);
    b.ops.push_back({cur_op_, cur_now_});
    if (hold_) ++queued_ops_[OpIdOf(cur_op_)];
  }
  return uint64_t{1} << (b.ops.size() - 1);
}

void Coalescer::AddPull(NodeId slot, Key k) {
  SlotBatch& b = slots_[slot];
  const uint64_t bit = RegisterOp(slot, b);
  if (hold_) {
    auto [it, fresh] = b.last_entry.try_emplace(k, b.env.keys.size());
    if (!fresh) {
      int64_t& word = b.env.words[it->second];
      if (!IsPush(word)) {
        // Same-key concurrent pulls: one entry, one response, fanned out
        // to every referencing sub-op's buffer at the origin.
        word |= EntryWord(bit, /*is_push=*/false);
        b.env.used |= bit;
        return;
      }
      // A push to k is already queued ahead: append after it so this pull
      // observes the write (read-your-writes through the batch).
      it->second = b.env.keys.size();
    }
  }
  b.env.Add(k, EntryWord(bit, /*is_push=*/false), nullptr, 0);
}

void Coalescer::AddPush(NodeId slot, Key k, const Val* vals, size_t len) {
  SlotBatch& b = slots_[slot];
  const uint64_t bit = RegisterOp(slot, b);
  // Pushes never merge. They do repoint the dedup index so later pulls of
  // k order after this write.
  if (hold_) b.last_entry[k] = b.env.keys.size();
  b.env.Add(k, EntryWord(bit, /*is_push=*/true), vals, len);
}

void Coalescer::EndOp(bool send_now) {
  if (cur_queued_) ctx_->stats.coalesced_ops.Add(1);
  if (!active_slots_.empty()) Scan(send_now || !hold_);
  cur_op_ = OpWord(OpTracker::kImmediate, false);
}

void Coalescer::Scan(bool send_cur) {
  const int64_t now = hold_ ? NowNanos() : 0;
  size_t w = 0;
  for (size_t i = 0; i < active_slots_.size(); ++i) {
    const NodeId slot = active_slots_[i];
    SlotBatch& b = slots_[slot];
    if ((send_cur && b.ops.back().op_word == cur_op_) ||
        b.ops.size() >= max_ops_ ||
        now - b.ops.front().enqueue_ns >= delay_ns_) {
      DrainSlot(slot, now);
    } else {
      active_slots_[w++] = slot;
    }
  }
  active_slots_.resize(w);
}

bool Coalescer::DrainAll() {
  if (active_slots_.empty()) return false;
  const int64_t now = NowNanos();
  for (const NodeId slot : active_slots_) DrainSlot(slot, now);
  active_slots_.clear();
  ctx_->stats.coalesce_forced_drains.Add(1);
  return true;
}

void Coalescer::DrainSlot(NodeId slot, int64_t now) {
  SlotBatch& b = slots_[slot];
  const size_t n_ops = b.ops.size();
  op_words_.clear();
  for (const SubOp& s : b.ops) {
    op_words_.push_back(s.op_word);
    if (!hold_) continue;
    const int64_t waited = now - s.enqueue_ns;
    if (ctx_->coalesce_wait_ns_hist != nullptr) {
      ctx_->coalesce_wait_ns_hist->Add(waited);
    }
    if (IsTraced(s.op_word) && trace_ring_ != nullptr) {
      trace_ring_->TryPush(obs::TraceEvent::Dur(
          obs::PackUid(ctx_->node, thread_, OpIdOf(s.op_word)),
          obs::Phase::kCoalesceWait, waited, ctx_->node));
    }
    auto it = queued_ops_.find(OpIdOf(s.op_word));
    if (--it->second == 0) queued_ops_.erase(it);
  }

  Message m;
  m.type = MsgType::kBatchOp;
  m.dst_node = slot / num_shards_;
  m.orig_node = ctx_->node;
  m.orig_thread = thread_;
  // The envelope itself is nobody's op; each sub-op is acked through the
  // responses to its entries.
  m.op_id = OpTracker::kImmediate;
  b.env.Seal(op_words_.data(), &m);
  endpoint_->Send(std::move(m));

  if (ctx_->coalesce_batch_size_hist != nullptr) {
    ctx_->coalesce_batch_size_hist->Add(static_cast<int64_t>(n_ops));
  }
  ctx_->stats.coalesce_batches.Add(static_cast<int64_t>(n_ops));
  b.ops.clear();
  b.last_entry.clear();
}

}  // namespace ps
}  // namespace lapse
