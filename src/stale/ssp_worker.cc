#include "stale/ssp_worker.h"

#include <cstring>
#include <map>

#include "util/logging.h"
#include "util/timer.h"

namespace lapse {
namespace stale {

using net::Message;
using net::MsgType;

SspWorker::SspWorker(SspSystem* system, SspNode* ctx,
                     ::lapse::Barrier* barrier, int32_t thread_slot,
                     int global_id, uint64_t seed)
    : system_(system),
      ctx_(ctx),
      barrier_(barrier),
      thread_(thread_slot),
      global_id_(global_id),
      endpoint_(system->network_.CreateEndpoint(ctx->node, thread_slot)),
      tracker_(ctx->trackers[thread_slot].get()),
      rng_(seed) {}

void SspWorker::Read(const std::vector<Key>& keys, Val* dst) {
  const ps::KeyLayout& layout = *ctx_->layout;
  const int32_t staleness = ctx_->config->staleness;

  std::vector<std::pair<Key, size_t>> remote;  // (key, dst offset)
  size_t off = 0;
  for (const Key k : keys) {
    const size_t len = layout.Length(k);
    if (ctx_->replicas.Fresh(k, clock_, staleness)) {
      ctx_->replicas.Read(k, dst + off);
    } else {
      remote.emplace_back(k, off);
    }
    off += len;
  }
  if (remote.empty()) return;

  // Fetch stale/missing keys from their owners (client synchronization).
  const uint64_t op = tracker_->Create(dst, remote, NowNanos());
  std::map<NodeId, std::vector<Key>> groups;
  for (const auto& [k, o] : remote) groups[layout.Home(k)].push_back(k);
  for (auto& [dst_node, group_keys] : groups) {
    Message m;
    m.type = MsgType::kSspRead;
    m.dst_node = dst_node;
    m.orig_node = ctx_->node;
    m.orig_thread = thread_;
    m.op_id = op;
    m.aux.push_back(clock_ - staleness);
    m.keys = std::move(group_keys);
    endpoint_->Send(std::move(m));
  }
  tracker_->Release(op, 0);
  tracker_->Wait(op);
}

void SspWorker::Update(const std::vector<Key>& keys, const Val* updates) {
  const ps::KeyLayout& layout = *ctx_->layout;
  size_t off = 0;
  for (const Key k : keys) {
    const size_t len = layout.Length(k);
    // Visible to local readers immediately.
    ctx_->replicas.Accumulate(k, updates + off);
    // Buffered for the next flush.
    {
      MutexLock lock(ctx_->acc_mu);
      Val* slot = ctx_->acc.data() + layout.Offset(k);
      for (size_t j = 0; j < len; ++j) slot[j] += updates[off + j];
      if (!ctx_->acc_dirty[k]) {
        ctx_->acc_dirty[k] = 1;
        ctx_->dirty_keys.push_back(k);
      }
    }
    off += len;
  }
}

void SspWorker::Clock() {
  const ps::KeyLayout& layout = *ctx_->layout;

  // 1. Flush this node's accumulated updates to the owners.
  std::vector<Key> dirty;
  std::vector<Val> payload;
  {
    MutexLock lock(ctx_->acc_mu);
    dirty.swap(ctx_->dirty_keys);
    for (const Key k : dirty) {
      const size_t len = layout.Length(k);
      Val* slot = ctx_->acc.data() + layout.Offset(k);
      payload.insert(payload.end(), slot, slot + len);
      std::memset(slot, 0, len * sizeof(Val));
      ctx_->acc_dirty[k] = 0;
    }
  }
  if (!dirty.empty()) {
    std::vector<std::pair<Key, size_t>> key_offsets;
    key_offsets.reserve(dirty.size());
    for (const Key k : dirty) key_offsets.emplace_back(k, 0);
    const uint64_t op = tracker_->Create(nullptr, key_offsets, NowNanos());
    std::map<NodeId, std::pair<std::vector<Key>, std::vector<Val>>> groups;
    size_t off = 0;
    for (const Key k : dirty) {
      const size_t len = layout.Length(k);
      auto& group = groups[layout.Home(k)];
      group.first.push_back(k);
      group.second.insert(group.second.end(), payload.data() + off,
                          payload.data() + off + len);
      off += len;
    }
    for (auto& [dst_node, group] : groups) {
      Message m;
      m.type = MsgType::kSspFlush;
      m.dst_node = dst_node;
      m.orig_node = ctx_->node;
      m.orig_thread = thread_;
      m.op_id = op;
      m.keys = std::move(group.first);
      m.vals = std::move(group.second);
      endpoint_->Send(std::move(m));
    }
    tracker_->Release(op, 0);
    tracker_->Wait(op);
  }

  // 2. Advance this worker's clock; if the node minimum advanced, announce
  // the new node clock to every node.
  ++clock_;
  int32_t new_node_clock = -1;
  {
    MutexLock lock(ctx_->clock_mu);
    ctx_->worker_clocks[thread_ - 1] = clock_;
    int32_t node_min = ctx_->worker_clocks[0];
    for (const int32_t c : ctx_->worker_clocks) {
      node_min = std::min(node_min, c);
    }
    if (node_min > ctx_->node_clock) {
      ctx_->node_clock = node_min;
      new_node_clock = node_min;
    }
  }
  if (new_node_clock >= 0) {
    for (NodeId n = 0; n < ctx_->config->num_nodes; ++n) {
      Message m;
      m.type = MsgType::kSspClock;
      m.dst_node = n;
      m.orig_node = ctx_->node;
      m.orig_thread = thread_;
      m.aux.push_back(new_node_clock);
      endpoint_->Send(std::move(m));
    }
  }
}

}  // namespace stale
}  // namespace lapse
