#ifndef LAPSE_PS_DEST_GROUPS_H_
#define LAPSE_PS_DEST_GROUPS_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "net/message.h"

namespace lapse {
namespace ps {

// Flat node-indexed grouping of a control message's keys (localize,
// relocation instruct, replica registration) by destination, replacing
// per-op std::map grouping. Pulls and pushes are grouped by the envelope
// builders instead (ps::Coalescer, ps::Envelope). Owned by one thread as a
// reusable scratch. Usage per op:
//
//   groups.Begin();
//   groups.AddKey(dst, k);
//   for (NodeId n : groups.touched()) {
//     msg.keys = groups.TakeKeys(n);    // moves the buffer out and replaces
//   }                                   // it with an empty one
class DestGroups {
 public:
  void Resize(size_t num_nodes) { keys_.resize(num_nodes); }

  void Begin() { touched_.clear(); }

  void AddKey(NodeId dst, Key k) {
    auto& group = keys_[dst];
    if (group.empty()) touched_.push_back(dst);
    group.push_back(k);
  }

  const std::vector<NodeId>& touched() const { return touched_; }

  // Move a group's buffer into a message, leaving an empty (but valid)
  // vector behind so the slot is reusable next op.
  std::vector<Key> TakeKeys(NodeId dst) {
    std::vector<Key> out = std::move(keys_[dst]);
    keys_[dst].clear();
    return out;
  }

 private:
  std::vector<std::vector<Key>> keys_;
  std::vector<NodeId> touched_;
};

}  // namespace ps
}  // namespace lapse

#endif  // LAPSE_PS_DEST_GROUPS_H_
