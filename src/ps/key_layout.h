#ifndef LAPSE_PS_KEY_LAYOUT_H_
#define LAPSE_PS_KEY_LAYOUT_H_

#include <cstdint>
#include <vector>

#include "net/message.h"

namespace lapse {
namespace ps {

// Immutable description of the key space: how long each parameter's value
// vector is, where it lives in a node's value array, and which node is its
// *home* (the statically-assigned location manager; Section 3.5).
//
// Home assignment uses range partitioning, like PS-Lite: node n is home for
// keys [n*K/N, (n+1)*K/N).
//
// With `num_shards` > 1 each node's key responsibility is further range-
// partitioned into shards: Shard(k) splits the key's home range into
// num_shards equal sub-ranges. The shard of a key is a global property
// (the same at every node), so a relocated key is drained by the same
// shard index wherever it currently lives -- which is what lets each
// server drain thread own a fixed storage + latch partition.
class KeyLayout {
 public:
  // All keys share one value length.
  KeyLayout(uint64_t num_keys, size_t uniform_length, int num_nodes,
            int num_shards = 1);

  // Per-key value lengths (e.g., RESCAL: entity keys have length d, relation
  // keys length d^2).
  KeyLayout(std::vector<size_t> lengths, int num_nodes, int num_shards = 1);

  uint64_t num_keys() const { return num_keys_; }
  int num_nodes() const { return num_nodes_; }
  int num_shards() const { return num_shards_; }

  // Number of Val elements in key k's value vector.
  size_t Length(Key k) const {
    return uniform_ ? uniform_length_ : lengths_[k];
  }

  // Offset of key k in a node's value array (NodeContext::values), the
  // concatenation of all value vectors.
  size_t Offset(Key k) const {
    return uniform_ ? static_cast<size_t>(k) * uniform_length_ : offsets_[k];
  }

  // Total number of Val elements across all keys.
  size_t TotalVals() const { return total_vals_; }

  // Home node of key k: the unique n with HomeBegin(n) <= k < HomeEnd(n).
  NodeId Home(Key k) const {
    return static_cast<NodeId>(
        (static_cast<__uint128_t>(k + 1) * static_cast<uint64_t>(num_nodes_) -
         1) /
        num_keys_);
  }

  // Key range [HomeBegin(n), HomeEnd(n)) homed at node n.
  uint64_t HomeBegin(NodeId n) const {
    return static_cast<uint64_t>(n) * num_keys_ / num_nodes_;
  }
  uint64_t HomeEnd(NodeId n) const { return HomeBegin(n + 1); }

  // Server shard of key k, in [0, num_shards): the key's home range split
  // into num_shards equal sub-ranges. Precomputed at construction; the
  // single-shard case costs only the branch.
  int Shard(Key k) const {
    return num_shards_ == 1 ? 0 : static_cast<int>(shard_of_[k]);
  }

 private:
  void BuildShardTable();

  uint64_t num_keys_;
  int num_nodes_;
  int num_shards_;
  bool uniform_;
  size_t uniform_length_ = 0;
  std::vector<size_t> lengths_;
  std::vector<size_t> offsets_;
  size_t total_vals_ = 0;
  // Per-key shard index (empty when num_shards_ == 1). One byte per key:
  // the lookup rides the shard routing of every keyed send, so it must be
  // a single cache-friendly load, not a division.
  std::vector<uint8_t> shard_of_;
};

}  // namespace ps
}  // namespace lapse

#endif  // LAPSE_PS_KEY_LAYOUT_H_
