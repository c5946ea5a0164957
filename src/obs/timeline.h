#ifndef LAPSE_OBS_TIMELINE_H_
#define LAPSE_OBS_TIMELINE_H_

#include <cstdint>

#include "net/message.h"
#include "util/spsc_ring.h"

namespace lapse {
namespace obs {

// Which slice of a sampled operation's lifetime an event describes. Phases
// are recorded where they happen (worker or any server the op touches) and
// stitched back together per op id by the background collector.
enum class Phase : uint8_t {
  kIssue = 0,       // t_ns = issue timestamp (carries the op kind)
  kLocal,           // t_ns = duration: worker-side latch acquire + copy/fold
  kQueue,           // t_ns = duration: inbox wait before a server handled
                    //        one hop (delivery -> processing start)
  kNet,             // t_ns = duration: simulated wire time of one hop
  kRelocStall,      // t_ns = duration: deferred behind an in-flight
                    //        relocation until the transfer landed
  kReplicaMiss,     // marker: a pinned replica was too stale to serve
  kReplicaRefresh,  // marker: a pull response re-installed a pinned copy
  kCoalesceWait,    // t_ns = duration: held in the worker's request
                    //        coalescer before its batch was released
  kComplete,        // t_ns = completion timestamp
  kNumPhases
};

// Kind of the traced worker operation (carried by the kIssue event).
enum class OpKind : uint8_t { kPull = 0, kPush, kLocalize, kFlush, kNumKinds };

const char* PhaseName(Phase p);
const char* OpKindName(OpKind k);

// Op ids are unique per (node, thread slot); the packed uid makes them
// globally unique so events recorded on different nodes can be joined.
// Layout: node in bits 54.., thread slot in bits 48..53, op id below.
// Inline-completed ops (OpTracker::kImmediate) have no tracker id; workers
// substitute a per-thread sequence number tagged with kInlineOpBit.
constexpr uint64_t kInlineOpBit = uint64_t{1} << 47;
constexpr uint64_t kOpIdMask = (uint64_t{1} << 48) - 1;

inline uint64_t PackUid(NodeId node, int32_t thread, uint64_t op_id) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(node)) << 54) |
         (static_cast<uint64_t>(static_cast<uint32_t>(thread)) << 48) |
         (op_id & kOpIdMask);
}
inline int32_t UidThread(uint64_t uid) {
  return static_cast<int32_t>((uid >> 48) & 0x3f);
}
inline NodeId UidNode(uint64_t uid) {
  return static_cast<NodeId>(uid >> 54);
}

// One phase event of one sampled op. 24 bytes; recorded on hot paths, so it
// stays a trivially-copyable value type.
struct TraceEvent {
  uint64_t uid = 0;
  int64_t t_ns = 0;  // timestamp (kIssue/kComplete) or duration (others)
  Phase phase = Phase::kIssue;
  OpKind kind = OpKind::kPull;  // meaningful on kIssue only
  uint8_t node = 0;             // node that recorded the event

  static TraceEvent Issue(uint64_t uid, OpKind kind, int64_t at_ns,
                          NodeId node) {
    return {uid, at_ns, Phase::kIssue, kind, static_cast<uint8_t>(node)};
  }
  static TraceEvent Dur(uint64_t uid, Phase phase, int64_t dur_ns,
                        NodeId node) {
    return {uid, dur_ns, phase, OpKind::kPull, static_cast<uint8_t>(node)};
  }
  static TraceEvent Mark(uint64_t uid, Phase phase, NodeId node) {
    return {uid, 0, phase, OpKind::kPull, static_cast<uint8_t>(node)};
  }
  static TraceEvent Complete(uint64_t uid, int64_t at_ns, NodeId node) {
    return {uid, at_ns, Phase::kComplete, OpKind::kPull,
            static_cast<uint8_t>(node)};
  }
};

// Each worker and server thread records its events into its thread slot's
// ring; the collector drains them all. A dropped event leaves its op's
// record incomplete, and the collector discards it.
using EventRing = SpscRing<TraceEvent>;
using NodeObs = SpscRingSet<TraceEvent>;

}  // namespace obs
}  // namespace lapse

#endif  // LAPSE_OBS_TIMELINE_H_
