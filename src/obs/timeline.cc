#include "obs/timeline.h"

namespace lapse {
namespace obs {

const char* PhaseName(Phase p) {
  switch (p) {
    case Phase::kIssue:
      return "issue";
    case Phase::kLocal:
      return "local";
    case Phase::kQueue:
      return "queue";
    case Phase::kNet:
      return "net";
    case Phase::kRelocStall:
      return "reloc_stall";
    case Phase::kReplicaMiss:
      return "replica_miss";
    case Phase::kReplicaRefresh:
      return "replica_refresh";
    case Phase::kCoalesceWait:
      return "coalesce_wait";
    case Phase::kComplete:
      return "complete";
    case Phase::kNumPhases:
      break;
  }
  return "?";
}

const char* OpKindName(OpKind k) {
  switch (k) {
    case OpKind::kPull:
      return "pull";
    case OpKind::kPush:
      return "push";
    case OpKind::kLocalize:
      return "localize";
    case OpKind::kFlush:
      return "flush";
    case OpKind::kNumKinds:
      break;
  }
  return "?";
}

}  // namespace obs
}  // namespace lapse
