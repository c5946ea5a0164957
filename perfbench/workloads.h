// The four workloads. Each builds its inputs from Options::seed, sets up
// its system several times (set-up time is the median), measures for
// Options::seconds, checks its outputs and fills a WorkloadResult.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

// DSGD matrix factorization (rank 16) with parameter blocking under Lapse:
// rows localized once, each column block once per subepoch.
WorkloadResult RunMfLapse(const Options& opts);

// The same DSGD under the classic architecture (PS-Lite emulation): every
// access is a message.
WorkloadResult RunMfClassic(const Options& opts);

// ComplEx knowledge-graph embeddings with both PAL techniques (data
// clustering, lookahead localizes), AdaGrad state in the PS.
WorkloadResult RunKgePal(const Options& opts);

// Closed-loop embedding lookups with the adaptive placement engine,
// replication and request coalescing on.
WorkloadResult RunEmbedServing(const Options& opts);

// Busy threads each workload starts (worker + server drain threads), for
// the refusal check before anything runs.
constexpr int kNodes = 2;
constexpr int kWorkersPerNode = 1;
constexpr int kServerShards = 1;
constexpr int kBusyThreads = kNodes * (kWorkersPerNode + kServerShards);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
