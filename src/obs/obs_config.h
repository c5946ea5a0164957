#ifndef LAPSE_OBS_OBS_CONFIG_H_
#define LAPSE_OBS_OBS_CONFIG_H_

#include <cstdint>
#include <string>

namespace lapse {
namespace obs {

// Knobs of the observability layer. Kept in its own header so ps::Config
// can embed one without pulling the collector machinery in. The metrics
// registry is always on; these knobs govern the opt-in part, tracing.
struct ObsConfig {
  // Tracing: workers trace every sample_every-th operation end to end
  // (pull, push, localize; replica flushes are traced on the same
  // countdown), and the latency histograms and the collector thread exist.
  // 0 (the default) turns all of it off: no rings, no histograms, no
  // collector, and every hook pointer stays null.
  uint32_t sample_every = 0;
  // Capacity of each thread's trace-event ring (rounded up to a power of
  // two, minimum 64). Overflow drops events; the affected op records are
  // discarded, never blocked on.
  size_t ring_capacity = 4096;
  // Collector cadence: how often rings are drained and op records
  // finalized (the placement-manager tick default).
  int64_t snapshot_micros = 500;
  // Bound on finalized per-op records kept for trace export; further
  // records feed the histograms but are dropped from the trace buffer.
  size_t max_trace_records = 65536;
  // Optional export paths, written automatically on system teardown (and
  // any time via PsSystem::DumpMetrics / DumpTrace). Empty = no auto dump.
  // A trace path needs tracing on; the metrics snapshot is always there.
  std::string metrics_json_path;
  std::string trace_path;  // chrome://tracing JSON
};

}  // namespace obs
}  // namespace lapse

#endif  // LAPSE_OBS_OBS_CONFIG_H_
