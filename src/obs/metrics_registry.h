#ifndef LAPSE_OBS_METRICS_REGISTRY_H_
#define LAPSE_OBS_METRICS_REGISTRY_H_

#include <functional>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "util/stats.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace lapse {
namespace obs {

// One full snapshot of every registered metric, taken at `taken_ns`.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    int64_t count = 0;
    int64_t sum = 0;
  };
  struct GaugeValue {
    std::string name;
    int64_t value = 0;
  };
  struct HistogramValue {
    std::string name;
    HistogramSummary summary;
  };

  int64_t taken_ns = 0;
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
};

// Central name -> metric directory. PsSystem owns one and, at
// construction and whatever the config, registers every field of its stats
// lists (ServerStats, AdaptStats, ReplicaManagerStats, NetStats); tracing
// adds its histograms. Snapshots read the live objects, so registration is
// free of per-event cost. Registration happens during setup;
// Snapshot()/WriteJson() may be called from any thread afterwards.
class MetricsRegistry {
 public:
  void AddCounter(std::string name, const Counter* counter);
  void AddGauge(std::string name, std::function<int64_t()> fn);
  void AddHistogram(std::string name, const Histogram* histogram);

  MetricsSnapshot Snapshot() const;

  // Serializes a snapshot as pretty-printed JSON:
  //   { "taken_ns": ..., "counters": {name: {count, sum}, ...},
  //     "gauges": {name: value, ...},
  //     "histograms": {name: {count, sum, min, max, mean,
  //                           p50, p95, p99, p999}, ...} }
  static std::string ToJson(const MetricsSnapshot& snapshot);

  // Takes a fresh snapshot and writes it to `path`. Returns false if the
  // file could not be written.
  bool WriteJson(const std::string& path) const;

  size_t NumMetrics() const;

 private:
  struct CounterEntry {
    std::string name;
    const Counter* counter;
  };
  struct GaugeEntry {
    std::string name;
    std::function<int64_t()> fn;
  };
  struct HistogramEntry {
    std::string name;
    const Histogram* histogram;
  };

  mutable Mutex mu_;
  std::vector<CounterEntry> counters_ LAPSE_GUARDED_BY(mu_);
  std::vector<GaugeEntry> gauges_ LAPSE_GUARDED_BY(mu_);
  std::vector<HistogramEntry> histograms_ LAPSE_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace lapse

#endif  // LAPSE_OBS_METRICS_REGISTRY_H_
