// Benchmark-side tracing: spans recorded around each call the benchmark
// makes into ps::Worker, ps::PsSystem and the model math. Spans live in
// per-thread logs in memory and are written out when the run ends.
//
// A span has a name, start, end and parent. Roots are set-up repetitions,
// sampled items (one data point or request; its spans share the item id)
// and edge operations that happen once per slice rather than per item
// (barriers, block localizes). A span's self time is its duration minus
// the time its children cover.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/timer.h"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace perfbench {

// Wall clock for everything the end-to-end metrics are computed from.
inline int64_t Now() { return lapse::NowNanos(); }

// Span timestamps. clock_gettime fences the pipeline, which on a ~200 ns
// mf-lapse item costs more than the item itself and stops it overlapping
// with its neighbours; the TSC read does not. CalibrateTicks() measures the
// tick rate against Now() once per run.
inline int64_t Ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return static_cast<int64_t>(__rdtsc());
#else
  return lapse::NowNanos();
#endif
}
void CalibrateTicks();
double TicksToNs(int64_t ticks);

enum class SpanName : int16_t {
  kItem,
  kSetup,
  kConstruct,
  kLoad,
  kPlace,
  kWarmup,
  kPull,      // PullAsync / Pull issue (sync Pull includes its wait)
  kPush,      // PushAsync / Push
  kLocalize,  // Localize / LocalizeAsync
  kWait,      // Wait / WaitAll on outstanding ops
  kBarrier,   // Worker::Barrier
  kCompute,   // model math and the benchmark's own per-item work
  kCount
};

const char* SpanNameString(SpanName n);

struct Span {
  int64_t start = 0;  // Ticks()
  int64_t end = 0;
  uint64_t item = 0;   // 0: not part of a sampled item
  int32_t parent = -1;  // index into the same log, -1 for roots
  SpanName name = SpanName::kItem;
};

// Spans of one thread. Not thread-safe: each thread owns its log.
class SpanLog {
 public:
  // Reserved up front so appending rarely reallocates; pages are touched
  // only as spans arrive, so untraced runs pay no memory for it.
  explicit SpanLog(uint32_t thread) : thread_(thread) {
    spans_.reserve(kReserve);
  }

  int32_t Begin(SpanName n, uint64_t item, int64_t start,
                int32_t parent = -1) {
    spans_.push_back({start, start, item, parent, n});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t idx, int64_t end) { spans_[idx].end = end; }
  void Record(SpanName n, uint64_t item, int32_t parent, int64_t start,
              int64_t end) {
    spans_.push_back({start, end, item, parent, n});
  }
  // Cluster-unique id for the next sampled item of this thread.
  uint64_t NextItemId() { return (uint64_t{thread_} + 1) << 40 | ++seq_; }

  uint32_t thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  static constexpr size_t kReserve = 1 << 18;
  uint32_t thread_;
  uint64_t seq_ = 0;
  std::vector<Span> spans_;
};

// Every `period`-th call returns true; period 0 never does.
class Sampler {
 public:
  explicit Sampler(uint32_t period = 0) : period_(period), left_(period) {}
  bool Next() {
    if (period_ == 0 || --left_ > 0) return false;
    left_ = period_;
    return true;
  }

 private:
  uint32_t period_;
  uint32_t left_;
};

// Times one item. With `latency` it reads the TSC at the start and end;
// with `traced` it also records each step as a child span of an item root.
// PS calls take latches and bump atomic counters, and those atomic
// instructions wait for every earlier store to reach the cache, so a span
// appended to a cold log would be charged to the next step. Hence spans
// are staged in a small buffer and reach the log only after the item ends.
class ItemProbe {
 public:
  static constexpr int kMaxSteps = 32;

  explicit ItemProbe(SpanLog* log) : log_(log) {}

  void Start(bool latency, bool traced) {
    latency_ = latency;
    traced_ = traced;
    if (latency_ || traced_) {
      steps_ = 0;
      start_ = Ticks();
      t_ = start_;
    }
  }
  // Closes the step that began at the previous mark.
  void Mark(SpanName n) {
    if (!traced_) return;
    const int64_t now = Ticks();
    if (steps_ < kMaxSteps) step_[steps_++] = {t_, now, 0, -1, n};
    t_ = Ticks();
  }
  // Closes the last step and the item. Returns the item's wall time in ns
  // when it was started with `latency`, else -1.
  int64_t Finish(SpanName last) {
    if (traced_) {
      Mark(last);
      const uint64_t item = log_->NextItemId();
      const int32_t root = log_->Begin(SpanName::kItem, item, start_);
      log_->End(root, t_);
      for (int i = 0; i < steps_; ++i) {
        log_->Record(step_[i].name, item, root, step_[i].start, step_[i].end);
      }
      return -1;
    }
    return latency_ ? static_cast<int64_t>(TicksToNs(Ticks() - start_)) : -1;
  }

 private:
  SpanLog* log_;
  bool latency_ = false;
  bool traced_ = false;
  int64_t start_ = 0;
  int64_t t_ = 0;
  int steps_ = 0;
  Span step_[kMaxSteps];
};

// Times an edge operation (not part of an item) as a root span when the
// current slice is traced.
template <typename Fn>
void EdgeSpan(SpanLog* log, bool traced, SpanName n, Fn&& fn) {
  if (!traced) {
    fn();
    return;
  }
  const int64_t t0 = Ticks();
  fn();
  log->Record(n, 0, -1, t0, Ticks());
}

// Per-layer self time per item of one traced run.
struct Budget {
  double per_item_ns[static_cast<int>(SpanName::kCount)] = {};
  // Sum of per_item_ns except the item roots' self time, which is the
  // tracer's own bookkeeping: the layers' budget for an item.
  double sum_ns = 0;
  double item_ns = 0;  // traced wall time per item and worker thread
  int64_t sampled_items = 0;
  double tick_read_ns = 0;  // subtracted from each leaf span
};

// All span logs of a run plus what the budget is read against.
struct TraceSet {
  std::vector<std::unique_ptr<SpanLog>> logs;
  int64_t traced_items = 0;        // items processed in traced slices
  double traced_thread_seconds = 0;  // worker threads x traced slice time

  SpanLog* NewLog() {
    logs.push_back(
        std::make_unique<SpanLog>(static_cast<uint32_t>(logs.size())));
    return logs.back().get();
  }
};

// Self time per item for every span name outside set-up: item spans are
// averaged over sampled items, edge spans are spread over all traced items.
Budget ComputeBudget(const TraceSet& trace);

// Writes every span as a tab-separated line, times in ns. Returns false on
// I/O failure.
bool WriteSpans(const std::string& path, const TraceSet& trace);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
