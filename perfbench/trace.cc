#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

const char* SpanNameString(SpanName n) {
  switch (n) {
    case SpanName::kItem: return "item";
    case SpanName::kSetup: return "setup";
    case SpanName::kConstruct: return "setup.construct";
    case SpanName::kLoad: return "setup.load";
    case SpanName::kPlace: return "setup.place";
    case SpanName::kWarmup: return "setup.warmup";
    case SpanName::kPull: return "ps.worker.pull";
    case SpanName::kPush: return "ps.worker.push";
    case SpanName::kLocalize: return "ps.worker.localize";
    case SpanName::kWait: return "ps.worker.wait";
    case SpanName::kBarrier: return "ps.worker.barrier";
    case SpanName::kCompute: return "app.compute";
    case SpanName::kCount: break;
  }
  return "?";
}

namespace {

double g_ns_per_tick = 1.0;
double g_tick_read_ns = 0;

}  // namespace

void CalibrateTicks() {
  const int64_t n0 = Now();
  const int64_t k0 = Ticks();
  while (Now() - n0 < 20'000'000) {
  }
  const int64_t n1 = Now();
  const int64_t k1 = Ticks();
  g_ns_per_tick = k1 > k0 ? static_cast<double>(n1 - n0) / (k1 - k0) : 1.0;
  std::vector<int64_t> d(2001);
  for (auto& x : d) {
    const int64_t a = Ticks();
    x = Ticks() - a;
  }
  std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
  g_tick_read_ns = TicksToNs(d[d.size() / 2]);
}

double TicksToNs(int64_t ticks) { return ticks * g_ns_per_tick; }

namespace {

bool IsSetup(SpanName n) {
  return n == SpanName::kSetup || n == SpanName::kConstruct ||
         n == SpanName::kLoad || n == SpanName::kPlace ||
         n == SpanName::kWarmup;
}

// Self time of every span of `log` in ns; leaves lose one tick read, the
// share of their duration that is the tracer's own.
std::vector<double> SelfTimes(const SpanLog& log) {
  const std::vector<Span>& spans = log.spans();
  std::vector<double> self(spans.size());
  std::vector<char> has_child(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = TicksToNs(spans[i].end - spans[i].start);
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const int32_t p = spans[i].parent;
    if (p < 0) continue;
    self[p] -= TicksToNs(spans[i].end - spans[i].start);
    has_child[p] = 1;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (!has_child[i]) self[i] -= g_tick_read_ns;
  }
  return self;
}

}  // namespace

Budget ComputeBudget(const TraceSet& trace) {
  constexpr int kN = static_cast<int>(SpanName::kCount);
  double item_self[kN] = {};
  double edge_self[kN] = {};
  Budget b;
  b.tick_read_ns = g_tick_read_ns;
  for (const auto& log : trace.logs) {
    const std::vector<double> self = SelfTimes(*log);
    const std::vector<Span>& spans = log->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (IsSetup(s.name)) continue;
      const int n = static_cast<int>(s.name);
      if (s.item != 0) {
        item_self[n] += self[i];
        if (s.name == SpanName::kItem) ++b.sampled_items;
      } else {
        edge_self[n] += self[i];
      }
    }
  }
  for (int n = 0; n < kN; ++n) {
    double v = 0;
    if (b.sampled_items > 0) v += item_self[n] / b.sampled_items;
    if (trace.traced_items > 0) v += edge_self[n] / trace.traced_items;
    b.per_item_ns[n] = v;
    if (n != static_cast<int>(SpanName::kItem)) b.sum_ns += v;
  }
  if (trace.traced_items > 0) {
    b.item_ns = trace.traced_thread_seconds * 1e9 / trace.traced_items;
  }
  return b;
}

bool WriteSpans(const std::string& path, const TraceSet& trace) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread\titem\tname\tparent\tstart_ns\tend_ns\n");
  for (const auto& log : trace.logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(f, "%u\t%llu\t%s\t%d\t%.0f\t%.0f\n", log->thread(),
                   static_cast<unsigned long long>(s.item),
                   SpanNameString(s.name), s.parent, TicksToNs(s.start),
                   TicksToNs(s.end));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
