#ifndef LAPSE_UTIL_STATS_H_
#define LAPSE_UTIL_STATS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lapse {

// Lock-free accumulating counter (count + sum), safe for concurrent Add().
// Snapshot reads are not atomic across the two fields, which is fine for
// monitoring use.
class Counter {
 public:
  void Add(int64_t value = 1) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  void Reset() {
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  double Mean() const {
    const int64_t c = count();
    return c == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(c);
  }

 private:
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
};

// Count and sum of one Counter, or of several added up.
struct CounterSum {
  int64_t count = 0;
  int64_t sum = 0;

  void Add(const Counter& c) {
    count += c.count();
    sum += c.sum();
  }
  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

// ---- Stats field lists -----------------------------------------------------
//
// Every stats struct is declared once, as an X-macro list with one entry
// per field: its name, and what it counts in a comment. The members, Reset,
// the metrics-registry names (PsSystem::RegisterMetrics) and the sums are
// generated from the list, so one line in it adds a counter.

// What a reset does to a field of an int64 list.
enum class StatKind : uint8_t {
  kCumulative,  // counts since the last reset, which zeroes it
  kLevel,       // a current amount (keys pinned now), which a reset keeps
};

// Expansions of an int64 list X(name, kind).
#define LAPSE_STAT_INT64(name, kind) int64_t name = 0;
#define LAPSE_STAT_ATOMIC(name, kind) std::atomic<int64_t> name{0};
#define LAPSE_STAT_COUNT(...) +1
#define LAPSE_STAT_VISIT(name, kind) \
  f(#name, [](auto&& s) -> auto& { return s.name; }, StatKind::kind);

// The body of the plain struct of an int64 list: its members, kNumFields,
// and ForEachField(f), which calls f(name, get, kind) per field, where
// get(s) is that field of s -- the plain struct or its atomic twin (a
// struct of LIST(LAPSE_STAT_ATOMIC) that the counting class keeps).
#define LAPSE_STAT_INT64_STRUCT(LIST)                              \
  LIST(LAPSE_STAT_INT64)                                           \
  static constexpr size_t kNumFields = 0 LIST(LAPSE_STAT_COUNT);   \
  template <typename F>                                            \
  static void ForEachField(F&& f) {                                \
    LIST(LAPSE_STAT_VISIT)                                         \
  }

// A relaxed snapshot of live (atomic) stats into their plain struct.
template <typename Plain, typename Live>
Plain LoadStats(const Live& live) {
  static_assert(sizeof(Plain) == Plain::kNumFields * sizeof(int64_t),
                "every field of a stats struct belongs in its list");
  Plain out;
  Plain::ForEachField([&](const char*, auto get, StatKind) {
    get(out) = get(live).load(std::memory_order_relaxed);
  });
  return out;
}

// Zeroes the cumulative fields of live stats; levels keep their value.
template <typename Plain, typename Live>
void ResetCumulative(Live& live) {
  Plain::ForEachField([&](const char*, auto get, StatKind kind) {
    if (kind == StatKind::kCumulative) {
      get(live).store(0, std::memory_order_relaxed);
    }
  });
}

// Summary statistics over a sample of doubles (single-threaded builder).
struct Summary {
  size_t n = 0;
  double min = 0, max = 0, mean = 0, p50 = 0, p95 = 0, p99 = 0, p999 = 0;
};

// Computes a Summary. `values` is copied and sorted internally, so each
// call pays one O(n log n) sort: summarize once per sample set, not inside
// a loop. For high-volume or concurrent measurement use obs::Histogram,
// which is O(1) per sample and mergeable (Histogram::ToSummary bridges to
// this type).
Summary Summarize(std::vector<double> values);

// Formats a Summary on one line for logs.
std::string ToString(const Summary& s);

}  // namespace lapse

#endif  // LAPSE_UTIL_STATS_H_
