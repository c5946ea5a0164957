// Paper-workload benchmark of the Lapse parameter server.
//
//   perfbench --workload <mf-lapse|mf-classic|kge-pal|embed-serving>
//             --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// Prints a human-readable report, writes the full result (and, traced, the
// spans) under --out, and prints one JSON object as the last line of
// stdout: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs the per-layer ones.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

struct WorkloadDef {
  const char* name;
  WorkloadResult (*run)(const Options&);
};

constexpr WorkloadDef kWorkloads[] = {
    {"mf-lapse", RunMfLapse},
    {"mf-classic", RunMfClassic},
    {"kge-pal", RunKgePal},
    {"embed-serving", RunEmbedServing},
};

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(ms[i].name) + ": {\"value\": " + Num(ms[i].value) +
           ", \"unit\": " + Quote(ms[i].unit) + "}";
  }
  return out + "}";
}

double Ratio(double a, double b) { return b != 0 ? a / b : 0; }

// Nearest-rank percentile of sorted samples.
double Percentile(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return static_cast<double>(sorted[rank - 1]);
}

// items/s over the first and second halves (by time) of the untraced
// slices; a gap beyond 10% means the run was still warming up (or cooling
// down) when it was measured.
std::pair<double, double> HalfRates(const WorkloadResult& r) {
  std::vector<const Slice*> s;
  for (const Slice& x : r.slices) {
    if (!x.traced) s.push_back(&x);
  }
  double items[2] = {0, 0}, secs[2] = {0, 0};
  for (size_t i = 0; i < s.size(); ++i) {
    const int h = i < s.size() / 2 ? 0 : 1;
    items[h] += s[i]->items;
    secs[h] += s[i]->seconds;
  }
  return {Ratio(items[0], secs[0]), Ratio(items[1], secs[1])};
}

// Exact percentile p of each calm untraced slice, in slice order.
std::vector<double> SlicePercentiles(const WorkloadResult& r, double p) {
  std::vector<double> v;
  for (const Slice* s : CalmSlices(r, false)) {
    if (s->latency_ns.empty()) continue;
    std::vector<int64_t> sorted = s->latency_ns;
    std::sort(sorted.begin(), sorted.end());
    v.push_back(Percentile(sorted, p));
  }
  return v;
}

// Lower quartile over the calm slices of each slice's exact percentile.
// Steal too short to disqualify a slice still inflates its tail, and only
// in that direction.
double SlicePercentile(const WorkloadResult& r, double p) {
  return Quantile(SlicePercentiles(r, p), 0.25);
}

std::vector<Metric> EndToEnd(const WorkloadResult& r) {
  std::vector<double> setup;
  for (const SetupTimes& st : r.setups) setup.push_back(st.total());
  return {
      {"items_per_s", SliceRate(r, false), "1/s"},
      {"latency_p50_us", SlicePercentile(r, 50) * 1e-3, "us"},
      {"latency_p99_us", SlicePercentile(r, 99) * 1e-3, "us"},
      {"final_loss", r.final_loss, "loss"},
      {"setup_s", Median(setup), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

std::vector<Metric> PerLayer(const WorkloadResult& r, const Budget& b) {
  const Counters& c = r.counters;
  const double items = static_cast<double>(std::max<int64_t>(1, r.items()));
  auto span = [&](SpanName n) {
    return b.per_item_ns[static_cast<int>(n)];
  };
  auto setup_s = [&](double SetupTimes::*phase) {
    std::vector<double> v;
    for (const SetupTimes& st : r.setups) v.push_back(st.*phase);
    return Median(v);
  };
  const double reads =
      static_cast<double>(c.local_reads + c.remote_reads + c.replica_reads);
  return {
      {"ps.worker.pull_ns", span(SpanName::kPull), "ns/item"},
      {"ps.worker.push_ns", span(SpanName::kPush), "ns/item"},
      {"ps.worker.localize_ns", span(SpanName::kLocalize), "ns/item"},
      {"ps.worker.wait_ns", span(SpanName::kWait), "ns/item"},
      {"ps.worker.barrier_ns", span(SpanName::kBarrier), "ns/item"},
      {"app.compute_ns", span(SpanName::kCompute), "ns/item"},
      {"trace.item_ns", b.item_ns, "ns/item"},
      {"trace.overhead", Ratio(SliceRate(r, true), SliceRate(r, false)),
       "ratio"},
      {"setup.construct_s", setup_s(&SetupTimes::construct), "s"},
      {"setup.load_s", setup_s(&SetupTimes::load), "s"},
      {"setup.place_s", setup_s(&SetupTimes::place), "s"},
      {"setup.warmup_s", setup_s(&SetupTimes::warmup), "s"},
      {"net.msgs_per_item", c.msgs / items, "msg/item"},
      {"net.remote_msgs_per_item", c.remote_msgs / items, "msg/item"},
      {"net.bytes_per_item", c.bytes / items, "B/item"},
      {"net.reloc_msgs_per_item", c.reloc_msgs / items, "msg/item"},
      {"net.batch_msgs_per_item", c.batch_msgs / items, "msg/item"},
      {"ps.server.backlog_us",
       Ratio(static_cast<double>(c.backlog_sum_ns), c.backlog_count) * 1e-3,
       "us"},
      {"ps.server.relocations_per_item", c.relocations / items, "key/item"},
      {"ps.server.reloc_us",
       Ratio(static_cast<double>(c.reloc_sum_ns), c.relocations) * 1e-3,
       "us"},
      {"ps.server.conflicts_per_item", c.conflicts / items, "key/item"},
      {"ps.server.queued_ops_per_item", c.queued_ops / items, "op/item"},
      {"ps.local_read_share", Ratio(c.local_reads, reads), "ratio"},
      {"ps.replica.read_share", Ratio(c.replica_reads, reads), "ratio"},
      {"ps.replica.stale_miss_share",
       Ratio(c.stale_misses, c.replica_reads + c.stale_misses), "ratio"},
      {"ps.replica.folds_per_flush", Ratio(c.folds, c.flushed_keys),
       "fold/key"},
      {"ps.coalescer.ops_per_batch",
       Ratio(c.coalesce_subops, c.coalesce_batches), "op/batch"},
      {"ps.coalescer.forced_drain_share",
       Ratio(c.forced_drains, c.coalesce_batches), "ratio"},
      {"adapt.localizes_per_s", Ratio(c.adapt_localizes, r.phase_seconds),
       "1/s"},
      {"adapt.evictions_per_s", Ratio(c.adapt_evictions, r.phase_seconds),
       "1/s"},
      {"adapt.pinned_keys", static_cast<double>(c.pinned_keys), "key"},
      {"adapt.dropped_sample_share",
       Ratio(c.adapt_dropped, c.adapt_samples + c.adapt_dropped), "ratio"},
  };
}

int Main(int argc, char** argv) {
  Options opts;
  opts.out_dir = ".";
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = v;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(v);
    } else if (flag == "--out") {
      opts.out_dir = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (opts.workload == w.name) def = &w;
  }
  if (def == nullptr || (trace != 0 && trace != 1) || !(opts.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <mf-lapse|mf-classic|kge-pal|"
                 "embed-serving> --seed <n> --seconds <s> --trace <0|1> "
                 "[--out <dir>]\n");
    return 2;
  }
  opts.trace = trace == 1;

  const int nproc = Nproc();
  if (kBusyThreads > nproc) {
    std::fprintf(stderr,
                 "refusing to run: %d busy threads (worker + server drain "
                 "threads spin) on %d available CPUs\n",
                 kBusyThreads, nproc);
    return 3;
  }
  CalibrateTicks();

  const StealSample steal0 = StealSample::Read();
  WorkloadResult r = def->run(opts);
  const double steal_share = StealSample::Read().ShareSince(steal0);

  // All untraced samples, for the whole-phase percentiles of the report.
  std::vector<int64_t> lat;
  for (const Slice& s : r.slices) {
    lat.insert(lat.end(), s.latency_ns.begin(), s.latency_ns.end());
  }
  std::sort(lat.begin(), lat.end());
  const std::vector<Metric> e2e = EndToEnd(r);
  const Budget budget = ComputeBudget(r.trace);
  const std::vector<Metric> layers = PerLayer(r, budget);

  // Highest percentile with at least ten samples beyond it.
  double tail_p = 0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99, 99.999}) {
    if (lat.size() * (1 - p / 100) >= 10) tail_p = p;
  }
  const auto [first_half, second_half] = HalfRates(r);
  const double half_gap = std::fabs(Ratio(first_half, second_half) - 1);
  const bool warm = half_gap <= 0.10;
  const bool budget_ok = !opts.trace ||
                         std::fabs(Ratio(budget.sum_ns, budget.item_ns) - 1) <=
                             r.budget_tolerance;

  // ---- human-readable report -------------------------------------------
  std::printf("perfbench %s  seed=%llu (held-out seed %llu)  %.1fs  trace=%d\n",
              def->name, static_cast<unsigned long long>(opts.seed),
              static_cast<unsigned long long>(kHeldOutSeed), opts.seconds,
              trace);
  std::printf("  nproc=%d  threads: %d busy (%d nodes x (%d worker + %d "
              "server shard)), %d sleeping (placement managers)\n",
              nproc, r.busy_threads, kNodes, kWorkersPerNode, kServerShards,
              r.sleeping_threads);
  std::printf("  fabric: %s\n  label: %s\n  host steal: %.2f%% of CPU "
              "time during the run\n",
              kFabricName, r.bound_label.c_str(), steal_share * 100);
  std::printf("  measured: %lld items in %.3f s over %zu slices; figures "
              "from %zu untraced slices with host steal <= %.0f%%\n",
              static_cast<long long>(r.items()), r.phase_seconds,
              r.slices.size(), CalmSlices(r, false).size(),
              kCalmSteal * 100);
  std::printf("  latency samples: %zu (every %lld-th item), whole phase "
              "p50 %.2f us, p99 %.2f us, p%g %.2f us (highest percentile with "
              ">= 10 samples beyond); the metrics below are per-slice "
              "percentiles, lower quartile over slices\n",
              lat.size(), static_cast<long long>(r.latency_every),
              Percentile(lat, 50) * 1e-3, Percentile(lat, 99) * 1e-3, tail_p,
              Percentile(lat, tail_p) * 1e-3);
  std::printf("  loss: initial %s final %.6f (%s)\n",
              Num(r.initial_loss).c_str(), r.final_loss,
              r.loss_definition.c_str());
  std::printf("  warm-up check: first half %.1f items/s, second half %.1f "
              "items/s: %s\n",
              first_half, second_half,
              warm ? "ok" : "MISMATCH (>10%), still warming up");
  for (const Metric& m : e2e) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (opts.trace) {
    std::printf("  per-layer (self time per item; edges spread over all "
                "items; tick read %.1f ns subtracted per leaf span):\n",
                budget.tick_read_ns);
    for (const Metric& m : layers) {
      std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("  budget: layers sum to %.1f ns/item vs traced %.1f "
                "ns/item (%lld sampled items, tracer bookkeeping %.1f ns "
                "per sampled item left out): %s (tolerance %.0f%%: %s)\n",
                budget.sum_ns, budget.item_ns,
                static_cast<long long>(budget.sampled_items),
                budget.per_item_ns[static_cast<int>(SpanName::kItem)],
                budget_ok ? "ok" : "OUTSIDE", r.budget_tolerance * 100,
                r.budget_reason.c_str());
  }
  for (const auto& [name, value] : r.notes) {
    std::printf("  %-34s %14.6g\n", name.c_str(), value);
  }
  for (const std::string& f : r.failures) {
    std::printf("  FAILED: %s\n", f.c_str());
  }

  // ---- result files ------------------------------------------------------
  const std::string stem = opts.out_dir + "/" + def->name + "-seed" +
                           std::to_string(opts.seed) + "-trace" +
                           std::to_string(trace);
  {
    std::ofstream out(stem + ".json");
    std::vector<Metric> notes;
    for (const auto& [name, value] : r.notes) {
      notes.push_back({name, value, ""});
    }
    std::string failures = "[";
    for (size_t i = 0; i < r.failures.size(); ++i) {
      failures += (i ? ", " : "") + Quote(r.failures[i]);
    }
    failures += "]";
    out << "{\"workload\": " << Quote(def->name)
        << ", \"seed\": " << opts.seed << ", \"held_out_seed\": "
        << kHeldOutSeed << ", \"seconds\": " << Num(opts.seconds)
        << ", \"trace\": " << trace << ", \"nproc\": " << nproc
        << ", \"busy_threads\": " << r.busy_threads
        << ", \"sleeping_threads\": " << r.sleeping_threads
        << ", \"fabric\": " << Quote(kFabricName)
        << ", \"host_steal_share\": " << Num(steal_share)
        << ", \"label\": " << Quote(r.bound_label)
        << ", \"items\": " << r.items()
        << ", \"phase_seconds\": " << Num(r.phase_seconds)
        << ", \"latency_samples\": " << lat.size()
        << ", \"latency_tail_percentile\": " << Num(tail_p)
        << ", \"latency_tail_us\": " << Num(Percentile(lat, tail_p) * 1e-3)
        << ", \"initial_loss\": " << Num(r.initial_loss)
        << ", \"loss_definition\": " << Quote(r.loss_definition)
        << ", \"warmup_check\": {\"first_half_items_per_s\": "
        << Num(first_half) << ", \"second_half_items_per_s\": "
        << Num(second_half) << ", \"ok\": " << (warm ? "true" : "false")
        << "}, \"budget\": {\"sum_ns\": " << Num(budget.sum_ns)
        << ", \"item_ns\": " << Num(budget.item_ns)
        << ", \"tolerance\": " << Num(r.budget_tolerance)
        << ", \"ok\": " << (budget_ok ? "true" : "false")
        << "}, \"slice_items_per_s\": [";
    for (size_t i = 0; i < r.slices.size(); ++i) {
      out << (i ? ", " : "")
          << Num(Ratio(r.slices[i].items, r.slices[i].seconds));
    }
    out << "], \"slice_steal_share\": [";
    for (size_t i = 0; i < r.slices.size(); ++i) {
      out << (i ? ", " : "") << Num(r.slices[i].steal_share);
    }
    out << "]";
    for (const double p : {50.0, 99.0}) {
      out << ", \"slice_latency_p" << p << "_us\": [";
      const std::vector<double> v = SlicePercentiles(r, p);
      for (size_t i = 0; i < v.size(); ++i) {
        out << (i ? ", " : "") << Num(v[i] * 1e-3);
      }
      out << "]";
    }
    out << ", \"end_to_end\": " << MetricsJson(e2e)
        << ", \"per_layer\": " << MetricsJson(layers)
        << ", \"notes\": " << MetricsJson(notes)
        << ", \"failures\": " << failures << "}\n";
  }
  // One span file per workload, replaced by each traced run: a traced
  // mf-lapse run records ~3M spans.
  const std::string spans =
      opts.out_dir + "/" + def->name + ".spans.tsv";
  if (opts.trace && !WriteSpans(spans, r.trace)) {
    std::fprintf(stderr, "cannot write %s\n", spans.c_str());
  }

  const bool correct = r.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(1, r.items())),
              static_cast<long long>(r.failed),
              MetricsJson(opts.trace ? layers : e2e).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
