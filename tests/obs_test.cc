#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/histogram.h"
#include "obs/metrics_registry.h"
#include "obs/observability.h"
#include "obs/timeline.h"
#include "ps/system.h"
#include "util/rng.h"

// The observability layer: log-bucketed histogram accuracy against exact
// sorted percentiles, concurrent record-while-snapshot safety (this file
// runs under the tsan ctest label), and the end-to-end path from sampled
// ops through the collector to finalized records and JSON exports.

namespace lapse {
namespace {

// ------------------------------------------------------- Histogram ------

int64_t ExactQuantile(std::vector<int64_t> sorted, double q) {
  // Same rank convention as Histogram::ValueAtQuantile: the smallest value
  // whose cumulative count reaches ceil(q * count).
  const auto rank = static_cast<size_t>(
      std::max<int64_t>(1, static_cast<int64_t>(
                               q * static_cast<double>(sorted.size()) + 0.5)));
  return sorted[std::min(rank, sorted.size()) - 1];
}

TEST(HistogramTest, PercentilesMatchExactSortWithinBucketError) {
  Rng rng(42);
  obs::Histogram h;
  std::vector<int64_t> values;
  // Log-uniform spread over ~6 orders of magnitude, like latencies.
  for (int i = 0; i < 20'000; ++i) {
    const double exp = 3.0 + 6.0 * rng.NextDouble();
    const auto v = static_cast<int64_t>(std::pow(10.0, exp));
    values.push_back(v);
    h.Add(v);
  }
  std::sort(values.begin(), values.end());

  EXPECT_EQ(h.Count(), 20'000);
  EXPECT_EQ(h.Min(), values.front());
  EXPECT_EQ(h.Max(), values.back());
  for (const double q : {0.5, 0.95, 0.99, 0.999}) {
    const double exact = static_cast<double>(ExactQuantile(values, q));
    const double approx = static_cast<double>(h.ValueAtQuantile(q));
    // One sub-bucket of relative error (2^-kSubBucketBits), plus a hair
    // for the bucket-midpoint convention.
    EXPECT_NEAR(approx / exact, 1.0, 0.04)
        << "quantile " << q << ": exact " << exact << " approx " << approx;
  }
}

TEST(HistogramTest, NegativeValuesClampToZero) {
  obs::Histogram h;
  h.Add(-5);
  h.Add(-1);
  EXPECT_EQ(h.Count(), 2);
  EXPECT_EQ(h.Sum(), 0);
  EXPECT_EQ(h.Max(), 0);
}

TEST(HistogramTest, MergePreservesCountsAndPercentiles) {
  Rng rng(7);
  obs::Histogram a, b, direct;
  for (int i = 0; i < 5'000; ++i) {
    const auto v = static_cast<int64_t>(rng.NextDouble() * 1e6);
    (i % 2 == 0 ? a : b).Add(v);
    direct.Add(v);
  }
  a.MergeFrom(b);
  EXPECT_EQ(a.Count(), direct.Count());
  EXPECT_EQ(a.Sum(), direct.Sum());
  EXPECT_EQ(a.Min(), direct.Min());
  EXPECT_EQ(a.Max(), direct.Max());
  for (const double q : {0.5, 0.99}) {
    EXPECT_EQ(a.ValueAtQuantile(q), direct.ValueAtQuantile(q));
  }
}

TEST(HistogramTest, ConcurrentAddWhileSummarizing) {
  obs::Histogram h;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    int64_t v = 1;
    for (int i = 0; i < 200'000; ++i) {
      h.Add(v);
      v = (v * 7) % 1'000'000 + 1;
    }
    done.store(true, std::memory_order_release);
  });
  // Reader: snapshots must stay sane while Add() runs. Quantiles are each
  // computed from a fresh read of the live buckets, so cross-quantile
  // monotonicity is only guaranteed on a quiescent histogram -- here we
  // check the per-field invariants that must hold even mid-race.
  while (!done.load(std::memory_order_acquire)) {
    const obs::HistogramSummary s = h.Summarize();
    EXPECT_GE(s.count, 0);
    EXPECT_GE(s.sum, 0);
    EXPECT_GE(s.p50, 0);
    EXPECT_GE(s.p999, 0);
  }
  writer.join();
  EXPECT_EQ(h.Count(), 200'000);
  const obs::HistogramSummary s = h.Summarize();
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.p999);
  EXPECT_LE(s.p999, s.max);
}

// ------------------------------------------------- MetricsRegistry ------

TEST(MetricsRegistryTest, SnapshotAndJsonCoverAllMetricKinds) {
  obs::MetricsRegistry reg;
  Counter c;
  c.Add(3);
  c.Add(4);
  obs::Histogram h;
  h.Add(100);
  int64_t gauge_source = 17;
  reg.AddCounter("node0.test_counter", &c);
  reg.AddGauge("net.test_gauge", [&] { return gauge_source; });
  reg.AddHistogram("obs.test_hist", &h);
  EXPECT_EQ(reg.NumMetrics(), 3u);

  const obs::MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "node0.test_counter");
  EXPECT_EQ(snap.counters[0].count, 2);
  EXPECT_EQ(snap.counters[0].sum, 7);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, 17);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].summary.count, 1);

  // Gauges read live values at snapshot time, not registration time.
  gauge_source = 23;
  EXPECT_EQ(reg.Snapshot().gauges[0].value, 23);

  const std::string json = obs::MetricsRegistry::ToJson(snap);
  EXPECT_NE(json.find("\"node0.test_counter\""), std::string::npos);
  EXPECT_NE(json.find("\"net.test_gauge\": 17"), std::string::npos);
  EXPECT_NE(json.find("\"p999\""), std::string::npos);
}

// ------------------------------------------------------ end to end ------

ps::Config ObsConfigFor(int num_nodes) {
  ps::Config cfg;
  cfg.num_nodes = num_nodes;
  cfg.workers_per_node = 1;
  cfg.num_keys = 64;
  cfg.uniform_value_length = 4;
  cfg.arch = ps::Architecture::kLapse;
  cfg.obs.sample_every = 1;  // trace every op: the test needs determinism
  cfg.obs.snapshot_micros = 200;
  return cfg;
}

TEST(ObservabilityEndToEndTest, SampledOpsFinalizeWithPhases) {
  ps::PsSystem system(ObsConfigFor(2));
  system.Run([](ps::Worker& w) {
    std::vector<Val> buf(8);  // room for the final two-key pull
    const std::vector<Val> upd(4, 1.0f);
    for (Key k = 0; k < 64; ++k) {
      w.Pull({k}, buf.data());
      w.Push({k}, upd.data());
    }
    w.Localize({0, 63});
    w.Pull({0, 63}, buf.data());
  });

  obs::Observability* obs = system.observability();
  ASSERT_NE(obs, nullptr);
  obs->Flush();
  const std::vector<obs::OpRecord> records = obs->FinalizedRecords();
  ASSERT_FALSE(records.empty());

  int64_t pulls = 0, pushes = 0, localizes = 0, with_hops = 0;
  for (const obs::OpRecord& r : records) {
    EXPECT_GT(r.complete_ns, 0);
    EXPECT_GE(r.LatencyNs(), 0);
    EXPECT_GE(r.queue_ns, 0);
    switch (r.kind) {
      case obs::OpKind::kPull: ++pulls; break;
      case obs::OpKind::kPush: ++pushes; break;
      case obs::OpKind::kLocalize: ++localizes; break;
      default: break;
    }
    if (r.hops > 0) ++with_hops;
  }
  // Every op was sampled; both workers pulled and pushed all 64 keys.
  EXPECT_GT(pulls, 0);
  EXPECT_GT(pushes, 0);
  EXPECT_GT(localizes, 0);
  // Half the keyspace is remote to each worker: some ops paid hops.
  EXPECT_GT(with_hops, 0);
  EXPECT_EQ(obs->dropped_events(), 0);

  // Ops that paid hops recorded per-hop queue time.
  const obs::HistogramSummary queue =
      obs->PhaseDuration(obs::Phase::kQueue).Summarize();
  EXPECT_GT(queue.count, 0);
  // The registry names the core serving counters of every node.
  const obs::MetricsSnapshot snap = system.metrics().Snapshot();
  bool found_local_reads = false, found_backlog = false;
  for (const auto& cv : snap.counters) {
    if (cv.name == "node0.local_key_reads") found_local_reads = true;
    if (cv.name == "node1.shard0.backlog_ns.BatchOp") found_backlog = true;
  }
  EXPECT_TRUE(found_local_reads);
  EXPECT_TRUE(found_backlog);
}

TEST(ObservabilityEndToEndTest, JsonAndTraceExportsAreWellFormed) {
  const std::string metrics_path = "obs_test_metrics.json";
  const std::string trace_path = "obs_test_trace.json";
  {
    ps::PsSystem system(ObsConfigFor(2));
    system.Run([](ps::Worker& w) {
      std::vector<Val> buf(4);
      for (Key k = 0; k < 64; ++k) w.Pull({k}, buf.data());
    });
    EXPECT_TRUE(system.DumpMetrics(metrics_path));
    EXPECT_TRUE(system.DumpTrace(trace_path));
  }
  std::ifstream mf(metrics_path);
  ASSERT_TRUE(mf.good());
  std::stringstream ms;
  ms << mf.rdbuf();
  const std::string metrics = ms.str();
  EXPECT_EQ(metrics.front(), '{');
  EXPECT_NE(metrics.find("\"counters\""), std::string::npos);
  EXPECT_NE(metrics.find("\"histograms\""), std::string::npos);
  EXPECT_NE(metrics.find("obs.op.pull.latency_ns"), std::string::npos);

  std::ifstream tf(trace_path);
  ASSERT_TRUE(tf.good());
  std::stringstream ts;
  ts << tf.rdbuf();
  const std::string trace = ts.str();
  EXPECT_EQ(trace.front(), '[');
  // Chrome trace event fields.
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"queue_us\""), std::string::npos);
  std::remove(metrics_path.c_str());
  std::remove(trace_path.c_str());
}

TEST(ObservabilityEndToEndTest, TracingOffStillExportsMetrics) {
  ps::Config cfg = ObsConfigFor(2);
  cfg.obs = obs::ObsConfig{};  // default: tracing off
  const std::string metrics_path = "obs_test_untraced_metrics.json";
  const std::string trace_path = "obs_test_untraced_trace.json";
  ps::PsSystem system(cfg);
  system.Run([](ps::Worker& w) {
    std::vector<Val> buf(4);
    for (Key k = 0; k < 64; ++k) w.Pull({k}, buf.data());
  });
  // No collector, rings or histograms, and so no trace.
  EXPECT_EQ(system.observability(), nullptr);
  EXPECT_FALSE(system.DumpTrace(trace_path));
  std::ifstream tf(trace_path);
  EXPECT_FALSE(tf.good());
  // The registry is always on.
  ASSERT_TRUE(system.DumpMetrics(metrics_path));
  std::ifstream mf(metrics_path);
  ASSERT_TRUE(mf.good());
  std::stringstream ms;
  ms << mf.rdbuf();
  EXPECT_NE(ms.str().find("\"node0.local_key_reads\""), std::string::npos);
  EXPECT_EQ(ms.str().find("obs."), std::string::npos);
  std::remove(metrics_path.c_str());
}

TEST(ObservabilityEndToEndTest, CollectorKeepsUpUnderConcurrentLoad) {
  // Concurrent record-while-snapshot: four nodes trace every op while the
  // collector drains every 200us; run under tsan via the ctest label.
  ps::Config cfg = ObsConfigFor(4);
  cfg.workers_per_node = 2;
  ps::PsSystem system(cfg);
  system.Run([](ps::Worker& w) {
    std::vector<Val> buf(4);
    const std::vector<Val> upd(4, 0.5f);
    Rng rng(static_cast<uint64_t>(17 + w.worker_id()));
    for (int i = 0; i < 2'000; ++i) {
      const Key k = static_cast<Key>(rng.Uniform(64));
      if (i % 10 == 0) {
        w.Push({k}, upd.data());
      } else {
        w.Pull({k}, buf.data());
      }
    }
  });
  obs::Observability* obs = system.observability();
  obs->Flush();
  EXPECT_GT(obs->finalized_ops(), 0);
  // Whatever was sampled and survived ring pressure must have finalized;
  // orphans would mean completion events got lost somewhere in the
  // message plumbing rather than dropped by an overrun ring.
  if (obs->dropped_events() == 0) {
    EXPECT_EQ(obs->orphaned_ops(), 0);
  }
}

// ------------------------------------------------- stats field lists ----

// 2 nodes x 2 shards with replication and the adaptive engine on, so every
// stats list has live instances; tracing stays off.
ps::Config StatsConfig() {
  ps::Config cfg;
  cfg.num_nodes = 2;
  cfg.workers_per_node = 1;
  cfg.server_threads = 2;
  cfg.num_keys = 64;
  cfg.uniform_value_length = 4;
  cfg.arch = ps::Architecture::kLapse;
  cfg.replication = true;
  cfg.adaptive.enabled = true;
  cfg.adaptive.tick_micros = 1'000;
  return cfg;
}

// Pins two keys homed at the other node, reads and writes them and some
// of the node's own keys, localizes one, and returns once the node's
// placement manager has ticked: every stats list counts something.
void TouchEveryList(ps::PsSystem& system, ps::Worker& w) {
  const NodeId other = 1 - w.node();
  const Key a = system.layout().HomeBegin(other);
  const Key b = a + 1;
  const Key own = system.layout().HomeBegin(w.node());
  std::vector<Val> buf(4);
  const std::vector<Val> upd(4, 1.0f);
  w.Replicate({a, b});
  for (int i = 0; i < 50; ++i) {
    w.Pull({a}, buf.data());
    w.Push({b}, upd.data());
    w.Pull({own}, buf.data());
  }
  w.Localize({a + 2});
  while (system.placement_manager(w.node()).stats().ticks == 0) {
    std::this_thread::yield();
  }
}

// name -> {count, sum} of every registry entry the stats lists call for,
// read from the live stats (a gauge's value is both). The names of level
// fields go to `levels` too, if given.
using StatValues = std::map<std::string, std::pair<int64_t, int64_t>>;

StatValues ListedStats(ps::PsSystem& system,
                       std::set<std::string>* levels = nullptr) {
  StatValues out;
  auto add_int = [&](const std::string& name, int64_t v, StatKind kind) {
    out[name] = {v, v};
    if (levels != nullptr && kind == StatKind::kLevel) levels->insert(name);
  };
  for (NodeId n = 0; n < system.config().num_nodes; ++n) {
    const std::string p = "node" + std::to_string(n) + ".";
    auto add = [&](const std::string& name, const auto& field) {
      ps::ForEachCounter(field, [&](const std::string& suffix,
                                    const Counter& c) {
        out[name + suffix] = {c.count(), c.sum()};
      });
    };
    ps::ServerStats::ForEachField([&](const char* name, auto get,
                                      ps::StatWriter writer) {
      if (writer == ps::StatWriter::kWorker) {
        add(p + name, get(system.node_stats(n)));
        return;
      }
      for (int s = 0; s < system.config().server_threads; ++s) {
        add(p + "shard" + std::to_string(s) + "." + name,
            get(system.shard_stats(n, s)));
      }
    });
    const ps::ReplicaManagerStats rs = system.replica_manager(n)->stats();
    ps::ReplicaManagerStats::ForEachField(
        [&](const char* name, auto get, StatKind kind) {
          add_int(p + "replica." + name, get(rs), kind);
        });
    const adapt::AdaptStats as = system.placement_manager(n).stats();
    adapt::AdaptStats::ForEachField(
        [&](const char* name, auto get, StatKind kind) {
          add_int(p + "adapt." + name, get(as), kind);
        });
  }
  net::NetStats::ForEachTotal([&](const char* name, auto get) {
    add_int(std::string("net.") + name, get(system.net_stats()),
            StatKind::kCumulative);
  });
  return out;
}

TEST(StatsListTest, RegistryNamesEveryListedFieldAndNothingElse) {
  ps::PsSystem system(StatsConfig());
  ASSERT_EQ(system.observability(), nullptr);
  system.Run([&](ps::Worker& w) { TouchEveryList(system, w); });

  const StatValues listed = ListedStats(system);
  StatValues registered;
  const obs::MetricsSnapshot snap = system.metrics().Snapshot();
  for (const auto& c : snap.counters) {
    EXPECT_TRUE(registered.emplace(c.name, std::make_pair(c.count, c.sum))
                    .second)
        << c.name << " is registered twice";
  }
  for (const auto& g : snap.gauges) {
    EXPECT_TRUE(
        registered.emplace(g.name, std::make_pair(g.value, g.value)).second)
        << g.name << " is registered twice";
  }
  // Tracing is off: no histograms, and every name belongs to a list.
  EXPECT_TRUE(snap.histograms.empty());
  for (const auto& [name, value] : listed) {
    const auto it = registered.find(name);
    ASSERT_NE(it, registered.end()) << name << " is listed, not registered";
    EXPECT_EQ(it->second, value) << name << " reads another field";
  }
  for (const auto& [name, value] : registered) {
    EXPECT_EQ(listed.count(name), 1u) << name << " is in no stats list";
  }
  // Names the parent registered by hand keep their spelling.
  for (const char* name :
       {"node0.local_key_reads", "node1.shard1.relocations",
        "node0.shard0.backlog_ns.BatchOp", "node1.replica.pinned",
        "node0.adapt.dropped_samples", "net.total_messages"}) {
    EXPECT_EQ(registered.count(name), 1u) << name;
  }
}

TEST(StatsListTest, ResetStatsZeroesEveryCumulativeFieldAndKeepsLevels) {
  ps::PsSystem system(StatsConfig());
  system.Run([&](ps::Worker& w) { TouchEveryList(system, w); });

  std::set<std::string> levels;
  const StatValues before = ListedStats(system, &levels);
  EXPECT_EQ(levels, (std::set<std::string>{"node0.replica.pinned",
                                           "node1.replica.pinned"}));
  for (const char* name :
       {"node0.local_key_reads", "node1.replica.installs",
        "node0.replica.folds", "node1.adapt.ticks", "net.total_messages"}) {
    EXPECT_GT(before.at(name).first, 0) << name;
  }
  for (const std::string& name : levels) EXPECT_GE(before.at(name).first, 2);

  system.ResetStats();
  for (const auto& [name, value] : ListedStats(system)) {
    if (levels.count(name) != 0) {
      EXPECT_EQ(value, before.at(name)) << name;
    } else {
      EXPECT_EQ(value, std::make_pair(int64_t{0}, int64_t{0})) << name;
    }
  }
}

}  // namespace
}  // namespace lapse
