// embed-serving: a closed loop of embedding lookups. Each node's worker is
// one client with one outstanding request: 16 single-key PullAsync Zipf
// lookups, one request in 20 also a PushAsync of +1 on a counter, then
// WaitAll. The adaptive placement engine, replication and request
// coalescing are on, so this is where adapt/, ReplicaManager and
// Coalescer do their work.
#include <algorithm>
#include <cmath>

#include "util/rng.h"
#include "util/zipf.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr uint64_t kKeys = 1 << 17;  // power of two: KeyFor is a bijection
constexpr size_t kLen = 16;          // [counter | 15 embedding dims]
constexpr double kZipf = 1.1;
constexpr int kLookups = 16;
constexpr int kPushEvery = 20;
constexpr int64_t kWarmupRequests = 6'000;  // per client
constexpr int kSetupReps = 5;
constexpr double kSliceSeconds = 0.25;
constexpr uint32_t kTraceEvery = 4;
constexpr int kLossRequests = 2'048;  // per client

// Shared rank -> key scatter: every client sees the same hot set, spread
// over both home ranges.
Key KeyFor(uint64_t rank) { return (rank * 0x9E3779B1ULL) & (kKeys - 1); }

// Embedding dims are small multiples of 1/8, so they are exact in float
// and any torn or misplaced read shows as a mismatch.
Val InitialDim(Key k, size_t d) {
  const uint64_t h = lapse::Mix64(k * 31 + d);
  return static_cast<Val>(static_cast<int>(h % 17) - 8) / 8.0f;
}

ps::Config ServingConfig(uint64_t seed) {
  ps::Config cfg;
  cfg.num_nodes = kNodes;
  cfg.workers_per_node = kWorkersPerNode;
  cfg.server_threads = kServerShards;
  cfg.num_keys = kKeys;
  cfg.uniform_value_length = kLen;
  cfg.arch = ps::Architecture::kLapse;
  cfg.latency = BenchLan();
  cfg.seed = seed;
  cfg.adaptive.enabled = true;
  cfg.adaptive.sample_period = 2;
  cfg.adaptive.tick_micros = 20'000;
  cfg.adaptive.decay = 0.8;
  cfg.adaptive.hot_threshold = 2.0;
  cfg.adaptive.cold_threshold = 0.2;
  cfg.adaptive.cold_ticks_to_evict = 20;
  cfg.adaptive.churn_limit = 1;
  cfg.replication = true;
  cfg.coalescing = true;
  return cfg;
}

struct ClientLog {
  std::vector<int64_t> done_ns;     // completion time of each request
  std::vector<int64_t> latency_ns;  // issue of the first lookup to WaitAll
  std::vector<uint8_t> traced;      // request was in a traced slice
  std::vector<int32_t> pushes;      // acked +1 pushes per key
  int64_t bad_requests = 0;         // a served value was not exact
  // Client 0 only: host steal counters at the start of each slice window
  // (taken by its first request in the window) and at the end.
  std::vector<StealSample> steal_marks;
  double loss_sum = 0;
  int64_t loss_n = 0;
};

// Runs the client loop on every worker: `warmup_requests` requests each
// (warm-up), or requests until `deadline_ns`.
void Serve(ps::PsSystem& system, uint64_t seed, int64_t warmup_requests,
           int64_t start_ns, int64_t deadline_ns, bool trace_run,
           const lapse::ZipfSampler& zipf, TraceSet* trace,
           std::vector<ClientLog>* clients) {
  const int workers = system.config().total_workers();
  while (trace->logs.size() < static_cast<size_t>(1 + workers)) {
    trace->NewLog();
  }
  const bool warmup = warmup_requests >= 0;
  system.Run([&](ps::Worker& w) {
    const int wid = w.worker_id();
    ClientLog& c = (*clients)[wid];
    SpanLog* log = trace->logs[1 + wid].get();
    ItemProbe probe(log);
    Sampler trace_sampler(kTraceEvery);
    lapse::Rng rng(lapse::Mix64(seed ^ (0x5e47ULL + wid * 2 + warmup)));
    std::vector<std::vector<Key>> one(kLookups, std::vector<Key>(1));
    std::vector<Val> buf(kLookups * kLen);
    std::vector<Val> update(kLen, 0.0f);
    update[0] = 1.0f;
    for (int64_t req = 0;; ++req) {
      const int64_t now = Now();
      if (warmup ? req >= warmup_requests : now >= deadline_ns) break;
      const size_t window =
          static_cast<size_t>((now - start_ns) / (kSliceSeconds * 1e9));
      const bool traced = !warmup && SliceTraced(trace_run, window);
      while (!warmup && wid == 0 && c.steal_marks.size() <= window) {
        c.steal_marks.push_back(StealSample::Read());
      }
      probe.Start(false, traced && trace_sampler.Next());
      for (int j = 0; j < kLookups; ++j) one[j][0] = KeyFor(zipf.Sample(rng));
      const bool push = req % kPushEvery == 0;
      probe.Mark(SpanName::kCompute);
      const int64_t t0 = Now();
      for (int j = 0; j < kLookups; ++j) {
        w.PullAsync(one[j], buf.data() + j * kLen);
        probe.Mark(SpanName::kPull);
      }
      if (push) {
        w.PushAsync(one[0], update.data());
        probe.Mark(SpanName::kPush);
      }
      w.WaitAll();
      const int64_t t1 = Now();
      probe.Mark(SpanName::kWait);
      if (push) ++c.pushes[one[0][0]];

      // Check every served value, and score the request with a fixed
      // linear readout over the served embeddings.
      bool exact = true;
      double score = 0;
      lapse::Rng readout(lapse::Mix64(seed ^ (uint64_t(wid) << 32) ^ req));
      for (int j = 0; j < kLookups; ++j) {
        const Val* v = buf.data() + j * kLen;
        exact &= v[0] >= 0 && v[0] == std::floor(v[0]);
        for (size_t d = 1; d < kLen; ++d) {
          exact &= v[d] == InitialDim(one[j][0], d);
          score += v[d] * (readout.NextDouble() * 2 - 1);
        }
      }
      if (!exact) ++c.bad_requests;
      probe.Finish(SpanName::kCompute);
      if (warmup) continue;
      if (req < kLossRequests) {
        const double err = score / kLookups - (readout.NextDouble() * 2 - 1);
        c.loss_sum += err * err;
        ++c.loss_n;
      }
      c.done_ns.push_back(t1);
      c.latency_ns.push_back(t1 - t0);
      c.traced.push_back(traced);
    }
    if (!warmup && wid == 0) c.steal_marks.push_back(StealSample::Read());
  });
}

}  // namespace

WorkloadResult RunEmbedServing(const Options& opts) {
  WorkloadResult r;
  r.bound_label =
      "model-bound: a request's time is mostly lookups waiting on "
      "modelled wire hops";
  r.busy_threads = kBusyThreads;
  r.sleeping_threads = kNodes;  // one placement manager per node
  r.latency_every = 1;
  r.loss_definition =
      "squared error of a fixed linear readout of the served embeddings, "
      "first " + std::to_string(kLossRequests) +
      " measured requests per client (no training: it moves only if "
      "served values are wrong)";
  const lapse::ZipfSampler zipf(kKeys, kZipf);
  const int clients = kNodes * kWorkersPerNode;
  std::vector<int32_t> pushes(kKeys, 0);
  SpanLog* main_log = r.trace.NewLog();

  std::unique_ptr<ps::PsSystem> system = RepeatSetup(
      kSetupReps, &r, main_log, [&](SetupRecorder& rec) {
        std::unique_ptr<ps::PsSystem> sys;
        rec.Phase(SpanName::kConstruct, [&] {
          sys = std::make_unique<ps::PsSystem>(ServingConfig(opts.seed));
        });
        rec.Phase(SpanName::kLoad, [&] {
          std::vector<Val> v(kLen);
          for (Key k = 0; k < kKeys; ++k) {
            v[0] = 0;
            for (size_t d = 1; d < kLen; ++d) v[d] = InitialDim(k, d);
            sys->SetValue(k, v.data());
          }
        });
        // Placement is the adaptive engine's job: it starts during
        // warm-up, so there is nothing to place up front.
        rec.Phase(SpanName::kPlace, [] {});
        std::vector<ClientLog> logs(clients);
        for (ClientLog& c : logs) c.pushes.assign(kKeys, 0);
        rec.Phase(SpanName::kWarmup, [&] {
          Serve(*sys, opts.seed, kWarmupRequests, 0, 0, false, zipf,
                &r.trace, &logs);
        });
        pushes.assign(kKeys, 0);
        for (const ClientLog& c : logs) {
          for (Key k = 0; k < kKeys; ++k) pushes[k] += c.pushes[k];
          if (c.bad_requests > 0) {
            r.Fail(c.bad_requests, "warm-up: requests served inexact values");
          }
        }
        return sys;
      });

  system->ResetStats();
  const Counters start = Counters::Read(*system);
  std::vector<ClientLog> logs(clients);
  for (ClientLog& c : logs) c.pushes.assign(kKeys, 0);
  const int64_t t0 = Now();
  const int64_t deadline = t0 + static_cast<int64_t>(opts.seconds * 1e9);
  Serve(*system, opts.seed, -1, t0, deadline, opts.trace, zipf, &r.trace,
        &logs);
  r.phase_seconds = static_cast<double>(Now() - t0) * 1e-9;
  r.counters = Counters::Delta(Counters::Read(*system), start);

  // Slices are fixed windows of the measured phase; a request belongs to
  // the window it completed in.
  const size_t n_slices =
      std::max<size_t>(1, static_cast<size_t>(opts.seconds / kSliceSeconds));
  r.slices.assign(n_slices, Slice{});
  const std::vector<StealSample>& marks = logs[0].steal_marks;
  for (size_t i = 0; i < n_slices; ++i) {
    r.slices[i].seconds = kSliceSeconds;
    r.slices[i].traced = SliceTraced(opts.trace, i);
    if (i + 1 < marks.size()) {
      r.slices[i].steal_share = marks[i + 1].ShareSince(marks[i]);
    }
  }
  double loss_sum = 0;
  int64_t loss_n = 0;
  for (const ClientLog& c : logs) {
    for (size_t i = 0; i < c.done_ns.size(); ++i) {
      const size_t s = std::min(
          n_slices - 1,
          static_cast<size_t>((c.done_ns[i] - t0) / (kSliceSeconds * 1e9)));
      ++r.slices[s].items;
      if (!c.traced[i]) r.slices[s].latency_ns.push_back(c.latency_ns[i]);
    }
    for (Key k = 0; k < kKeys; ++k) pushes[k] += c.pushes[k];
    loss_sum += c.loss_sum;
    loss_n += c.loss_n;
    if (c.bad_requests > 0) {
      r.Fail(c.bad_requests, "requests served inexact values");
    }
  }
  for (const Slice& s : r.slices) {
    if (s.traced) {
      r.trace.traced_items += s.items;
      r.trace.traced_thread_seconds += s.seconds * clients;
    }
  }
  r.final_loss = loss_n > 0 ? loss_sum / loss_n : 0;

  // Conservation: every key's counter at its owner equals the acked +1
  // pushes it received, and its embedding is untouched.
  int64_t lost = 0, bad_keys = 0;
  std::vector<Val> v(kLen);
  for (Key k = 0; k < kKeys; ++k) {
    system->GetValue(k, v.data());
    bool ok = v[0] == static_cast<Val>(pushes[k]);
    for (size_t d = 1; d < kLen; ++d) ok &= v[d] == InitialDim(k, d);
    if (!ok) {
      ++bad_keys;
      lost += std::max<int64_t>(
          1, std::llabs(static_cast<int64_t>(v[0]) - pushes[k]));
    }
  }
  if (bad_keys > 0) {
    r.Fail(lost, std::to_string(bad_keys) +
                     " keys break conservation (owner value != acked pushes)");
  }
  return r;
}

}  // namespace perfbench
