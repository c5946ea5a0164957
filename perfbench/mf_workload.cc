// mf-lapse and mf-classic: DSGD matrix factorization with parameter
// blocking (the access pattern of mf::TrainDsgdOnPs), driven by the
// benchmark's own loop so traced and untraced runs execute the same code.
#include <algorithm>
#include <cmath>
#include <cstring>

#include "mf/block_schedule.h"
#include "mf/dsgd.h"
#include "mf/matrix_gen.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace mf = lapse::mf;

constexpr int kRank = 16;
constexpr float kLr = 0.01f;
constexpr float kReg = 0.02f;

struct MfSpec {
  ps::Architecture arch = ps::Architecture::kLapse;
  int nodes = kNodes;
  int workers = kWorkersPerNode;
  mf::MatrixGenConfig gen;  // seed is set from the run's seed
  // The loss is evaluated from owner values after this many epochs of the
  // measured phase, so it is a loss after a fixed number of samples.
  int loss_epochs = 2;
  // Warm-up: one epoch in which each worker takes at most this many cells
  // from each of its blocks.
  int64_t warmup_items = 0;
  int setup_reps = 5;
  uint32_t latency_every = 1;  // time every n-th item (untraced slices)
  uint32_t trace_every = 1;    // trace every n-th item (traced slices)
};

// Host-bound: after placement every access is shared memory. An epoch
// takes a few hundred milliseconds, and the factors a worker touches in a
// subepoch (10k rows + a 2k-column block, ~770 KB) fit its core's L2, so
// the rate does not hinge on how physical pages map onto the cache.
MfSpec LapseSpec() {
  MfSpec s;
  s.arch = ps::Architecture::kLapse;
  s.gen.rows = 20'000;
  s.gen.cols = 4'000;
  s.gen.nnz = 2'000'000;
  s.loss_epochs = 4;
  s.warmup_items = 1'000'000;
  s.latency_every = 64;
  s.trace_every = 128;
  return s;
}

// Every access is two modelled message hops, ~130 us per cell and
// worker, so an epoch of 8k cells takes about half a second. Eight cells
// per row keep the loss after a fixed number of epochs from hinging on
// which few cells a seed draws.
MfSpec ClassicSpec() {
  MfSpec s;
  s.arch = ps::Architecture::kClassic;
  s.gen.rows = 1'000;
  s.gen.cols = 250;
  s.gen.nnz = 8'000;
  s.loss_epochs = 2;
  s.warmup_items = 1'000;
  s.latency_every = 1;
  s.trace_every = 8;
  return s;
}

class MfTrainer {
 public:
  MfTrainer(const MfSpec& spec, uint64_t seed)
      : spec_(spec),
        seed_(seed),
        matrix_(Generate(spec, seed)),
        schedule_(matrix_.rows, matrix_.cols, spec.nodes * spec.workers),
        localize_(spec.arch == ps::Architecture::kLapse) {
    // Each (worker, block) gets its cells as one contiguous array, so the
    // loop streams its input instead of chasing indices into the matrix.
    const mf::DsgdPartition partition(matrix_, schedule_);
    const int workers = schedule_.num_workers();
    for (int w = 0; w < workers; ++w) {
      for (int b = 0; b < workers; ++b) {
        std::vector<mf::MatrixEntry> cells;
        for (const uint32_t idx : partition.Entries(w, b)) {
          cells.push_back(matrix_.entries[idx]);
        }
        cells_.push_back(std::move(cells));
      }
    }
    for (int b = 0; b < schedule_.num_blocks(); ++b) {
      std::vector<Key> keys;
      for (uint64_t c = schedule_.BlockBegin(b); c < schedule_.BlockEnd(b);
           ++c) {
        keys.push_back(mf::ColKey(matrix_.rows, c));
      }
      block_keys_.push_back(std::move(keys));
    }
  }

  const mf::SparseMatrix& matrix() const { return matrix_; }

  ps::Config PsConfig() const {
    ps::Config cfg = mf::MakeDsgdPsConfig(matrix_, DsgdConfig(), spec_.nodes,
                                          spec_.workers, BenchLan());
    cfg.arch = spec_.arch;
    cfg.server_threads = kServerShards;
    return cfg;
  }

  void Load(ps::PsSystem& system) const {
    mf::InitFactorsPs(system, matrix_, DsgdConfig());
  }

  // Rows are partitioned statically: each worker relocates its rows once.
  void Place(ps::PsSystem& system) const {
    system.Run([&](ps::Worker& w) {
      if (localize_) {
        std::vector<Key> rows;
        for (uint64_t r = schedule_.RowBegin(w.worker_id());
             r < schedule_.RowEnd(w.worker_id()); ++r) {
          rows.push_back(mf::RowKey(r));
        }
        if (!rows.empty()) w.Localize(rows);
      }
      w.Barrier();
    });
  }

  // Mean squared residual over all cells from owner values.
  double Loss(ps::PsSystem& system) const {
    return mf::DsgdFullLossPs(system, matrix_, DsgdConfig());
  }

  void Run(ps::PsSystem& system, const EpochPlan& plan,
           WorkloadResult* r) const;

 private:
  static mf::SparseMatrix Generate(const MfSpec& spec, uint64_t seed) {
    mf::MatrixGenConfig gen = spec.gen;
    gen.seed = seed;
    return mf::GenerateLowRankMatrix(gen);
  }
  mf::DsgdConfig DsgdConfig() const {
    mf::DsgdConfig c;
    c.rank = kRank;
    c.lr = kLr;
    c.reg = kReg;
    c.seed = seed_;
    return c;
  }

  MfSpec spec_;
  uint64_t seed_;
  mf::SparseMatrix matrix_;
  mf::BlockSchedule schedule_;
  std::vector<std::vector<mf::MatrixEntry>> cells_;  // [worker * W + block]
  bool localize_;
  std::vector<std::vector<Key>> block_keys_;
};

void MfTrainer::Run(ps::PsSystem& system, const EpochPlan& plan,
                    WorkloadResult* r) const {
  EpochLoop loop(plan, system.config().total_workers(),
                 static_cast<int64_t>(matrix_.nnz()), r);
  const bool warmup = plan.warmup_items >= 0;

  system.Run([&](ps::Worker& w) {
    const int wid = w.worker_id();
    SpanLog* log = r->trace.logs[1 + wid].get();
    ItemProbe probe(log);
    Sampler latency_sampler(spec_.latency_every);
    Sampler trace_sampler(spec_.trace_every);
    std::vector<Key> keys(2);
    std::vector<Val> f(2 * kRank);
    std::vector<Val> d(2 * kRank);
    const uint64_t rows = matrix_.rows;
    for (int e = 0;; ++e) {
      const bool traced = loop.Traced(e);
      std::vector<int64_t>& lat = loop.StartEpoch(wid);
      const int64_t t0 = Now();
      for (int sub = 0; sub < schedule_.num_blocks(); ++sub) {
        const int block = schedule_.BlockForWorker(wid, sub);
        if (localize_) {
          EdgeSpan(log, traced, SpanName::kLocalize,
                   [&] { w.Localize(block_keys_[block]); });
        }
        const std::vector<mf::MatrixEntry>& cells =
            cells_[wid * schedule_.num_blocks() + block];
        size_t n = cells.size();
        if (warmup) n = std::min(n, static_cast<size_t>(plan.warmup_items));
        for (size_t i = 0; i < n; ++i) {
          const mf::MatrixEntry& cell = cells[i];
          const bool sample_trace = traced && trace_sampler.Next();
          const bool sample_latency = !traced && latency_sampler.Next();
          probe.Start(sample_latency, sample_trace);
          keys[0] = mf::RowKey(cell.row);
          keys[1] = mf::ColKey(rows, cell.col);
          probe.Mark(SpanName::kCompute);
          w.Pull(keys, f.data());
          probe.Mark(SpanName::kPull);
          const Val* wi = f.data();
          const Val* hj = f.data() + kRank;
          float dot = 0;
          for (int t = 0; t < kRank; ++t) dot += wi[t] * hj[t];
          const float err = dot - cell.value;
          for (int t = 0; t < kRank; ++t) {
            d[t] = -kLr * (err * hj[t] + kReg * wi[t]);
            d[kRank + t] = -kLr * (err * wi[t] + kReg * hj[t]);
          }
          probe.Mark(SpanName::kCompute);
          w.Push(keys, d.data());
          const int64_t ns = probe.Finish(SpanName::kPush);
          if (sample_latency) lat.push_back(ns);
        }
        // Global barrier after each subepoch (Appendix A).
        EdgeSpan(log, traced, SpanName::kBarrier, [&] { w.Barrier(); });
      }
      if (loop.EndEpoch(w, e, t0, traced)) break;
    }
  });
  loop.Finish();
}

// Trains a tiny matrix for two epochs under Lapse and under the classic
// architecture and counts the factors that differ in any bit. Parameter
// blocking gives every key one writer per subepoch, so the result does
// not depend on the architecture or the interleaving.
int64_t SelfTest(uint64_t seed) {
  std::vector<std::vector<Val>> factors[2];
  const ps::Architecture archs[2] = {ps::Architecture::kLapse,
                                     ps::Architecture::kClassic};
  for (int a = 0; a < 2; ++a) {
    MfSpec spec;
    spec.arch = archs[a];
    spec.gen.rows = 48;
    spec.gen.cols = 32;
    spec.gen.nnz = 480;
    const MfTrainer trainer(spec, seed);
    ps::PsSystem system(trainer.PsConfig());
    trainer.Load(system);
    trainer.Place(system);
    WorkloadResult scratch;
    EpochPlan plan;
    plan.max_epochs = 2;
    trainer.Run(system, plan, &scratch);
    const uint64_t keys = trainer.matrix().rows + trainer.matrix().cols;
    for (uint64_t k = 0; k < keys; ++k) {
      std::vector<Val> v(kRank);
      system.GetValue(k, v.data());
      factors[a].push_back(std::move(v));
    }
  }
  int64_t differing = 0;
  for (size_t k = 0; k < factors[0].size(); ++k) {
    if (std::memcmp(factors[0][k].data(), factors[1][k].data(),
                    kRank * sizeof(Val)) != 0) {
      ++differing;
    }
  }
  return differing;
}

WorkloadResult RunMf(const MfSpec& spec, const Options& opts) {
  WorkloadResult r;
  r.busy_threads = spec.nodes * (spec.workers + kServerShards);
  r.latency_every = spec.latency_every;
  r.loss_definition =
      "mean squared residual over all cells, from owner values, after " +
      std::to_string(spec.loss_epochs) + " measured epochs";
  const MfTrainer trainer(spec, opts.seed);
  std::unique_ptr<ps::PsSystem> system =
      SetupTraining(trainer, spec.setup_reps, spec.warmup_items, &r);
  MeasureTraining(trainer, *system, spec.loss_epochs, opts, &r);
  return r;
}

void RunSelfTest(const Options& opts, WorkloadResult* r) {
  const int64_t differing = SelfTest(opts.seed);
  if (differing > 0) {
    r->Fail(differing, "self-test: " + std::to_string(differing) +
                           " factors differ between Lapse and Classic");
  }
}

}  // namespace

WorkloadResult RunMfLapse(const Options& opts) {
  WorkloadResult r = RunMf(LapseSpec(), opts);
  r.bound_label =
      "host-bound: after placement every pull and push is shared memory";
  // Measured: at 1-in-128 sampling a traced item runs 1.3-1.45x the
  // stream average (it cannot overlap with its neighbours, and its code
  // path is cold); at 1-in-16 the layers add up within 5% but tracing
  // slows the traced slices by 11%.
  r.budget_tolerance = 0.50;
  r.budget_reason =
      "a ~0.15 us item traced on its own runs 1.3-1.45x the stream average";
  RunSelfTest(opts, &r);
  if (opts.trace) {
    // Paper shape, reported but not gated: Lapse over Classic per-item
    // rate, and scaling efficiency against one node with one worker.
    Options brief = opts;
    brief.trace = false;
    brief.seconds = std::max(1.0, opts.seconds / 4);
    MfSpec single = LapseSpec();
    single.nodes = 1;
    single.workers = 1;
    single.setup_reps = 1;
    MfSpec classic = ClassicSpec();
    classic.setup_reps = 1;
    const double rate = SliceRate(r, false);
    const double rate_single = SliceRate(RunMf(single, brief), false);
    const double rate_classic = SliceRate(RunMf(classic, brief), false);
    r.notes.push_back({"paper.lapse_items_per_s", rate});
    r.notes.push_back({"paper.classic_items_per_s", rate_classic});
    r.notes.push_back({"paper.lapse_over_classic",
                       rate_classic > 0 ? rate / rate_classic : 0});
    r.notes.push_back({"paper.single_worker_items_per_s", rate_single});
    r.notes.push_back(
        {"paper.scaling_efficiency",
         rate_single > 0 ? rate / (kNodes * kWorkersPerNode * rate_single)
                         : 0});
  }
  return r;
}

WorkloadResult RunMfClassic(const Options& opts) {
  WorkloadResult r = RunMf(ClassicSpec(), opts);
  r.bound_label =
      "model-bound: each access pays two modelled wire hops on bench-lan";
  RunSelfTest(opts, &r);
  return r;
}

}  // namespace perfbench
