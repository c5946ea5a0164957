// Shared plumbing of the paper-workload benchmark: options, the per-run
// result every workload fills in, measured-phase counter deltas read from
// the program's public stats, and the set-up repetition helper.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ps/system.h"
#include "trace.h"

namespace perfbench {

using lapse::Key;
using lapse::Val;
namespace ps = lapse::ps;

// A second seed, fixed here, for confirming a claim on inputs that were not
// used while the change was written: rerun with --seed kHeldOutSeed.
constexpr uint64_t kHeldOutSeed = 900001;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // results and span files go here
};

// The simulated interconnect every workload runs on: the values of the
// repository's bench::BenchLatency() preset (30 us between nodes, 2 us
// loop-back, 0.3 ns/byte, no jitter), fixed here so the workload does not
// change when the micro benches retune their preset.
lapse::net::LatencyConfig BenchLan();
constexpr const char* kFabricName =
    "bench-lan (30us remote, 2us loop-back, 0.3ns/B, 1ms server idle spin)";

// Wall-clock split of one set-up repetition.
struct SetupTimes {
  double construct = 0;  // PsSystem constructor (stores, threads)
  double load = 0;       // initial parameter values via SetValue
  double place = 0;      // initial placement (localizes issued up front)
  double warmup = 0;     // a fixed number of items through the real loop
  double total() const { return construct + load + place + warmup; }
};

// One slice of a measured phase: an epoch for the training workloads, a
// fixed time window for serving. In a traced run slices alternate between
// traced and untraced, so both see the same phase of the run.
// Cumulative CPU time of all CPUs, and the part the hypervisor stole
// (/proc/stat, in clock ticks).
struct StealSample {
  int64_t steal = 0;
  int64_t total = 0;

  static StealSample Read();
  // Share of CPU time stolen between `start` and this sample.
  double ShareSince(const StealSample& start) const;
};

struct Slice {
  double seconds = 0;
  int64_t items = 0;
  bool traced = false;
  double steal_share = 0;  // CPU time the hypervisor stole in the slice
  std::vector<int64_t> latency_ns;  // item latency samples (untraced only)
};

// Program counters over the measured phase (after PsSystem::ResetStats at
// the end of warm-up). Everything here is read from public stats.
struct Counters {
  int64_t msgs = 0, remote_msgs = 0, bytes = 0;
  int64_t reloc_msgs = 0;  // kLocalize, kRelocateInstruct/Transfer, Noop
  int64_t batch_msgs = 0;  // kBatchOp, kBatchResp
  int64_t backlog_count = 0, backlog_sum_ns = 0;
  int64_t relocations = 0, reloc_sum_ns = 0;
  int64_t conflicts = 0, queued_ops = 0;
  int64_t local_reads = 0, remote_reads = 0, replica_reads = 0;
  int64_t stale_misses = 0, folds = 0, flushed_keys = 0;
  int64_t coalesce_batches = 0, coalesce_subops = 0, forced_drains = 0;
  int64_t adapt_localizes = 0, adapt_evictions = 0;
  int64_t adapt_samples = 0, adapt_dropped = 0;
  int64_t pinned_keys = 0;  // gauge: keys pinned at the end of the phase

  static Counters Read(ps::PsSystem& system);
  // Field-wise end - start, except the pinned_keys gauge (taken from end).
  static Counters Delta(const Counters& end, const Counters& start);
};

struct WorkloadResult {
  // --- metadata --------------------------------------------------------
  std::string bound_label;  // "host-bound" or "model-bound", with reason
  int busy_threads = 0;     // workers + server drain threads
  int sleeping_threads = 0;  // placement managers (sleep between ticks)

  // --- measured phase ----------------------------------------------------
  std::vector<Slice> slices;
  int64_t latency_every = 1;  // 1 = every item was timed
  Counters counters;
  double phase_seconds = 0;  // wall time of the measured phase

  // --- checks ------------------------------------------------------------
  double initial_loss = std::nan("");  // at parameter load; NaN: no training
  double final_loss = 0;
  std::string loss_definition;
  int64_t failed = 0;
  std::vector<std::string> failures;  // one line per failed check
  // How far the traced layers' self times per item may miss the traced
  // wall time per item, and why that far.
  double budget_tolerance = 0.15;
  std::string budget_reason = "items are microseconds long";

  // --- set-up ------------------------------------------------------------
  std::vector<SetupTimes> setups;

  // --- traced run ----------------------------------------------------------
  TraceSet trace;
  // Extra name/value lines for the report (paper shape, etc.).
  std::vector<std::pair<std::string, double>> notes;

  void Fail(int64_t ops, const std::string& why) {
    failed += ops;
    failures.push_back(why);
  }
  int64_t items() const;
};

// Times the set-up phases of one repetition; each phase becomes a child
// span of the repetition's root span.
class SetupRecorder {
 public:
  SetupRecorder(SpanLog* log, int32_t root, SetupTimes* times)
      : log_(log), root_(root), times_(times) {}

  template <typename Fn>
  void Phase(SpanName n, Fn&& fn) {
    const int64_t k0 = Ticks();
    const int64_t t0 = Now();
    fn();
    const int64_t t1 = Now();
    log_->Record(n, 0, root_, k0, Ticks());
    const double secs = static_cast<double>(t1 - t0) * 1e-9;
    switch (n) {
      case SpanName::kConstruct: times_->construct += secs; break;
      case SpanName::kLoad: times_->load += secs; break;
      case SpanName::kPlace: times_->place += secs; break;
      default: times_->warmup += secs; break;
    }
  }

 private:
  SpanLog* log_;
  int32_t root_;
  SetupTimes* times_;
};

// Runs `build` `reps` times. Each call constructs a fresh system, timing its
// set-up phases through the recorder, and returns an owner of it. All but
// the last are destroyed (untimed); the last is returned for the measured
// phase. setup_s is the median over repetitions.
template <typename Build>
std::unique_ptr<ps::PsSystem> RepeatSetup(int reps, WorkloadResult* result,
                                          SpanLog* log, Build&& build) {
  std::unique_ptr<ps::PsSystem> system;
  for (int rep = 0; rep < reps; ++rep) {
    system.reset();
    SetupTimes st;
    const int32_t root = log->Begin(SpanName::kSetup, 0, Ticks());
    SetupRecorder rec(log, root, &st);
    system = build(rec);
    log->End(root, Ticks());
    result->setups.push_back(st);
  }
  return system;
}

// Linear-interpolated quantile q in [0, 1] of v; 0 when v is empty.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

// The untraced (or traced) slices a run's figures are read from: those in
// which the hypervisor stole at most kCalmSteal of the CPU time, or all of
// them when fewer than three are. On a shared host steal comes in bursts
// that stall the spinning threads of whichever slices they hit.
constexpr double kCalmSteal = 0.02;
std::vector<const Slice*> CalmSlices(const WorkloadResult& r, bool traced);

// Median items/s over CalmSlices(r, traced).
double SliceRate(const WorkloadResult& r, bool traced);

// Splits a measured phase into the slices a run reports: in a traced run,
// slice i is traced iff i is odd.
inline bool SliceTraced(bool trace_run, size_t i) {
  return trace_run && (i % 2 == 1);
}

// What one PsSystem::Run of a training loop does: a warm-up prefix of each
// worker's data, a fixed number of epochs, or epochs until a deadline.
struct EpochPlan {
  int64_t warmup_items = -1;  // >= 0: warm-up of this many items per worker
  int max_epochs = 0;         // 0: no epoch limit
  int64_t deadline_ns = 0;    // 0: no deadline
  bool trace_run = false;
};

// The epoch bookkeeping of one training PsSystem::Run. Worker 0 times each
// epoch as a slice; the decision to stop rides the epoch-end barrier, so
// every worker leaves after the same epoch. Each worker calls, per epoch:
//
//   const bool traced = loop.Traced(e);
//   std::vector<int64_t>& lat = loop.StartEpoch(wid);  // latency samples
//   ... the epoch, ending with its last subepoch barrier ...
//   if (loop.EndEpoch(w, e, t0, traced)) break;
class EpochLoop {
 public:
  EpochLoop(const EpochPlan& plan, int workers, int64_t epoch_items,
            WorkloadResult* r);

  bool Traced(int epoch) const {
    return !warmup_ && SliceTraced(plan_.trace_run, first_slice_ + epoch);
  }
  std::vector<int64_t>& StartEpoch(int wid) {
    if (wid == 0) steal0_ = StealSample::Read();
    return latency_[wid].emplace_back();
  }
  // True when the Run is over: after the warm-up epoch, or once the plan's
  // epoch count or deadline is reached.
  bool EndEpoch(ps::Worker& w, int epoch, int64_t t0, bool traced);
  // Adds the Run's epochs and latency samples to the result (not for a
  // warm-up). Call after PsSystem::Run returned.
  void Finish();

 private:
  EpochPlan plan_;
  bool warmup_;
  int64_t epoch_items_;
  WorkloadResult* r_;
  size_t first_slice_;
  std::vector<std::vector<std::vector<int64_t>>> latency_;  // [worker][epoch]
  std::vector<Slice> epochs_;  // written by worker 0 only
  StealSample steal0_;         // worker 0, at the start of the epoch
  std::atomic<bool> stop_{false};
};

// Set-up and measured phase of the training workloads. A Trainer provides
// PsConfig(), Load(system), Place(system), Loss(system) (from owner values)
// and Run(system, EpochPlan, result).
template <typename Trainer>
std::unique_ptr<ps::PsSystem> SetupTraining(const Trainer& trainer, int reps,
                                            int64_t warmup_items,
                                            WorkloadResult* r) {
  return RepeatSetup(
      reps, r, r->trace.NewLog(), [&](SetupRecorder& rec) {
        std::unique_ptr<ps::PsSystem> sys;
        rec.Phase(SpanName::kConstruct, [&] {
          sys = std::make_unique<ps::PsSystem>(trainer.PsConfig());
        });
        rec.Phase(SpanName::kLoad, [&] { trainer.Load(*sys); });
        r->initial_loss = trainer.Loss(*sys);
        rec.Phase(SpanName::kPlace, [&] { trainer.Place(*sys); });
        rec.Phase(SpanName::kWarmup, [&] {
          EpochPlan plan;
          plan.warmup_items = warmup_items;
          trainer.Run(*sys, plan, r);
        });
        return sys;
      });
}

// Measures `loss_epochs` epochs, takes the loss from owner values (a loss
// after a fixed number of samples), then runs epochs until `opts.seconds`
// of training have passed. Every PsSystem::Run lasts about a second and
// starts fresh worker threads, so one unlucky placement of threads on
// cores moves a few slices rather than the whole run. Fails the run if the
// loss is not finite or not below the loss at parameter load.
template <typename Trainer>
void MeasureTraining(const Trainer& trainer, ps::PsSystem& system,
                     int loss_epochs, const Options& opts,
                     WorkloadResult* r) {
  system.ResetStats();
  const Counters start = Counters::Read(system);
  EpochPlan first;
  first.max_epochs = loss_epochs;
  first.trace_run = opts.trace;
  int64_t t0 = Now();
  trainer.Run(system, first, r);
  double phase = static_cast<double>(Now() - t0) * 1e-9;
  r->final_loss = trainer.Loss(system);
  while (phase < opts.seconds) {
    EpochPlan rest;
    rest.deadline_ns =
        Now() + static_cast<int64_t>(std::min(1.0, opts.seconds - phase) * 1e9);
    rest.trace_run = opts.trace;
    t0 = Now();
    trainer.Run(system, rest, r);
    phase += static_cast<double>(Now() - t0) * 1e-9;
  }
  r->phase_seconds = phase;
  r->counters = Counters::Delta(Counters::Read(system), start);
  if (!std::isfinite(r->final_loss) || !(r->final_loss < r->initial_loss)) {
    r->Fail(r->items(), "final loss " + std::to_string(r->final_loss) +
                            " is not finite or not below the initial loss " +
                            std::to_string(r->initial_loss));
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
