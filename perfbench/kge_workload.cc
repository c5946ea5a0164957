// kge-pal: ComplEx knowledge-graph embeddings trained with both PAL
// techniques (the access pattern of kge::TrainKge): data clustering pins
// each relation to the node whose worker uses it, and latency hiding
// localizes the entities of the data point `kLookahead` ahead.
#include <algorithm>
#include <cmath>

#include "kge/kg_gen.h"
#include "kge/kge_model.h"
#include "kge/kge_train.h"
#include "ml/adagrad.h"
#include "ml/loss.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace kge = lapse::kge;

constexpr size_t kDim = 16;
constexpr int kNegPerSide = 2;
constexpr float kLr = 0.1f;
constexpr size_t kLookahead = 2;
constexpr int kLossEpochs = 2;
constexpr int64_t kWarmupTriples = 4'000;  // per worker
constexpr int kSetupReps = 5;
constexpr uint32_t kTraceEvery = 16;
constexpr size_t kEvalSample = 4'096;

kge::KgGenConfig GenConfig(uint64_t seed) {
  kge::KgGenConfig g;
  g.num_entities = 20'000;
  g.num_relations = 64;
  // One epoch takes about a second at 60k triples/s; fewer triples per
  // epoch leave too few samples behind each epoch's latency percentiles.
  g.num_triples = 60'000;
  g.entity_skew = 0.8;
  g.relation_skew = 0.9;
  g.seed = seed;
  return g;
}

kge::KgeConfig ModelConfig(uint64_t seed) {
  kge::KgeConfig c;
  c.model = kge::KgeConfig::Model::kComplEx;
  c.dim = kDim;
  c.neg_samples = kNegPerSide;
  c.lr = kLr;
  c.data_clustering = true;
  c.latency_hiding = true;
  c.lookahead = static_cast<int>(kLookahead);
  c.seed = seed;
  return c;
}

class KgeTrainer {
 public:
  explicit KgeTrainer(uint64_t seed)
      : config_(ModelConfig(seed)),
        kg_(kge::GenerateKg(GenConfig(seed))),
        model_(kDim) {
    Partition();
  }

  ps::Config PsConfig() const {
    ps::Config cfg =
        kge::MakeKgePsConfig(kg_, config_, kNodes, kWorkersPerNode,
                             BenchLan());
    cfg.arch = ps::Architecture::kLapse;
    cfg.server_threads = kServerShards;
    return cfg;
  }
  void Load(ps::PsSystem& system) const {
    kge::InitKgeParams(system, kg_, config_);
  }
  double Loss(ps::PsSystem& system) const {
    return kge::KgeEvalLoss(system, kg_, config_, kEvalSample);
  }
  // Data clustering: the first worker of each node relocates the relations
  // assigned to the node.
  void Place(ps::PsSystem& system) const {
    system.Run([&](ps::Worker& w) {
      if (w.worker_id() % kWorkersPerNode == 0) {
        std::vector<Key> rel;
        for (uint32_t r = 0; r < kg_.num_relations; ++r) {
          if (node_of_relation_[r] == w.node()) {
            rel.push_back(kge::RelationKey(kg_, r));
          }
        }
        if (!rel.empty()) w.Localize(rel);
      }
      w.Barrier();
    });
  }
  void Run(ps::PsSystem& system, const EpochPlan& plan,
           WorkloadResult* r) const;

 private:
  // Relations go to nodes by greedy bin packing over triple counts; a
  // node's triples are dealt round-robin to its workers.
  void Partition() {
    const int total = kNodes * kWorkersPerNode;
    triples_of_.assign(total, {});
    node_of_relation_.assign(kg_.num_relations, 0);
    std::vector<int64_t> count(kg_.num_relations, 0);
    for (const kge::Triple& t : kg_.triples) ++count[t.r];
    std::vector<uint32_t> order(kg_.num_relations);
    for (uint32_t r = 0; r < kg_.num_relations; ++r) order[r] = r;
    std::sort(order.begin(), order.end(),
              [&](uint32_t a, uint32_t b) { return count[a] > count[b]; });
    std::vector<int64_t> load(kNodes, 0);
    for (const uint32_t r : order) {
      const int node = static_cast<int>(
          std::min_element(load.begin(), load.end()) - load.begin());
      node_of_relation_[r] = node;
      load[node] += count[r];
    }
    std::vector<int> next(kNodes, 0);
    for (size_t i = 0; i < kg_.triples.size(); ++i) {
      const int node = node_of_relation_[kg_.triples[i].r];
      triples_of_[node * kWorkersPerNode + next[node]].push_back(i);
      next[node] = (next[node] + 1) % kWorkersPerNode;
    }
  }

  // Negative entities of triple `idx`, a pure function of (seed, idx) so
  // the lookahead can name a future data point's keys.
  void Negatives(size_t idx, std::vector<uint32_t>* neg) const {
    lapse::Rng rng(
        lapse::Mix64(config_.seed ^ (0xbeefULL + idx * 0x9e3779b97f4a7c15ULL)));
    neg->clear();
    for (int i = 0; i < 2 * kNegPerSide; ++i) {
      neg->push_back(static_cast<uint32_t>(rng.Uniform(kg_.num_entities)));
    }
  }

  // Sorted distinct keys of triple `idx`: its entities, its negatives and,
  // with `relation`, its relation.
  void TripleKeys(size_t idx, bool relation, std::vector<uint32_t>* neg,
                  std::vector<Key>* keys) const {
    const kge::Triple& t = kg_.triples[idx];
    Negatives(idx, neg);
    keys->clear();
    keys->push_back(kge::EntityKey(t.s));
    keys->push_back(kge::EntityKey(t.o));
    for (const uint32_t e : *neg) keys->push_back(kge::EntityKey(e));
    if (relation) keys->push_back(kge::RelationKey(kg_, t.r));
    std::sort(keys->begin(), keys->end());
    keys->erase(std::unique(keys->begin(), keys->end()), keys->end());
  }

  kge::KgeConfig config_;
  kge::KnowledgeGraph kg_;
  kge::ComplExModel model_;
  std::vector<std::vector<size_t>> triples_of_;
  std::vector<int> node_of_relation_;
};

void KgeTrainer::Run(ps::PsSystem& system, const EpochPlan& plan,
                     WorkloadResult* r) const {
  EpochLoop loop(plan, system.config().total_workers(),
                 static_cast<int64_t>(kg_.triples.size()), r);
  const bool warmup = plan.warmup_items >= 0;

  system.Run([&](ps::Worker& w) {
    const int wid = w.worker_id();
    SpanLog* log = r->trace.logs[1 + wid].get();
    ItemProbe probe(log);
    Sampler trace_sampler(kTraceEvery);
    const std::vector<size_t>& mine = triples_of_[wid];
    const lapse::ps::KeyLayout& layout = w.layout();
    std::vector<uint32_t> neg;
    std::vector<Key> keys, ahead;
    std::vector<size_t> offset;
    std::vector<Val> values, grads, deltas;
    std::vector<Val> gs(kDim), gr(kDim), go(kDim);

    for (int e = 0;; ++e) {
      const bool traced = loop.Traced(e);
      std::vector<int64_t>& lat = loop.StartEpoch(wid);
      size_t n = mine.size();
      if (warmup) n = std::min(n, static_cast<size_t>(plan.warmup_items));
      if (!traced) lat.reserve(n);
      const int64_t t0 = Now();
      EdgeSpan(log, traced, SpanName::kLocalize, [&] {
        for (size_t ti = 0; ti < kLookahead && ti < n; ++ti) {
          TripleKeys(mine[ti], false, &neg, &ahead);
          w.LocalizeAsync(ahead);
        }
      });
      for (size_t ti = 0; ti < n; ++ti) {
        const bool sample_trace = traced && trace_sampler.Next();
        probe.Start(!traced, sample_trace);
        if (ti + kLookahead < n) {
          TripleKeys(mine[ti + kLookahead], false, &neg, &ahead);
          probe.Mark(SpanName::kCompute);
          w.LocalizeAsync(ahead);
          probe.Mark(SpanName::kLocalize);
        }
        const size_t idx = mine[ti];
        const kge::Triple& t = kg_.triples[idx];
        TripleKeys(idx, true, &neg, &keys);
        offset.resize(keys.size());
        size_t total = 0;
        for (size_t i = 0; i < keys.size(); ++i) {
          offset[i] = total;
          total += layout.Length(keys[i]);
        }
        values.resize(total);
        deltas.resize(total);
        grads.assign(total, 0.0f);
        probe.Mark(SpanName::kCompute);
        const uint64_t op = w.PullAsync(keys, values.data());
        probe.Mark(SpanName::kPull);
        w.Wait(op);
        probe.Mark(SpanName::kWait);

        auto at = [&](Key k) {
          return offset[std::lower_bound(keys.begin(), keys.end(), k) -
                        keys.begin()];
        };
        const size_t rel_off = at(kge::RelationKey(kg_, t.r));
        auto accumulate = [&](uint32_t s, uint32_t o, float label) {
          const size_t so = at(kge::EntityKey(s));
          const size_t oo = at(kge::EntityKey(o));
          const Val* vs = values.data() + so;
          const Val* vo = values.data() + oo;
          const Val* rel = values.data() + rel_off;
          const float g = lapse::ml::LogisticLossGrad(
              model_.Score(vs, rel, vo), label);
          model_.Gradients(vs, rel, vo, gs.data(), gr.data(), go.data());
          for (size_t i = 0; i < kDim; ++i) {
            grads[so + i] += g * gs[i];
            grads[oo + i] += g * go[i];
            grads[rel_off + i] += g * gr[i];
          }
        };
        accumulate(t.s, t.o, +1.0f);
        for (int i = 0; i < kNegPerSide; ++i) {
          accumulate(neg[2 * i], t.o, -1.0f);
          accumulate(t.s, neg[2 * i + 1], -1.0f);
        }
        for (size_t i = 0; i < keys.size(); ++i) {
          lapse::ml::AdagradDelta(values.data() + offset[i],
                                  grads.data() + offset[i],
                                  layout.Length(keys[i]) / 2, kLr,
                                  deltas.data() + offset[i]);
        }
        probe.Mark(SpanName::kCompute);
        w.Push(keys, deltas.data());
        const int64_t ns = probe.Finish(SpanName::kPush);
        if (!traced) lat.push_back(ns);
      }
      EdgeSpan(log, traced, SpanName::kBarrier, [&] { w.Barrier(); });
      if (loop.EndEpoch(w, e, t0, traced)) break;
    }
  });
  loop.Finish();
}

}  // namespace

WorkloadResult RunKgePal(const Options& opts) {
  WorkloadResult r;
  r.bound_label =
      "model-bound: most of a triple is waiting for relocations over "
      "modelled wire hops";
  r.busy_threads = kBusyThreads;
  r.latency_every = 1;
  r.loss_definition =
      "mean logistic loss of 4096 sampled triples (one positive, one "
      "negative each), from owner values, after " +
      std::to_string(kLossEpochs) + " measured epochs";
  const KgeTrainer trainer(opts.seed);
  std::unique_ptr<ps::PsSystem> system =
      SetupTraining(trainer, kSetupReps, kWarmupTriples, &r);
  MeasureTraining(trainer, *system, kLossEpochs, opts, &r);
  return r;
}

}  // namespace perfbench
