// Example: knowledge graph embeddings (ComplEx) with the two PAL
// techniques the paper combines for this task (Appendix A):
//   * data clustering  -- triples are partitioned by relation and each
//     relation parameter is pinned to the node that uses it;
//   * latency hiding   -- the entity parameters of the *next* data point
//     are pre-localized so the relocation overlaps computation.
//
//   ./examples/knowledge_graph_embeddings          manual PAL techniques
//   ./examples/knowledge_graph_embeddings --auto-placement
//     both techniques drop their Localize calls; the adaptive engine
//     discovers the relation/entity access pattern and relocates instead
//   ./examples/knowledge_graph_embeddings --replication
//     auto-placement plus replica serving for contended entities (hubs
//     touched by triples on every node)

#include <cstdio>
#include <cstring>

#include "kge/kg_gen.h"
#include "kge/kge_train.h"

int main(int argc, char** argv) {
  using namespace lapse;
  const bool replication =
      argc > 1 && std::strcmp(argv[1], "--replication") == 0;
  const bool auto_placement =
      replication ||
      (argc > 1 && std::strcmp(argv[1], "--auto-placement") == 0);

  kge::KgGenConfig gen;
  gen.num_entities = 1000;
  gen.num_relations = 12;
  gen.num_triples = 6000;
  gen.seed = 7;
  const kge::KnowledgeGraph kg = GenerateKg(gen);
  std::printf("knowledge graph: %u entities, %u relations, %zu triples\n",
              kg.num_entities, kg.num_relations, kg.triples.size());

  kge::KgeConfig cfg;
  cfg.model = kge::KgeConfig::Model::kComplEx;
  cfg.dim = 16;
  cfg.neg_samples = 2;
  cfg.lr = 0.1f;  // AdaGrad initial learning rate; state lives in the PS
  cfg.epochs = 3;
  cfg.data_clustering = true;
  cfg.latency_hiding = true;

  ps::Config pscfg = MakeKgePsConfig(kg, cfg, /*num_nodes=*/4,
                                     /*workers_per_node=*/2,
                                     net::LatencyConfig::Lan());
  pscfg.adaptive.enabled = auto_placement;
  pscfg.replication = replication;
  std::printf("placement: %s%s\n",
              auto_placement ? "adaptive engine" : "manual Localize()",
              replication ? " + replication" : "");
  ps::PsSystem system(pscfg);
  InitKgeParams(system, kg, cfg);

  std::printf("initial eval loss: %.4f\n",
              KgeEvalLoss(system, kg, cfg, 1000));
  const auto results = TrainKge(system, kg, cfg);
  for (size_t e = 0; e < results.size(); ++e) {
    std::printf("epoch %zu: %.3fs, training loss %.4f\n", e + 1,
                results[e].seconds, results[e].loss);
  }
  std::printf("final eval loss: %.4f\n", KgeEvalLoss(system, kg, cfg, 1000));

  const int64_t local = system.TotalLocalReads();
  const int64_t remote = system.TotalRemoteReads();
  const CounterSum relocations = system.Sum(&ps::ServerStats::relocations);
  std::printf(
      "reads: %lld local / %lld remote (%.1f%% local); %lld keys "
      "relocated, mean relocation %.1f us\n",
      static_cast<long long>(local), static_cast<long long>(remote),
      100.0 * local / static_cast<double>(local + remote),
      static_cast<long long>(relocations.count), relocations.Mean() / 1e3);
  return 0;
}
