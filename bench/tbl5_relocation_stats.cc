// Reproduces Table 5: parameter reads (total / local / non-local),
// relocations per second, and mean relocation time for ComplEx-Large
// training under Lapse across cluster sizes.
//
// Expected shape (paper): reads are overwhelmingly local at every scale;
// non-local reads (caused by localization conflicts) and the relocation
// rate grow with the number of nodes; mean relocation time is smaller on
// 2 nodes because every relocation involves only 2 nodes instead of 3.

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "kge/kg_gen.h"
#include "kge/kge_train.h"
#include "util/table_printer.h"

int main() {
  using namespace lapse;
  bench::PrintBanner(
      "Table 5: reads, relocations, and relocation times (ComplEx-Large)",
      "Renz-Wieland et al., VLDB'20, Table 5",
      "Counts are absolute per epoch plus per-second rates.");

  kge::KgGenConfig gen;
  gen.num_entities = 8000;
  gen.entity_skew = 0.4;
  gen.num_relations = 64;
  gen.num_triples = 8000;
  gen.seed = 71;
  const kge::KnowledgeGraph kg = GenerateKg(gen);

  TablePrinter table({"nodes", "reads_total", "reads_local",
                      "reads_nonlocal", "reloc_keys", "reloc_per_s",
                      "mean_RT_ms"});
  for (const bench::Scale& scale : bench::DefaultScales()) {
    kge::KgeConfig cfg;
    cfg.model = kge::KgeConfig::Model::kComplEx;
    cfg.dim = 2048;
    cfg.neg_samples = 4;
    cfg.epochs = 1;
    ps::Config pscfg = MakeKgePsConfig(kg, cfg, scale.nodes, scale.workers,
                                       bench::BenchLatency());
    ps::PsSystem system(pscfg);
    InitKgeParams(system, kg, cfg);
    const auto results = TrainKge(system, kg, cfg);
    const double seconds = results.back().seconds;
    const int64_t local = system.TotalLocalReads();
    const int64_t remote = system.TotalRemoteReads();
    const CounterSum relocations = system.Sum(&ps::ServerStats::relocations);
    const int64_t reloc = relocations.count;
    table.AddRow(
        {TablePrinter::Int(scale.nodes), TablePrinter::Int(local + remote),
         TablePrinter::Int(local), TablePrinter::Int(remote),
         TablePrinter::Int(reloc),
         TablePrinter::Int(
             seconds > 0 ? static_cast<int64_t>(reloc / seconds) : 0),
         TablePrinter::Num(relocations.Mean() / 1e6, 3)});
  }
  table.Print(std::cout);
  return 0;
}
