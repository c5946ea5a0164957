// Example: word2vec skip-gram with negative sampling, using latency hiding
// for *all* parameters (paper Appendix A): sentence words are
// pre-localized when a sentence is read, negatives are pre-sampled in
// batches and pre-localized, and only currently-local negatives are used
// (PullIfLocal), trading a slightly perturbed negative distribution for
// fully local access.
//
//   ./examples/word_vectors                   manual pre-localization
//   ./examples/word_vectors --auto-placement  the adaptive engine localizes
//                                             hot words from observed
//                                             accesses; no Localize calls
//   ./examples/word_vectors --replication     auto-placement plus replica
//                                             serving: contended hot words
//                                             (stop words every node reads)
//                                             are pinned into per-node
//                                             replicas instead of
//                                             ping-ponging; PullIfLocal
//                                             negatives hit them too.
//                                             Pushes to pinned words fold
//                                             into local accumulators and
//                                             flush in batches (write
//                                             aggregation)

#include <cstdio>
#include <cstring>

#include "w2v/corpus.h"
#include "w2v/w2v_train.h"

int main(int argc, char** argv) {
  using namespace lapse;
  bool replication = false;
  bool auto_placement = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--replication") == 0) {
      replication = true;
    } else if (std::strcmp(argv[i], "--auto-placement") == 0) {
      auto_placement = true;
    } else {
      std::fprintf(stderr, "usage: %s [--auto-placement | --replication]\n",
                   argv[0]);
      return 1;
    }
  }
  auto_placement |= replication;

  w2v::CorpusGenConfig gen;
  gen.vocab_size = 1500;
  gen.num_sentences = 500;
  gen.sentence_length = 15;
  gen.seed = 99;
  const w2v::Corpus corpus = GenerateCorpus(gen);
  std::printf("corpus: %u words, %zu sentences, %lld tokens\n",
              corpus.vocab_size, corpus.sentences.size(),
              static_cast<long long>(corpus.total_tokens()));

  w2v::W2vConfig cfg;
  cfg.dim = 16;
  cfg.window = 4;
  cfg.negatives = 3;
  cfg.lr = 0.05f;
  cfg.epochs = 3;
  cfg.latency_hiding = true;
  cfg.local_only_negatives = true;
  cfg.presample_size = 400;
  cfg.presample_refresh = 390;

  ps::Config pscfg = MakeW2vPsConfig(corpus, cfg, /*num_nodes=*/4,
                                     /*workers_per_node=*/2,
                                     net::LatencyConfig::Lan());
  pscfg.adaptive.enabled = auto_placement;
  pscfg.replication = replication;
  std::printf("placement: %s%s\n",
              auto_placement ? "adaptive engine" : "manual Localize()",
              replication ? " + replication" : "");
  ps::PsSystem system(pscfg);
  InitW2vParams(system, corpus, cfg);

  std::printf("initial eval loss: %.4f\n",
              W2vEvalLoss(system, corpus, cfg, 2000));
  const auto results = TrainW2v(system, corpus, cfg);
  for (size_t e = 0; e < results.size(); ++e) {
    std::printf("epoch %zu: %.3fs, training loss %.4f\n", e + 1,
                results[e].seconds, results[e].loss);
  }
  std::printf("final eval loss: %.4f\n",
              W2vEvalLoss(system, corpus, cfg, 2000));

  const int64_t local = system.TotalLocalReads();
  const int64_t remote = system.TotalRemoteReads();
  std::printf(
      "reads: %lld local / %lld replica / %lld remote; %lld keys "
      "relocated\n",
      static_cast<long long>(local),
      static_cast<long long>(system.TotalReplicaReads()),
      static_cast<long long>(remote),
      static_cast<long long>(system.Sum(&ps::ServerStats::relocations).count));
  return 0;
}
