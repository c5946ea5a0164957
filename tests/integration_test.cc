#include <gtest/gtest.h>

#include <vector>

#include "kge/kge_train.h"
#include "lowlevel/block_mf.h"
#include "mf/dsgd.h"
#include "ps/system.h"
#include "w2v/w2v_train.h"

// Cross-module integration tests: whole training pipelines under realistic
// latency, architecture comparisons, and the qualitative claims the paper's
// evaluation rests on (locality of PAL techniques, relocation volume).

namespace lapse {
namespace {

TEST(IntegrationTest, MfPipelineUnderLatency) {
  mf::MatrixGenConfig gen;
  gen.rows = 48;
  gen.cols = 32;
  gen.nnz = 600;
  gen.rank = 4;
  gen.seed = 3;
  const mf::SparseMatrix m = GenerateLowRankMatrix(gen);
  mf::DsgdConfig cfg;
  cfg.rank = 4;
  cfg.epochs = 2;
  net::LatencyConfig lat;
  lat.remote_base_ns = 20'000;
  lat.local_base_ns = 1'000;
  ps::Config pscfg = MakeDsgdPsConfig(m, cfg, 2, 2, lat);
  ps::PsSystem system(pscfg);
  InitFactorsPs(system, m, cfg);
  const auto results = TrainDsgdOnPs(system, m, cfg);
  EXPECT_LT(results.back().loss, results.front().loss);
  EXPECT_GT(results[0].seconds, 0.0);
}

TEST(IntegrationTest, LapseFasterThanClassicOnMf) {
  // The paper's headline: with PAL techniques, Lapse beats a classic PS by
  // a wide margin because parameter blocking makes all accesses local.
  mf::MatrixGenConfig gen;
  gen.rows = 64;
  gen.cols = 32;
  gen.nnz = 800;
  gen.rank = 4;
  gen.seed = 5;
  const mf::SparseMatrix m = GenerateLowRankMatrix(gen);
  mf::DsgdConfig cfg;
  cfg.rank = 4;
  cfg.epochs = 1;
  net::LatencyConfig lat;
  lat.remote_base_ns = 50'000;
  lat.local_base_ns = 5'000;

  double lapse_seconds = 0, classic_seconds = 0;
  {
    ps::Config pscfg = MakeDsgdPsConfig(m, cfg, 2, 2, lat);
    pscfg.arch = ps::Architecture::kLapse;
    ps::PsSystem system(pscfg);
    InitFactorsPs(system, m, cfg);
    lapse_seconds = TrainDsgdOnPs(system, m, cfg)[0].seconds;
  }
  {
    mf::DsgdConfig classic_cfg = cfg;
    classic_cfg.use_localize = false;
    ps::Config pscfg = MakeDsgdPsConfig(m, classic_cfg, 2, 2, lat);
    pscfg.arch = ps::Architecture::kClassic;
    ps::PsSystem system(pscfg);
    InitFactorsPs(system, m, classic_cfg);
    classic_seconds = TrainDsgdOnPs(system, m, classic_cfg)[0].seconds;
  }
  EXPECT_LT(lapse_seconds * 2, classic_seconds)
      << "Lapse " << lapse_seconds << "s vs classic " << classic_seconds
      << "s";
}

TEST(IntegrationTest, KgePipelineUnderLatency) {
  kge::KgGenConfig gen;
  gen.num_entities = 120;
  gen.num_relations = 6;
  gen.num_triples = 800;
  const kge::KnowledgeGraph kg = GenerateKg(gen);
  kge::KgeConfig cfg;
  cfg.dim = 4;
  cfg.epochs = 1;
  net::LatencyConfig lat;
  lat.remote_base_ns = 10'000;
  lat.local_base_ns = 1'000;
  ps::Config pscfg = MakeKgePsConfig(kg, cfg, 2, 2, lat);
  ps::PsSystem system(pscfg);
  InitKgeParams(system, kg, cfg);
  const auto results = TrainKge(system, kg, cfg);
  EXPECT_GT(results[0].seconds, 0.0);
  EXPECT_GT(system.Sum(&ps::ServerStats::relocations).count, 0);
}

TEST(IntegrationTest, W2vPipelineUnderLatency) {
  w2v::CorpusGenConfig gen;
  gen.vocab_size = 100;
  gen.num_sentences = 60;
  gen.sentence_length = 10;
  const w2v::Corpus corpus = GenerateCorpus(gen);
  w2v::W2vConfig cfg;
  cfg.dim = 8;
  cfg.epochs = 1;
  cfg.negatives = 2;
  cfg.presample_size = 40;
  cfg.presample_refresh = 36;
  net::LatencyConfig lat;
  lat.remote_base_ns = 10'000;
  lat.local_base_ns = 1'000;
  ps::Config pscfg = MakeW2vPsConfig(corpus, cfg, 2, 2, lat);
  ps::PsSystem system(pscfg);
  InitW2vParams(system, corpus, cfg);
  const auto results = TrainW2v(system, corpus, cfg);
  EXPECT_GT(results[0].seconds, 0.0);
}

TEST(IntegrationTest, AllThreeBackendsAgreeOnMfDirection) {
  // PS, stale PS, and low-level all train the same model; all must reduce
  // the loss from the same initialization.
  mf::MatrixGenConfig gen;
  gen.rows = 48;
  gen.cols = 32;
  gen.nnz = 800;
  gen.rank = 4;
  gen.seed = 9;
  const mf::SparseMatrix m = GenerateLowRankMatrix(gen);

  mf::DsgdConfig cfg;
  cfg.rank = 4;
  cfg.epochs = 2;
  cfg.lr = 0.05f;

  ps::Config pscfg =
      MakeDsgdPsConfig(m, cfg, 2, 2, net::LatencyConfig::Zero());
  ps::PsSystem ps_system(pscfg);
  InitFactorsPs(ps_system, m, cfg);
  const auto ps_results = TrainDsgdOnPs(ps_system, m, cfg);

  stale::SspConfig ssp;
  ssp.num_nodes = 2;
  ssp.workers_per_node = 2;
  ssp.num_keys = m.rows + m.cols;
  ssp.value_length = cfg.rank;
  ssp.latency = net::LatencyConfig::Zero();
  stale::SspSystem ssp_system(ssp);
  InitFactorsSsp(ssp_system, m, cfg);
  const auto ssp_results = TrainDsgdOnSsp(ssp_system, m, cfg);

  lowlevel::BlockMfConfig low;
  low.rank = 4;
  low.epochs = 2;
  low.lr = 0.05f;
  low.latency = net::LatencyConfig::Zero();
  const auto low_results = TrainBlockMf(m, low, 4);

  EXPECT_LT(ps_results.back().loss, ps_results.front().loss);
  EXPECT_LT(ssp_results.back().loss, ssp_results.front().loss);
  EXPECT_LT(low_results.back().loss, low_results.front().loss);
}

TEST(IntegrationTest, RelocationRateMatchesWorkload) {
  // Table 5 shape: with latency hiding, relocations scale with the number
  // of processed data points and most reads stay local.
  kge::KgGenConfig gen;
  gen.num_entities = 150;
  gen.num_relations = 4;
  gen.num_triples = 600;
  const kge::KnowledgeGraph kg = GenerateKg(gen);
  kge::KgeConfig cfg;
  cfg.dim = 4;
  cfg.epochs = 1;
  ps::Config pscfg =
      MakeKgePsConfig(kg, cfg, 4, 1, net::LatencyConfig::Zero());
  ps::PsSystem system(pscfg);
  InitKgeParams(system, kg, cfg);
  TrainKge(system, kg, cfg);
  EXPECT_GT(system.Sum(&ps::ServerStats::relocations).count, 100);
  EXPECT_GT(system.TotalLocalReads(), system.TotalRemoteReads());
}

TEST(IntegrationTest, SingleNodeDegeneratesToLocalOnly) {
  // On one node, everything is local for Lapse and fast-local variants.
  w2v::CorpusGenConfig gen;
  gen.vocab_size = 80;
  gen.num_sentences = 40;
  gen.sentence_length = 10;
  const w2v::Corpus corpus = GenerateCorpus(gen);
  w2v::W2vConfig cfg;
  cfg.dim = 8;
  cfg.epochs = 1;
  cfg.negatives = 1;
  cfg.presample_size = 30;
  cfg.presample_refresh = 28;
  ps::Config pscfg =
      MakeW2vPsConfig(corpus, cfg, 1, 2, net::LatencyConfig::Zero());
  ps::PsSystem system(pscfg);
  InitW2vParams(system, corpus, cfg);
  TrainW2v(system, corpus, cfg);
  EXPECT_EQ(system.TotalRemoteReads(), 0);
  EXPECT_EQ(system.Sum(&ps::ServerStats::remote_key_writes).sum, 0);
}

}  // namespace
}  // namespace lapse
