#include <gtest/gtest.h>

#include <set>

#include "mf/block_schedule.h"
#include "mf/dsgd.h"
#include "mf/matrix_gen.h"

namespace lapse {
namespace mf {
namespace {

MatrixGenConfig SmallMatrixConfig() {
  MatrixGenConfig cfg;
  cfg.rows = 60;
  cfg.cols = 40;
  cfg.nnz = 1200;
  cfg.rank = 4;
  cfg.noise = 0.01f;
  cfg.seed = 11;
  return cfg;
}

TEST(MatrixGenTest, ShapeAndCoverage) {
  const SparseMatrix m = GenerateLowRankMatrix(SmallMatrixConfig());
  EXPECT_EQ(m.rows, 60u);
  EXPECT_EQ(m.cols, 40u);
  EXPECT_GE(m.nnz(), 1200u);
  std::set<uint32_t> rows, cols;
  for (const auto& e : m.entries) {
    EXPECT_LT(e.row, 60u);
    EXPECT_LT(e.col, 40u);
    rows.insert(e.row);
    cols.insert(e.col);
  }
  EXPECT_EQ(rows.size(), 60u);  // every row covered
  EXPECT_EQ(cols.size(), 40u);  // every column covered
}

TEST(MatrixGenTest, Deterministic) {
  const SparseMatrix a = GenerateLowRankMatrix(SmallMatrixConfig());
  const SparseMatrix b = GenerateLowRankMatrix(SmallMatrixConfig());
  ASSERT_EQ(a.nnz(), b.nnz());
  for (size_t i = 0; i < a.nnz(); ++i) {
    EXPECT_EQ(a.entries[i].row, b.entries[i].row);
    EXPECT_EQ(a.entries[i].value, b.entries[i].value);
  }
}

TEST(BlockScheduleTest, LatinSquareProperty) {
  // In every subepoch, the workers' blocks form a permutation: no two
  // workers share a block (the exclusivity DSGD depends on).
  const BlockSchedule s(100, 100, 8);
  for (int sub = 0; sub < 8; ++sub) {
    std::set<int> blocks;
    for (int w = 0; w < 8; ++w) blocks.insert(s.BlockForWorker(w, sub));
    EXPECT_EQ(blocks.size(), 8u);
  }
  // Over an epoch, each worker sees every block exactly once.
  for (int w = 0; w < 8; ++w) {
    std::set<int> blocks;
    for (int sub = 0; sub < 8; ++sub) blocks.insert(s.BlockForWorker(w, sub));
    EXPECT_EQ(blocks.size(), 8u);
  }
}

TEST(BlockScheduleTest, BlockAndRowRangesPartition) {
  const BlockSchedule s(97, 53, 6);
  uint64_t covered = 0;
  for (int b = 0; b < 6; ++b) {
    EXPECT_EQ(s.BlockBegin(b), covered);
    covered = s.BlockEnd(b);
  }
  EXPECT_EQ(covered, 53u);
  for (uint64_t c = 0; c < 53; ++c) {
    const int b = s.BlockOfCol(c);
    EXPECT_GE(c, s.BlockBegin(b));
    EXPECT_LT(c, s.BlockEnd(b));
  }
  for (uint64_t r = 0; r < 97; ++r) {
    const int w = s.WorkerOfRow(r);
    EXPECT_GE(r, s.RowBegin(w));
    EXPECT_LT(r, s.RowEnd(w));
  }
}

TEST(DsgdPartitionTest, AllEntriesAssignedExactlyOnce) {
  const SparseMatrix m = GenerateLowRankMatrix(SmallMatrixConfig());
  const BlockSchedule s(m.rows, m.cols, 4);
  const DsgdPartition p(m, s);
  size_t total = 0;
  for (int w = 0; w < 4; ++w) {
    for (int b = 0; b < 4; ++b) {
      for (const uint32_t idx : p.Entries(w, b)) {
        const MatrixEntry& e = m.entries[idx];
        EXPECT_EQ(s.WorkerOfRow(e.row), w);
        EXPECT_EQ(s.BlockOfCol(e.col), b);
      }
      total += p.Entries(w, b).size();
    }
  }
  EXPECT_EQ(total, m.nnz());
}

class DsgdTrainTest : public ::testing::TestWithParam<ps::Architecture> {};

TEST_P(DsgdTrainTest, LossDecreasesOverEpochs) {
  const SparseMatrix m = GenerateLowRankMatrix(SmallMatrixConfig());
  DsgdConfig cfg;
  cfg.rank = 4;
  cfg.epochs = 4;
  cfg.lr = 0.05f;
  cfg.use_localize = (GetParam() == ps::Architecture::kLapse);
  ps::Config pscfg =
      MakeDsgdPsConfig(m, cfg, 2, 2, net::LatencyConfig::Zero());
  pscfg.arch = GetParam();
  ps::PsSystem system(pscfg);
  InitFactorsPs(system, m, cfg);
  const double loss0 = DsgdFullLossPs(system, m, cfg);
  const auto results = TrainDsgdOnPs(system, m, cfg);
  ASSERT_EQ(results.size(), 4u);
  const double loss1 = DsgdFullLossPs(system, m, cfg);
  EXPECT_LT(loss1, loss0 * 0.7);
  EXPECT_LT(results.back().loss, results.front().loss);
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, DsgdTrainTest,
    ::testing::Values(ps::Architecture::kLapse,
                      ps::Architecture::kClassicFastLocal,
                      ps::Architecture::kClassic),
    [](const auto& info) { return ps::ArchitectureName(info.param); });

TEST(DsgdLapseTest, AllAccessesLocalWithBlocking) {
  // The whole point of parameter blocking + DPA: within subepochs, every
  // parameter access is local (paper Section 4.6: "all parameter accesses
  // were local").
  const SparseMatrix m = GenerateLowRankMatrix(SmallMatrixConfig());
  DsgdConfig cfg;
  cfg.rank = 4;
  cfg.epochs = 1;
  ps::Config pscfg =
      MakeDsgdPsConfig(m, cfg, 2, 2, net::LatencyConfig::Zero());
  ps::PsSystem system(pscfg);
  InitFactorsPs(system, m, cfg);
  TrainDsgdOnPs(system, m, cfg);
  EXPECT_EQ(system.TotalRemoteReads(), 0);
  EXPECT_EQ(system.Sum(&ps::ServerStats::remote_key_writes).sum, 0);
  EXPECT_GT(system.TotalLocalReads(), 0);
}

TEST(DsgdSspTest, TrainsOnStalePs) {
  const SparseMatrix m = GenerateLowRankMatrix(SmallMatrixConfig());
  DsgdConfig cfg;
  cfg.rank = 4;
  cfg.epochs = 3;
  cfg.lr = 0.05f;
  stale::SspConfig ssp;
  ssp.num_nodes = 2;
  ssp.workers_per_node = 2;
  ssp.num_keys = m.rows + m.cols;
  ssp.value_length = cfg.rank;
  ssp.latency = net::LatencyConfig::Zero();
  stale::SspSystem system(ssp);
  InitFactorsSsp(system, m, cfg);
  const auto results = TrainDsgdOnSsp(system, m, cfg);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_LT(results.back().loss, results.front().loss);
}

TEST(DsgdSspTest, ServerSyncTrainsToo) {
  const SparseMatrix m = GenerateLowRankMatrix(SmallMatrixConfig());
  DsgdConfig cfg;
  cfg.rank = 4;
  cfg.epochs = 2;
  cfg.lr = 0.05f;
  stale::SspConfig ssp;
  ssp.num_nodes = 2;
  ssp.workers_per_node = 2;
  ssp.num_keys = m.rows + m.cols;
  ssp.value_length = cfg.rank;
  ssp.sync_mode = stale::SyncMode::kServerSync;
  ssp.latency = net::LatencyConfig::Zero();
  stale::SspSystem system(ssp);
  InitFactorsSsp(system, m, cfg);
  const auto results = TrainDsgdOnSsp(system, m, cfg);
  EXPECT_LT(results.back().loss, results.front().loss);
}

TEST(InitialFactorTest, DeterministicAndScaled) {
  const auto a = InitialMfFactor(5, 8, 42);
  const auto b = InitialMfFactor(5, 8, 42);
  const auto c = InitialMfFactor(6, 8, 42);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 8u);
}

}  // namespace
}  // namespace mf
}  // namespace lapse
