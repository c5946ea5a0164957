#include <gtest/gtest.h>

#include <atomic>
#include <tuple>
#include <vector>

#include "ps/system.h"

// Empirical checks of the consistency properties of Table 1 (per-key
// guarantees). These are necessarily one-sided: a test can demonstrate a
// violation or fail to find one, not prove absence -- but the invariants
// below (no lost updates, read-your-writes, monotonic reads, program order
// through relocation storms) are the load-bearing ones for the paper's
// Theorems 1 and 2.

namespace lapse {
namespace ps {
namespace {

struct ConsistencyParam {
  Architecture arch;
  bool caches;
};

std::string ParamName(
    const ::testing::TestParamInfo<ConsistencyParam>& info) {
  std::string s = ArchitectureName(info.param.arch);
  s += info.param.caches ? "Cached" : "";
  return s;
}

class ConsistencyTest : public ::testing::TestWithParam<ConsistencyParam> {
 protected:
  Config MakeConfig(int nodes, int workers, uint64_t keys) {
    Config cfg;
    cfg.num_nodes = nodes;
    cfg.workers_per_node = workers;
    cfg.num_keys = keys;
    cfg.uniform_value_length = 2;
    cfg.arch = GetParam().arch;
    cfg.location_caches = GetParam().caches;
    cfg.latency = net::LatencyConfig::Zero();
    return cfg;
  }
};

TEST_P(ConsistencyTest, NoLostUpdates) {
  // Cumulative pushes from all workers must all be reflected (the PS
  // property "lost updates do not occur ... when updates are cumulative").
  PsSystem system(MakeConfig(4, 2, 16));
  const int kPushes = 200;
  system.Run([&](Worker& w) {
    const std::vector<Val> one = {1.0f, 2.0f};
    Rng& rng = w.rng();
    for (int i = 0; i < kPushes; ++i) {
      const Key k = rng.Uniform(16);
      if (w.config().arch == Architecture::kLapse && i % 17 == 3) {
        w.Localize({k});
      }
      w.Push({k}, one.data());
    }
  });
  double total0 = 0, total1 = 0;
  std::vector<Val> buf(2);
  for (Key k = 0; k < 16; ++k) {
    system.GetValue(k, buf.data());
    total0 += buf[0];
    total1 += buf[1];
  }
  EXPECT_DOUBLE_EQ(total0, 8.0 * kPushes);
  EXPECT_DOUBLE_EQ(total1, 16.0 * kPushes);
}

TEST_P(ConsistencyTest, ReadYourWritesUnderContention) {
  // Each worker owns a private counter key and must observe exactly its own
  // history on it, even while other keys relocate around it.
  PsSystem system(MakeConfig(2, 2, 8));
  system.Run([&](Worker& w) {
    const Key mine = static_cast<Key>(w.worker_id());
    const Key shared = 7;
    std::vector<Val> buf(2);
    const std::vector<Val> one = {1.0f, 0.0f};
    for (int i = 1; i <= 50; ++i) {
      w.Push({mine}, one.data());
      if (w.config().arch == Architecture::kLapse && i % 5 == 0) {
        w.Localize({shared, mine});
      }
      w.Push({shared}, one.data());
      w.Pull({mine}, buf.data());
      ASSERT_EQ(buf[0], static_cast<Val>(i));
    }
  });
}

TEST_P(ConsistencyTest, MonotonicReadsOfMonotonicCounter) {
  // One writer increments a key; all readers must observe a non-decreasing
  // sequence with synchronous operations.
  PsSystem system(MakeConfig(2, 2, 4));
  std::atomic<bool> done{false};
  system.Run([&](Worker& w) {
    if (w.worker_id() == 0) {
      const std::vector<Val> one = {1.0f, 0.0f};
      for (int i = 0; i < 200; ++i) {
        w.Push({2}, one.data());
        if (w.config().arch == Architecture::kLapse && i % 20 == 7) {
          w.Localize({2});
        }
      }
      done.store(true);
    } else {
      std::vector<Val> buf(2);
      Val last = 0;
      while (!done.load()) {
        w.Pull({2}, buf.data());
        ASSERT_GE(buf[0], last);
        last = buf[0];
      }
    }
  });
}

TEST_P(ConsistencyTest, AsyncProgramOrderPerKeySync) {
  // Async push then sync pull on the same key from the same worker must
  // observe the push (property (1) of sequential consistency; with
  // location caches this holds for the sync pull because the pull blocks).
  PsSystem system(MakeConfig(2, 1, 4));
  system.Run([&](Worker& w) {
    const Key k = 3;
    std::vector<Val> buf(2);
    const std::vector<Val> one = {1.0f, 0.0f};
    for (int i = 1; i <= 100; ++i) {
      w.PushAsync({k}, one.data());
      if (w.worker_id() == 0 && w.config().arch == Architecture::kLapse &&
          i % 10 == 0) {
        w.LocalizeAsync({k});
      }
      w.Pull({k}, buf.data());
      ASSERT_GE(buf[0], static_cast<Val>(i));  // >= own pushes so far
    }
    w.WaitAll();
  });
  std::vector<Val> buf(2);
  system.GetValue(3, buf.data());
  EXPECT_EQ(buf[0], 200.0f);  // 2 workers x 100
}

TEST_P(ConsistencyTest, LocalizeStormPreservesSums) {
  // Relocation chains (multiple nodes localizing the same key while it is
  // still in flight) must not drop queued operations.
  if (GetParam().arch != Architecture::kLapse) {
    GTEST_SKIP() << "relocations only exist under Lapse";
  }
  PsSystem system(MakeConfig(4, 2, 2));
  const int kIters = 100;
  system.Run([&](Worker& w) {
    const std::vector<Val> one = {1.0f, -1.0f};
    for (int i = 0; i < kIters; ++i) {
      w.LocalizeAsync({0});
      w.PushAsync({0}, one.data());
    }
    w.WaitAll();
  });
  std::vector<Val> buf(2);
  system.GetValue(0, buf.data());
  EXPECT_EQ(buf[0], 8.0f * kIters);
  EXPECT_EQ(buf[1], -8.0f * kIters);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ConsistencyTest,
    ::testing::Values(
        ConsistencyParam{Architecture::kLapse, false},
        ConsistencyParam{Architecture::kLapse, true},
        ConsistencyParam{Architecture::kClassicFastLocal, false},
        ConsistencyParam{Architecture::kClassic, false}),
    ParamName);

// Sequential consistency property (2): with two workers pushing
// distinguishable updates and readers pulling, every observed value must be
// explainable by *some* interleaving -- for cumulative updates this reduces
// to never observing a value exceeding the final sum.
TEST(ConsistencySemanticsTest, ObservedValuesNeverExceedIssuedUpdates) {
  Config cfg;
  cfg.num_nodes = 3;
  cfg.workers_per_node = 2;
  cfg.num_keys = 4;
  cfg.uniform_value_length = 1;
  cfg.arch = Architecture::kLapse;
  cfg.latency = net::LatencyConfig::Zero();
  PsSystem system(cfg);
  const int kPushes = 100;
  std::atomic<int64_t> issued{0};
  system.Run([&](Worker& w) {
    const std::vector<Val> one = {1.0f};
    std::vector<Val> buf(1);
    for (int i = 0; i < kPushes; ++i) {
      issued.fetch_add(1);
      w.Push({1}, one.data());
      w.Pull({1}, buf.data());
      // A read can never see more pushes than were issued so far.
      ASSERT_LE(buf[0], static_cast<Val>(issued.load()));
    }
  });
  std::vector<Val> buf(1);
  system.GetValue(1, buf.data());
  EXPECT_EQ(buf[0], static_cast<Val>(6 * kPushes));
}

}  // namespace
}  // namespace ps
}  // namespace lapse
