#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "util/barrier.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table_printer.h"
#include "util/timer.h"
#include "util/vec_ops.h"
#include "util/zipf.h"

namespace lapse {
namespace {

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int diff = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.Next() != b.Next()) ++diff;
  }
  EXPECT_GT(diff, 0);
}

TEST(RngTest, UniformInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(13), 13u);
  }
}

TEST(RngTest, UniformCoversAllValues) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.25)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Mix64Test, InjectiveOnSmallRange) {
  std::set<uint64_t> outs;
  for (uint64_t i = 0; i < 1000; ++i) outs.insert(Mix64(i));
  EXPECT_EQ(outs.size(), 1000u);
}

TEST(Mix64Test, MatchesSplitMix64Outputs) {
  // Mix64(x) is the first output of SplitMix64 seeded with x; the latch
  // mapping and every derived seed depend on these exact values.
  EXPECT_EQ(Mix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(Mix64(1), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(Mix64(42), 0xbdd732262feb6e95ULL);
  EXPECT_EQ(Mix64(0x0123456789abcdefULL), 0x157a3807a48faa9dULL);
}

// AddTo and CopyVals work in 8-float chunks plus a tail. Every length --
// each tail size, the chunk boundaries 8/16/32 and a RESCAL relation key
// (d^2 values, d = 11) -- must match a scalar loop bit for bit, at aligned
// and unaligned addresses, and leave the values past n untouched.
TEST(VecOpsTest, AddToAndCopyValsMatchScalarReference) {
  constexpr size_t kGuard = 3;
  std::vector<size_t> lengths;
  for (size_t n = 1; n <= 40; ++n) lengths.push_back(n);
  lengths.push_back(11 * 11);
  Rng rng(7);
  for (const size_t n : lengths) {
    for (size_t shift = 0; shift < 2; ++shift) {
      std::vector<Val> src(shift + n + kGuard), base(shift + n + kGuard);
      for (Val& v : src) v = rng.UniformReal(-1e3f, 1e3f);
      for (Val& v : base) v = rng.UniformReal(-1.0f, 1.0f);

      std::vector<Val> got = base, want = base;
      AddTo(got.data() + shift, src.data() + shift, n);
      for (size_t j = 0; j < n; ++j) want[shift + j] += src[shift + j];
      EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(Val)),
                0)
          << "AddTo n=" << n << " shift=" << shift;

      got = base;
      want = base;
      CopyVals(got.data() + shift, src.data() + shift, n);
      for (size_t j = 0; j < n; ++j) want[shift + j] = src[shift + j];
      EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(Val)),
                0)
          << "CopyVals n=" << n << " shift=" << shift;
    }
  }
}

TEST(ZipfTest, PmfSumsToOne) {
  ZipfSampler z(100, 1.0);
  double total = 0;
  for (uint64_t k = 0; k < 100; ++k) total += z.Pmf(k);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, SkewFavorsSmallRanks) {
  ZipfSampler z(1000, 1.2);
  Rng rng(9);
  int head = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (z.Sample(rng) < 10) ++head;
  }
  // With s=1.2, the top-10 items carry a large fraction of the mass.
  EXPECT_GT(head, n / 4);
}

TEST(ZipfTest, SamplesInRange) {
  ZipfSampler z(50, 0.8);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(z.Sample(rng), 50u);
}

TEST(AliasTableTest, MatchesWeights) {
  std::vector<double> w = {1.0, 2.0, 3.0, 4.0};
  AliasTable t(w);
  Rng rng(13);
  std::vector<int> counts(4, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[t.Sample(rng)];
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / n, w[i] / 10.0, 0.01);
  }
}

TEST(AliasTableTest, SingleElement) {
  AliasTable t({5.0});
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(t.Sample(rng), 0u);
}

TEST(AliasTableTest, ZeroWeightNeverSampled) {
  AliasTable t({0.0, 1.0, 0.0, 1.0});
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t s = t.Sample(rng);
    EXPECT_TRUE(s == 1 || s == 3);
  }
}

TEST(BarrierTest, SynchronizesThreads) {
  const int kThreads = 8;
  Barrier barrier(kThreads);
  std::atomic<int> phase0{0};
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      phase0.fetch_add(1);
      barrier.Wait();
      // After the barrier, every thread must have completed phase 0.
      if (phase0.load() != kThreads) ok = false;
      barrier.Wait();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(ok.load());
}

TEST(BarrierTest, Reusable) {
  const int kThreads = 4;
  Barrier barrier(kThreads);
  std::atomic<int> counter{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        counter.fetch_add(1);
        barrier.Wait();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.load(), kThreads * 50);
}

TEST(CounterTest, ConcurrentAdds) {
  Counter c;
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < 10000; ++j) c.Add(2);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.count(), 80000);
  EXPECT_EQ(c.sum(), 160000);
  EXPECT_DOUBLE_EQ(c.Mean(), 2.0);
}

TEST(SummaryTest, BasicStatistics) {
  Summary s = Summarize({1, 2, 3, 4, 5});
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 5);
  EXPECT_DOUBLE_EQ(s.mean, 3);
  EXPECT_DOUBLE_EQ(s.p50, 3);
}

TEST(SummaryTest, Empty) {
  Summary s = Summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0);
}

TEST(TablePrinterTest, AlignedOutput) {
  TablePrinter t({"a", "long_header"});
  t.AddRow({"1", "2"});
  t.AddRow({"xxx", "y"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_NE(out.find("xxx"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TablePrinterTest, NumberFormatting) {
  EXPECT_EQ(TablePrinter::Num(1.234, 2), "1.23");
  EXPECT_EQ(TablePrinter::Int(42), "42");
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.ElapsedMillis(), 15.0);
  EXPECT_LT(t.ElapsedMillis(), 5000.0);
}

TEST(TimerTest, NowNanosMonotonic) {
  const int64_t a = NowNanos();
  const int64_t b = NowNanos();
  EXPECT_LE(a, b);
}

}  // namespace
}  // namespace lapse
