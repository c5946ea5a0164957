#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "util/spsc_ring.h"

// The bounded single-producer/single-consumer ring that carries access
// samples to the placement manager and trace events to the collector:
// FIFO order, lossy-but-never-blocking overflow, wraparound, and a real
// producer racing a real consumer (this file runs under the tsan ctest
// label).

namespace lapse {
namespace {

TEST(SpscRingTest, PushDrainRoundTrip) {
  SpscRing<uint64_t> ring(64);
  for (uint64_t i = 0; i < 10; ++i) EXPECT_TRUE(ring.TryPush(i));
  std::vector<uint64_t> out;
  EXPECT_EQ(ring.Drain(&out), 10u);
  ASSERT_EQ(out.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) EXPECT_EQ(out[i], i);
  EXPECT_EQ(ring.Drain(&out), 0u);
}

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<uint64_t>(64).capacity(), 64u);
  EXPECT_EQ(SpscRing<uint64_t>(100).capacity(), 128u);
  EXPECT_EQ(SpscRing<uint64_t>(1).capacity(), 64u);  // the minimum
}

TEST(SpscRingTest, OverflowDropsAndCountsInsteadOfBlocking) {
  SpscRing<uint64_t> ring(64);
  EXPECT_EQ(ring.TakeDropped(), 0);
  for (uint64_t i = 0; i < 64; ++i) EXPECT_TRUE(ring.TryPush(i));
  // Full: pushes fail fast, the drop counter advances, nothing blocks.
  for (uint64_t i = 0; i < 10; ++i) EXPECT_FALSE(ring.TryPush(999));
  EXPECT_EQ(ring.dropped(), 10);

  // The oldest survive, in order; draining frees the space again.
  std::vector<uint64_t> out;
  EXPECT_EQ(ring.Drain(&out), 64u);
  EXPECT_EQ(out.front(), 0u);
  EXPECT_EQ(out.back(), 63u);
  EXPECT_TRUE(ring.TryPush(1000));

  // TakeDropped hands over the count once and restarts it.
  EXPECT_EQ(ring.TakeDropped(), 10);
  EXPECT_EQ(ring.TakeDropped(), 0);
  EXPECT_EQ(ring.dropped(), 0);
}

TEST(SpscRingTest, WrapsAcrossManyBatches) {
  SpscRing<uint64_t> ring(64);
  std::vector<uint64_t> out;
  for (uint64_t round = 0; round < 100; ++round) {
    for (uint64_t i = 0; i < 48; ++i) {
      ASSERT_TRUE(ring.TryPush(round * 48 + i));
    }
    out.clear();
    ASSERT_EQ(ring.Drain(&out), 48u);
    EXPECT_EQ(out.front(), round * 48);
    EXPECT_EQ(out.back(), round * 48 + 47);
  }
  EXPECT_EQ(ring.dropped(), 0);
}

TEST(SpscRingTest, RingSetDrainsAndCountsEverySlot) {
  SpscRingSet<uint64_t> rings(3, 64);
  for (int32_t slot = 0; slot < 3; ++slot) {
    for (uint64_t i = 0; i < 65; ++i) rings.Ring(slot)->TryPush(i);
  }
  std::vector<uint64_t> out;
  EXPECT_EQ(rings.DrainAll(&out), 3u * 64);
  EXPECT_EQ(rings.TotalDropped(), 3);
  EXPECT_EQ(rings.TakeDropped(), 3);
  EXPECT_EQ(rings.TotalDropped(), 0);
}

TEST(SpscRingTest, ConcurrentProducerConsumer) {
  SpscRing<uint64_t> ring(256);
  constexpr uint64_t kRecords = 50'000;
  std::thread producer([&] {
    for (uint64_t i = 0; i < kRecords; ++i) ring.TryPush(i);
  });
  std::vector<uint64_t> out;
  uint64_t last = 0;
  bool first = true;
  while (true) {
    out.clear();
    ring.Drain(&out);
    for (const uint64_t v : out) {
      // Drops lose records but never reorder or duplicate the survivors.
      if (!first) {
        EXPECT_GT(v, last);
      }
      last = v;
      first = false;
    }
    if (last == kRecords - 1 ||
        static_cast<uint64_t>(ring.dropped()) + last + 1 >= kRecords) {
      break;
    }
  }
  producer.join();
  out.clear();
  ring.Drain(&out);
  EXPECT_EQ(ring.Drain(&out), 0u);
}

}  // namespace
}  // namespace lapse
