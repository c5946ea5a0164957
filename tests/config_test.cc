#include <gtest/gtest.h>

#include "ps/config.h"
#include "stale/ssp_system.h"

// Config validation: invalid deployments must fail fast with a clear
// message at Normalize()/Validate() time instead of crashing somewhere
// deep in system setup.

namespace lapse {
namespace {

ps::Config ValidConfig() {
  ps::Config cfg;
  cfg.num_nodes = 2;
  cfg.workers_per_node = 1;
  cfg.num_keys = 16;
  cfg.uniform_value_length = 4;
  return cfg;
}

TEST(ConfigValidationTest, ValidConfigPasses) {
  ps::Config cfg = ValidConfig();
  cfg.Normalize();
  EXPECT_EQ(cfg.num_keys, 16u);
}

TEST(ConfigValidationDeathTest, ZeroNodesDies) {
  ps::Config cfg = ValidConfig();
  cfg.num_nodes = 0;
  EXPECT_DEATH(cfg.Normalize(), "num_nodes");
}

TEST(ConfigValidationDeathTest, ZeroWorkersDies) {
  ps::Config cfg = ValidConfig();
  cfg.workers_per_node = 0;
  EXPECT_DEATH(cfg.Normalize(), "workers_per_node");
}

TEST(ConfigValidationDeathTest, ZeroKeysDies) {
  ps::Config cfg = ValidConfig();
  cfg.num_keys = 0;
  EXPECT_DEATH(cfg.Normalize(), "num_keys");
}

TEST(ConfigValidationDeathTest, ZeroLengthValueDies) {
  ps::Config cfg = ValidConfig();
  cfg.num_keys = 0;
  cfg.value_lengths = {4, 0, 4};
  EXPECT_DEATH(cfg.Normalize(), "value_lengths");
}

TEST(ConfigValidationDeathTest, ZeroServerThreadsDies) {
  ps::Config cfg = ValidConfig();
  cfg.server_threads = 0;
  EXPECT_DEATH(cfg.Normalize(), "server_threads");
}

TEST(ConfigValidationDeathTest, TooManyServerThreadsDies) {
  ps::Config cfg = ValidConfig();
  cfg.server_threads = 65;  // shard indices are bytes; hard cap is 64
  EXPECT_DEATH(cfg.Normalize(), "server_threads");
}

TEST(ConfigValidationTest, OversubscribedServerThreadsWarnsButPasses) {
  // More drain threads than hardware threads is allowed (it only warns):
  // correctness never depends on real parallelism.
  ps::Config cfg = ValidConfig();
  cfg.server_threads = 64;
  cfg.Normalize();
  EXPECT_EQ(cfg.server_threads, 64);
}

TEST(ConfigValidationDeathTest, ZeroLatchesDies) {
  ps::Config cfg = ValidConfig();
  cfg.num_latches = 0;
  EXPECT_DEATH(cfg.Normalize(), "num_latches");
}

TEST(ConfigValidationTest, ValueLengthsOverrideNumKeys) {
  ps::Config cfg = ValidConfig();
  cfg.num_keys = 999;  // stale; value_lengths wins
  cfg.value_lengths = {4, 4, 4};
  cfg.Normalize();
  EXPECT_EQ(cfg.num_keys, 3u);
}

TEST(ConfigValidationTest, ClassicArchDegradesStrategyAndCaches) {
  ps::Config cfg = ValidConfig();
  cfg.arch = ps::Architecture::kClassic;
  cfg.strategy = ps::LocationStrategy::kHomeNode;
  cfg.location_caches = true;
  cfg.Normalize();
  EXPECT_EQ(cfg.strategy, ps::LocationStrategy::kStaticPartition);
  EXPECT_FALSE(cfg.location_caches);
}

// ---- adaptive engine knobs ---------------------------------------------

ps::Config ValidAdaptiveConfig() {
  ps::Config cfg = ValidConfig();
  cfg.adaptive.enabled = true;
  return cfg;
}

TEST(ConfigValidationTest, AdaptiveDefaultsAreValid) {
  ps::Config cfg = ValidAdaptiveConfig();
  cfg.Normalize();  // must not die
}

TEST(ConfigValidationDeathTest, AdaptiveNeedsLapseArchitecture) {
  ps::Config cfg = ValidAdaptiveConfig();
  cfg.arch = ps::Architecture::kClassic;
  EXPECT_DEATH(cfg.Normalize(), "adaptive placement engine");
}

TEST(ConfigValidationDeathTest, AdaptiveNeedsHomeNodeStrategy) {
  ps::Config cfg = ValidAdaptiveConfig();
  cfg.strategy = ps::LocationStrategy::kBroadcastOps;
  EXPECT_DEATH(cfg.Normalize(), "home-node");
}

TEST(ConfigValidationDeathTest, DecayOutOfRangeDies) {
  ps::Config cfg = ValidAdaptiveConfig();
  cfg.adaptive.decay = 1.0;
  EXPECT_DEATH(cfg.Normalize(), "decay");
  cfg.adaptive.decay = 0.0;
  EXPECT_DEATH(cfg.Normalize(), "decay");
}

TEST(ConfigValidationDeathTest, InvertedThresholdsDie) {
  ps::Config cfg = ValidAdaptiveConfig();
  cfg.adaptive.hot_threshold = 0.4;
  cfg.adaptive.cold_threshold = 0.5;
  EXPECT_DEATH(cfg.Normalize(), "hot_threshold");
}

TEST(ConfigValidationDeathTest, ZeroSamplePeriodDies) {
  ps::Config cfg = ValidAdaptiveConfig();
  cfg.adaptive.sample_period = 0;
  EXPECT_DEATH(cfg.Normalize(), "sample_period");
}

TEST(ConfigValidationDeathTest, ZeroEvictHysteresisDies) {
  ps::Config cfg = ValidAdaptiveConfig();
  cfg.adaptive.cold_ticks_to_evict = 0;
  EXPECT_DEATH(cfg.Normalize(), "cold_ticks_to_evict");
}

TEST(ConfigValidationDeathTest, CounterOverflowingKnobsDie) {
  // Values that would truncate in the policy's narrow counters must be
  // rejected, not silently wrapped (65536 would truncate to 0 and evict
  // on the first cold tick -- the opposite of the intent).
  ps::Config cfg = ValidAdaptiveConfig();
  cfg.adaptive.cold_ticks_to_evict = 65536;
  EXPECT_DEATH(cfg.Normalize(), "cold_ticks_to_evict");
  cfg = ValidAdaptiveConfig();
  cfg.adaptive.churn_limit = 256;
  EXPECT_DEATH(cfg.Normalize(), "churn_limit");
}

TEST(ConfigValidationDeathTest, ReplicateFractionOutOfRangeDies) {
  ps::Config cfg = ValidAdaptiveConfig();
  cfg.adaptive.replicate_read_fraction = 1.5;
  EXPECT_DEATH(cfg.Normalize(), "replicate_read_fraction");
}

// ---- replication knobs -------------------------------------------------

TEST(ConfigValidationTest, ReplicationDefaultsAreValid) {
  ps::Config cfg = ValidConfig();
  cfg.replication = true;
  cfg.Normalize();  // must not die
}

TEST(ConfigValidationDeathTest, ReplicationNeedsLapseArchitecture) {
  ps::Config cfg = ValidConfig();
  cfg.replication = true;
  cfg.arch = ps::Architecture::kClassicFastLocal;
  EXPECT_DEATH(cfg.Normalize(), "replication");
}

TEST(ConfigValidationDeathTest, ReplicationNeedsHomeNodeStrategy) {
  ps::Config cfg = ValidConfig();
  cfg.replication = true;
  cfg.strategy = ps::LocationStrategy::kBroadcastRelocations;
  EXPECT_DEATH(cfg.Normalize(), "replica directory");
}

TEST(ConfigValidationDeathTest, NonPositiveReplicaStalenessDies) {
  ps::Config cfg = ValidConfig();
  cfg.replication = true;
  cfg.replica_staleness_micros = 0;
  EXPECT_DEATH(cfg.Normalize(), "replica_staleness_micros");
}

// ---- write-aggregation knobs -------------------------------------------

TEST(ConfigValidationDeathTest, ZeroFlushIntervalDies) {
  ps::Config cfg = ValidConfig();
  cfg.replication = true;
  cfg.replica_flush_micros = 0;
  EXPECT_DEATH(cfg.Normalize(), "replica_flush_micros");
}

TEST(ConfigValidationDeathTest, NegativeFlushIntervalDies) {
  ps::Config cfg = ValidConfig();
  cfg.replication = true;
  cfg.replica_flush_micros = -500;
  EXPECT_DEATH(cfg.Normalize(), "replica_flush_micros");
}

TEST(ConfigValidationDeathTest, ZeroFlushMaxFoldsDies) {
  ps::Config cfg = ValidConfig();
  cfg.replication = true;
  cfg.replica_flush_max_folds = 0;
  EXPECT_DEATH(cfg.Normalize(), "replica_flush_max_folds");
}

TEST(ConfigValidationDeathTest, FlushIntervalAboveStalenessBoundDies) {
  // Folds held back longer than the staleness bound would make other
  // holders' replica-served reads lag the bounded-staleness contract.
  ps::Config cfg = ValidConfig();
  cfg.replication = true;
  cfg.replica_staleness_micros = 2000;
  cfg.replica_flush_micros = 2001;
  EXPECT_DEATH(cfg.Normalize(), "staleness");
}

TEST(ConfigValidationTest, FlushIntervalAtStalenessBoundPasses) {
  ps::Config cfg = ValidConfig();
  cfg.replication = true;
  cfg.replica_staleness_micros = 2000;
  cfg.replica_flush_micros = 2000;
  cfg.Normalize();  // must not die
}

// ---- policy unpin knobs ------------------------------------------------

TEST(ConfigValidationDeathTest, UnreplicateFractionOutOfRangeDies) {
  ps::Config cfg = ValidAdaptiveConfig();
  cfg.adaptive.unreplicate_read_fraction = -0.1;
  EXPECT_DEATH(cfg.Normalize(), "unreplicate_read_fraction");
}

TEST(ConfigValidationDeathTest, UnreplicateAboveReplicateFractionDies) {
  // An unpin threshold above the pin threshold would flap: a key pinned
  // at read fraction r would immediately qualify for unpinning.
  ps::Config cfg = ValidAdaptiveConfig();
  cfg.adaptive.replicate_read_fraction = 0.8;
  cfg.adaptive.unreplicate_read_fraction = 0.9;
  EXPECT_DEATH(cfg.Normalize(), "hysteresis");
}

TEST(ConfigValidationDeathTest, ZeroUnreplicateColdWindowsDies) {
  ps::Config cfg = ValidAdaptiveConfig();
  cfg.adaptive.unreplicate_cold_windows = 0;
  EXPECT_DEATH(cfg.Normalize(), "unreplicate_cold_windows");
}

TEST(ConfigValidationDeathTest, OverflowingUnreplicateColdWindowsDies) {
  ps::Config cfg = ValidAdaptiveConfig();
  cfg.adaptive.unreplicate_cold_windows = 65536;
  EXPECT_DEATH(cfg.Normalize(), "unreplicate_cold_windows");
}

// ---- request coalescing knobs ------------------------------------------

TEST(ConfigValidationTest, CoalescingDefaultsAreValid) {
  ps::Config cfg = ValidConfig();
  cfg.coalescing = true;
  cfg.Normalize();  // must not die
}

TEST(ConfigValidationDeathTest, ZeroCoalesceMaxOpsDies) {
  ps::Config cfg = ValidConfig();
  cfg.coalescing = true;
  cfg.coalesce_max_ops = 0;
  EXPECT_DEATH(cfg.Normalize(), "coalesce_max_ops must be >= 1");
}

TEST(ConfigValidationDeathTest, OversizedCoalesceMaxOpsDies) {
  // 62 is the mask width of the batch wire format, not a tunable.
  ps::Config cfg = ValidConfig();
  cfg.coalescing = true;
  cfg.coalesce_max_ops = 63;
  EXPECT_DEATH(cfg.Normalize(), "coalesce_max_ops must be <= 62");
}

TEST(ConfigValidationDeathTest, NonPositiveCoalesceDelayDies) {
  ps::Config cfg = ValidConfig();
  cfg.coalescing = true;
  cfg.coalesce_delay_micros = 0;
  EXPECT_DEATH(cfg.Normalize(), "coalesce_delay_micros must be positive");
}

TEST(ConfigValidationDeathTest, CoalesceDelayAboveStalenessBoundDies) {
  // Pulls held past the staleness bound would install replica copies
  // older than the bounded-staleness contract implies.
  ps::Config cfg = ValidConfig();
  cfg.coalescing = true;
  cfg.replication = true;
  cfg.replica_staleness_micros = 100;
  cfg.replica_flush_micros = 100;  // keep the flush bound check quiet
  cfg.coalesce_delay_micros = 101;
  EXPECT_DEATH(cfg.Normalize(), "coalesce_delay_micros must not exceed");
}

TEST(ConfigValidationTest, CoalesceDelayAtStalenessBoundPasses) {
  ps::Config cfg = ValidConfig();
  cfg.coalescing = true;
  cfg.replication = true;
  cfg.replica_staleness_micros = 100;
  cfg.replica_flush_micros = 100;  // keep the flush bound check quiet
  cfg.coalesce_delay_micros = 100;
  cfg.Normalize();  // must not die
}

TEST(ConfigValidationTest, CoalesceKnobsIgnoredWhenDisabled) {
  ps::Config cfg = ValidConfig();
  cfg.coalescing = false;
  cfg.coalesce_max_ops = 0;
  cfg.coalesce_delay_micros = -5;
  cfg.Normalize();  // must not die
}

// ---- adaptive flush sizing ---------------------------------------------

ps::Config ValidAdaptiveFlushConfig() {
  ps::Config cfg = ValidAdaptiveConfig();
  cfg.replication = true;
  cfg.adaptive.adaptive_flush = true;
  return cfg;
}

TEST(ConfigValidationTest, AdaptiveFlushDefaultsAreValid) {
  ps::Config cfg = ValidAdaptiveFlushConfig();
  cfg.Normalize();  // must not die
}

TEST(ConfigValidationDeathTest, AdaptiveFlushNeedsReplication) {
  ps::Config cfg = ValidAdaptiveFlushConfig();
  cfg.replication = false;
  EXPECT_DEATH(cfg.Normalize(), "adaptive_flush");
}

TEST(ConfigValidationDeathTest, ZeroFlushFoldsFloorDies) {
  ps::Config cfg = ValidAdaptiveFlushConfig();
  cfg.adaptive.flush_folds_floor = 0;
  EXPECT_DEATH(cfg.Normalize(), "flush_folds_floor");
}

TEST(ConfigValidationDeathTest, FlushFloorAboveGlobalCapDies) {
  ps::Config cfg = ValidAdaptiveFlushConfig();
  cfg.replica_flush_max_folds = 8;
  cfg.adaptive.flush_folds_floor = 9;
  EXPECT_DEATH(cfg.Normalize(), "flush_folds_floor");
}

TEST(ConfigValidationDeathTest, NonPositiveSaturationScoreDies) {
  ps::Config cfg = ValidAdaptiveFlushConfig();
  cfg.adaptive.flush_saturation_score = 0.0;
  EXPECT_DEATH(cfg.Normalize(), "flush_saturation_score");
}

// ---- observability ------------------------------------------------------

TEST(ConfigValidationTest, ObsEnabledWithDefaultsPasses) {
  ps::Config cfg = ValidConfig();
  cfg.obs.enabled = true;
  cfg.Normalize();  // must not die
}

TEST(ConfigValidationDeathTest, ObsTinyRingCapacityDies) {
  ps::Config cfg = ValidConfig();
  cfg.obs.enabled = true;
  cfg.obs.ring_capacity = 32;
  EXPECT_DEATH(cfg.Normalize(), "ring_capacity");
}

TEST(ConfigValidationDeathTest, ObsZeroSnapshotPeriodDies) {
  ps::Config cfg = ValidConfig();
  cfg.obs.enabled = true;
  cfg.obs.snapshot_micros = 0;
  EXPECT_DEATH(cfg.Normalize(), "snapshot_micros");
}

TEST(ConfigValidationDeathTest, ObsZeroTraceBufferDies) {
  ps::Config cfg = ValidConfig();
  cfg.obs.enabled = true;
  cfg.obs.max_trace_records = 0;
  EXPECT_DEATH(cfg.Normalize(), "max_trace_records");
}

TEST(ConfigValidationDeathTest, ObsExportPathsRequireEnabledObs) {
  // A configured export path with the layer off would silently write
  // nothing -- reject it instead of surprising the user at shutdown.
  ps::Config cfg = ValidConfig();
  cfg.obs.enabled = false;
  cfg.obs.metrics_json_path = "metrics.json";
  EXPECT_DEATH(cfg.Normalize(), "export paths");
}

// ---- stale (bounded-staleness) PS --------------------------------------

stale::SspConfig ValidSspConfig() {
  stale::SspConfig cfg;
  cfg.num_nodes = 2;
  cfg.workers_per_node = 1;
  cfg.num_keys = 16;
  cfg.value_length = 4;
  return cfg;
}

TEST(SspConfigValidationTest, ValidConfigPasses) {
  ValidSspConfig().Validate();  // must not die
}

TEST(SspConfigValidationDeathTest, NegativeStalenessDies) {
  stale::SspConfig cfg = ValidSspConfig();
  cfg.staleness = -1;
  EXPECT_DEATH(cfg.Validate(), "staleness");
}

TEST(SspConfigValidationDeathTest, ZeroKeysDies) {
  stale::SspConfig cfg = ValidSspConfig();
  cfg.num_keys = 0;
  EXPECT_DEATH(cfg.Validate(), "num_keys");
}

TEST(SspConfigValidationDeathTest, TooManyNodesDies) {
  stale::SspConfig cfg = ValidSspConfig();
  cfg.num_nodes = 65;
  EXPECT_DEATH(cfg.Validate(), "64");
}

}  // namespace
}  // namespace lapse
