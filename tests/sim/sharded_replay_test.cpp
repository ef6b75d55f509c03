// Edge cases of the sharded-replay path: the shard_record_budget
// preconditions, zero-budget tail shards, and the merge_shard_results
// reduction (single-shard identity, earliest first failure, counter sums,
// geometry mismatch). Companion to the determinism pins in runner/determinism_test —
// this file covers the corners a healthy sweep never visits.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/contracts.hpp"
#include "runner/sweep_runner.hpp"
#include "sim/experiments.hpp"
#include "sim/sharded_replay.hpp"
#include "stats/summary.hpp"

namespace swl::sim {
namespace {

ExperimentScale tiny_scale() {
  ExperimentScale scale;
  scale.block_count = 48;
  scale.endurance = 40;
  scale.base_trace_days = 0.05;
  scale.seed = 7;
  return scale;
}

/// A synthetic shard result with hand-picked wear and counters (no
/// simulation needed to exercise the reduction).
SimResult synthetic_result(std::vector<std::uint32_t> erase_counts,
                           std::optional<double> first_failure, double elapsed,
                           std::uint64_t records) {
  SimResult r;
  r.erase_counts = std::move(erase_counts);
  r.erase_summary = stats::summarize(r.erase_counts);
  r.first_failure_years = first_failure;
  r.elapsed_years = elapsed;
  r.records_processed = records;
  r.counters.host_writes = records;
  r.chip_counters.erases = 1;
  return r;
}

TEST(ShardedReplay, BudgetSplitsEveryRecordExactlyOnce) {
  for (const std::uint64_t total : {0ULL, 1ULL, 7ULL, 1000ULL, 1001ULL}) {
    for (const std::uint32_t shards : {1u, 2u, 3u, 8u}) {
      std::uint64_t sum = 0;
      std::uint64_t lo = UINT64_MAX;
      std::uint64_t hi = 0;
      for (std::uint32_t s = 0; s < shards; ++s) {
        const std::uint64_t b = shard_record_budget(total, shards, s);
        sum += b;
        lo = std::min(lo, b);
        hi = std::max(hi, b);
      }
      EXPECT_EQ(sum, total) << total << " records over " << shards << " shards";
      EXPECT_LE(hi - lo, 1u) << "split must stay even";
    }
  }
}

TEST(ShardedReplay, BudgetRejectsZeroShards) {
  // Regression: this used to divide by zero (UB) before any precondition
  // fired.
  EXPECT_THROW((void)shard_record_budget(100, 0, 0), PreconditionError);
  EXPECT_THROW((void)shard_record_budget(0, 0, 0), PreconditionError);
}

TEST(ShardedReplay, BudgetRejectsShardIndexOutOfRange) {
  EXPECT_THROW((void)shard_record_budget(100, 4, 4), PreconditionError);
}

TEST(ShardedReplay, RunShardedRejectsZeroShards) {
  const ExperimentScale scale = tiny_scale();
  const trace::Trace base = make_base_trace(scale, LayerKind::ftl);
  const SimConfig config = make_sim_config(scale, LayerKind::ftl, std::nullopt);
  runner::SweepRunner runner(1);
  EXPECT_THROW((void)run_sharded_on(runner, config, scale, base, scale.max_years,
                                    /*total_records=*/100, /*shards=*/0),
               PreconditionError);
}

// More shards than records: the tail shards get a zero budget and must come
// back as empty runs over the correct geometry, not skew the merge.
TEST(ShardedReplay, ZeroBudgetShardIsAnEmptyRunWithCorrectGeometry) {
  const ExperimentScale scale = tiny_scale();
  const trace::Trace base = make_base_trace(scale, LayerKind::ftl);
  const SimConfig config = make_sim_config(scale, LayerKind::ftl, std::nullopt);
  // 3 records across 8 shards: shards 3..7 replay nothing.
  const std::uint32_t shards = 8;
  const std::uint64_t total = 3;
  EXPECT_EQ(shard_record_budget(total, shards, 7), 0u);
  const SimResult tail =
      run_replay_shard(config, scale, base, scale.max_years, total, shards, /*shard=*/7);
  EXPECT_EQ(tail.records_processed, 0u);
  EXPECT_EQ(tail.erase_counts.size(), scale.block_count);
  EXPECT_EQ(tail.counters.host_writes, 0u);
  EXPECT_EQ(tail.chip_counters.programs, 0u);
  EXPECT_EQ(tail.elapsed_years, 0.0);
  EXPECT_FALSE(tail.first_failure_years.has_value());
}

TEST(ShardedReplay, MergeHandlesZeroBudgetShardsWithoutSkew) {
  const ExperimentScale scale = tiny_scale();
  const trace::Trace base = make_base_trace(scale, LayerKind::ftl);
  const SimConfig config = make_sim_config(scale, LayerKind::ftl, std::nullopt);
  runner::SweepRunner runner(1);
  const std::uint64_t total = 3;
  // All the work lands in shards 0..2; 3..7 contribute empty results. The
  // merged point must look exactly like merging only the active shards.
  const SimResult merged_all =
      run_sharded_on(runner, config, scale, base, scale.max_years, total, /*shards=*/8);
  std::vector<SimResult> active;
  for (std::uint32_t s = 0; s < 3; ++s) {
    active.push_back(
        run_replay_shard(config, scale, base, scale.max_years, total, /*shards=*/8, s));
  }
  const SimResult merged_active = merge_shard_results(active);
  EXPECT_EQ(merged_all.records_processed, total);
  EXPECT_EQ(merged_all.records_processed, merged_active.records_processed);
  EXPECT_EQ(merged_all.erase_counts, merged_active.erase_counts);
  EXPECT_EQ(merged_all.erase_summary.mean, merged_active.erase_summary.mean);
  EXPECT_EQ(merged_all.erase_summary.stddev, merged_active.erase_summary.stddev);
  EXPECT_EQ(merged_all.erase_summary.count, merged_active.erase_summary.count);
  EXPECT_EQ(merged_all.counters.host_writes, merged_active.counters.host_writes);
  EXPECT_EQ(merged_all.elapsed_years, merged_active.elapsed_years);
}

TEST(ShardedReplay, MergeOfOneShardIsIdentity) {
  const SimResult r = synthetic_result({1, 2, 3, 4}, 2.5, 3.0, 100);
  const SimResult m = merge_shard_results({r});
  EXPECT_EQ(m.first_failure_years, r.first_failure_years);
  EXPECT_EQ(m.elapsed_years, r.elapsed_years);
  EXPECT_EQ(m.records_processed, r.records_processed);
  EXPECT_EQ(m.erase_counts, r.erase_counts);
  EXPECT_EQ(m.erase_summary.mean, r.erase_summary.mean);
  EXPECT_EQ(m.erase_summary.stddev, r.erase_summary.stddev);
  EXPECT_EQ(m.counters.host_writes, r.counters.host_writes);
}

TEST(ShardedReplay, MergePicksEarliestFirstFailureAcrossShards) {
  const std::vector<SimResult> shards = {
      synthetic_result({1, 1}, std::nullopt, 1.0, 10),
      synthetic_result({1, 1}, 5.0, 2.0, 10),
      synthetic_result({1, 1}, 3.0, 1.5, 10),
  };
  const SimResult m = merge_shard_results(shards);
  ASSERT_TRUE(m.first_failure_years.has_value());
  EXPECT_EQ(*m.first_failure_years, 3.0);
  EXPECT_EQ(m.elapsed_years, 2.0);  // longest shard
  EXPECT_EQ(m.records_processed, 30u);
  // No shard failed: the merge must not invent a failure.
  const SimResult none = merge_shard_results(
      {synthetic_result({1}, std::nullopt, 1.0, 1), synthetic_result({1}, std::nullopt, 1.0, 1)});
  EXPECT_FALSE(none.first_failure_years.has_value());
}

TEST(ShardedReplay, MergeSumsWearAndRecomputesSummary) {
  const SimResult m = merge_shard_results(
      {synthetic_result({1, 2, 3}, std::nullopt, 1.0, 5),
       synthetic_result({4, 5, 6}, std::nullopt, 1.0, 5)});
  EXPECT_EQ(m.erase_counts, (std::vector<std::uint32_t>{5, 7, 9}));
  const stats::Summary expected = stats::summarize(m.erase_counts);
  EXPECT_EQ(m.erase_summary.mean, expected.mean);
  EXPECT_EQ(m.erase_summary.stddev, expected.stddev);
  EXPECT_EQ(m.erase_summary.min, expected.min);
  EXPECT_EQ(m.erase_summary.max, expected.max);
}

TEST(ShardedReplay, MergeSumsMapIoCounters) {
  // DFTL shards do translation-page I/O; the merged point must carry every
  // shard's map reads and writes, not shard 0's alone.
  SimResult a = synthetic_result({1, 2}, std::nullopt, 1.0, 10);
  SimResult b = synthetic_result({3, 4}, std::nullopt, 1.0, 10);
  a.counters.map_reads = 7;
  a.counters.map_writes = 3;
  b.counters.map_reads = 11;
  b.counters.map_writes = 5;
  const SimResult m = merge_shard_results({a, b});
  EXPECT_EQ(m.counters.map_reads, 18u);
  EXPECT_EQ(m.counters.map_writes, 8u);
  EXPECT_EQ(m.counters.host_writes, 20u);
}

TEST(ShardedReplay, MergeRejectsMismatchedGeometry) {
  EXPECT_THROW((void)merge_shard_results({synthetic_result({1, 2}, std::nullopt, 1.0, 1),
                                          synthetic_result({1, 2, 3}, std::nullopt, 1.0, 1)}),
               PreconditionError);
}

TEST(ShardedReplay, MergeRejectsEmptyInput) {
  EXPECT_THROW((void)merge_shard_results({}), PreconditionError);
}

}  // namespace
}  // namespace swl::sim
