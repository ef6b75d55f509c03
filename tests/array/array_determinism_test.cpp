// Array determinism pins: run_array_on must be a pure function of the
// experiment inputs — the SweepRunner's worker count never leaks into the
// outcome, and the batched per-chip pipeline merges bit-identically to the
// run_serial per-record canary. The array analog of runner/determinism_test.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "runner/sweep_runner.hpp"
#include "sim/array_experiment.hpp"

namespace swl::sim {
namespace {

ArrayScale tiny_array_scale() {
  ArrayScale scale;
  scale.chip.block_count = 48;
  scale.chip.endurance = 40;
  scale.chip.base_trace_days = 0.05;
  scale.chip.seed = 7;
  scale.channels = 2;
  scale.dies = 2;
  scale.coordinator.threshold = 1.05;  // low: make migrations actually happen
  scale.coordinator.min_mean_erases = 0.5;
  scale.coordinator.cooldown_rounds = 1;
  scale.records_per_round = 4096;
  return scale;
}

wear::LevelerConfig tiny_leveler() {
  wear::LevelerConfig lc;
  lc.threshold = 4;
  return lc;
}

// Sized so GC erases and cross-chip migrations actually happen at this tiny
// geometry (at 4 × 48 blocks the free pools absorb the first ~60k records).
constexpr std::uint64_t kRecords = 200'000;

ArrayOutcome run_once(unsigned jobs, bool use_serial) {
  const ArrayScale scale = tiny_array_scale();
  const trace::Trace base = make_array_base_trace(scale, LayerKind::ftl);
  runner::SweepRunner runner(jobs);
  return run_array_on(runner, scale, LayerKind::ftl, tiny_leveler(), base, scale.chip.max_years,
                      kRecords, /*stop_on_failure=*/false, use_serial);
}

void expect_identical_result(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.first_failure_years, b.first_failure_years);
  EXPECT_EQ(a.elapsed_years, b.elapsed_years);
  EXPECT_EQ(a.records_processed, b.records_processed);
  EXPECT_EQ(a.erase_counts, b.erase_counts);
  EXPECT_EQ(a.erase_summary.mean, b.erase_summary.mean);
  EXPECT_EQ(a.erase_summary.stddev, b.erase_summary.stddev);
  EXPECT_EQ(a.erase_summary.min, b.erase_summary.min);
  EXPECT_EQ(a.erase_summary.max, b.erase_summary.max);
  EXPECT_EQ(a.counters.host_writes, b.counters.host_writes);
  EXPECT_EQ(a.counters.host_reads, b.counters.host_reads);
  EXPECT_EQ(a.counters.gc_erases, b.counters.gc_erases);
  EXPECT_EQ(a.counters.swl_erases, b.counters.swl_erases);
  EXPECT_EQ(a.counters.gc_live_copies, b.counters.gc_live_copies);
  EXPECT_EQ(a.counters.swl_live_copies, b.counters.swl_live_copies);
  EXPECT_EQ(a.chip_counters.reads, b.chip_counters.reads);
  EXPECT_EQ(a.chip_counters.programs, b.chip_counters.programs);
  EXPECT_EQ(a.chip_counters.erases, b.chip_counters.erases);
}

void expect_identical_outcome(const ArrayOutcome& a, const ArrayOutcome& b) {
  ASSERT_EQ(a.per_chip.size(), b.per_chip.size());
  for (std::size_t c = 0; c < a.per_chip.size(); ++c) {
    SCOPED_TRACE("chip " + std::to_string(c));
    expect_identical_result(a.per_chip[c], b.per_chip[c]);
  }
  expect_identical_result(a.combined, b.combined);
  EXPECT_EQ(a.array.records_routed, b.array.records_routed);
  EXPECT_EQ(a.array.writes_routed, b.array.writes_routed);
  EXPECT_EQ(a.array.reads_routed, b.array.reads_routed);
  EXPECT_EQ(a.array.reads_unmapped, b.array.reads_unmapped);
  EXPECT_EQ(a.array.records_dropped, b.array.records_dropped);
  EXPECT_EQ(a.array.migrations, b.array.migrations);
  EXPECT_EQ(a.array.migration_copies, b.array.migration_copies);
  EXPECT_EQ(a.coordinator.evaluations, b.coordinator.evaluations);
  EXPECT_EQ(a.coordinator.migrations, b.coordinator.migrations);
  EXPECT_EQ(a.decisions, b.decisions);  // Decision has defaulted operator==
  EXPECT_EQ(a.cross_chip.mean, b.cross_chip.mean);
  EXPECT_EQ(a.cross_chip.stddev, b.cross_chip.stddev);
  EXPECT_EQ(a.cross_chip.min, b.cross_chip.min);
  EXPECT_EQ(a.cross_chip.max, b.cross_chip.max);
  EXPECT_EQ(a.cross_chip.max_over_avg, b.cross_chip.max_over_avg);
  EXPECT_EQ(a.first_failure_years, b.first_failure_years);
  EXPECT_EQ(a.elapsed_years, b.elapsed_years);
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(ArrayDeterminism, WorkerCountNeverChangesTheOutcome) {
  const ArrayOutcome reference = run_once(1, /*use_serial=*/false);
  // Sanity: the run really exercised the array-only machinery.
  EXPECT_EQ(reference.array.records_routed, kRecords);
  EXPECT_GT(reference.coordinator.evaluations, 0u);
  EXPECT_GT(reference.combined.chip_counters.erases, 0u);
  for (const unsigned jobs : {2u, 8u}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    expect_identical_outcome(run_once(jobs, /*use_serial=*/false), reference);
  }
}

TEST(ArrayDeterminism, BatchedRoundsMatchSerialCanary) {
  const ArrayOutcome batched = run_once(4, /*use_serial=*/false);
  const ArrayOutcome serial = run_once(1, /*use_serial=*/true);
  expect_identical_outcome(batched, serial);
  // The canary really took the per-record path and the batched arm did not:
  // only Simulator::run counts records into the perf counters.
  EXPECT_EQ(serial.combined.perf.records, 0u);
  EXPECT_GT(batched.combined.perf.records, 0u);
}

TEST(ArrayDeterminism, CoordinatorMigratesUnderALowThreshold) {
  const ArrayOutcome out = run_once(2, /*use_serial=*/false);
  // The low-threshold scale is tuned to trigger cross-chip migrations; if
  // this stops holding the determinism tests above lose their bite.
  EXPECT_GT(out.array.migrations, 0u);
  EXPECT_GT(out.array.migration_copies, 0u);
  EXPECT_EQ(out.array.migrations, out.coordinator.migrations);
  std::uint64_t logged_migrations = 0;
  for (const array::Decision& d : out.decisions) {
    if (d.migrate) {
      ++logged_migrations;
      EXPECT_NE(d.from_chip, d.to_chip);
      EXPECT_LT(d.from_chip, 4u);
      EXPECT_LT(d.to_chip, 4u);
    }
  }
  EXPECT_EQ(logged_migrations, out.coordinator.migrations);
  EXPECT_EQ(out.decisions.size(), out.coordinator.evaluations);
}

TEST(ArrayDeterminism, CrossChipWearSummaryIsConsistent) {
  const ArrayOutcome out = run_once(2, /*use_serial=*/false);
  EXPECT_GT(out.cross_chip.mean, 0.0);
  EXPECT_GE(out.cross_chip.max, out.cross_chip.min);
  EXPECT_GE(out.cross_chip.max, out.cross_chip.mean);
  EXPECT_LE(out.cross_chip.min, out.cross_chip.mean);
  EXPECT_GE(out.cross_chip.stddev, 0.0);
  EXPECT_EQ(out.cross_chip.max_over_avg, out.cross_chip.max / out.cross_chip.mean);
  // The combined result folds every chip element-wise (identical per-chip
  // geometry) and its record count is what the chips actually replayed.
  EXPECT_EQ(out.combined.erase_counts.size(), out.per_chip.front().erase_counts.size());
  EXPECT_EQ(out.combined.records_processed,
            out.array.records_routed - out.array.reads_unmapped - out.array.records_dropped);
}

// Ablation arm: with the coordinator disabled the array never migrates, and
// the per-chip SW Levelers are the only leveling force — the baseline the
// array sweep compares against.
TEST(ArrayDeterminism, DisabledCoordinatorNeverMigrates) {
  ArrayScale scale = tiny_array_scale();
  scale.coordinator_enabled = false;
  const trace::Trace base = make_array_base_trace(scale, LayerKind::ftl);
  runner::SweepRunner runner(2);
  const ArrayOutcome out =
      run_array_on(runner, scale, LayerKind::ftl, tiny_leveler(), base, scale.chip.max_years,
                   kRecords, /*stop_on_failure=*/false);
  EXPECT_EQ(out.array.migrations, 0u);
  EXPECT_EQ(out.coordinator.evaluations, 0u);
  EXPECT_TRUE(out.decisions.empty());
}

}  // namespace
}  // namespace swl::sim
