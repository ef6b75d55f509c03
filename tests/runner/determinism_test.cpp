// Determinism regression: a sweep executed through the parallel runner must
// be bit-identical to the same sweep executed serially. Each sim point owns
// its clock, RNG and chip and only reads the shared base trace, so thread
// scheduling can never leak into results — this test pins that guarantee.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/fields.hpp"
#include "runner/sweep_runner.hpp"
#include "sim/experiments.hpp"
#include "sim/sharded_replay.hpp"
#include "trace/segment_replay.hpp"

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

struct Point {
  LayerKind layer;
  std::optional<wear::LevelerConfig> leveler;
};

std::vector<Point> sweep_points() {
  std::vector<Point> points;
  for (const LayerKind layer : {LayerKind::ftl, LayerKind::nftl}) {
    points.push_back({layer, std::nullopt});
    for (const std::uint32_t k : {0u, 2u}) {
      wear::LevelerConfig lc;
      lc.k = k;
      lc.threshold = 4;
      points.push_back({layer, lc});
    }
  }
  return points;
}

std::vector<SimResult> run_sweep(unsigned jobs) {
  const ExperimentScale scale = tiny_scale();
  const trace::Trace ftl_base = make_base_trace(scale, LayerKind::ftl);
  const trace::Trace nftl_base = make_base_trace(scale, LayerKind::nftl);
  const std::vector<Point> points = sweep_points();
  runner::SweepRunner pool(jobs);
  return pool.map(points.size(), [&](std::size_t i) {
    const trace::Trace& base = points[i].layer == LayerKind::ftl ? ftl_base : nftl_base;
    return run_infinite_on(scale, points[i].layer, points[i].leveler, base, scale.max_years,
                           /*stop_on_failure=*/true);
  });
}

/// Everything simulated must match exactly (same op sequence, same clock
/// math, integer-exact wear summaries); only the wall-clock `perf` may differ.
void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.first_failure_years, b.first_failure_years);
  EXPECT_EQ(a.elapsed_years, b.elapsed_years);
  EXPECT_EQ(a.records_processed, b.records_processed);
  EXPECT_EQ(a.erase_counts, b.erase_counts);
  EXPECT_TRUE(a.erase_summary == b.erase_summary);
  EXPECT_EQ(first_difference(a.counters, b.counters), "");
  EXPECT_EQ(first_difference(a.chip_counters, b.chip_counters), "");
  EXPECT_EQ(first_difference(a.leveler_stats, b.leveler_stats), "");
}

// The batched record pipeline (carry buffer, hoisted stop checks, pre-split
// LBA wrap) must be bit-identical to the per-record reference loop —
// including when a run stops mid-batch on a record cap or a wear-out.
TEST(SweepDeterminism, BatchedRunMatchesSerialReference) {
  const ExperimentScale scale = tiny_scale();
  wear::LevelerConfig lc;
  lc.threshold = 4;
  for (const LayerKind layer : {LayerKind::ftl, LayerKind::nftl, LayerKind::dftl}) {
    SCOPED_TRACE(to_string(layer));
    const trace::Trace base = make_base_trace(scale, layer);
    const SimConfig config = make_sim_config(scale, layer, lc);
    struct Stop {
      const char* label;
      bool on_failure;
      std::uint64_t max_records;
    };
    // 12'345 is deliberately not a multiple of the batch size: the cap lands
    // mid-batch and exercises the carry buffer.
    for (const Stop stop : {Stop{"record cap", false, 12'345},
                            Stop{"first wear-out", true, UINT64_MAX}}) {
      SCOPED_TRACE(stop.label);
      auto batched = make_simulator(config);
      auto serial = make_simulator(config);
      trace::SegmentReplaySource batched_src(base, 600.0, scale.seed ^ 0x1234);
      trace::SegmentReplaySource serial_src(base, 600.0, scale.seed ^ 0x1234);
      const std::uint64_t nb =
          batched->run(batched_src, scale.max_years, stop.on_failure, stop.max_records);
      const std::uint64_t ns =
          serial->run_serial(serial_src, scale.max_years, stop.on_failure, stop.max_records);
      EXPECT_EQ(nb, ns);
      const SimResult a = batched->result();
      const SimResult b = serial->result();
      expect_identical(a, b);
      // The DFTL leg must really page its map through flash.
      if (layer == LayerKind::dftl) EXPECT_GT(a.counters.map_reads, 0u);
    }
  }
}

TEST(SweepDeterminism, ParallelSweepMatchesSerialBitForBit) {
  const std::vector<SimResult> serial = run_sweep(1);
  const std::vector<SimResult> parallel = run_sweep(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("sweep point " + std::to_string(i));
    expect_identical(serial[i], parallel[i]);
  }
}

// Sharded single-point replay: the merged result must depend only on the
// shard count — never on how many workers executed the shards — and the
// batched per-shard pipeline must merge bit-identically to the run_serial
// reference loop replaying the same shard streams.
TEST(SweepDeterminism, ShardedReplayMatchesSerialReference) {
  const ExperimentScale scale = tiny_scale();
  wear::LevelerConfig lc;
  lc.threshold = 4;
  // Odd record total over 4 shards: the remainder exercises the uneven
  // budget split (three shards of 2'500 records, one of 2'501).
  constexpr std::uint64_t kRecords = 10'001;
  constexpr std::uint32_t kShards = 4;
  for (const LayerKind layer : {LayerKind::ftl, LayerKind::nftl}) {
    SCOPED_TRACE(layer == LayerKind::ftl ? "ftl" : "nftl");
    const trace::Trace base = make_base_trace(scale, layer);
    const SimConfig config = make_sim_config(scale, layer, lc);

    runner::SweepRunner serial_runner(1);
    const SimResult reference =
        run_sharded_on(serial_runner, config, scale, base, scale.max_years, kRecords, kShards,
                       /*use_serial=*/true);
    EXPECT_EQ(reference.records_processed, kRecords);

    for (const unsigned jobs : {1u, 2u, 8u}) {
      SCOPED_TRACE("jobs " + std::to_string(jobs));
      runner::SweepRunner pool(jobs);
      const SimResult merged =
          run_sharded_on(pool, config, scale, base, scale.max_years, kRecords, kShards);
      expect_identical(merged, reference);
    }
  }
}

// Shard budgets partition the record total exactly, whatever the remainder.
TEST(SweepDeterminism, ShardBudgetsPartitionTotal) {
  for (const std::uint64_t total : {0ULL, 1ULL, 7ULL, 8ULL, 10'001ULL}) {
    for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
      std::uint64_t sum = 0;
      for (std::uint32_t j = 0; j < shards; ++j) {
        sum += shard_record_budget(total, shards, j);
      }
      EXPECT_EQ(sum, total) << total << " records over " << shards << " shards";
    }
  }
}

TEST(SweepDeterminism, RepeatedParallelRunsAgree) {
  const std::vector<SimResult> first = run_sweep(3);
  const std::vector<SimResult> second = run_sweep(3);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    SCOPED_TRACE("sweep point " + std::to_string(i));
    expect_identical(first[i], second[i]);
  }
}

}  // namespace
}  // namespace swl::sim
