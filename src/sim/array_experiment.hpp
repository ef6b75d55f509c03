// Array-scale experiment harness: the multi-chip analog of experiments.hpp.
//
// Wraps array::ChipArray + array::GlobalLevelCoordinator into the same
// experiment shapes the single-chip harness provides — fig5-style endurance
// points and fixed-budget wear-distribution runs — plus the metric that only
// exists at array scale: cross-chip erase variance (how evenly wear spreads
// *between* chips, the quantity the global coordinator exists to flatten).
//
// Determinism contract: run_array_on is a pure function of (scale, layer,
// leveler, base trace, budgets) — the SweepRunner's worker count never
// changes the result, and use_serial threads the per-record canary through
// every chip. Pinned by tests/array/array_determinism_test.
//
// Declared in swl::sim but compiled into the swl_array library: the harness
// needs the array types, and src/array already links swl_sim.
#ifndef SWL_SIM_ARRAY_EXPERIMENT_HPP
#define SWL_SIM_ARRAY_EXPERIMENT_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "array/chip_array.hpp"
#include "array/global_coordinator.hpp"
#include "runner/sweep_runner.hpp"
#include "sim/experiments.hpp"

namespace swl::sim {

/// Array experiment scale: a per-chip ExperimentScale plus the grid shape
/// and the coordinator tuning.
struct ArrayScale {
  ExperimentScale chip;
  std::uint32_t channels = 2;
  std::uint32_t dies = 2;
  array::CoordinatorConfig coordinator;
  /// false ablates the global coordinator (per-chip SWL only) — the
  /// baseline arm of the array sweep.
  bool coordinator_enabled = true;
  /// Records routed per replay round; the coordinator evaluates between
  /// rounds, so this is also the migration-decision cadence.
  std::uint64_t records_per_round = 1 << 14;

  [[nodiscard]] std::uint32_t chip_count() const noexcept { return channels * dies; }
};

/// Wear spread *between* chips: summary statistics over the per-chip mean
/// erase counts. max_over_avg is the coordinator's own trigger ratio, so a
/// working coordinator should report it below the configured threshold.
struct CrossChipWear {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double max_over_avg = 0.0;

  friend bool operator==(const CrossChipWear&, const CrossChipWear&) = default;
};

struct ArrayOutcome {
  /// Per-chip results, indexed by chip (the same SimResult a standalone
  /// single-chip run yields).
  std::vector<SimResult> per_chip;
  /// All chips folded with sharded_replay's merge_shard_results: counters
  /// sum, elapsed is the longest chip's, first failure the earliest.
  SimResult combined;
  array::ArrayCounters array;
  array::CoordinatorStats coordinator;
  std::vector<array::Decision> decisions;
  CrossChipWear cross_chip;
  std::optional<double> first_failure_years;
  double elapsed_years = 0.0;
  std::uint64_t rounds = 0;
};

/// Per-chip stack config for the scale (identical chips).
[[nodiscard]] array::ArrayConfig make_array_config(const ArrayScale& scale, LayerKind layer,
                                                   std::optional<wear::LevelerConfig> leveler);

/// Base trace over the *array's* logical space (chip_count × per-chip
/// pages), so the synthetic hot/cold structure spans chips and stripes get
/// genuinely different temperatures.
[[nodiscard]] trace::Trace make_array_base_trace(const ArrayScale& scale, LayerKind layer);

/// Summary statistics over per-chip mean erase counts.
[[nodiscard]] CrossChipWear summarize_cross_chip(const std::vector<double>& chip_mean_erases);

/// Runs the array experiment: segment-replay rounds routed across the array
/// on `runner`, the coordinator evaluating after every round, until
/// `total_records` are routed, the clock passes `years`, or (with
/// `stop_on_failure`) any chip records a first failure. `use_serial` drives
/// each chip's per-record reference loop — the canary arm.
[[nodiscard]] ArrayOutcome run_array_on(runner::SweepRunner& runner, const ArrayScale& scale,
                                        LayerKind layer,
                                        std::optional<wear::LevelerConfig> leveler,
                                        const trace::Trace& base, double years,
                                        std::uint64_t total_records, bool stop_on_failure,
                                        bool use_serial = false);

}  // namespace swl::sim

#endif  // SWL_SIM_ARRAY_EXPERIMENT_HPP
