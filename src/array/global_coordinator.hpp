// Cross-chip wear coordinator for the multi-chip array.
//
// The per-chip SW Levelers even out wear *within* each chip but cannot see
// that one chip's stripe is hotter than another's — over time the hottest
// stripe wears its whole chip out first. Following the distributed
// wear-leveling design (arXiv:1302.5999), the coordinator watches the
// array's cross-chip unevenness — max over average of the per-chip mean
// erase counts, the array-level analog of the paper's ecnt/fcnt ratio — and,
// when the ratio crosses its threshold, exchanges the stripes of the most-
// and least-worn chips so the hot data starts wearing the cold chip.
//
// The decision rule is a pure function (`decide`) of the per-chip means and
// a small amount of mirrored state (round index, cooldown), exposed exactly
// so the reference oracle in src/model can recompute every decision from
// independently tallied erase counts.
#ifndef SWL_ARRAY_GLOBAL_COORDINATOR_HPP
#define SWL_ARRAY_GLOBAL_COORDINATOR_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "array/chip_array.hpp"
#include "core/fields.hpp"

namespace swl::array {

struct CoordinatorConfig {
  /// Cross-chip unevenness trigger: migrate when max/avg of the per-chip
  /// mean erase counts reaches this ratio. Must be > 1 (a ratio of 1 is
  /// perfect evenness; triggering there would migrate forever).
  double threshold = 1.5;
  /// Warm-up guard: no decisions while the array-wide average mean erase
  /// count is below this — early ratios over near-zero averages are noise.
  double min_mean_erases = 1.0;
  /// Rounds to sit out after a migration, letting the exchanged stripes'
  /// wear actually diverge before re-evaluating. 0 = re-evaluate each round.
  std::uint32_t cooldown_rounds = 0;
};

/// One evaluation's outcome (also the log entry the oracle replays).
struct Decision {
  std::uint64_t round = 0;
  /// max/avg of the per-chip mean erase counts at evaluation time (0 while
  /// the average is 0).
  double ratio = 0.0;
  bool migrate = false;
  std::uint32_t from_chip = 0;  ///< most-worn chip (valid when migrate)
  std::uint32_t to_chip = 0;    ///< least-worn chip (valid when migrate)

  friend bool operator==(const Decision&, const Decision&) = default;
};

struct CoordinatorStats {
  std::uint64_t evaluations = 0;
  std::uint64_t migrations = 0;

  static constexpr auto fields() {
    return std::tuple{Field{"evaluations", &CoordinatorStats::evaluations},
                      Field{"migrations", &CoordinatorStats::migrations}};
  }
  friend bool operator==(const CoordinatorStats&, const CoordinatorStats&) = default;
};
static_assert(sizeof(CoordinatorStats) == 8 * field_count<CoordinatorStats>);

class GlobalLevelCoordinator {
 public:
  GlobalLevelCoordinator(std::uint32_t chip_count, CoordinatorConfig config);

  /// The pure decision rule: given the per-chip mean erase counts, which
  /// migration (if any) does the policy order? Ties break toward the lowest
  /// chip index on both ends, so the choice is deterministic. Static so the
  /// src/model oracle can recompute decisions without a coordinator.
  [[nodiscard]] static Decision decide(std::span<const double> chip_mean_erases,
                                       const CoordinatorConfig& config, std::uint64_t round,
                                       std::uint32_t cooldown_remaining);

  /// Evaluates the array after a replay round and performs the ordered
  /// migration (ChipArray::exchange_stripes). Appends to the decision log
  /// either way and returns the decision.
  Decision evaluate_round(ChipArray& array);

  [[nodiscard]] const std::vector<Decision>& log() const noexcept { return log_; }
  [[nodiscard]] const CoordinatorStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const CoordinatorConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint32_t cooldown_remaining() const noexcept { return cooldown_left_; }

 private:
  CoordinatorConfig config_;
  std::uint32_t chip_count_ = 0;
  std::uint64_t round_ = 0;
  std::uint32_t cooldown_left_ = 0;
  std::vector<Decision> log_;
  CoordinatorStats stats_;
};

}  // namespace swl::array

#endif  // SWL_ARRAY_GLOBAL_COORDINATOR_HPP
