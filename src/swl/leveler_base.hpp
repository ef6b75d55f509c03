// Abstract wear-leveling policy interface.
//
// The paper's SW Leveler (SwLeveler) is one implementation; the repository
// also ships comparison policies (see oracle_leveler.hpp) so the central
// claim — a 1-bit-per-block-set BET performs close to policies that keep
// full per-block erase counters in RAM — can be measured. A policy receives
// every block-erase event and, when its own trigger condition holds, drives
// the translation layer's Cleaner to recycle the blocks it selects.
#ifndef SWL_SWL_LEVELER_BASE_HPP
#define SWL_SWL_LEVELER_BASE_HPP

#include <cstdint>
#include <string_view>

#include "core/fields.hpp"
#include "core/types.hpp"
#include "swl/cleaner.hpp"

namespace swl::wear {

/// Statistics every leveling policy reports.
struct LevelerStats {
  /// Block-set collections requested from the Cleaner.
  std::uint64_t collections_requested = 0;
  /// Completed resetting intervals (BET resets); 0 for interval-less policies.
  std::uint64_t bet_resets = 0;
  /// Times the policy was entered and did at least one iteration.
  std::uint64_t activations = 0;
  /// Defensive aborts: a full pass made no progress (Cleaner skipped blocks).
  std::uint64_t stalls = 0;

  static constexpr auto fields() {
    return std::tuple{Field{"collections_requested", &LevelerStats::collections_requested},
                      Field{"bet_resets", &LevelerStats::bet_resets},
                      Field{"activations", &LevelerStats::activations},
                      Field{"stalls", &LevelerStats::stalls}};
  }
  friend bool operator==(const LevelerStats&, const LevelerStats&) = default;
};
static_assert(sizeof(LevelerStats) == 8 * field_count<LevelerStats>);

class Leveler {
 public:
  virtual ~Leveler() = default;

  /// Called for every block erase the Cleaner performs, with the block's new
  /// erase count (SWL-BETUpdate ignores the count; counter-based policies
  /// use it).
  virtual void on_block_erased(BlockIndex block, std::uint32_t new_erase_count) = 0;

  /// True when run() would do work.
  [[nodiscard]] virtual bool needs_leveling() const = 0;

  /// Drive the Cleaner until the policy's trigger condition clears.
  virtual void run(Cleaner& cleaner) = 0;

  /// Blocks this policy covers (must match the chip it is attached to).
  [[nodiscard]] virtual BlockIndex block_count() const = 0;

  [[nodiscard]] virtual const LevelerStats& stats() const = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;
};

}  // namespace swl::wear

#endif  // SWL_SWL_LEVELER_BASE_HPP
