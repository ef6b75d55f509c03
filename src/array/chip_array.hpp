// Multi-chip flash array: channels × dies, one full device stack per die.
//
// Generalizes the single-chip stack (ROADMAP item 1) to an array geometry in
// the style of multi-channel SSD simulators: `channels * dies` independent
// chips, each carrying its own SimClock + NandChip + TranslationLayer (+ its
// own SW Leveler — one BET per chip, per the distributed wear-leveling
// design of arXiv:1302.5999). The host LBA space is striped across chips
// RAID-0 style: global LBA g lives at stripe slot g % chip_count, local page
// g / chip_count. A slot→chip permutation (`chip_map_`) makes stripes
// relocatable: the GlobalLevelCoordinator swaps two stripes when cross-chip
// wear diverges, and subsequent routing follows the moved data.
//
// Replay is round-based and deterministic. Each round, the coordinating
// thread partitions a record batch into per-chip queues (fixed routing, in
// record order), then dispatches one task per *channel* on a
// runner::SweepRunner — dies on a channel replay sequentially, modelling the
// shared channel bus, while channels proceed in parallel. Because routing
// and the post-round merge are serial and each chip is a self-contained
// thread-confined stack, the array result is a pure function of the record
// stream: bit-identical at any --jobs, with the per-record run_serial()
// canary threaded through (`use_serial`), exactly like sim/sharded_replay.
//
// Reads of never-written stripe pages are answered at routing time from a
// per-stripe written bitmap. That keeps cross-chip migration honest without
// a trim/unmap API in the translation layer: after a stripe swap the
// destination chip may still hold mappings from its previous stripe, but no
// read for the new stripe can reach them — the bitmap travels with the
// stripe, and only records for written pages are enqueued.
#ifndef SWL_ARRAY_CHIP_ARRAY_HPP
#define SWL_ARRAY_CHIP_ARRAY_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/bitvec.hpp"
#include "core/fields.hpp"
#include "core/types.hpp"
#include "runner/sweep_runner.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace swl::array {

/// Array construction parameters: the grid shape plus one per-chip SimConfig
/// every die is built from (identical chips, like a real SSD's flash
/// package). Requires channels >= 1, dies >= 1 and failure injection
/// disabled — migration assumes copies cannot fail mid-stripe.
struct ArrayConfig {
  std::uint32_t channels = 1;
  std::uint32_t dies = 1;
  sim::SimConfig chip;

  [[nodiscard]] std::uint32_t chip_count() const noexcept { return channels * dies; }
};

/// Host-level accounting of the array front-end (per-chip work lives in each
/// chip's own SimResult counters).
struct ArrayCounters {
  std::uint64_t records_routed = 0;  ///< records partitioned into chip queues
  std::uint64_t writes_routed = 0;
  std::uint64_t reads_routed = 0;
  /// Reads of never-written stripe pages, answered at routing time (the
  /// array-level equivalent of Status::lba_not_mapped).
  std::uint64_t reads_unmapped = 0;
  /// Records a chip failed to replay (device full / horizon inside a round).
  std::uint64_t records_dropped = 0;
  std::uint64_t migrations = 0;        ///< stripe exchanges performed
  std::uint64_t migration_copies = 0;  ///< pages rewritten by those exchanges

  static constexpr auto fields() {
    return std::tuple{Field{"records_routed", &ArrayCounters::records_routed},
                      Field{"writes_routed", &ArrayCounters::writes_routed},
                      Field{"reads_routed", &ArrayCounters::reads_routed},
                      Field{"reads_unmapped", &ArrayCounters::reads_unmapped},
                      Field{"records_dropped", &ArrayCounters::records_dropped},
                      Field{"migrations", &ArrayCounters::migrations},
                      Field{"migration_copies", &ArrayCounters::migration_copies}};
  }
  friend bool operator==(const ArrayCounters&, const ArrayCounters&) = default;
};
static_assert(sizeof(ArrayCounters) == 8 * field_count<ArrayCounters>);

class ChipArray {
 public:
  explicit ChipArray(const ArrayConfig& config);

  ChipArray(const ChipArray&) = delete;
  ChipArray& operator=(const ChipArray&) = delete;

  [[nodiscard]] std::uint32_t channels() const noexcept { return channels_; }
  [[nodiscard]] std::uint32_t dies() const noexcept { return dies_; }
  [[nodiscard]] std::uint32_t chip_count() const noexcept { return chip_count_; }

  /// Logical pages the whole array exports (chip_count × per-chip pages).
  [[nodiscard]] Lba lba_count() const noexcept { return per_chip_lbas_ * chip_count_; }
  [[nodiscard]] Lba per_chip_lba_count() const noexcept { return per_chip_lbas_; }

  // -- striped placement -----------------------------------------------------

  [[nodiscard]] std::uint32_t slot_of(Lba global) const noexcept {
    return static_cast<std::uint32_t>(global % chip_count_);
  }
  [[nodiscard]] Lba local_lba(Lba global) const noexcept { return global / chip_count_; }
  /// Chip currently serving `global` (follows migrations).
  [[nodiscard]] std::uint32_t chip_of(Lba global) const { return chip_map_[slot_of(global)]; }
  [[nodiscard]] std::uint32_t chip_at_slot(std::uint32_t slot) const;
  [[nodiscard]] std::uint32_t slot_of_chip(std::uint32_t chip) const;

  // -- round-based replay ----------------------------------------------------

  /// Replays one batch: routes every record to its chip (wrapping LBAs
  /// beyond lba_count(), like the simulator), then replays all per-chip
  /// queues — one parallel task per channel, dies in sequence within it.
  /// `use_serial` drives each chip's Simulator::run_serial instead of the
  /// batched run(): the bit-identical canary. Returns only after every chip
  /// finished its queue (the runner map is the barrier), so callers may
  /// inspect or migrate immediately after.
  void replay_round(std::span<const trace::TraceRecord> records, runner::SweepRunner& runner,
                    double max_years, bool use_serial = false);

  /// Exchanges the logical stripes currently living on `chip_a` and
  /// `chip_b`: every written page of either stripe is copied to the other
  /// chip through its normal host write path (the copies wear the
  /// destination and can trigger its per-chip SW Leveler — migration is not
  /// free, and the cost lands in migration_copies), then the slot→chip
  /// placement is swapped. Must be called between rounds, from the thread
  /// that owns the array.
  void exchange_stripes(std::uint32_t chip_a, std::uint32_t chip_b);

  // -- inspection ------------------------------------------------------------

  [[nodiscard]] sim::Simulator& chip_sim(std::uint32_t chip);
  [[nodiscard]] const sim::Simulator& chip_sim(std::uint32_t chip) const;

  /// Mean erase count across the chip's blocks — the per-chip wear figure
  /// the GlobalLevelCoordinator compares.
  [[nodiscard]] double mean_erase_count(std::uint32_t chip) const;
  [[nodiscard]] std::vector<double> per_chip_mean_erases() const;

  /// Full per-chip outcome (the same SimResult a standalone run produces).
  [[nodiscard]] sim::SimResult chip_result(std::uint32_t chip) const;

  /// Earliest first-failure across chips, in simulated years (nullopt while
  /// no block anywhere wore out).
  [[nodiscard]] std::optional<double> first_failure_years() const;

  /// Longest per-chip simulated time (chips advance independently).
  [[nodiscard]] double elapsed_years() const;

  [[nodiscard]] const ArrayCounters& counters() const noexcept { return counters_; }

 private:
  struct ChipStack {
    std::unique_ptr<sim::Simulator> sim;
    trace::Trace queue;  // this round's routed records (local LBAs)
  };

  [[nodiscard]] std::uint32_t chip_index(std::uint32_t channel, std::uint32_t die) const noexcept {
    return channel * dies_ + die;
  }

  std::uint32_t channels_ = 0;
  std::uint32_t dies_ = 0;
  std::uint32_t chip_count_ = 0;
  Lba per_chip_lbas_ = 0;
  std::vector<ChipStack> chips_;
  std::vector<std::uint32_t> chip_map_;  // slot  -> chip currently serving it
  std::vector<std::uint32_t> slot_map_;  // chip  -> slot it currently serves
  /// Per-*slot* written bitmap (bit = local LBA): moves with the stripe on
  /// migration, so "was this page ever written" stays answerable wherever
  /// the stripe lives.
  std::vector<BitVec> written_;
  ArrayCounters counters_;
};

}  // namespace swl::array

#endif  // SWL_ARRAY_CHIP_ARRAY_HPP
