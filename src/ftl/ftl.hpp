// FTL — the page-mapping Flash Translation Layer (Section 2.2, Figure 2(a)).
//
// A fine-grained translation table maps every LBA to a physical (block, page)
// address. Host writes fill an active block page by page; garbage collection
// picks victims with the greedy cost/benefit policy through a cyclic scan,
// copies live pages to a separate GC frontier and recycles the victim.
// Free-block allocation takes the lowest-erase-count block (dynamic wear
// leveling). The SW Leveler drives the same cleaning machinery through
// do_collect_blocks().
#ifndef SWL_FTL_FTL_HPP
#define SWL_FTL_FTL_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "hotness/hot_data.hpp"
#include "tl/free_block_pool.hpp"
#include "tl/gc_policy.hpp"
#include "tl/translation_layer.hpp"
#include "tl/victim_index.hpp"

namespace swl::ftl {

struct FtlConfig {
  /// Logical pages exported to the host. 0 = auto: 98% of physical pages,
  /// leaving over-provisioning for out-of-place updates.
  Lba lba_count = 0;
  /// Garbage collection runs while free blocks < this fraction of all blocks
  /// (the paper triggers the Cleaner below 0.2% free).
  double gc_trigger_fraction = 0.002;
  /// Absolute floor of free blocks kept regardless of the fraction; must be
  /// at least 2 (one host frontier + one GC destination).
  BlockIndex min_free_blocks = 2;
  /// Weight of the per-valid-page cost against the per-invalid-page benefit
  /// in the greedy victim score.
  double gc_cost_weight = 1.0;
  /// Free-block allocation policy. fifo reproduces the paper's baseline
  /// (dynamic wear leveling in the Cleaner only); coldest_first is the
  /// stronger allocation-side dynamic wear leveling ablation.
  tl::AllocPolicy alloc_policy = tl::AllocPolicy::fifo;
  /// GC victim selection: the paper's greedy cyclic scan, or LFS-style
  /// cost-benefit with age.
  tl::VictimPolicy victim_policy = tl::VictimPolicy::greedy_cyclic;
  /// Optional hot/cold data separation: host writes classified hot by the
  /// multi-hash identifier (reference [14] of the paper) go to a dedicated
  /// write frontier, so blocks tend to hold data of one lifetime class.
  /// Strengthens dynamic wear leveling; needs one extra block of reserve.
  bool hot_cold_separation = false;
  hotness::HotDataConfig hotness;
  /// Diagnostic: select GC victims with the reference scans (the cyclic
  /// chip-probing scan plus the most-invalid fallback loop) instead of the
  /// incrementally maintained tl::VictimIndex. Must select the same victims
  /// in the same order (pinned by the victim-scan property test and the
  /// differential fuzzer); never needed in production.
  bool reference_victim_scan = false;
};

class Ftl final : public tl::TranslationLayer {
 public:
  /// Fresh device: every block is expected to be erased.
  Ftl(nand::NandChip& chip, FtlConfig config);

  /// Mounts an existing flash image by scanning every page's spare area:
  /// the newest version of each LBA (by sequence number) wins, stale and
  /// garbage (ECC-failed) pages are invalidated, the free pool and write
  /// frontiers are rebuilt and the sequence numbering resumes. Simulate a
  /// crash first with NandChip::forget_logical_state().
  [[nodiscard]] static std::unique_ptr<Ftl> mount(nand::NandChip& chip, FtlConfig config);

  Status write(Lba lba, std::uint64_t payload_token) override;
  Status write(Lba lba, std::uint64_t payload_token,
               std::span<const std::uint8_t> data) override;
  Status read(Lba lba, std::uint64_t* payload_token) override;
  Status read_bytes(Lba lba, std::span<std::uint8_t> out) override;

  [[nodiscard]] Lba lba_count() const noexcept override { return config_.lba_count; }
  [[nodiscard]] std::string_view name() const noexcept override { return "FTL"; }

  // -- introspection (tests, experiments) -----------------------------------

  /// Current physical address of an LBA (kInvalidPpa when unmapped).
  [[nodiscard]] Ppa translate(Lba lba) const;

  [[nodiscard]] std::size_t free_block_count() const noexcept { return pool_.size(); }
  [[nodiscard]] const FtlConfig& config() const noexcept { return config_; }

  /// The hot-data identifier when hot/cold separation is enabled.
  [[nodiscard]] const hotness::HotDataIdentifier* hot_data() const noexcept {
    return hot_id_.has_value() ? &*hot_id_ : nullptr;
  }

  /// Validates internal consistency (mapped LBAs == valid pages, map points
  /// at valid pages, pool blocks are empty); throws InvariantError on
  /// violation. Test helper — O(pages).
  void check_invariants() const override;

 protected:
  void do_collect_blocks(BlockIndex first, BlockIndex count) override;

 private:
  struct MountTag {};
  Ftl(nand::NandChip& chip, FtlConfig config, MountTag);

  /// Shared constructor body (config normalization and validation).
  void init_config();

  /// Spare-area scan that rebuilds map_, the pool and the frontiers.
  void rebuild_from_flash();

  /// Shared write path; `data` may be empty (token-only write).
  Status write_internal(Lba lba, std::uint64_t payload_token,
                        std::span<const std::uint8_t> data);

  /// Next free page of the host (or GC) write frontier, opening a new block
  /// from the pool when the current one is full.
  Ppa take_frontier_page(BlockIndex& frontier, PageIndex& next_page);

  /// Runs garbage collection until the pool is back above the trigger level
  /// (or nothing more can be reclaimed).
  void maybe_gc();

  /// One GC round: select a victim and clean it. False when no victim exists
  /// or the victim could not be cleaned (no destination space).
  bool gc_once();

  /// Marks `b` for victim-index re-scoring after an operation changed its
  /// page counts (the index flushes lazily at the next GC selection).
  void sync_victim(BlockIndex b) {
    if (use_victim_index_) vindex_.mark_dirty(b);
  }

  /// Copies the victim's live pages to the GC frontier, erases it and
  /// returns it to the pool. False when the victim's live pages exceed the
  /// available destination space (nothing is modified then).
  bool clean_block(BlockIndex victim);

  [[nodiscard]] BlockIndex gc_trigger_level() const noexcept;

  FtlConfig config_;
  std::vector<Ppa> map_;  // the address translation table (in RAM), Fig. 2(a)
  tl::FreeBlockPool pool_;
  tl::CyclicVictimScanner scanner_;
  // Cached greedy victim scores (dirty mask + positive/candidate masks),
  // flushed lazily at GC selection; reference_victim_scan disables it.
  tl::VictimIndex vindex_;
  bool use_victim_index_ = true;
  BlockIndex host_frontier_ = kInvalidBlock;
  PageIndex host_next_page_ = 0;
  BlockIndex gc_frontier_ = kInvalidBlock;
  PageIndex gc_next_page_ = 0;
  // Hot-write frontier, used only with hot/cold separation.
  BlockIndex hot_frontier_ = kInvalidBlock;
  PageIndex hot_next_page_ = 0;
  std::optional<hotness::HotDataIdentifier> hot_id_;
  std::uint64_t write_sequence_ = 0;
  // Newest sequence number programmed into each block (age for the
  // cost-benefit victim policy).
  std::vector<std::uint64_t> last_write_seq_;
  // gc_trigger_level(), precomputed (pure in config + geometry).
  BlockIndex gc_trigger_cached_ = 2;
  // chip().config().store_payload_bytes: GC copies must carry page bytes.
  bool bytes_mode_ = false;
};

}  // namespace swl::ftl

#endif  // SWL_FTL_FTL_HPP
