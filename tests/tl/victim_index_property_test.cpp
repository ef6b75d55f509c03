// Property test of tl::VictimIndex under interleaved two-class traffic.
//
// DFTL splits blocks into data and translation classes that age at very
// different rates (one translation write per write-back batch vs one data
// write per host write), each with its own VictimIndex. Part one drives two
// per-class indices with randomized program/invalidate/erase traffic where
// the data class churns ~4x faster, and after every round checks the cached
// answers bit-identical against reference scans recomputed from the chip's
// live counts — the positive-score set, the full cyclic next_positive order
// from every start, and the most-invalid fallback with its least-worn /
// lowest-index tie-breaks; an NFTL-shaped index (128-page blocks, ties in
// the top bucket, blocks removed and re-admitted) gets the same checks on
// the bucketed fallback. Part two runs the same equivalence end-to-end:
// differential DFTL stacks (victim index vs reference_victim_scan) must stay
// bit-identical through GC storms in both classes.
#include "tl/victim_index.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/rng.hpp"
#include "dftl/dftl.hpp"
#include "nand/nand_chip.hpp"
#include "swl/leveler.hpp"
#include "tl/gc_policy.hpp"

namespace swl::tl {
namespace {

// ---------------------------------------------------------------------------
// Part one: raw per-class indices vs reference scans on a bare chip.

constexpr BlockIndex kBlocks = 24;
constexpr PageIndex kPages = 8;

nand::NandChip make_chip(BlockIndex blocks, PageIndex pages) {
  nand::NandConfig cc;
  cc.geometry = FlashGeometry{.block_count = blocks, .pages_per_block = pages,
                              .page_size_bytes = 512};
  cc.timing = default_timing(CellType::slc_small_block);
  return nand::NandChip(cc);
}

struct ClassState {
  // indexed[b]: b is a member the index currently holds (not remove()d
  // since its last mark_dirty) — what the reference scans range over.
  std::vector<bool> indexed;
  std::vector<BlockIndex> members;
  VictimIndex index;
  // Per-block aging cursors: pages [0, invalidated) are invalid, pages
  // [invalidated, programmed) valid, the rest free.
  std::vector<PageIndex> programmed;
  std::vector<PageIndex> invalidated;

  ClassState(const nand::NandChip& chip, std::vector<BlockIndex> blocks, double weight)
      : indexed(chip.geometry().block_count, false),
        members(std::move(blocks)),
        index(chip.geometry().block_count, chip.geometry().pages_per_block, weight),
        programmed(chip.geometry().block_count, 0),
        invalidated(chip.geometry().block_count, 0) {
    for (const BlockIndex b : members) indexed[b] = true;
  }

  /// Records a page-state change of `b`; re-admits a removed block.
  void mark_dirty(BlockIndex b) {
    index.mark_dirty(b);
    indexed[b] = true;
  }
  /// Drops `b` from the index (and so from the reference scans).
  void remove(BlockIndex b) {
    index.remove(b);
    indexed[b] = false;
  }
};

/// One aging step on block `b`: program a free page, invalidate the oldest
/// valid page, or erase a fully-invalid block back to fresh.
void age_block(nand::NandChip& chip, ClassState& cls, BlockIndex b, Rng& rng,
               std::uint64_t& token) {
  const PageIndex pages = chip.geometry().pages_per_block;
  if (cls.invalidated[b] == pages) {
    ASSERT_EQ(chip.erase_block(b), Status::ok);
    cls.programmed[b] = 0;
    cls.invalidated[b] = 0;
    cls.remove(b);  // terminally out of the candidate set...
    return;
  }
  if (cls.programmed[b] < pages && (cls.invalidated[b] == cls.programmed[b] || rng.chance(0.6))) {
    nand::SpareArea spare;
    spare.lba = static_cast<Lba>(token);
    spare.sequence = token;
    ASSERT_EQ(chip.program_page(Ppa{b, cls.programmed[b]}, token++, spare), Status::ok);
    ++cls.programmed[b];
  } else {
    ASSERT_EQ(chip.invalidate_page(Ppa{b, cls.invalidated[b]}), Status::ok);
    ++cls.invalidated[b];
  }
  cls.mark_dirty(b);  // ...until the next mutation re-admits it
}

/// One aging step on a random member block.
void age_once(nand::NandChip& chip, ClassState& cls, Rng& rng, std::uint64_t& token) {
  age_block(chip, cls, cls.members[rng.below(cls.members.size())], rng, token);
}

/// Reference: does `b` score positive straight from the chip's live counts?
bool ref_positive(const nand::NandChip& chip, BlockIndex b, double weight) {
  return gc_score(chip.valid_page_count(b), chip.invalid_page_count(b), weight) > 0.0;
}

/// Reference cyclic scan: first positive-score indexed block at or after
/// `start`.
BlockIndex ref_next_positive(const nand::NandChip& chip, const ClassState& cls, double weight,
                             BlockIndex start) {
  const BlockIndex blocks = chip.geometry().block_count;
  for (BlockIndex step = 0; step < blocks; ++step) {
    const BlockIndex b = (start + step) % blocks;
    if (cls.indexed[b] && ref_positive(chip, b, weight)) return b;
  }
  return kInvalidBlock;
}

/// Reference fallback: most invalid pages, ties least worn then lowest index.
BlockIndex ref_most_invalid(const nand::NandChip& chip, const ClassState& cls) {
  BlockIndex best = kInvalidBlock;
  for (BlockIndex b = 0; b < chip.geometry().block_count; ++b) {
    if (!cls.indexed[b] || chip.invalid_page_count(b) == 0) continue;
    if (best == kInvalidBlock) {
      best = b;
      continue;
    }
    const PageIndex ib = chip.invalid_page_count(b);
    const PageIndex ibest = chip.invalid_page_count(best);
    if (ib > ibest ||
        (ib == ibest && chip.erase_count(b) < chip.erase_count(best))) {
      best = b;  // lowest index wins ties implicitly: we scan ascending
    }
  }
  return best;
}

void expect_index_matches_reference(const nand::NandChip& chip, ClassState& cls, double weight) {
  cls.index.flush(chip);
  bool any = false;
  for (const BlockIndex b : cls.members) {
    any = any || (cls.indexed[b] && ref_positive(chip, b, weight));
  }
  ASSERT_EQ(cls.index.any_positive(), any);
  if (any) {
    for (BlockIndex start = 0; start < chip.geometry().block_count; ++start) {
      EXPECT_EQ(cls.index.next_positive(start), ref_next_positive(chip, cls, weight, start))
          << "start " << start;
    }
  }
  EXPECT_EQ(cls.index.most_invalid(chip), ref_most_invalid(chip, cls));
}

void run_two_class_aging(std::uint64_t seed, double weight) {
  nand::NandChip chip = make_chip(kBlocks, kPages);

  // Blocks 0..17 age as the data class, 18..23 as the (smaller, slower)
  // translation class — the DFTL shape.
  std::vector<BlockIndex> data_blocks;
  std::vector<BlockIndex> trans_blocks;
  for (BlockIndex b = 0; b < kBlocks; ++b) {
    (b < 18 ? data_blocks : trans_blocks).push_back(b);
  }
  ClassState data(chip, data_blocks, weight);
  ClassState trans(chip, trans_blocks, weight);

  Rng rng(seed);
  std::uint64_t token = 1;
  for (int round = 0; round < 120; ++round) {
    // ~4 data mutations per translation mutation: the classes age apart.
    for (int i = 0; i < 8; ++i) age_once(chip, data, rng, token);
    for (int i = 0; i < 2; ++i) age_once(chip, trans, rng, token);
    expect_index_matches_reference(chip, data, weight);
    expect_index_matches_reference(chip, trans, weight);
  }
}

TEST(VictimIndexTwoClass, CachedScoresMatchReferenceScans) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    run_two_class_aging(seed, 1.0);
  }
}

TEST(VictimIndexTwoClass, HeavyCostWeightMatchesReferenceScans) {
  // Few blocks ever score positive: the fallback path (most_invalid with its
  // tie-breaks) carries the comparison.
  for (std::uint64_t seed = 10; seed <= 14; ++seed) {
    run_two_class_aging(seed, 6.0);
  }
}

TEST(VictimIndexTwoClass, NegativeCostWeightMatchesReferenceScans) {
  // A negative weight makes every touched block positive — the positive mask
  // must track exactly, including erased blocks leaving the set.
  run_two_class_aging(21, -0.5);
}

/// NFTL's shape: 136 blocks of 128 pages, so the 129 invalid-count buckets
/// and every block mask span several words. Blocks start with distinct erase
/// counts and age in near lockstep (each round invalidates a page in a
/// random ~30% of the blocks), so the top bucket regularly holds several
/// blocks that only the erase count and then the index tell apart. The
/// winner is also remove()d at times while still holding invalid pages, and
/// re-admitted by a later mutation.
void run_nftl_shape_aging(std::uint64_t seed) {
  constexpr BlockIndex kWideBlocks = 136;
  constexpr PageIndex kWidePages = 128;
  constexpr double kWeight = 6.0;  // hardly any block scores positive
  nand::NandChip chip = make_chip(kWideBlocks, kWidePages);
  std::vector<BlockIndex> all;
  for (BlockIndex b = 0; b < kWideBlocks; ++b) all.push_back(b);
  ClassState cls(chip, all, kWeight);
  Rng rng(seed);
  std::uint64_t token = 1;

  // Distinct wear: block b goes through b % 4 full program/invalidate/erase
  // cycles, then every block is programmed full.
  for (const BlockIndex b : all) {
    for (BlockIndex cycle = 0; cycle < b % 4; ++cycle) {
      while (cls.programmed[b] < kWidePages) age_block(chip, cls, b, rng, token);
      while (cls.invalidated[b] < kWidePages) age_block(chip, cls, b, rng, token);
      age_block(chip, cls, b, rng, token);  // erase
    }
    while (cls.programmed[b] < kWidePages) age_block(chip, cls, b, rng, token);
  }
  expect_index_matches_reference(chip, cls, kWeight);

  int tied_tops = 0;  // flushes whose top bucket split on erase count
  for (int round = 0; round < 400; ++round) {
    for (const BlockIndex b : all) {
      if (rng.chance(0.3)) age_block(chip, cls, b, rng, token);
      // A fully invalidated block erases on its next step; refill it so it
      // re-enters with a higher erase count.
      if (cls.programmed[b] == 0) {
        while (cls.programmed[b] < kWidePages) age_block(chip, cls, b, rng, token);
      }
    }
    expect_index_matches_reference(chip, cls, kWeight);
    const BlockIndex top = cls.index.most_invalid(chip);
    if (top == kInvalidBlock) continue;
    for (const BlockIndex b : all) {
      if (b != top && cls.indexed[b] &&
          chip.invalid_page_count(b) == chip.invalid_page_count(top) &&
          chip.erase_count(b) != chip.erase_count(top)) {
        ++tied_tops;
        break;
      }
    }
    // Drop the winner while it still holds invalid pages, as a fold that
    // releases its victim does; its next mutation re-admits it.
    if (rng.chance(0.3)) cls.remove(top);
  }
  EXPECT_GT(tied_tops, 0) << "the run never tied the top bucket across erase counts";
}

TEST(VictimIndexNftlShape, BucketedFallbackMatchesReferenceScans) {
  for (std::uint64_t seed = 40; seed <= 42; ++seed) {
    run_nftl_shape_aging(seed);
  }
}

// ---------------------------------------------------------------------------
// Part two: the same equivalence end-to-end through DFTL's two-class GC.

struct DftlStack {
  DftlStack(BlockIndex blocks, Lba lbas, double weight, bool reference_scan, bool with_leveler) {
    nand::NandConfig cc;
    cc.geometry = FlashGeometry{.block_count = blocks, .pages_per_block = 8,
                                .page_size_bytes = 512};
    cc.timing = default_timing(CellType::slc_small_block);
    cc.store_payload_bytes = true;
    chip = std::make_unique<nand::NandChip>(cc);
    dftl::DftlConfig cfg;
    cfg.lba_count = lbas;
    cfg.lbas_per_tpage = 8;
    cfg.cmt_capacity = 2;
    cfg.writeback_batch = 2;
    cfg.gc_cost_weight = weight;
    cfg.reference_victim_scan = reference_scan;
    layer = std::make_unique<dftl::Dftl>(*chip, cfg);
    if (with_leveler) {
      wear::LevelerConfig lc;
      lc.k = 2;
      lc.threshold = 4;
      layer->attach_leveler(std::make_unique<wear::SwLeveler>(blocks, lc));
    }
  }
  std::unique_ptr<nand::NandChip> chip;
  std::unique_ptr<dftl::Dftl> layer;
};

void expect_identical(DftlStack& fast, DftlStack& ref) {
  EXPECT_EQ(fast.chip->counters().programs, ref.chip->counters().programs);
  EXPECT_EQ(fast.chip->counters().erases, ref.chip->counters().erases);
  EXPECT_EQ(fast.chip->erase_counts(), ref.chip->erase_counts());
  EXPECT_EQ(fast.layer->counters().gc_erases, ref.layer->counters().gc_erases);
  EXPECT_EQ(fast.layer->counters().gc_live_copies, ref.layer->counters().gc_live_copies);
  EXPECT_EQ(fast.layer->counters().swl_erases, ref.layer->counters().swl_erases);
  EXPECT_EQ(fast.layer->counters().map_reads, ref.layer->counters().map_reads);
  EXPECT_EQ(fast.layer->counters().map_writes, ref.layer->counters().map_writes);
  EXPECT_EQ(fast.layer->stats().cmt_evictions, ref.layer->stats().cmt_evictions);
  EXPECT_EQ(fast.layer->stats().writebacks, ref.layer->stats().writebacks);
  EXPECT_EQ(fast.layer->stats().gc_rmw_writes, ref.layer->stats().gc_rmw_writes);
  for (BlockIndex b = 0; b < fast.chip->geometry().block_count; ++b) {
    EXPECT_EQ(fast.layer->block_class(b), ref.layer->block_class(b)) << "block " << b;
  }
  for (Lba lba = 0; lba < fast.layer->lba_count(); ++lba) {
    const Ppa pf = fast.layer->translate(lba);
    const Ppa pr = ref.layer->translate(lba);
    EXPECT_EQ(pf, pr) << "lba " << lba;
    std::uint64_t tf = 0;
    std::uint64_t tr = 0;
    const Status sf = fast.layer->read(lba, &tf);
    const Status sr = ref.layer->read(lba, &tr);
    ASSERT_EQ(sf, sr) << "lba " << lba;
    EXPECT_EQ(tf, tr) << "lba " << lba;
  }
  EXPECT_NO_THROW(fast.layer->check_invariants());
  EXPECT_NO_THROW(ref.layer->check_invariants());
}

void run_dftl_differential(BlockIndex blocks, Lba lbas, double weight, bool with_leveler,
                           std::uint64_t seed, std::uint64_t writes) {
  DftlStack fast(blocks, lbas, weight, /*reference_scan=*/false, with_leveler);
  DftlStack ref(blocks, lbas, weight, /*reference_scan=*/true, with_leveler);
  Rng rng(seed);
  std::uint64_t token = 1;
  for (std::uint64_t i = 0; i < writes; ++i) {
    const Lba span = rng.chance(0.5) ? std::max<Lba>(1, lbas / 4) : lbas;
    const Lba lba = static_cast<Lba>(rng.below(span));
    const std::uint64_t t = token++;
    const Status sf = fast.layer->write(lba, t);
    const Status sr = ref.layer->write(lba, t);
    ASSERT_EQ(sf, sr) << "write " << i << " lba " << lba;
  }
  expect_identical(fast, ref);
}

TEST(DftlVictimScanProperty, TwoClassGcMatchesReferenceScan) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    run_dftl_differential(16, 64, 1.0, /*with_leveler=*/false, seed, 700);
  }
}

TEST(DftlVictimScanProperty, HeavyCostWeightMatchesReferenceScan) {
  // Forces the class-agnostic most-invalid fallback: both stacks must pick
  // the same block even when it belongs to the other class.
  for (std::uint64_t seed = 10; seed <= 13; ++seed) {
    run_dftl_differential(16, 64, 4.0, /*with_leveler=*/false, seed, 700);
  }
}

TEST(DftlVictimScanProperty, TightSpaceWithLevelerMatches) {
  // Minimum over-provisioning plus an aggressive leveler: SWL erases land in
  // both class scan states identically.
  for (std::uint64_t seed = 30; seed <= 32; ++seed) {
    run_dftl_differential(12, 48, 1.0, /*with_leveler=*/true, seed, 800);
  }
}

}  // namespace
}  // namespace swl::tl
