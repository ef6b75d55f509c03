// Media-error injection: the chip's failure model plus both layers'
// firmware-style handling (retry past consumed pages, abandon-and-retry
// folds, retire blocks whose erase fails) under randomized workloads.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "core/rng.hpp"
#include "ftl/ftl.hpp"
#include "nftl/nftl.hpp"
#include "swl/leveler.hpp"

namespace swl {
namespace {

nand::NandConfig chip_config(double program_p, double erase_p, double wear_factor = 0.0,
                             BlockIndex blocks = 24) {
  nand::NandConfig c;
  c.geometry = FlashGeometry{.block_count = blocks, .pages_per_block = 8,
                             .page_size_bytes = 2048};
  c.timing = default_timing(CellType::mlc_x2);
  c.failures.program_fail_p = program_p;
  c.failures.erase_fail_p = erase_p;
  c.failures.wear_factor = wear_factor;
  return c;
}

TEST(NandFaults, CertainProgramFailureConsumesThePage) {
  nand::NandChip chip(chip_config(1.0, 0.0));
  EXPECT_EQ(chip.program_page({0, 0}, 7, nand::SpareArea{}), Status::program_failed);
  EXPECT_EQ(chip.page_state({0, 0}), nand::PageState::invalid);
  EXPECT_EQ(chip.counters().program_failures, 1u);
  // The consumed page cannot be programmed again before an erase.
  EXPECT_EQ(chip.program_page({0, 0}, 7, nand::SpareArea{}), Status::page_already_programmed);
}

TEST(NandFaults, CertainEraseFailureRetiresTheBlock) {
  nand::NandChip chip(chip_config(0.0, 1.0));
  EXPECT_EQ(chip.erase_block(3), Status::erase_failed);
  EXPECT_TRUE(chip.is_retired(3));
  EXPECT_EQ(chip.counters().erase_failures, 1u);
  EXPECT_EQ(chip.erase_block(3), Status::bad_block);
  EXPECT_EQ(chip.program_page({3, 0}, 1, nand::SpareArea{}), Status::bad_block);
}

TEST(NandFaults, WearFactorRaisesFailureRateWithEraseCount) {
  // wear_factor 1.0: at full wear every program fails; when fresh only the
  // base probability (0 here) applies.
  nand::NandConfig cfg = chip_config(0.0, 0.0, /*wear_factor=*/1.0);
  cfg.timing.endurance = 10;
  nand::NandChip chip(cfg);
  EXPECT_EQ(chip.program_page({0, 0}, 1, nand::SpareArea{}), Status::ok);
  for (int i = 0; i < 10; ++i) ASSERT_EQ(chip.erase_block(0), Status::ok);
  // wear ratio 1.0 -> certain failure
  EXPECT_EQ(chip.program_page({0, 0}, 1, nand::SpareArea{}), Status::program_failed);
}

TEST(NandFaults, InjectionIsDeterministicPerSeed) {
  nand::NandConfig cfg = chip_config(0.3, 0.0);
  nand::NandChip a(cfg);
  nand::NandChip b(cfg);
  for (PageIndex p = 0; p < 8; ++p) {
    EXPECT_EQ(a.program_page({0, p}, 1, nand::SpareArea{}),
              b.program_page({0, p}, 1, nand::SpareArea{}));
  }
}

TEST(FtlFaults, WriteRetriesPastFailedPages) {
  nand::NandChip chip(chip_config(0.5, 0.0));
  ftl::Ftl ftl(chip, ftl::FtlConfig{});
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(ftl.write(static_cast<Lba>(i), static_cast<std::uint64_t>(100 + i)), Status::ok);
  }
  EXPECT_GT(chip.counters().program_failures, 0u);
  for (int i = 0; i < 50; ++i) {
    std::uint64_t got = 0;
    ASSERT_EQ(ftl.read(static_cast<Lba>(i), &got), Status::ok);
    ASSERT_EQ(got, 100u + static_cast<std::uint64_t>(i));
  }
  ftl.check_invariants();
}

TEST(FtlFaults, SurvivesRandomWorkloadUnderModerateInjection) {
  nand::NandChip chip(chip_config(0.02, 0.0, 0.01));
  // Media errors consume destination pages, so an error-prone device needs
  // more over-provisioning than the 2-block minimum.
  ftl::FtlConfig cfg;
  cfg.lba_count = 152;  // 5 of 24 blocks spare
  ftl::Ftl ftl(chip, cfg);
  wear::LevelerConfig lc;
  lc.threshold = 8;
  ftl.attach_leveler(std::make_unique<wear::SwLeveler>(24, lc));
  Rng rng(5);
  std::map<Lba, std::uint64_t> shadow;
  for (int i = 0; i < 10'000; ++i) {
    const Lba lba = rng.chance(0.5) ? static_cast<Lba>(rng.below(4))
                                    : static_cast<Lba>(rng.below(ftl.lba_count()));
    ASSERT_EQ(ftl.write(lba, static_cast<std::uint64_t>(i + 1)), Status::ok);
    shadow[lba] = static_cast<std::uint64_t>(i + 1);
  }
  EXPECT_GT(chip.counters().program_failures, 0u);
  for (const auto& [lba, want] : shadow) {
    std::uint64_t got = 0;
    ASSERT_EQ(ftl.read(lba, &got), Status::ok);
    ASSERT_EQ(got, want);
  }
  ftl.check_invariants();
}

TEST(FtlFaults, EraseFailuresRetireBlocksButDataSurvives) {
  nand::NandChip chip(chip_config(0.0, 0.05, 0.0, /*blocks=*/32));
  ftl::Ftl ftl(chip, ftl::FtlConfig{});
  Rng rng(7);
  std::map<Lba, std::uint64_t> shadow;
  for (int i = 0; i < 8'000; ++i) {
    const Lba lba = static_cast<Lba>(rng.below(64));  // heavy overwrites -> many erases
    const Status st = ftl.write(lba, static_cast<std::uint64_t>(i + 1));
    if (st == Status::out_of_space) break;  // too many retired blocks: acceptable end state
    ASSERT_EQ(st, Status::ok);
    shadow[lba] = static_cast<std::uint64_t>(i + 1);
  }
  EXPECT_GT(chip.counters().erase_failures, 0u);
  for (const auto& [lba, want] : shadow) {
    std::uint64_t got = 0;
    ASSERT_EQ(ftl.read(lba, &got), Status::ok);
    ASSERT_EQ(got, want);
  }
  ftl.check_invariants();
}

TEST(NftlFaults, PrimaryProgramFailureFallsBackToReplacement) {
  nand::NandChip chip(chip_config(1.0, 0.0));
  nftl::Nftl nftl(chip, nftl::NftlConfig{});
  // Every program fails: the write must eventually give up cleanly.
  EXPECT_EQ(nftl.write(0, 1), Status::program_failed);
  std::uint64_t got = 0;
  EXPECT_EQ(nftl.read(0, &got), Status::lba_not_mapped);  // nothing published
  nftl.check_invariants();
}

TEST(NftlFaults, SurvivesRandomWorkloadUnderModerateInjection) {
  nand::NandChip chip(chip_config(0.02, 0.0, 0.01));
  nftl::NftlConfig cfg;
  cfg.vba_count = 18;  // 6 of 24 blocks spare for an error-prone device
  nftl::Nftl nftl(chip, cfg);
  wear::LevelerConfig lc;
  lc.threshold = 8;
  nftl.attach_leveler(std::make_unique<wear::SwLeveler>(24, lc));
  Rng rng(9);
  std::map<Lba, std::uint64_t> shadow;
  int refused = 0;
  for (int i = 0; i < 10'000; ++i) {
    const Lba lba = rng.chance(0.5) ? static_cast<Lba>(rng.below(4))
                                    : static_cast<Lba>(rng.below(nftl.lba_count()));
    const Status st = nftl.write(lba, static_cast<std::uint64_t>(i + 1));
    if (st != Status::ok) {
      // A media-error storm may make the layer refuse a write transiently;
      // the host retries. Such refusals must stay rare.
      ASSERT_TRUE(st == Status::out_of_space || st == Status::program_failed);
      ++refused;
      continue;
    }
    shadow[lba] = static_cast<std::uint64_t>(i + 1);
  }
  EXPECT_LT(refused, 100);
  EXPECT_GT(chip.counters().program_failures, 0u);
  for (const auto& [lba, want] : shadow) {
    std::uint64_t got = 0;
    ASSERT_EQ(nftl.read(lba, &got), Status::ok);
    ASSERT_EQ(got, want);
  }
  nftl.check_invariants();
}

TEST(NftlFaults, FoldRetriesWithFreshBlocks) {
  // High failure rate so folds regularly hit a bad page mid-copy; the
  // two-phase fold must keep every version readable after every write, not
  // only at the end: an abandoned fold that published its copies would
  // point the version index into an erased block.
  nand::NandChip chip(chip_config(0.10, 0.0));
  nftl::Nftl nftl(chip, nftl::NftlConfig{});
  Rng rng(13);
  std::map<Lba, std::uint64_t> shadow;
  // Blocks a write erased beyond the old primary/replacement blocks it
  // released: fresh fold destinations abandoned after a failed copy. (The
  // pool never runs low here, so GC never folds on its own.)
  std::uint64_t abandoned_blocks = 0;
  for (int i = 0; i < 6'000; ++i) {
    const Lba lba = static_cast<Lba>(rng.below(16));  // two VBAs, constant folding
    std::vector<BlockIndex> pairs_before;
    for (Vba vba = 0; vba < 2; ++vba) {
      pairs_before.push_back(nftl.primary_block(vba));
      pairs_before.push_back(nftl.replacement_block(vba));
    }
    const std::uint64_t erases_before = chip.counters().erases;
    const Status st = nftl.write(lba, static_cast<std::uint64_t>(i + 1));
    std::uint64_t released = 0;
    for (const BlockIndex b : pairs_before) {
      if (b == kInvalidBlock) continue;
      bool still_mapped = false;
      for (Vba vba = 0; vba < 2; ++vba) {
        still_mapped = still_mapped || b == nftl.primary_block(vba) ||
                       b == nftl.replacement_block(vba);
      }
      if (!still_mapped) ++released;
    }
    abandoned_blocks += chip.counters().erases - erases_before - released;
    if (st != Status::program_failed) {  // storm: host retries later
      ASSERT_EQ(st, Status::ok);
      shadow[lba] = static_cast<std::uint64_t>(i + 1);
    }
    ASSERT_NO_THROW(nftl.check_invariants()) << "write " << i;
    for (const auto& [want_lba, want] : shadow) {
      std::uint64_t got = 0;
      ASSERT_EQ(nftl.read(want_lba, &got), Status::ok) << "write " << i << " lba " << want_lba;
      ASSERT_EQ(got, want) << "write " << i << " lba " << want_lba;
    }
  }
  EXPECT_GT(abandoned_blocks, 0u) << "no fold was abandoned: the retry path went unexercised";
}

}  // namespace
}  // namespace swl
