// DFTL unit battery: CMT eviction edge cases the differential fuzzer only
// hits probabilistically are pinned here deterministically —
//   - a capacity-1 CMT (every miss is an eviction, the LRU list is one node);
//   - an all-dirty eviction storm exercising write-back batching exactly;
//   - re-referencing a page the batch just flushed (resident-clean hit, then
//     re-dirtying without a fetch);
//   - mount-after-dirty-CMT (acknowledged writes survive a discarded cache);
//   - the FTL-equivalence canary: with an effectively infinite CMT the DFTL
//     must read back bit-identically to the in-RAM FTL on the same trace,
//     pinned by a serial content fingerprint constant.
#include "dftl/dftl.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/contracts.hpp"
#include "core/rng.hpp"
#include "ftl/ftl.hpp"

namespace swl::dftl {
namespace {

std::unique_ptr<nand::NandChip> make_chip(BlockIndex blocks = 16, PageIndex pages = 8,
                                          std::uint32_t page_bytes = 512) {
  nand::NandConfig cc;
  cc.geometry = FlashGeometry{.block_count = blocks, .pages_per_block = pages,
                              .page_size_bytes = page_bytes};
  cc.timing = default_timing(CellType::slc_small_block);
  cc.store_payload_bytes = true;  // translation pages are byte payloads
  return std::make_unique<nand::NandChip>(cc);
}

DftlConfig small_config() {
  DftlConfig cfg;
  cfg.lba_count = 64;
  cfg.lbas_per_tpage = 8;  // 8 translation pages
  cfg.cmt_capacity = 2;
  cfg.writeback_batch = 2;
  return cfg;
}

TEST(Dftl, CapacityOneCmtServesTheWholeMap) {
  auto chip = make_chip();
  DftlConfig cfg = small_config();
  cfg.cmt_capacity = 1;
  cfg.writeback_batch = 1;
  Dftl dftl(*chip, cfg);
  ASSERT_EQ(dftl.cmt_capacity(), 1u);

  // Two full passes: the second overwrites everything through repeated
  // single-slot eviction of a dirty victim.
  std::uint64_t token = 1;
  for (int pass = 0; pass < 2; ++pass) {
    for (Lba lba = 0; lba < dftl.lba_count(); ++lba) {
      ASSERT_EQ(dftl.write(lba, token), Status::ok) << "pass " << pass << " lba " << lba;
      ++token;
    }
  }
  EXPECT_LE(dftl.resident_count(), 1u);
  for (Lba lba = 0; lba < dftl.lba_count(); ++lba) {
    std::uint64_t t = 0;
    ASSERT_EQ(dftl.read(lba, &t), Status::ok) << "lba " << lba;
    EXPECT_EQ(t, dftl.lba_count() + lba + 1) << "lba " << lba;
  }
  const DftlStats& s = dftl.stats();
  EXPECT_GT(s.cmt_misses, 0u);
  EXPECT_GT(s.fetches, 0u);
  EXPECT_GT(s.cmt_evictions, 0u);
  EXPECT_GT(s.writebacks, 0u);
  EXPECT_EQ(s.batched_writebacks, 0u);  // batch=1: plain DFTL, no batching
  EXPECT_GT(dftl.counters().map_reads, 0u);
  EXPECT_GT(dftl.counters().map_writes, 0u);
  EXPECT_GT(dftl.counters().map_write_amplification(), 0.0);
  EXPECT_NO_THROW(dftl.check_invariants());
}

TEST(Dftl, AllDirtyEvictionStormFlushesTheBatchFromTheColdEnd) {
  auto chip = make_chip();
  DftlConfig cfg = small_config();
  cfg.cmt_capacity = 4;
  cfg.writeback_batch = 4;
  Dftl dftl(*chip, cfg);

  // Dirty all four slots: one write into each of tvpn 0..3.
  for (Lba tvpn = 0; tvpn < 4; ++tvpn) {
    ASSERT_EQ(dftl.write(tvpn * 8, 100 + tvpn), Status::ok);
    ASSERT_TRUE(dftl.is_resident(tvpn));
    ASSERT_TRUE(dftl.is_dirty(tvpn));
  }
  ASSERT_EQ(dftl.resident_count(), 4u);
  ASSERT_EQ(dftl.stats().writebacks, 0u);

  // A fifth translation page forces eviction of the LRU tail (tvpn 0, dirty)
  // and the batch flushes the other three from the cold end — they stay
  // resident, now clean.
  ASSERT_EQ(dftl.write(4 * 8, 200), Status::ok);
  EXPECT_FALSE(dftl.is_resident(0));
  for (Lba tvpn = 1; tvpn < 4; ++tvpn) {
    ASSERT_TRUE(dftl.is_resident(tvpn)) << "tvpn " << tvpn;
    EXPECT_FALSE(dftl.is_dirty(tvpn)) << "tvpn " << tvpn;
    EXPECT_TRUE(dftl.tpage_location(tvpn).valid()) << "tvpn " << tvpn;
  }
  ASSERT_TRUE(dftl.is_resident(4));
  EXPECT_TRUE(dftl.is_dirty(4));
  const DftlStats& s = dftl.stats();
  EXPECT_EQ(s.cmt_evictions, 1u);
  EXPECT_EQ(s.writebacks, 1u);
  EXPECT_EQ(s.batched_writebacks, 3u);
  EXPECT_NO_THROW(dftl.check_invariants());
}

TEST(Dftl, ReReferenceAfterBatchFlushHitsWithoutAFetch) {
  auto chip = make_chip();
  DftlConfig cfg = small_config();
  cfg.cmt_capacity = 4;
  cfg.writeback_batch = 4;
  Dftl dftl(*chip, cfg);

  for (Lba tvpn = 0; tvpn < 4; ++tvpn) {
    ASSERT_EQ(dftl.write(tvpn * 8, 100 + tvpn), Status::ok);
  }
  ASSERT_EQ(dftl.write(4 * 8, 200), Status::ok);  // the storm of the test above
  ASSERT_TRUE(dftl.is_resident(1));
  ASSERT_FALSE(dftl.is_dirty(1));

  // Re-reference the just-flushed tvpn 1: a CMT hit (no fetch, no map read),
  // still clean after the read.
  const std::uint64_t fetches_before = dftl.stats().fetches;
  const std::uint64_t hits_before = dftl.stats().cmt_hits;
  std::uint64_t t = 0;
  ASSERT_EQ(dftl.read(1 * 8, &t), Status::ok);
  EXPECT_EQ(t, 101u);
  EXPECT_EQ(dftl.stats().fetches, fetches_before);
  EXPECT_GT(dftl.stats().cmt_hits, hits_before);
  EXPECT_FALSE(dftl.is_dirty(1));

  // Overwriting through the flushed page re-dirties it in place — again no
  // fetch, no write-back yet.
  const std::uint64_t writebacks_before = dftl.stats().writebacks;
  ASSERT_EQ(dftl.write(1 * 8 + 1, 300), Status::ok);
  EXPECT_TRUE(dftl.is_resident(1));
  EXPECT_TRUE(dftl.is_dirty(1));
  EXPECT_EQ(dftl.stats().fetches, fetches_before);
  EXPECT_EQ(dftl.stats().writebacks, writebacks_before);

  // Everything written so far still reads back.
  for (Lba tvpn = 0; tvpn < 5; ++tvpn) {
    std::uint64_t got = 0;
    ASSERT_EQ(dftl.read(tvpn * 8, &got), Status::ok) << "tvpn " << tvpn;
    EXPECT_EQ(got, tvpn == 4 ? 200u : 100 + tvpn) << "tvpn " << tvpn;
  }
  std::uint64_t got = 0;
  ASSERT_EQ(dftl.read(1 * 8 + 1, &got), Status::ok);
  EXPECT_EQ(got, 300u);
  EXPECT_NO_THROW(dftl.check_invariants());
}

TEST(Dftl, TranslateAgreesWithCmtAndFlash) {
  auto chip = make_chip();
  Dftl dftl(*chip, small_config());
  Rng rng(7);
  std::vector<std::uint64_t> shadow(dftl.lba_count(), 0);
  std::uint64_t token = 1;
  for (int i = 0; i < 300; ++i) {
    const Lba lba = static_cast<Lba>(rng.below(dftl.lba_count()));
    ASSERT_EQ(dftl.write(lba, token), Status::ok);
    shadow[lba] = token++;
  }
  for (Lba lba = 0; lba < dftl.lba_count(); ++lba) {
    const Ppa p = dftl.translate(lba);
    if (shadow[lba] == 0) {
      EXPECT_FALSE(p.valid()) << "lba " << lba;
      continue;
    }
    ASSERT_TRUE(p.valid()) << "lba " << lba;
    if (dftl.is_resident(dftl.tvpn_of(lba))) {
      EXPECT_EQ(dftl.cmt_entry(lba), p) << "lba " << lba;
    }
    std::uint64_t t = 0;
    ASSERT_EQ(dftl.read(lba, &t), Status::ok) << "lba " << lba;
    EXPECT_EQ(t, shadow[lba]) << "lba " << lba;
  }
  EXPECT_NO_THROW(dftl.check_invariants());
}

// Packed on-flash form of one map entry: the physical page number, or
// 0xFFFFFFFF for an unmapped LBA.
std::uint32_t packed_entry(const nand::NandChip& chip, Ppa p) {
  return p.valid() ? p.block * chip.geometry().pages_per_block + p.page : 0xFFFFFFFFu;
}

// Checks the flash image of tvpn's current translation page byte by byte:
// entry i is the little-endian u32 at bytes 4i..4i+3, and every byte past
// the last entry is zero.
void expect_tpage_image(const nand::NandChip& chip, const Dftl& dftl, Lba tvpn,
                        const std::vector<Ppa>& expected) {
  const Ppa where = dftl.tpage_location(tvpn);
  ASSERT_TRUE(where.valid()) << "tvpn " << tvpn;
  const nand::PageReadResult r = chip.read_page(where);
  ASSERT_EQ(r.status, Status::ok);
  ASSERT_EQ(r.data.size(), chip.geometry().page_size_bytes);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const std::uint32_t e = packed_entry(chip, expected[i]);
    for (std::size_t b = 0; b < 4; ++b) {
      EXPECT_EQ(r.data[4 * i + b], (e >> (8 * b)) & 0xFFu) << "entry " << i << " byte " << b;
    }
  }
  for (std::size_t k = 4 * expected.size(); k < r.data.size(); ++k) {
    ASSERT_EQ(r.data[k], 0u) << "tail byte " << k;
  }
}

TEST(Dftl, TranslationPageOnFlashIsLittleEndianPackedEntriesWithAZeroTail) {
  auto chip = make_chip(16, 8, 2048);  // 8 entries use 32 of 2048 bytes
  DftlConfig cfg = small_config();
  cfg.cmt_capacity = 1;
  cfg.writeback_batch = 1;
  Dftl dftl(*chip, cfg);
  ASSERT_EQ(dftl.lbas_per_tpage(), 8u);

  const auto cmt_snapshot = [&dftl] {
    std::vector<Ppa> entries;
    for (Lba lba = 0; lba < 8; ++lba) entries.push_back(dftl.cmt_entry(lba));
    return entries;
  };

  // tvpn 0 with a mix of mapped and unmapped entries; touching tvpn 1 then
  // evicts it dirty, which writes it back.
  for (const Lba lba : {0u, 2u, 3u, 5u, 7u}) ASSERT_EQ(dftl.write(lba, 10 + lba), Status::ok);
  const std::vector<Ppa> first = cmt_snapshot();
  ASSERT_FALSE(first[1].valid());
  ASSERT_EQ(dftl.write(8, 99), Status::ok);
  ASSERT_FALSE(dftl.is_resident(0));
  expect_tpage_image(*chip, dftl, 0, first);
  const Ppa first_location = dftl.tpage_location(0);

  // Second write-back of the same tvpn: fetch it, change two entries, evict.
  ASSERT_EQ(dftl.write(1, 200), Status::ok);
  ASSERT_EQ(dftl.write(0, 201), Status::ok);
  const std::vector<Ppa> second = cmt_snapshot();
  ASSERT_EQ(dftl.write(16, 202), Status::ok);
  ASSERT_FALSE(dftl.is_resident(0));
  ASSERT_NE(dftl.tpage_location(0), first_location);
  expect_tpage_image(*chip, dftl, 0, second);
  for (Lba lba = 0; lba < 8; ++lba) EXPECT_EQ(dftl.translate(lba), second[lba]) << "lba " << lba;
  EXPECT_NO_THROW(dftl.check_invariants());
}

TEST(Dftl, UncachedFallbackReadCountsOneMapReadAndOneNandRead) {
  // Every erase fails, so garbage collection retires its victims and the
  // pool drains. Hammering tvpn 0 and 1 then leaves both CMT slots dirty
  // with no block to write either back: a miss must read the map entry
  // straight from flash.
  nand::NandConfig cc;
  cc.geometry = FlashGeometry{.block_count = 16, .pages_per_block = 8, .page_size_bytes = 512};
  cc.timing = default_timing(CellType::slc_small_block);
  cc.store_payload_bytes = true;
  cc.failures.erase_fail_p = 1.0;
  nand::NandChip chip(cc);
  DftlConfig cfg = small_config();
  cfg.writeback_batch = 1;
  Dftl dftl(chip, cfg);

  // Map every LBA but 63, so every translation page has a flash version.
  for (Lba lba = 0; lba < 63; ++lba) ASSERT_EQ(dftl.write(lba, lba + 1), Status::ok);
  Status st = Status::ok;
  for (std::uint64_t i = 0; i < 10000 && st == Status::ok; ++i) {
    st = dftl.write(static_cast<Lba>(i % 16), 1000 + i);
  }
  ASSERT_EQ(st, Status::out_of_space);
  ASSERT_EQ(dftl.free_block_count(), 0u);
  ASSERT_TRUE(dftl.is_resident(0) && dftl.is_dirty(0));
  ASSERT_TRUE(dftl.is_resident(1) && dftl.is_dirty(1));

  const auto expect_one_uncached_read = [&](Lba lba, Status want, std::uint64_t nand_reads) {
    const std::uint64_t misses = dftl.stats().cmt_misses;
    const std::uint64_t map_reads = dftl.counters().map_reads;
    const std::uint64_t reads = chip.counters().reads;
    std::uint64_t token = 0;
    EXPECT_EQ(dftl.read(lba, &token), want) << "lba " << lba;
    if (want == Status::ok) {
      EXPECT_EQ(token, lba + 1) << "lba " << lba;
    }
    EXPECT_EQ(dftl.stats().cmt_misses, misses) << "the read went through the CMT";
    EXPECT_FALSE(dftl.is_resident(dftl.tvpn_of(lba)));
    EXPECT_EQ(dftl.counters().map_reads, map_reads + 1) << "lba " << lba;
    EXPECT_EQ(chip.counters().reads, reads + nand_reads) << "lba " << lba;
  };
  // Mapped: one translation-page read plus the data read.
  expect_one_uncached_read(16, Status::ok, 2);
  expect_one_uncached_read(40, Status::ok, 2);
  // Unmapped in a flash-resident page: exactly the translation-page read.
  expect_one_uncached_read(63, Status::lba_not_mapped, 1);

  // read_bytes takes the same fallback with the same accounting.
  std::vector<std::uint8_t> page(chip.geometry().page_size_bytes, 0xAB);
  const std::uint64_t map_reads = dftl.counters().map_reads;
  const std::uint64_t reads = chip.counters().reads;
  EXPECT_EQ(dftl.read_bytes(63, page), Status::lba_not_mapped);
  EXPECT_EQ(dftl.counters().map_reads, map_reads + 1);
  EXPECT_EQ(chip.counters().reads, reads + 1);
  EXPECT_EQ(dftl.read_bytes(24, page), Status::ok);
  EXPECT_EQ(dftl.counters().map_reads, map_reads + 2);
  EXPECT_EQ(chip.counters().reads, reads + 3);
  EXPECT_FALSE(dftl.is_resident(dftl.tvpn_of(24)));
  // Written without bytes: the stored payload is empty, so the page reads
  // back all zero.
  EXPECT_EQ(std::count(page.begin(), page.end(), std::uint8_t{0}),
            static_cast<std::ptrdiff_t>(page.size()));
}

TEST(Dftl, TranslateOfANonResidentLbaReadsFlashWithoutCountingAMapRead) {
  auto chip = make_chip();
  DftlConfig cfg = small_config();
  cfg.cmt_capacity = 1;
  Dftl dftl(*chip, cfg);
  ASSERT_EQ(dftl.write(3, 7), Status::ok);
  const Ppa where = dftl.cmt_entry(3);
  ASSERT_EQ(dftl.write(8, 8), Status::ok);  // evicts tvpn 0 with a write-back
  ASSERT_FALSE(dftl.is_resident(0));
  ASSERT_TRUE(dftl.tpage_location(0).valid());

  const std::uint64_t map_reads = dftl.counters().map_reads;
  const std::uint64_t reads = chip->counters().reads;
  EXPECT_EQ(dftl.translate(3), where);
  EXPECT_FALSE(dftl.translate(4).valid());
  EXPECT_EQ(dftl.counters().map_reads, map_reads);
  EXPECT_EQ(chip->counters().reads, reads + 2);  // one chip read per lookup
  EXPECT_FALSE(dftl.is_resident(0));

  // A translation page that was never written back costs no read at all.
  EXPECT_FALSE(dftl.translate(16).valid());
  EXPECT_EQ(chip->counters().reads, reads + 2);
  EXPECT_EQ(dftl.counters().map_reads, map_reads);
}

TEST(Dftl, MountAfterDirtyCmtKeepsEveryAcknowledgedWrite) {
  auto chip = make_chip();
  std::vector<std::uint64_t> shadow;
  {
    Dftl dftl(*chip, small_config());
    shadow.assign(dftl.lba_count(), 0);
    Rng rng(11);
    std::uint64_t token = 1;
    for (int i = 0; i < 250; ++i) {
      const Lba lba = static_cast<Lba>(rng.below(dftl.lba_count()));
      ASSERT_EQ(dftl.write(lba, token), Status::ok);
      shadow[lba] = token++;
    }
    // At least one translation page must be dirty in the CMT right now, or
    // the mount below would not prove anything about discarded dirty state.
    bool any_dirty = false;
    for (Lba tvpn = 0; tvpn < dftl.tpage_count(); ++tvpn) {
      any_dirty = any_dirty || (dftl.is_resident(tvpn) && dftl.is_dirty(tvpn));
    }
    ASSERT_TRUE(any_dirty) << "workload left the CMT fully clean; test is vacuous";
  }  // layer destroyed without any shutdown flush — the dirty CMT is lost

  chip->forget_logical_state();
  auto mounted = Dftl::mount(*chip, small_config());
  ASSERT_NE(mounted, nullptr);
  EXPECT_EQ(mounted->resident_count(), 0u);  // the CMT starts empty
  EXPECT_NO_THROW(mounted->check_invariants());
  for (Lba lba = 0; lba < mounted->lba_count(); ++lba) {
    std::uint64_t t = 0;
    const Status s = mounted->read(lba, &t);
    if (shadow[lba] == 0) {
      EXPECT_EQ(s, Status::lba_not_mapped) << "lba " << lba;
    } else {
      ASSERT_EQ(s, Status::ok) << "lba " << lba;
      EXPECT_EQ(t, shadow[lba]) << "lba " << lba;
    }
  }
}

TEST(Dftl, InfeasibleConfigIsRejected) {
  auto chip = make_chip(8, 4);  // 32 physical pages
  DftlConfig cfg;
  cfg.lba_count = 64;  // cannot fit: data + translation pages + reserve > 32
  cfg.lbas_per_tpage = 8;
  EXPECT_THROW(Dftl(*chip, cfg), PreconditionError);
}

// FNV-1a over the full logical content (lba, token) stream.
std::uint64_t content_fingerprint(tl::TranslationLayer& layer) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  for (Lba lba = 0; lba < layer.lba_count(); ++lba) {
    std::uint64_t t = 0;
    const Status s = layer.read(lba, &t);
    mix(lba);
    mix(s == Status::ok ? t : 0);
  }
  return h;
}

TEST(Dftl, InfiniteCmtIsBitIdenticalToInRamFtl) {
  // The canary of DESIGN §10: with cmt_capacity >= tpage_count the CMT never
  // evicts, so the DFTL's logical behavior must be indistinguishable from
  // the in-RAM FTL on any trace — same per-write statuses, same content.
  auto dchip = make_chip();
  DftlConfig dcfg = small_config();
  dcfg.cmt_capacity = 64;  // >= tpage_count: effectively infinite
  Dftl dftl(*dchip, dcfg);
  ASSERT_GE(dftl.cmt_capacity(), dftl.tpage_count());

  auto fchip = make_chip();
  ftl::FtlConfig fcfg;
  fcfg.lba_count = dcfg.lba_count;
  ftl::Ftl ftl(*fchip, fcfg);

  Rng rng(0xD3F7);
  std::uint64_t token = 1;
  for (int i = 0; i < 3000; ++i) {
    const Lba span = rng.chance(0.5) ? 8 : dftl.lba_count();
    const Lba lba = static_cast<Lba>(rng.below(span));
    const std::uint64_t t = token++;
    const Status sd = dftl.write(lba, t);
    const Status sf = ftl.write(lba, t);
    ASSERT_EQ(sd, sf) << "write " << i << " lba " << lba;
  }
  EXPECT_EQ(dftl.stats().cmt_evictions, 0u);
  EXPECT_EQ(dftl.stats().writebacks, 0u);  // nothing ever leaves the cache

  for (Lba lba = 0; lba < dftl.lba_count(); ++lba) {
    std::uint64_t td = 0;
    std::uint64_t tf = 0;
    const Status sd = dftl.read(lba, &td);
    const Status sf = ftl.read(lba, &tf);
    ASSERT_EQ(sd, sf) << "lba " << lba;
    if (sd == Status::ok) {
      EXPECT_EQ(td, tf) << "lba " << lba;
    }
  }
  EXPECT_NO_THROW(dftl.check_invariants());
  EXPECT_NO_THROW(ftl.check_invariants());

  const std::uint64_t fp_dftl = content_fingerprint(dftl);
  const std::uint64_t fp_ftl = content_fingerprint(ftl);
  EXPECT_EQ(fp_dftl, fp_ftl);
  // Pinned serial fingerprint: any change to the DFTL write path, the RNG or
  // the trace shape shows up here. Recompute deliberately, never casually.
  EXPECT_EQ(fp_dftl, 0x7e35be950f6d778eull);
}

}  // namespace
}  // namespace swl::dftl
