#include "ftl/ftl.hpp"

#include <algorithm>

#include "core/contracts.hpp"

namespace swl::ftl {

using nand::PageState;

Ftl::Ftl(nand::NandChip& chip, FtlConfig config)
    : tl::TranslationLayer(chip),
      config_(config),
      pool_(chip.geometry().block_count, config.alloc_policy),
      scanner_(chip.geometry().block_count),
      vindex_(chip.geometry().block_count, chip.geometry().pages_per_block,
              config.gc_cost_weight) {
  init_config();
  for (BlockIndex b = 0; b < chip.geometry().block_count; ++b) {
    pool_.add(b, chip.erase_count(b));
  }
}

Ftl::Ftl(nand::NandChip& chip, FtlConfig config, MountTag)
    : tl::TranslationLayer(chip),
      config_(config),
      pool_(chip.geometry().block_count, config.alloc_policy),
      scanner_(chip.geometry().block_count),
      vindex_(chip.geometry().block_count, chip.geometry().pages_per_block,
              config.gc_cost_weight) {
  init_config();
  rebuild_from_flash();
}

std::unique_ptr<Ftl> Ftl::mount(nand::NandChip& chip, FtlConfig config) {
  return std::unique_ptr<Ftl>(new Ftl(chip, config, MountTag{}));
}

void Ftl::init_config() {
  const auto& geo = chip().geometry();
  // Keep at least two blocks of over-provisioning (three with hot/cold
  // separation): every write frontier plus one GC destination must always be
  // allocatable even when every exported LBA holds valid data.
  const std::uint64_t reserve_pages =
      (config_.hot_cold_separation ? 3ULL : 2ULL) * geo.pages_per_block;
  SWL_REQUIRE(geo.page_count() > reserve_pages, "flash too small for an FTL");
  if (config_.lba_count == 0) {
    config_.lba_count = static_cast<Lba>(
        std::min(geo.page_count() * 98 / 100, geo.page_count() - reserve_pages));
  }
  SWL_REQUIRE(config_.lba_count + reserve_pages <= geo.page_count(),
              "FTL needs at least two blocks of over-provisioning (three with "
              "hot/cold separation)");
  if (config_.hot_cold_separation) hot_id_.emplace(config_.hotness);
  SWL_REQUIRE(config_.min_free_blocks >= 2, "FTL needs at least 2 reserve blocks");
  SWL_REQUIRE(geo.block_count > config_.min_free_blocks, "flash too small for the reserve");
  SWL_REQUIRE(config_.gc_trigger_fraction >= 0.0 && config_.gc_trigger_fraction < 1.0,
              "gc_trigger_fraction out of range");
  map_.assign(config_.lba_count, kInvalidPpa);
  last_write_seq_.assign(geo.block_count, 0);
  gc_trigger_cached_ = gc_trigger_level();
  bytes_mode_ = chip().config().store_payload_bytes;
  use_victim_index_ = !config_.reference_victim_scan;
}

void Ftl::rebuild_from_flash() {
  const auto& geo = chip().geometry();
  // Pass 1: the newest version of every LBA wins; everything else (stale
  // versions, garbage pages that fail ECC) is invalidated.
  std::vector<std::uint64_t> winning_sequence(config_.lba_count, 0);
  for (BlockIndex b = 0; b < geo.block_count; ++b) {
    for (PageIndex p = 0; p < geo.pages_per_block; ++p) {
      const Ppa addr{b, p};
      if (chip().page_state(addr) != PageState::valid) continue;
      const nand::SpareArea& spare = chip().spare(addr);
      write_sequence_ = std::max(write_sequence_, spare.sequence);
      last_write_seq_[b] = std::max(last_write_seq_[b], spare.sequence);
      if (spare.lba == kInvalidLba || spare.lba >= config_.lba_count) {
        // Benign discard: mount-scan invalidation of a page a crash may
        // already have consumed — page_not_programmed just means the work
        // is already done. (Same caveat for the two discards below.)
        discard_status(chip().invalidate_page(addr));  // unreadable / out of range
        continue;
      }
      const Ppa previous = map_[spare.lba];
      if (!previous.valid() || spare.sequence > winning_sequence[spare.lba]) {
        // Benign discard: superseding an older copy of this LBA.
        if (previous.valid()) discard_status(chip().invalidate_page(previous));
        map_[spare.lba] = addr;
        winning_sequence[spare.lba] = spare.sequence;
      } else {
        // Benign discard: this page lost to a newer copy.
        discard_status(chip().invalidate_page(addr));
      }
    }
  }
  // Pass 2: rebuild the pool from fully erased blocks and re-adopt the
  // partially written blocks with the largest free tails as frontiers (the
  // FTL programs sequentially, so free pages always form a tail). Any
  // further partial blocks are left as data blocks; their free tails are
  // reclaimed when garbage collection recycles them.
  std::vector<std::pair<PageIndex, BlockIndex>> partial;  // (free pages, block)
  for (BlockIndex b = 0; b < geo.block_count; ++b) {
    if (chip().is_retired(b)) continue;
    const PageIndex free_pages = chip().free_page_count(b);
    if (free_pages == geo.pages_per_block) {
      pool_.add(b, chip().erase_count(b));
    } else if (free_pages > 0) {
      bool tail_is_free = true;
      for (PageIndex p = geo.pages_per_block - free_pages; p < geo.pages_per_block; ++p) {
        if (chip().page_state({b, p}) != PageState::free) {
          tail_is_free = false;
          break;
        }
      }
      if (tail_is_free) partial.emplace_back(free_pages, b);
    }
  }
  std::sort(partial.rbegin(), partial.rend());
  const auto adopt = [&](std::size_t i, BlockIndex& frontier, PageIndex& next_page) {
    if (i >= partial.size()) return;
    frontier = partial[i].second;
    next_page = geo.pages_per_block - partial[i].first;
  };
  adopt(0, host_frontier_, host_next_page_);
  adopt(1, gc_frontier_, gc_next_page_);
  if (config_.hot_cold_separation) adopt(2, hot_frontier_, hot_next_page_);
  // The passes above invalidated stale pages in place; synchronize the
  // victim index with the chip's real counts once. Retired blocks never
  // enter the index.
  for (BlockIndex b = 0; b < geo.block_count; ++b) {
    if (!chip().is_retired(b)) sync_victim(b);
  }
}

BlockIndex Ftl::gc_trigger_level() const noexcept {
  const auto frac = static_cast<BlockIndex>(config_.gc_trigger_fraction *
                                            static_cast<double>(chip().geometry().block_count));
  return std::max(config_.min_free_blocks, frac);
}

Ppa Ftl::take_frontier_page(BlockIndex& frontier, PageIndex& next_page) {
  const PageIndex pages = chip().geometry().pages_per_block;
  if (frontier == kInvalidBlock || next_page >= pages) {
    SWL_ASSERT(!pool_.empty(), "free-block pool exhausted");
    frontier = pool_.take();
    next_page = 0;
    SWL_ASSERT(chip().free_page_count(frontier) == pages, "pooled block was not empty");
  }
  return Ppa{frontier, next_page++};
}

Status Ftl::write(Lba lba, std::uint64_t payload_token) {
  return write_internal(lba, payload_token, {});
}

Status Ftl::write(Lba lba, std::uint64_t payload_token, std::span<const std::uint8_t> data) {
  SWL_REQUIRE(chip().config().store_payload_bytes,
              "byte-accurate writes need a chip with store_payload_bytes");
  SWL_REQUIRE(data.size() == chip().geometry().page_size_bytes,
              "data must be exactly one page");
  return write_internal(lba, payload_token, data);
}

Status Ftl::write_internal(Lba lba, std::uint64_t payload_token,
                           std::span<const std::uint8_t> data) {
  SWL_REQUIRE(lba < config_.lba_count, "LBA out of range");
  maybe_gc();
  // With hot/cold separation, hot-classified writes get their own frontier
  // so blocks tend to hold data of one lifetime class.
  bool hot = false;
  if (hot_id_.has_value()) {
    hot_id_->record_write(lba);
    hot = hot_id_->is_hot(lba);
  }
  BlockIndex& frontier = hot ? hot_frontier_ : host_frontier_;
  PageIndex& next_page = hot ? hot_next_page_ : host_next_page_;
  Ppa dst;
  while (true) {
    // A host write may only open a new frontier block when at least one
    // other free block remains: the last free block is reserved for garbage
    // collection, which would otherwise have no destination for live copies
    // and wedge the device.
    const bool need_new_block =
        frontier == kInvalidBlock || next_page >= chip().geometry().pages_per_block;
    if (need_new_block && pool_.size() < 2) return Status::out_of_space;
    dst = take_frontier_page(frontier, next_page);
    const Status st = chip().program_page(
        dst, payload_token, nand::SpareArea{lba, ++write_sequence_, 0}, data);
    sync_victim(dst.block);  // a failed program consumes the page: counts moved either way
    if (st == Status::ok) {
      last_write_seq_[dst.block] = write_sequence_;
      break;
    }
    // A failed program consumes the page; retry on the next frontier page.
    SWL_ASSERT(st == Status::program_failed, "frontier page was not programmable");
  }
  const Ppa old = map_[lba];
  if (old.valid()) {
    const Status inv = chip().invalidate_page(old);
    SWL_ASSERT(inv == Status::ok, "stale mapping pointed at an unprogrammed page");
    sync_victim(old.block);
  }
  map_[lba] = dst;
  finish_host_write();
  return Status::ok;
}

Status Ftl::read(Lba lba, std::uint64_t* payload_token) {
  SWL_REQUIRE(lba < config_.lba_count, "LBA out of range");
  SWL_REQUIRE(payload_token != nullptr, "null output");
  const Ppa src = map_[lba];
  if (!src.valid()) return Status::lba_not_mapped;
  const std::uint64_t token = chip().read_token(src);
  SWL_ASSERT(chip().spare(src).lba == lba, "spare-area LBA does not match the mapping");
  *payload_token = token;
  finish_host_read();
  return Status::ok;
}

Status Ftl::read_bytes(Lba lba, std::span<std::uint8_t> out) {
  SWL_REQUIRE(lba < config_.lba_count, "LBA out of range");
  SWL_REQUIRE(out.size() == chip().geometry().page_size_bytes, "out must be exactly one page");
  const Ppa src = map_[lba];
  if (!src.valid()) return Status::lba_not_mapped;
  const nand::PageReadResult r = chip().read_page(src);
  SWL_ASSERT(r.status == Status::ok, "mapping pointed at an unreadable page");
  std::fill(out.begin(), out.end(), std::uint8_t{0});
  std::copy(r.data.begin(), r.data.end(), out.begin());
  finish_host_read();
  return Status::ok;
}

Ppa Ftl::translate(Lba lba) const {
  SWL_REQUIRE(lba < config_.lba_count, "LBA out of range");
  return map_[lba];
}

void Ftl::maybe_gc() {
  // Seal frontiers that are full: they hold no free pages anymore, so they
  // are plain data blocks and must be visible to victim selection (hot
  // overwrites concentrate invalid pages exactly there).
  const PageIndex pages = chip().geometry().pages_per_block;
  if (host_frontier_ != kInvalidBlock && host_next_page_ >= pages) {
    host_frontier_ = kInvalidBlock;
  }
  if (gc_frontier_ != kInvalidBlock && gc_next_page_ >= pages) {
    gc_frontier_ = kInvalidBlock;
  }
  if (hot_frontier_ != kInvalidBlock && hot_next_page_ >= pages) {
    hot_frontier_ = kInvalidBlock;
  }
  while (pool_.size() < gc_trigger_cached_) {
    if (!gc_once()) break;
  }
}

bool Ftl::gc_once() {
  const auto& geo = chip().geometry();
  if (config_.victim_policy == tl::VictimPolicy::cost_benefit_age) {
    // LFS-style: maximize age * (1-u) / 2u over blocks with anything to
    // reclaim.
    BlockIndex best = kInvalidBlock;
    double best_score = 0.0;
    for (BlockIndex b = 0; b < geo.block_count; ++b) {
      if (b == host_frontier_ || b == gc_frontier_ || b == hot_frontier_) continue;
      if (pool_.contains(b) || chip().is_retired(b)) continue;
      if (chip().invalid_page_count(b) == 0) continue;
      const auto age = static_cast<double>(write_sequence_ - last_write_seq_[b]);
      const double score =
          tl::cost_benefit_score(chip().valid_page_count(b), geo.pages_per_block, age);
      if (best == kInvalidBlock || score > best_score) {
        best = b;
        best_score = score;
      }
    }
    if (best == kInvalidBlock) return false;
    return clean_block(best);
  }
  // Greedy cost/benefit selection via cyclic scan (Section 5.1).
  BlockIndex victim = kInvalidBlock;
  if (use_victim_index_) {
    // Index-accelerated equivalent of the reference scan below: hop over the
    // positive-score blocks from the cursor instead of probing every block.
    // Positive-score blocks are never pooled (pooled blocks score 0) nor
    // retired (removed from the index on retirement), so only the write
    // frontiers need filtering here. A full wrap (b == first again) means
    // every positive block is a frontier — same outcome as a fruitless cycle.
    vindex_.flush(chip());
    if (vindex_.any_positive()) {
      std::size_t start = scanner_.cursor();
      BlockIndex first = kInvalidBlock;
      while (true) {
        const auto b = static_cast<BlockIndex>(vindex_.next_positive(start));
        if (first == kInvalidBlock) {
          first = b;
        } else if (b == first) {
          break;
        }
        if (b != host_frontier_ && b != gc_frontier_ && b != hot_frontier_) {
          victim = b;
          break;
        }
        start = (b + 1 == geo.block_count) ? 0 : b + 1;
      }
    }
    if (victim != kInvalidBlock) {
      scanner_.advance_past(victim);
    } else {
      // Fallback (reference semantics below): most invalid pages, ties to the
      // least-worn, then the lowest index; frontiers are eligible here.
      victim = vindex_.most_invalid(chip());
    }
    if (victim == kInvalidBlock) return false;
    return clean_block(victim);
  }
  victim = scanner_.next([&](BlockIndex b) {
    if (b == host_frontier_ || b == gc_frontier_ || b == hot_frontier_) return false;
    if (pool_.contains(b) || chip().is_retired(b)) return false;
    return tl::gc_score(chip().valid_page_count(b), chip().invalid_page_count(b),
                        config_.gc_cost_weight) > 0.0;
  });
  if (victim == kInvalidBlock) {
    // No block clears the greedy bar; fall back to the most-invalid block
    // (ties to the least-worn — dynamic wear leveling) so space can still be
    // reclaimed under pressure. Unlike the scan above, the fallback may also
    // collect a partially-filled frontier: superseded copies can pile up
    // there, and excluding it would wedge the device (clean_block closes the
    // frontier before recycling it).
    PageIndex best_invalid = 0;
    std::uint32_t best_erases = 0;
    for (BlockIndex b = 0; b < geo.block_count; ++b) {
      if (pool_.contains(b) || chip().is_retired(b)) continue;
      const PageIndex invalid = chip().invalid_page_count(b);
      if (invalid == 0) continue;
      if (victim == kInvalidBlock || invalid > best_invalid ||
          (invalid == best_invalid && chip().erase_count(b) < best_erases)) {
        victim = b;
        best_invalid = invalid;
        best_erases = chip().erase_count(b);
      }
    }
  }
  if (victim == kInvalidBlock) return false;
  return clean_block(victim);
}

bool Ftl::clean_block(BlockIndex victim) {
  const auto& geo = chip().geometry();
  // Capacity guard: make sure every live page of the victim has a
  // destination before touching anything. Regular GC victims always fit (an
  // invalid page implies valid < pages_per_block and the reserved GC block
  // provides pages_per_block destinations); this protects SWL-requested
  // collections under extreme space pressure.
  const PageIndex gc_frontier_space =
      (gc_frontier_ == kInvalidBlock || victim == gc_frontier_)
          ? 0
          : geo.pages_per_block - gc_next_page_;
  const std::uint64_t destinations =
      gc_frontier_space + pool_.size() * static_cast<std::uint64_t>(geo.pages_per_block);
  if (chip().valid_page_count(victim) > destinations) return false;
  // Close frontiers that are being collected (SWL may select them).
  if (victim == host_frontier_) host_frontier_ = kInvalidBlock;
  if (victim == gc_frontier_) gc_frontier_ = kInvalidBlock;
  if (victim == hot_frontier_) hot_frontier_ = kInvalidBlock;
  for (PageIndex p = 0; p < geo.pages_per_block; ++p) {
    const Ppa src{victim, p};
    if (chip().page_state(src) != PageState::valid) continue;
    // Lean copy on token-only chips: peek the spare (free), read just the
    // token (same tick/counter effects as read_page), skip the result-struct
    // assembly. Byte-carrying chips go through read_page for r.data.
    std::uint64_t payload_token;
    nand::PageRole role;
    std::span<const std::uint8_t> data;
    Lba lba;
    if (bytes_mode_) {
      const nand::PageReadResult r = chip().read_page(src);
      SWL_ASSERT(r.status == Status::ok, "valid page unreadable during GC");
      payload_token = r.payload_token;
      role = r.spare.role;
      data = r.data;
      lba = r.spare.lba;
    } else {
      payload_token = chip().read_token(src);
      const nand::SpareArea& sp = chip().spare(src);
      role = sp.role;
      lba = sp.lba;
    }
    SWL_ASSERT(lba < config_.lba_count && map_[lba] == src,
               "valid page not referenced by the translation table");
    while (true) {
      const bool need_new_block =
          gc_frontier_ == kInvalidBlock || gc_next_page_ >= geo.pages_per_block;
      if (need_new_block && pool_.empty()) {
        // Out of destinations (possible only under media-error storms or
        // SWL collections at extreme pressure): stop here. Pages already
        // relocated were invalidated at their source, so the partially
        // cleaned victim stays fully consistent — it just is not erased.
        return false;
      }
      const Ppa dst = take_frontier_page(gc_frontier_, gc_next_page_);
      // A fresh sequence number: if power is lost between this copy and the
      // victim's erase, the mount scan must prefer the copy.
      const Status st = chip().program_page(
          dst, payload_token, nand::SpareArea{lba, ++write_sequence_, 0, role}, data);
      sync_victim(dst.block);
      if (st == Status::ok) {
        map_[lba] = dst;
        last_write_seq_[dst.block] = write_sequence_;
        break;
      }
      SWL_ASSERT(st == Status::program_failed, "GC destination page was not programmable");
    }
    const Status inv = chip().invalidate_page(src);
    SWL_ASSERT(inv == Status::ok, "relocated source page was not invalidatable");
    sync_victim(victim);
    count_live_copy();
  }
  const Status st = chip().erase_block(victim);
  if (st == Status::ok) {
    pool_.add(victim, chip().erase_count(victim));
  }
  // Erased (score 0, no invalid pages) or retired: either way the block
  // leaves the index until it is programmed again.
  if (use_victim_index_) vindex_.remove(victim);
  // A worn-out, retired block is silently dropped from circulation.
  return true;
}

void Ftl::do_collect_blocks(BlockIndex first, BlockIndex count) {
  const auto& geo = chip().geometry();
  SWL_REQUIRE(first < geo.block_count && count > 0 && first + count <= geo.block_count,
              "block set out of range");
  for (BlockIndex b = first; b < first + count; ++b) {
    if (chip().is_retired(b)) continue;
    if (pool_.empty() && !pool_.contains(b)) continue;  // no destination for copies
    if (pool_.contains(b)) {
      // A free block simply gets its erase (and thereby its BET flag).
      pool_.remove(b);
      if (chip().erase_block(b) == Status::ok) pool_.add(b, chip().erase_count(b));
      continue;
    }
    clean_block(b);
  }
}

void Ftl::check_invariants() const {
  const auto& geo = chip().geometry();
  std::uint64_t mapped = 0;
  for (Lba lba = 0; lba < config_.lba_count; ++lba) {
    const Ppa p = map_[lba];
    if (!p.valid()) continue;
    ++mapped;
    SWL_ASSERT(chip().page_state(p) == PageState::valid, "map points at a non-valid page");
    SWL_ASSERT(chip().spare(p).lba == lba, "map and spare area disagree");
  }
  std::uint64_t valid_pages = 0;
  for (BlockIndex b = 0; b < geo.block_count; ++b) {
    valid_pages += chip().valid_page_count(b);
    if (pool_.contains(b)) {
      SWL_ASSERT(chip().free_page_count(b) == geo.pages_per_block, "pooled block not empty");
    }
  }
  SWL_ASSERT(mapped == valid_pages, "mapped LBA count != valid page count");
}

}  // namespace swl::ftl
