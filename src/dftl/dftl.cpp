#include "dftl/dftl.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "core/contracts.hpp"

namespace swl::dftl {

using nand::PageState;

Dftl::Dftl(nand::NandChip& chip, DftlConfig config)
    : tl::TranslationLayer(chip),
      config_(config),
      pool_(chip.geometry().block_count, config.alloc_policy),
      dscanner_(chip.geometry().block_count),
      tscanner_(chip.geometry().block_count),
      dindex_(chip.geometry().block_count, chip.geometry().pages_per_block,
              config.gc_cost_weight),
      tindex_(chip.geometry().block_count, chip.geometry().pages_per_block,
              config.gc_cost_weight) {
  init_config();
  for (BlockIndex b = 0; b < chip.geometry().block_count; ++b) {
    pool_.add(b, chip.erase_count(b));
  }
}

Dftl::Dftl(nand::NandChip& chip, DftlConfig config, MountTag)
    : tl::TranslationLayer(chip),
      config_(config),
      pool_(chip.geometry().block_count, config.alloc_policy),
      dscanner_(chip.geometry().block_count),
      tscanner_(chip.geometry().block_count),
      dindex_(chip.geometry().block_count, chip.geometry().pages_per_block,
              config.gc_cost_weight),
      tindex_(chip.geometry().block_count, chip.geometry().pages_per_block,
              config.gc_cost_weight) {
  init_config();
  rebuild_from_flash();
}

std::unique_ptr<Dftl> Dftl::mount(nand::NandChip& chip, DftlConfig config) {
  return std::unique_ptr<Dftl>(new Dftl(chip, config, MountTag{}));
}

void Dftl::init_config() {
  const auto& geo = chip().geometry();
  SWL_REQUIRE(chip().config().store_payload_bytes,
              "DFTL stores translation pages as byte payloads; configure the chip "
              "with store_payload_bytes");
  if (config_.lbas_per_tpage == 0) config_.lbas_per_tpage = geo.page_size_bytes / 4;
  SWL_REQUIRE(config_.lbas_per_tpage >= 1, "page too small for one map entry");
  SWL_REQUIRE(config_.lbas_per_tpage * 4ULL <= geo.page_size_bytes,
              "lbas_per_tpage entries do not fit one page");
  SWL_REQUIRE(geo.page_count() < kUnmappedEntry, "too many pages for packed 32-bit map entries");
  SWL_REQUIRE(config_.min_free_blocks >= 3,
              "DFTL needs at least 3 reserve blocks (data frontier + translation "
              "frontier + GC destination)");
  SWL_REQUIRE(geo.block_count > config_.min_free_blocks, "flash too small for the reserve");
  SWL_REQUIRE(config_.gc_trigger_fraction >= 0.0 && config_.gc_trigger_fraction < 1.0,
              "gc_trigger_fraction out of range");
  SWL_REQUIRE(config_.writeback_batch >= 1, "writeback_batch must be >= 1");
  const std::uint64_t reserve_pages =
      static_cast<std::uint64_t>(config_.min_free_blocks) * geo.pages_per_block;
  SWL_REQUIRE(geo.page_count() > reserve_pages, "flash too small for a DFTL");
  if (config_.lba_count == 0) {
    // Split the usual 98% budget between data pages and the translation
    // pages that map them: R data pages need 1 translation page.
    const std::uint64_t budget =
        std::min(geo.page_count() * 98 / 100, geo.page_count() - reserve_pages);
    const std::uint64_t r = config_.lbas_per_tpage;
    config_.lba_count = static_cast<Lba>(budget * r / (r + 1));
  }
  SWL_REQUIRE(config_.lba_count >= 1, "flash too small for a DFTL");
  tpage_count_ = static_cast<Lba>(
      (static_cast<std::uint64_t>(config_.lba_count) + config_.lbas_per_tpage - 1) /
      config_.lbas_per_tpage);
  SWL_REQUIRE(config_.lba_count + tpage_count_ + reserve_pages <= geo.page_count(),
              "DFTL needs room for every data page, every translation page and "
              "the block reserve");
  if (config_.cmt_capacity == 0) {
    config_.cmt_capacity = std::max<std::uint32_t>(1, tpage_count_ / 8);
  }
  // Capacity beyond the translation-page count buys nothing.
  config_.cmt_capacity = std::min<std::uint32_t>(config_.cmt_capacity, tpage_count_);

  gtd_.assign(tpage_count_, kInvalidPpa);
  cmt_arena_.assign(static_cast<std::size_t>(config_.cmt_capacity) * config_.lbas_per_tpage,
                    kUnmappedEntry);
  slot_of_.assign(tpage_count_, kNoSlot);
  tvpn_of_slot_.assign(config_.cmt_capacity, kInvalidLba);
  slot_dirty_.assign(config_.cmt_capacity, 0);
  lru_prev_.assign(config_.cmt_capacity, kNoSlot);
  lru_next_.assign(config_.cmt_capacity, kNoSlot);
  free_slots_.clear();
  free_slots_.reserve(config_.cmt_capacity);
  for (std::uint32_t s = config_.cmt_capacity; s > 0; --s) free_slots_.push_back(s - 1);

  class_of_.assign(geo.block_count, BlockClass::free);
  tpage_buf_.assign(geo.page_size_bytes, 0);
  rmw_entries_.assign(config_.lbas_per_tpage, kUnmappedEntry);
  gc_trigger_cached_ = gc_trigger_level();
  use_victim_index_ = !config_.reference_victim_scan;
}

BlockIndex Dftl::gc_trigger_level() const noexcept {
  const auto frac = static_cast<BlockIndex>(config_.gc_trigger_fraction *
                                            static_cast<double>(chip().geometry().block_count));
  return std::max(config_.min_free_blocks, frac);
}

// -- packed translation-page codec -------------------------------------------

// The on-flash format is little-endian u32 entries, so both directions are a
// plain word copy on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "the translation-page codec copies entries as little-endian words");

void Dftl::encode_tpage(const std::uint32_t* entries) {
  // tpage_buf_'s tail past the entries was zeroed by init_config and nothing
  // else writes it, so only the entries are copied.
  std::memcpy(tpage_buf_.data(), entries, sizeof(std::uint32_t) * config_.lbas_per_tpage);
}

std::span<const std::uint8_t> Dftl::read_tpage(Ppa src) const {
  const nand::PageReadResult r = chip().read_page(src);
  SWL_ASSERT(r.status == Status::ok, "translation page unreadable");
  SWL_ASSERT(r.spare.role == nand::PageRole::translation,
             "GTD points at a non-translation page");
  SWL_ASSERT(r.data.size() >= sizeof(std::uint32_t) * config_.lbas_per_tpage,
             "translation page stored without its byte payload");
  return r.data;
}

void Dftl::peek_tpage(Ppa src, std::uint32_t* entries) const {
  std::memcpy(entries, read_tpage(src).data(), sizeof(std::uint32_t) * config_.lbas_per_tpage);
}

void Dftl::decode_tpage(Ppa src, std::uint32_t* entries) {
  peek_tpage(src, entries);
  count_map_read();
}

std::uint32_t Dftl::peek_entry(Ppa tpage, std::uint32_t idx) const {
  std::uint32_t e = 0;
  std::memcpy(&e, read_tpage(tpage).data() + sizeof(std::uint32_t) * idx, sizeof(e));
  return e;
}

// -- CMT (exact LRU over a flat arena) ---------------------------------------

void Dftl::lru_unlink(std::uint32_t slot) {
  const std::uint32_t prev = lru_prev_[slot];
  const std::uint32_t next = lru_next_[slot];
  if (prev != kNoSlot) lru_next_[prev] = next; else lru_head_ = next;
  if (next != kNoSlot) lru_prev_[next] = prev; else lru_tail_ = prev;
  lru_prev_[slot] = kNoSlot;
  lru_next_[slot] = kNoSlot;
}

void Dftl::lru_push_front(std::uint32_t slot) {
  lru_prev_[slot] = kNoSlot;
  lru_next_[slot] = lru_head_;
  if (lru_head_ != kNoSlot) lru_prev_[lru_head_] = slot;
  lru_head_ = slot;
  if (lru_tail_ == kNoSlot) lru_tail_ = slot;
}

void Dftl::lru_touch(std::uint32_t slot) {
  if (lru_head_ == slot) return;
  lru_unlink(slot);
  lru_push_front(slot);
}

Ppa Dftl::try_program_tpage(Lba tvpn, const std::uint32_t* entries, TpageWrite cause) {
  encode_tpage(entries);
  const PageIndex pages = chip().geometry().pages_per_block;
  Ppa dst;
  while (true) {
    const bool need_new_block =
        trans_frontier_ == kInvalidBlock || trans_next_page_ >= pages;
    if (need_new_block && pool_.empty()) return kInvalidPpa;
    dst = take_frontier_page(trans_frontier_, trans_next_page_, BlockClass::translation);
    // spare.lba carries the translation virtual page number; the token
    // mirrors it so the simulated ECC covers something stable.
    const Status st = chip().program_page(
        dst, tvpn, nand::SpareArea{tvpn, ++write_sequence_, 0, nand::PageRole::translation},
        tpage_buf_);
    sync_victim(dst.block);
    if (st == Status::ok) break;
    SWL_ASSERT(st == Status::program_failed, "translation frontier page was not programmable");
  }
  const Ppa old = gtd_[tvpn];
  if (old.valid()) {
    const Status inv = chip().invalidate_page(old);
    SWL_ASSERT(inv == Status::ok, "stale translation page was not invalidatable");
    sync_victim(old.block);
  }
  gtd_[tvpn] = dst;
  count_map_write();
  if (sink_ != nullptr) sink_->on_tpage_program(tvpn, dst, cause);
  return dst;
}

bool Dftl::write_back_slot(std::uint32_t slot, TpageWrite cause) {
  const Ppa dst = try_program_tpage(tvpn_of_slot_[slot], slot_entries(slot), cause);
  if (!dst.valid()) return false;
  slot_dirty_[slot] = 0;
  return true;
}

bool Dftl::cannot_afford_writeback() const {
  // A miss with every slot occupied and a dirty LRU tail needs a write-back;
  // when that write-back would have to open a new translation-frontier block
  // and fewer than two free blocks remain (the last one is reserved for GC),
  // the caller must not evict. Writes report out_of_space; reads fall back
  // to an uncached peek of the flash translation page.
  if (!free_slots_.empty()) return false;
  if (lru_tail_ == kNoSlot || slot_dirty_[lru_tail_] == 0) return false;
  const bool need_new_block = trans_frontier_ == kInvalidBlock ||
                              trans_next_page_ >= chip().geometry().pages_per_block;
  return need_new_block && pool_.size() < 2;
}

std::uint32_t Dftl::ensure_resident(Lba tvpn) {
  std::uint32_t slot = slot_of_[tvpn];
  if (slot != kNoSlot) {
    ++stats_.cmt_hits;
    lru_touch(slot);
    return slot;
  }
  ++stats_.cmt_misses;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = lru_tail_;
    SWL_ASSERT(slot != kNoSlot, "CMT has neither a free slot nor an LRU tail");
    if (slot_dirty_[slot] != 0) {
      if (!write_back_slot(slot, TpageWrite::writeback)) return kNoSlot;
      ++stats_.writebacks;
      // Dirty write-back batching: flush further dirty pages from the cold
      // end of the LRU list while the batch allows and the open translation
      // frontier has room (batched flushes never open a new block). The
      // extras stay resident, now clean.
      std::uint32_t flushed = 1;
      std::uint32_t cur = lru_prev_[slot];
      while (flushed < config_.writeback_batch && cur != kNoSlot) {
        const std::uint32_t next_cold = lru_prev_[cur];
        if (slot_dirty_[cur] != 0) {
          if (trans_frontier_ == kInvalidBlock ||
              trans_next_page_ >= chip().geometry().pages_per_block) {
            break;
          }
          if (!write_back_slot(cur, TpageWrite::writeback)) break;
          ++stats_.batched_writebacks;
          ++flushed;
        }
        cur = next_cold;
      }
    }
    ++stats_.cmt_evictions;
    const Lba victim = tvpn_of_slot_[slot];
    lru_unlink(slot);
    slot_of_[victim] = kNoSlot;
    --resident_count_;
    if (sink_ != nullptr) sink_->on_evict(victim);
  }
  std::uint32_t* entries = slot_entries(slot);
  const Ppa tpage = gtd_[tvpn];
  if (tpage.valid()) {
    decode_tpage(tpage, entries);
    ++stats_.fetches;
  } else {
    std::fill(entries, entries + config_.lbas_per_tpage, kUnmappedEntry);
  }
  slot_dirty_[slot] = 0;
  tvpn_of_slot_[slot] = tvpn;
  slot_of_[tvpn] = slot;
  lru_push_front(slot);
  ++resident_count_;
  if (sink_ != nullptr) sink_->on_fetch(tvpn, tpage.valid());
  return slot;
}

// -- frontiers / space -------------------------------------------------------

Ppa Dftl::take_frontier_page(BlockIndex& frontier, PageIndex& next_page, BlockClass cls) {
  const PageIndex pages = chip().geometry().pages_per_block;
  if (frontier == kInvalidBlock || next_page >= pages) {
    SWL_ASSERT(!pool_.empty(), "free-block pool exhausted");
    frontier = pool_.take();
    next_page = 0;
    SWL_ASSERT(chip().free_page_count(frontier) == pages, "pooled block was not empty");
    class_of_[frontier] = cls;
  }
  return Ppa{frontier, next_page++};
}

// -- host paths ---------------------------------------------------------------

Status Dftl::write(Lba lba, std::uint64_t payload_token) {
  return write_internal(lba, payload_token, {});
}

Status Dftl::write(Lba lba, std::uint64_t payload_token, std::span<const std::uint8_t> data) {
  SWL_REQUIRE(data.size() == chip().geometry().page_size_bytes,
              "data must be exactly one page");
  return write_internal(lba, payload_token, data);
}

Status Dftl::write_internal(Lba lba, std::uint64_t payload_token,
                            std::span<const std::uint8_t> data) {
  SWL_REQUIRE(lba < config_.lba_count, "LBA out of range");
  maybe_gc();
  const Lba tvpn = tvpn_of(lba);
  if (slot_of_[tvpn] == kNoSlot && cannot_afford_writeback()) return Status::out_of_space;
  const std::uint32_t slot = ensure_resident(tvpn);
  if (slot == kNoSlot) return Status::out_of_space;  // eviction write-back had no space
  Ppa dst;
  while (true) {
    // Same reserve rule as the FTL: a host write may only open a new frontier
    // block when at least one other free block remains for GC.
    const bool need_new_block =
        host_frontier_ == kInvalidBlock || host_next_page_ >= chip().geometry().pages_per_block;
    if (need_new_block && pool_.size() < 2) return Status::out_of_space;
    dst = take_frontier_page(host_frontier_, host_next_page_, BlockClass::data);
    const Status st = chip().program_page(
        dst, payload_token, nand::SpareArea{lba, ++write_sequence_, 0}, data);
    sync_victim(dst.block);  // a failed program consumes the page either way
    if (st == Status::ok) break;
    SWL_ASSERT(st == Status::program_failed, "frontier page was not programmable");
  }
  std::uint32_t* entries = slot_entries(slot);
  const std::uint32_t idx = lba % config_.lbas_per_tpage;
  const Ppa old = unpack_entry(entries[idx]);
  if (old.valid()) {
    const Status inv = chip().invalidate_page(old);
    SWL_ASSERT(inv == Status::ok, "stale mapping pointed at an unprogrammed page");
    sync_victim(old.block);
  }
  entries[idx] = pack_entry(dst);
  slot_dirty_[slot] = 1;
  if (sink_ != nullptr) sink_->on_mark_dirty(tvpn);
  finish_host_write();
  return Status::ok;
}

Status Dftl::lookup_for_read(Lba lba, Ppa* src) {
  SWL_REQUIRE(lba < config_.lba_count, "LBA out of range");
  // A cache miss may have to write back a dirty translation page, so reads
  // maintain the free-block level too (unlike the in-RAM FTL, a DFTL read is
  // not write-free).
  if (pool_.size() < gc_trigger_cached_) maybe_gc();
  const Lba tvpn = tvpn_of(lba);
  const std::uint32_t idx = lba % config_.lbas_per_tpage;
  std::uint32_t slot = kNoSlot;
  if (slot_of_[tvpn] != kNoSlot || !cannot_afford_writeback()) {
    slot = ensure_resident(tvpn);
  }
  if (slot == kNoSlot) {
    // No room to evict (or the eviction write-back found no destination,
    // possible under media-error storms): read the map entry straight from
    // flash, uncached. Reads must stay available even with a full dirty CMT
    // and an exhausted pool.
    const Ppa tpage = gtd_[tvpn];
    if (!tpage.valid()) return Status::lba_not_mapped;
    *src = unpack_entry(peek_entry(tpage, idx));
    count_map_read();
  } else {
    *src = unpack_entry(slot_entries(slot)[idx]);
  }
  return src->valid() ? Status::ok : Status::lba_not_mapped;
}

Status Dftl::read(Lba lba, std::uint64_t* payload_token) {
  SWL_REQUIRE(payload_token != nullptr, "null output");
  Ppa src;
  const Status st = lookup_for_read(lba, &src);
  if (st != Status::ok) return st;
  const std::uint64_t token = chip().read_token(src);
  SWL_ASSERT(chip().spare(src).lba == lba, "spare-area LBA does not match the mapping");
  *payload_token = token;
  finish_host_read();
  return Status::ok;
}

Status Dftl::read_bytes(Lba lba, std::span<std::uint8_t> out) {
  SWL_REQUIRE(out.size() == chip().geometry().page_size_bytes, "out must be exactly one page");
  Ppa src;
  const Status st = lookup_for_read(lba, &src);
  if (st != Status::ok) return st;
  const nand::PageReadResult r = chip().read_page(src);
  SWL_ASSERT(r.status == Status::ok, "mapping pointed at an unreadable page");
  const auto tail = std::copy(r.data.begin(), r.data.end(), out.begin());
  std::fill(tail, out.end(), std::uint8_t{0});
  finish_host_read();
  return Status::ok;
}

// -- garbage collection -------------------------------------------------------

void Dftl::maybe_gc() {
  const PageIndex pages = chip().geometry().pages_per_block;
  if (host_frontier_ != kInvalidBlock && host_next_page_ >= pages) {
    host_frontier_ = kInvalidBlock;
  }
  if (gc_frontier_ != kInvalidBlock && gc_next_page_ >= pages) {
    gc_frontier_ = kInvalidBlock;
  }
  if (trans_frontier_ != kInvalidBlock && trans_next_page_ >= pages) {
    trans_frontier_ = kInvalidBlock;
  }
  while (pool_.size() < gc_trigger_cached_) {
    if (!gc_once()) break;
  }
}

BlockIndex Dftl::select_positive_victim(BlockClass cls) {
  const auto& geo = chip().geometry();
  tl::CyclicVictimScanner& scanner = (cls == BlockClass::data) ? dscanner_ : tscanner_;
  if (use_victim_index_) {
    tl::VictimIndex& index = (cls == BlockClass::data) ? dindex_ : tindex_;
    index.flush(chip());
    if (!index.any_positive()) return kInvalidBlock;
    BlockIndex victim = kInvalidBlock;
    std::size_t start = scanner.cursor();
    BlockIndex first = kInvalidBlock;
    while (true) {
      const auto b = static_cast<BlockIndex>(index.next_positive(start));
      if (first == kInvalidBlock) {
        first = b;
      } else if (b == first) {
        break;  // full wrap: every positive block of this class is a frontier
      }
      if (!is_frontier(b)) {
        victim = b;
        break;
      }
      start = (b + 1 == geo.block_count) ? 0 : b + 1;
    }
    if (victim != kInvalidBlock) scanner.advance_past(victim);
    return victim;
  }
  return scanner.next([&](BlockIndex b) {
    if (is_frontier(b) || class_of_[b] != cls) return false;
    if (pool_.contains(b) || chip().is_retired(b)) return false;
    return tl::gc_score(chip().valid_page_count(b), chip().invalid_page_count(b),
                        config_.gc_cost_weight) > 0.0;
  });
}

BlockIndex Dftl::select_fallback_victim() const {
  // Most invalid pages, ties to the least-worn, then the lowest index; both
  // classes compete and frontiers are eligible (superseded copies pile up
  // there, and excluding them could wedge the device).
  if (use_victim_index_) {
    const BlockIndex d = dindex_.most_invalid(chip());
    const BlockIndex t = tindex_.most_invalid(chip());
    if (d == kInvalidBlock) return t;
    if (t == kInvalidBlock) return d;
    const PageIndex di = chip().invalid_page_count(d);
    const PageIndex ti = chip().invalid_page_count(t);
    if (di != ti) return di > ti ? d : t;
    const std::uint32_t de = chip().erase_count(d);
    const std::uint32_t te = chip().erase_count(t);
    if (de != te) return de < te ? d : t;
    return std::min(d, t);
  }
  const auto& geo = chip().geometry();
  BlockIndex victim = kInvalidBlock;
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
  return victim;
}

bool Dftl::gc_once() {
  // One positive-score candidate per block class along each class's own
  // cyclic scan; when both classes have one, the better greedy score wins
  // (ties to data — the more numerous class). Translation-block GC thereby
  // competes with data GC for the same free blocks SWL levels.
  const BlockIndex d = select_positive_victim(BlockClass::data);
  const BlockIndex t = select_positive_victim(BlockClass::translation);
  BlockIndex victim = kInvalidBlock;
  if (d != kInvalidBlock && t != kInvalidBlock) {
    const double ds = tl::gc_score(chip().valid_page_count(d), chip().invalid_page_count(d),
                                   config_.gc_cost_weight);
    const double ts = tl::gc_score(chip().valid_page_count(t), chip().invalid_page_count(t),
                                   config_.gc_cost_weight);
    victim = (ts > ds) ? t : d;
  } else if (d != kInvalidBlock) {
    victim = d;
  } else if (t != kInvalidBlock) {
    victim = t;
  } else {
    victim = select_fallback_victim();
  }
  if (victim == kInvalidBlock) return false;
  return clean_block(victim);
}

bool Dftl::clean_block(BlockIndex victim) {
  return class_of_[victim] == BlockClass::translation ? clean_translation_block(victim)
                                                      : clean_data_block(victim);
}

bool Dftl::clean_data_block(BlockIndex victim) {
  const auto& geo = chip().geometry();
  SWL_ASSERT(victim != trans_frontier_, "data victim is the translation frontier");
  // Collect the victim's live pages and group them by translation page, so
  // one direct read-modify-write per distinct non-resident translation page
  // covers all its relocated entries (the DFTL batch update).
  struct LivePage {
    Lba tvpn;
    PageIndex page;
  };
  std::vector<LivePage> live;
  for (PageIndex p = 0; p < geo.pages_per_block; ++p) {
    if (chip().page_state({victim, p}) != PageState::valid) continue;
    const Lba lba = chip().spare({victim, p}).lba;
    SWL_ASSERT(lba < config_.lba_count, "valid data page with an out-of-range LBA");
    live.push_back({tvpn_of(lba), p});
  }
  std::sort(live.begin(), live.end(), [](const LivePage& a, const LivePage& b) {
    return a.tvpn != b.tvpn ? a.tvpn < b.tvpn : a.page < b.page;
  });
  // Exact destination accounting before touching anything (block-granular:
  // data copies draw on the GC frontier, map rewrites on the translation
  // frontier, and both classes open new blocks from the shared pool).
  std::uint64_t n_rmw = 0;
  for (std::size_t i = 0; i < live.size(); ++i) {
    if ((i == 0 || live[i].tvpn != live[i - 1].tvpn) && slot_of_[live[i].tvpn] == kNoSlot) {
      ++n_rmw;
    }
  }
  const std::uint64_t n_copy = live.size();
  const std::uint64_t gc_space = (gc_frontier_ == kInvalidBlock || victim == gc_frontier_)
                                     ? 0
                                     : geo.pages_per_block - gc_next_page_;
  const std::uint64_t trans_space =
      (trans_frontier_ == kInvalidBlock || victim == trans_frontier_)
          ? 0
          : geo.pages_per_block - trans_next_page_;
  const std::uint64_t data_blocks_needed =
      n_copy > gc_space ? (n_copy - gc_space + geo.pages_per_block - 1) / geo.pages_per_block
                        : 0;
  const std::uint64_t trans_blocks_needed =
      n_rmw > trans_space ? (n_rmw - trans_space + geo.pages_per_block - 1) / geo.pages_per_block
                          : 0;
  if (data_blocks_needed + trans_blocks_needed > pool_.size()) return false;
  if (victim == host_frontier_) host_frontier_ = kInvalidBlock;
  if (victim == gc_frontier_) gc_frontier_ = kInvalidBlock;

  // Relocate group by group. Every abort point below leaves the device
  // consistent: a group's source pages stay valid and mapped until its map
  // update landed, and copies are rolled back (invalidated) when it did not.
  std::size_t i = 0;
  while (i < live.size()) {
    const Lba tvpn = live[i].tvpn;
    std::size_t end = i;
    while (end < live.size() && live[end].tvpn == tvpn) ++end;
    const std::uint32_t slot = slot_of_[tvpn];
    const bool resident = slot != kNoSlot;
    std::uint32_t* entries = nullptr;
    if (mount_truth_ != nullptr) {
      // Mount reconcile: the scanned truth is authoritative (the flash
      // translation page may be stale or missing entirely) and the CMT is
      // empty — moves are recorded in the truth table below.
      SWL_ASSERT(!resident, "resident translation page during mount");
    } else if (resident) {
      entries = slot_entries(slot);
    } else {
      // The mapping of a non-resident translation page lives on flash: every
      // valid data page must be reachable through it.
      SWL_ASSERT(gtd_[tvpn].valid(), "valid data page with no flash translation page");
      decode_tpage(gtd_[tvpn], rmw_entries_.data());
      entries = rmw_entries_.data();
    }
    // Copy the group's pages, patching the (cached or scratch) entries.
    struct Moved {
      Ppa src;
      Ppa dst;
      Lba lba;
      std::uint32_t idx;
    };
    std::vector<Moved> moved;
    bool aborted = false;
    for (std::size_t k = i; k < end && !aborted; ++k) {
      const Ppa src{victim, live[k].page};
      const nand::PageReadResult r = chip().read_page(src);
      SWL_ASSERT(r.status == Status::ok, "valid page unreadable during GC");
      const Lba lba = r.spare.lba;
      const std::uint32_t idx = lba % config_.lbas_per_tpage;
      if (entries != nullptr) {
        SWL_ASSERT(unpack_entry(entries[idx]) == src,
                   "valid page not referenced by its translation page");
      } else {
        SWL_ASSERT((*mount_truth_)[lba] == src, "valid page not in the mount truth");
      }
      Ppa dst;
      while (true) {
        const bool need_new_block =
            gc_frontier_ == kInvalidBlock || gc_next_page_ >= geo.pages_per_block;
        if (need_new_block && pool_.empty()) {
          aborted = true;  // out of destinations (media-error storms / SWL at pressure)
          break;
        }
        dst = take_frontier_page(gc_frontier_, gc_next_page_, BlockClass::data);
        const Status st = chip().program_page(
            dst, r.payload_token, nand::SpareArea{lba, ++write_sequence_, 0, r.spare.role},
            r.data);
        sync_victim(dst.block);
        if (st == Status::ok) break;
        SWL_ASSERT(st == Status::program_failed, "GC destination page was not programmable");
      }
      if (!aborted) {
        if (entries != nullptr) entries[idx] = pack_entry(dst);
        moved.push_back({src, dst, lba, idx});
      }
    }
    // Land the group's map update, then retire the sources.
    bool landed = false;
    if (!aborted && !moved.empty()) {
      if (mount_truth_ != nullptr) {
        // Record the moves in the truth table and queue the translation page
        // for one recovery rewrite after reconcile converges.
        for (const Moved& m : moved) {
          (*mount_truth_)[m.lba] = m.dst;
        }
        mount_enqueue(tvpn);
        landed = true;
      } else if (resident) {
        slot_dirty_[slot] = 1;
        if (sink_ != nullptr) sink_->on_mark_dirty(tvpn);
        landed = true;
      } else {
        landed = try_program_tpage(tvpn, entries, TpageWrite::gc_update).valid();
        if (landed) ++stats_.gc_rmw_writes;
      }
    }
    if (landed) {
      for (const Moved& m : moved) {
        const Status inv = chip().invalidate_page(m.src);
        SWL_ASSERT(inv == Status::ok, "relocated source page was not invalidatable");
        count_live_copy();
      }
      sync_victim(victim);
    } else {
      // Roll the copies back: the sources are still valid and, with the entry
      // patches undone, still mapped — every abort leaves the device
      // consistent.
      for (const Moved& m : moved) {
        const Status inv = chip().invalidate_page(m.dst);
        SWL_ASSERT(inv == Status::ok, "GC copy was not invalidatable");
        sync_victim(m.dst.block);
        if (entries != nullptr) entries[m.idx] = pack_entry(m.src);
      }
      return false;
    }
    i = end;
  }
  const Status st = chip().erase_block(victim);
  if (st == Status::ok) {
    pool_.add(victim, chip().erase_count(victim));
  }
  if (use_victim_index_) dindex_.remove(victim);
  class_of_[victim] = BlockClass::free;
  return true;
}

bool Dftl::clean_translation_block(BlockIndex victim) {
  const auto& geo = chip().geometry();
  SWL_ASSERT(victim != host_frontier_ && victim != gc_frontier_,
             "translation victim is a data frontier");
  // Destination accounting: every live translation page moves to the
  // translation frontier.
  const std::uint64_t n = chip().valid_page_count(victim);
  const std::uint64_t trans_space =
      (trans_frontier_ == kInvalidBlock || victim == trans_frontier_)
          ? 0
          : geo.pages_per_block - trans_next_page_;
  const std::uint64_t blocks_needed =
      n > trans_space ? (n - trans_space + geo.pages_per_block - 1) / geo.pages_per_block : 0;
  if (blocks_needed > pool_.size()) return false;
  if (victim == trans_frontier_) trans_frontier_ = kInvalidBlock;
  for (PageIndex p = 0; p < geo.pages_per_block; ++p) {
    const Ppa src{victim, p};
    if (chip().page_state(src) != PageState::valid) continue;
    const Lba tvpn = chip().spare(src).lba;
    SWL_ASSERT(tvpn < tpage_count_, "valid translation page with an out-of-range tvpn");
    SWL_ASSERT(gtd_[tvpn] == src, "valid translation page not referenced by the GTD");
    const std::uint32_t slot = slot_of_[tvpn];
    if (slot != kNoSlot && slot_dirty_[slot] != 0) {
      // The cached copy is newer: relocation and flush in one program.
      if (!write_back_slot(slot, TpageWrite::writeback)) return false;
      ++stats_.writebacks;
    } else {
      // Verbatim copy of the current version (a resident clean copy matches
      // flash by invariant, so reading flash is equivalent and keeps GC an
      // on-media operation).
      decode_tpage(src, rmw_entries_.data());
      if (!try_program_tpage(tvpn, rmw_entries_.data(), TpageWrite::gc_relocate).valid()) {
        return false;
      }
    }
    count_live_copy();
  }
  const Status st = chip().erase_block(victim);
  if (st == Status::ok) {
    pool_.add(victim, chip().erase_count(victim));
  }
  if (use_victim_index_) tindex_.remove(victim);
  class_of_[victim] = BlockClass::free;
  return true;
}

void Dftl::do_collect_blocks(BlockIndex first, BlockIndex count) {
  const auto& geo = chip().geometry();
  SWL_REQUIRE(first < geo.block_count && count > 0 && first + count <= geo.block_count,
              "block set out of range");
  for (BlockIndex b = first; b < first + count; ++b) {
    if (chip().is_retired(b)) continue;
    if (pool_.empty() && !pool_.contains(b)) continue;  // no destination for copies
    if (pool_.contains(b)) {
      pool_.remove(b);
      if (chip().erase_block(b) == Status::ok) pool_.add(b, chip().erase_count(b));
      continue;
    }
    clean_block(b);
  }
}

// -- mount --------------------------------------------------------------------

void Dftl::mount_enqueue(Lba tvpn) {
  if ((*mount_pending_flag_)[tvpn] != 0) return;
  (*mount_pending_flag_)[tvpn] = 1;
  mount_pending_->push_back(tvpn);
}

void Dftl::rebuild_from_flash() {
  const auto& geo = chip().geometry();
  // Pass 1: the newest version of every LBA / every translation page wins;
  // stale versions and garbage (ECC-failed, torn) pages are invalidated.
  // Valid pages classify their block.
  std::vector<Ppa> truth(config_.lba_count, kInvalidPpa);
  std::vector<std::uint64_t> win_seq(config_.lba_count, 0);
  std::vector<std::uint64_t> t_win_seq(tpage_count_, 0);
  for (BlockIndex b = 0; b < geo.block_count; ++b) {
    for (PageIndex p = 0; p < geo.pages_per_block; ++p) {
      const Ppa addr{b, p};
      if (chip().page_state(addr) != PageState::valid) continue;
      const nand::SpareArea& spare = chip().spare(addr);
      write_sequence_ = std::max(write_sequence_, spare.sequence);
      if (spare.role == nand::PageRole::translation) {
        if (spare.lba == kInvalidLba || spare.lba >= tpage_count_) {
          // Benign discard: mount-scan invalidation of a page a crash may
          // already have consumed.
          discard_status(chip().invalidate_page(addr));
          continue;
        }
        class_of_[b] = BlockClass::translation;
        const Lba tvpn = spare.lba;
        const Ppa previous = gtd_[tvpn];
        if (!previous.valid() || spare.sequence > t_win_seq[tvpn]) {
          // Benign discard: the older version is superseded by construction.
          if (previous.valid()) discard_status(chip().invalidate_page(previous));
          gtd_[tvpn] = addr;
          t_win_seq[tvpn] = spare.sequence;
        } else {
          discard_status(chip().invalidate_page(addr));  // benign: stale duplicate
        }
        continue;
      }
      if (spare.lba == kInvalidLba || spare.lba >= config_.lba_count) {
        discard_status(chip().invalidate_page(addr));  // benign: unreadable / out of range
        continue;
      }
      class_of_[b] = BlockClass::data;
      const Ppa previous = truth[spare.lba];
      if (!previous.valid() || spare.sequence > win_seq[spare.lba]) {
        // Benign discard: the older version is superseded by construction.
        if (previous.valid()) discard_status(chip().invalidate_page(previous));
        truth[spare.lba] = addr;
        win_seq[spare.lba] = spare.sequence;
      } else {
        discard_status(chip().invalidate_page(addr));  // benign: stale duplicate
      }
    }
  }
  // Pass 2: rebuild the pool from fully erased blocks and re-adopt the
  // partially written block with the largest free tail of each class as that
  // class's frontier. Blocks holding only invalid pages never classified in
  // pass 1; treat them as data blocks so GC sees them.
  std::vector<std::pair<PageIndex, BlockIndex>> partial_data;
  std::vector<std::pair<PageIndex, BlockIndex>> partial_trans;
  for (BlockIndex b = 0; b < geo.block_count; ++b) {
    if (chip().is_retired(b)) continue;
    const PageIndex free_pages = chip().free_page_count(b);
    if (free_pages == geo.pages_per_block) {
      class_of_[b] = BlockClass::free;
      pool_.add(b, chip().erase_count(b));
      continue;
    }
    if (class_of_[b] == BlockClass::free) class_of_[b] = BlockClass::data;
    if (free_pages == 0) continue;
    bool tail_is_free = true;
    for (PageIndex p = geo.pages_per_block - free_pages; p < geo.pages_per_block; ++p) {
      if (chip().page_state({b, p}) != PageState::free) {
        tail_is_free = false;
        break;
      }
    }
    if (!tail_is_free) continue;
    if (class_of_[b] == BlockClass::translation) {
      partial_trans.emplace_back(free_pages, b);
    } else {
      partial_data.emplace_back(free_pages, b);
    }
  }
  std::sort(partial_data.rbegin(), partial_data.rend());
  std::sort(partial_trans.rbegin(), partial_trans.rend());
  const auto adopt = [&](const std::vector<std::pair<PageIndex, BlockIndex>>& from, std::size_t i,
                         BlockIndex& frontier, PageIndex& next_page) {
    if (i >= from.size()) return;
    frontier = from[i].second;
    next_page = geo.pages_per_block - from[i].first;
  };
  adopt(partial_data, 0, host_frontier_, host_next_page_);
  adopt(partial_data, 1, gc_frontier_, gc_next_page_);
  adopt(partial_trans, 0, trans_frontier_, trans_next_page_);
  for (BlockIndex b = 0; b < geo.block_count; ++b) {
    if (!chip().is_retired(b)) sync_victim(b);
  }
  // Pass 3: reconcile every translation page with the scanned truth. The
  // data-page scan is authoritative (out-of-place data writes with fresh
  // sequence numbers survive any crash); a translation page that disagrees —
  // because a crash cut between a data program and its deferred write-back —
  // is rewritten now, before the mount serves I/O. Garbage collection during
  // these rewrites relocates data pages, which re-queues their translation
  // pages (see clean_data_block's mount path), so this runs to a fixpoint.
  std::vector<std::uint8_t> pending_flag(tpage_count_, 0);
  std::vector<Lba> pending;
  mount_truth_ = &truth;
  mount_pending_flag_ = &pending_flag;
  mount_pending_ = &pending;
  std::vector<std::uint32_t> expected(config_.lbas_per_tpage, kUnmappedEntry);
  const auto build_expected = [&](Lba tvpn) {
    bool any = false;
    for (std::uint32_t k = 0; k < config_.lbas_per_tpage; ++k) {
      const Lba lba = tvpn * config_.lbas_per_tpage + k;
      const Ppa p = (lba < config_.lba_count) ? truth[lba] : kInvalidPpa;
      expected[k] = pack_entry(p);
      any = any || p.valid();
    }
    return any;
  };
  for (Lba tvpn = 0; tvpn < tpage_count_; ++tvpn) {
    const bool any_mapped = build_expected(tvpn);
    if (!gtd_[tvpn].valid()) {
      if (any_mapped) mount_enqueue(tvpn);
      continue;
    }
    peek_tpage(gtd_[tvpn], rmw_entries_.data());
    if (!std::equal(expected.begin(), expected.end(), rmw_entries_.begin())) {
      mount_enqueue(tvpn);
    }
  }
  std::size_t cursor = 0;
  const std::uint64_t bound = 64ULL * (tpage_count_ + geo.block_count) + 1024;
  std::uint64_t rounds = 0;
  while (cursor < pending.size()) {
    SWL_ASSERT(++rounds < bound, "mount reconcile did not converge");
    const Lba tvpn = pending[cursor++];
    pending_flag[tvpn] = 0;
    const bool any_mapped = build_expected(tvpn);
    if (!any_mapped) {
      // Nothing maps through this page anymore: drop the stale version
      // instead of writing an empty one.
      if (gtd_[tvpn].valid()) {
        const Status inv = chip().invalidate_page(gtd_[tvpn]);
        SWL_ASSERT(inv == Status::ok, "stale translation page was not invalidatable");
        sync_victim(gtd_[tvpn].block);
        gtd_[tvpn] = kInvalidPpa;
      }
      continue;
    }
    if (gtd_[tvpn].valid()) {
      peek_tpage(gtd_[tvpn], rmw_entries_.data());
      if (std::equal(expected.begin(), expected.end(), rmw_entries_.begin())) continue;
    }
    maybe_gc();  // GC may relocate data pages and re-queue translation pages
    const bool any_mapped_now = build_expected(tvpn);
    if (!any_mapped_now) continue;  // re-queued state handled on its next visit
    const Ppa dst = try_program_tpage(tvpn, expected.data(), TpageWrite::recovery);
    SWL_ASSERT(dst.valid(), "mount reconcile ran out of space");
    ++stats_.recovery_writes;
  }
  mount_truth_ = nullptr;
  mount_pending_flag_ = nullptr;
  mount_pending_ = nullptr;
}

// -- introspection ------------------------------------------------------------

Ppa Dftl::translate(Lba lba) const {
  SWL_REQUIRE(lba < config_.lba_count, "LBA out of range");
  const Lba tvpn = lba / config_.lbas_per_tpage;
  const std::uint32_t idx = lba % config_.lbas_per_tpage;
  const std::uint32_t slot = slot_of_[tvpn];
  if (slot != kNoSlot) return unpack_entry(slot_entries(slot)[idx]);
  if (!gtd_[tvpn].valid()) return kInvalidPpa;
  return unpack_entry(peek_entry(gtd_[tvpn], idx));
}

bool Dftl::is_resident(Lba tvpn) const {
  SWL_REQUIRE(tvpn < tpage_count_, "tvpn out of range");
  return slot_of_[tvpn] != kNoSlot;
}

bool Dftl::is_dirty(Lba tvpn) const {
  SWL_REQUIRE(tvpn < tpage_count_, "tvpn out of range");
  const std::uint32_t slot = slot_of_[tvpn];
  SWL_REQUIRE(slot != kNoSlot, "tvpn not resident");
  return slot_dirty_[slot] != 0;
}

Ppa Dftl::tpage_location(Lba tvpn) const {
  SWL_REQUIRE(tvpn < tpage_count_, "tvpn out of range");
  return gtd_[tvpn];
}

Ppa Dftl::cmt_entry(Lba lba) const {
  SWL_REQUIRE(lba < config_.lba_count, "LBA out of range");
  const Lba tvpn = lba / config_.lbas_per_tpage;
  const std::uint32_t slot = slot_of_[tvpn];
  SWL_REQUIRE(slot != kNoSlot, "translation page not resident");
  return unpack_entry(slot_entries(slot)[lba % config_.lbas_per_tpage]);
}

BlockClass Dftl::block_class(BlockIndex b) const {
  SWL_REQUIRE(b < chip().geometry().block_count, "block out of range");
  return class_of_[b];
}

bool Dftl::debug_drop_first_dirty() {
  for (std::uint32_t slot = lru_head_; slot != kNoSlot; slot = lru_next_[slot]) {
    if (slot_dirty_[slot] != 0) {
      slot_dirty_[slot] = 0;
      return true;
    }
  }
  return false;
}

void Dftl::check_invariants() const {
  const auto& geo = chip().geometry();
  // CMT structure: the LRU list covers exactly the resident slots, links are
  // consistent, and slot_of_ round-trips.
  std::uint32_t walked = 0;
  std::uint32_t prev = kNoSlot;
  for (std::uint32_t slot = lru_head_; slot != kNoSlot; slot = lru_next_[slot]) {
    SWL_ASSERT(walked++ < config_.cmt_capacity, "LRU list has a cycle");
    SWL_ASSERT(lru_prev_[slot] == prev, "LRU back-link broken");
    const Lba tvpn = tvpn_of_slot_[slot];
    SWL_ASSERT(tvpn < tpage_count_ && slot_of_[tvpn] == slot, "CMT slot table broken");
    prev = slot;
  }
  SWL_ASSERT(lru_tail_ == prev, "LRU tail mismatch");
  SWL_ASSERT(walked == resident_count_, "resident count mismatch");
  SWL_ASSERT(walked + free_slots_.size() == config_.cmt_capacity, "CMT slots leaked");

  // Effective mapping (CMT where resident, flash elsewhere): every mapped
  // entry points at a valid data-role page whose spare LBA matches; the
  // total equals the chip's valid data pages, which also rules out
  // duplicates. Resident clean pages must match their flash version.
  std::vector<std::uint32_t> flash_entries(config_.lbas_per_tpage);
  std::uint64_t mapped = 0;
  std::uint64_t gtd_valid = 0;
  for (Lba tvpn = 0; tvpn < tpage_count_; ++tvpn) {
    const std::uint32_t slot = slot_of_[tvpn];
    const Ppa tpage = gtd_[tvpn];
    bool have_flash = false;
    if (tpage.valid()) {
      ++gtd_valid;
      SWL_ASSERT(chip().page_state(tpage) == PageState::valid,
                 "GTD points at a non-valid page");
      SWL_ASSERT(chip().spare(tpage).role == nand::PageRole::translation,
                 "GTD points at a non-translation page");
      SWL_ASSERT(chip().spare(tpage).lba == tvpn, "GTD and spare area disagree");
      peek_tpage(tpage, flash_entries.data());
      have_flash = true;
    }
    const std::uint32_t* effective = nullptr;
    if (slot != kNoSlot) {
      effective = slot_entries(slot);
      if (slot_dirty_[slot] == 0) {
        // A clean resident page is a cache of its flash version.
        for (std::uint32_t k = 0; k < config_.lbas_per_tpage; ++k) {
          const std::uint32_t on_flash = have_flash ? flash_entries[k] : kUnmappedEntry;
          SWL_ASSERT(effective[k] == on_flash, "clean CMT page diverges from flash");
        }
      }
    } else if (have_flash) {
      effective = flash_entries.data();
    }
    if (effective == nullptr) continue;
    for (std::uint32_t k = 0; k < config_.lbas_per_tpage; ++k) {
      const Lba lba = tvpn * config_.lbas_per_tpage + k;
      const Ppa p = unpack_entry(effective[k]);
      if (lba >= config_.lba_count) {
        SWL_ASSERT(!p.valid(), "map entry beyond lba_count");
        continue;
      }
      if (!p.valid()) continue;
      ++mapped;
      SWL_ASSERT(chip().page_state(p) == PageState::valid, "map points at a non-valid page");
      SWL_ASSERT(chip().spare(p).role != nand::PageRole::translation,
                 "map points at a translation page");
      SWL_ASSERT(chip().spare(p).lba == lba, "map and spare area disagree");
    }
  }
  std::uint64_t valid_data_pages = 0;
  std::uint64_t valid_trans_pages = 0;
  for (BlockIndex b = 0; b < geo.block_count; ++b) {
    if (pool_.contains(b)) {
      SWL_ASSERT(chip().free_page_count(b) == geo.pages_per_block, "pooled block not empty");
      SWL_ASSERT(class_of_[b] == BlockClass::free, "pooled block still classified");
    }
    for (PageIndex p = 0; p < geo.pages_per_block; ++p) {
      if (chip().page_state({b, p}) != PageState::valid) continue;
      if (chip().spare({b, p}).role == nand::PageRole::translation) {
        SWL_ASSERT(class_of_[b] == BlockClass::translation,
                   "valid translation page in a non-translation block");
        ++valid_trans_pages;
      } else {
        SWL_ASSERT(class_of_[b] == BlockClass::data, "valid data page in a non-data block");
        ++valid_data_pages;
      }
    }
  }
  SWL_ASSERT(mapped == valid_data_pages, "mapped LBA count != valid data page count");
  SWL_ASSERT(gtd_valid == valid_trans_pages, "GTD entry count != valid translation page count");
}

}  // namespace swl::dftl
