#include "model/ref_store.hpp"

#include <sstream>

#include "core/contracts.hpp"

namespace swl::model {

namespace {

std::string lba_diag(const char* what, Lba lba, std::uint64_t got, std::uint64_t want) {
  std::ostringstream os;
  os << what << " at LBA " << lba << ": device " << got << ", reference " << want;
  return os.str();
}

}  // namespace

RefStore::RefStore(Lba lba_count) : tokens_(lba_count, 0) {}

void RefStore::begin_write(Lba lba, std::uint64_t token) {
  SWL_REQUIRE(lba < tokens_.size(), "LBA out of range");
  SWL_REQUIRE(inflight_lba_ == kInvalidLba, "a write is already in flight");
  inflight_lba_ = lba;
  inflight_token_ = token;
}

void RefStore::ack_write() {
  SWL_REQUIRE(inflight_lba_ != kInvalidLba, "no write in flight");
  tokens_[inflight_lba_] = inflight_token_;
  inflight_lba_ = kInvalidLba;
}

void RefStore::fail_write() {
  SWL_REQUIRE(inflight_lba_ != kInvalidLba, "no write in flight");
  inflight_lba_ = kInvalidLba;
}

std::string RefStore::resolve_after_crash(tl::TranslationLayer& layer) {
  if (inflight_lba_ == kInvalidLba) return {};
  const Lba lba = inflight_lba_;
  const std::uint64_t old_token = tokens_[lba];
  inflight_lba_ = kInvalidLba;
  std::uint64_t token = 0;
  const Status st = layer.read(lba, &token);
  if (st == Status::lba_not_mapped) {
    if (old_token != 0) return lba_diag("crash lost the acknowledged version", lba, 0, old_token);
    return {};  // never durably written; fine
  }
  if (st != Status::ok) return "in-flight LBA unreadable after recovery";
  if (token == inflight_token_) {
    tokens_[lba] = token;  // the new version made it to the medium — adopt it
    return {};
  }
  if (token != old_token) {
    return lba_diag("in-flight LBA holds neither version after recovery", lba, token, old_token);
  }
  return {};
}

std::string RefStore::check_contents(tl::TranslationLayer& layer) const {
  SWL_REQUIRE(inflight_lba_ == kInvalidLba, "checking with a write in flight");
  if (layer.lba_count() != tokens_.size()) return "layer exports a different LBA count";
  for (Lba lba = 0; lba < tokens_.size(); ++lba) {
    std::uint64_t token = 0;
    const Status st = layer.read(lba, &token);
    if (tokens_[lba] == 0) {
      if (st != Status::lba_not_mapped) {
        return lba_diag("never-written LBA is mapped", lba, token, 0);
      }
      continue;
    }
    if (st != Status::ok) return lba_diag("acknowledged write unreadable", lba, 0, tokens_[lba]);
    if (token != tokens_[lba]) return lba_diag("content mismatch", lba, token, tokens_[lba]);
  }
  return {};
}

RefWear::RefWear(BlockIndex block_count) : per_block_(block_count, 0) {}

void RefWear::on_chip_erase(BlockIndex block) {
  SWL_REQUIRE(block < per_block_.size(), "erased block out of range");
  ++per_block_[block];
  ++total_;
}

std::string RefWear::check(const nand::NandChip& chip, std::uint64_t attributed_erases) const {
  const auto& counts = chip.erase_counts();
  if (counts.size() != per_block_.size()) return "chip covers a different block count";
  for (BlockIndex b = 0; b < per_block_.size(); ++b) {
    if (counts[b] != per_block_[b]) {
      std::ostringstream os;
      os << "erase count of block " << b << ": chip " << counts[b] << ", reference "
         << per_block_[b];
      return os.str();
    }
  }
  if (chip.counters().erases != total_) {
    std::ostringstream os;
    os << "chip erase counter " << chip.counters().erases << " != observed erases " << total_;
    return os.str();
  }
  if (attributed_erases != total_) {
    std::ostringstream os;
    os << "layer erase attribution " << attributed_erases << " != observed erases " << total_;
    return os.str();
  }
  return {};
}

std::string check_mapping(const ftl::Ftl& ftl) {
  const nand::NandChip& chip = ftl.chip();
  const auto& geo = chip.geometry();
  std::vector<std::uint8_t> referenced(geo.page_count(), 0);
  std::uint64_t mapped = 0;
  for (Lba lba = 0; lba < ftl.lba_count(); ++lba) {
    const Ppa ppa = ftl.translate(lba);
    if (!ppa.valid()) continue;
    ++mapped;
    std::ostringstream os;
    if (chip.page_state(ppa) != nand::PageState::valid) {
      os << "FTL maps LBA " << lba << " to a non-valid page";
      return os.str();
    }
    if (chip.spare(ppa).lba != lba) {
      os << "FTL maps LBA " << lba << " to a page whose spare names LBA " << chip.spare(ppa).lba;
      return os.str();
    }
    const std::uint64_t flat =
        static_cast<std::uint64_t>(ppa.block) * geo.pages_per_block + ppa.page;
    if (referenced[flat] != 0) {
      os << "two LBAs map to the same physical page (block " << ppa.block << ", page "
         << ppa.page << ")";
      return os.str();
    }
    referenced[flat] = 1;
  }
  std::uint64_t valid_pages = 0;
  for (BlockIndex b = 0; b < geo.block_count; ++b) valid_pages += chip.valid_page_count(b);
  if (valid_pages != mapped) {
    std::ostringstream os;
    os << "FTL: " << valid_pages << " valid pages on chip but " << mapped << " mapped LBAs";
    return os.str();
  }
  return {};
}

std::string check_mapping(const nftl::Nftl& nftl) {
  const nand::NandChip& chip = nftl.chip();
  const auto& geo = chip.geometry();
  const PageIndex pages = geo.pages_per_block;
  std::vector<std::uint8_t> referenced(geo.page_count(), 0);
  std::uint64_t mapped = 0;
  for (Vba vba = 0; vba < nftl.vba_count(); ++vba) {
    const BlockIndex primary = nftl.primary_block(vba);
    const BlockIndex replacement = nftl.replacement_block(vba);
    if (primary == kInvalidBlock && replacement != kInvalidBlock) {
      std::ostringstream os;
      os << "NFTL VBA " << vba << " has a replacement block but no primary";
      return os.str();
    }
    if (primary != kInvalidBlock && primary == replacement) {
      std::ostringstream os;
      os << "NFTL VBA " << vba << " uses one block as both primary and replacement";
      return os.str();
    }
  }
  for (Lba lba = 0; lba < nftl.lba_count(); ++lba) {
    const Vba vba = lba / pages;
    const PageIndex offset = lba % pages;
    const Ppa ppa = nftl.translate(lba);
    if (!ppa.valid()) continue;
    ++mapped;
    std::ostringstream os;
    if (chip.page_state(ppa) != nand::PageState::valid) {
      os << "NFTL maps LBA " << lba << " to a non-valid page";
      return os.str();
    }
    if (chip.spare(ppa).lba != lba) {
      os << "NFTL maps LBA " << lba << " to a page whose spare names LBA " << chip.spare(ppa).lba;
      return os.str();
    }
    const BlockIndex primary = nftl.primary_block(vba);
    const BlockIndex replacement = nftl.replacement_block(vba);
    if (ppa.block == primary) {
      if (ppa.page != offset) {
        os << "NFTL LBA " << lba << " lives in its primary block at page " << ppa.page
           << " instead of its offset " << offset;
        return os.str();
      }
    } else if (ppa.block != replacement) {
      os << "NFTL LBA " << lba << " lives in block " << ppa.block
         << ", neither the primary nor the replacement of VBA " << vba;
      return os.str();
    }
    const std::uint64_t flat = static_cast<std::uint64_t>(ppa.block) * pages + ppa.page;
    if (referenced[flat] != 0) {
      os << "two LBAs map to the same physical page (block " << ppa.block << ", page "
         << ppa.page << ")";
      return os.str();
    }
    referenced[flat] = 1;
  }
  std::uint64_t valid_pages = 0;
  for (BlockIndex b = 0; b < geo.block_count; ++b) valid_pages += chip.valid_page_count(b);
  if (valid_pages != mapped) {
    std::ostringstream os;
    os << "NFTL: " << valid_pages << " valid pages on chip but " << mapped << " mapped LBAs";
    return os.str();
  }
  return {};
}

std::string check_mapping(const dftl::Dftl& dftl) {
  const nand::NandChip& chip = dftl.chip();
  const auto& geo = chip.geometry();
  std::vector<std::uint8_t> referenced(geo.page_count(), 0);
  std::uint64_t mapped = 0;
  for (Lba lba = 0; lba < dftl.lba_count(); ++lba) {
    const Ppa ppa = dftl.translate(lba);
    if (!ppa.valid()) continue;
    ++mapped;
    std::ostringstream os;
    if (chip.page_state(ppa) != nand::PageState::valid) {
      os << "DFTL maps LBA " << lba << " to a non-valid page";
      return os.str();
    }
    if (chip.spare(ppa).role == nand::PageRole::translation) {
      os << "DFTL maps LBA " << lba << " to a translation page";
      return os.str();
    }
    if (chip.spare(ppa).lba != lba) {
      os << "DFTL maps LBA " << lba << " to a page whose spare names LBA " << chip.spare(ppa).lba;
      return os.str();
    }
    const std::uint64_t flat =
        static_cast<std::uint64_t>(ppa.block) * geo.pages_per_block + ppa.page;
    if (referenced[flat] != 0) {
      os << "two LBAs map to the same physical page (block " << ppa.block << ", page "
         << ppa.page << ")";
      return os.str();
    }
    referenced[flat] = 1;
  }
  std::uint64_t directory = 0;
  for (Lba tvpn = 0; tvpn < dftl.tpage_count(); ++tvpn) {
    const Ppa ppa = dftl.tpage_location(tvpn);
    if (!ppa.valid()) continue;
    ++directory;
    std::ostringstream os;
    if (chip.page_state(ppa) != nand::PageState::valid) {
      os << "DFTL GTD entry " << tvpn << " names a non-valid page";
      return os.str();
    }
    if (chip.spare(ppa).role != nand::PageRole::translation) {
      os << "DFTL GTD entry " << tvpn << " names a non-translation page";
      return os.str();
    }
    if (chip.spare(ppa).lba != tvpn) {
      os << "DFTL GTD entry " << tvpn << " names a translation page whose spare carries tvpn "
         << chip.spare(ppa).lba;
      return os.str();
    }
    const std::uint64_t flat =
        static_cast<std::uint64_t>(ppa.block) * geo.pages_per_block + ppa.page;
    if (referenced[flat] != 0) {
      os << "DFTL GTD entry " << tvpn << " shares a physical page (block " << ppa.block
         << ", page " << ppa.page << ")";
      return os.str();
    }
    referenced[flat] = 1;
  }
  std::uint64_t valid_data = 0;
  std::uint64_t valid_trans = 0;
  for (BlockIndex b = 0; b < geo.block_count; ++b) {
    for (PageIndex p = 0; p < geo.pages_per_block; ++p) {
      const Ppa ppa{b, p};
      if (chip.page_state(ppa) != nand::PageState::valid) continue;
      if (chip.spare(ppa).role == nand::PageRole::translation) {
        ++valid_trans;
      } else {
        ++valid_data;
      }
    }
  }
  if (valid_data != mapped) {
    std::ostringstream os;
    os << "DFTL: " << valid_data << " valid data pages on chip but " << mapped
       << " mapped LBAs";
    return os.str();
  }
  if (valid_trans != directory) {
    std::ostringstream os;
    os << "DFTL: " << valid_trans << " valid translation pages on chip but " << directory
       << " GTD entries";
    return os.str();
  }
  return {};
}

std::string check_mapping(const tl::TranslationLayer& layer) {
  if (const auto* f = dynamic_cast<const ftl::Ftl*>(&layer)) return check_mapping(*f);
  if (const auto* n = dynamic_cast<const nftl::Nftl*>(&layer)) return check_mapping(*n);
  if (const auto* d = dynamic_cast<const dftl::Dftl*>(&layer)) return check_mapping(*d);
  return {};
}

}  // namespace swl::model
