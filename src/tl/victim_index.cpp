#include "tl/victim_index.hpp"

#include <bit>

#include "core/contracts.hpp"
#include "nand/nand_chip.hpp"

namespace swl::tl {

VictimIndex::VictimIndex(BlockIndex block_count, PageIndex pages_per_block, double cost_weight)
    : dirty_(block_count),
      positive_(block_count),
      buckets_(static_cast<std::size_t>(pages_per_block) + 1, BitVec(block_count)),
      nonempty_(static_cast<std::size_t>(pages_per_block) + 1),
      bucket_of_(block_count, 0),
      min_invalid_(static_cast<std::size_t>(pages_per_block) + 1, pages_per_block + 1) {
  SWL_REQUIRE(block_count > 0 && pages_per_block > 0, "empty victim index");
  // Tabulate the exact positivity predicate: gc_score is evaluated verbatim,
  // and monotone (non-decreasing) in the invalid count even under floating
  // rounding, so "invalid >= min_invalid_[valid]" reproduces it bit for bit.
  for (PageIndex v = 0; v <= pages_per_block; ++v) {
    for (PageIndex i = 0; i <= pages_per_block; ++i) {
      if (gc_score(v, i, cost_weight) > 0.0) {
        min_invalid_[v] = i;
        break;
      }
    }
  }
}

void VictimIndex::flush(const nand::NandChip& chip) {
  if (dirty_.none_set()) return;
  const std::vector<std::uint64_t>& words = dirty_.words();
  for (std::size_t wi = 0; wi < words.size(); ++wi) {
    std::uint64_t w = words[wi];
    while (w != 0) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(w));
      w &= w - 1;
      const auto b = static_cast<BlockIndex>(wi * 64 + bit);
      const PageIndex invalid = chip.invalid_page_count(b);
      if (invalid >= min_invalid_[chip.valid_page_count(b)]) {
        positive_.set(b);
      } else {
        positive_.clear(b);
      }
      rebucket(b, invalid);
    }
  }
  dirty_.reset();
}

void VictimIndex::rebucket(BlockIndex b, PageIndex invalid) {
  const PageIndex old = bucket_of_[b];
  if (old == invalid) return;
  if (old != 0) {
    buckets_[old].clear(b);
    if (buckets_[old].none_set()) nonempty_.clear(old);
  }
  if (invalid != 0) {
    buckets_[invalid].set(b);
    nonempty_.set(invalid);
  }
  bucket_of_[b] = invalid;
}

BlockIndex VictimIndex::most_invalid(const nand::NandChip& chip) const {
  SWL_REQUIRE(dirty_.none_set(), "most_invalid() on an unflushed victim index");
  // The top non-empty bucket holds every block with the most invalid pages;
  // walk it in index order for the lowest erase count (the strict compare
  // keeps the lowest index among equals) — the reference fallback's order.
  const std::vector<std::uint64_t>& top_words = nonempty_.words();
  std::size_t top = 0;
  for (std::size_t wi = top_words.size(); wi-- > 0;) {
    if (top_words[wi] != 0) {
      top = wi * 64 + 63 - static_cast<std::size_t>(std::countl_zero(top_words[wi]));
      break;
    }
  }
  if (top == 0) return kInvalidBlock;
  BlockIndex best = kInvalidBlock;
  std::uint32_t best_erases = 0;
  const std::vector<std::uint64_t>& words = buckets_[top].words();
  for (std::size_t wi = 0; wi < words.size(); ++wi) {
    std::uint64_t w = words[wi];
    while (w != 0) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(w));
      w &= w - 1;
      const auto b = static_cast<BlockIndex>(wi * 64 + bit);
      const std::uint32_t erases = chip.erase_count(b);
      if (best == kInvalidBlock || erases < best_erases) {
        best = b;
        best_erases = erases;
      }
    }
  }
  return best;
}

}  // namespace swl::tl
