// Incrementally maintained GC victim-score index.
//
// The paper's Cleaner picks victims with a cyclic scan over every physical
// block (Section 5.1). On a steady-state device that scan is the dominant GC
// cost: most visits probe blocks whose score did not change since the last
// scan. VictimIndex caches the two facts every greedy selection needs —
//   - which blocks currently have a positive greedy score (a bitmask scanned
//     word/SIMD-parallel via BitVec::next_set_cyclic), and
//   - which blocks have any invalid page at all (the candidate mask for the
//     most-invalid fallback, scanned the same way).
//
// Maintenance is write-cheap and query-lazy: every page-state transition
// (program, failed program, invalidation) just sets one bit in a dirty-block
// mask, and the next victim query flushes the dirty blocks in batch against
// the chip's live counts. A hot write frontier dirtied hundreds of times
// between GC rounds is re-scored once, and each host write pays one bit-op
// instead of a score recomputation.
//
// An earlier revision kept a bucketed score heap (an intrusive list per
// invalid-page count) for the fallback; the flat candidate mask replaced it
// because random host overwrites moved some block between buckets on nearly
// every write — three pointer-chasing cache misses on the hot path to
// accelerate a query that fires only when no block scores positive.
//
// Exactness contract: positivity is the same tl::gc_score(...) > 0.0
// predicate the reference scan evaluates, precomputed into an integer
// threshold per valid-page count (exact because the score is monotone in the
// invalid count), so the cached answer is bit-identical for any cost weight
// (including negative ones). The translation layers keep their
// reference_victim_scan configuration as the oracle; the victim-scan
// property tests and the differential fuzzer pin the equivalence.
#ifndef SWL_TL_VICTIM_INDEX_HPP
#define SWL_TL_VICTIM_INDEX_HPP

#include <cstdint>
#include <vector>

#include "core/bitvec.hpp"
#include "core/types.hpp"
#include "tl/gc_policy.hpp"

namespace swl::nand {
class NandChip;
}

namespace swl::tl {

class VictimIndex {
 public:
  /// An index over `block_count` blocks whose invalid counts range up to
  /// `pages_per_block`, scoring with `cost_weight` (see tl::gc_score).
  VictimIndex(BlockIndex block_count, PageIndex pages_per_block, double cost_weight);

  /// Marks `b` for re-scoring at the next flush(). Call after any operation
  /// that changes the block's valid/invalid counts: a program (successful or
  /// failed — a failed program consumes the page) or an invalidation.
  /// Inline, one bit-op: this runs once or twice per host write. Never call
  /// for a retired block.
  void mark_dirty(BlockIndex b) { dirty_.set(b); }

  /// Re-scores every dirty block from the chip's current page counts. Must
  /// run before any query below; queries between mutations and flush() see
  /// stale state.
  void flush(const nand::NandChip& chip);

  /// Drops `b` from the index entirely. Call when the block leaves the
  /// candidate set terminally: erased back into the pool, retired, or
  /// released by a fold. (A later mark_dirty() re-admits it — except for
  /// retired blocks, which must never be marked again: their stale page
  /// counts would otherwise re-enter the index at the next flush.)
  void remove(BlockIndex b) {
    positive_.clear(b);
    candidate_.clear(b);
    dirty_.clear(b);
  }

  /// True when any block currently has a positive greedy score.
  [[nodiscard]] bool any_positive() const noexcept { return positive_.count() > 0; }

  /// First positive-score block at or after `start`, cyclically. Requires
  /// any_positive().
  [[nodiscard]] std::size_t next_positive(std::size_t start) const {
    return positive_.next_set_cyclic(start);
  }

  /// The most-invalid fallback victim: the block maximizing the live
  /// invalid-page count, ties broken by the lowest erase count, then the
  /// lowest block index — the same total order as the reference fallback
  /// scans. kInvalidBlock when no indexed block has an invalid page.
  [[nodiscard]] BlockIndex most_invalid(const nand::NandChip& chip) const;

 private:
  /// Blocks mutated since the last flush().
  BitVec dirty_;
  /// Blocks whose gc_score(valid, invalid, cost_weight_) is > 0.
  BitVec positive_;
  /// Blocks with at least one invalid page (the fallback candidate set).
  BitVec candidate_;
  /// min_invalid_[v] = least invalid count scoring positive with v valid
  /// pages (pages_per_block + 1 when impossible); turns the double-valued
  /// score predicate into one integer compare at flush time.
  std::vector<PageIndex> min_invalid_;
  BlockIndex block_count_;
};

}  // namespace swl::tl

#endif  // SWL_TL_VICTIM_INDEX_HPP
