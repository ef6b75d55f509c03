// Incrementally maintained GC victim-score index.
//
// The paper's Cleaner picks victims with a cyclic scan over every physical
// block (Section 5.1). On a steady-state device that scan is the dominant GC
// cost: most visits probe blocks whose score did not change since the last
// scan. VictimIndex caches the two facts every greedy selection needs —
//   - which blocks currently have a positive greedy score (a bitmask scanned
//     word/SIMD-parallel via BitVec::next_set_cyclic), and
//   - which blocks have any invalid page at all, bucketed by that count
//     (the candidates of the most-invalid fallback).
//
// Maintenance is write-cheap and query-lazy: every page-state transition
// (program, failed program, invalidation) just sets one bit in a dirty-block
// mask, and the next victim query flushes the dirty blocks in batch against
// the chip's live counts. A hot write frontier dirtied hundreds of times
// between GC rounds is re-scored once, and each host write pays one bit-op
// instead of a score recomputation.
//
// The most-invalid fallback keeps each candidate block in a bucket keyed by
// its invalid-page count as of the last flush (one block mask per count plus
// a mask of the non-empty buckets), so a fallback query walks only the top
// bucket's members instead of every candidate. NFTL leans on this: its
// greedy bar almost never clears, so nearly every GC round is a fallback.
// Buckets move only at flush() and remove(), never on the write path. An
// earlier revision kept an eager bucketed heap (an intrusive list per
// invalid count, updated at every page-state change); random host
// overwrites moved some block between buckets on nearly every write, three
// pointer-chasing cache misses per host write. Flush-time buckets pay that
// move once per dirty block per GC round instead.
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
    dirty_.clear(b);
    rebucket(b, 0);
  }

  /// True when any block currently has a positive greedy score.
  [[nodiscard]] bool any_positive() const noexcept { return positive_.count() > 0; }

  /// First positive-score block at or after `start`, cyclically. Requires
  /// any_positive().
  [[nodiscard]] std::size_t next_positive(std::size_t start) const {
    return positive_.next_set_cyclic(start);
  }

  /// The most-invalid fallback victim: the block maximizing the invalid-page
  /// count, ties broken by the lowest erase count, then the lowest block
  /// index — the same total order as the reference fallback scans.
  /// kInvalidBlock when no indexed block has an invalid page. Requires a
  /// flushed index: the buckets hold the counts of the last flush().
  [[nodiscard]] BlockIndex most_invalid(const nand::NandChip& chip) const;

 private:
  /// Moves `b` from its current bucket to bucket `invalid` (0 = none).
  void rebucket(BlockIndex b, PageIndex invalid);

  /// Blocks mutated since the last flush().
  BitVec dirty_;
  /// Blocks whose gc_score(valid, invalid, cost_weight_) is > 0.
  BitVec positive_;
  /// buckets_[i] = blocks with i invalid pages as of the last flush, for
  /// i >= 1 (the fallback candidates; buckets_[0] stays empty).
  std::vector<BitVec> buckets_;
  /// Bit i set iff buckets_[i] is non-empty.
  BitVec nonempty_;
  /// bucket_of_[b] = the bucket holding b, 0 when none.
  std::vector<PageIndex> bucket_of_;
  /// min_invalid_[v] = least invalid count scoring positive with v valid
  /// pages (pages_per_block + 1 when impossible); turns the double-valued
  /// score predicate into one integer compare at flush time.
  std::vector<PageIndex> min_invalid_;
};

}  // namespace swl::tl

#endif  // SWL_TL_VICTIM_INDEX_HPP
