// Reference models of everything host-visible below the SW Leveler:
//
//   RefStore — the logical contents oracle: a plain token-per-LBA array the
//   fuzz driver updates alongside every host write, with in-flight tracking
//   so a power cut mid-write accepts either the old or the new version
//   (the out-of-place-update guarantee) but nothing else.
//
//   RefWear — the erase-accounting oracle: per-block erase tallies fed from
//   the chip's own erase observer, cross-checked against the chip's counts
//   and the translation layer's gc/swl attribution split.
//
//   check_mapping — the executable page-map (FTL), block-map (NFTL) and
//   flash-resident-map (DFTL) references: every mapped LBA must resolve to a
//   valid page whose spare area names that LBA, no two LBAs may share a
//   page, NFTL locations must live in the owning VBA's primary block (at the
//   LBA's offset) or its replacement block, and every DFTL GTD entry must
//   name a distinct valid translation-role page whose spare carries the
//   translation virtual page number.
#ifndef SWL_MODEL_REF_STORE_HPP
#define SWL_MODEL_REF_STORE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "dftl/dftl.hpp"
#include "ftl/ftl.hpp"
#include "nand/nand_chip.hpp"
#include "nftl/nftl.hpp"
#include "tl/translation_layer.hpp"

namespace swl::model {

class RefStore {
 public:
  explicit RefStore(Lba lba_count);

  /// Declares a write in flight; resolved by ack_write / fail_write, or by
  /// resolve_after_crash when power died before either.
  void begin_write(Lba lba, std::uint64_t token);
  void ack_write();
  /// The write failed (program_failed storm / out_of_space): the previous
  /// version stands.
  void fail_write();

  /// After a crash + remount: reads the in-flight LBA once and accepts
  /// whichever of {old, new} version survived, adopting it as the truth.
  /// Returns "" or a diagnostic when neither version is there.
  [[nodiscard]] std::string resolve_after_crash(tl::TranslationLayer& layer);

  /// Sweeps every LBA through the layer's read and compares against the
  /// model. Returns "" when consistent.
  [[nodiscard]] std::string check_contents(tl::TranslationLayer& layer) const;

  [[nodiscard]] Lba lba_count() const noexcept { return static_cast<Lba>(tokens_.size()); }
  [[nodiscard]] const std::vector<std::uint64_t>& tokens() const noexcept { return tokens_; }

 private:
  std::vector<std::uint64_t> tokens_;  // 0 = never written
  Lba inflight_lba_ = kInvalidLba;
  std::uint64_t inflight_token_ = 0;
};

class RefWear {
 public:
  explicit RefWear(BlockIndex block_count);

  /// Wire to NandChip::add_erase_observer (fires on successful erases only).
  void on_chip_erase(BlockIndex block);

  /// Verifies chip erase counts, the chip's total-erase counter and the
  /// layer-attributed erase total against the tally. `attributed_erases` is
  /// the sum of gc_erases + swl_erases across every layer incarnation on
  /// this chip (layer counters restart at each remount; the chip's do not).
  /// Returns "" or a diagnostic. Assumes a chip that started fresh.
  [[nodiscard]] std::string check(const nand::NandChip& chip,
                                  std::uint64_t attributed_erases) const;

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

 private:
  std::vector<std::uint64_t> per_block_;
  std::uint64_t total_ = 0;
};

/// Structural mapping checks; dispatches on the layer's concrete type and
/// returns "" for layers without a reference (never happens in the fuzzer).
[[nodiscard]] std::string check_mapping(const tl::TranslationLayer& layer);
[[nodiscard]] std::string check_mapping(const ftl::Ftl& ftl);
[[nodiscard]] std::string check_mapping(const nftl::Nftl& nftl);
[[nodiscard]] std::string check_mapping(const dftl::Dftl& dftl);

}  // namespace swl::model

#endif  // SWL_MODEL_REF_STORE_HPP
