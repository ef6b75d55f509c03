// Sector-granularity block-device emulation on top of a translation layer.
//
// The paper counts LBAs in 512-byte *sectors* (its 1 GB device exports
// 2,097,152 LBAs) while reads/programs operate on whole flash pages (2 KB on
// large-block devices). This adapter closes that gap the way a firmware
// block layer does: `sectors_per_page` sectors are packed into one logical
// page, and a sub-page sector write becomes a read-modify-write of the
// containing page — the write amplification that entails is surfaced in the
// counters.
//
// Payload model: the library models page contents as a 64-bit token, so the
// adapter packs `sectors_per_page` equal lanes of 64/sectors_per_page bits
// into it. A sector's content is its lane value; tests verify per-sector
// integrity end-to-end through GC, folds and static wear leveling.
#ifndef SWL_BDEV_BLOCK_DEVICE_HPP
#define SWL_BDEV_BLOCK_DEVICE_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "core/fields.hpp"
#include "core/sync.hpp"
#include "tl/translation_layer.hpp"

namespace swl::bdev {

/// Sector index as seen by the host file system.
using SectorIndex = std::uint64_t;

struct BdevCounters {
  std::uint64_t sector_writes = 0;
  std::uint64_t sector_reads = 0;
  /// Page reads performed to preserve sibling sectors on sub-page writes.
  std::uint64_t rmw_page_reads = 0;
  /// Page writes issued to the translation layer.
  std::uint64_t page_writes = 0;

  static constexpr auto fields() {
    return std::tuple{Field{"sector_writes", &BdevCounters::sector_writes},
                      Field{"sector_reads", &BdevCounters::sector_reads},
                      Field{"rmw_page_reads", &BdevCounters::rmw_page_reads},
                      Field{"page_writes", &BdevCounters::page_writes}};
  }
  friend bool operator==(const BdevCounters&, const BdevCounters&) = default;
};
static_assert(sizeof(BdevCounters) == 8 * field_count<BdevCounters>);

class BlockDevice {
 public:
  /// Wraps `layer`; sector size must divide the page size, and at most 8
  /// sectors fit one page (lane width >= 8 bits).
  explicit BlockDevice(tl::TranslationLayer& layer, std::uint32_t sector_size_bytes = 512);

  /// Writes one sector (lane-truncated value). Sub-page granularity: reads
  /// the containing page first when it already holds data.
  Status write_sector(SectorIndex sector, std::uint64_t value);

  /// Reads one sector; Status::lba_not_mapped when its page was never
  /// written.
  Status read_sector(SectorIndex sector, std::uint64_t* value);

  /// Writes `count` consecutive sectors with values from `first_value`
  /// onward; whole-page spans skip the read-modify-write.
  Status write_sectors(SectorIndex first, std::uint64_t count, std::uint64_t first_value);

  /// Writes `values.size()` consecutive sectors starting at `first` with
  /// explicit per-sector values — the generalization of write_sectors the
  /// host front-end's write coalescer feeds. Page handling is identical to
  /// write_sectors: aligned whole-page spans build the page token directly
  /// (no read-modify-write), head/tail partial pages go sector by sector, so
  /// a run submitted here is bit-identical to the equivalent sequence of
  /// write_sector/write_sectors calls. On failure `*sectors_done` (optional)
  /// receives the number of leading sectors that were durably written; the
  /// sector at that index is the one whose page write failed.
  Status write_sector_run(SectorIndex first, std::span<const std::uint64_t> values,
                          std::uint64_t* sectors_done = nullptr);

  // -- byte-accurate API (requires a chip with store_payload_bytes) ---------

  /// Writes one sector of real bytes (`data` must be sector_size bytes);
  /// a sub-page write reads the containing page first to preserve siblings.
  Status write_sector_bytes(SectorIndex sector, std::span<const std::uint8_t> data);

  /// Reads one sector of bytes into `out` (sector_size bytes); sectors of
  /// never-written pages read back as zeros once their page exists, and
  /// Status::lba_not_mapped when the page was never written at all.
  Status read_sector_bytes(SectorIndex sector, std::span<std::uint8_t> out);

  [[nodiscard]] std::uint32_t sector_size_bytes() const noexcept { return sector_size_; }

  [[nodiscard]] SectorIndex sector_count() const noexcept;
  [[nodiscard]] std::uint32_t sectors_per_page() const noexcept { return sectors_per_page_; }
  [[nodiscard]] std::uint64_t lane_mask() const noexcept { return lane_mask_; }
  [[nodiscard]] const BdevCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] tl::TranslationLayer& layer() noexcept { return layer_; }

  /// Rebinds the device's thread-confinement check at a deliberate ownership
  /// handoff (e.g. the host scheduler handing a shard's stack to its consumer
  /// thread). Pair with NandChip::detach_owner_thread — the whole stack moves
  /// together.
  void detach_owner_thread() noexcept { thread_checker_.detach(); }

 private:
  [[nodiscard]] Lba page_of(SectorIndex sector) const;
  [[nodiscard]] std::uint32_t lane_of(SectorIndex sector) const noexcept;

  /// Reads the page token, or all-zero lanes for an unmapped page.
  Status load_page(Lba lba, std::uint64_t* token);

  tl::TranslationLayer& layer_;
  std::uint32_t sector_size_;
  std::uint32_t sectors_per_page_;
  std::uint32_t lane_bits_;
  std::uint64_t lane_mask_;
  BdevCounters counters_;
  std::vector<std::uint8_t> page_buffer_;  // scratch for byte read-modify-write
  // The device is thread-confined, not thread-safe: counters_ and the shared
  // page_buffer_ scratch (the byte read-modify-write path) are mutated
  // without synchronization. Checked (debug builds) at every public
  // entry point; concurrent callers go through the host scheduler, which
  // gives each consumer thread exclusive ownership of one device stack.
  ThreadChecker thread_checker_;
};

}  // namespace swl::bdev

#endif  // SWL_BDEV_BLOCK_DEVICE_HPP
