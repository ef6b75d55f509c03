#include "bdev/block_device.hpp"

#include <bit>

#include "core/contracts.hpp"
#include "core/fnv1a.hpp"

namespace swl::bdev {

BlockDevice::BlockDevice(tl::TranslationLayer& layer, std::uint32_t sector_size_bytes)
    : layer_(layer), sector_size_(sector_size_bytes) {
  const std::uint32_t page_size = layer.chip().geometry().page_size_bytes;
  SWL_REQUIRE(sector_size_bytes > 0 && page_size % sector_size_bytes == 0,
              "sector size must divide the page size");
  sectors_per_page_ = page_size / sector_size_bytes;
  page_buffer_.resize(page_size);
  SWL_REQUIRE(sectors_per_page_ >= 1 && sectors_per_page_ <= 8,
              "at most 8 sectors per page are supported by the token payload model");
  lane_bits_ = 64 / sectors_per_page_;
  lane_mask_ = lane_bits_ == 64 ? ~0ULL : (1ULL << lane_bits_) - 1;
}

SectorIndex BlockDevice::sector_count() const noexcept {
  return static_cast<SectorIndex>(layer_.lba_count()) * sectors_per_page_;
}

Lba BlockDevice::page_of(SectorIndex sector) const {
  SWL_REQUIRE(sector < sector_count(), "sector out of range");
  return static_cast<Lba>(sector / sectors_per_page_);
}

std::uint32_t BlockDevice::lane_of(SectorIndex sector) const noexcept {
  return static_cast<std::uint32_t>(sector % sectors_per_page_);
}

Status BlockDevice::load_page(Lba lba, std::uint64_t* token) {
  const Status st = layer_.read(lba, token);
  if (st == Status::lba_not_mapped) {
    *token = 0;  // never-written page: all-zero lanes, like a formatted disk
    return Status::ok;
  }
  if (st == Status::ok) ++counters_.rmw_page_reads;
  return st;
}

Status BlockDevice::write_sector(SectorIndex sector, std::uint64_t value) {
  thread_checker_.check("BlockDevice::write_sector");
  const Lba lba = page_of(sector);
  std::uint64_t token = 0;
  if (sectors_per_page_ > 1) {
    // Read-modify-write: preserve the sibling sectors of the page.
    const Status st = load_page(lba, &token);
    if (st != Status::ok) return st;
  }
  const std::uint32_t shift = lane_of(sector) * lane_bits_;
  token &= ~(lane_mask_ << shift);
  token |= (value & lane_mask_) << shift;
  const Status st = layer_.write(lba, token);
  if (st != Status::ok) return st;
  ++counters_.sector_writes;
  ++counters_.page_writes;
  return Status::ok;
}

Status BlockDevice::read_sector(SectorIndex sector, std::uint64_t* value) {
  thread_checker_.check("BlockDevice::read_sector");
  SWL_REQUIRE(value != nullptr, "null output");
  const Lba lba = page_of(sector);
  std::uint64_t token = 0;
  const Status st = layer_.read(lba, &token);
  if (st != Status::ok) return st;
  *value = (token >> (lane_of(sector) * lane_bits_)) & lane_mask_;
  ++counters_.sector_reads;
  return Status::ok;
}

Status BlockDevice::write_sector_bytes(SectorIndex sector, std::span<const std::uint8_t> data) {
  // The shared page_buffer_ scratch makes this path reentrancy-hostile: a
  // second thread in here mid-RMW would interleave its bytes into ours. The
  // confinement check turns that race into an immediate contract failure.
  thread_checker_.check("BlockDevice::write_sector_bytes");
  SWL_REQUIRE(data.size() == sector_size_, "data must be exactly one sector");
  const Lba lba = page_of(sector);
  std::fill(page_buffer_.begin(), page_buffer_.end(), std::uint8_t{0});
  if (sectors_per_page_ > 1) {
    const Status st = layer_.read_bytes(lba, page_buffer_);
    if (st == Status::ok) {
      ++counters_.rmw_page_reads;
    } else if (st != Status::lba_not_mapped) {
      return st;
    }
  }
  std::copy(data.begin(), data.end(),
            page_buffer_.begin() + static_cast<std::ptrdiff_t>(lane_of(sector) * sector_size_));
  const Status st = layer_.write(lba, Fnv1a().bytes(page_buffer_).value(), page_buffer_);
  if (st != Status::ok) return st;
  ++counters_.sector_writes;
  ++counters_.page_writes;
  return Status::ok;
}

Status BlockDevice::read_sector_bytes(SectorIndex sector, std::span<std::uint8_t> out) {
  thread_checker_.check("BlockDevice::read_sector_bytes");
  SWL_REQUIRE(out.size() == sector_size_, "out must be exactly one sector");
  const Lba lba = page_of(sector);
  const Status st = layer_.read_bytes(lba, page_buffer_);
  if (st != Status::ok) return st;
  const auto offset = static_cast<std::ptrdiff_t>(lane_of(sector) * sector_size_);
  std::copy(page_buffer_.begin() + offset,
            page_buffer_.begin() + offset + static_cast<std::ptrdiff_t>(sector_size_),
            out.begin());
  ++counters_.sector_reads;
  return Status::ok;
}

Status BlockDevice::write_sectors(SectorIndex first, std::uint64_t count,
                                  std::uint64_t first_value) {
  thread_checker_.check("BlockDevice::write_sectors");
  SWL_REQUIRE(count > 0, "empty sector run");
  SWL_REQUIRE(first + count <= sector_count(), "sector run out of range");
  SectorIndex sector = first;
  std::uint64_t value = first_value;
  while (sector < first + count) {
    const bool whole_page =
        lane_of(sector) == 0 && (first + count - sector) >= sectors_per_page_;
    if (!whole_page) {
      const Status st = write_sector(sector, value);
      if (st != Status::ok) return st;
      ++sector;
      ++value;
      continue;
    }
    // Aligned whole-page span: build the token directly, no read needed.
    std::uint64_t token = 0;
    for (std::uint32_t lane = 0; lane < sectors_per_page_; ++lane) {
      token |= ((value + lane) & lane_mask_) << (lane * lane_bits_);
    }
    const Status st = layer_.write(page_of(sector), token);
    if (st != Status::ok) return st;
    counters_.sector_writes += sectors_per_page_;
    ++counters_.page_writes;
    sector += sectors_per_page_;
    value += sectors_per_page_;
  }
  return Status::ok;
}

Status BlockDevice::write_sector_run(SectorIndex first, std::span<const std::uint64_t> values,
                                     std::uint64_t* sectors_done) {
  thread_checker_.check("BlockDevice::write_sector_run");
  const std::uint64_t count = values.size();
  SWL_REQUIRE(count > 0, "empty sector run");
  SWL_REQUIRE(first + count <= sector_count(), "sector run out of range");
  std::uint64_t done = 0;
  const auto report = [&](Status st) {
    if (sectors_done != nullptr) *sectors_done = done;
    return st;
  };
  SectorIndex sector = first;
  while (done < count) {
    const bool whole_page = lane_of(sector) == 0 && (count - done) >= sectors_per_page_;
    if (!whole_page) {
      const Status st = write_sector(sector, values[done]);
      if (st != Status::ok) return report(st);
      ++sector;
      ++done;
      continue;
    }
    // Aligned whole-page span: pack the lane values into the token directly,
    // no read needed — the same fast path write_sectors takes.
    std::uint64_t token = 0;
    for (std::uint32_t lane = 0; lane < sectors_per_page_; ++lane) {
      token |= (values[done + lane] & lane_mask_) << (lane * lane_bits_);
    }
    const Status st = layer_.write(page_of(sector), token);
    if (st != Status::ok) return report(st);
    counters_.sector_writes += sectors_per_page_;
    ++counters_.page_writes;
    sector += sectors_per_page_;
    done += sectors_per_page_;
  }
  return report(Status::ok);
}

}  // namespace swl::bdev
