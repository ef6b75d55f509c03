#include "swl/snapshot.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <system_error>

#if defined(_WIN32)
#include <io.h>
#else
#include <unistd.h>
#endif

#include "core/contracts.hpp"
#include "core/fnv1a.hpp"

namespace swl::wear {

namespace {

constexpr std::uint32_t kMagic = 0x53574C42;  // "SWLB"
constexpr std::uint32_t kVersion = 1;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

bool get_u32(const std::vector<std::uint8_t>& in, std::size_t& pos, std::uint32_t* v) {
  if (pos + 4 > in.size()) return false;
  std::uint32_t r = 0;
  for (int i = 0; i < 4; ++i) r |= static_cast<std::uint32_t>(in[pos + static_cast<std::size_t>(i)]) << (8 * i);
  pos += 4;
  *v = r;
  return true;
}

bool get_u64(const std::vector<std::uint8_t>& in, std::size_t& pos, std::uint64_t* v) {
  if (pos + 8 > in.size()) return false;
  std::uint64_t r = 0;
  for (int i = 0; i < 8; ++i) r |= static_cast<std::uint64_t>(in[pos + static_cast<std::size_t>(i)]) << (8 * i);
  pos += 8;
  *v = r;
  return true;
}

}  // namespace

std::vector<std::uint8_t> encode_snapshot(const Snapshot& snap, std::uint64_t sequence) {
  std::vector<std::uint8_t> out;
  out.reserve(48 + snap.bet_words.size() * 8);
  put_u32(out, kMagic);
  put_u32(out, kVersion);
  put_u64(out, sequence);
  put_u32(out, snap.k);
  put_u32(out, snap.block_count);
  put_u64(out, snap.ecnt);
  put_u64(out, snap.findex);
  put_u64(out, snap.bet_words.size());
  for (const auto w : snap.bet_words) put_u64(out, w);
  put_u64(out, Fnv1a().bytes(out).value());
  return out;
}

Status decode_snapshot(const std::vector<std::uint8_t>& bytes, Snapshot* out,
                       std::uint64_t* sequence) {
  SWL_REQUIRE(out != nullptr && sequence != nullptr, "null output");
  if (bytes.size() < 48 + 8) return Status::corrupt_snapshot;
  const std::size_t body = bytes.size() - 8;
  std::size_t pos = body;
  std::uint64_t stored_sum = 0;
  if (!get_u64(bytes, pos, &stored_sum)) return Status::corrupt_snapshot;
  if (Fnv1a().bytes(std::span(bytes).first(body)).value() != stored_sum) return Status::corrupt_snapshot;

  pos = 0;
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  Snapshot snap;
  std::uint64_t words = 0;
  if (!get_u32(bytes, pos, &magic) || magic != kMagic) return Status::corrupt_snapshot;
  if (!get_u32(bytes, pos, &version) || version != kVersion) return Status::corrupt_snapshot;
  if (!get_u64(bytes, pos, sequence)) return Status::corrupt_snapshot;
  if (!get_u32(bytes, pos, &snap.k)) return Status::corrupt_snapshot;
  if (!get_u32(bytes, pos, &snap.block_count)) return Status::corrupt_snapshot;
  if (!get_u64(bytes, pos, &snap.ecnt)) return Status::corrupt_snapshot;
  if (!get_u64(bytes, pos, &snap.findex)) return Status::corrupt_snapshot;
  if (!get_u64(bytes, pos, &words)) return Status::corrupt_snapshot;
  // Overflow-safe framing check: `pos + words * 8` can wrap for a corrupt
  // `words` field (e.g. 2^61) and slip past an equality test, turning the
  // resize below into a multi-exabyte allocation bomb. Divide instead.
  if (words != (body - pos) / 8 || (body - pos) % 8 != 0) return Status::corrupt_snapshot;
  snap.bet_words.resize(words);
  for (auto& w : snap.bet_words) {
    if (!get_u64(bytes, pos, &w)) return Status::corrupt_snapshot;
  }
  *out = std::move(snap);
  return Status::ok;
}

Status MemorySnapshotStore::write_slot(unsigned slot, const std::vector<std::uint8_t>& bytes) {
  SWL_REQUIRE(slot < kSlots, "slot out of range");
  slots_[slot] = bytes;
  return Status::ok;
}

std::vector<std::uint8_t> MemorySnapshotStore::read_slot(unsigned slot) const {
  SWL_REQUIRE(slot < kSlots, "slot out of range");
  return slots_[slot];
}

void MemorySnapshotStore::corrupt_slot(unsigned slot, std::size_t bytes) {
  SWL_REQUIRE(slot < kSlots, "slot out of range");
  auto& buf = slots_[slot];
  for (std::size_t i = 0; i < bytes && i < buf.size(); ++i) buf[i] ^= 0xFF;
}

FileSnapshotStore::FileSnapshotStore(std::string path_prefix) : prefix_(std::move(path_prefix)) {
  SWL_REQUIRE(!prefix_.empty(), "empty snapshot path prefix");
}

std::string FileSnapshotStore::slot_path(unsigned slot) const {
  return prefix_ + "." + std::to_string(slot);
}

Status FileSnapshotStore::write_slot(unsigned slot, const std::vector<std::uint8_t>& bytes) {
  SWL_REQUIRE(slot < kSlots, "slot out of range");
  // Write to a temp file, flush it all the way to stable storage, then
  // rename over the slot — the host-file analogue of programming a fresh
  // flash page before marking the old snapshot obsolete. Without the sync a
  // host crash can promote a torn temp file into the slot: the rename (a
  // metadata operation) may reach the journal before the data blocks do.
  const std::string tmp = slot_path(slot) + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::io_error;
  bool ok = bytes.empty() || std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  ok = std::fflush(f) == 0 && ok;
#if defined(_WIN32)
  ok = _commit(_fileno(f)) == 0 && ok;
#else
  ok = ::fsync(fileno(f)) == 0 && ok;
#endif
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::error_code discard;
    std::filesystem::remove(tmp, discard);
    return Status::io_error;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, slot_path(slot), ec);
  if (ec) {
    std::error_code discard;
    std::filesystem::remove(tmp, discard);
    return Status::io_error;
  }
  return Status::ok;
}

std::vector<std::uint8_t> FileSnapshotStore::read_slot(unsigned slot) const {
  SWL_REQUIRE(slot < kSlots, "slot out of range");
  std::ifstream is(slot_path(slot), std::ios::binary);
  if (!is.good()) return {};
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

LevelerPersistence::LevelerPersistence(SnapshotStore& store) : store_(store) {
  // Resume the sequence numbering from whatever is already stored so that a
  // fresh persistence object never writes an older sequence than an existing
  // slot (which would make load() prefer stale data).
  for (unsigned slot = 0; slot < SnapshotStore::kSlots; ++slot) {
    Snapshot snap;
    std::uint64_t seq = 0;
    const auto bytes = store_.read_slot(slot);
    if (!bytes.empty() && decode_snapshot(bytes, &snap, &seq) == Status::ok) {
      if (seq >= next_sequence_) {
        next_sequence_ = seq + 1;
        next_slot_ = (slot + 1) % SnapshotStore::kSlots;
      }
    }
  }
}

Status LevelerPersistence::save(const SwLeveler& leveler) {
  Snapshot snap;
  snap.k = leveler.config().k;
  snap.block_count = leveler.bet().block_count();
  snap.ecnt = leveler.ecnt();
  snap.findex = leveler.findex();
  snap.bet_words = leveler.bet().bits().words();
  const Status st = store_.write_slot(next_slot_, encode_snapshot(snap, next_sequence_));
  if (st != Status::ok) return st;  // slot content is undefined; do not advance
  ++next_sequence_;
  next_slot_ = (next_slot_ + 1) % SnapshotStore::kSlots;
  return Status::ok;
}

Status LevelerPersistence::load(SwLeveler& leveler) const {
  bool found = false;
  std::uint64_t best_seq = 0;
  Snapshot best;
  for (unsigned slot = 0; slot < SnapshotStore::kSlots; ++slot) {
    Snapshot snap;
    std::uint64_t seq = 0;
    const auto bytes = store_.read_slot(slot);
    if (bytes.empty()) continue;
    if (decode_snapshot(bytes, &snap, &seq) != Status::ok) continue;
    if (!found || seq > best_seq) {
      found = true;
      best_seq = seq;
      best = std::move(snap);
    }
  }
  if (!found) return Status::corrupt_snapshot;
  if (best.k != leveler.config().k || best.block_count != leveler.bet().block_count()) {
    return Status::corrupt_snapshot;
  }
  leveler.restore_state(best.ecnt, best.findex, best.bet_words);
  return Status::ok;
}

}  // namespace swl::wear
