#include "trace/trace_io.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "core/contracts.hpp"
#include "core/fnv1a.hpp"

namespace swl::trace {

namespace {

constexpr std::array<char, 4> kMagic{'S', 'W', 'L', 'T'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kChunkBytes = 64 * 1024;
constexpr std::size_t kRecordBytes = 16;

void store_le32(unsigned char* p, std::uint32_t v) noexcept {
  for (std::size_t i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xFF);
}

void store_le64(unsigned char* p, std::uint64_t v) noexcept {
  for (std::size_t i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xFF);
}

std::uint32_t load_le32(const unsigned char* p) noexcept {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t load_le64(const unsigned char* p) noexcept {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

void encode_record(unsigned char* p, const TraceRecord& rec) noexcept {
  store_le64(p, rec.time_us);
  store_le32(p + 8, rec.lba);
  p[12] = static_cast<unsigned char>(rec.op);
  p[13] = 0;
  p[14] = 0;
  p[15] = 0;
}

/// Accumulates bytes in a 64 KiB chunk and writes/checksums whole chunks.
/// The bytes hit the stream in the same order per-field IO produced, so the
/// file format (checksum included) is unchanged.
class ChunkWriter {
 public:
  explicit ChunkWriter(std::ostream& os) : os_(os), buf_(kChunkBytes) {}

  /// Returns space for n contiguous bytes (n <= kChunkBytes), flushing first
  /// if the chunk cannot hold them; call commit(n) after filling it.
  [[nodiscard]] unsigned char* reserve(std::size_t n) {
    if (kChunkBytes - fill_ < n) flush();
    return buf_.data() + fill_;
  }
  void commit(std::size_t n) noexcept { fill_ += n; }

  void flush() {
    if (fill_ == 0) return;
    sum_.bytes({buf_.data(), fill_});
    os_.write(reinterpret_cast<const char*>(buf_.data()), static_cast<std::streamsize>(fill_));
    fill_ = 0;
  }

  /// Checksum of everything flushed so far.
  [[nodiscard]] std::uint64_t checksum() const noexcept { return sum_.value(); }

 private:
  std::ostream& os_;
  std::vector<unsigned char> buf_;
  std::size_t fill_ = 0;
  Fnv1a sum_;
};

/// Refills a 64 KiB chunk from the stream and hands out contiguous views.
/// Checksumming is the caller's job (the trailer must stay out of the sum).
class ChunkReader {
 public:
  explicit ChunkReader(std::istream& is) : is_(is), buf_(kChunkBytes) {}

  /// Ensures at least n contiguous unread bytes (n <= kChunkBytes) are
  /// buffered; returns a view of them or nullptr at end of stream.
  [[nodiscard]] const unsigned char* fetch(std::size_t n) {
    if (fill_ - pos_ < n) refill();
    if (fill_ - pos_ < n) return nullptr;
    return buf_.data() + pos_;
  }
  void consume(std::size_t n) noexcept { pos_ += n; }
  [[nodiscard]] std::size_t buffered() const noexcept { return fill_ - pos_; }

 private:
  void refill() {
    if (pos_ > 0) {
      std::memmove(buf_.data(), buf_.data() + pos_, fill_ - pos_);
      fill_ -= pos_;
      pos_ = 0;
    }
    is_.read(reinterpret_cast<char*>(buf_.data()) + fill_,
             static_cast<std::streamsize>(kChunkBytes - fill_));
    fill_ += static_cast<std::size_t>(is_.gcount());
  }

  std::istream& is_;
  std::vector<unsigned char> buf_;
  std::size_t pos_ = 0;
  std::size_t fill_ = 0;
};

/// Reads and validates the 16-byte header; returns false on any mismatch.
bool read_header(ChunkReader& in, Fnv1a& sum, std::uint64_t* count) {
  const unsigned char* p = in.fetch(16);
  if (p == nullptr) return false;
  if (std::memcmp(p, kMagic.data(), kMagic.size()) != 0) return false;
  if (load_le32(p + 4) != kVersion) return false;
  *count = load_le64(p + 8);
  sum.bytes({p, 16});
  in.consume(16);
  return true;
}

}  // namespace

void write_binary(std::ostream& os, const Trace& trace) {
  ChunkWriter out(os);
  unsigned char* p = out.reserve(16);
  std::memcpy(p, kMagic.data(), kMagic.size());
  store_le32(p + 4, kVersion);
  store_le64(p + 8, static_cast<std::uint64_t>(trace.size()));
  out.commit(16);
  for (const auto& rec : trace) {
    p = out.reserve(kRecordBytes);
    encode_record(p, rec);
    out.commit(kRecordBytes);
  }
  out.flush();
  // Trailer: the checksum itself is not part of the checksummed stream.
  std::array<unsigned char, 8> tail{};
  store_le64(tail.data(), out.checksum());
  os.write(reinterpret_cast<const char*>(tail.data()), tail.size());
}

Status read_binary(std::istream& is, Trace* out) {
  SWL_REQUIRE(out != nullptr, "null output");
  ChunkReader in(is);
  Fnv1a sum;
  std::uint64_t count = 0;
  if (!read_header(in, sum, &count)) return Status::corrupt_snapshot;
  Trace trace;
  trace.reserve(static_cast<std::size_t>(count));
  std::uint64_t remaining = count;
  while (remaining > 0) {
    const unsigned char* p = in.fetch(kRecordBytes);
    if (p == nullptr) return Status::corrupt_snapshot;
    // Decode every whole buffered record against this chunk in one pass.
    const std::uint64_t take =
        std::min<std::uint64_t>(remaining, in.buffered() / kRecordBytes);
    sum.bytes({p, static_cast<std::size_t>(take) * kRecordBytes});
    for (std::uint64_t i = 0; i < take; ++i, p += kRecordBytes) {
      if (p[12] > 1) return Status::corrupt_snapshot;
      trace.push_back(TraceRecord{load_le64(p), load_le32(p + 8), static_cast<Op>(p[12])});
    }
    in.consume(static_cast<std::size_t>(take) * kRecordBytes);
    remaining -= take;
  }
  const unsigned char* tail = in.fetch(8);
  if (tail == nullptr || load_le64(tail) != sum.value()) return Status::corrupt_snapshot;
  *out = std::move(trace);
  return Status::ok;
}

void save_binary(const std::string& path, const Trace& trace) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  SWL_REQUIRE(os.good(), "cannot open trace file for writing");
  write_binary(os, trace);
  SWL_REQUIRE(os.good(), "trace write failed");
}

Status load_binary(const std::string& path, Trace* out) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return Status::corrupt_snapshot;
  return read_binary(is, out);
}

struct BinaryTraceSource::Impl {
  explicit Impl(const std::string& path) : is(path, std::ios::binary), in(is) {
    if (!is.good() || !read_header(in, sum, &count)) {
      status = Status::corrupt_snapshot;
      return;
    }
    remaining = count;
  }

  /// Decodes up to n records; stops early (marking the stream corrupt) on a
  /// truncated file or bad op byte, and verifies the trailer after the last
  /// record so a drained source proves the file intact.
  std::size_t drain(TraceRecord* out, std::size_t n) {
    if (status != Status::ok) return 0;
    std::size_t filled = 0;
    while (filled < n && remaining > 0) {
      const unsigned char* p = in.fetch(kRecordBytes);
      if (p == nullptr) {
        status = Status::corrupt_snapshot;
        remaining = 0;
        return filled;
      }
      const std::uint64_t take = std::min<std::uint64_t>(
          {remaining, static_cast<std::uint64_t>(n - filled),
           static_cast<std::uint64_t>(in.buffered() / kRecordBytes)});
      sum.bytes({p, static_cast<std::size_t>(take) * kRecordBytes});
      for (std::uint64_t i = 0; i < take; ++i, p += kRecordBytes) {
        if (p[12] > 1) {
          status = Status::corrupt_snapshot;
          remaining = 0;
          return filled;
        }
        out[filled++] = TraceRecord{load_le64(p), load_le32(p + 8), static_cast<Op>(p[12])};
      }
      in.consume(static_cast<std::size_t>(take) * kRecordBytes);
      remaining -= take;
    }
    if (remaining == 0 && !checked_trailer) {
      checked_trailer = true;
      const unsigned char* tail = in.fetch(8);
      if (tail == nullptr || load_le64(tail) != sum.value()) status = Status::corrupt_snapshot;
    }
    return filled;
  }

  std::ifstream is;
  ChunkReader in;
  Fnv1a sum;
  Status status = Status::ok;
  std::uint64_t count = 0;
  std::uint64_t remaining = 0;
  bool checked_trailer = false;
};

BinaryTraceSource::BinaryTraceSource(const std::string& path)
    : impl_(std::make_unique<Impl>(path)) {}

BinaryTraceSource::~BinaryTraceSource() = default;

std::optional<TraceRecord> BinaryTraceSource::next() {
  TraceRecord rec;
  if (impl_->drain(&rec, 1) == 0) return std::nullopt;
  return rec;
}

std::size_t BinaryTraceSource::next_batch(TraceRecord* out, std::size_t n) {
  return impl_->drain(out, n);
}

Status BinaryTraceSource::status() const noexcept { return impl_->status; }

std::uint64_t BinaryTraceSource::record_count() const noexcept { return impl_->count; }

void write_csv(std::ostream& os, const Trace& trace) {
  os << "time_us,lba,op\n";
  for (const auto& rec : trace) {
    os << rec.time_us << ',' << rec.lba << ',' << (rec.op == Op::write ? 'W' : 'R') << '\n';
  }
}

Status read_csv(std::istream& is, Trace* out) {
  SWL_REQUIRE(out != nullptr, "null output");
  Trace trace;
  std::string line;
  if (!std::getline(is, line)) return Status::corrupt_snapshot;  // header
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    TraceRecord rec;
    char comma1 = 0;
    char comma2 = 0;
    char op = 0;
    if (!(ls >> rec.time_us >> comma1 >> rec.lba >> comma2 >> op) || comma1 != ',' ||
        comma2 != ',' || (op != 'R' && op != 'W')) {
      return Status::corrupt_snapshot;
    }
    rec.op = op == 'W' ? Op::write : Op::read;
    trace.push_back(rec);
  }
  *out = std::move(trace);
  return Status::ok;
}

}  // namespace swl::trace
