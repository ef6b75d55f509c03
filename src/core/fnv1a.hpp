// 64-bit FNV-1a, the one digest behind the BET snapshot checksum, the
// binary-trace trailer, the byte-payload token and every state fingerprint.
#ifndef SWL_CORE_FNV1A_HPP
#define SWL_CORE_FNV1A_HPP

#include <cstdint>
#include <span>

namespace swl {

class Fnv1a {
 public:
  Fnv1a& bytes(std::span<const std::uint8_t> data) noexcept {
    for (const std::uint8_t b : data) mix(b);
    return *this;
  }
  /// Feeds `v` as 8 little-endian bytes.
  Fnv1a& u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) mix(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  void mix(std::uint8_t b) noexcept {
    hash_ ^= b;
    hash_ *= 0x100000001b3ULL;
  }

  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace swl

#endif  // SWL_CORE_FNV1A_HPP
