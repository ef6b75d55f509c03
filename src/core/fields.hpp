// Counter structs defined once.
//
// Every counter struct (TlCounters, NandCounters, LevelerStats, ...) lists
// its fields next to their declarations: a static fields() returning one
// Field{name, member pointer} per member. The generic operations below — sum
// and "first differing field" — and the JSON emitter next to runner::Json
// are derived from that one list, so a new counter reaches every merge,
// comparison and artifact without another hand-written copy. Each struct
// also static_asserts sizeof(S) == 8 * field_count<S> (every listed field is
// 8 bytes), which makes an unlisted field a compile error.
#ifndef SWL_CORE_FIELDS_HPP
#define SWL_CORE_FIELDS_HPP

#include <cstddef>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>

namespace swl {

/// One listed field: the name artifacts print it under and its member.
template <typename S, typename T>
struct Field {
  std::string_view name;
  T S::*member;
};

/// Calls f(field) for each entry of S::fields(), in list order.
template <typename S, typename F>
constexpr void for_each_field(F&& f) {
  std::apply([&](const auto&... field) { (f(field), ...); }, S::fields());
}

template <typename S>
inline constexpr std::size_t field_count = std::tuple_size_v<decltype(S::fields())>;

/// into += from, field by field.
template <typename S>
constexpr void add_fields(S& into, const S& from) {
  for_each_field<S>([&](const auto& f) { into.*f.member += from.*f.member; });
}

/// The first listed field where a and b differ, as "name a vs b"; empty when
/// every field is equal.
template <typename S>
[[nodiscard]] std::string first_difference(const S& a, const S& b) {
  std::string out;
  for_each_field<S>([&](const auto& f) {
    if (!out.empty() || a.*f.member == b.*f.member) return;
    std::ostringstream os;
    os << f.name << " " << a.*f.member << " vs " << b.*f.member;
    out = os.str();
  });
  return out;
}

}  // namespace swl

#endif  // SWL_CORE_FIELDS_HPP
