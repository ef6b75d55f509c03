#include "timing.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::uint64_t nearest_rank(std::uint64_t n, double q) noexcept {
  // The epsilon keeps q * n from rounding one rank up when it is integral
  // (0.99 * 1000 is 990, not 990.0000001).
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  if (r < 1.0) return 1;
  const auto rank = static_cast<std::uint64_t>(r);
  return std::min(rank, n);
}

bool tail_supported(std::uint64_t n, double q) noexcept {
  return n > 0 && n - nearest_rank(n, q) >= kMinTail;
}

double tail_quantile(std::uint64_t n) noexcept {
  for (const double q : {0.9999, 0.999, 0.99, 0.9}) {
    if (tail_supported(n, q)) return q;
  }
  return 0.5;
}

std::uint64_t Samples::quantile(double q) const {
  if (count_ == 0) return 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted(counts_.begin(), counts_.end());
  std::sort(sorted.begin(), sorted.end());
  const std::uint64_t rank = nearest_rank(count_, q);
  std::uint64_t seen = 0;
  for (const auto& [value, n] : sorted) {
    seen += n;
    if (seen >= rank) return value;
  }
  return sorted.back().first;
}

Percentiles Samples::summarize() const {
  Percentiles p;
  p.count = count_;
  p.tail_q = tail_quantile(p.count);
  p.p50 = static_cast<double>(quantile(0.5));
  p.tail = static_cast<double>(quantile(p.tail_q));
  return p;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

}  // namespace perfbench
