// Scalar summaries of per-block erase counts (Table 4 of the paper reports
// the average, standard deviation and maximum over all blocks).
#ifndef SWL_STATS_SUMMARY_HPP
#define SWL_STATS_SUMMARY_HPP

#include <cstdint>
#include <span>

namespace swl::stats {

struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  /// Population standard deviation (what an erase-count table reports).
  double stddev = 0.0;
  std::uint32_t min = 0;
  std::uint32_t max = 0;

  friend bool operator==(const Summary&, const Summary&) = default;
};

[[nodiscard]] Summary summarize(std::span<const std::uint32_t> values);

}  // namespace swl::stats

#endif  // SWL_STATS_SUMMARY_HPP
