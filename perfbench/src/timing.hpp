// Measurement helpers of the benchmark: layer spans, the timing decorators
// it attaches to the simulator through public interfaces only, and the
// percentile rule every reported timing follows.
#ifndef PERFBENCH_TIMING_HPP
#define PERFBENCH_TIMING_HPP

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "swl/cleaner.hpp"
#include "swl/leveler_base.hpp"
#include "trace/trace.hpp"

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

[[nodiscard]] inline double seconds_since(std::uint64_t start_ns) noexcept {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Calls into one layer boundary and the host time spent inside them.
struct Span {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;

  void add(std::uint64_t start_ns, std::uint64_t end_ns) noexcept {
    ++calls;
    ns += end_ns - start_ns;
  }
  [[nodiscard]] double seconds() const noexcept { return static_cast<double>(ns) * 1e-9; }
};

/// Wraps a TraceSource and times every next_batch call.
class TimingTraceSource final : public swl::trace::TraceSource {
 public:
  explicit TimingTraceSource(swl::trace::TraceSource& inner) : inner_(inner) {}

  std::optional<swl::trace::TraceRecord> next() override { return inner_.next(); }

  std::size_t next_batch(swl::trace::TraceRecord* out, std::size_t n) override {
    const std::uint64_t t0 = now_ns();
    const std::size_t got = inner_.next_batch(out, n);
    span_.add(t0, now_ns());
    records_ += got;
    return got;
  }

  [[nodiscard]] const Span& span() const noexcept { return span_; }
  [[nodiscard]] std::uint64_t records() const noexcept { return records_; }

 private:
  swl::trace::TraceSource& inner_;
  Span span_;
  std::uint64_t records_ = 0;
};

/// Times the collection requests SWL-Procedure makes of the layer's Cleaner.
class TimingCleaner final : public swl::wear::Cleaner {
 public:
  TimingCleaner(swl::wear::Cleaner& inner, Span& span) : inner_(inner), span_(span) {}

  void collect_blocks(swl::BlockIndex first, swl::BlockIndex count) override {
    const std::uint64_t t0 = now_ns();
    inner_.collect_blocks(first, count);
    span_.add(t0, now_ns());
  }

 private:
  swl::wear::Cleaner& inner_;
  Span& span_;
};

/// Leveler decorator: times SWL-BETUpdate (on_block_erased) and
/// SWL-Procedure (run), and hands the procedure a TimingCleaner. Every query
/// passes straight through, so the wrapped policy behaves exactly as if it
/// were attached directly. needs_leveling() runs after every host write and
/// is deliberately left untimed.
class TimingLeveler final : public swl::wear::Leveler {
 public:
  explicit TimingLeveler(std::unique_ptr<swl::wear::Leveler> inner) : inner_(std::move(inner)) {}

  void on_block_erased(swl::BlockIndex block, std::uint32_t new_erase_count) override {
    const std::uint64_t t0 = now_ns();
    inner_->on_block_erased(block, new_erase_count);
    bet_update_.add(t0, now_ns());
  }

  [[nodiscard]] bool needs_leveling() const override { return inner_->needs_leveling(); }

  void run(swl::wear::Cleaner& cleaner) override {
    TimingCleaner timed(cleaner, collect_);
    const std::uint64_t t0 = now_ns();
    inner_->run(timed);
    procedure_.add(t0, now_ns());
  }

  [[nodiscard]] swl::BlockIndex block_count() const override { return inner_->block_count(); }
  [[nodiscard]] const swl::wear::LevelerStats& stats() const override { return inner_->stats(); }
  [[nodiscard]] std::string_view name() const override { return inner_->name(); }

  [[nodiscard]] const Span& bet_update() const noexcept { return bet_update_; }
  [[nodiscard]] const Span& procedure() const noexcept { return procedure_; }
  [[nodiscard]] const Span& collect() const noexcept { return collect_; }

 private:
  std::unique_ptr<swl::wear::Leveler> inner_;
  Span bet_update_;
  Span procedure_;
  Span collect_;
};

// -- percentiles ---------------------------------------------------------------
//
// Nearest-rank quantiles. A quantile q of n samples is reported only when at
// least kMinTail samples lie beyond it; tail_quantile() picks the highest of
// p90/p99/p99.9/p99.99 that satisfies this.

inline constexpr std::uint64_t kMinTail = 10;

/// 1-based nearest rank of quantile q among n samples (n >= 1).
[[nodiscard]] std::uint64_t nearest_rank(std::uint64_t n, double q) noexcept;

/// True when at least kMinTail of n samples lie beyond quantile q.
[[nodiscard]] bool tail_supported(std::uint64_t n, double q) noexcept;

/// Highest of 0.9, 0.99, 0.999, 0.9999 that tail_supported() accepts for n
/// samples; 0.5 when none is.
[[nodiscard]] double tail_quantile(std::uint64_t n) noexcept;

/// A timing reported as the rule above asks: sample count, median, and the
/// highest supported tail quantile with its value.
struct Percentiles {
  std::uint64_t count = 0;
  double p50 = 0.0;
  double tail_q = 0.0;
  double tail = 0.0;
};

/// Samples kept as exact counts per distinct value: simulated service times
/// take only a handful of values, so millions of samples stay small.
class Samples {
 public:
  void add(std::uint64_t v) {
    ++counts_[v];
    ++count_;
  }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  /// Value at quantile q (0 when empty).
  [[nodiscard]] std::uint64_t quantile(double q) const;
  [[nodiscard]] Percentiles summarize() const;

 private:
  std::unordered_map<std::uint64_t, std::uint64_t> counts_;
  std::uint64_t count_ = 0;
};

/// Median of a non-empty vector (mean of the middle two for even sizes).
[[nodiscard]] double median(std::vector<double> v);

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_HPP
