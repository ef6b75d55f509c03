// Tests of the benchmark's own helpers: the percentile rule and the timing
// decorators. Run with `python3 perfbench/run.py --selftest`.
#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "layers.hpp"
#include "swl/leveler.hpp"
#include "timing.hpp"
#include "trace/trace.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);      \
      ++failures;                                                      \
    }                                                                  \
  } while (false)

using namespace perfbench;

void percentile_rule() {
  CHECK(nearest_rank(1000, 0.99) == 990);
  CHECK(nearest_rank(1000, 0.5) == 500);
  CHECK(nearest_rank(1, 0.999) == 1);
  CHECK(nearest_rank(7, 0.0) == 1);
  // p99 of 1000 samples leaves exactly 10 beyond it; of 999, only 9.
  CHECK(tail_supported(1000, 0.99));
  CHECK(!tail_supported(999, 0.99));
  CHECK(!tail_supported(0, 0.5));
  CHECK(tail_quantile(1000) == 0.99);
  CHECK(tail_quantile(999) == 0.9);
  CHECK(tail_quantile(10'000) == 0.999);
  CHECK(tail_quantile(100'000) == 0.9999);
  CHECK(tail_quantile(19) == 0.5);
}

void samples_summary() {
  Samples s;
  for (std::uint64_t v = 1000; v >= 1; --v) s.add(v);  // unsorted on purpose
  const Percentiles p = s.summarize();
  CHECK(p.count == 1000);
  CHECK(p.p50 == 500.0);
  CHECK(p.tail_q == 0.99);
  CHECK(p.tail == 990.0);
  CHECK(s.quantile(1.0) == 1000);

  Samples empty;
  CHECK(empty.summarize().count == 0);
  CHECK(empty.quantile(0.5) == 0);

  // Repeated values: 90 of 100 samples are 7, so p50 is 7; the top 10 are
  // 100..109, so p90 (rank 90) is still 7 and p99 (rank 99) is 108.
  Samples repeated;
  for (int i = 0; i < 90; ++i) repeated.add(7);
  for (std::uint64_t v = 100; v < 110; ++v) repeated.add(v);
  CHECK(repeated.count() == 100);
  CHECK(repeated.quantile(0.5) == 7);
  CHECK(repeated.quantile(0.9) == 7);
  CHECK(repeated.quantile(0.91) == 100);
  CHECK(repeated.quantile(0.99) == 108);
  CHECK(repeated.summarize().tail_q == 0.9);
}

void median_rule() {
  CHECK(median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
}

/// Cleaner that erases what it is asked to collect, so SWL-BETUpdate sees
/// the erases (as a translation layer's chip observer would deliver them).
class FakeCleaner final : public swl::wear::Cleaner {
 public:
  explicit FakeCleaner(swl::wear::Leveler& lev) : lev_(lev) {}
  void collect_blocks(swl::BlockIndex first, swl::BlockIndex count) override {
    calls.emplace_back(first, count);
    for (swl::BlockIndex b = first; b < first + count; ++b) lev_.on_block_erased(b, 1);
  }
  std::vector<std::pair<swl::BlockIndex, swl::BlockIndex>> calls;

 private:
  swl::wear::Leveler& lev_;
};

void timing_leveler_passes_through() {
  swl::wear::LevelerConfig cfg;
  cfg.threshold = 4.0;
  constexpr swl::BlockIndex kBlocks = 64;
  swl::wear::SwLeveler bare(kBlocks, cfg);
  auto inner = std::make_unique<swl::wear::SwLeveler>(kBlocks, cfg);
  const swl::wear::SwLeveler* inner_ptr = inner.get();
  TimingLeveler timed(std::move(inner));

  CHECK(timed.name() == bare.name());
  CHECK(timed.block_count() == kBlocks);
  CHECK(&timed.stats() == &inner_ptr->stats());

  // Hammer a few blocks so the unevenness level crosses T.
  for (int i = 0; i < 200; ++i) {
    const auto b = static_cast<swl::BlockIndex>(i % 3);
    bare.on_block_erased(b, 1);
    timed.on_block_erased(b, 1);
    CHECK(timed.needs_leveling() == bare.needs_leveling());
  }
  CHECK(timed.bet_update().calls == 200);
  CHECK(timed.needs_leveling());

  FakeCleaner bare_cleaner(bare);
  FakeCleaner timed_cleaner(timed);
  bare.run(bare_cleaner);
  timed.run(timed_cleaner);
  CHECK(bare_cleaner.calls == timed_cleaner.calls);
  CHECK(!timed_cleaner.calls.empty());
  CHECK(timed.procedure().calls == 1);
  CHECK(timed.collect().calls == timed_cleaner.calls.size());
  CHECK(timed.procedure().ns >= timed.collect().ns);
  CHECK(timed.stats().collections_requested == bare.stats().collections_requested);
  CHECK(timed.stats().bet_resets == bare.stats().bet_resets);
  CHECK(timed.stats().activations == bare.stats().activations);
  CHECK(timed.stats().stalls == bare.stats().stalls);
  CHECK(timed.needs_leveling() == bare.needs_leveling());
  CHECK(timed.bet_update().calls == 200 + timed_cleaner.calls.size() * 1);
}

void timing_cleaner_passes_through() {
  swl::wear::SwLeveler lev(8, swl::wear::LevelerConfig{});
  FakeCleaner inner(lev);
  Span span;
  TimingCleaner timed(inner, span);
  timed.collect_blocks(2, 3);
  timed.collect_blocks(5, 1);
  CHECK((inner.calls == std::vector<std::pair<swl::BlockIndex, swl::BlockIndex>>{{2, 3}, {5, 1}}));
  CHECK(span.calls == 2);
}

void timing_trace_source_passes_through() {
  swl::trace::Trace records;
  for (std::uint64_t i = 0; i < 10; ++i) {
    const auto op = i % 2 == 0 ? swl::trace::Op::write : swl::trace::Op::read;
    records.push_back({i, static_cast<swl::Lba>(i * 3), op});
  }
  swl::trace::VectorTraceSource inner(records);
  TimingTraceSource timed(inner);
  std::vector<swl::trace::TraceRecord> got(4);
  swl::trace::Trace all;
  for (std::size_t n; (n = timed.next_batch(got.data(), got.size())) > 0;) {
    all.insert(all.end(), got.begin(), got.begin() + static_cast<std::ptrdiff_t>(n));
  }
  CHECK(all == records);
  CHECK(timed.records() == 10);
  CHECK(timed.span().calls == 4);  // 4 + 4 + 2 + the empty end-of-trace call
}

/// Totals whose four layer spans take `span_ns` each of a `wall_ns` run.
LayerTotals totals(std::uint64_t span_ns, std::uint64_t wall_ns) {
  LayerTotals t;
  t.trace.add(0, span_ns);
  t.tl_write.add(0, span_ns);
  t.gc_write.add(0, span_ns);
  t.tl_read.add(0, span_ns);
  t.wall_ns = wall_ns;
  return t;
}

void parts_check_fires() {
  // Spans cover 80% of the wall time: within the allowed driver share.
  CHECK(check_parts(totals(200, 1000)).empty());
  CHECK(std::abs(layer_span_s(totals(200, 1000)) - 800e-9) < 1e-15);
  // Spans cover 40%: the driver took more than kMaxSelfShare.
  CHECK(!check_parts(totals(100, 1000)).empty());
  // Spans add up to more than the wall time: some were counted twice.
  CHECK(!check_parts(totals(300, 1000)).empty());
  CHECK(!check_parts(totals(0, 0)).empty());
}

}  // namespace

int main() {
  percentile_rule();
  samples_summary();
  median_rule();
  timing_leveler_passes_through();
  timing_cleaner_passes_through();
  timing_trace_source_passes_through();
  parts_check_fires();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
