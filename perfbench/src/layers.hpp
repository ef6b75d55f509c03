// Per-layer totals of one traced run and the per-layer metrics they give.
#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

#include <cstdint>
#include <string>

#include "dftl/dftl.hpp"
#include "nand/nand_chip.hpp"
#include "swl/leveler_base.hpp"
#include "timing.hpp"
#include "tl/translation_layer.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Spans and counters of one traced run, summed over every stack it drove.
struct LayerTotals {
  Span trace;
  std::uint64_t trace_records = 0;
  /// Host writes that erased no block, host writes that erased at least one
  /// (GC, folds, and SWL-Procedure when it ran after the write), host reads.
  Span tl_write;
  Span gc_write;
  Span tl_read;
  /// Traced wall time, from the driver's first stamp to its last.
  std::uint64_t wall_ns = 0;
  /// Traced minus untraced wall time of the same work.
  double tracing_overhead_s = 0.0;
  /// Simulated time of each host write, including GC and SWL stalls.
  Samples sim_write_us;

  swl::tl::TlCounters tl;
  swl::nand::NandCounters nand;
  swl::wear::LevelerStats leveler;
  Span bet_update;
  Span procedure;
  Span collect;
  bool has_dftl = false;
  swl::dftl::DftlStats dftl;

  /// Adds one stack's counters and its TimingLeveler's spans.
  void add_stack(const swl::tl::TranslationLayer& layer, const TimingLeveler& leveler);
};

/// Tolerance of the parts-add-up check of the replay driver. The trace,
/// tl.write, gc.write and tl.read spans are stamped around each call on their
/// own; the rest of the traced wall time is the driver's own work
/// (driver.self_s). The spans may not add up to more than the wall time, and
/// the driver may take at most this share of it.
inline constexpr double kMaxSelfShare = 0.4;

/// Sum of the trace, tl.write, gc.write and tl.read spans, in seconds.
[[nodiscard]] double layer_span_s(const LayerTotals& t) noexcept;

/// Why the spans do not add up to the traced wall time; empty when they do.
[[nodiscard]] std::string check_parts(const LayerTotals& t);

/// Appends every trace.*, tl.*, gc.*, swl.*, dftl.*, nand.*, driver.*,
/// parts.* and tracing.* metric.
void emit_layer_metrics(const LayerTotals& t, Outcome& out);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_HPP
