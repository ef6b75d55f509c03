#include "layers.hpp"

#include <string>

namespace perfbench {

using swl::runner::Json;

void LayerTotals::add_stack(const swl::tl::TranslationLayer& layer, const TimingLeveler& lev) {
  const swl::tl::TlCounters& c = layer.counters();
  tl.host_writes += c.host_writes;
  tl.host_reads += c.host_reads;
  tl.gc_erases += c.gc_erases;
  tl.swl_erases += c.swl_erases;
  tl.gc_live_copies += c.gc_live_copies;
  tl.swl_live_copies += c.swl_live_copies;
  tl.fast_path_writes += c.fast_path_writes;
  tl.map_reads += c.map_reads;
  tl.map_writes += c.map_writes;

  const swl::nand::NandCounters& n = layer.chip().counters();
  nand.reads += n.reads;
  nand.programs += n.programs;
  nand.erases += n.erases;

  const swl::wear::LevelerStats& s = lev.stats();
  leveler.collections_requested += s.collections_requested;
  leveler.bet_resets += s.bet_resets;
  leveler.activations += s.activations;
  leveler.stalls += s.stalls;
  bet_update.calls += lev.bet_update().calls;
  bet_update.ns += lev.bet_update().ns;
  procedure.calls += lev.procedure().calls;
  procedure.ns += lev.procedure().ns;
  collect.calls += lev.collect().calls;
  collect.ns += lev.collect().ns;

  if (const auto* d = dynamic_cast<const swl::dftl::Dftl*>(&layer); d != nullptr) {
    has_dftl = true;
    dftl.cmt_hits += d->stats().cmt_hits;
    dftl.cmt_misses += d->stats().cmt_misses;
    dftl.writebacks += d->stats().writebacks;
    dftl.batched_writebacks += d->stats().batched_writebacks;
    dftl.gc_rmw_writes += d->stats().gc_rmw_writes;
  }
}

namespace {

double count(std::uint64_t v) { return static_cast<double>(v); }

}  // namespace

double layer_span_s(const LayerTotals& t) noexcept {
  return t.trace.seconds() + t.tl_write.seconds() + t.gc_write.seconds() + t.tl_read.seconds();
}

std::string check_parts(const LayerTotals& t) {
  const double wall = static_cast<double>(t.wall_ns) * 1e-9;
  const double spans = layer_span_s(t);
  if (wall <= 0.0) return "no traced wall time";
  if (spans > wall) {
    return "layer spans add up to " + std::to_string(spans) + " s, more than the traced " +
           std::to_string(wall) + " s";
  }
  if (wall - spans > kMaxSelfShare * wall) {
    return "layer spans cover only " + std::to_string(spans / wall) +
           " of the traced wall time (driver self time at most " +
           std::to_string(kMaxSelfShare) + ")";
  }
  return {};
}

void emit_layer_metrics(const LayerTotals& t, Outcome& out) {
  const double wall = static_cast<double>(t.wall_ns) * 1e-9;
  const double spans = layer_span_s(t);

  out.metric("trace.next_batch_s", t.trace.seconds(), "s");
  out.metric("trace.ns_per_record", ratio(t.trace.ns, t.trace_records), "ns");
  out.metric("tl.write_calls", count(t.tl_write.calls), "count");
  out.metric("tl.write_s", t.tl_write.seconds(), "s");
  out.metric("tl.read_calls", count(t.tl_read.calls), "count");
  out.metric("tl.read_s", t.tl_read.seconds(), "s");
  out.metric("tl.fast_path_share", ratio(t.tl.fast_path_writes, t.tl.host_writes), "ratio");
  out.metric("gc.write_calls", count(t.gc_write.calls), "count");
  out.metric("gc.write_s", t.gc_write.seconds(), "s");
  out.metric("gc.erases", count(t.tl.gc_erases), "count");
  out.metric("gc.live_copies", count(t.tl.gc_live_copies), "count");
  out.metric("gc.copies_per_erase", ratio(t.tl.gc_live_copies, t.tl.gc_erases), "ratio");
  out.metric("swl.bet_update_calls", count(t.bet_update.calls), "count");
  out.metric("swl.bet_update_s", t.bet_update.seconds(), "s");
  out.metric("swl.procedure_calls", count(t.procedure.calls), "count");
  out.metric("swl.procedure_s", t.procedure.seconds(), "s");
  out.metric("swl.collect_calls", count(t.collect.calls), "count");
  out.metric("swl.collect_s", t.collect.seconds(), "s");
  out.metric("swl.erases", count(t.tl.swl_erases), "count");
  out.metric("swl.live_copies", count(t.tl.swl_live_copies), "count");
  out.metric("swl.bet_resets", count(t.leveler.bet_resets), "count");
  out.metric("swl.stalls", count(t.leveler.stalls), "count");

  // A map held whole in RAM serves every lookup: hit ratio 1, no map I/O.
  const std::uint64_t lookups = t.dftl.cmt_hits + t.dftl.cmt_misses;
  out.metric("dftl.cmt_hit_ratio", t.has_dftl ? ratio(t.dftl.cmt_hits, lookups) : 1.0, "ratio");
  out.metric("dftl.map_reads", count(t.tl.map_reads), "count");
  out.metric("dftl.map_writes", count(t.tl.map_writes), "count");
  out.metric("dftl.writebacks", count(t.dftl.writebacks + t.dftl.batched_writebacks), "count");
  out.metric("dftl.gc_rmw_writes", count(t.dftl.gc_rmw_writes), "count");

  const Percentiles simw = t.sim_write_us.summarize();
  out.metric("nand.programs", count(t.nand.programs), "count");
  out.metric("nand.reads", count(t.nand.reads), "count");
  out.metric("nand.erases", count(t.nand.erases), "count");
  out.metric("nand.sim_write_p50_us", simw.p50, "sim_us");
  out.metric("nand.sim_write_p999_us", count(t.sim_write_us.quantile(0.999)), "sim_us");
  Json sim_write = Json::object();
  sim_write.set("samples", simw.count);
  sim_write.set("p999_supported", tail_supported(simw.count, 0.999));
  sim_write.set("tail_quantile", simw.tail_q);
  sim_write.set("tail_sim_us", simw.tail);
  out.details.set("sim_write_latency", std::move(sim_write));

  out.metric("driver.self_s", wall - spans, "s");
  out.metric("parts.coverage", wall > 0.0 ? spans / wall : 0.0, "ratio");
  out.metric("tracing.overhead_s", t.tracing_overhead_s, "s");
  Json breakdown = Json::object();
  breakdown.set("traced_wall_s", wall);
  breakdown.set("layer_spans_s", spans);
  breakdown.set("max_self_share", kMaxSelfShare);
  out.details.set("breakdown", std::move(breakdown));
}

}  // namespace perfbench
