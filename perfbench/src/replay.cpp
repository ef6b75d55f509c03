// Replay workloads: a SegmentReplaySource over the calibrated desktop trace,
// replayed through Simulator::run (untraced) or through the benchmark's own
// per-record driver with spans at every layer boundary (traced).
#include <algorithm>
#include <cmath>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dftl/dftl.hpp"
#include "layers.hpp"
#include "sim/experiments.hpp"
#include "swl/leveler.hpp"
#include "timing.hpp"
#include "trace/segment_replay.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using swl::runner::Json;
namespace sim = swl::sim;
namespace trace = swl::trace;

constexpr std::size_t kBatch = 4096;
/// Horizon for fixed-budget reps; far beyond any run, so only the budget stops them.
constexpr double kForeverYears = 1e9;

/// The base trace keeps ExperimentScale's fixed seed: it stands for the
/// paper's one collected trace. The run's seed picks the 10-minute segments
/// the infinite trace is replayed from (Section 5.1).
sim::ExperimentScale scale_of(const ReplaySpec& spec) {
  sim::ExperimentScale s;
  s.block_count = spec.blocks;
  s.endurance = spec.endurance;
  return s;
}

swl::wear::LevelerConfig leveler_of(const ReplaySpec& spec) {
  swl::wear::LevelerConfig lc;
  lc.k = spec.k;
  lc.threshold = effective_threshold(spec.paper_threshold, spec.endurance).effective;
  return lc;
}

bool to_failure(const ReplaySpec& spec) { return spec.record_budget == 0; }

double horizon_years(const ReplaySpec& spec, const sim::ExperimentScale& scale) {
  return to_failure(spec) ? scale.max_years : kForeverYears;
}

/// What set-up builds: the base trace, the stack and the record stream.
struct Stack {
  std::uint64_t segment_seed = 0;
  std::unique_ptr<trace::Trace> base;
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<trace::SegmentReplaySource> source;
  TimingLeveler* timing_leveler = nullptr;  // traced stacks only; owned by the layer
};

std::unique_ptr<trace::SegmentReplaySource> make_source(const Stack& st,
                                                        const sim::ExperimentScale& scale) {
  return std::make_unique<trace::SegmentReplaySource>(*st.base, scale.segment_minutes * 60.0,
                                                      st.segment_seed);
}

/// Builds the stack. A traced stack gets its SW Leveler wrapped in a
/// TimingLeveler, attached after construction exactly where Simulator would
/// attach the bare one (erase observers keep their order).
Stack set_up(const ReplaySpec& spec, const sim::ExperimentScale& scale, std::uint64_t seed,
             bool traced) {
  Stack s;
  s.segment_seed = mix64(seed);
  s.base = std::make_unique<trace::Trace>(sim::make_base_trace(scale, spec.layer));
  std::optional<swl::wear::LevelerConfig> lc = leveler_of(spec);
  s.sim = sim::make_simulator(sim::make_sim_config(scale, spec.layer, traced ? std::nullopt : lc));
  if (traced) {
    auto timed = std::make_unique<TimingLeveler>(
        std::make_unique<swl::wear::SwLeveler>(spec.blocks, *lc));
    s.timing_leveler = timed.get();
    s.sim->layer().attach_leveler(std::move(timed));
  }
  s.source = make_source(s, scale);
  return s;
}

/// Everything the simulated run decided; two replays of one seed must agree
/// on all of it.
struct Fingerprint {
  std::uint64_t records = 0;
  swl::tl::TlCounters tl;
  swl::nand::NandCounters nand;
  swl::wear::LevelerStats leveler;
  std::uint64_t erase_hash = 0;
  swl::SimTime sim_us = 0;
  bool worn_out = false;
};

Fingerprint fingerprint(const sim::Simulator& s, std::uint64_t records) {
  Fingerprint f;
  f.records = records;
  f.tl = s.layer().counters();
  f.nand = s.chip().counters();
  if (const auto* lev = s.layer().leveler(); lev != nullptr) f.leveler = lev->stats();
  f.erase_hash = erase_fingerprint(s.chip().erase_counts());
  f.sim_us = s.clock().now();
  f.worn_out = s.chip().first_failure().has_value();
  return f;
}

/// Field-by-field comparison; returns the names of the fields that differ.
/// fast_path_writes is left out: it counts which dispatch served a write,
/// not what the write did.
std::vector<std::string> diff(const Fingerprint& a, const Fingerprint& b) {
  std::vector<std::string> out;
  const auto cmp = [&out](const char* name, auto x, auto y) {
    if (x != y) {
      out.push_back(std::string(name) + " " + std::to_string(x) + " vs " + std::to_string(y));
    }
  };
  cmp("records", a.records, b.records);
  cmp("host_writes", a.tl.host_writes, b.tl.host_writes);
  cmp("host_reads", a.tl.host_reads, b.tl.host_reads);
  cmp("gc_erases", a.tl.gc_erases, b.tl.gc_erases);
  cmp("swl_erases", a.tl.swl_erases, b.tl.swl_erases);
  cmp("gc_live_copies", a.tl.gc_live_copies, b.tl.gc_live_copies);
  cmp("swl_live_copies", a.tl.swl_live_copies, b.tl.swl_live_copies);
  cmp("map_reads", a.tl.map_reads, b.tl.map_reads);
  cmp("map_writes", a.tl.map_writes, b.tl.map_writes);
  cmp("nand_programs", a.nand.programs, b.nand.programs);
  cmp("nand_reads", a.nand.reads, b.nand.reads);
  cmp("nand_erases", a.nand.erases, b.nand.erases);
  cmp("swl_collections", a.leveler.collections_requested, b.leveler.collections_requested);
  cmp("bet_resets", a.leveler.bet_resets, b.leveler.bet_resets);
  cmp("swl_activations", a.leveler.activations, b.leveler.activations);
  cmp("swl_stalls", a.leveler.stalls, b.leveler.stalls);
  cmp("erase_hash", a.erase_hash, b.erase_hash);
  cmp("sim_us", a.sim_us, b.sim_us);
  cmp("worn_out", a.worn_out, b.worn_out);
  return out;
}

Json fingerprint_json(const Fingerprint& f) {
  Json j = Json::object();
  j.set("records", f.records);
  j.set("host_writes", f.tl.host_writes);
  j.set("host_reads", f.tl.host_reads);
  j.set("gc_erases", f.tl.gc_erases);
  j.set("swl_erases", f.tl.swl_erases);
  j.set("gc_live_copies", f.tl.gc_live_copies);
  j.set("swl_live_copies", f.tl.swl_live_copies);
  j.set("map_reads", f.tl.map_reads);
  j.set("map_writes", f.tl.map_writes);
  j.set("nand_programs", f.nand.programs);
  j.set("erase_hash", f.erase_hash);
  j.set("sim_us", f.sim_us);
  return j;
}

/// Untraced replay of one rep through Simulator::run, one timed call per
/// chunk. Chunk rates go to `rates` (full chunks only). Returns the records
/// replayed.
std::uint64_t replay_untraced(Stack& st, const ReplaySpec& spec, const sim::ExperimentScale& scale,
                              std::vector<double>& rates, double& wall_s) {
  const double years = horizon_years(spec, scale);
  const bool stop_on_failure = to_failure(spec);
  std::uint64_t total = 0;
  const std::uint64_t start = now_ns();
  for (;;) {
    std::uint64_t want = spec.chunk_records;
    if (!to_failure(spec)) want = std::min(want, spec.record_budget - total);
    if (want == 0) break;
    const std::uint64_t t0 = now_ns();
    const std::uint64_t n = st.sim->run(*st.source, years, stop_on_failure, want);
    const std::uint64_t t1 = now_ns();
    total += n;
    if (n == spec.chunk_records && t1 > t0) {
      rates.push_back(static_cast<double>(n) * 1e9 / static_cast<double>(t1 - t0));
    }
    if (n < want) break;  // worn out (to-failure reps), or stopped early
  }
  wall_s = seconds_since(start);
  return total;
}

/// Checks that the run replayed what was asked of it.
void check_stop(const ReplaySpec& spec, const sim::Simulator& s, std::uint64_t records,
                Outcome& out) {
  if (to_failure(spec)) {
    if (!s.chip().first_failure().has_value()) {
      out.error("replay ended after " + std::to_string(records) +
                " records with no worn-out block");
    }
  } else if (records != spec.record_budget) {
    out.error("replay stopped after " + std::to_string(records) + " of " +
              std::to_string(spec.record_budget) + " records");
  }
}

/// Re-derives the record stream from the seed, keeps the payload token each
/// LBA was last written with (Simulator numbers write records 1, 2, ...), and
/// reads every LBA back through the layer. Returns the reads made.
std::uint64_t verify_content(const Stack& st, const sim::ExperimentScale& scale,
                             std::uint64_t records, Outcome& out) {
  swl::tl::TranslationLayer& layer = st.sim->layer();
  const swl::Lba lbas = layer.lba_count();
  std::vector<std::uint64_t> last(lbas, 0);
  auto source = make_source(st, scale);
  std::vector<trace::TraceRecord> buf(kBatch);
  std::uint64_t token = 1;
  for (std::uint64_t left = records; left > 0;) {
    const std::size_t got = source->next_batch(buf.data(), std::min<std::uint64_t>(kBatch, left));
    for (std::size_t i = 0; i < got; ++i) {
      if (buf[i].op == trace::Op::write) last[buf[i].lba % lbas] = token++;
    }
    left -= got;
  }
  std::uint64_t mismatches = 0;
  for (swl::Lba lba = 0; lba < lbas; ++lba) {
    std::uint64_t got = 0;
    const swl::Status s = layer.read(lba, &got);
    const bool good = last[lba] == 0 ? s == swl::Status::lba_not_mapped
                                     : s == swl::Status::ok && got == last[lba];
    if (!good && mismatches++ < 5) {
      out.error("lba " + std::to_string(lba) + " reads " + std::to_string(got) + " (" +
                std::string(swl::to_string(s)) + "), last written " + std::to_string(last[lba]));
    }
  }
  if (mismatches > 5) {
    out.errors.push_back(std::to_string(mismatches - 5) + " more content mismatches");
    out.failed += mismatches - 5;
  }
  return lbas;
}

void check_invariants(const sim::Simulator& s, Outcome& out) {
  try {
    s.layer().check_invariants();
  } catch (const std::exception& e) {
    out.error(std::string("layer invariants: ") + e.what());
  }
}

/// Simulated years until the most-worn block reaches its endurance: measured
/// when a block wore out, otherwise projected from the wear rate so far.
double lifetime_years(const sim::SimResult& r, std::uint32_t endurance) {
  return r.first_failure_years.value_or(
      projected_lifetime_years(r.elapsed_years, endurance, r.erase_counts));
}

/// Configuration the stack resolved itself.
void describe_stack(const sim::Simulator& s, Outcome& out) {
  out.config.set("pages_per_block",
                 static_cast<std::uint64_t>(s.chip().geometry().pages_per_block));
  out.config.set("lba_count", static_cast<std::uint64_t>(s.lba_count()));
  if (const auto* d = dynamic_cast<const swl::dftl::Dftl*>(&s.layer()); d != nullptr) {
    out.config.set("cmt_capacity_tpages", static_cast<std::uint64_t>(d->cmt_capacity()));
    out.config.set("tpages", static_cast<std::uint64_t>(d->tpage_count()));
  }
}

// -- traced run ----------------------------------------------------------------

/// The benchmark's per-record replay driver. Mirrors Simulator::run's record
/// loop (stop checks, clock advance, LBA wrap, payload numbering) so its
/// simulated result must equal the untraced one, and times every call into
/// the layer. The driver's own work between those calls is what is left of
/// the traced wall time (see check_parts).
std::uint64_t replay_traced(Stack& st, const ReplaySpec& spec, const sim::ExperimentScale& scale,
                            LayerTotals& t, Outcome& out) {
  sim::Simulator& s = *st.sim;
  swl::tl::TranslationLayer& layer = s.layer();
  swl::SimClock& clock = s.clock();
  const swl::nand::NandChip& chip = s.chip();
  const swl::SimTime horizon =
      swl::seconds_to_us(horizon_years(spec, scale) * swl::kSecondsPerYear);
  const bool stop_on_failure = to_failure(spec);
  const std::uint64_t budget = to_failure(spec) ? UINT64_MAX : spec.record_budget;
  const swl::Lba lbas = layer.lba_count();
  TimingTraceSource source(*st.source);
  std::vector<trace::TraceRecord> buf(kBatch);

  std::uint64_t records = 0;
  std::uint64_t token = 1;
  const std::uint64_t start = now_ns();
  bool stop = false;
  while (!stop && records < budget) {
    if (stop_on_failure && chip.first_failure().has_value()) break;
    if (clock.now() >= horizon) break;
    const std::size_t got = source.next_batch(
        buf.data(), static_cast<std::size_t>(std::min<std::uint64_t>(kBatch, budget - records)));
    if (got == 0) break;
    for (std::size_t i = 0; i < got; ++i) {
      if (stop_on_failure && chip.first_failure().has_value()) {
        stop = true;
        break;
      }
      if (clock.now() >= horizon) {
        stop = true;
        break;
      }
      const trace::TraceRecord& rec = buf[i];
      if (rec.time_us >= horizon) {
        clock.advance_to(horizon);
        stop = true;
        break;
      }
      clock.advance_to(rec.time_us);
      const swl::Lba lba = rec.lba < lbas ? rec.lba : rec.lba % lbas;
      if (rec.op == trace::Op::write) {
        const std::uint64_t erases = chip.counters().erases;
        const swl::SimTime sim0 = clock.now();
        const std::uint64_t t0 = now_ns();
        const swl::Status status = layer.write_record(lba, token++);
        const std::uint64_t t1 = now_ns();
        (chip.counters().erases != erases ? t.gc_write : t.tl_write).add(t0, t1);
        t.sim_write_us.add(clock.now() - sim0);
        if (status == swl::Status::out_of_space) {
          out.error("device out of space after " + std::to_string(records) + " records");
          stop = true;
          break;
        }
        if (status != swl::Status::ok) {
          out.error("write failed: " + std::string(swl::to_string(status)));
        }
      } else {
        std::uint64_t value = 0;
        const std::uint64_t t0 = now_ns();
        const swl::Status status = layer.read_record(lba, &value);
        const std::uint64_t t1 = now_ns();
        t.tl_read.add(t0, t1);
        if (status != swl::Status::ok && status != swl::Status::lba_not_mapped) {
          out.error("read failed: " + std::string(swl::to_string(status)));
        }
      }
      ++records;
    }
  }
  t.wall_ns = now_ns() - start;
  t.trace = source.span();
  t.trace_records = source.records();
  return records;
}

void traced_run(const ReplaySpec& spec, const sim::ExperimentScale& scale, std::uint64_t seed,
                Outcome& out) {
  LayerTotals t;
  // Untraced reference replay of the same seed, timed as a whole.
  Stack ref = set_up(spec, scale, seed, /*traced=*/false);
  std::vector<double> rates;
  double untraced_s = 0.0;
  const std::uint64_t ref_records = replay_untraced(ref, spec, scale, rates, untraced_s);
  const Fingerprint want = fingerprint(*ref.sim, ref_records);
  ref = Stack{};

  Stack st = set_up(spec, scale, seed, /*traced=*/true);
  const std::uint64_t records = replay_traced(st, spec, scale, t, out);
  out.attempted += records;
  const Fingerprint got = fingerprint(*st.sim, records);
  for (const std::string& d : diff(want, got)) out.error("traced vs untraced: " + d);
  check_stop(spec, *st.sim, records, out);
  out.details.set("fingerprint", fingerprint_json(got));
  describe_stack(*st.sim, out);
  t.add_stack(st.sim->layer(), *st.timing_leveler);
  t.tracing_overhead_s = static_cast<double>(t.wall_ns) * 1e-9 - untraced_s;
  if (std::string why = check_parts(t); !why.empty()) out.error("parts: " + why);
  emit_layer_metrics(t, out);
  out.attempted += verify_content(st, scale, records, out);
  check_invariants(*st.sim, out);
}

}  // namespace

Outcome run_replay(const ReplaySpec& spec, const RunOptions& opt) {
  Outcome out;
  const sim::ExperimentScale scale = scale_of(spec);
  out.config.set("kind", "replay");
  out.config.set("layer", std::string(sim::to_string(spec.layer)));
  out.config.set("blocks", static_cast<std::uint64_t>(spec.blocks));
  describe_swl(out.config, spec.paper_threshold, spec.endurance, spec.k);
  out.config.set("record_budget",
                 to_failure(spec) ? Json("until first failure") : Json(spec.record_budget));
  out.config.set("chunk_records", spec.chunk_records);
  out.config.set("base_trace_days", scale.base_trace_days);
  out.config.set("base_trace_seed", scale.seed);
  out.config.set("segment_minutes", scale.segment_minutes);
  out.config.set("seed", opt.seed);

  if (opt.trace) {
    traced_run(spec, scale, opt.seed, out);
    return out;
  }

  std::vector<double> setups;
  std::vector<double> rates;
  std::optional<Fingerprint> first;
  double write_amplification = 0.0;
  double wear_stddev = 0.0;
  double lifetime = 0.0;
  double peak_rss = 0.0;
  Stack st;
  const std::uint64_t start = now_ns();
  while (setups.size() < 2 || seconds_since(start) < opt.seconds) {
    st = Stack{};  // free the previous rep's stack before building the next
    const std::uint64_t t0 = now_ns();
    st = set_up(spec, scale, opt.seed, /*traced=*/false);
    setups.push_back(seconds_since(t0));
    double wall = 0.0;
    const std::uint64_t records = replay_untraced(st, spec, scale, rates, wall);
    out.attempted += records;
    check_stop(spec, *st.sim, records, out);
    const Fingerprint f = fingerprint(*st.sim, records);
    if (first.has_value()) {
      for (const std::string& d : diff(*first, f)) out.error("rep differs from the first: " + d);
      continue;
    }
    // Every rep replays the same records; the first one is checked in full.
    first = f;
    const sim::Simulator& s = *st.sim;
    const sim::SimResult r = s.result();
    write_amplification = ratio(r.chip_counters.programs, r.counters.host_writes);
    wear_stddev = r.erase_summary.stddev;
    lifetime = lifetime_years(r, spec.endurance);
    out.details.set("fingerprint", fingerprint_json(f));
    out.details.set("first_failure_measured", r.first_failure_years.has_value());
    describe_stack(s, out);
    check_invariants(s, out);
    out.attempted += verify_content(st, scale, records, out);
    // Peak of one rep's set-up, replay and checks. Later reps can only add
    // allocator fragmentation, which would make the figure depend on how
    // many reps fit into the run.
    peak_rss = peak_rss_mib();
  }
  if (rates.empty()) out.error("no full chunk was timed");
  out.metric("throughput_per_s", rates.empty() ? 0.0 : median(rates), "1/s");
  out.metric("setup_s", median(setups), "s");
  out.metric("peak_rss_mib", peak_rss, "MiB");
  out.metric("write_amplification", write_amplification, "ratio");
  out.metric("erase_stddev", wear_stddev, "erases");
  out.metric("first_failure_years", lifetime, "years");
  Json reps = Json::object();
  reps.set("reps", static_cast<std::uint64_t>(setups.size()));
  reps.set("timed_chunks", static_cast<std::uint64_t>(rates.size()));
  reps.set("chunk_rate_min", rates.empty() ? 0.0 : *std::min_element(rates.begin(), rates.end()));
  reps.set("chunk_rate_max", rates.empty() ? 0.0 : *std::max_element(rates.begin(), rates.end()));
  out.details.set("timing", std::move(reps));
  return out;
}

}  // namespace perfbench
