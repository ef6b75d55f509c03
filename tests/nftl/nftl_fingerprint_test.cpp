// Pinned end-to-end fingerprint of a small NFTL+SWL run to the first
// worn-out block.
//
// NFTL's greedy bar (invalid > valid) rarely clears on its blocks, so nearly
// every GC round takes the most-invalid fallback and folds the victim's VBA;
// SW Leveling adds its own folds on top. Which block each round picks, and
// which pages each fold copies, decide every later erase. This test freezes
// the outcome — the per-block erase counts (FNV-1a), every TlCounters and
// LevelerStats field, and the simulated clock — so a change that drifts
// victim order or fold copies fails here directly, without going through
// the reference-scan differential tests. A deliberate change to the
// simulated behaviour must re-pin the constants below.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/fields.hpp"
#include "core/fnv1a.hpp"
#include "sim/experiments.hpp"
#include "sim/simulator.hpp"
#include "trace/segment_replay.hpp"
#include "trace/synthetic.hpp"

namespace swl::sim {
namespace {

struct Fingerprint {
  std::uint64_t erase_counts_fnv = 0;
  tl::TlCounters counters;
  wear::LevelerStats leveler;
  SimTime clock_us = 0;
};

Fingerprint run_nftl_swl_to_failure() {
  ExperimentScale scale;
  scale.block_count = 160;  // 128 pages per block: NFTL's real block shape
  scale.endurance = 150;
  scale.base_trace_days = 0.25;
  scale.seed = 5;
  wear::LevelerConfig lc;
  lc.k = 0;
  lc.threshold = scaled_threshold(1'000, scale);
  auto sim = make_simulator(make_sim_config(scale, LayerKind::nftl, lc));
  const trace::Trace base =
      trace::generate_synthetic_trace(make_trace_config(scale, sim->lba_count()));
  trace::SegmentReplaySource source(base, scale.segment_minutes * 60.0, scale.seed);
  while (!sim->chip().first_failure().has_value()) {
    if (sim->run(source, scale.max_years, true, 1 << 16) == 0) break;
  }
  const SimResult r = sim->result();
  Fingerprint fp;
  Fnv1a h;
  for (const std::uint32_t e : r.erase_counts) h.u64(e);
  fp.erase_counts_fnv = h.value();
  fp.counters = r.counters;
  fp.leveler = r.leveler_stats;
  fp.clock_us = sim->clock().now();
  EXPECT_TRUE(r.first_failure_years.has_value()) << "the run must end at a worn-out block";
  return fp;
}

TEST(NftlFingerprint, SwlRunToFirstFailureIsPinned) {
  const Fingerprint fp = run_nftl_swl_to_failure();

  tl::TlCounters want_counters;
  want_counters.host_writes = 53999;
  want_counters.host_reads = 41718;
  want_counters.gc_erases = 11618;
  want_counters.swl_erases = 47;
  want_counters.gc_live_copies = 197841;
  want_counters.swl_live_copies = 942;
  want_counters.fast_path_writes = 0;
  want_counters.map_reads = 0;
  want_counters.map_writes = 0;
  wear::LevelerStats want_leveler;
  want_leveler.collections_requested = 46;
  want_leveler.bet_resets = 4;
  want_leveler.activations = 50;
  want_leveler.stalls = 0;

  EXPECT_EQ(first_difference(fp.counters, want_counters), "");
  EXPECT_EQ(first_difference(fp.leveler, want_leveler), "");
  EXPECT_EQ(fp.erase_counts_fnv, UINT64_C(8251725937181051378));
  EXPECT_EQ(fp.clock_us, UINT64_C(28747522987));
}

}  // namespace
}  // namespace swl::sim
