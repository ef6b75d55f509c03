#include "sim/sharded_replay.hpp"

#include <algorithm>

#include "core/contracts.hpp"
#include "stats/summary.hpp"
#include "trace/segment_replay.hpp"

namespace swl::sim {

std::uint64_t shard_seed(std::uint64_t base_seed, std::uint32_t shard) noexcept {
  // splitmix64 of base_seed advanced shard+1 golden-ratio steps: the
  // canonical stream-splitting recipe — fixed, documented, and platform
  // independent, so shard streams are reproducible everywhere.
  std::uint64_t z = base_seed + 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(shard) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t shard_record_budget(std::uint64_t total, std::uint32_t shards,
                                  std::uint32_t shard) {
  // Guard the division: shards == 0 would be UB here, well before any
  // caller-side SWL_REQUIRE gets a chance to fire.
  SWL_REQUIRE(shards >= 1, "shard count must be >= 1");
  SWL_REQUIRE(shard < shards, "shard index out of range");
  return total / shards + (shard < total % shards ? 1 : 0);
}

SimResult merge_shard_results(const std::vector<SimResult>& shard_results) {
  SWL_REQUIRE(!shard_results.empty(), "merge needs at least one shard result");
  SimResult merged = shard_results.front();
  for (std::size_t i = 1; i < shard_results.size(); ++i) {
    const SimResult& s = shard_results[i];
    SWL_REQUIRE(s.erase_counts.size() == merged.erase_counts.size(),
                "shards must share one geometry");
    if (s.first_failure_years.has_value()) {
      merged.first_failure_years =
          merged.first_failure_years.has_value()
              ? std::min(*merged.first_failure_years, *s.first_failure_years)
              : s.first_failure_years;
    }
    merged.elapsed_years = std::max(merged.elapsed_years, s.elapsed_years);
    merged.records_processed += s.records_processed;
    for (std::size_t b = 0; b < merged.erase_counts.size(); ++b) {
      merged.erase_counts[b] += s.erase_counts[b];
    }
    merged.counters.host_writes += s.counters.host_writes;
    merged.counters.host_reads += s.counters.host_reads;
    merged.counters.gc_erases += s.counters.gc_erases;
    merged.counters.swl_erases += s.counters.swl_erases;
    merged.counters.gc_live_copies += s.counters.gc_live_copies;
    merged.counters.swl_live_copies += s.counters.swl_live_copies;
    merged.counters.map_reads += s.counters.map_reads;
    merged.counters.map_writes += s.counters.map_writes;
    merged.chip_counters.reads += s.chip_counters.reads;
    merged.chip_counters.programs += s.chip_counters.programs;
    merged.chip_counters.erases += s.chip_counters.erases;
    merged.chip_counters.program_failures += s.chip_counters.program_failures;
    merged.chip_counters.erase_failures += s.chip_counters.erase_failures;
    merged.chip_counters.payload_arena_allocations += s.chip_counters.payload_arena_allocations;
    merged.leveler_stats.collections_requested += s.leveler_stats.collections_requested;
    merged.leveler_stats.bet_resets += s.leveler_stats.bet_resets;
    merged.leveler_stats.activations += s.leveler_stats.activations;
    merged.leveler_stats.stalls += s.leveler_stats.stalls;
    merged.perf.records += s.perf.records;
    merged.perf.batches += s.perf.batches;
    merged.perf.batch_capacity += s.perf.batch_capacity;
    merged.perf.batch_filled += s.perf.batch_filled;
    merged.perf.source_seconds += s.perf.source_seconds;
    merged.perf.replay_seconds += s.perf.replay_seconds;
  }
  // Wear statistics over the union of all shards' blocks: recomputed from
  // the merged table with the same summarize() the serial path uses.
  merged.erase_summary = stats::summarize(merged.erase_counts);
  return merged;
}

SimResult run_replay_shard(const SimConfig& config, const ExperimentScale& scale,
                           const trace::Trace& base, double years, std::uint64_t total_records,
                           std::uint32_t shards, std::uint32_t shard, bool use_serial) {
  SWL_REQUIRE(shards >= 1, "shard count must be >= 1");
  SWL_REQUIRE(shard < shards, "shard index out of range");
  auto sim = make_simulator(config);
  // Same stream derivation run_config_on uses (scale.seed ^ 0x1234), then
  // split per shard.
  trace::SegmentReplaySource source(base, scale.segment_minutes * 60.0,
                                    shard_seed(scale.seed ^ 0x1234, shard));
  const std::uint64_t budget = shard_record_budget(total_records, shards, shard);
  // run()/run_serial() return the records processed by the call, not a
  // Status; the count still carries an invariant worth keeping: a shard may
  // stop early (horizon, exhausted source) but can never replay more than
  // its budget, or the merged point would double-count records.
  const std::uint64_t processed =
      use_serial ? sim->run_serial(source, years, /*stop_on_first_failure=*/false, budget)
                 : sim->run(source, years, /*stop_on_first_failure=*/false, budget);
  SWL_ASSERT(processed <= budget, "shard replayed more records than its budget");
  return sim->result();
}

SimResult run_sharded_on(runner::SweepRunner& runner, const SimConfig& config,
                         const ExperimentScale& scale, const trace::Trace& base, double years,
                         std::uint64_t total_records, std::uint32_t shards, bool use_serial) {
  SWL_REQUIRE(shards >= 1, "shard count must be >= 1");
  std::vector<SimResult> results = runner.map(shards, [&](std::size_t shard) {
    return run_replay_shard(config, scale, base, years, total_records, shards,
                            static_cast<std::uint32_t>(shard), use_serial);
  });
  return merge_shard_results(results);
}

}  // namespace swl::sim
