#include "sim/sharded_replay.hpp"

#include <algorithm>

#include "core/contracts.hpp"
#include "core/fields.hpp"
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
    add_fields(merged.counters, s.counters);
    add_fields(merged.chip_counters, s.chip_counters);
    add_fields(merged.leveler_stats, s.leveler_stats);
    add_fields(merged.perf, s.perf);
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
