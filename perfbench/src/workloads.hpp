// The benchmark's workloads and what each run of one reports.
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "runner/json.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  /// Host seconds to keep measuring; every run also does at least two reps.
  double seconds = 10.0;
  /// false: end-to-end metrics with tracing off; true: the traced run and its
  /// per-layer metrics.
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. `errors` lists failed correctness checks; any
/// entry makes the run incorrect.
struct Outcome {
  swl::runner::Json config = swl::runner::Json::object();
  swl::runner::Json details = swl::runner::Json::object();
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void error(std::string what) {
    ++failed;
    errors.push_back(std::move(what));
  }
};

/// A trace replay through Simulator::run (SegmentReplaySource over the
/// calibrated desktop trace).
struct ReplaySpec {
  std::string name;
  swl::sim::LayerKind layer = swl::sim::LayerKind::ftl;
  swl::BlockIndex blocks = 256;
  std::uint32_t endurance = 1'000;
  /// Paper threshold T, scaled to the endurance (sim::scaled_threshold).
  double paper_threshold = 100.0;
  std::uint32_t k = 0;
  /// Records per rep; 0 runs until the first block wears out.
  std::uint64_t record_budget = 0;
  /// Records per timed Simulator::run call.
  std::uint64_t chunk_records = 0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload by name; throws std::invalid_argument for an unknown one.
[[nodiscard]] Outcome run_workload(const std::string& name, const RunOptions& opt);

[[nodiscard]] Outcome run_replay(const ReplaySpec& spec, const RunOptions& opt);

/// Runs the host front-end probe of a traced run over stacks of `layer` and
/// appends its host.* and bdev.* metrics, checks and configuration.
void add_host_probe(swl::sim::LayerKind layer, std::uint64_t seed, Outcome& out);

/// Scaled SWL threshold for `paper_threshold` at `endurance`, and whether the
/// scaling clamped it to 1 (SWL then runs on nearly every erase).
struct Threshold {
  double effective = 1.0;
  bool clamped = false;
};
[[nodiscard]] Threshold effective_threshold(double paper_threshold, std::uint32_t endurance);

/// Common configuration fields of every workload's report.
void describe_swl(swl::runner::Json& config, double paper_threshold, std::uint32_t endurance,
                  std::uint32_t k);

/// Simulated years until the most-worn block reaches `endurance`, projected
/// from `elapsed_years` of wear; 0 when nothing was erased yet.
[[nodiscard]] double projected_lifetime_years(double elapsed_years, std::uint32_t endurance,
                                              const std::vector<std::uint32_t>& counts);

/// FNV-1a over per-block erase counts.
[[nodiscard]] std::uint64_t erase_fingerprint(const std::vector<std::uint32_t>& counts);

/// Peak resident set of this process in MiB.
[[nodiscard]] double peak_rss_mib();

/// num / den, or 0 when den is 0.
[[nodiscard]] inline double ratio(std::uint64_t num, std::uint64_t den) noexcept {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Deterministic 64-bit mix (splitmix64 finalizer).
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept;

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP
