#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <stdexcept>

#include "sim/experiments.hpp"

namespace perfbench {

namespace {

using swl::sim::LayerKind;

// Why each workload exists is recorded in perfbench/README.md.
ReplaySpec ftl_1g() {
  ReplaySpec s;
  s.name = "ftl_1g";
  s.layer = LayerKind::ftl;
  s.blocks = 4096;  // the paper's 1 GiB MLCx2 device
  s.endurance = 10'000;
  s.record_budget = 20'000'000;
  s.chunk_records = 1'000'000;
  return s;
}

ReplaySpec nftl_to_failure() {
  ReplaySpec s;
  s.name = "nftl_to_failure";
  s.layer = LayerKind::nftl;
  s.blocks = 1024;
  s.endurance = 2'000;
  s.record_budget = 0;  // until the first block wears out
  s.chunk_records = 250'000;
  return s;
}

ReplaySpec dftl_cmt() {
  ReplaySpec s;
  s.name = "dftl_cmt";
  s.layer = LayerKind::dftl;
  s.blocks = 256;
  s.endurance = 1'000;
  s.record_budget = 4'000'000;
  s.chunk_records = 100'000;
  return s;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"ftl_1g", "nftl_to_failure", "dftl_cmt"};
  return names;
}

Outcome run_workload(const std::string& name, const RunOptions& opt) {
  const auto replay = [&opt](const ReplaySpec& spec) {
    Outcome out = run_replay(spec, opt);
    if (opt.trace) add_host_probe(spec.layer, opt.seed, out);
    return out;
  };
  if (name == "ftl_1g") return replay(ftl_1g());
  if (name == "nftl_to_failure") return replay(nftl_to_failure());
  if (name == "dftl_cmt") return replay(dftl_cmt());
  throw std::invalid_argument("unknown workload '" + name + "'");
}

Threshold effective_threshold(double paper_threshold, std::uint32_t endurance) {
  swl::sim::ExperimentScale scale;
  scale.endurance = endurance;
  return Threshold{swl::sim::scaled_threshold(paper_threshold, scale),
                   paper_threshold * endurance / 10'000.0 < 1.0};
}

void describe_swl(swl::runner::Json& config, double paper_threshold, std::uint32_t endurance,
                  std::uint32_t k) {
  const Threshold t = effective_threshold(paper_threshold, endurance);
  config.set("endurance", static_cast<std::uint64_t>(endurance));
  config.set("swl_paper_threshold", paper_threshold);
  config.set("swl_effective_threshold", t.effective);
  config.set("swl_threshold_clamped_to_1", t.clamped);
  config.set("swl_k", static_cast<std::uint64_t>(k));
}

double projected_lifetime_years(double elapsed_years, std::uint32_t endurance,
                                const std::vector<std::uint32_t>& counts) {
  const std::uint32_t max = counts.empty() ? 0 : *std::max_element(counts.begin(), counts.end());
  return max == 0 ? 0.0 : elapsed_years * endurance / max;
}

std::uint64_t erase_fingerprint(const std::vector<std::uint32_t>& counts) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint32_t c : counts) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

double peak_rss_mib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace perfbench
