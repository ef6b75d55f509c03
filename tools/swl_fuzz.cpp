// Differential fuzzing driver for the translation-layer stack (src/model).
//
// Modes:
//
//   swl_fuzz --seed S [--layer ftl|nftl|dftl]
//       Generate and run the schedule of one seed; print its fingerprint
//       (bit-stable across runs and machines).
//
//   swl_fuzz --runs N [--seed-base S] [--layer ftl|nftl|dftl]
//       Run N consecutive seeds.
//
//   swl_fuzz --fuzz-smoke [--runs N] [--time-box-s T] [--seed-base S]
//       CI mode: run up to N schedules (default 240), rotating the
//       translation layer by seed so FTL, NFTL and DFTL are all covered,
//       with a soft wall-clock box (default 300 s) honored only after a
//       minimum of 200 schedules.
//
//   swl_fuzz --dftl-smoke [--runs N] [--time-box-s T] [--seed-base S]
//       CI mode pinning every schedule to DFTL (default 150 runs, soft time
//       box honored after 100): the flash-resident map, CMT eviction /
//       write-back batching, translation-block GC and mount recovery all
//       cross-checked against the RefDftl oracle, including crash bursts.
//
//   swl_fuzz --array-smoke [--runs N] [--time-box-s T] [--seed-base S]
//       CI mode for the multi-chip array: run up to N seeded array checks
//       (default 40) with the RefArrayWear oracle verifying every
//       coordinator decision and per-chip BET, each seed at jobs 1, 2 and 4
//       with fingerprints compared across worker counts. Soft time box
//       (default 300 s) honored after a minimum of 20 seeds.
//
//   swl_fuzz --host-smoke [--runs N] [--time-box-s T] [--seed-base S]
//       CI mode for the host front-end: run up to N seeded scheduler checks
//       (default 60) driving concurrent client threads through the queue-pair
//       API and cross-checking final content against a direct serial
//       BlockDevice oracle and a shadow map; serial-shaped seeds additionally
//       require bit-identical counters and erase counts. Soft time box
//       (default 300 s) honored after a minimum of 30 seeds.
//
//   swl_fuzz --replay FILE
//       Re-run a saved schedule file.
//
//   swl_fuzz --minimize FILE [--out FILE]
//       Shrink a failing schedule file (default output: FILE.min).
//
//   --inject-bug skip-betupdate   deliberately drop one SWL-BETUpdate on
//                                 stack A — the harness must catch it
//                                 (self-test of the oracles' teeth).
//   --inject-bug skip-cmt-writeback
//                                 deliberately drop one DFTL CMT write-back
//                                 on stack A (use with --layer dftl);
//                                 the harness must catch it.
//   --fail-dir DIR                where failing schedules are written
//                                 (default: current directory).
//
// On divergence the failing schedule is written to
// <fail-dir>/swl_fuzz_failure_<label>.schedule, minimized, the minimized
// reproducer written next to it as .min, and the exit code is 1. Exit 2 is a
// usage error.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "host/smoke.hpp"
#include "model/fuzz.hpp"
#include "model/ref_array.hpp"

namespace {

using swl::model::FuzzOptions;
using swl::model::FuzzOutcome;
using swl::model::FuzzSchedule;

struct Cli {
  std::optional<std::uint64_t> seed;
  std::uint64_t runs = 0;
  std::uint64_t seed_base = 1;
  bool fuzz_smoke = false;
  bool dftl_smoke = false;
  bool array_smoke = false;
  bool host_smoke = false;
  double time_box_s = 300.0;
  std::string replay_file;
  std::string minimize_file;
  std::string out_file;
  std::string fail_dir = ".";
  std::optional<swl::sim::LayerKind> layer;
  FuzzOptions options;
};

int usage() {
  std::cerr << "usage: swl_fuzz --seed S | --runs N [--seed-base S] | --fuzz-smoke\n"
               "                [--layer ftl|nftl|dftl] [--time-box-s T] [--fail-dir DIR]\n"
               "                [--inject-bug skip-betupdate|skip-cmt-writeback]\n"
               "       swl_fuzz --dftl-smoke [--runs N] [--seed-base S] [--time-box-s T]\n"
               "       swl_fuzz --array-smoke [--runs N] [--seed-base S] [--time-box-s T]\n"
               "       swl_fuzz --host-smoke [--runs N] [--seed-base S] [--time-box-s T]\n"
               "       swl_fuzz --replay FILE\n"
               "       swl_fuzz --minimize FILE [--out FILE]\n";
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  std::istringstream is(s);
  is >> *out;
  return !is.fail() && is.eof();
}

bool parse_double(const std::string& s, double* out) {
  std::istringstream is(s);
  is >> *out;
  return !is.fail() && is.eof();
}

std::optional<FuzzSchedule> load_schedule(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "swl_fuzz: cannot open " << path << "\n";
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  FuzzSchedule schedule;
  std::string error;
  if (!swl::model::deserialize(buf.str(), &schedule, &error)) {
    std::cerr << "swl_fuzz: " << path << ": " << error << "\n";
    return std::nullopt;
  }
  return schedule;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  out.flush();
  if (!out) {
    std::cerr << "swl_fuzz: cannot write " << path << "\n";
    return false;
  }
  return true;
}

/// Saves a failing schedule, minimizes it, saves the reproducer. Returns the
/// process exit code (always 1: a divergence was found).
int report_failure(const Cli& cli, const FuzzSchedule& schedule, const FuzzOutcome& outcome,
                   const std::string& label) {
  std::cerr << "DIVERGENCE at step " << outcome.failing_step << ": " << outcome.message << "\n";
  const std::string base = cli.fail_dir + "/swl_fuzz_failure_" + label + ".schedule";
  if (write_file(base, swl::model::serialize(schedule))) {
    std::cerr << "failing schedule written to " << base << "\n";
  }
  const swl::model::MinimizeResult min = swl::model::minimize(schedule, cli.options);
  std::cerr << "minimized to " << min.schedule.steps.size() << " step(s) in " << min.runs
            << " runs: " << min.outcome.message << "\n";
  if (write_file(base + ".min", swl::model::serialize(min.schedule))) {
    std::cerr << "minimized reproducer written to " << base << ".min\n";
  }
  return 1;
}

int run_one(const Cli& cli, std::uint64_t seed) {
  const FuzzSchedule schedule = swl::model::generate_schedule(seed, cli.layer);
  const FuzzOutcome outcome = swl::model::run_schedule(schedule, cli.options);
  if (!outcome.ok) {
    std::cerr << "seed " << seed << ": ";
    return report_failure(cli, schedule, outcome, std::to_string(seed));
  }
  std::cout << "seed " << seed << ": ok, " << schedule.steps.size() << " steps, fingerprint "
            << std::hex << outcome.fingerprint << std::dec << "\n";
  return 0;
}

int run_many(const Cli& cli, std::uint64_t runs, bool smoke, std::uint64_t smoke_minimum) {
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t done = 0;
  std::uint64_t ftl_runs = 0;
  std::uint64_t nftl_runs = 0;
  std::uint64_t dftl_runs = 0;
  for (std::uint64_t i = 0; i < runs; ++i) {
    const std::uint64_t seed = cli.seed_base + i;
    Cli per_run = cli;
    if (smoke && !per_run.layer.has_value()) {
      // Rotate the layer by index so a time-boxed run still covers all three.
      constexpr swl::sim::LayerKind kRotation[3] = {
          swl::sim::LayerKind::ftl, swl::sim::LayerKind::nftl, swl::sim::LayerKind::dftl};
      per_run.layer = kRotation[i % 3];
    }
    const FuzzSchedule schedule = swl::model::generate_schedule(seed, per_run.layer);
    const FuzzOutcome outcome = swl::model::run_schedule(schedule, cli.options);
    if (!outcome.ok) {
      std::cerr << "seed " << seed << ": ";
      return report_failure(cli, schedule, outcome, std::to_string(seed));
    }
    ++done;
    if (schedule.params.layer == swl::sim::LayerKind::ftl) {
      ++ftl_runs;
    } else if (schedule.params.layer == swl::sim::LayerKind::nftl) {
      ++nftl_runs;
    } else {
      ++dftl_runs;
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (smoke && done >= smoke_minimum && elapsed > cli.time_box_s) break;
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  std::cout << done << " schedule(s) ok (" << ftl_runs << " FTL, " << nftl_runs << " NFTL, "
            << dftl_runs << " DFTL) in " << elapsed << " s\n";
  return 0;
}

// Array-scale smoke: every seed runs the oracle-checked mini array
// experiment once per worker count — any oracle divergence or any
// jobs-dependent fingerprint fails the run. Reproduce a failing seed with
// the printed seed number (the whole experiment derives from it).
int run_array_smoke(const Cli& cli, std::uint64_t runs) {
  constexpr std::uint64_t kSmokeMinimum = 20;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t done = 0;
  std::uint64_t migrations = 0;
  for (std::uint64_t i = 0; i < runs; ++i) {
    const std::uint64_t seed = cli.seed_base + i;
    const swl::model::ArrayCheckResult base = swl::model::run_array_check(seed, /*jobs=*/1);
    if (!base.passed) {
      std::cerr << "array seed " << seed << " (jobs 1): " << base.message << "\n";
      return 1;
    }
    for (const std::uint32_t jobs : {2u, 4u}) {
      const swl::model::ArrayCheckResult r = swl::model::run_array_check(seed, jobs);
      if (!r.passed) {
        std::cerr << "array seed " << seed << " (jobs " << jobs << "): " << r.message << "\n";
        return 1;
      }
      if (r.fingerprint != base.fingerprint) {
        std::cerr << "array seed " << seed << ": fingerprint depends on worker count (jobs 1: "
                  << std::hex << base.fingerprint << ", jobs " << std::dec << jobs << ": "
                  << std::hex << r.fingerprint << std::dec << ")\n";
        return 1;
      }
    }
    ++done;
    migrations += base.migrations;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (done >= kSmokeMinimum && elapsed > cli.time_box_s) break;
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  std::cout << done << " array seed(s) ok at jobs {1,2,4}, " << migrations
            << " coordinator migration(s) exercised, in " << elapsed << " s\n";
  return 0;
}

// Host front-end smoke: every seed stands up a sharded scheduler plus a
// direct serial oracle and diffs them after concurrent client traffic (see
// src/host/smoke.hpp for what each seed checks). Reproduce a failure with
// the printed seed number.
int run_host_smoke(const Cli& cli, std::uint64_t runs) {
  constexpr std::uint64_t kSmokeMinimum = 30;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t done = 0;
  std::uint64_t strict = 0;
  std::uint64_t ops = 0;
  for (std::uint64_t i = 0; i < runs; ++i) {
    const std::uint64_t seed = cli.seed_base + i;
    const swl::host::HostCheckResult r = swl::host::run_host_check(seed);
    if (!r.passed) {
      std::cerr << "host seed " << seed << " (" << r.shards << " shard(s), " << r.clients
                << " client(s), coalesce " << (r.coalesce ? "on" : "off")
                << "): " << r.message << "\n";
      return 1;
    }
    ++done;
    if (r.serial_strict) ++strict;
    ops += r.ops;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (done >= kSmokeMinimum && elapsed > cli.time_box_s) break;
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  std::cout << done << " host seed(s) ok (" << strict << " serial-strict), " << ops
            << " request(s) exercised, in " << elapsed << " s\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= args.size()) return std::nullopt;
      return args[++i];
    };
    if (arg == "--seed") {
      std::uint64_t s = 0;
      const auto v = value();
      if (!v || !parse_u64(*v, &s)) return usage();
      cli.seed = s;
    } else if (arg == "--runs") {
      const auto v = value();
      if (!v || !parse_u64(*v, &cli.runs)) return usage();
    } else if (arg == "--seed-base") {
      const auto v = value();
      if (!v || !parse_u64(*v, &cli.seed_base)) return usage();
    } else if (arg == "--fuzz-smoke") {
      cli.fuzz_smoke = true;
    } else if (arg == "--dftl-smoke") {
      cli.dftl_smoke = true;
    } else if (arg == "--array-smoke") {
      cli.array_smoke = true;
    } else if (arg == "--host-smoke") {
      cli.host_smoke = true;
    } else if (arg == "--time-box-s") {
      const auto v = value();
      if (!v || !parse_double(*v, &cli.time_box_s)) return usage();
    } else if (arg == "--replay") {
      const auto v = value();
      if (!v) return usage();
      cli.replay_file = *v;
    } else if (arg == "--minimize") {
      const auto v = value();
      if (!v) return usage();
      cli.minimize_file = *v;
    } else if (arg == "--out") {
      const auto v = value();
      if (!v) return usage();
      cli.out_file = *v;
    } else if (arg == "--fail-dir") {
      const auto v = value();
      if (!v) return usage();
      cli.fail_dir = *v;
    } else if (arg == "--layer") {
      const auto v = value();
      if (!v) return usage();
      if (*v == "ftl") {
        cli.layer = swl::sim::LayerKind::ftl;
      } else if (*v == "nftl") {
        cli.layer = swl::sim::LayerKind::nftl;
      } else if (*v == "dftl") {
        cli.layer = swl::sim::LayerKind::dftl;
      } else {
        return usage();
      }
    } else if (arg == "--inject-bug") {
      const auto v = value();
      if (!v) return usage();
      if (*v == "skip-betupdate") {
        cli.options.inject = FuzzOptions::Inject::skip_bet_update;
      } else if (*v == "skip-cmt-writeback") {
        cli.options.inject = FuzzOptions::Inject::skip_cmt_writeback;
      } else {
        return usage();
      }
    } else {
      return usage();
    }
  }

  if (!cli.replay_file.empty()) {
    const auto schedule = load_schedule(cli.replay_file);
    if (!schedule) return 2;
    const FuzzOutcome outcome = swl::model::run_schedule(*schedule, cli.options);
    if (!outcome.ok) {
      std::cerr << "replay " << cli.replay_file << ": ";
      return report_failure(cli, *schedule, outcome, "replay");
    }
    std::cout << "replay " << cli.replay_file << ": ok, fingerprint " << std::hex
              << outcome.fingerprint << std::dec << "\n";
    return 0;
  }

  if (!cli.minimize_file.empty()) {
    const auto schedule = load_schedule(cli.minimize_file);
    if (!schedule) return 2;
    const swl::model::MinimizeResult min = swl::model::minimize(*schedule, cli.options);
    if (min.outcome.ok) {
      std::cout << cli.minimize_file << " passes; nothing to minimize\n";
      return 0;
    }
    const std::string out = cli.out_file.empty() ? cli.minimize_file + ".min" : cli.out_file;
    if (!write_file(out, swl::model::serialize(min.schedule))) return 2;
    std::cout << "minimized " << cli.minimize_file << " to " << min.schedule.steps.size()
              << " step(s) in " << min.runs << " runs -> " << out << "\n"
              << "failure: " << min.outcome.message << "\n";
    return 1;  // the schedule (still) fails; surface that to scripts
  }

  if (cli.fuzz_smoke) {
    const std::uint64_t runs = cli.runs != 0 ? cli.runs : 240;
    return run_many(cli, runs, /*smoke=*/true, /*smoke_minimum=*/200);
  }
  if (cli.dftl_smoke) {
    Cli dftl_cli = cli;
    dftl_cli.layer = swl::sim::LayerKind::dftl;
    const std::uint64_t runs = cli.runs != 0 ? cli.runs : 150;
    return run_many(dftl_cli, runs, /*smoke=*/true, /*smoke_minimum=*/100);
  }
  if (cli.array_smoke) {
    const std::uint64_t runs = cli.runs != 0 ? cli.runs : 40;
    return run_array_smoke(cli, runs);
  }
  if (cli.host_smoke) {
    const std::uint64_t runs = cli.runs != 0 ? cli.runs : 60;
    return run_host_smoke(cli, runs);
  }
  if (cli.seed.has_value()) return run_one(cli, *cli.seed);
  if (cli.runs != 0) return run_many(cli, cli.runs, /*smoke=*/false, /*smoke_minimum=*/0);
  return usage();
}
