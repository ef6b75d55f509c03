// perfbench — one run of one benchmark workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Prints a report (configuration, host fingerprint, diagnostics) and, as the
// last line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 gives the end-to-end metrics, --trace 1 the per-layer metrics of
// the traced run. Exits 1 when any correctness check failed, 2 on bad usage.
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <numeric>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "timing.hpp"
#include "workloads.hpp"

namespace {

using swl::runner::Json;

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000U, nullptr);
  if (max_leaf >= 0x80000004U) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

/// The host a measurement belongs to: figures compare only between runs on
/// matching fingerprints.
Json host_fingerprint() {
  Json j = Json::object();
  j.set("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  j.set("cpu_model", cpu_model());
  j.set("l1d_bytes", static_cast<std::int64_t>(sysconf(_SC_LEVEL1_DCACHE_SIZE)));
  j.set("l2_bytes", static_cast<std::int64_t>(sysconf(_SC_LEVEL2_CACHE_SIZE)));
  j.set("l3_bytes", static_cast<std::int64_t>(sysconf(_SC_LEVEL3_CACHE_SIZE)));
#ifdef NDEBUG
  j.set("build", "release");
#else
  j.set("build", "debug");
#endif
  return j;
}

// Host-speed probes. Each is taken before and after the workload and
// recorded, not used to normalize anything: a run whose probes differ from
// its neighbours' ran while the host changed speed, and its figures can be
// set aside.

/// Milliseconds a fixed chain of dependent integer mixes takes.
double cpu_probe_ms() {
  constexpr std::uint64_t kIterations = 10'000'000;
  const std::uint64_t t0 = perfbench::now_ns();
  std::uint64_t x = 1;
  for (std::uint64_t i = 0; i < kIterations; ++i) x = perfbench::mix64(x);
  const double ms = static_cast<double>(perfbench::now_ns() - t0) * 1e-6;
  // Keeps the chain from being optimized away; x is never 0 in practice.
  return x == 0 ? -ms : ms;
}

/// Milliseconds of 500k dependent steps along one random cycle through 8 MiB.
/// That is more than the L2 holds, so each step waits on the shared cache or
/// on memory, as the page-map lookups of a large replay do; other tenants
/// slow it down where they leave the CPU probe alone.
double memory_probe_ms() {
  constexpr std::uint32_t kSlots = 2U << 20;
  constexpr std::uint64_t kSteps = 500'000;
  std::vector<std::uint32_t> next(kSlots);
  std::iota(next.begin(), next.end(), 0U);
  // Sattolo's shuffle: the permutation is a single cycle through every slot.
  for (std::uint32_t i = kSlots - 1; i > 0; --i) {
    std::swap(next[i], next[perfbench::mix64(i) % i]);
  }
  const std::uint64_t t0 = perfbench::now_ns();
  std::uint32_t at = 0;
  for (std::uint64_t i = 0; i < kSteps; ++i) at = next[at];
  const double ms = static_cast<double>(perfbench::now_ns() - t0) * 1e-6;
  return at >= kSlots ? -ms : ms;  // keeps the walk; `at` is always a slot
}

Json probes() {
  Json j = Json::object();
  j.set("cpu_ms", cpu_probe_ms());
  j.set("memory_ms", memory_probe_ms());
  return j;
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
            << "workloads:";
  for (const std::string& w : perfbench::workload_names()) std::cerr << ' ' << w;
  std::cerr << '\n';
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions opt;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed" && parse_u64(value, n)) {
      opt.seed = n;
      have_seed = true;
    } else if (flag == "--seconds" && parse_u64(value, n) && n >= 1 && n <= 3600) {
      opt.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace" && parse_u64(value, n) && n <= 1) {
      opt.trace = n == 1;
      have_trace = true;
    } else {
      return usage("invalid " + flag + " '" + value + "'");
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are all required");
  }

  Json probe = Json::object();
  probe.set("before", probes());
  perfbench::Outcome out;
  try {
    out = perfbench::run_workload(workload, opt);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << " failed: " << e.what() << '\n';
    return 1;
  }

  probe.set("after", probes());

  Json report = Json::object();
  report.set("workload", workload);
  report.set("trace", opt.trace);
  report.set("config", std::move(out.config));
  report.set("host", host_fingerprint());
  report.set("speed_probe", std::move(probe));
  report.set("details", std::move(out.details));
  Json errors = Json::array();
  for (const std::string& e : out.errors) errors.push(e);
  report.set("errors", std::move(errors));
  std::cout << report.dump(2) << '\n';

  const bool correct = out.errors.empty() && out.failed == 0;
  Json metrics = Json::object();
  for (const perfbench::Metric& m : out.metrics) {
    Json v = Json::object();
    v.set("value", m.value);
    v.set("unit", m.unit);
    metrics.set(m.name, std::move(v));
  }
  Json result = Json::object();
  result.set("correct", correct);
  result.set("attempted", out.attempted);
  result.set("failed", out.failed);
  result.set("metrics", std::move(metrics));
  std::cout << result.dump(0) << std::endl;
  return correct ? 0 : 1;
}
