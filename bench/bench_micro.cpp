// Micro-benchmarks of the mechanism's hot paths plus the end-to-end replay
// pipeline, emitting the machine-readable artifact the perf-regression gate
// compares (tools/perf_compare against the committed bench/BENCH_micro.json).
//
// Every benchmark runs a *fixed* amount of work and reports items/second, so
// two runs differ only in timing, never in what was executed. `calibrate` is
// a pure-integer spin with no memory traffic: its throughput tracks raw
// machine speed and lets the comparator normalize away host differences.
//
// Coverage:
//   - bet_update / bet_scan      SWL-BETUpdate cost and zero-flag scanning
//   - swl_procedure              full SW Leveler runs (cyclic selection)
//   - ftl_write / nftl_write /
//     dftl_write                 raw layer write throughput (hot/cold mix;
//                                dftl pays the CMT + translation-page path)
//   - hot_data_*                 hotness identifier record/classify
//   - scatter_permutation        LBA scattering permutation
//   - trace_generation           synthetic workload synthesis
//   - victim_select              tl::VictimIndex mark/flush/select mix
//   - host_qd1 / host_qd1_p99_ns the host scheduler's per-request round trip
//                                (sync QD1 writes through one queue pair,
//                                coalescing off); the _p99_ns point is the
//                                p99 write latency and gates lower-is-better
//   - host_mt                    2 clients x 2 shards async at QD 64 — the
//                                cross-thread submit/complete hand-off cost
//                                (kept small: baselines record on any host)
//   - replay_ftl / replay_nftl /
//     replay_dftl                the headline: Simulator::run over a
//                                SegmentReplaySource at the default scale,
//                                with the batched pipeline's PerfCounters
//                                attached to the point (replay_dftl also
//                                reports map_reads/map_writes — the wear
//                                cost of the flash-resident map)
//   - replay_ftl_sharded         the same budget split over --shards device
//                                replicas on the --jobs thread pool with a
//                                deterministic merge
//   - replay_array               the multi-chip path: records routed across
//                                a 2x2 ChipArray (per-chip SWL + the global
//                                coordinator) with per-channel dispatch on
//                                the --jobs pool
//
// Micro-point timings run sequentially regardless of --jobs — parallel
// timing on a shared host would only add noise. The sharded replay point is
// the exception: its shards execute on the --jobs pool (its *result* is
// still identical for every --jobs value).
#include <array>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/permutation.hpp"
#include "sim/array_experiment.hpp"
#include "core/rng.hpp"
#include "dftl/dftl.hpp"
#include "ftl/ftl.hpp"
#include "host/scheduler.hpp"
#include "hotness/hot_data.hpp"
#include "nftl/nftl.hpp"
#include "swl/bet.hpp"
#include "swl/leveler.hpp"
#include "sim/sharded_replay.hpp"
#include "tl/victim_index.hpp"
#include "trace/segment_replay.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace swl;

double now_seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since).count();
}

/// Runs `body` kReps times (it performs the same fixed work each time) and
/// keeps the fastest repetition — best-of-N suppresses scheduler and
/// frequency-scaling noise far better than averaging, which the 15%
/// regression gate needs. Prints the human line and appends the point the
/// perf gate keys on: {name, items, seconds, items_per_second}. `body` must
/// return the number of items it processed.
constexpr int kReps = 3;

template <typename Body>
void run_point(bench::BenchReport& report, const std::string& name, Body&& body) {
  std::uint64_t items = 0;
  double seconds = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    items = body();
    const double s = now_seconds(start);
    if (rep == 0 || s < seconds) seconds = s;
  }
  const double ips = seconds > 0.0 ? static_cast<double>(items) / seconds : 0.0;
  std::cout << "  " << name << ": " << sim::fmt(ips / 1e6, 2) << " Mitems/s  (" << items
            << " items in " << sim::fmt(seconds * 1e3, 1) << " ms)\n";
  runner::Json point = runner::Json::object();
  point.set("name", name);
  point.set("items", items);
  point.set("seconds", seconds);
  point.set("items_per_second", ips);
  report.add_point(std::move(point));
}

std::uint64_t bet_update() {
  constexpr BlockIndex kBlocks = 4096;
  constexpr std::uint64_t kIters = 20'000'000;
  wear::LevelerConfig lc;
  lc.threshold = 1e18;  // isolate SWL-BETUpdate: never run the procedure
  wear::SwLeveler lev(kBlocks, lc);
  Rng rng(1);
  for (std::uint64_t i = 0; i < kIters; ++i) {
    lev.on_block_erased(static_cast<BlockIndex>(rng.below(kBlocks)));
  }
  return kIters;
}

std::uint64_t bet_scan() {
  // Nearly-full table: the worst case for the cyclic zero-flag scan.
  constexpr std::size_t kFlags = 65536;
  constexpr std::uint64_t kIters = 4'000'000;
  wear::Bet bet(kFlags, 0);
  Rng rng(2);
  while (bet.set_count() < kFlags * 99 / 100) {
    bet.mark_erased(static_cast<BlockIndex>(rng.below(kFlags)));
  }
  std::size_t start = 0;
  std::uint64_t found = 0;
  for (std::uint64_t i = 0; i < kIters; ++i) {
    found += bet.next_clear_flag(start);
    start = (start + 97) % kFlags;
  }
  volatile std::uint64_t sink = found;
  (void)sink;
  return kIters;
}

std::uint64_t swl_procedure() {
  // Full SWL runs, cyclic selection: threshold crossings force the procedure
  // every iteration; the cleaner feeds erases back so the BET stays live.
  constexpr std::uint64_t kIters = 5000;
  for (std::uint64_t i = 0; i < kIters; ++i) {
    wear::LevelerConfig lc;
    lc.threshold = 4;
    lc.selection = wear::LevelerConfig::Selection::cyclic_scan;
    wear::SwLeveler lev(4096, lc);
    class CountingCleaner final : public wear::Cleaner {
     public:
      explicit CountingCleaner(wear::SwLeveler& l) : lev_(l) {}
      void collect_blocks(BlockIndex first, BlockIndex count) override {
        for (BlockIndex b = first; b < first + count; ++b) lev_.on_block_erased(b);
      }

     private:
      wear::SwLeveler& lev_;
    } cleaner(lev);
    for (int e = 0; e < 512; ++e) lev.on_block_erased(0);
    lev.run(cleaner);
  }
  return kIters;
}

template <typename MakeLayer>
std::uint64_t layer_write(MakeLayer&& make_layer, bool store_bytes = false) {
  constexpr std::uint64_t kWrites = 1'000'000;
  nand::NandConfig nc;
  nc.geometry = FlashGeometry{.block_count = 256, .pages_per_block = 64, .page_size_bytes = 2048};
  nc.timing = default_timing(CellType::mlc_x2);
  nc.store_payload_bytes = store_bytes;  // DFTL translation pages need bytes
  auto chip = std::make_unique<nand::NandChip>(nc);
  auto layer = make_layer(*chip);
  const Lba lbas = layer->lba_count();
  Rng rng(3);
  std::uint64_t token = 1;
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    // Hot/cold mix: half the writes to 64 hot pages.
    const Lba lba =
        rng.chance(0.5) ? static_cast<Lba>(rng.below(64)) : static_cast<Lba>(rng.below(lbas));
    // Benign discard: the replay-throughput point measures the write path
    // itself; out_of_space cannot occur at this utilization.
    discard_status(layer->write(lba, token++));  // flash-lint: allow(status-provenance)
  }
  return kWrites;
}

std::uint64_t hot_data_record_write() {
  constexpr std::uint64_t kIters = 20'000'000;
  hotness::HotDataIdentifier id(hotness::HotDataConfig{});
  Rng rng(4);
  for (std::uint64_t i = 0; i < kIters; ++i) {
    id.record_write(static_cast<Lba>(rng.below(1'000'000)));
  }
  return kIters;
}

std::uint64_t hot_data_classify() {
  constexpr std::uint64_t kIters = 20'000'000;
  hotness::HotDataIdentifier id(hotness::HotDataConfig{});
  Rng rng(5);
  for (int i = 0; i < 100'000; ++i) id.record_write(static_cast<Lba>(rng.below(10'000)));
  std::uint64_t hot = 0;
  for (std::uint64_t i = 0; i < kIters; ++i) {
    hot += id.is_hot(static_cast<Lba>(rng.below(10'000))) ? 1 : 0;
  }
  volatile std::uint64_t sink = hot;
  (void)sink;
  return kIters;
}

std::uint64_t scatter_permutation() {
  constexpr std::uint64_t kIters = 20'000'000;
  RandomPermutation perm(524'288, 9);
  std::uint64_t x = 0;
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < kIters; ++i) {
    sum += perm(x);
    x = (x + 1) % perm.size();
  }
  volatile std::uint64_t sink = sum;
  (void)sink;
  return kIters;
}

std::uint64_t trace_generation() {
  // Synthesizes ten hours of the calibrated desktop workload; items are the
  // records produced so the metric survives workload retuning.
  std::uint64_t records = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    trace::SyntheticConfig tc;
    tc.lba_count = 100'000;
    tc.duration_s = 3600;
    tc.seed = seed;
    records += trace::generate_synthetic_trace(tc).size();
  }
  return records;
}

/// Mixed tl::VictimIndex workload over a device-scale block population:
/// dirty-marks dominate (the per-write maintenance cost), with flush+select
/// queries mixed in — roughly 60% marks, 30% positive-scan selections, 10%
/// most-invalid fallback probes.
std::uint64_t victim_select() {
  constexpr BlockIndex kBlocks = 4096;
  constexpr PageIndex kPages = 64;
  nand::NandConfig cc;
  cc.geometry = FlashGeometry{kBlocks, kPages, 512};
  cc.timing = default_timing(CellType::slc_large_block);
  nand::NandChip chip(cc);
  Rng rng(7);
  // Populate every block with a random valid/invalid split so scores spread
  // across the whole range and both query paths see realistic masks.
  for (BlockIndex b = 0; b < kBlocks; ++b) {
    const auto programmed = static_cast<PageIndex>(rng.below(kPages + 1));
    for (PageIndex page = 0; page < programmed; ++page) {
      (void)chip.program_page(Ppa{b, page}, 1, nand::SpareArea{0, 1, 0});
      if (rng.chance(0.5)) (void)chip.invalidate_page(Ppa{b, page});
    }
  }
  tl::VictimIndex index(kBlocks, kPages, 1.0);
  for (BlockIndex b = 0; b < kBlocks; ++b) index.mark_dirty(b);
  constexpr std::uint64_t kIters = 2'000'000;
  std::uint64_t sink = 0;
  std::size_t cursor = 0;
  for (std::uint64_t i = 0; i < kIters; ++i) {
    const std::uint64_t pick = rng.below(10);
    if (pick < 6) {
      index.mark_dirty(static_cast<BlockIndex>(rng.below(kBlocks)));
    } else if (pick < 9) {
      index.flush(chip);
      if (index.any_positive()) {
        const auto b = static_cast<BlockIndex>(index.next_positive(cursor));
        cursor = (static_cast<std::size_t>(b) + 1) % kBlocks;
        sink += b;
      }
    } else {
      index.flush(chip);
      sink += index.most_invalid(chip);
    }
  }
  volatile std::uint64_t side_effect = sink;
  (void)side_effect;
  return kIters;
}

host::ShardStack make_host_stack() {
  nand::NandConfig nc;
  nc.geometry = FlashGeometry{.block_count = 128, .pages_per_block = 64, .page_size_bytes = 2048};
  nc.timing = default_timing(CellType::mlc_x2);
  host::ShardStack s;
  s.chip = std::make_unique<nand::NandChip>(nc);
  s.layer = std::make_unique<ftl::Ftl>(*s.chip, ftl::FtlConfig{});
  s.dev = std::make_unique<bdev::BlockDevice>(*s.layer);
  return s;
}

/// The host scheduler's per-request round trip: synchronous QD1 writes
/// through one queue pair with coalescing off (the serial-equivalence
/// configuration). One run feeds two points — throughput (host_qd1) and the
/// p99 write latency from the stream's histogram (host_qd1_p99_ns), which
/// the perf gate treats as lower-is-better. Both keep the best across
/// repetitions: fastest run for throughput, lowest p99 for latency.
void host_qd1_points(bench::BenchReport& report) {
  constexpr std::uint64_t kOps = 100'000;
  std::uint64_t p99_ns = 0;
  std::uint64_t ops = 0;
  double seconds = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    std::vector<host::ShardStack> stacks;
    stacks.push_back(make_host_stack());
    host::HostConfig config;
    config.coalesce_writes = false;
    host::HostScheduler sched(std::move(stacks), config);
    host::QueuePair& qp = sched.open_queue_pair();
    sched.start();
    const std::uint64_t sectors = sched.sector_count();
    const std::uint64_t lane_mask = sched.shard_device(0).lane_mask();
    Rng rng(11);
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kOps; ++i) {
      SWL_CHECK_OK(qp.write_sector(rng.below(sectors), rng.next() & lane_mask));
    }
    const double s = now_seconds(start);
    sched.stop();
    ops = kOps;
    const std::uint64_t rep_p99 = qp.write_latency().quantile(0.99);
    if (rep == 0 || s < seconds) seconds = s;
    if (rep == 0 || rep_p99 < p99_ns) p99_ns = rep_p99;
  }
  const double ips = seconds > 0.0 ? static_cast<double>(ops) / seconds : 0.0;
  std::cout << "  host_qd1: " << sim::fmt(ips / 1e6, 2) << " Mreq/s  (" << ops << " requests in "
            << sim::fmt(seconds * 1e3, 1) << " ms, p99 " << p99_ns << " ns)\n";

  runner::Json point = runner::Json::object();
  point.set("name", "host_qd1");
  point.set("items", ops);
  point.set("seconds", seconds);
  point.set("items_per_second", ips);
  report.add_point(std::move(point));

  runner::Json lat = runner::Json::object();
  lat.set("name", "host_qd1_p99_ns");
  lat.set("items", ops);
  lat.set("seconds", seconds);
  // For latency points items_per_second carries the cost metric itself (ns);
  // the flag tells perf_compare to gate in the opposite direction.
  lat.set("items_per_second", static_cast<double>(p99_ns));
  lat.set("lower_is_better", true);
  report.add_point(std::move(lat));
}

/// The cross-thread hand-off cost: 2 client threads driving 2 shards
/// asynchronously at QD 64 — submission rings, completion rings and
/// EventCount parking all on the hot path. Kept deliberately small (2x2) so
/// the point measures the hand-off machinery, not this host's core count.
std::uint64_t host_mt() {
  constexpr std::uint64_t kOpsPerClient = 150'000;
  constexpr unsigned kClients = 2;
  std::vector<host::ShardStack> stacks;
  for (unsigned s = 0; s < kClients; ++s) stacks.push_back(make_host_stack());
  host::HostConfig config;
  config.queue_depth = 64;
  host::HostScheduler sched(std::move(stacks), config);
  std::vector<host::QueuePair*> qps;
  for (unsigned c = 0; c < kClients; ++c) qps.push_back(&sched.open_queue_pair());
  sched.start();
  const std::uint64_t sectors = sched.sector_count();
  const std::uint64_t lane_mask = sched.shard_device(0).lane_mask();
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (unsigned c = 0; c < kClients; ++c) {
    host::QueuePair* qp = qps[c];
    threads.emplace_back([qp, sectors, lane_mask, c] {
      Rng rng(21 + c);
      std::array<host::Completion, 64> comps;
      for (std::uint64_t op = 0; op < kOpsPerClient; ++op) {
        const std::uint64_t sector = rng.below(sectors);
        const std::uint64_t value = rng.next() & lane_mask;
        Status st = qp->submit_write(sector, value, host::SubmitMode::try_once);
        while (st == Status::busy) {
          if (qp->counters().inflight() > 0) (void)qp->wait(comps);
          st = qp->submit_write(sector, value, host::SubmitMode::try_once);
        }
        SWL_CHECK_OK(st);
        if (op % 16 == 0) (void)qp->poll(comps);
      }
      while (qp->counters().inflight() > 0) (void)qp->wait(comps);
    });
  }
  for (auto& t : threads) t.join();
  sched.stop();
  return kOpsPerClient * kClients;
}

/// The headline benchmark: the full batched replay pipeline — Simulator::run
/// pulling a SegmentReplaySource through the layer's write()/read() at this
/// binary's --blocks/--seed scale.
void replay_point(bench::BenchReport& report, const bench::Options& opt, sim::LayerKind kind,
                  const trace::Trace& base) {
  constexpr std::uint64_t kRecords = 8'000'000;
  const std::string name =
      std::string("replay_") + (kind == sim::LayerKind::ftl    ? "ftl"
                                : kind == sim::LayerKind::nftl ? "nftl"
                                                               : "dftl");
  // Best-of-kReps like run_point; every repetition replays the same records
  // into a fresh simulator, and the reported counters come from the fastest.
  std::uint64_t records = 0;
  double seconds = 0.0;
  sim::SimResult result;
  for (int rep = 0; rep < kReps; ++rep) {
    auto fresh = sim::make_simulator(sim::make_sim_config(opt.scale, kind, std::nullopt));
    trace::SegmentReplaySource src(base, 600.0, opt.scale.seed ^ 0x1234);
    const auto start = std::chrono::steady_clock::now();
    records = fresh->run(src, 1e6, false, kRecords);
    const double s = now_seconds(start);
    if (rep == 0 || s < seconds) {
      seconds = s;
      result = fresh->result();
    }
  }

  const double ips = seconds > 0.0 ? static_cast<double>(records) / seconds : 0.0;
  const sim::PerfCounters& perf = result.perf;
  std::cout << "  " << name << ": " << sim::fmt(ips / 1e6, 2) << " Mrec/s  (" << records
            << " records in " << sim::fmt(seconds * 1e3, 1) << " ms, batch fill "
            << sim::fmt(perf.batch_fill_ratio() * 100.0, 1) << "%)\n";

  runner::Json point = runner::Json::object();
  point.set("name", name);
  point.set("items", records);
  point.set("seconds", seconds);
  point.set("items_per_second", ips);
  // Pipeline detail for the artifact: wall-clock perf counters plus the
  // deterministic counters that double as a semantics canary — they must not
  // move unless the simulation itself changed.
  runner::Json extra = runner::Json::object();
  extra.set("records_per_second", perf.records_per_second());
  extra.set("batch_fill_ratio", perf.batch_fill_ratio());
  extra.set("source_ns_per_record", perf.source_ns_per_record());
  extra.set("replay_ns_per_record", perf.replay_ns_per_record());
  extra.set("host_writes", result.counters.host_writes);
  extra.set("total_erases", result.counters.total_erases());
  extra.set("total_live_copies", result.counters.total_live_copies());
  // Mapping I/O: zero for the in-RAM-map layers, the wear overhead of the
  // flash-resident map for replay_dftl.
  extra.set("map_reads", result.counters.map_reads);
  extra.set("map_writes", result.counters.map_writes);
  point.set("replay", std::move(extra));
  report.add_point(std::move(point));
}

/// The sharded replay pipeline: replay_ftl's record budget split across
/// `--shards` device replicas executed on a `--jobs`-worker SweepRunner and
/// merged deterministically — the one micro point whose wall time uses the
/// thread pool (the merged result is identical for every --jobs value).
void sharded_replay_point(bench::BenchReport& report, const bench::Options& opt,
                          const trace::Trace& base) {
  constexpr std::uint64_t kRecords = 8'000'000;
  const sim::SimConfig config =
      sim::make_sim_config(opt.scale, sim::LayerKind::ftl, std::nullopt);
  double seconds = 0.0;
  sim::SimResult result;
  for (int rep = 0; rep < kReps; ++rep) {
    runner::SweepRunner pool(opt.jobs);
    const auto start = std::chrono::steady_clock::now();
    sim::SimResult merged =
        sim::run_sharded_on(pool, config, opt.scale, base, 1e6, kRecords, opt.shards);
    const double s = now_seconds(start);
    if (rep == 0 || s < seconds) {
      seconds = s;
      result = std::move(merged);
    }
  }
  const double ips =
      seconds > 0.0 ? static_cast<double>(result.records_processed) / seconds : 0.0;
  std::cout << "  replay_ftl_sharded: " << sim::fmt(ips / 1e6, 2) << " Mrec/s  ("
            << result.records_processed << " records, " << opt.shards << " shard(s) on "
            << runner::resolve_jobs(opt.jobs) << " job(s))\n";

  runner::Json point = runner::Json::object();
  point.set("name", "replay_ftl_sharded");
  point.set("items", result.records_processed);
  point.set("seconds", seconds);
  point.set("items_per_second", ips);
  runner::Json extra = runner::Json::object();
  extra.set("shards", static_cast<std::uint64_t>(opt.shards));
  extra.set("jobs", static_cast<std::uint64_t>(runner::resolve_jobs(opt.jobs)));
  // Merged deterministic canaries: must not move unless the simulation, the
  // shard count or the seed derivation changed.
  extra.set("host_writes", result.counters.host_writes);
  extra.set("total_erases", result.counters.total_erases());
  extra.set("total_live_copies", result.counters.total_live_copies());
  point.set("replay", std::move(extra));
  report.add_point(std::move(point));
}

/// The multi-chip replay pipeline: serial routing + per-channel parallel
/// dispatch across a 2x2 array with per-chip SW Levelers and the global
/// coordinator evaluating every round. Wall time uses the --jobs pool; the
/// outcome is identical for every --jobs value.
void array_replay_point(bench::BenchReport& report, const bench::Options& opt) {
  constexpr std::uint64_t kRecords = 4'000'000;
  sim::ArrayScale scale;
  scale.chip = opt.scale;
  scale.channels = 2;
  scale.dies = 2;
  wear::LevelerConfig lc;
  lc.k = 0;
  lc.threshold = bench::eff_t(opt, 100.0);
  const trace::Trace base = sim::make_array_base_trace(scale, sim::LayerKind::ftl);

  double seconds = 0.0;
  sim::ArrayOutcome out;
  for (int rep = 0; rep < kReps; ++rep) {
    runner::SweepRunner pool(opt.jobs);
    const auto start = std::chrono::steady_clock::now();
    sim::ArrayOutcome fresh = sim::run_array_on(pool, scale, sim::LayerKind::ftl, lc, base, 1e6,
                                                kRecords, /*stop_on_failure=*/false);
    const double s = now_seconds(start);
    if (rep == 0 || s < seconds) {
      seconds = s;
      out = std::move(fresh);
    }
  }
  const std::uint64_t routed = out.array.records_routed;
  const double ips = seconds > 0.0 ? static_cast<double>(routed) / seconds : 0.0;
  std::cout << "  replay_array: " << sim::fmt(ips / 1e6, 2) << " Mrec/s  (" << routed
            << " records over " << scale.chip_count() << " chips on "
            << runner::resolve_jobs(opt.jobs) << " job(s), " << out.coordinator.migrations
            << " migration(s))\n";

  runner::Json point = runner::Json::object();
  point.set("name", "replay_array");
  point.set("items", routed);
  point.set("seconds", seconds);
  point.set("items_per_second", ips);
  runner::Json extra = runner::Json::object();
  extra.set("channels", static_cast<std::uint64_t>(scale.channels));
  extra.set("dies", static_cast<std::uint64_t>(scale.dies));
  extra.set("jobs", static_cast<std::uint64_t>(runner::resolve_jobs(opt.jobs)));
  extra.set("rounds", out.rounds);
  // Deterministic canaries: must not move unless the simulation, the routing
  // or the coordinator policy changed.
  extra.set("records_processed", out.combined.records_processed);
  extra.set("host_writes", out.combined.counters.host_writes);
  extra.set("total_erases", out.combined.counters.total_erases());
  extra.set("migrations", out.coordinator.migrations);
  extra.set("migration_copies", out.array.migration_copies);
  extra.set("cross_chip_max_over_avg", out.cross_chip.max_over_avg);
  point.set("replay", std::move(extra));
  report.add_point(std::move(point));
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opt = bench::parse_options(argc, argv);
  std::cout << "bench_micro: hot-path micro-benchmarks + replay pipeline\n";
  bench::print_scale(opt);
  bench::BenchReport report("micro", opt);

  run_point(report, "calibrate", &bench::calibrate_spin);
  run_point(report, "bet_update", &bet_update);
  run_point(report, "bet_scan", &bet_scan);
  run_point(report, "swl_procedure", &swl_procedure);
  run_point(report, "ftl_write", [] {
    return layer_write(
        [](nand::NandChip& chip) { return std::make_unique<ftl::Ftl>(chip, ftl::FtlConfig{}); });
  });
  run_point(report, "nftl_write", [] {
    return layer_write([](nand::NandChip& chip) {
      return std::make_unique<nftl::Nftl>(chip, nftl::NftlConfig{});
    });
  });
  run_point(report, "dftl_write", [] {
    return layer_write(
        [](nand::NandChip& chip) {
          // Moderate utilization and a half-map CMT: the point measures the
          // CMT + translation-page write path, not worst-case GC thrash (the
          // default 98% budget spends ~100x the time in map RMW storms).
          dftl::DftlConfig cfg;
          cfg.lba_count = 13'000;  // ~80% of the 16384 physical pages
          cfg.cmt_capacity = 16;
          cfg.writeback_batch = 4;
          return std::make_unique<dftl::Dftl>(chip, cfg);
        },
        /*store_bytes=*/true);
  });
  run_point(report, "hot_data_record_write", &hot_data_record_write);
  run_point(report, "hot_data_classify", &hot_data_classify);
  run_point(report, "scatter_permutation", &scatter_permutation);
  run_point(report, "trace_generation", &trace_generation);

  run_point(report, "victim_select", &victim_select);
  host_qd1_points(report);
  run_point(report, "host_mt", &host_mt);

  const trace::Trace base = sim::make_base_trace(opt.scale, sim::LayerKind::ftl);
  replay_point(report, opt, sim::LayerKind::ftl, base);
  replay_point(report, opt, sim::LayerKind::nftl, base);
  replay_point(report, opt, sim::LayerKind::dftl, base);
  sharded_replay_point(report, opt, base);
  array_replay_point(report, opt);

  return report.finish();
}
