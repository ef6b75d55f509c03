// Host front-end probe of a replay workload's traced run. One client thread
// drives a 2-shard HostScheduler in a closed loop, at QD1 and then at QD32,
// over fresh stacks of the workload's translation layer with SW Leveling. A
// direct replay of the QD1 request sequence against identical BlockDevice
// stacks splits the device's time from the front-end's.
#include <algorithm>
#include <array>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bdev/block_device.hpp"
#include "core/rng.hpp"
#include "host/scheduler.hpp"
#include "sim/experiments.hpp"
#include "sim/simulator.hpp"
#include "swl/leveler.hpp"
#include "timing.hpp"
#include "trace/segment_replay.hpp"
#include "trace/synthetic.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using swl::runner::Json;
using swl::trace::Op;
using swl::trace::TraceRecord;
namespace host = swl::host;

constexpr unsigned kShards = 2;
constexpr swl::BlockIndex kBlocksPerShard = 128;
constexpr swl::PageIndex kPagesPerBlock = 64;
constexpr std::uint32_t kPageBytes = 2048;
constexpr std::uint32_t kEndurance = 1'000;
constexpr double kPaperThreshold = 100.0;
/// Share of requests that are single-sector reads; the rest are
/// single-sector writes (sub-page, so the block device reads, modifies and
/// writes the page).
constexpr double kReadShare = 0.3;

/// One closed-loop phase of the probe.
struct PhaseSpec {
  const char* name;
  std::size_t queue_depth;
  std::uint64_t requests;
};
constexpr PhaseSpec kQd1{"qd1", 1, 20'000};
constexpr PhaseSpec kQd32{"qd32", 32, 100'000};

/// Device stacks of one phase. Clocks outlive the stacks that point at them.
struct Stacks {
  std::vector<std::unique_ptr<swl::SimClock>> clocks;
  std::vector<host::ShardStack> stacks;
};

/// The sector space, seen globally: global page p lives on shard
/// p % shards as local page p / shards (HostScheduler's striping).
struct Space {
  std::uint32_t spp = 0;  // sectors per page
  std::uint64_t local_pages = 0;
  std::uint64_t lane_mask = 0;

  [[nodiscard]] std::uint64_t pages() const { return local_pages * kShards; }
  [[nodiscard]] std::uint64_t sectors() const { return pages() * spp; }
};

/// Value written by request `i`.
std::uint64_t write_value(std::uint64_t seed, std::uint64_t i, std::uint64_t mask) {
  return mix64(seed + i * 0x9E3779B97F4A7C15ULL) & mask;
}

Stacks build_stacks(swl::sim::LayerKind layer, Space& sp) {
  Stacks s;
  swl::wear::LevelerConfig lc;
  lc.threshold = effective_threshold(kPaperThreshold, kEndurance).effective;
  for (unsigned i = 0; i < kShards; ++i) {
    s.clocks.push_back(std::make_unique<swl::SimClock>());
    swl::nand::NandConfig nc;
    nc.geometry = swl::FlashGeometry{.block_count = kBlocksPerShard,
                                     .pages_per_block = kPagesPerBlock,
                                     .page_size_bytes = kPageBytes};
    nc.timing = swl::default_timing(swl::CellType::mlc_x2);
    nc.timing.endurance = kEndurance;
    nc.store_payload_bytes = layer == swl::sim::LayerKind::dftl;
    host::ShardStack st;
    st.chip = std::make_unique<swl::nand::NandChip>(nc, s.clocks.back().get());
    st.layer = swl::sim::make_layer(layer, *st.chip, {}, {}, {}, /*mounted=*/false);
    st.layer->attach_leveler(std::make_unique<swl::wear::SwLeveler>(kBlocksPerShard, lc));
    st.dev = std::make_unique<swl::bdev::BlockDevice>(*st.layer);
    s.stacks.push_back(std::move(st));
  }
  const swl::bdev::BlockDevice& dev = *s.stacks.front().dev;
  sp.spp = dev.sectors_per_page();
  sp.local_pages = dev.sector_count() / sp.spp;
  sp.lane_mask = dev.lane_mask();
  return s;
}

/// The request sequence. Each request is a read with kReadShare, else a
/// write, and touches one sector. Its page comes from the calibrated desktop
/// trace over the host's page space, replayed from segments the seed picks
/// as in the replay workloads: writes take the pages of the trace's write
/// records in order, reads those of its read records. The sector within the
/// page is uniform.
std::vector<TraceRecord> make_requests(std::uint64_t n, const Space& sp, std::uint64_t seed) {
  const swl::sim::ExperimentScale scale;  // trace length, segment length and fixed trace seed
  const swl::trace::Trace base = swl::trace::generate_synthetic_trace(
      swl::sim::make_trace_config(scale, static_cast<swl::Lba>(sp.pages())));
  swl::trace::SegmentReplaySource source(base, scale.segment_minutes * 60.0, mix64(seed));
  std::array<std::deque<swl::Lba>, 2> pending;  // trace pages not yet used: [0] writes, [1] reads
  swl::Rng rng(seed);
  std::vector<TraceRecord> reqs(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    TraceRecord& r = reqs[i];
    r.time_us = i;
    r.op = rng.uniform() < kReadShare ? Op::read : Op::write;
    std::deque<swl::Lba>& pages = pending[r.op == Op::read ? 1 : 0];
    while (pages.empty()) {
      const TraceRecord rec = *source.next();
      pending[rec.op == Op::read ? 1 : 0].push_back(rec.lba);
    }
    r.lba = static_cast<swl::Lba>(pages.front() * sp.spp + rng.below(sp.spp));
    pages.pop_front();
  }
  return reqs;
}

/// What the client has written: per-sector values and which pages exist.
struct Shadow {
  std::vector<std::uint64_t> value;
  std::vector<std::uint8_t> page_written;

  explicit Shadow(const Space& sp) : value(sp.sectors(), 0), page_written(sp.pages(), 0) {}
};

/// Expected result of a read: the value, or lba_not_mapped for a page never written.
struct Expect {
  std::uint64_t value = 0;
  bool mapped = false;
};

void check_read(const Expect& e, swl::Status status, std::uint64_t value, std::uint64_t sector,
                Outcome& out) {
  const bool good = e.mapped ? status == swl::Status::ok && value == e.value
                             : status == swl::Status::lba_not_mapped;
  if (!good && out.errors.size() < 10) {
    out.error("sector " + std::to_string(sector) + " read " + std::to_string(value) + " (" +
              std::string(swl::to_string(status)) + "), expected " + std::to_string(e.value));
  } else if (!good) {
    ++out.failed;
  }
}

/// One phase: its requests, the stopped scheduler that served them, what the
/// client wrote and what it measured.
struct Phase {
  Space space;
  std::vector<std::unique_ptr<swl::SimClock>> clocks;  // outlive the scheduler
  std::unique_ptr<host::HostScheduler> sched;
  std::vector<TraceRecord> requests;
  std::unique_ptr<Shadow> shadow;
  Samples latency_ns;  // client-observed, submit to reap
  Span submit;
  Span wait;
  std::uint64_t wall_ns = 0;
  std::uint64_t executed = 0;
  std::uint64_t drains = 0;
  std::uint64_t would_blocks = 0;
};

/// Closed loop at the phase's queue depth. Every read is checked against the
/// shadow as it stood when the read was submitted (one client, FIFO per
/// shard).
Phase run_phase(swl::sim::LayerKind layer, const PhaseSpec& spec, std::uint64_t seed,
                Outcome& out) {
  Phase p;
  Stacks stacks = build_stacks(layer, p.space);
  p.clocks = std::move(stacks.clocks);
  p.requests = make_requests(spec.requests, p.space, seed);
  const Space& sp = p.space;
  p.shadow = std::make_unique<Shadow>(sp);
  Shadow& shadow = *p.shadow;
  host::HostConfig config;
  config.queue_depth = spec.queue_depth;
  // Off, so each shard executes exactly the calls the client submitted and
  // the direct replay can reproduce them.
  config.coalesce_writes = false;
  p.sched = std::make_unique<host::HostScheduler>(std::move(stacks.stacks), config);
  host::QueuePair& qp = p.sched->open_queue_pair();
  p.sched->start();

  std::array<host::Completion, 64> comps{};
  std::vector<Expect> expect(spec.requests);
  std::vector<std::uint64_t> sector_of(spec.requests);
  std::uint64_t next = 0;
  std::uint64_t inflight = 0;
  std::uint64_t completed = 0;
  const std::uint64_t start = now_ns();
  while (completed < spec.requests) {
    while (inflight < spec.queue_depth && next < spec.requests) {
      const TraceRecord& rec = p.requests[next];
      const std::uint64_t value = write_value(seed, next, sp.lane_mask);
      host::RequestId id = 0;
      const std::uint64_t t0 = now_ns();
      const swl::Status st =
          rec.op == Op::write
              ? qp.submit_write(rec.lba, value, host::SubmitMode::try_once, &id)
              : qp.submit_read(rec.lba, host::SubmitMode::try_once, &id);
      p.submit.add(t0, now_ns());
      if (st == swl::Status::busy) break;  // reap first, then retry this request
      if (st != swl::Status::ok) {
        out.error("submit refused: " + std::string(swl::to_string(st)));
        p.sched->stop();
        return p;
      }
      sector_of[id] = rec.lba;
      const std::uint64_t page = rec.lba / sp.spp;
      if (rec.op == Op::write) {
        shadow.value[rec.lba] = value;
        shadow.page_written[page] = 1;
      } else {
        expect[id] = Expect{shadow.value[rec.lba], shadow.page_written[page] != 0};
      }
      ++next;
      ++inflight;
    }
    const std::uint64_t t0 = now_ns();
    const std::size_t n = qp.wait(comps);
    p.wait.add(t0, now_ns());
    for (std::size_t i = 0; i < n; ++i) {
      const host::Completion& c = comps[i];
      p.latency_ns.add(c.latency_ns);
      if (c.op == host::OpKind::read) {
        check_read(expect[c.id], c.status, c.value, sector_of[c.id], out);
      } else if (c.status != swl::Status::ok) {
        out.error("write of sector " + std::to_string(sector_of[c.id]) + " failed: " +
                  std::string(swl::to_string(c.status)));
      }
      --inflight;
      ++completed;
    }
    if (n == 0 && inflight == 0) {
      out.error("request stream ended after " + std::to_string(next) + " requests");
      break;
    }
  }
  p.wall_ns = now_ns() - start;
  p.sched->stop();
  out.attempted += spec.requests;

  p.would_blocks = qp.counters().would_blocks;
  for (unsigned i = 0; i < kShards; ++i) {
    p.executed += p.sched->shard_counters(i).requests_executed;
    p.drains += p.sched->shard_counters(i).drain_batches;
  }
  return p;
}

/// After stop(), re-reads every sector of every written page with
/// read_sector_direct.
void verify_after_stop(Phase& p, Outcome& out) {
  const Space& sp = p.space;
  for (std::uint64_t page = 0; page < sp.pages(); ++page) {
    if (p.shadow->page_written[page] == 0) continue;
    for (std::uint32_t lane = 0; lane < sp.spp; ++lane) {
      const std::uint64_t sector = page * sp.spp + lane;
      std::uint64_t v = 0;
      const swl::Status st = p.sched->read_sector_direct(sector, &v);
      check_read(Expect{p.shadow->value[sector], true}, st, v, sector, out);
      ++out.attempted;
    }
  }
}

/// Direct replay of a phase's requests against fresh, identical stacks, one
/// timed BlockDevice call per request. Its simulated state must equal the
/// scheduler's stacks. Returns the time of each call.
Samples replay_direct(swl::sim::LayerKind layer, std::uint64_t seed, const Phase& p,
                      Outcome& out) {
  Space sp;
  Stacks direct = build_stacks(layer, sp);
  Samples device_ns;
  for (std::uint64_t i = 0; i < p.requests.size(); ++i) {
    const TraceRecord& rec = p.requests[i];
    swl::bdev::BlockDevice& dev = *direct.stacks[p.sched->shard_of(rec.lba)].dev;
    const swl::bdev::SectorIndex local = p.sched->local_sector(rec.lba);
    std::uint64_t v = 0;
    const std::uint64_t t0 = now_ns();
    const swl::Status status = rec.op == Op::write
                                   ? dev.write_sector(local, write_value(seed, i, sp.lane_mask))
                                   : dev.read_sector(local, &v);
    device_ns.add(now_ns() - t0);
    if (status != swl::Status::ok && status != swl::Status::lba_not_mapped) {
      out.error("direct replay: " + std::string(swl::to_string(status)));
    }
  }
  for (unsigned i = 0; i < kShards; ++i) {
    const host::ShardStack& d = direct.stacks[i];
    swl::bdev::BlockDevice& s = p.sched->shard_device(i);
    const swl::tl::TlCounters& a = s.layer().counters();
    const swl::tl::TlCounters& b = d.layer->counters();
    const bool same = a.host_writes == b.host_writes && a.host_reads == b.host_reads &&
                      a.gc_erases == b.gc_erases && a.swl_erases == b.swl_erases &&
                      a.gc_live_copies == b.gc_live_copies &&
                      a.swl_live_copies == b.swl_live_copies &&
                      a.map_reads == b.map_reads && a.map_writes == b.map_writes &&
                      s.counters().sector_writes == d.dev->counters().sector_writes &&
                      s.counters().page_writes == d.dev->counters().page_writes &&
                      s.counters().rmw_page_reads == d.dev->counters().rmw_page_reads &&
                      s.layer().chip().erase_counts() == d.chip->erase_counts();
    if (!same) out.error("shard " + std::to_string(i) + ": scheduler and direct replay disagree");
  }
  return device_ns;
}

/// host.<phase>_* metrics of one phase.
Percentiles emit_phase(const PhaseSpec& spec, const Phase& p, Outcome& out) {
  const std::string pre = std::string("host.") + spec.name + "_";
  const Percentiles lat = p.latency_ns.summarize();
  out.metric(pre + "req_per_s", ratio(spec.requests * 1'000'000'000ULL, p.wall_ns), "1/s");
  out.metric(pre + "p50_us", lat.p50 * 1e-3, "us");
  out.metric(pre + "p99_us", static_cast<double>(p.latency_ns.quantile(0.99)) * 1e-3, "us");
  out.metric(pre + "submit_s", p.submit.seconds(), "s");
  out.metric(pre + "wait_s", p.wait.seconds(), "s");
  out.metric(pre + "requests_per_drain", ratio(p.executed, p.drains), "ratio");
  out.metric(pre + "would_blocks", static_cast<double>(p.would_blocks), "count");
  Json latency = Json::object();
  latency.set("queue_depth", static_cast<std::uint64_t>(spec.queue_depth));
  latency.set("requests", spec.requests);
  latency.set("samples", lat.count);
  latency.set("p99_supported", tail_supported(lat.count, 0.99));
  latency.set("tail_quantile", lat.tail_q);
  latency.set("tail_us", lat.tail * 1e-3);
  out.details.set(std::string("host_") + spec.name + "_latency", std::move(latency));
  return lat;
}

}  // namespace

void add_host_probe(swl::sim::LayerKind layer, std::uint64_t seed, Outcome& out) {
  Json config = Json::object();
  config.set("layer", std::string(swl::sim::to_string(layer)));
  config.set("shards", kShards);
  config.set("client_threads", 1);
  config.set("blocks_per_shard", static_cast<std::uint64_t>(kBlocksPerShard));
  config.set("pages_per_block", static_cast<std::uint64_t>(kPagesPerBlock));
  describe_swl(config, kPaperThreshold, kEndurance, 0);
  config.set("read_share", kReadShare);
  config.set("pages", "calibrated desktop trace, segments picked by the seed");
  config.set("sector_in_page", "uniform");
  config.set("coalesce_writes", false);
  config.set("loop", "closed");
  out.details.set("host_probe", std::move(config));

  Phase qd1 = run_phase(layer, kQd1, seed, out);
  const Percentiles lat = emit_phase(kQd1, qd1, out);
  const Samples device_ns = replay_direct(layer, seed, qd1, out);
  const double device_p50 = static_cast<double>(device_ns.quantile(0.5));
  out.metric("host.device_p50_ns", device_p50, "ns");
  out.metric("host.frontend_p50_ns", lat.p50 - device_p50, "ns");
  std::uint64_t sector_writes = 0;
  std::uint64_t page_writes = 0;
  std::uint64_t rmw_page_reads = 0;
  for (unsigned i = 0; i < kShards; ++i) {
    const swl::bdev::BdevCounters& c = qd1.sched->shard_device(i).counters();
    sector_writes += c.sector_writes;
    page_writes += c.page_writes;
    rmw_page_reads += c.rmw_page_reads;
  }
  out.metric("bdev.rmw_page_reads", static_cast<double>(rmw_page_reads), "count");
  out.metric("bdev.page_writes_per_sector_write", ratio(page_writes, sector_writes), "ratio");
  verify_after_stop(qd1, out);  // after the comparison: these reads count too

  Phase qd32 = run_phase(layer, kQd32, seed, out);
  emit_phase(kQd32, qd32, out);
  verify_after_stop(qd32, out);
}

}  // namespace perfbench
