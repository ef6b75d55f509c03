#include "host/smoke.hpp"

#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "core/contracts.hpp"
#include "core/fields.hpp"
#include "core/fnv1a.hpp"
#include "core/rng.hpp"
#include "ftl/ftl.hpp"
#include "host/scheduler.hpp"
#include "nftl/nftl.hpp"
#include "swl/leveler.hpp"

namespace swl::host {
namespace {

struct CheckParams {
  unsigned shards = 1;
  unsigned clients = 1;
  bool coalesce = false;
  bool use_nftl = false;
  bool serial_strict = false;
  std::uint64_t ops_per_client = 2000;
};

CheckParams derive_params(std::uint64_t seed) {
  CheckParams p;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  if (seed % 4 == 0) {
    // Serial-shaped seed: the documented bit-identical configuration.
    p.shards = 1;
    p.clients = 1;
    p.coalesce = false;
    p.serial_strict = true;
  } else {
    p.shards = 1u << rng.below(3);              // 1, 2 or 4
    p.clients = 1 + static_cast<unsigned>(rng.below(4));  // 1..4
    p.coalesce = rng.below(2) == 0;
  }
  p.use_nftl = seed % 2 == 1;
  return p;
}

/// Builds one shard stack: a small chip (GC and SWL both fire under the
/// workload), the seed's translation layer with an attached SW Leveler, and
/// the sector-granularity device on top.
ShardStack make_stack(const CheckParams& p) {
  constexpr std::uint32_t kBlocks = 24;
  nand::NandConfig nc;
  nc.geometry =
      FlashGeometry{.block_count = kBlocks, .pages_per_block = 8, .page_size_bytes = 2048};
  nc.timing = default_timing(CellType::mlc_x2);
  ShardStack s;
  s.chip = std::make_unique<nand::NandChip>(nc);
  if (p.use_nftl) {
    s.layer = std::make_unique<nftl::Nftl>(*s.chip, nftl::NftlConfig{});
  } else {
    s.layer = std::make_unique<ftl::Ftl>(*s.chip, ftl::FtlConfig{});
  }
  wear::LevelerConfig lc;
  lc.threshold = 8;
  s.layer->attach_leveler(std::make_unique<wear::SwLeveler>(kBlocks, lc));
  s.dev = std::make_unique<bdev::BlockDevice>(*s.layer);
  return s;
}

/// One applied operation, recorded by a client for the serial oracle replay.
struct OracleOp {
  bool is_read = false;
  std::uint64_t sector = 0;
  std::uint8_t count = 1;  // run length (writes; sectors within one page)
  std::array<std::uint64_t, 8> values{};
};

struct ClientOutcome {
  std::vector<OracleOp> ops;
  std::map<std::uint64_t, std::uint64_t> shadow;
  std::string error;  // empty on success
  std::uint64_t submitted = 0;
};

/// What a read submitted at some point must return: the client's last write
/// to that sector *at submission time* (per-client FIFO within a shard makes
/// that exact, even when the sector is overwritten again later).
struct ReadExpectation {
  bool written = false;
  std::uint64_t value = 0;
};

/// One client thread's workload: seeded mixed async traffic over the
/// client's private sector range [range_first, range_first + range_count).
ClientOutcome run_client(QueuePair& qp, std::uint64_t seed, unsigned client,
                         std::uint64_t range_first, std::uint64_t range_count,
                         std::uint64_t ops, std::uint32_t spp, std::uint64_t lane_mask) {
  ClientOutcome out;
  out.ops.reserve(ops);
  Rng rng(seed ^ (0xC2B2AE3D27D4EB4FULL * (client + 1)));
  std::map<RequestId, ReadExpectation> expected;  // read requests in flight
  std::array<Completion, 32> comps;

  // Verifies a batch of reaped completions; returns false (setting
  // out.error) on the first violation. Every pop — mid-run or final drain —
  // goes through here so no read check is ever dropped.
  const auto verify = [&](std::size_t n) -> bool {
    for (std::size_t i = 0; i < n; ++i) {
      const Completion& c = comps[i];
      if (c.op != OpKind::read) {
        if (c.status != Status::ok) {
          out.error = "write completion status " + std::string(to_string(c.status));
          return false;
        }
        continue;
      }
      const auto it = expected.find(c.id);
      if (it == expected.end()) {
        out.error = "completion for unknown read id";
        return false;
      }
      const ReadExpectation want = it->second;
      expected.erase(it);
      if (want.written) {
        if (c.status != Status::ok || c.value != want.value) {
          std::ostringstream os;
          os << "read-your-writes violation (id " << c.id << "): got status "
             << to_string(c.status) << " value " << c.value << ", want " << want.value;
          out.error = os.str();
          return false;
        }
      } else if (c.status != Status::ok && c.status != Status::lba_not_mapped) {
        // Never-written sector: zero (sibling lane of a written page) or
        // not-mapped are both legitimate.
        out.error = "read completion status " + std::string(to_string(c.status));
        return false;
      }
    }
    return true;
  };

  // Reaps at least one completion to make progress after Status::busy.
  const auto reap_for_progress = [&]() -> bool {
    if (qp.counters().inflight() == 0) return true;
    return verify(qp.wait(comps));
  };

  for (std::uint64_t op = 0; op < ops && out.error.empty(); ++op) {
    const std::uint64_t kind = rng.below(8);
    Status st = Status::ok;
    if (kind < 5) {
      // Single-sector write, alternating submit modes to cover both the
      // try_once/busy path and blocking parking.
      const std::uint64_t sector = range_first + rng.below(range_count);
      const std::uint64_t value = rng.next() & lane_mask;
      const SubmitMode mode = op % 3 == 0 ? SubmitMode::try_once : SubmitMode::blocking;
      st = qp.submit_write(sector, value, mode);
      while (st == Status::busy) {
        if (!reap_for_progress()) break;
        st = qp.submit_write(sector, value, SubmitMode::blocking);
      }
      if (!out.error.empty()) break;
      if (st != Status::ok) {
        out.error = "submit_write failed: " + std::string(to_string(st));
        break;
      }
      ++out.submitted;
      out.shadow[sector] = value;
      OracleOp rec;
      rec.sector = sector;
      rec.values[0] = value;
      out.ops.push_back(rec);
    } else if (kind < 7) {
      // Adjacent run within one page (coalescer and whole-page fodder).
      const std::uint64_t sector = range_first + rng.below(range_count);
      const std::uint64_t lane = sector % spp;
      std::uint64_t len = 1 + rng.below(spp - lane);
      if (sector + len > range_first + range_count) len = 1;
      OracleOp rec;
      rec.sector = sector;
      rec.count = static_cast<std::uint8_t>(len);
      for (std::uint64_t i = 0; i < len; ++i) {
        rec.values[i] = rng.next() & lane_mask;
      }
      const std::span<const std::uint64_t> values(rec.values.data(), len);
      st = qp.submit_write_run(sector, values, SubmitMode::blocking);
      while (st == Status::busy) {
        if (!reap_for_progress()) break;
        st = qp.submit_write_run(sector, values, SubmitMode::blocking);
      }
      if (!out.error.empty()) break;
      if (st != Status::ok) {
        out.error = "submit_write_run failed: " + std::string(to_string(st));
        break;
      }
      ++out.submitted;
      for (std::uint64_t i = 0; i < len; ++i) out.shadow[sector + i] = rec.values[i];
      out.ops.push_back(rec);
    } else {
      // Read of an own-range sector, verified against the submission-time
      // shadow when its completion is reaped.
      const std::uint64_t sector = range_first + rng.below(range_count);
      RequestId id = 0;
      st = qp.submit_read(sector, SubmitMode::blocking, &id);
      while (st == Status::busy) {
        if (!reap_for_progress()) break;
        st = qp.submit_read(sector, SubmitMode::blocking, &id);
      }
      if (!out.error.empty()) break;
      if (st != Status::ok) {
        out.error = "submit_read failed: " + std::string(to_string(st));
        break;
      }
      ++out.submitted;
      const auto want = out.shadow.find(sector);
      expected[id] = want == out.shadow.end() ? ReadExpectation{}
                                              : ReadExpectation{true, want->second};
      OracleOp rec;
      rec.is_read = true;
      rec.sector = sector;
      out.ops.push_back(rec);
    }
  }
  while (out.error.empty() && qp.counters().inflight() > 0) {
    if (!verify(qp.wait(comps))) break;
  }
  return out;
}

}  // namespace

HostCheckResult run_host_check(std::uint64_t seed) {
  const CheckParams p = derive_params(seed);
  HostCheckResult result;
  result.shards = p.shards;
  result.clients = p.clients;
  result.coalesce = p.coalesce;
  result.serial_strict = p.serial_strict;

  const auto fail = [&](const std::string& msg) {
    result.passed = false;
    result.message = msg;
    return result;
  };

  // Scheduler under test and the serial oracle, built identically.
  std::vector<ShardStack> stacks;
  std::vector<ShardStack> oracle;
  for (unsigned s = 0; s < p.shards; ++s) {
    stacks.push_back(make_stack(p));
    oracle.push_back(make_stack(p));
  }

  HostConfig config;
  config.coalesce_writes = p.coalesce;
  config.queue_depth = 32;
  config.submission_ring_capacity = 64;  // small: exercises backpressure
  HostScheduler sched(std::move(stacks), config);

  std::vector<QueuePair*> qps;
  for (unsigned c = 0; c < p.clients; ++c) qps.push_back(&sched.open_queue_pair());
  sched.start();

  const std::uint64_t sectors = sched.sector_count();
  const std::uint32_t spp = sched.sectors_per_page();
  const std::uint64_t lane_mask = sched.shard_device(0).lane_mask();
  const std::uint64_t per_client = sectors / p.clients;

  std::vector<ClientOutcome> outcomes(p.clients);
  {
    std::vector<std::thread> threads;
    threads.reserve(p.clients);
    for (unsigned c = 0; c < p.clients; ++c) {
      QueuePair* qp = qps[c];
      ClientOutcome* out = &outcomes[c];
      const std::uint64_t first = c * per_client;
      threads.emplace_back([&, qp, out, first, c] {
        *out = run_client(*qp, seed, c, first, per_client, p.ops_per_client, spp, lane_mask);
      });
    }
    for (auto& t : threads) t.join();
  }
  sched.stop();

  for (unsigned c = 0; c < p.clients; ++c) {
    if (!outcomes[c].error.empty()) {
      return fail("client " + std::to_string(c) + ": " + outcomes[c].error);
    }
    result.ops += outcomes[c].submitted;
  }

  // QoS invariants hold for every stream on every seed.
  std::uint64_t total_completed = 0;
  for (unsigned c = 0; c < p.clients; ++c) {
    const StreamCounters& sc = qps[c]->counters();
    if (sc.submitted != outcomes[c].submitted || sc.completed != sc.submitted ||
        sc.inflight() != 0) {
      std::ostringstream os;
      os << "client " << c << " QoS counters inconsistent: submitted " << sc.submitted
         << " completed " << sc.completed << " (expected " << outcomes[c].submitted << ")";
      return fail(os.str());
    }
    const std::uint64_t hist =
        qps[c]->write_latency().count() + qps[c]->read_latency().count();
    if (hist != sc.completed) {
      return fail("client " + std::to_string(c) + " histogram count does not match completions");
    }
    total_completed += sc.completed;
  }
  std::uint64_t executed = 0;
  for (unsigned s = 0; s < p.shards; ++s) executed += sched.shard_counters(s).requests_executed;
  if (executed != total_completed) {
    return fail("shard execution count does not match stream completions");
  }

  // Serial oracle replay: clients own disjoint ranges, so applying their op
  // logs client-by-client yields the same final content under any actual
  // interleaving. The strict (serial-shaped) seed replays reads too, so the
  // counter fingerprint must match bit for bit.
  for (unsigned c = 0; c < p.clients; ++c) {
    for (const OracleOp& op : outcomes[c].ops) {
      const unsigned shard = sched.shard_of(op.sector);
      bdev::BlockDevice& dev = *oracle[shard].dev;
      const SectorIndex local = sched.local_sector(op.sector);
      if (op.is_read) {
        if (!p.serial_strict) continue;  // reads only matter for counters
        std::uint64_t v = 0;
        const Status st = dev.read_sector(local, &v);
        if (st != Status::ok && st != Status::lba_not_mapped) {
          return fail("oracle read failed: " + std::string(to_string(st)));
        }
      } else {
        const Status st = dev.write_sector_run(
            local, std::span<const std::uint64_t>(op.values.data(), op.count));
        if (st != Status::ok) {
          return fail("oracle write failed: " + std::string(to_string(st)));
        }
      }
    }
  }

  // Content comparison: scheduler vs oracle vs merged shadow, every sector.
  std::map<std::uint64_t, std::uint64_t> shadow;
  for (const ClientOutcome& out : outcomes) {
    shadow.insert(out.shadow.begin(), out.shadow.end());
  }
  Fnv1a fp;
  for (std::uint64_t sector = 0; sector < sectors; ++sector) {
    std::uint64_t got = 0;
    const Status st = sched.read_sector_direct(sector, &got);
    std::uint64_t oracle_v = 0;
    const Status ost =
        oracle[sched.shard_of(sector)].dev->read_sector(sched.local_sector(sector), &oracle_v);
    if (st != ost || (st == Status::ok && got != oracle_v)) {
      std::ostringstream os;
      os << "content divergence at sector " << sector << ": scheduler " << to_string(st) << "/"
         << got << " vs oracle " << to_string(ost) << "/" << oracle_v;
      return fail(os.str());
    }
    const auto want = shadow.find(sector);
    if (want != shadow.end() && (st != Status::ok || got != want->second)) {
      std::ostringstream os;
      os << "shadow divergence at sector " << sector << ": device " << to_string(st) << "/"
         << got << ", last write " << want->second;
      return fail(os.str());
    }
    fp.u64(st == Status::ok ? got : ~std::uint64_t{0});
  }
  result.fingerprint = fp.value();

  if (p.serial_strict) {
    // Bit-identical configuration: the whole counter surface must match.
    std::string diff =
        first_difference(sched.shard_device(0).counters(), oracle[0].dev->counters());
    if (!diff.empty()) {
      return fail("serial-strict: BdevCounters diverge from the direct serial oracle: " + diff);
    }
    diff = first_difference(sched.shard_device(0).layer().counters(),
                            oracle[0].dev->layer().counters());
    if (!diff.empty()) {
      return fail("serial-strict: TlCounters diverge from the direct serial oracle: " + diff);
    }
    if (sched.shard_device(0).layer().chip().erase_counts() !=
        oracle[0].dev->layer().chip().erase_counts()) {
      return fail("serial-strict: per-block erase counts diverge");
    }
  }

  for (unsigned s = 0; s < p.shards; ++s) {
    sched.shard_device(s).layer().check_invariants();
    oracle[s].dev->layer().check_invariants();
  }

  result.passed = true;
  return result;
}

}  // namespace swl::host
