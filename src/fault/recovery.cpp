#include "fault/recovery.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/contracts.hpp"
#include "core/fnv1a.hpp"
#include "core/rng.hpp"
#include "fault/crash_injector.hpp"
#include "swl/snapshot.hpp"

namespace swl::fault {

namespace {

/// A fresh device with a SW Leveler attached (the leveler is owned by the
/// layer; the raw pointer stays valid for the layer's lifetime).
struct Device {
  nand::NandChip chip;
  std::unique_ptr<tl::TranslationLayer> layer;
  wear::SwLeveler* leveler = nullptr;

  static nand::NandConfig chip_config(const CrashWorkloadConfig& config) {
    nand::NandConfig c;
    c.geometry = config.geometry;
    c.timing = config.timing;
    // DFTL stores translation pages as byte payloads.
    c.store_payload_bytes = config.layer == sim::LayerKind::dftl;
    return c;
  }

  explicit Device(const CrashWorkloadConfig& config)
      : chip(chip_config(config), /*clock=*/nullptr) {
    layer = sim::make_layer(config.layer, chip, config.ftl, config.nftl, config.dftl,
                            /*mounted=*/false);
    auto lev = std::make_unique<wear::SwLeveler>(config.geometry.block_count, config.leveler);
    leveler = lev.get();
    layer->attach_leveler(std::move(lev));
  }
};

/// Host-visible progress of the script, tracked *outside* the device so the
/// recovery drill can tell acknowledged writes from the one in flight.
struct ScriptState {
  std::vector<std::uint64_t> shadow;  // last acknowledged token per LBA (0 = none)
  Lba inflight_lba = kInvalidLba;
  std::uint64_t inflight_token = 0;
  std::uint64_t completed_saves = 0;
};

/// The scripted workload. Throws PowerLossError when the injector cuts.
void run_script(const CrashWorkloadConfig& config, tl::TranslationLayer& layer,
                const wear::SwLeveler& leveler, wear::LevelerPersistence& persistence,
                ScriptState& state) {
  Rng rng(config.workload_seed);
  const Lba lbas = layer.lba_count();
  const Lba hot_span = std::max<Lba>(1, lbas / 8);
  std::uint64_t next_token = 1;
  state.shadow.assign(lbas, 0);
  for (std::uint64_t w = 0; w < config.host_writes; ++w) {
    const Lba lba = rng.chance(0.5) ? static_cast<Lba>(rng.below(hot_span))
                                    : static_cast<Lba>(rng.below(lbas));
    const std::uint64_t token = next_token++;
    state.inflight_lba = lba;
    state.inflight_token = token;
    const Status st = layer.write(lba, token);
    SWL_ASSERT(st == Status::ok, "scripted workload write failed");
    state.shadow[lba] = token;  // acknowledged
    state.inflight_lba = kInvalidLba;
    if (config.snapshot_every != 0 && (w + 1) % config.snapshot_every == 0) {
      const Status saved = persistence.save(leveler);
      SWL_ASSERT(saved == Status::ok, "scripted snapshot save failed");
      ++state.completed_saves;
    }
  }
}

/// Newest sequence carried by any slot that still validates.
std::uint64_t max_stored_sequence(const wear::SnapshotStore& store) {
  std::uint64_t best = 0;
  for (unsigned slot = 0; slot < wear::SnapshotStore::kSlots; ++slot) {
    wear::Snapshot snap;
    std::uint64_t seq = 0;
    const auto bytes = store.read_slot(slot);
    if (bytes.empty()) continue;
    if (wear::decode_snapshot(bytes, &snap, &seq) != Status::ok) continue;
    best = std::max(best, seq);
  }
  return best;
}

}  // namespace

std::uint64_t count_operations(const CrashWorkloadConfig& config) {
  CrashInjector probe;  // unarmed: counts, never cuts
  Device dev(config);
  dev.chip.set_power_loss_hook(&probe);
  wear::MemorySnapshotStore store;
  CrashSnapshotStore guarded(store, probe);
  wear::LevelerPersistence persistence(guarded);
  ScriptState state;
  run_script(config, *dev.layer, *dev.leveler, persistence, state);
  return probe.operations();
}

std::uint64_t count_crash_points(const CrashWorkloadConfig& config) {
  return 2 * count_operations(config);
}

CrashPointOutcome run_crash_point(const CrashWorkloadConfig& config, std::uint64_t crash_point) {
  CrashPointOutcome out;
  out.crash_point = crash_point;

  CrashInjector injector(crash_point);
  Device dev(config);
  dev.chip.set_power_loss_hook(&injector);
  wear::MemorySnapshotStore store;
  CrashSnapshotStore guarded(store, injector);
  wear::LevelerPersistence persistence(guarded);
  ScriptState state;
  try {
    run_script(config, *dev.layer, *dev.leveler, persistence, state);
  } catch (const nand::PowerLossError&) {
    out.crashed = true;
    out.crash_op = injector.fired_op();
  }
  dev.chip.set_power_loss_hook(nullptr);

  // -- recovery drill --------------------------------------------------------
  dev.chip.forget_logical_state();
  auto recovered = sim::make_layer(config.layer, dev.chip, config.ftl, config.nftl, config.dftl,
                                   /*mounted=*/true);
  recovered->check_invariants();

  // Reload the leveler from the dual-buffer snapshots.
  auto leveler =
      std::make_unique<wear::SwLeveler>(config.geometry.block_count, config.leveler);
  wear::LevelerPersistence reloaded(store);
  const Status load = reloaded.load(*leveler);
  if (state.completed_saves > 0) {
    // A crash can tear at most the slot being written; the other slot must
    // still validate once any save completed.
    SWL_ASSERT(load == Status::ok, "dual-buffer snapshot lost despite a completed save");
  }
  if (load == Status::ok) {
    SWL_ASSERT(leveler->bet().block_count() == config.geometry.block_count &&
                   leveler->bet().k() == config.leveler.k,
               "restored BET shape does not match the device");
    SWL_ASSERT(leveler->findex() < leveler->bet().flag_count(),
               "restored findex out of range");
    std::uint64_t chip_erases = 0;
    for (const auto e : dev.chip.erase_counts()) chip_erases += e;
    SWL_ASSERT(leveler->ecnt() <= chip_erases,
               "restored ecnt exceeds the erases that ever happened");
  }

  // No lost sectors: acknowledged writes read back exactly; the in-flight
  // write may surface as either its old or its new version (out-of-place
  // updates never destroy the old version before the new one is durable).
  Fnv1a fnv;
  fnv.u64(crash_point);
  fnv.u64(out.crashed ? 1 : 0);
  fnv.u64(static_cast<std::uint64_t>(out.crash_op));
  const Lba lbas = recovered->lba_count();
  SWL_ASSERT(state.shadow.size() == lbas, "shadow map does not cover the device");
  for (Lba lba = 0; lba < lbas; ++lba) {
    std::uint64_t token = 0;
    const Status st = recovered->read(lba, &token);
    const std::uint64_t acked = state.shadow[lba];
    const bool inflight = out.crashed && lba == state.inflight_lba;
    if (st == Status::ok) {
      SWL_ASSERT(token == acked || (inflight && token == state.inflight_token),
                 "recovered sector does not match an acknowledged write");
    } else {
      SWL_ASSERT(st == Status::lba_not_mapped, "recovered sector unreadable");
      SWL_ASSERT(acked == 0, "acknowledged write lost by recovery");
    }
    fnv.u64(st == Status::ok ? token : 0);
  }

  // Snapshot sequence monotonicity: a post-recovery save must carry a newer
  // sequence than anything the crash left in the store.
  const std::uint64_t seq_before = max_stored_sequence(store);
  SWL_ASSERT(reloaded.save(*leveler) == Status::ok, "post-recovery snapshot save failed");
  SWL_ASSERT(max_stored_sequence(store) > seq_before,
             "post-recovery snapshot sequence did not advance");

  // Write-sequence monotonicity: a post-recovery host write must beat every
  // version the crash left on flash — prove it by remounting once more.
  const Lba probe_lba =
      (out.crashed && state.inflight_lba != kInvalidLba) ? state.inflight_lba : 0;
  const std::uint64_t probe_token = 0xF00D000000000000ULL + crash_point;
  SWL_ASSERT(recovered->write(probe_lba, probe_token) == Status::ok,
             "post-recovery write failed");
  dev.chip.forget_logical_state();
  auto remounted = sim::make_layer(config.layer, dev.chip, config.ftl, config.nftl, config.dftl,
                                   /*mounted=*/true);
  remounted->check_invariants();
  std::uint64_t token = 0;
  SWL_ASSERT(remounted->read(probe_lba, &token) == Status::ok,
             "post-recovery write unreadable after a second remount");
  SWL_ASSERT(token == probe_token, "post-recovery write lost to a stale version");

  fnv.u64(load == Status::ok ? 1 : 0);
  fnv.u64(leveler->ecnt());
  fnv.u64(leveler->findex());
  for (const auto w : leveler->bet().bits().words()) fnv.u64(w);
  for (const auto e : dev.chip.erase_counts()) fnv.u64(e);
  out.fingerprint = fnv.value();
  return out;
}

CrashSweepResult run_crash_sweep(const CrashWorkloadConfig& config,
                                 runner::SweepRunner& runner) {
  CrashSweepResult result;
  result.crash_points = count_crash_points(config);
  const auto outcomes =
      runner.map(static_cast<std::size_t>(result.crash_points),
                 [&config](std::size_t i) { return run_crash_point(config, i); });
  Fnv1a fnv;
  for (const auto& o : outcomes) {
    SWL_ASSERT(o.crashed, "enumerated crash point did not cut power");
    ++result.crashes;
    fnv.u64(o.crash_point);
    fnv.u64(o.fingerprint);
  }
  result.fingerprint = fnv.value();
  return result;
}

}  // namespace swl::fault
