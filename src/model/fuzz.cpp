#include "model/fuzz.hpp"

#include <algorithm>
#include <array>
#include <sstream>
#include <utility>

#include "core/contracts.hpp"
#include "core/rng.hpp"
#include "dftl/dftl.hpp"
#include "fault/crash_injector.hpp"
#include "model/ref_dftl.hpp"
#include "model/ref_store.hpp"
#include "model/ref_swl.hpp"
#include "nand/power_loss.hpp"

namespace swl::model {

namespace {

/// A power-loss hook that never cuts power. Attaching it makes the chip
/// consult a hook before every program and erase without changing any
/// outcome — both stacks must stay bit-identical either way.
class BenignHook final : public nand::PowerLossHook {
 public:
  nand::CrashDecision on_operation(nand::CrashOp /*op*/) override {
    return nand::CrashDecision::proceed;
  }
};

/// FNV-1a, the same digest recovery.cpp uses for state fingerprints.
class Fnv {
 public:
  void add(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct Stack {
  const char* id = "?";
  std::unique_ptr<nand::NandChip> chip;
  std::unique_ptr<tl::TranslationLayer> layer;
  wear::SwLeveler* leveler = nullptr;  // owned by layer
  wear::MemorySnapshotStore store;
  std::optional<wear::LevelerPersistence> persistence;
  BenignHook benign;
  bool benign_attached = false;
  std::vector<std::size_t> extra_observers;
  std::uint64_t extra_observer_erases = 0;
  /// gc+swl erases attributed by layer incarnations already torn down.
  std::uint64_t retired_layer_erases = 0;
  std::optional<RefStore> ref_store;
  std::optional<RefWear> ref_wear;
  std::optional<RefSwLeveler> ref_swl;
  std::optional<RefDftl> ref_dftl;
};

class Runner {
 public:
  explicit Runner(const FuzzSchedule& schedule) : sched_(schedule) {
    a_.id = "stack A";
    b_.id = "stack B";
    build_stack(a_);
    build_stack(b_);
  }

  FuzzOutcome run(const FuzzOptions& options) {
    FuzzOutcome out;
    bool injected = false;
    for (std::size_t i = 0; i < sched_.steps.size(); ++i) {
      std::string msg = exec_step(sched_.steps[i]);
      if (msg.empty() && options.inject == FuzzOptions::Inject::skip_bet_update && !injected &&
          i >= options.inject_at_step && a_.leveler != nullptr && a_.leveler->ecnt() > 0) {
        a_.leveler->restore_state(a_.leveler->ecnt() - 1, a_.leveler->findex(),
                                  a_.leveler->bet().bits().words());
        injected = true;
      }
      if (msg.empty() && options.inject == FuzzOptions::Inject::skip_cmt_writeback &&
          !injected && i >= options.inject_at_step) {
        if (auto* d = dynamic_cast<dftl::Dftl*>(a_.layer.get())) {
          // Waits for a dirty CMT slot, exactly like skip_bet_update waits
          // for the first counted erase.
          injected = d->debug_drop_first_dirty();
        }
      }
      if (msg.empty()) msg = check_all();
      if (!msg.empty()) {
        out.ok = false;
        out.failing_step = i;
        out.message = std::move(msg);
        break;
      }
    }
    out.fingerprint = fingerprint();
    return out;
  }

 private:
  [[nodiscard]] ftl::FtlConfig ftl_config(const Stack& s) const {
    ftl::FtlConfig cfg;
    cfg.lba_count = sched_.params.lba_count;
    cfg.gc_cost_weight = sched_.params.gc_cost_weight;
    cfg.victim_policy = sched_.params.victim_policy;
    // Stack B optionally runs the reference victim scans against A's
    // victim-index selection — a live equivalence check of tl::VictimIndex
    // under media errors, remounts and leveler interference.
    cfg.reference_victim_scan = &s == &b_ && sched_.params.reference_scan_b;
    return cfg;
  }

  [[nodiscard]] nftl::NftlConfig nftl_config(const Stack& s) const {
    nftl::NftlConfig cfg;
    cfg.vba_count = sched_.params.vba_count;
    cfg.gc_cost_weight = sched_.params.gc_cost_weight;
    cfg.victim_policy = sched_.params.victim_policy;
    cfg.reference_victim_scan = &s == &b_ && sched_.params.reference_scan_b;
    return cfg;
  }

  [[nodiscard]] dftl::DftlConfig dftl_config(const Stack& s) const {
    dftl::DftlConfig cfg;
    cfg.lba_count = sched_.params.lba_count;
    cfg.lbas_per_tpage = sched_.params.dftl_lbas_per_tpage;
    cfg.cmt_capacity = sched_.params.dftl_cmt_capacity;
    cfg.writeback_batch = sched_.params.dftl_writeback_batch;
    cfg.gc_cost_weight = sched_.params.gc_cost_weight;
    cfg.reference_victim_scan = &s == &b_ && sched_.params.reference_scan_b;
    return cfg;
  }

  void build_stack(Stack& s) {
    const FuzzParams& p = sched_.params;
    nand::NandConfig cfg;
    cfg.geometry = FlashGeometry{p.block_count, p.pages_per_block, p.page_size_bytes};
    // Schedules hammer tiny devices; a huge endurance keeps wear_ratio finite
    // (endurance 0 would make the failure probability NaN) and blocks alive.
    cfg.timing.endurance = 1'000'000'000;
    cfg.failures.program_fail_p = p.program_fail_p;
    cfg.failures.seed = p.failure_seed;
    // DFTL stores translation pages as byte payloads.
    cfg.store_payload_bytes = p.layer == sim::LayerKind::dftl;
    s.chip = std::make_unique<nand::NandChip>(cfg, nullptr);
    // Model observers are chip-level: they survive remounts and therefore
    // see every erase any layer incarnation ever performs.
    s.ref_wear.emplace(p.block_count);
    // The chip and both model observers live in the same Stack, which dies
    // with this Runner — the registration can never dangle, and tearing it
    // down early would blind the oracles to the final erases.
    (void)s.chip->add_erase_observer(  // flash-lint: allow(observer-lifetime)
        [rw = &*s.ref_wear](BlockIndex block, std::uint32_t) { rw->on_chip_erase(block); });
    if (p.with_leveler) {
      s.ref_swl.emplace(p.block_count, p.leveler);
      (void)s.chip->add_erase_observer(  // flash-lint: allow(observer-lifetime)
          [rs = &*s.ref_swl](BlockIndex block, std::uint32_t) { rs->on_chip_erase(block); });
    }
    mount_stack(s, /*mounted=*/false);
    s.ref_store.emplace(s.layer->lba_count());
  }

  /// (Re)creates the firmware half of a stack: translation layer, leveler
  /// (restored from the snapshot store when one validates), persistence.
  void mount_stack(Stack& s, bool mounted) {
    const FuzzParams& p = sched_.params;
    s.layer =
        sim::make_layer(p.layer, *s.chip, ftl_config(s), nftl_config(s), dftl_config(s), mounted);
    if (p.layer == sim::LayerKind::dftl) {
      // The mapping-cache oracle replays trace-sink events between mounts;
      // mount events are unobserved (the sink attaches here), so each mount
      // re-baselines the model from introspection.
      auto& d = static_cast<dftl::Dftl&>(*s.layer);
      if (!s.ref_dftl.has_value()) s.ref_dftl.emplace(d.tpage_count());
      d.set_trace_sink(&*s.ref_dftl);
      s.ref_dftl->resync(d);
    }
    s.leveler = nullptr;
    if (p.with_leveler) {
      auto lev = std::make_unique<wear::SwLeveler>(p.block_count, p.leveler);
      s.leveler = lev.get();
      // A fresh persistence object resumes the slot sequence from the store,
      // exactly like firmware re-initializing after a reboot.
      s.persistence.emplace(s.store);
      // Benign discard: a corrupt or absent snapshot means "start a fresh
      // interval", which load() already leaves the leveler set up for.
      if (mounted) discard_status(s.persistence->load(*lev));
      lev->set_trace_sink(&*s.ref_swl);
      s.layer->attach_leveler(std::move(lev));
      s.ref_swl->resync(*s.leveler);
    }
  }

  /// Firmware death + reboot: tear the layer down, drop the chip's logical
  /// page state, mount-scan it back and reload the leveler snapshot.
  void remount_stack(Stack& s) {
    s.retired_layer_erases += s.layer->counters().total_erases();
    s.layer.reset();  // deregisters the layer's and leveler's observers
    s.chip->forget_logical_state();
    mount_stack(s, /*mounted=*/true);
  }

  std::string exec_step(const FuzzStep& step) {
    switch (step.kind) {
      case StepKind::write_burst: {
        Rng rng(step.a);
        const Lba lbas = a_.layer->lba_count();
        const std::uint64_t pct = std::clamp<std::uint64_t>(step.c, 1, 100);
        const Lba span = std::max<Lba>(1, static_cast<Lba>(lbas * pct / 100));
        for (std::uint64_t i = 0; i < step.b; ++i) {
          std::string msg = write_one(static_cast<Lba>(rng.below(span)), next_token_++);
          if (!msg.empty()) return msg;
        }
        return {};
      }
      case StepKind::read_burst: {
        Rng rng(step.a);
        const Lba lbas = a_.layer->lba_count();
        for (std::uint64_t i = 0; i < step.b; ++i) {
          std::string msg = read_one(static_cast<Lba>(rng.below(lbas)));
          if (!msg.empty()) return msg;
        }
        return {};
      }
      case StepKind::single_write:
        return write_one(static_cast<Lba>(step.a % a_.layer->lba_count()), next_token_++);
      case StepKind::single_read:
        return read_one(static_cast<Lba>(step.a % a_.layer->lba_count()));
      case StepKind::hook_attach:
        for (Stack* s : {&a_, &b_}) {
          s->benign_attached = true;
          s->chip->set_power_loss_hook(&s->benign);
        }
        return {};
      case StepKind::hook_detach:
        for (Stack* s : {&a_, &b_}) {
          s->benign_attached = false;
          s->chip->set_power_loss_hook(nullptr);
        }
        return {};
      case StepKind::observer_attach:
        // Observer churn is the behavior under test here (tokens are redeemed
        // by observer_detach steps or die with the owning Stack).
        for (Stack* s : {&a_, &b_}) {
          s->extra_observers.push_back(
              s->chip->add_erase_observer(  // flash-lint: allow(observer-lifetime)
                  [count = &s->extra_observer_erases](BlockIndex, std::uint32_t) { ++*count; }));
        }
        return {};
      case StepKind::observer_detach:
        for (Stack* s : {&a_, &b_}) {
          if (s->extra_observers.empty()) continue;
          s->chip->remove_erase_observer(s->extra_observers.back());
          s->extra_observers.pop_back();
        }
        return {};
      case StepKind::snapshot_save:
        return save_snapshots();
      case StepKind::power_cycle: {
        std::string msg = save_snapshots();  // clean shutdown persists the BET
        if (!msg.empty()) return msg;
        remount_stack(a_);
        remount_stack(b_);
        return {};
      }
      case StepKind::crash_burst:
        return crash_burst(step);
    }
    return "unknown step kind";
  }

  std::string save_snapshots() {
    if (a_.leveler == nullptr) return {};
    const Status sa = a_.persistence->save(*a_.leveler);
    const Status sb = b_.persistence->save(*b_.leveler);
    if (sa != Status::ok || sb != Status::ok) {
      return "BET snapshot save failed on the in-memory store";
    }
    return {};
  }

  std::string write_one(Lba lba, std::uint64_t token) {
    a_.ref_store->begin_write(lba, token);
    b_.ref_store->begin_write(lba, token);
    const Status sa = a_.layer->write(lba, token);
    const Status sb = b_.layer->write(lba, token);
    if (sa != sb) {
      std::ostringstream os;
      os << "write status diverged at LBA " << lba << ": stack A " << sa << ", stack B "
         << sb;
      // Leave the reference stores resolved so teardown stays clean.
      a_.ref_store->fail_write();
      b_.ref_store->fail_write();
      return os.str();
    }
    if (sa == Status::ok) {
      a_.ref_store->ack_write();
      b_.ref_store->ack_write();
    } else {
      a_.ref_store->fail_write();
      b_.ref_store->fail_write();
    }
    return {};
  }

  std::string read_one(Lba lba) {
    std::uint64_t ta = 0;
    std::uint64_t tb = 0;
    const Status sa = a_.layer->read(lba, &ta);
    const Status sb = b_.layer->read(lba, &tb);
    std::ostringstream os;
    if (sa != sb || (sa == Status::ok && ta != tb)) {
      os << "read diverged at LBA " << lba << ": stack A " << sa << "/" << ta
         << ", stack B " << sb << "/" << tb;
      return os.str();
    }
    const std::uint64_t want = a_.ref_store->tokens()[lba];
    if (want == 0 ? sa != Status::lba_not_mapped : (sa != Status::ok || ta != want)) {
      os << "read of LBA " << lba << " returned " << sa << "/" << ta << ", the reference holds "
         << want;
      return os.str();
    }
    return {};
  }

  std::string crash_burst(const FuzzStep& step) {
    Rng rng(step.a);
    const Lba lbas = a_.layer->lba_count();
    fault::CrashInjector inj_a(step.c);
    fault::CrashInjector inj_b(step.c);
    a_.chip->set_power_loss_hook(&inj_a);
    b_.chip->set_power_loss_hook(&inj_b);
    bool crashed = false;
    std::string msg;
    for (std::uint64_t i = 0; i < step.b && msg.empty() && !crashed; ++i) {
      const Lba lba = static_cast<Lba>(rng.below(lbas));
      const std::uint64_t token = next_token_++;
      a_.ref_store->begin_write(lba, token);
      b_.ref_store->begin_write(lba, token);
      Status sa = Status::ok;
      Status sb = Status::ok;
      bool ca = false;
      bool cb = false;
      try {
        sa = a_.layer->write(lba, token);
      } catch (const nand::PowerLossError&) {
        ca = true;
      }
      try {
        sb = b_.layer->write(lba, token);
      } catch (const nand::PowerLossError&) {
        cb = true;
      }
      if (ca != cb) {
        std::ostringstream os;
        os << "power was cut in only one stack at burst write " << i << " (stack A "
           << (ca ? "crashed" : "survived") << ", stack B " << (cb ? "crashed" : "survived")
           << ")";
        msg = os.str();
      } else if (ca) {
        crashed = true;  // both stacks died at the same operation; recover below
      } else if (sa != sb) {
        std::ostringstream os;
        os << "write status diverged at LBA " << lba << ": stack A " << sa << ", stack B "
           << sb;
        msg = os.str();
      } else if (sa == Status::ok) {
        a_.ref_store->ack_write();
        b_.ref_store->ack_write();
      } else {
        a_.ref_store->fail_write();
        b_.ref_store->fail_write();
      }
    }
    // Drop the injectors before anything else touches the chips.
    a_.chip->set_power_loss_hook(a_.benign_attached ? &a_.benign : nullptr);
    b_.chip->set_power_loss_hook(b_.benign_attached ? &b_.benign : nullptr);
    if (!msg.empty()) {
      a_.ref_store->fail_write();
      b_.ref_store->fail_write();
      return msg;
    }
    if (!crashed) return {};
    remount_stack(a_);
    remount_stack(b_);
    std::string ra = a_.ref_store->resolve_after_crash(*a_.layer);
    if (!ra.empty()) return std::string(a_.id) + ": " + ra;
    std::string rb = b_.ref_store->resolve_after_crash(*b_.layer);
    if (!rb.empty()) return std::string(b_.id) + ": " + rb;
    return {};
  }

  std::string check_stack(Stack& s) {
    if (s.leveler != nullptr) {
      std::string msg = s.ref_swl->check(*s.leveler);
      if (!msg.empty()) return std::string(s.id) + " vs SWL model: " + msg;
    }
    if (s.ref_dftl.has_value()) {
      std::string msg = s.ref_dftl->check(static_cast<const dftl::Dftl&>(*s.layer));
      if (!msg.empty()) return std::string(s.id) + " vs DFTL model: " + msg;
    }
    {
      std::string msg = s.ref_wear->check(
          *s.chip, s.layer->counters().total_erases() + s.retired_layer_erases);
      if (!msg.empty()) return std::string(s.id) + " vs wear model: " + msg;
    }
    {
      std::string msg = s.ref_store->check_contents(*s.layer);
      if (!msg.empty()) return std::string(s.id) + " vs contents model: " + msg;
    }
    try {
      s.layer->check_invariants();
    } catch (const std::exception& e) {
      return std::string(s.id) + " invariant violation: " + e.what();
    }
    {
      std::string msg = check_mapping(*s.layer);
      if (!msg.empty()) return std::string(s.id) + " mapping model: " + msg;
    }
    return {};
  }

  std::string check_pair() {
    std::ostringstream os;
    const auto& ca = a_.chip->counters();
    const auto& cb = b_.chip->counters();
    if (ca.reads != cb.reads || ca.programs != cb.programs || ca.erases != cb.erases ||
        ca.program_failures != cb.program_failures || ca.erase_failures != cb.erase_failures) {
      os << "chip counters diverged (A reads/programs/erases " << ca.reads << "/"
         << ca.programs << "/" << ca.erases << ", B " << cb.reads << "/" << cb.programs << "/"
         << cb.erases << ")";
      return os.str();
    }
    if (a_.chip->erase_counts() != b_.chip->erase_counts()) {
      return "per-block erase counts diverged between stacks A and B";
    }
    const auto& ta = a_.layer->counters();
    const auto& tb = b_.layer->counters();
    if (ta.host_writes != tb.host_writes || ta.host_reads != tb.host_reads ||
        ta.gc_erases != tb.gc_erases || ta.swl_erases != tb.swl_erases ||
        ta.gc_live_copies != tb.gc_live_copies || ta.swl_live_copies != tb.swl_live_copies) {
      os << "translation-layer counters diverged (A gc/swl erases " << ta.gc_erases << "/"
         << ta.swl_erases << ", B " << tb.gc_erases << "/" << tb.swl_erases << ")";
      return os.str();
    }
    if (a_.leveler != nullptr) {
      const wear::SwLeveler& la = *a_.leveler;
      const wear::SwLeveler& lb = *b_.leveler;
      if (la.ecnt() != lb.ecnt() || la.fcnt() != lb.fcnt() || la.findex() != lb.findex() ||
          la.bet().bits().words() != lb.bet().bits().words()) {
        os << "leveler state diverged (A ecnt/fcnt/findex " << la.ecnt() << "/" << la.fcnt()
           << "/" << la.findex() << ", B " << lb.ecnt() << "/" << lb.fcnt() << "/"
           << lb.findex() << ")";
        return os.str();
      }
      const wear::LevelerStats& sa = la.stats();
      const wear::LevelerStats& sb = lb.stats();
      if (sa.collections_requested != sb.collections_requested ||
          sa.bet_resets != sb.bet_resets || sa.activations != sb.activations ||
          sa.stalls != sb.stalls) {
        return "leveler statistics diverged between stacks A and B";
      }
      for (unsigned slot = 0; slot < wear::SnapshotStore::kSlots; ++slot) {
        if (a_.store.read_slot(slot) != b_.store.read_slot(slot)) {
          os << "BET snapshot slot " << slot << " bytes diverged";
          return os.str();
        }
      }
    }
    if (a_.extra_observer_erases != b_.extra_observer_erases) {
      os << "mid-run erase observers counted " << a_.extra_observer_erases << " (A) vs "
         << b_.extra_observer_erases << " (B) erases";
      return os.str();
    }
    return {};
  }

  std::string check_all() {
    std::string msg = check_stack(a_);
    if (msg.empty()) msg = check_stack(b_);
    if (msg.empty()) msg = check_pair();
    return msg;
  }

  [[nodiscard]] std::uint64_t fingerprint() const {
    Fnv fnv;
    for (const std::uint32_t c : a_.chip->erase_counts()) fnv.add(c);
    for (const std::uint64_t t : a_.ref_store->tokens()) fnv.add(t);
    const auto& cc = a_.chip->counters();
    fnv.add(cc.reads);
    fnv.add(cc.programs);
    fnv.add(cc.erases);
    fnv.add(cc.program_failures);
    const auto& tc = a_.layer->counters();
    fnv.add(tc.host_writes);
    fnv.add(tc.host_reads);
    fnv.add(tc.gc_erases);
    fnv.add(tc.swl_erases);
    if (a_.leveler != nullptr) {
      fnv.add(a_.leveler->ecnt());
      fnv.add(a_.leveler->fcnt());
      fnv.add(a_.leveler->findex());
      for (const std::uint64_t w : a_.leveler->bet().bits().words()) fnv.add(w);
    }
    return fnv.value();
  }

  FuzzSchedule sched_;
  Stack a_;
  Stack b_;
  std::uint64_t next_token_ = 1;  // 0 is the reference store's "never written"
};

}  // namespace

std::string_view to_string(StepKind k) noexcept {
  switch (k) {
    case StepKind::write_burst:
      return "write_burst";
    case StepKind::read_burst:
      return "read_burst";
    case StepKind::single_write:
      return "single_write";
    case StepKind::single_read:
      return "single_read";
    case StepKind::hook_attach:
      return "hook_attach";
    case StepKind::hook_detach:
      return "hook_detach";
    case StepKind::observer_attach:
      return "observer_attach";
    case StepKind::observer_detach:
      return "observer_detach";
    case StepKind::snapshot_save:
      return "snapshot_save";
    case StepKind::power_cycle:
      return "power_cycle";
    case StepKind::crash_burst:
      return "crash_burst";
  }
  return "unknown";
}

FuzzOutcome run_schedule(const FuzzSchedule& schedule, const FuzzOptions& options) {
  Runner runner(schedule);
  return runner.run(options);
}

FuzzSchedule generate_schedule(std::uint64_t seed, std::optional<sim::LayerKind> force_layer) {
  Rng rng(seed);
  FuzzSchedule s;
  FuzzParams& p = s.params;
  if (force_layer.has_value()) {
    p.layer = *force_layer;
  } else {
    constexpr std::array<sim::LayerKind, 3> kLayers{
        sim::LayerKind::ftl, sim::LayerKind::nftl, sim::LayerKind::dftl};
    p.layer = kLayers[rng.below(kLayers.size())];
  }
  p.block_count = static_cast<BlockIndex>(12 + rng.below(37));  // 12..48
  constexpr std::array<PageIndex, 3> kPages{4, 8, 16};
  p.pages_per_block = kPages[rng.below(kPages.size())];
  p.page_size_bytes = 512;
  p.with_leveler = rng.chance(0.85);
  std::uint32_t max_k = 0;
  while ((BlockIndex{1} << (max_k + 1)) < p.block_count) ++max_k;
  ++max_k;  // the single-flag mode: 2^k >= block_count
  p.leveler.k = static_cast<std::uint32_t>(rng.below(max_k + 1));
  constexpr std::array<double, 7> kThresholds{1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 200.0};
  p.leveler.threshold = kThresholds[rng.below(kThresholds.size())];
  p.leveler.rng_seed = rng.next();
  p.leveler.selection = rng.chance(0.8) ? wear::LevelerConfig::Selection::cyclic_scan
                                        : wear::LevelerConfig::Selection::random;
  p.victim_policy =
      rng.chance(0.75) ? tl::VictimPolicy::greedy_cyclic : tl::VictimPolicy::cost_benefit_age;
  constexpr std::array<double, 4> kWeights{1.0, 0.5, 2.0, 0.25};
  p.gc_cost_weight = kWeights[rng.below(kWeights.size())];
  const std::uint64_t pages = static_cast<std::uint64_t>(p.block_count) * p.pages_per_block;
  Lba lba_count = 0;
  if (p.layer == sim::LayerKind::ftl) {
    // 60–90% utilization, always leaving at least two blocks of slack.
    const std::uint64_t frac = 60 + rng.below(31);
    const std::uint64_t cap = pages - 2ULL * p.pages_per_block;
    p.lba_count = static_cast<Lba>(std::clamp<std::uint64_t>(pages * frac / 100, 1, cap));
    lba_count = p.lba_count;
    p.reference_scan_b = rng.chance(0.5);
  } else if (p.layer == sim::LayerKind::nftl) {
    const std::uint64_t frac = 55 + rng.below(31);
    p.vba_count = static_cast<Vba>(
        std::clamp<std::uint64_t>(p.block_count * frac / 100, 1, p.block_count - 3ULL));
    lba_count = static_cast<Lba>(p.vba_count * p.pages_per_block);
    p.reference_scan_b = rng.chance(0.5);
  } else {
    // DFTL: tiny translation pages so the schedule actually churns the CMT,
    // and small capacities so evictions and write-back batching fire.
    constexpr std::array<std::uint32_t, 3> kTpageSizes{4, 8, 16};
    p.dftl_lbas_per_tpage =
        rng.chance(0.2) ? 0 : kTpageSizes[rng.below(kTpageSizes.size())];
    constexpr std::array<std::uint32_t, 4> kCmt{1, 2, 4, 0};
    p.dftl_cmt_capacity = kCmt[rng.below(kCmt.size())];
    constexpr std::array<std::uint32_t, 3> kBatch{1, 2, 4};
    p.dftl_writeback_batch = kBatch[rng.below(kBatch.size())];
    // 55–85% of the data budget; every R data pages need one translation
    // page on top, plus the default 4-block reserve (DftlConfig REQUIREs
    // lba_count + tpage_count + reserve <= page_count).
    const std::uint64_t r =
        p.dftl_lbas_per_tpage == 0 ? p.page_size_bytes / 4 : p.dftl_lbas_per_tpage;
    const std::uint64_t reserve = 4ULL * p.pages_per_block;
    const std::uint64_t frac = 55 + rng.below(31);
    std::uint64_t cand =
        std::max<std::uint64_t>(1, (pages - reserve) * r / (r + 1) * frac / 100);
    while (cand > 1 && cand + (cand + r - 1) / r + reserve > pages) --cand;
    p.lba_count = static_cast<Lba>(cand);
    lba_count = p.lba_count;
    p.reference_scan_b = rng.chance(0.5);
  }
  if (rng.chance(0.15)) {
    p.program_fail_p = 0.005 + rng.uniform() * 0.015;
    p.failure_seed = rng.next();
  }

  const std::uint64_t step_count = 20 + rng.below(181);  // 20..200
  s.steps.reserve(step_count);
  constexpr std::array<PageIndex, 4> kSpans{100, 50, 25, 10};
  for (std::uint64_t i = 0; i < step_count; ++i) {
    FuzzStep step;
    const std::uint64_t roll = rng.below(100);
    if (roll < 40) {
      step.kind = StepKind::write_burst;
      step.a = rng.next();
      step.b = 16 + rng.below(185);
      step.c = kSpans[rng.below(kSpans.size())];
    } else if (roll < 52) {
      step.kind = StepKind::read_burst;
      step.a = rng.next();
      step.b = 8 + rng.below(57);
    } else if (roll < 58) {
      step.kind = StepKind::single_write;
      step.a = rng.below(lba_count);
    } else if (roll < 64) {
      step.kind = StepKind::single_read;
      step.a = rng.below(lba_count);
    } else if (roll < 72) {
      step.kind = StepKind::snapshot_save;
    } else if (roll < 78) {
      step.kind = rng.chance(0.5) ? StepKind::hook_attach : StepKind::hook_detach;
    } else if (roll < 84) {
      step.kind = rng.chance(0.5) ? StepKind::observer_attach : StepKind::observer_detach;
    } else if (roll < 90) {
      step.kind = StepKind::power_cycle;
    } else {
      step.kind = StepKind::crash_burst;
      step.a = rng.next();
      step.b = 12 + rng.below(109);
      // Persistent ops per write vary with GC; spread crash points from
      // "immediately" to "past the whole burst" (no crash).
      step.c = rng.below(3 * step.b + 4);
    }
    s.steps.push_back(step);
  }
  return s;
}

namespace {

[[nodiscard]] std::string format_double(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

[[nodiscard]] bool parse_step_kind(const std::string& name, StepKind* out) {
  constexpr std::array<StepKind, 11> kAll{
      StepKind::write_burst,  StepKind::read_burst,      StepKind::single_write,
      StepKind::single_read,  StepKind::hook_attach,     StepKind::hook_detach,
      StepKind::observer_attach, StepKind::observer_detach, StepKind::snapshot_save,
      StepKind::power_cycle,  StepKind::crash_burst,
  };
  for (const StepKind k : kAll) {
    if (name == to_string(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

}  // namespace

std::string serialize(const FuzzSchedule& schedule) {
  const FuzzParams& p = schedule.params;
  std::ostringstream os;
  os << "swl-fuzz-schedule v1\n";
  os << "layer "
     << (p.layer == sim::LayerKind::ftl ? "ftl"
                                        : (p.layer == sim::LayerKind::nftl ? "nftl" : "dftl"))
     << "\n";
  os << "blocks " << p.block_count << "\n";
  os << "pages " << p.pages_per_block << "\n";
  os << "page_size " << p.page_size_bytes << "\n";
  os << "leveler " << (p.with_leveler ? 1 : 0) << "\n";
  os << "k " << p.leveler.k << "\n";
  os << "threshold " << format_double(p.leveler.threshold) << "\n";
  os << "swl_seed " << p.leveler.rng_seed << "\n";
  os << "selection "
     << (p.leveler.selection == wear::LevelerConfig::Selection::cyclic_scan ? "cyclic" : "random")
     << "\n";
  os << "victim " << (p.victim_policy == tl::VictimPolicy::greedy_cyclic ? "greedy" : "cba")
     << "\n";
  os << "weight " << format_double(p.gc_cost_weight) << "\n";
  os << "lba_count " << p.lba_count << "\n";
  os << "vba_count " << p.vba_count << "\n";
  os << "dftl_tpage " << p.dftl_lbas_per_tpage << "\n";
  os << "dftl_cmt " << p.dftl_cmt_capacity << "\n";
  os << "dftl_batch " << p.dftl_writeback_batch << "\n";
  os << "reference_scan_b " << (p.reference_scan_b ? 1 : 0) << "\n";
  os << "program_fail_p " << format_double(p.program_fail_p) << "\n";
  os << "failure_seed " << p.failure_seed << "\n";
  os << "steps " << schedule.steps.size() << "\n";
  for (const FuzzStep& step : schedule.steps) {
    os << to_string(step.kind) << " " << step.a << " " << step.b << " " << step.c << "\n";
  }
  return os.str();
}

bool deserialize(const std::string& text, FuzzSchedule* out, std::string* error) {
  SWL_REQUIRE(out != nullptr && error != nullptr, "null output");
  const auto fail = [&](const std::string& why) {
    *error = why;
    return false;
  };
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != "swl-fuzz-schedule v1") {
    return fail("missing \"swl-fuzz-schedule v1\" header");
  }
  FuzzSchedule s;
  FuzzParams& p = s.params;
  std::uint64_t step_count = 0;
  bool saw_steps = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "layer") {
      std::string v;
      ls >> v;
      if (v == "ftl") {
        p.layer = sim::LayerKind::ftl;
      } else if (v == "nftl") {
        p.layer = sim::LayerKind::nftl;
      } else if (v == "dftl") {
        p.layer = sim::LayerKind::dftl;
      } else {
        return fail("unknown layer \"" + v + "\"");
      }
    } else if (key == "blocks") {
      ls >> p.block_count;
    } else if (key == "pages") {
      ls >> p.pages_per_block;
    } else if (key == "page_size") {
      ls >> p.page_size_bytes;
    } else if (key == "leveler") {
      int v = 0;
      ls >> v;
      p.with_leveler = v != 0;
    } else if (key == "k") {
      ls >> p.leveler.k;
    } else if (key == "threshold") {
      ls >> p.leveler.threshold;
    } else if (key == "swl_seed") {
      ls >> p.leveler.rng_seed;
    } else if (key == "selection") {
      std::string v;
      ls >> v;
      if (v == "cyclic") {
        p.leveler.selection = wear::LevelerConfig::Selection::cyclic_scan;
      } else if (v == "random") {
        p.leveler.selection = wear::LevelerConfig::Selection::random;
      } else {
        return fail("unknown selection \"" + v + "\"");
      }
    } else if (key == "victim") {
      std::string v;
      ls >> v;
      if (v == "greedy") {
        p.victim_policy = tl::VictimPolicy::greedy_cyclic;
      } else if (v == "cba") {
        p.victim_policy = tl::VictimPolicy::cost_benefit_age;
      } else {
        return fail("unknown victim policy \"" + v + "\"");
      }
    } else if (key == "weight") {
      ls >> p.gc_cost_weight;
    } else if (key == "lba_count") {
      ls >> p.lba_count;
    } else if (key == "vba_count") {
      ls >> p.vba_count;
    } else if (key == "dftl_tpage") {
      ls >> p.dftl_lbas_per_tpage;
    } else if (key == "dftl_cmt") {
      ls >> p.dftl_cmt_capacity;
    } else if (key == "dftl_batch") {
      ls >> p.dftl_writeback_batch;
    } else if (key == "reference_scan_b") {
      int v = 0;
      ls >> v;
      p.reference_scan_b = v != 0;
    } else if (key == "program_fail_p") {
      ls >> p.program_fail_p;
    } else if (key == "failure_seed") {
      ls >> p.failure_seed;
    } else if (key == "steps") {
      ls >> step_count;
      if (ls.fail()) return fail("unreadable step count");
      saw_steps = true;
      break;
    } else {
      return fail("unknown key \"" + key + "\"");
    }
    if (ls.fail()) return fail("unreadable value for key \"" + key + "\"");
  }
  if (!saw_steps) return fail("missing \"steps <n>\" line");
  s.steps.reserve(step_count);
  for (std::uint64_t i = 0; i < step_count; ++i) {
    if (!std::getline(is, line)) return fail("fewer step lines than the declared count");
    std::istringstream ls(line);
    std::string name;
    FuzzStep step;
    ls >> name >> step.a >> step.b >> step.c;
    if (ls.fail() || !parse_step_kind(name, &step.kind)) {
      return fail("unreadable step line: \"" + line + "\"");
    }
    s.steps.push_back(step);
  }
  if (s.params.block_count == 0 || s.params.pages_per_block == 0 ||
      s.params.page_size_bytes == 0) {
    return fail("schedule declares an empty geometry");
  }
  *out = std::move(s);
  error->clear();
  return true;
}

MinimizeResult minimize(const FuzzSchedule& schedule, const FuzzOptions& options,
                        std::size_t max_runs) {
  MinimizeResult res;
  res.schedule = schedule;
  const auto attempt = [&](const FuzzSchedule& cand) {
    ++res.runs;
    return run_schedule(cand, options);
  };
  res.outcome = attempt(schedule);
  if (res.outcome.ok) return res;  // nothing to shrink

  // Everything past the failing step is dead weight.
  res.schedule.steps.resize(res.outcome.failing_step + 1);

  // Greedy chunk removal: drop [i, i+chunk) while the schedule still fails.
  bool improved = true;
  while (improved && res.runs < max_runs) {
    improved = false;
    for (std::size_t chunk = std::max<std::size_t>(res.schedule.steps.size() / 2, 1); chunk >= 1;
         chunk /= 2) {
      for (std::size_t i = 0; i + chunk <= res.schedule.steps.size() && res.runs < max_runs;) {
        FuzzSchedule cand = res.schedule;
        cand.steps.erase(cand.steps.begin() + static_cast<std::ptrdiff_t>(i),
                         cand.steps.begin() + static_cast<std::ptrdiff_t>(i + chunk));
        FuzzOutcome out = attempt(cand);
        if (!out.ok) {
          cand.steps.resize(out.failing_step + 1);
          res.schedule = std::move(cand);
          res.outcome = std::move(out);
          improved = true;
        } else {
          i += chunk;
        }
      }
      if (chunk == 1) break;
    }
  }

  // Shrink burst operands: halve write/read counts while the failure holds.
  for (std::size_t i = 0; i < res.schedule.steps.size() && res.runs < max_runs; ++i) {
    const StepKind kind = res.schedule.steps[i].kind;
    if (kind != StepKind::write_burst && kind != StepKind::read_burst &&
        kind != StepKind::crash_burst) {
      continue;
    }
    while (res.runs < max_runs && i < res.schedule.steps.size() &&
           res.schedule.steps[i].b > 1) {
      FuzzSchedule cand = res.schedule;
      cand.steps[i].b /= 2;
      FuzzOutcome out = attempt(cand);
      if (out.ok) break;
      cand.steps.resize(out.failing_step + 1);
      res.schedule = std::move(cand);
      res.outcome = std::move(out);
    }
  }
  return res;
}

}  // namespace swl::model
