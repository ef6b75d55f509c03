// Model-based differential fuzzing of the translation-layer stack.
//
// A schedule — deterministic in its seed — drives two production stacks over
// two identical simulated chips:
//   stack A replays through write / read with the layer's victim index,
//   stack B replays the same records, optionally with the reference victim
//     scans (FuzzParams::reference_scan_b) in place of the index,
// and after every step both are cross-checked against each other and against
// the executable reference models of src/model (logical contents, mapping
// structure, erase accounting, the SW Leveler's recomputed-from-the-raw-log
// state, BET snapshot bytes) plus the layers' own check_invariants().
//
// Steps cover host bursts, mid-run power-loss-hook and erase-observer
// attach/detach, BET snapshot saves, clean power cycles and crash bursts
// with deterministic crash-point injection (reusing src/fault). Any
// divergence yields the failing step and a diagnostic; minimize() shrinks a
// failing schedule to a small replayable reproducer.
#ifndef SWL_MODEL_FUZZ_HPP
#define SWL_MODEL_FUZZ_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "sim/simulator.hpp"
#include "swl/leveler.hpp"
#include "tl/gc_policy.hpp"

namespace swl::model {

/// One fuzz command. The operand meaning depends on the kind:
///   write_burst    a = RNG seed, b = write count, c = hot-span percent
///   read_burst     a = RNG seed, b = read count
///   single_write   a = LBA
///   single_read    a = LBA
///   hook_attach    (attach a power-loss hook that never cuts power)
///   hook_detach
///   observer_attach (attach a counting chip erase observer)
///   observer_detach
///   snapshot_save  (dual-buffer BET snapshot save; no-op without leveler)
///   power_cycle    (clean shutdown: save, remount, reload the leveler)
///   crash_burst    a = RNG seed, b = write count, c = crash point
///                  (src/fault numbering; beyond the burst = no crash)
enum class StepKind : std::uint8_t {
  write_burst,
  read_burst,
  single_write,
  single_read,
  hook_attach,
  hook_detach,
  observer_attach,
  observer_detach,
  snapshot_save,
  power_cycle,
  crash_burst,
};

[[nodiscard]] std::string_view to_string(StepKind k) noexcept;

struct FuzzStep {
  StepKind kind = StepKind::single_write;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

/// Stack shape shared by both sides of the differential pair. Stack B may
/// additionally run NFTL's reference (two-pass) victim scan — pinning the
/// production single-pass maybe_invalid scan against it.
struct FuzzParams {
  sim::LayerKind layer = sim::LayerKind::ftl;
  BlockIndex block_count = 16;
  PageIndex pages_per_block = 8;
  std::uint32_t page_size_bytes = 512;
  bool with_leveler = true;
  wear::LevelerConfig leveler;
  tl::VictimPolicy victim_policy = tl::VictimPolicy::greedy_cyclic;
  double gc_cost_weight = 1.0;
  /// Exported logical pages (FTL/DFTL) / virtual blocks (NFTL); 0 = layer
  /// default.
  Lba lba_count = 0;
  Vba vba_count = 0;
  /// DFTL shape (ignored by the other layers); 0 = DftlConfig default.
  std::uint32_t dftl_lbas_per_tpage = 0;
  std::uint32_t dftl_cmt_capacity = 0;
  std::uint32_t dftl_writeback_batch = 1;
  /// Stack B selects GC victims with the reference scans instead of the
  /// victim index (FtlConfig/NftlConfig::reference_victim_scan).
  bool reference_scan_b = false;
  /// Injected media-error probability (same stream on both chips).
  double program_fail_p = 0.0;
  std::uint64_t failure_seed = 1;
};

struct FuzzSchedule {
  FuzzParams params;
  std::vector<FuzzStep> steps;
};

/// Deliberate-bug injection for harness self-tests: the fuzzer must CATCH
/// these, proving the oracles have teeth.
struct FuzzOptions {
  enum class Inject : std::uint8_t {
    none,
    /// Drop one SWL-BETUpdate on stack A: at the first step boundary at or
    /// after inject_at_step where the leveler has counted an erase, its ecnt
    /// is rolled back by one (the flag half of Algorithm 2 left intact) —
    /// exactly the state a leveler that missed one erase event would hold.
    skip_bet_update,
    /// Drop one CMT write-back on stack A (DFTL only): at the first step
    /// boundary at or after inject_at_step where some CMT slot is dirty, its
    /// dirty flag is cleared without programming the translation page —
    /// exactly the state a skipped write-back would leave behind.
    skip_cmt_writeback,
  };
  Inject inject = Inject::none;
  std::size_t inject_at_step = 0;
};

inline constexpr std::size_t kNoStep = static_cast<std::size_t>(-1);

struct FuzzOutcome {
  bool ok = true;
  /// Index of the step after which the divergence surfaced (kNoStep if ok).
  std::size_t failing_step = kNoStep;
  std::string message;
  /// FNV-1a digest of the final observable state (erase counts, logical
  /// contents, leveler state, counters); bit-stable for a given schedule.
  std::uint64_t fingerprint = 0;
};

/// Derives a full schedule (params + steps) from `seed`, deterministically.
/// `force_layer` pins the translation layer kind (for coverage quotas).
[[nodiscard]] FuzzSchedule generate_schedule(
    std::uint64_t seed, std::optional<sim::LayerKind> force_layer = std::nullopt);

/// Executes a schedule, cross-checking after every step. Bit-reproducible:
/// the same schedule and options always return the same outcome.
[[nodiscard]] FuzzOutcome run_schedule(const FuzzSchedule& schedule,
                                       const FuzzOptions& options = {});

/// Text form ("swl-fuzz-schedule v1"), replayable via deserialize().
[[nodiscard]] std::string serialize(const FuzzSchedule& schedule);
[[nodiscard]] bool deserialize(const std::string& text, FuzzSchedule* out, std::string* error);

struct MinimizeResult {
  FuzzSchedule schedule;
  FuzzOutcome outcome;
  std::size_t runs = 0;
};

/// Shrinks a failing schedule (truncation to the failing step, greedy chunk
/// removal, burst-size halving) while it keeps failing under `options`.
/// A passing schedule is returned unchanged.
[[nodiscard]] MinimizeResult minimize(const FuzzSchedule& schedule,
                                      const FuzzOptions& options = {},
                                      std::size_t max_runs = 2000);

}  // namespace swl::model

#endif  // SWL_MODEL_FUZZ_HPP
