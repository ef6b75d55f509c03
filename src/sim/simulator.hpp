// Simulation driver: wires a trace source to a translation layer over a
// simulated NAND chip (optionally with a SW Leveler attached) and runs until
// a stop condition — first block failure, a simulated-time horizon, or trace
// exhaustion.
//
// The record loop is batched: run() pulls records through
// TraceSource::next_batch() into an owned buffer and replays them through the
// layer's write()/read(). A carry buffer keeps records pulled but not yet
// replayed when a call stops early (horizon, failure, max_records), so
// resumed runs see the exact record stream a per-record loop would —
// run_serial() is that reference loop, kept for the equivalence tests.
#ifndef SWL_SIM_SIMULATOR_HPP
#define SWL_SIM_SIMULATOR_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/clock.hpp"
#include "core/geometry.hpp"
#include "dftl/dftl.hpp"
#include "ftl/ftl.hpp"
#include "nand/nand_chip.hpp"
#include "nftl/nftl.hpp"
#include "stats/summary.hpp"
#include "swl/leveler.hpp"
#include "swl/oracle_leveler.hpp"
#include "tl/translation_layer.hpp"
#include "trace/trace.hpp"

namespace swl::sim {

enum class LayerKind { ftl, nftl, dftl };

[[nodiscard]] std::string_view to_string(LayerKind k) noexcept;

/// Everything needed to stand up a device + translation layer (+ leveler).
struct SimConfig {
  FlashGeometry geometry;
  NandTiming timing;
  /// Optional media-error injection (see nand::FailureInjection).
  nand::FailureInjection failures;
  LayerKind layer = LayerKind::ftl;
  /// Static wear leveling configuration; std::nullopt disables SWL.
  std::optional<wear::LevelerConfig> leveler;
  /// Alternative: attach the counter-table oracle policy instead of the SW
  /// Leveler (ablation baseline; mutually exclusive with `leveler`).
  std::optional<wear::OracleConfig> oracle_leveler;
  /// Layer tuning (lba_count/vba_count of 0 keeps the layer's default).
  ftl::FtlConfig ftl;
  nftl::NftlConfig nftl;
  dftl::DftlConfig dftl;
};

/// Replay-pipeline instrumentation, accumulated across run() calls. Pure
/// wall-clock diagnostics: none of these feed back into simulation state, so
/// results stay bit-identical whatever the host machine's speed.
struct PerfCounters {
  std::uint64_t records = 0;        ///< records replayed through run()
  std::uint64_t batches = 0;        ///< next_batch calls that returned data
  std::uint64_t batch_capacity = 0; ///< slots requested across those calls
  std::uint64_t batch_filled = 0;   ///< records those calls returned
  double source_seconds = 0.0;      ///< wall time inside next_batch
  double replay_seconds = 0.0;      ///< wall time in the replay loop proper

  /// How full the average batch came back (1.0 = the source always filled
  /// the buffer; low values mean the source, not the device, paces the run).
  [[nodiscard]] double batch_fill_ratio() const noexcept {
    return batch_capacity == 0
               ? 0.0
               : static_cast<double>(batch_filled) / static_cast<double>(batch_capacity);
  }
  [[nodiscard]] double records_per_second() const noexcept {
    const double t = source_seconds + replay_seconds;
    return t > 0.0 ? static_cast<double>(records) / t : 0.0;
  }
  [[nodiscard]] double source_ns_per_record() const noexcept {
    return records == 0 ? 0.0 : source_seconds * 1e9 / static_cast<double>(records);
  }
  [[nodiscard]] double replay_ns_per_record() const noexcept {
    return records == 0 ? 0.0 : replay_seconds * 1e9 / static_cast<double>(records);
  }
};

/// Snapshot of a simulation's outcome.
struct SimResult {
  /// Simulated years until any block first reached the endurance limit
  /// (std::nullopt if the run stopped before any block wore out).
  std::optional<double> first_failure_years;
  /// Simulated years covered by the run.
  double elapsed_years = 0.0;
  std::uint64_t records_processed = 0;
  stats::Summary erase_summary;
  /// Per-block erase counts at the end of the run (index == block number).
  std::vector<std::uint32_t> erase_counts;
  tl::TlCounters counters;
  nand::NandCounters chip_counters;
  wear::LevelerStats leveler_stats;  // zeros when SWL is disabled
  /// Replay-throughput diagnostics (wall-clock; not part of the simulated
  /// state).
  PerfCounters perf;
};

class Simulator {
 public:
  explicit Simulator(const SimConfig& config);
  /// Unhooks the wear tracker's erase observer. The chip dies with this
  /// Simulator anyway, but the token-based removal keeps the registration
  /// balanced (and the observer-lifetime lint rule green) — the PR 2
  /// dangling-observer bug class is exactly an "owner outlives the hook"
  /// assumption that later refactors silently break.
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Feeds records from `source` until (a) the source ends, (b) `max_records`
  /// records were processed, (c) the simulated clock passes `max_years`, or
  /// (d) `stop_on_first_failure` and a block wore out. Returns the records
  /// processed by *this call* — [[nodiscard]] because a caller that ignores
  /// the count cannot tell a completed budget from an early stop. Resumable:
  /// call again to continue — but keep feeding the same source, since a call
  /// that stops early may carry already-pulled records into the next call.
  [[nodiscard]] std::uint64_t run(trace::TraceSource& source, double max_years,
                                  bool stop_on_first_failure,
                                  std::uint64_t max_records = UINT64_MAX);

  /// Reference implementation of run(): one record at a time through the
  /// virtual TraceSource::next() and TranslationLayer::write()/read()
  /// interfaces — no batching, no carry buffer. Exists to pin the
  /// batched pipeline: replaying the same trace through run() and
  /// run_serial() must produce bit-identical results. Do not interleave with
  /// run() on one source (run() may hold pulled records in its carry buffer).
  [[nodiscard]] std::uint64_t run_serial(trace::TraceSource& source, double max_years,
                                         bool stop_on_first_failure,
                                         std::uint64_t max_records = UINT64_MAX);

  [[nodiscard]] SimResult result() const;

  [[nodiscard]] tl::TranslationLayer& layer() noexcept { return *layer_; }
  [[nodiscard]] const tl::TranslationLayer& layer() const noexcept { return *layer_; }
  [[nodiscard]] nand::NandChip& chip() noexcept { return *chip_; }
  [[nodiscard]] const nand::NandChip& chip() const noexcept { return *chip_; }
  [[nodiscard]] SimClock& clock() noexcept { return clock_; }
  [[nodiscard]] const SimClock& clock() const noexcept { return clock_; }
  [[nodiscard]] Lba lba_count() const noexcept { return layer_->lba_count(); }

  /// Rebinds the simulator's (and its chip's) thread-confinement check: a
  /// driver that replays rounds on a worker pool calls this at every
  /// ownership handoff — before dispatching a round to a (possibly
  /// different) worker, and again before touching the stack from the
  /// coordinating thread. One simulator still runs on exactly one thread at
  /// a time; only the owner changes.
  void detach_owner_thread() noexcept {
    thread_checker_.detach();
    chip_->detach_owner_thread();
  }

 private:
  /// Records pulled per next_batch call: 4096 records = 64 KiB of buffer,
  /// large enough to amortize the virtual call, small enough to stay in L2.
  static constexpr std::size_t kBatchCapacity = 4096;


  /// O(1)-per-erase running erase-count summary (fed by an erase observer),
  /// so result() does not rescan every block. Integer-exact sums; produces
  /// the same Summary stats::summarize computes from the full table.
  struct WearTracker {
    std::uint64_t sum = 0;              // sum of all erase counts
    unsigned __int128 sum_squares = 0;  // sum of squared erase counts
    std::uint32_t min = 0;
    std::uint32_t max = 0;
    std::vector<std::uint32_t> histogram;  // blocks per erase count
    std::size_t block_count = 0;

    void init(std::size_t blocks);
    void on_erase(std::uint32_t new_count);
    [[nodiscard]] stats::Summary summary() const;
  };

  SimClock clock_;
  std::unique_ptr<nand::NandChip> chip_;
  std::unique_ptr<tl::TranslationLayer> layer_;
  std::uint64_t records_ = 0;
  std::uint64_t next_payload_ = 1;
  // Carry buffer: batch_[batch_pos_..batch_len_) holds records pulled from
  // the source but not yet replayed (a run() call can stop mid-batch).
  std::vector<trace::TraceRecord> batch_;
  std::size_t batch_pos_ = 0;
  std::size_t batch_len_ = 0;
  WearTracker wear_;
  std::size_t wear_observer_token_ = 0;
  // Thread-confined, like the chip it drives: perf_ and the carry buffer are
  // mutated without synchronization, so one Simulator must stay on one
  // thread. Checked (debug builds) at every run()/run_serial() entry.
  PerfCounters perf_;
  ThreadChecker thread_checker_;
};

/// Builds the standard simulator stack for a config.
[[nodiscard]] std::unique_ptr<Simulator> make_simulator(const SimConfig& config);

/// Builds a translation layer of `kind` over `chip`: fresh when `mounted`
/// is false (expects an erased chip), otherwise by mount-scanning the
/// existing flash image (crash recovery). Shared by the Simulator and the
/// fault-injection harness so both construct layers the same way.
[[nodiscard]] std::unique_ptr<tl::TranslationLayer> make_layer(
    LayerKind kind, nand::NandChip& chip, const ftl::FtlConfig& ftl_config,
    const nftl::NftlConfig& nftl_config, const dftl::DftlConfig& dftl_config, bool mounted);

}  // namespace swl::sim

#endif  // SWL_SIM_SIMULATOR_HPP
