#include "sim/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "core/contracts.hpp"

namespace swl::sim {

std::string_view to_string(LayerKind k) noexcept {
  switch (k) {
    case LayerKind::ftl:
      return "FTL";
    case LayerKind::nftl:
      return "NFTL";
    case LayerKind::dftl:
      return "DFTL";
  }
  return "unknown";
}

void Simulator::WearTracker::init(std::size_t blocks) {
  block_count = blocks;
  histogram.assign(1, static_cast<std::uint32_t>(blocks));  // everything at 0
}

void Simulator::WearTracker::on_erase(std::uint32_t new_count) {
  // One block just moved from new_count-1 to new_count erases.
  sum += 1;
  sum_squares += 2 * static_cast<std::uint64_t>(new_count) - 1;  // c^2 - (c-1)^2
  if (new_count >= histogram.size()) histogram.resize(new_count + 1, 0);
  --histogram[new_count - 1];
  ++histogram[new_count];
  if (new_count > max) max = new_count;
  while (histogram[min] == 0) ++min;
}

stats::Summary Simulator::WearTracker::summary() const {
  stats::Summary s;
  s.count = block_count;
  if (block_count == 0) return s;
  s.min = min;
  s.max = max;
  const auto n = static_cast<double>(block_count);
  s.mean = static_cast<double>(sum) / n;
  // Exact integer variance numerator: n*sum(c^2) - (sum c)^2 >= 0. Same
  // formula as stats::summarize, so the two agree bit for bit.
  const unsigned __int128 numerator =
      static_cast<unsigned __int128>(block_count) * sum_squares -
      static_cast<unsigned __int128>(sum) * sum;
  s.stddev = std::sqrt(static_cast<double>(numerator)) / n;
  return s;
}

Simulator::Simulator(const SimConfig& config) {
  SWL_REQUIRE(config.geometry.valid(), "invalid geometry");
  chip_ = std::make_unique<nand::NandChip>(
      nand::NandConfig{.geometry = config.geometry, .timing = config.timing,
                       .failures = config.failures,
                       // DFTL stores translation pages as byte payloads.
                       .store_payload_bytes = config.layer == LayerKind::dftl},
      &clock_);
  wear_.init(config.geometry.block_count);
  // The tracker starts from the fresh chip's all-zero counts; the token is
  // redeemed in ~Simulator.
  wear_observer_token_ = chip_->add_erase_observer(
      [this](BlockIndex, std::uint32_t count) { wear_.on_erase(count); });
  layer_ = make_layer(config.layer, *chip_, config.ftl, config.nftl, config.dftl,
                      /*mounted=*/false);
  SWL_REQUIRE(!(config.leveler.has_value() && config.oracle_leveler.has_value()),
              "choose either the SW Leveler or the oracle policy, not both");
  if (config.leveler.has_value()) {
    layer_->attach_leveler(
        std::make_unique<wear::SwLeveler>(config.geometry.block_count, *config.leveler));
  } else if (config.oracle_leveler.has_value()) {
    layer_->attach_leveler(std::make_unique<wear::OracleLeveler>(config.geometry.block_count,
                                                                 *config.oracle_leveler));
  }
  batch_.resize(kBatchCapacity);
}

Simulator::~Simulator() { chip_->remove_erase_observer(wear_observer_token_); }

std::uint64_t Simulator::run(trace::TraceSource& source, double max_years,
                             bool stop_on_first_failure, std::uint64_t max_records) {
  thread_checker_.check("Simulator::run");
  const SimTime horizon = seconds_to_us(max_years * kSecondsPerYear);
  tl::TranslationLayer& layer = *layer_;
  const Lba lba_count = layer.lba_count();
  const std::uint64_t start_records = records_;
  const auto wall_start = std::chrono::steady_clock::now();
  double source_seconds = 0.0;

  bool stop = false;
  while (!stop) {
    if (records_ - start_records >= max_records) break;
    if (batch_pos_ >= batch_len_) {
      // Refill, capped at the caller's record budget so a batch never
      // overshoots max_records (which lets the drain loop below run without
      // a per-record count check).
      if (stop_on_first_failure && chip_->first_failure().has_value()) break;
      if (clock_.now() >= horizon) break;
      const std::uint64_t budget = max_records - (records_ - start_records);
      const auto want =
          static_cast<std::size_t>(std::min<std::uint64_t>(kBatchCapacity, budget));
      const auto fill_start = std::chrono::steady_clock::now();
      batch_len_ = source.next_batch(batch_.data(), want);
      source_seconds +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - fill_start).count();
      batch_pos_ = 0;
      if (batch_len_ == 0) break;  // trace ended
      ++perf_.batches;
      perf_.batch_capacity += want;
      perf_.batch_filled += batch_len_;
      // Pre-split the LBA wrap once per batch: external traces may address
      // beyond the exported space (replaying against a smaller device), but
      // the common case is in-range, so the drain loop stays modulo-free.
      for (std::size_t i = 0; i < batch_len_; ++i) {
        if (batch_[i].lba >= lba_count) batch_[i].lba %= lba_count;
      }
    }
    // Drain: at most the caller's remaining budget (carry from an earlier
    // call can exceed the budget of this one).
    const std::uint64_t budget = max_records - (records_ - start_records);
    if (budget == 0) break;
    const std::size_t limit =
        batch_pos_ + static_cast<std::size_t>(
                         std::min<std::uint64_t>(batch_len_ - batch_pos_, budget));
    const trace::TraceRecord* const recs = batch_.data();
    for (std::size_t i = batch_pos_; i < limit; ++i) {
      // Same per-record stop conditions, in the same order, as run_serial:
      // a record is only consumed once none of them fired.
      if (stop_on_first_failure && chip_->first_failure().has_value()) {
        stop = true;
        break;
      }
      if (clock_.now() >= horizon) {
        stop = true;
        break;
      }
      const trace::TraceRecord& rec = recs[i];
      if (rec.time_us >= horizon) {
        batch_pos_ = i + 1;  // consumed (and dropped), exactly like next()
        clock_.advance_to(horizon);
        stop = true;
        break;
      }
      clock_.advance_to(rec.time_us);
      if (rec.op == trace::Op::write) {
        const Status st = layer.write(rec.lba, next_payload_++);
        SWL_ASSERT(st == Status::ok || st == Status::out_of_space || st == Status::program_failed,
                   "unexpected write failure");
        if (st == Status::out_of_space) {
          batch_pos_ = i + 1;  // consumed; device full: nothing more to learn
          stop = true;
          break;
        }
      } else {
        std::uint64_t token = 0;
        const Status st = layer.read(rec.lba, &token);
        SWL_ASSERT(st == Status::ok || st == Status::lba_not_mapped, "unexpected read failure");
      }
      batch_pos_ = i + 1;
      ++records_;
    }
  }

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  perf_.source_seconds += source_seconds;
  perf_.replay_seconds += wall - source_seconds;
  perf_.records += records_ - start_records;
  return records_ - start_records;
}

std::uint64_t Simulator::run_serial(trace::TraceSource& source, double max_years,
                                    bool stop_on_first_failure, std::uint64_t max_records) {
  thread_checker_.check("Simulator::run_serial");
  const SimTime horizon = seconds_to_us(max_years * kSecondsPerYear);
  const std::uint64_t start_records = records_;
  while (records_ - start_records < max_records) {
    if (stop_on_first_failure && chip_->first_failure().has_value()) break;
    if (clock_.now() >= horizon) break;
    const auto rec = source.next();
    if (!rec.has_value()) break;
    if (rec->time_us >= horizon) {
      clock_.advance_to(horizon);
      break;
    }
    clock_.advance_to(rec->time_us);
    // Trace LBAs beyond the exported space (possible when replaying an
    // external trace against a smaller device) wrap around.
    const Lba lba = rec->lba % layer_->lba_count();
    if (rec->op == trace::Op::write) {
      const Status st = layer_->write(lba, next_payload_++);
      SWL_ASSERT(st == Status::ok || st == Status::out_of_space || st == Status::program_failed,
                 "unexpected write failure");
      if (st == Status::out_of_space) break;  // device full: nothing more to learn
    } else {
      std::uint64_t token = 0;
      const Status st = layer_->read(lba, &token);
      SWL_ASSERT(st == Status::ok || st == Status::lba_not_mapped, "unexpected read failure");
    }
    ++records_;
  }
  return records_ - start_records;
}

SimResult Simulator::result() const {
  SimResult r;
  if (const auto& f = chip_->first_failure(); f.has_value()) {
    r.first_failure_years =
        static_cast<double>(f->time_us) / static_cast<double>(kUsPerSecond) / kSecondsPerYear;
  }
  r.elapsed_years = clock_.years();
  r.records_processed = records_;
  r.erase_summary = wear_.summary();
  r.erase_counts = chip_->erase_counts();
  r.counters = layer_->counters();
  r.chip_counters = chip_->counters();
  if (const auto* lev = layer_->leveler(); lev != nullptr) {
    r.leveler_stats = lev->stats();
  }
  r.perf = perf_;
  return r;
}

std::unique_ptr<Simulator> make_simulator(const SimConfig& config) {
  return std::make_unique<Simulator>(config);
}

std::unique_ptr<tl::TranslationLayer> make_layer(LayerKind kind, nand::NandChip& chip,
                                                 const ftl::FtlConfig& ftl_config,
                                                 const nftl::NftlConfig& nftl_config,
                                                 const dftl::DftlConfig& dftl_config,
                                                 bool mounted) {
  switch (kind) {
    case LayerKind::ftl:
      return mounted ? ftl::Ftl::mount(chip, ftl_config)
                     : std::make_unique<ftl::Ftl>(chip, ftl_config);
    case LayerKind::nftl:
      return mounted ? nftl::Nftl::mount(chip, nftl_config)
                     : std::make_unique<nftl::Nftl>(chip, nftl_config);
    case LayerKind::dftl:
      return mounted ? dftl::Dftl::mount(chip, dftl_config)
                     : std::make_unique<dftl::Dftl>(chip, dftl_config);
  }
  SWL_ASSERT(false, "unknown layer kind");
  return nullptr;
}

}  // namespace swl::sim
