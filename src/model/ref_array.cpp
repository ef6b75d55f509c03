#include "model/ref_array.hpp"

#include <sstream>

#include "core/contracts.hpp"
#include "core/fnv1a.hpp"
#include "sim/array_experiment.hpp"
#include "sim/sharded_replay.hpp"
#include "trace/segment_replay.hpp"

namespace swl::model {

RefArrayWear::RefArrayWear(const array::ChipArray& array_shape,
                           array::CoordinatorConfig coordinator,
                           std::optional<wear::LevelerConfig> leveler)
    : coordinator_config_(coordinator),
      chip_count_(array_shape.chip_count()),
      blocks_per_chip_(
          array_shape.chip_sim(0).chip().geometry().block_count) {
  erases_.assign(chip_count_, 0);
  if (leveler.has_value()) {
    ref_levelers_.reserve(chip_count_);
    for (std::uint32_t c = 0; c < chip_count_; ++c) {
      ref_levelers_.push_back(std::make_unique<RefSwLeveler>(
          static_cast<BlockIndex>(blocks_per_chip_), *leveler));
    }
  }
}

RefArrayWear::~RefArrayWear() {
  if (attached_) detach(*attached_array_);
}

void RefArrayWear::attach(array::ChipArray& array) {
  SWL_REQUIRE(!attached_, "oracle already attached");
  SWL_REQUIRE(array.chip_count() == chip_count_, "oracle was built for a different array");
  observer_tokens_.reserve(chip_count_);
  for (std::uint32_t c = 0; c < chip_count_; ++c) {
    observer_tokens_.push_back(array.chip_sim(c).chip().add_erase_observer(
        [this, c](BlockIndex block, std::uint32_t) {
          ++erases_[c];
          if (!ref_levelers_.empty()) ref_levelers_[c]->on_chip_erase(block);
        }));
    if (!ref_levelers_.empty()) {
      auto* lev = dynamic_cast<wear::SwLeveler*>(array.chip_sim(c).layer().leveler());
      SWL_REQUIRE(lev != nullptr, "chip has no SW Leveler to mirror");
      lev->set_trace_sink(ref_levelers_[c].get());
      ref_levelers_[c]->resync(*lev);
    }
  }
  attached_array_ = &array;
  attached_ = true;
}

void RefArrayWear::detach(array::ChipArray& array) {
  if (!attached_) return;
  for (std::uint32_t c = 0; c < chip_count_; ++c) {
    array.chip_sim(c).chip().remove_erase_observer(observer_tokens_[c]);
    if (!ref_levelers_.empty()) {
      if (auto* lev = dynamic_cast<wear::SwLeveler*>(array.chip_sim(c).layer().leveler())) {
        lev->set_trace_sink(nullptr);
      }
    }
  }
  observer_tokens_.clear();
  attached_array_ = nullptr;
  attached_ = false;
}

array::Decision RefArrayWear::expected_decision() const {
  const std::vector<double> means = mean_erases();
  return array::GlobalLevelCoordinator::decide(means, coordinator_config_, round_,
                                               cooldown_left_);
}

std::string RefArrayWear::on_decision(const array::Decision& expected,
                                      const array::Decision& actual) {
  std::string error;
  if (!(expected == actual)) {
    std::ostringstream os;
    os << "coordinator decision diverged at round " << round_ << ": expected {migrate="
       << expected.migrate << " from=" << expected.from_chip << " to=" << expected.to_chip
       << " ratio=" << expected.ratio << "}, got {migrate=" << actual.migrate
       << " from=" << actual.from_chip << " to=" << actual.to_chip << " ratio=" << actual.ratio
       << "}";
    error = os.str();
  }
  // Advance the mirror from the *expected* decision so it stays internally
  // consistent (the divergence above is already reported).
  if (expected.migrate) {
    cooldown_left_ = coordinator_config_.cooldown_rounds;
  } else if (cooldown_left_ > 0) {
    --cooldown_left_;
  }
  ++round_;
  return error;
}

std::string RefArrayWear::check(const array::ChipArray& array) const {
  const std::vector<double> means = mean_erases();
  for (std::uint32_t c = 0; c < chip_count_; ++c) {
    // Both sides divide integer erase totals by the block count, so a
    // healthy array matches exactly — any drift means lost or phantom
    // erases in one of the accountings.
    if (means[c] != array.mean_erase_count(c)) {
      std::ostringstream os;
      os << "chip " << c << " mean erase count diverged: oracle " << means[c] << ", array "
         << array.mean_erase_count(c);
      return os.str();
    }
    if (!ref_levelers_.empty()) {
      const auto* lev =
          dynamic_cast<const wear::SwLeveler*>(array.chip_sim(c).layer().leveler());
      if (lev == nullptr) return "chip lost its SW Leveler";
      if (std::string err = ref_levelers_[c]->check(*lev); !err.empty()) {
        return "chip " + std::to_string(c) + ": " + err;
      }
    }
  }
  return "";
}

std::vector<double> RefArrayWear::mean_erases() const {
  std::vector<double> means(chip_count_);
  for (std::uint32_t c = 0; c < chip_count_; ++c) {
    means[c] = static_cast<double>(erases_[c]) / static_cast<double>(blocks_per_chip_);
  }
  return means;
}

namespace {

void fingerprint_result(Fnv1a& hash, const sim::SimResult& r) {
  hash.u64(r.records_processed);
  hash.u64(r.counters.host_writes);
  hash.u64(r.counters.host_reads);
  hash.u64(r.counters.gc_erases);
  hash.u64(r.counters.swl_erases);
  hash.u64(r.counters.gc_live_copies);
  hash.u64(r.counters.swl_live_copies);
  hash.u64(r.chip_counters.programs);
  hash.u64(r.chip_counters.erases);
  hash.u64(r.leveler_stats.collections_requested);
  hash.u64(r.leveler_stats.bet_resets);
  for (const std::uint32_t c : r.erase_counts) hash.u64(c);
}

}  // namespace

ArrayCheckResult run_array_check(std::uint64_t seed, std::uint32_t jobs) {
  // Small, seed-varied array experiment: tight budgets keep one check in the
  // tens of milliseconds so smoke runs cover many seeds.
  const std::uint64_t r0 = sim::shard_seed(seed, 0);
  const std::uint64_t r1 = sim::shard_seed(seed, 1);
  sim::ArrayScale scale;
  scale.chip.block_count = 32 + 16 * static_cast<BlockIndex>(r0 % 2);
  scale.chip.endurance = 60 + static_cast<std::uint32_t>(r0 % 40);
  scale.chip.base_trace_days = 0.05;
  scale.chip.seed = seed;
  scale.channels = 2;
  scale.dies = 1 + static_cast<std::uint32_t>(r0 % 2);
  scale.coordinator.threshold = 1.02 + 0.04 * static_cast<double>(r1 % 5);
  scale.coordinator.min_mean_erases = 1.0;
  scale.coordinator.cooldown_rounds = static_cast<std::uint32_t>(r1 % 3);
  scale.records_per_round = 2048;
  const auto layer = (r1 % 2 == 0) ? sim::LayerKind::ftl : sim::LayerKind::nftl;
  wear::LevelerConfig leveler;
  leveler.k = static_cast<std::uint32_t>(r0 % 2);
  leveler.threshold = 4.0 + static_cast<double>(r1 % 6);
  leveler.rng_seed = sim::shard_seed(seed, 2);

  const std::uint64_t total_records = 16 * scale.records_per_round;
  const trace::Trace base = sim::make_array_base_trace(scale, layer);
  runner::SweepRunner runner(jobs);

  array::ChipArray arr(sim::make_array_config(scale, layer, leveler));
  array::GlobalLevelCoordinator coordinator(arr.chip_count(), scale.coordinator);
  RefArrayWear oracle(arr, scale.coordinator, leveler);
  oracle.attach(arr);

  trace::SegmentReplaySource source(base, scale.chip.segment_minutes * 60.0,
                                    scale.chip.seed ^ 0x1234);
  std::vector<trace::TraceRecord> buffer(scale.records_per_round);

  ArrayCheckResult out;
  std::uint64_t routed = 0;
  while (routed < total_records) {
    const std::size_t n = source.next_batch(buffer.data(), buffer.size());
    if (n == 0) break;
    arr.replay_round({buffer.data(), n}, runner, scale.chip.max_years, /*use_serial=*/false);
    routed += n;
    ++out.rounds;
    const array::Decision expected = oracle.expected_decision();
    const array::Decision actual = coordinator.evaluate_round(arr);
    if (std::string err = oracle.on_decision(expected, actual); !err.empty()) {
      out.passed = false;
      out.message = err;
      break;
    }
    if (std::string err = oracle.check(arr); !err.empty()) {
      out.passed = false;
      out.message = "round " + std::to_string(out.rounds - 1) + ": " + err;
      break;
    }
  }

  Fnv1a hash;
  for (std::uint32_t c = 0; c < arr.chip_count(); ++c) {
    fingerprint_result(hash, arr.chip_result(c));
  }
  for (const array::Decision& d : coordinator.log()) {
    hash.u64(d.round);
    hash.u64(static_cast<std::uint64_t>(d.migrate));
    hash.u64((static_cast<std::uint64_t>(d.from_chip) << 32) | d.to_chip);
  }
  out.fingerprint = hash.value();
  out.migrations = coordinator.stats().migrations;
  oracle.detach(arr);
  return out;
}

}  // namespace swl::model
