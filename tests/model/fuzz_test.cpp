// Tests for the differential fuzzing harness itself (src/model).
//
// The harness is only trustworthy if (a) it is bit-reproducible from a seed,
// (b) its schedule files round-trip, and (c) it actually has teeth — a
// deliberately injected SWL bug must be caught and minimized to a handful of
// steps. These tests pin all three, so a regression in the harness cannot
// silently turn the nightly fuzz job into a no-op.
#include "model/fuzz.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>

namespace swl::model {
namespace {

TEST(FuzzHarness, SameSeedIsBitReproducible) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    const FuzzSchedule schedule = generate_schedule(seed, std::nullopt);
    const FuzzOutcome first = run_schedule(schedule);
    const FuzzOutcome second = run_schedule(schedule);
    ASSERT_TRUE(first.ok) << "seed " << seed << ": " << first.message;
    ASSERT_TRUE(second.ok) << "seed " << seed << ": " << second.message;
    EXPECT_EQ(first.fingerprint, second.fingerprint) << "seed " << seed;
  }
}

TEST(FuzzHarness, SeedCorpusPassesOnBothLayers) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto layer = seed % 2 == 0 ? sim::LayerKind::ftl : sim::LayerKind::nftl;
    const FuzzSchedule schedule = generate_schedule(seed, layer);
    EXPECT_EQ(schedule.params.layer, layer);
    const FuzzOutcome outcome = run_schedule(schedule);
    EXPECT_TRUE(outcome.ok) << "seed " << seed << " step " << outcome.failing_step << ": "
                            << outcome.message;
  }
}

TEST(FuzzHarness, ScheduleSerializationRoundTrips) {
  for (const std::uint64_t seed : {3ull, 11ull, 29ull}) {
    const FuzzSchedule schedule = generate_schedule(seed, std::nullopt);
    const std::string text = serialize(schedule);
    FuzzSchedule parsed;
    std::string error;
    ASSERT_TRUE(deserialize(text, &parsed, &error)) << error;
    EXPECT_EQ(serialize(parsed), text);
    // The round-tripped schedule replays to the identical end state.
    const FuzzOutcome a = run_schedule(schedule);
    const FuzzOutcome b = run_schedule(parsed);
    ASSERT_TRUE(a.ok) << a.message;
    ASSERT_TRUE(b.ok) << b.message;
    EXPECT_EQ(a.fingerprint, b.fingerprint);
  }
}

TEST(FuzzHarness, DeserializeRejectsGarbage) {
  FuzzSchedule schedule;
  std::string error;
  EXPECT_FALSE(deserialize("", &schedule, &error));
  EXPECT_FALSE(deserialize("not a schedule\n", &schedule, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(deserialize("swl-fuzz-schedule v1\nlayer bogus\nsteps 0\n", &schedule, &error));
}

TEST(FuzzHarness, InjectedBetUpdateSkipIsCaughtAndMinimized) {
  // Drop exactly one SWL-BETUpdate on stack A. The reference model
  // recomputes ecnt/fcnt from the raw erase log, so a single missing update
  // must surface as a divergence on some seed quickly.
  FuzzOptions options;
  options.inject = FuzzOptions::Inject::skip_bet_update;
  std::optional<std::uint64_t> failing_seed;
  FuzzSchedule failing;
  FuzzOutcome failure;
  for (std::uint64_t seed = 1; seed <= 40 && !failing_seed.has_value(); ++seed) {
    FuzzSchedule schedule = generate_schedule(seed, std::nullopt);
    const FuzzOutcome outcome = run_schedule(schedule, options);
    if (!outcome.ok) {
      failing_seed = seed;
      failing = schedule;
      failure = outcome;
    }
  }
  ASSERT_TRUE(failing_seed.has_value())
      << "no seed in 1..40 caught the injected SWL-BETUpdate skip";
  EXPECT_NE(failure.message.find("SWL"), std::string::npos) << failure.message;

  const MinimizeResult min = minimize(failing, options);
  EXPECT_FALSE(min.outcome.ok);
  EXPECT_LE(min.schedule.steps.size(), 32u)
      << "minimizer left " << min.schedule.steps.size() << " steps";
  EXPECT_LE(min.schedule.steps.size(), failing.steps.size());

  // The minimized schedule is a real reproducer: it fails under the
  // injection and passes clean.
  const FuzzOutcome replay = run_schedule(min.schedule, options);
  EXPECT_FALSE(replay.ok);
  const FuzzOutcome clean = run_schedule(min.schedule);
  EXPECT_TRUE(clean.ok) << clean.message;
}

TEST(FuzzHarness, SeedCorpusPassesOnDftl) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const FuzzSchedule schedule = generate_schedule(seed, sim::LayerKind::dftl);
    EXPECT_EQ(schedule.params.layer, sim::LayerKind::dftl);
    const FuzzOutcome outcome = run_schedule(schedule);
    EXPECT_TRUE(outcome.ok) << "seed " << seed << " step " << outcome.failing_step << ": "
                            << outcome.message;
  }
}

TEST(FuzzHarness, DftlScheduleSerializationRoundTrips) {
  // DFTL schedules carry the extra shape keys (dftl_tpage/dftl_cmt/
  // dftl_batch); they must survive the text form and replay identically.
  for (const std::uint64_t seed : {2ull, 9ull, 17ull}) {
    const FuzzSchedule schedule = generate_schedule(seed, sim::LayerKind::dftl);
    const std::string text = serialize(schedule);
    EXPECT_NE(text.find("layer dftl"), std::string::npos);
    FuzzSchedule parsed;
    std::string error;
    ASSERT_TRUE(deserialize(text, &parsed, &error)) << error;
    EXPECT_EQ(serialize(parsed), text);
    EXPECT_EQ(parsed.params.dftl_lbas_per_tpage, schedule.params.dftl_lbas_per_tpage);
    EXPECT_EQ(parsed.params.dftl_cmt_capacity, schedule.params.dftl_cmt_capacity);
    EXPECT_EQ(parsed.params.dftl_writeback_batch, schedule.params.dftl_writeback_batch);
    const FuzzOutcome a = run_schedule(schedule);
    const FuzzOutcome b = run_schedule(parsed);
    ASSERT_TRUE(a.ok) << a.message;
    ASSERT_TRUE(b.ok) << b.message;
    EXPECT_EQ(a.fingerprint, b.fingerprint);
  }
}

TEST(FuzzHarness, InjectedCmtWritebackSkipIsCaughtAndMinimized) {
  // Drop exactly one CMT write-back on stack A. RefDftl re-derives
  // dirty state from the event stream, so the cleared-without-programming
  // dirty flag must surface as a model divergence on some seed quickly.
  FuzzOptions options;
  options.inject = FuzzOptions::Inject::skip_cmt_writeback;
  std::optional<std::uint64_t> failing_seed;
  FuzzSchedule failing;
  FuzzOutcome failure;
  for (std::uint64_t seed = 1; seed <= 40 && !failing_seed.has_value(); ++seed) {
    FuzzSchedule schedule = generate_schedule(seed, sim::LayerKind::dftl);
    const FuzzOutcome outcome = run_schedule(schedule, options);
    if (!outcome.ok) {
      failing_seed = seed;
      failing = schedule;
      failure = outcome;
    }
  }
  ASSERT_TRUE(failing_seed.has_value())
      << "no seed in 1..40 caught the injected CMT write-back skip";
  EXPECT_NE(failure.message.find("DFTL model"), std::string::npos) << failure.message;

  const MinimizeResult min = minimize(failing, options);
  EXPECT_FALSE(min.outcome.ok);
  EXPECT_LE(min.schedule.steps.size(), 32u)
      << "minimizer left " << min.schedule.steps.size() << " steps";
  EXPECT_LE(min.schedule.steps.size(), failing.steps.size());

  // The minimized schedule is a real reproducer: it fails under the
  // injection and passes clean.
  const FuzzOutcome replay = run_schedule(min.schedule, options);
  EXPECT_FALSE(replay.ok);
  const FuzzOutcome clean = run_schedule(min.schedule);
  EXPECT_TRUE(clean.ok) << clean.message;
}

TEST(FuzzHarness, CrashHeavyDftlScheduleStaysInSync) {
  // Crash bursts against DFTL: mount-time translation-page recovery plus the
  // model resync after every remount, under nothing but writes and crashes.
  FuzzSchedule schedule = generate_schedule(6, sim::LayerKind::dftl);
  schedule.steps.clear();
  for (std::uint64_t i = 0; i < 10; ++i) {
    schedule.steps.push_back({StepKind::write_burst, 1100 + i, 50, 100});
    schedule.steps.push_back({StepKind::crash_burst, 2100 + i, 30, 3 * i + 1});
    schedule.steps.push_back({StepKind::power_cycle, 0, 0, 0});
  }
  const FuzzOutcome outcome = run_schedule(schedule);
  EXPECT_TRUE(outcome.ok) << "step " << outcome.failing_step << ": " << outcome.message;
}

TEST(FuzzHarness, CrashHeavyScheduleStaysInSync) {
  // Hand-built schedule: nothing but write bursts and crash bursts, driving
  // the recovery path and the post-crash resync hard.
  FuzzSchedule schedule = generate_schedule(5, sim::LayerKind::ftl);
  schedule.steps.clear();
  for (std::uint64_t i = 0; i < 12; ++i) {
    schedule.steps.push_back({StepKind::write_burst, 1000 + i, 60, 100});
    schedule.steps.push_back({StepKind::crash_burst, 2000 + i, 40, 3 * i + 1});
    schedule.steps.push_back({StepKind::power_cycle, 0, 0, 0});
  }
  const FuzzOutcome outcome = run_schedule(schedule);
  EXPECT_TRUE(outcome.ok) << "step " << outcome.failing_step << ": " << outcome.message;
}

}  // namespace
}  // namespace swl::model
