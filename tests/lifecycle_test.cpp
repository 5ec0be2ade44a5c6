// Lifecycle conformance suite for src/serve/lifecycle: proves that under
// sustained load no request is dropped, scored by a torn model, or blows
// its deadline because of a hot-swap — and that the golden-band and
// probation rollbacks fire when they should. Deterministic scenarios run
// on a fake clock in pump mode; the concurrency scenarios run with real
// worker threads and are exercised under TSan in CI.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/trainer.h"
#include "obs/clock.h"
#include "serve/lifecycle.h"
#include "serve/registry.h"
#include "serve/service.h"

namespace adamel::serve {
namespace {

data::Record MakeRecord(std::vector<std::string> values) {
  data::Record record;
  record.id = "r";
  record.source = "s";
  record.values = std::move(values);
  return record;
}

data::LabeledPair MakePair(std::vector<std::string> left,
                           std::vector<std::string> right, int label) {
  data::LabeledPair pair;
  pair.left = MakeRecord(std::move(left));
  pair.right = MakeRecord(std::move(right));
  pair.label = label;
  return pair;
}

// Pairs match iff the "key" attribute shares its token.
data::PairDataset ToyDataset(int n, uint64_t seed) {
  Rng rng(seed);
  data::PairDataset dataset(data::Schema({"key", "noise"}));
  for (int i = 0; i < n; ++i) {
    const bool match = rng.Bernoulli(0.5);
    const std::string key = "key" + std::to_string(rng.UniformInt(50));
    const std::string other =
        match ? key : "key" + std::to_string(rng.UniformInt(50) + 50);
    dataset.Add(MakePair({key, "blah" + std::to_string(rng.UniformInt(9))},
                         {other, "blub" + std::to_string(rng.UniformInt(9))},
                         match ? data::kMatch : data::kNonMatch));
  }
  return dataset;
}

// Same generator with the labels flipped: a model trained on this scores
// roughly inverted relative to a healthy one — far outside any sane
// golden band. Stands in for a corrupted / mis-trained candidate.
data::PairDataset InvertedToyDataset(int n, uint64_t seed) {
  Rng rng(seed);
  data::PairDataset dataset(data::Schema({"key", "noise"}));
  for (int i = 0; i < n; ++i) {
    const bool match = rng.Bernoulli(0.5);
    const std::string key = "key" + std::to_string(rng.UniformInt(50));
    const std::string other =
        match ? key : "key" + std::to_string(rng.UniformInt(50) + 50);
    dataset.Add(MakePair({key, "blah" + std::to_string(rng.UniformInt(9))},
                         {other, "blub" + std::to_string(rng.UniformInt(9))},
                         match ? data::kNonMatch : data::kMatch));
  }
  return dataset;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

core::AdamelConfig FastConfig() {
  core::AdamelConfig config;
  config.epochs = 2;
  return config;
}

std::unique_ptr<core::AdamelLinkage> TrainToyLinkage(uint64_t seed) {
  const data::PairDataset train = ToyDataset(60, seed);
  core::MelInputs inputs;
  inputs.source_train = &train;
  auto model = std::make_unique<core::AdamelLinkage>(
      core::AdamelVariant::kBase, FastConfig());
  const Status fitted = model->Fit(inputs);
  ADAMEL_CHECK(fitted.ok()) << fitted.ToString();
  return model;
}

// Trains on the label-inverted task, long enough to commit to the wrong
// decision boundary: the resulting scores disagree strongly with any
// healthy model's.
std::unique_ptr<core::AdamelLinkage> TrainCorruptedLinkage(uint64_t seed) {
  const data::PairDataset train = InvertedToyDataset(120, seed);
  core::MelInputs inputs;
  inputs.source_train = &train;
  core::AdamelConfig config;
  config.epochs = 12;
  auto model = std::make_unique<core::AdamelLinkage>(
      core::AdamelVariant::kBase, config);
  const Status fitted = model->Fit(inputs);
  ADAMEL_CHECK(fitted.ok()) << fitted.ToString();
  return model;
}

// A candidate with bitwise-identical scores to `donor`: the donor's
// checkpoint loaded into a fresh AdamelLinkage. This is the healthy-
// upgrade stand-in — mean |score delta| is exactly 0, well inside the band.
std::shared_ptr<const core::EntityLinkageModel> CheckpointCopy(
    const core::AdamelLinkage& donor, const std::string& name) {
  const std::string path = TempPath(name);
  ADAMEL_CHECK(donor.SaveCheckpoint(path).ok());
  auto copy = std::make_unique<core::AdamelLinkage>(
      core::AdamelVariant::kBase, FastConfig());
  ADAMEL_CHECK(copy->LoadCheckpoint(path).ok());
  return copy;
}

ServiceOptions PumpServiceOptions() {
  ServiceOptions options;
  options.batcher.worker_threads = 0;
  return options;
}

ScoreRequest MakeScoreRequest(const data::PairDataset& pairs,
                              int64_t deadline_ns = 0) {
  ScoreRequest request;
  request.model = "adamel";
  request.pairs = pairs;
  request.deadline_ns = deadline_ns;
  return request;
}

// Drains queue and lifecycle together until both are quiet, the pump-mode
// analogue of "wait for the system to settle".
void PumpUntilQuiet(LinkageService* service, LifecycleManager* lifecycle) {
  lifecycle->Tick();
  while (service->queued_pairs() > 0 || lifecycle->pending_shadows() > 0) {
    service->PumpOnce();
    lifecycle->Tick();
  }
}

// ------------------------------------------------------- hot-swap under load

// Three full promote cycles under sustained traffic, all on the fake
// clock. Every client request resolves OK (zero drops), scores are
// bitwise the offline reference of the version that served it (zero torn
// models), and no deadline ever fires (the fake clock only advances when
// the test says so, and a swap must not manufacture misses).
TEST(LifecycleTest, HotSwapsUnderLoadNoDropsNoTearsNoMisses) {
  obs::ScopedFakeClock clock;
  std::shared_ptr<const core::AdamelLinkage> incumbent = TrainToyLinkage(40);
  const data::PairDataset test = ToyDataset(12, 41);
  const std::vector<float> offline = incumbent->ScorePairs(test).value();

  LinkageService service(PumpServiceOptions());
  ASSERT_TRUE(service.registry().Register("adamel", 1, incumbent).ok());

  LifecycleOptions lopts;
  lopts.model_name = "adamel";
  lopts.shadow_fraction = 1.0;
  lopts.min_shadow_requests = 2;
  lopts.probation_requests = 2;
  LifecycleManager lifecycle(&service, lopts);

  std::vector<std::pair<std::future<ScoreResponse>, int>> responses;
  const auto drive = [&](int requests) {
    for (int i = 0; i < requests; ++i) {
      // Generous absolute deadline; the clock advances only in Advance().
      responses.emplace_back(
          lifecycle.SubmitShadowed(
              MakeScoreRequest(test, obs::NowNanos() + 1'000'000'000)),
          lifecycle.stats().incumbent_version);
      clock.Advance(1'000);
      while (service.queued_pairs() > 0) {
        service.PumpOnce();
      }
      lifecycle.Tick();
    }
  };

  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_TRUE(lifecycle
                    .StageCandidate(CheckpointCopy(
                        *incumbent,
                        "lifecycle_swap_" + std::to_string(cycle) + ".ckpt"))
                    .ok());
    // Shadow phase: enough mirrored traffic to render the verdict, then
    // probation traffic to confirm it.
    drive(3);
    EXPECT_EQ(lifecycle.stats().state, LifecycleState::kProbation)
        << "cycle " << cycle;
    drive(3);
    EXPECT_EQ(lifecycle.stats().state, LifecycleState::kIdle)
        << "cycle " << cycle;
  }
  PumpUntilQuiet(&service, &lifecycle);

  const LifecycleStats stats = lifecycle.stats();
  EXPECT_EQ(stats.promotions, 3);
  EXPECT_EQ(stats.swaps, 3);
  EXPECT_EQ(stats.rollbacks, 0);
  EXPECT_EQ(stats.incumbent_version, 4);  // v1 + three promotions
  EXPECT_EQ(stats.shadow_errors, 0);
  EXPECT_DOUBLE_EQ(stats.mean_abs_delta, 0.0);  // checkpoint copies

  // Zero drops, zero torn models, zero deadline misses.
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_EQ(responses[i].first.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "request " << i << " was dropped";
    const ScoreResponse response = responses[i].first.get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    // All versions are checkpoint copies of v1, so every version's offline
    // reference is the same vector; bitwise equality proves the batch was
    // scored by a fully-published model, not a torn one.
    EXPECT_EQ(response.scores, offline) << "request " << i;
    EXPECT_GE(response.served_version, responses[i].second)
        << "request " << i << " served by a version older than the "
        << "incumbent at submission";
  }
  const BatcherStats served = service.stats();
  EXPECT_EQ(served.timed_out, 0);
  EXPECT_EQ(served.rejected, 0);
  EXPECT_EQ(served.failed, 0);
}

// The version id is part of the coalescing key: the same model object
// registered under two versions never shares a batch, which is exactly
// what keeps pre-swap and post-swap requests apart during a hot-swap.
TEST(LifecycleTest, SameModelDifferentVersionsNeverShareABatch) {
  std::shared_ptr<const core::AdamelLinkage> model = TrainToyLinkage(42);
  const data::PairDataset test = ToyDataset(8, 43);
  const std::vector<float> offline = model->ScorePairs(test).value();

  ServiceOptions options = PumpServiceOptions();
  options.batcher.max_batch_pairs = 64;  // both requests would fit in one
  LinkageService service(options);
  ASSERT_TRUE(service.registry().Register("adamel", 1, model).ok());
  const StatusOr<int> republished =
      service.registry().Publish("adamel", model);
  ASSERT_TRUE(republished.ok());
  EXPECT_EQ(republished.value(), 2);

  ScoreRequest pinned_v1 = MakeScoreRequest(test);
  pinned_v1.version = 1;
  ScoreRequest latest = MakeScoreRequest(test);  // resolves to v2
  std::future<ScoreResponse> f1 = service.SubmitAsync(std::move(pinned_v1));
  std::future<ScoreResponse> f2 = service.SubmitAsync(std::move(latest));
  while (service.PumpOnce() > 0) {
  }

  // Same model pointer, same mode, same schema — but different pinned
  // versions, so two batches.
  EXPECT_EQ(service.stats().batches, 2);
  EXPECT_EQ(service.stats().coalesced_requests, 0);
  const ScoreResponse r1 = f1.get();
  const ScoreResponse r2 = f2.get();
  EXPECT_EQ(r1.served_version, 1);
  EXPECT_EQ(r2.served_version, 2);
  EXPECT_EQ(r1.scores, offline);
  EXPECT_EQ(r2.scores, offline);
}

// Rapid-fire promote cycles: the state machine survives a swap storm
// without wedging, leaking pending shadows, or dropping traffic.
TEST(LifecycleTest, SwapStormPromotesEveryCycle) {
  obs::ScopedFakeClock clock;
  std::shared_ptr<const core::AdamelLinkage> incumbent = TrainToyLinkage(44);
  const data::PairDataset test = ToyDataset(6, 45);
  const std::vector<float> offline = incumbent->ScorePairs(test).value();

  LinkageService service(PumpServiceOptions());
  ASSERT_TRUE(service.registry().Register("adamel", 1, incumbent).ok());

  LifecycleOptions lopts;
  lopts.model_name = "adamel";
  lopts.shadow_fraction = 1.0;
  lopts.min_shadow_requests = 1;
  lopts.probation_requests = 1;
  LifecycleManager lifecycle(&service, lopts);

  constexpr int kCycles = 8;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    ASSERT_TRUE(lifecycle
                    .StageCandidate(CheckpointCopy(
                        *incumbent,
                        "lifecycle_storm_" + std::to_string(cycle) + ".ckpt"))
                    .ok());
    // One request renders the verdict, the next clears probation.
    for (int step = 0; step < 2; ++step) {
      std::future<ScoreResponse> response =
          lifecycle.SubmitShadowed(MakeScoreRequest(test));
      while (service.queued_pairs() > 0) {
        service.PumpOnce();
      }
      lifecycle.Tick();
      EXPECT_EQ(response.get().scores, offline);
    }
    ASSERT_EQ(lifecycle.stats().state, LifecycleState::kIdle)
        << "cycle " << cycle << " wedged";
  }
  PumpUntilQuiet(&service, &lifecycle);

  const LifecycleStats stats = lifecycle.stats();
  EXPECT_EQ(stats.promotions, kCycles);
  EXPECT_EQ(stats.rollbacks, 0);
  EXPECT_EQ(stats.incumbent_version, 1 + kCycles);
  EXPECT_EQ(lifecycle.pending_shadows(), 0);
  EXPECT_EQ(service.stats().timed_out, 0);
  EXPECT_EQ(service.stats().failed, 0);
}

// ------------------------------------------------------------- rollbacks

// A candidate whose scores diverge from the incumbent past the golden
// band must never reach the registry: verdict = auto-rollback, clients
// keep getting incumbent scores throughout.
TEST(LifecycleTest, AutoRollbackOnGoldenBandViolation) {
  obs::ScopedFakeClock clock;
  std::shared_ptr<const core::AdamelLinkage> incumbent = TrainToyLinkage(46);
  // Different seed => different weights => per-pair scores far apart
  // relative to a 0.02 band.
  std::shared_ptr<const core::AdamelLinkage> diverged =
      TrainCorruptedLinkage(47);
  const data::PairDataset test = ToyDataset(10, 48);
  const std::vector<float> offline = incumbent->ScorePairs(test).value();

  LinkageService service(PumpServiceOptions());
  ASSERT_TRUE(service.registry().Register("adamel", 1, incumbent).ok());

  LifecycleOptions lopts;
  lopts.model_name = "adamel";
  lopts.shadow_fraction = 1.0;
  lopts.min_shadow_requests = 2;
  LifecycleManager lifecycle(&service, lopts);
  ASSERT_TRUE(lifecycle.StageCandidate(diverged).ok());

  std::vector<std::future<ScoreResponse>> responses;
  for (int i = 0; i < 3; ++i) {
    responses.push_back(lifecycle.SubmitShadowed(MakeScoreRequest(test)));
    while (service.queued_pairs() > 0) {
      service.PumpOnce();
    }
    lifecycle.Tick();
  }
  PumpUntilQuiet(&service, &lifecycle);

  const LifecycleStats stats = lifecycle.stats();
  EXPECT_EQ(stats.state, LifecycleState::kRolledBack);
  EXPECT_EQ(stats.rollbacks, 1);
  EXPECT_EQ(stats.promotions, 0);
  EXPECT_EQ(stats.swaps, 0);  // the candidate was never published
  EXPECT_GT(stats.mean_abs_delta, lopts.max_mean_abs_delta);
  EXPECT_NE(stats.last_error.find("exceeds band"), std::string::npos)
      << stats.last_error;

  // The registry still serves the incumbent as the latest version.
  const StatusOr<ResolvedModel> resolved =
      service.registry().Resolve("adamel");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved.value().model.get(), incumbent.get());
  EXPECT_EQ(resolved.value().version, 1);
  for (std::future<ScoreResponse>& response : responses) {
    EXPECT_EQ(response.get().scores, offline);
  }
}

// The band itself is the rollback threshold: a candidate whose mean
// |score delta| is twice `max_mean_abs_delta` (inside any looser multiple
// of the band) is rolled back, never promoted.
TEST(LifecycleTest, RollsBackAtTwiceTheGoldenBand) {
  obs::ScopedFakeClock clock;
  std::shared_ptr<const core::AdamelLinkage> incumbent = TrainToyLinkage(52);
  std::shared_ptr<const core::AdamelLinkage> candidate = TrainToyLinkage(53);
  const data::PairDataset test = ToyDataset(10, 54);
  const std::vector<float> before = incumbent->ScorePairs(test).value();
  const std::vector<float> after = candidate->ScorePairs(test).value();
  double sum = 0.0;
  for (size_t i = 0; i < before.size(); ++i) {
    sum += std::abs(static_cast<double>(after[i]) -
                    static_cast<double>(before[i]));
  }
  const double mean = sum / static_cast<double>(before.size());
  ASSERT_GT(mean, 0.0) << "the two seeds trained identical models";

  LinkageService service(PumpServiceOptions());
  ASSERT_TRUE(service.registry().Register("adamel", 1, incumbent).ok());

  LifecycleOptions lopts;
  lopts.model_name = "adamel";
  lopts.shadow_fraction = 1.0;
  lopts.min_shadow_requests = 2;
  lopts.max_mean_abs_delta = mean / 2.0;
  LifecycleManager lifecycle(&service, lopts);
  ASSERT_TRUE(lifecycle.StageCandidate(candidate).ok());
  std::vector<std::future<ScoreResponse>> responses;
  for (int i = 0; i < 3; ++i) {
    responses.push_back(lifecycle.SubmitShadowed(MakeScoreRequest(test)));
    while (service.queued_pairs() > 0) {
      service.PumpOnce();
    }
    lifecycle.Tick();
  }
  PumpUntilQuiet(&service, &lifecycle);

  const LifecycleStats stats = lifecycle.stats();
  EXPECT_EQ(stats.state, LifecycleState::kRolledBack);
  EXPECT_EQ(stats.rollbacks, 1);
  EXPECT_EQ(stats.promotions, 0);
  EXPECT_GT(stats.mean_abs_delta, lopts.max_mean_abs_delta);
  EXPECT_LT(stats.mean_abs_delta, 5.0 * lopts.max_mean_abs_delta);
  for (std::future<ScoreResponse>& response : responses) {
    EXPECT_EQ(response.get().scores, before);
  }
}

// Rollback with mirrors still in flight: the pending shadows drain
// cleanly (no wedge, no leak), and the manager accepts the next candidate
// from kRolledBack.
TEST(LifecycleTest, RollbackMidShadowDrainsCleanlyAndRecovers) {
  obs::ScopedFakeClock clock;
  std::shared_ptr<const core::AdamelLinkage> incumbent = TrainToyLinkage(49);
  std::shared_ptr<const core::AdamelLinkage> diverged =
      TrainCorruptedLinkage(50);
  const data::PairDataset test = ToyDataset(6, 51);

  LinkageService service(PumpServiceOptions());
  ASSERT_TRUE(service.registry().Register("adamel", 1, incumbent).ok());

  LifecycleOptions lopts;
  lopts.model_name = "adamel";
  lopts.shadow_fraction = 1.0;
  lopts.min_shadow_requests = 2;
  lopts.probation_requests = 1;
  LifecycleManager lifecycle(&service, lopts);
  ASSERT_TRUE(lifecycle.StageCandidate(diverged).ok());

  // Queue four mirrored requests WITHOUT pumping: all shadows in flight.
  std::vector<std::future<ScoreResponse>> responses;
  for (int i = 0; i < 4; ++i) {
    responses.push_back(lifecycle.SubmitShadowed(MakeScoreRequest(test)));
  }
  EXPECT_EQ(lifecycle.pending_shadows(), 4);

  // Pump enough for the first two comparisons, render the rollback while
  // the last two mirrors are still pending.
  while (lifecycle.stats().state == LifecycleState::kShadowing) {
    service.PumpOnce();
    lifecycle.Tick();
  }
  EXPECT_EQ(lifecycle.stats().state, LifecycleState::kRolledBack);

  // The stale mirrors drain without wedging the manager.
  PumpUntilQuiet(&service, &lifecycle);
  EXPECT_EQ(lifecycle.pending_shadows(), 0);
  for (std::future<ScoreResponse>& response : responses) {
    EXPECT_TRUE(response.get().status.ok());
  }

  // kRolledBack accepts the next (healthy) candidate and promotes it.
  ASSERT_TRUE(lifecycle
                  .StageCandidate(CheckpointCopy(
                      *incumbent, "lifecycle_recover.ckpt"))
                  .ok());
  for (int i = 0; i < 4; ++i) {
    responses.push_back(lifecycle.SubmitShadowed(MakeScoreRequest(test)));
    while (service.queued_pairs() > 0) {
      service.PumpOnce();
    }
    lifecycle.Tick();
  }
  PumpUntilQuiet(&service, &lifecycle);
  EXPECT_EQ(lifecycle.stats().promotions, 1);
  EXPECT_EQ(lifecycle.stats().state, LifecycleState::kIdle);
}

// Promotion followed by a deadline-miss-rate regression during probation:
// the incumbent is re-published (swap back) and the lifecycle lands in
// kRolledBack.
TEST(LifecycleTest, MissRateRegressionDuringProbationRollsBack) {
  obs::ScopedFakeClock clock;
  std::shared_ptr<const core::AdamelLinkage> incumbent = TrainToyLinkage(52);
  const data::PairDataset test = ToyDataset(6, 53);

  LinkageService service(PumpServiceOptions());
  ASSERT_TRUE(service.registry().Register("adamel", 1, incumbent).ok());

  LifecycleOptions lopts;
  lopts.model_name = "adamel";
  lopts.shadow_fraction = 1.0;
  lopts.min_shadow_requests = 1;
  lopts.probation_requests = 4;
  lopts.max_miss_rate_regression = 0.25;
  LifecycleManager lifecycle(&service, lopts);
  ASSERT_TRUE(lifecycle
                  .StageCandidate(
                      CheckpointCopy(*incumbent, "lifecycle_miss.ckpt"))
                  .ok());

  // Clean traffic to promote.
  std::future<ScoreResponse> good =
      lifecycle.SubmitShadowed(MakeScoreRequest(test));
  while (service.queued_pairs() > 0) {
    service.PumpOnce();
  }
  lifecycle.Tick();
  ASSERT_EQ(lifecycle.stats().state, LifecycleState::kProbation);
  const int promoted_version = 2;

  // Probation traffic that all expires in the queue: submit with a tight
  // deadline, advance the fake clock past it, then pump.
  for (int i = 0; i < lopts.probation_requests; ++i) {
    std::future<ScoreResponse> missed = lifecycle.SubmitShadowed(
        MakeScoreRequest(test, obs::NowNanos() + 1'000));
    clock.Advance(2'000);  // expires in queue
    while (service.queued_pairs() > 0) {
      service.PumpOnce();
    }
    EXPECT_EQ(missed.get().status.code(), StatusCode::kDeadlineExceeded);
    lifecycle.Tick();
  }
  PumpUntilQuiet(&service, &lifecycle);

  const LifecycleStats stats = lifecycle.stats();
  EXPECT_EQ(stats.state, LifecycleState::kRolledBack);
  EXPECT_EQ(stats.promotions, 1);
  EXPECT_EQ(stats.rollbacks, 1);
  EXPECT_EQ(stats.swaps, 2);  // promote + revert
  // The re-published incumbent is the newest version and newer than the
  // regressed candidate; new traffic resolves to the incumbent object.
  const StatusOr<ResolvedModel> resolved =
      service.registry().Resolve("adamel");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved.value().model.get(), incumbent.get());
  EXPECT_GT(resolved.value().version, promoted_version);
  EXPECT_EQ(stats.incumbent_version, resolved.value().version);
  EXPECT_TRUE(good.get().status.ok());
}

// The probation allowance is exact: with `max_miss_rate_regression` 0.25
// over a 4-request window (baseline rate 0), one expired request (rate
// 0.25) is within the allowance and promotes; two (rate 0.5) roll back.
// The all-expired scenario above cannot tell the allowance from twice it.
TEST(LifecycleTest, RollsBackJustPastTheMissRateAllowance) {
  obs::ScopedFakeClock clock;
  std::shared_ptr<const core::AdamelLinkage> incumbent = TrainToyLinkage(54);
  const data::PairDataset test = ToyDataset(6, 55);

  const auto run_probation = [&](int expired) {
    LinkageService service(PumpServiceOptions());
    EXPECT_TRUE(service.registry().Register("adamel", 1, incumbent).ok());
    LifecycleOptions lopts;
    lopts.model_name = "adamel";
    lopts.shadow_fraction = 1.0;
    lopts.min_shadow_requests = 1;
    lopts.probation_requests = 4;
    lopts.max_miss_rate_regression = 0.25;
    LifecycleManager lifecycle(&service, lopts);
    EXPECT_TRUE(lifecycle
                    .StageCandidate(CheckpointCopy(
                        *incumbent, "lifecycle_allowance_" +
                                        std::to_string(expired) + ".ckpt"))
                    .ok());

    // Clean traffic to promote.
    std::future<ScoreResponse> good =
        lifecycle.SubmitShadowed(MakeScoreRequest(test));
    while (service.queued_pairs() > 0) {
      service.PumpOnce();
    }
    lifecycle.Tick();
    EXPECT_EQ(lifecycle.stats().state, LifecycleState::kProbation);
    EXPECT_TRUE(good.get().status.ok());

    // The probation window: `expired` requests expire in the queue, the
    // rest are scored.
    for (int i = 0; i < lopts.probation_requests; ++i) {
      const bool expires = i < expired;
      std::future<ScoreResponse> response = lifecycle.SubmitShadowed(
          MakeScoreRequest(test, expires ? obs::NowNanos() + 1'000 : 0));
      if (expires) {
        clock.Advance(2'000);
      }
      while (service.queued_pairs() > 0) {
        service.PumpOnce();
      }
      EXPECT_EQ(response.get().status.code(),
                expires ? StatusCode::kDeadlineExceeded : StatusCode::kOk);
      lifecycle.Tick();
    }
    PumpUntilQuiet(&service, &lifecycle);
    return lifecycle.stats();
  };

  const LifecycleStats within = run_probation(/*expired=*/1);
  EXPECT_EQ(within.state, LifecycleState::kIdle) << within.last_error;
  EXPECT_EQ(within.promotions, 1);
  EXPECT_EQ(within.rollbacks, 0);

  const LifecycleStats past = run_probation(/*expired=*/2);
  EXPECT_EQ(past.state, LifecycleState::kRolledBack);
  EXPECT_EQ(past.promotions, 1);
  EXPECT_EQ(past.rollbacks, 1);
}

// ------------------------------------------------------------ fine-tuning

core::FitCheckpointOptions FineTuneFit(const std::string& state_name,
                                       const std::string& warm_start) {
  core::FitCheckpointOptions fit;
  fit.path = TempPath(state_name);
  // A stale train state from a previous test-binary run would silently
  // resume instead of warm-starting; make each run hermetic.
  std::remove(fit.path.c_str());
  fit.resume = true;
  fit.warm_start_path = warm_start;
  return fit;
}

// An interrupted fine-tune (simulated via max_epochs_this_run) leaves the
// train-state checkpoint intact; re-running the same spec resumes and the
// result is bitwise identical to an uninterrupted warm-start fine-tune.
TEST(LifecycleTest, InterruptedFineTuneResumesBitwiseFromCheckpoint) {
  obs::ScopedFakeClock clock;
  std::unique_ptr<core::AdamelLinkage> incumbent_train = TrainToyLinkage(54);
  const std::string donor_path = TempPath("lifecycle_donor.ckpt");
  ASSERT_TRUE(incumbent_train->SaveCheckpoint(donor_path).ok());
  std::shared_ptr<const core::AdamelLinkage> incumbent =
      std::move(incumbent_train);

  const data::PairDataset new_source = ToyDataset(60, 55);
  const data::PairDataset test = ToyDataset(10, 56);
  core::MelInputs inputs;
  inputs.source_train = &new_source;

  LinkageService service(PumpServiceOptions());
  ASSERT_TRUE(service.registry().Register("adamel", 1, incumbent).ok());

  LifecycleOptions lopts;
  lopts.model_name = "adamel";
  LifecycleManager lifecycle(&service, lopts);

  FineTuneSpec spec;
  spec.config = FastConfig();
  spec.inputs = &inputs;
  spec.fit = FineTuneFit("lifecycle_ft_state.ckpt", donor_path);
  spec.candidate_model_path = TempPath("lifecycle_ft_cand.ckpt");

  // "Crash" after one of two epochs.
  spec.fit.max_epochs_this_run = 1;
  ASSERT_TRUE(lifecycle.BeginFineTune(spec, /*synchronous=*/true).ok());
  LifecycleStats stats = lifecycle.stats();
  EXPECT_EQ(stats.state, LifecycleState::kIdle);
  EXPECT_EQ(stats.fine_tunes_interrupted, 1);

  // Resume to completion: the candidate is staged for shadowing.
  spec.fit.max_epochs_this_run = 0;
  ASSERT_TRUE(lifecycle.BeginFineTune(spec, /*synchronous=*/true).ok());
  stats = lifecycle.stats();
  EXPECT_EQ(stats.state, LifecycleState::kShadowing);
  EXPECT_EQ(stats.fine_tunes, 2);
  EXPECT_TRUE(stats.last_error.empty()) << stats.last_error;

  // Reference: the same warm-start fine-tune run uninterrupted.
  core::AdamelTrainer trainer(spec.config);
  core::FitCheckpointOptions reference_fit =
      FineTuneFit("lifecycle_ft_ref_state.ckpt", donor_path);
  const StatusOr<std::shared_ptr<core::TrainedAdamel>> reference =
      trainer.FitWithCheckpoint(core::AdamelVariant::kBase, inputs,
                                reference_fit);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  // The staged candidate is served from its saved checkpoint; compare it
  // against the reference bitwise via the checkpoint path.
  core::AdamelLinkage staged(core::AdamelVariant::kBase, spec.config);
  ASSERT_TRUE(staged.LoadCheckpoint(spec.candidate_model_path).ok());
  EXPECT_EQ(staged.ScorePairs(test).value(),
            (*reference)->ScorePairs(data::PairSpan(test)));
}

// A background (asynchronous) fine-tune produces a servable candidate that
// shadows and promotes — the full "new source arrives live" path.
TEST(LifecycleTest, BackgroundFineTunePromotesUnderLiveTraffic) {
  std::unique_ptr<core::AdamelLinkage> incumbent_train = TrainToyLinkage(57);
  const std::string donor_path = TempPath("lifecycle_bg_donor.ckpt");
  ASSERT_TRUE(incumbent_train->SaveCheckpoint(donor_path).ok());
  std::shared_ptr<const core::AdamelLinkage> incumbent =
      std::move(incumbent_train);

  // The "new source": the same distribution (so the fine-tuned candidate
  // stays inside the golden band) with fresh draws.
  const data::PairDataset new_source = ToyDataset(60, 57);
  const data::PairDataset test = ToyDataset(8, 58);
  core::MelInputs inputs;
  inputs.source_train = &new_source;

  LinkageService service(PumpServiceOptions());
  ASSERT_TRUE(service.registry().Register("adamel", 1, incumbent).ok());

  LifecycleOptions lopts;
  lopts.model_name = "adamel";
  lopts.shadow_fraction = 1.0;
  lopts.min_shadow_requests = 2;
  lopts.probation_requests = 2;
  // Fine-tuning from the incumbent's weights on same-distribution data
  // moves scores a little; keep the band wide enough for a healthy
  // candidate while still far below the ~0.3+ deltas of a wrong model.
  lopts.max_mean_abs_delta = 0.15;
  LifecycleManager lifecycle(&service, lopts);

  FineTuneSpec spec;
  spec.config = FastConfig();
  spec.inputs = &inputs;
  spec.fit = FineTuneFit("lifecycle_bg_state.ckpt", donor_path);
  spec.candidate_model_path = TempPath("lifecycle_bg_cand.ckpt");
  ASSERT_TRUE(lifecycle.BeginFineTune(spec).ok());
  EXPECT_EQ(lifecycle.stats().state, LifecycleState::kFineTuning);

  // Serve traffic while the fit runs in the background.
  const auto serve_one = [&] {
    std::future<ScoreResponse> response =
        lifecycle.SubmitShadowed(MakeScoreRequest(test));
    while (service.queued_pairs() > 0) {
      service.PumpOnce();
    }
    lifecycle.Tick();
    EXPECT_TRUE(response.get().status.ok());
  };
  while (lifecycle.stats().state == LifecycleState::kFineTuning) {
    serve_one();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(lifecycle.stats().state, LifecycleState::kShadowing)
      << lifecycle.stats().last_error;

  // Shadow, promote, clear probation.
  while (lifecycle.stats().state == LifecycleState::kShadowing ||
         lifecycle.stats().state == LifecycleState::kProbation) {
    serve_one();
  }
  PumpUntilQuiet(&service, &lifecycle);

  const LifecycleStats stats = lifecycle.stats();
  EXPECT_EQ(stats.state, LifecycleState::kIdle) << stats.last_error;
  EXPECT_EQ(stats.promotions, 1);
  EXPECT_EQ(stats.rollbacks, 0);
  EXPECT_EQ(stats.incumbent_version, 2);
  EXPECT_LE(stats.mean_abs_delta, lopts.max_mean_abs_delta);
}

// ------------------------------------------------------------ concurrency

// TSan scenario: client threads hammer SubmitShadowed while the control
// thread runs promote cycles (stage -> verdict -> probation) against a
// worker-thread service. Run under ADAMEL_SANITIZE=thread in CI. Each
// cycle needs client traffic to gather its shadow mirrors and probation
// window, so the clients keep submitting until the control thread is done.
TEST(LifecycleTest, ConcurrentSwapsUnderWorkerThreads) {
  constexpr int kClients = 3;
  constexpr int kMinRequestsPerClient = 20;
  constexpr int kCycles = 3;

  std::shared_ptr<const core::AdamelLinkage> incumbent = TrainToyLinkage(59);
  const data::PairDataset test = ToyDataset(12, 60);
  const std::vector<float> offline = incumbent->ScorePairs(test).value();

  ServiceOptions options;
  options.batcher.worker_threads = 2;
  LinkageService service(options);
  ASSERT_TRUE(service.registry().Register("adamel", 1, incumbent).ok());

  LifecycleOptions lopts;
  lopts.model_name = "adamel";
  lopts.shadow_fraction = 0.5;
  lopts.min_shadow_requests = 2;
  lopts.probation_requests = 4;
  LifecycleManager lifecycle(&service, lopts);

  std::atomic<bool> done{false};
  std::vector<std::thread> clients;
  std::vector<std::vector<ScoreResponse>> responses(kClients);
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([c, &done, &lifecycle, &test, &responses] {
      for (int r = 0; r < kMinRequestsPerClient || !done.load(); ++r) {
        ScoreRequest request;
        request.model = "adamel";
        request.pairs = test;
        responses[c].push_back(
            lifecycle.SubmitShadowed(std::move(request)).get());
      }
    });
  }

  // Control thread: run promote cycles while the clients hammer. The
  // cycles run in a lambda so that a failed assertion still stops and
  // joins the clients below.
  int promoted = 0;
  const auto run_cycles = [&] {
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      const Status staged = lifecycle.StageCandidate(CheckpointCopy(
          *incumbent, "lifecycle_tsan_" + std::to_string(cycle) + ".ckpt"));
      ASSERT_TRUE(staged.ok()) << staged.ToString();
      while (lifecycle.stats().state == LifecycleState::kShadowing ||
             lifecycle.stats().state == LifecycleState::kProbation) {
        lifecycle.Tick();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ASSERT_EQ(lifecycle.stats().state, LifecycleState::kIdle);
      ++promoted;
    }
  };
  run_cycles();
  done.store(true);
  for (std::thread& client : clients) {
    client.join();
  }
  // Drain mirrors left in flight.
  while (lifecycle.pending_shadows() > 0) {
    lifecycle.Tick();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  EXPECT_EQ(promoted, kCycles);
  const LifecycleStats stats = lifecycle.stats();
  EXPECT_EQ(stats.promotions, kCycles);
  EXPECT_EQ(stats.rollbacks, 0);
  EXPECT_EQ(stats.shadow_errors, 0);
  for (int c = 0; c < kClients; ++c) {
    ASSERT_GE(responses[c].size(),
              static_cast<size_t>(kMinRequestsPerClient));
    for (const ScoreResponse& response : responses[c]) {
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      EXPECT_EQ(response.scores, offline);  // all versions share weights
    }
  }
}

// ----------------------------------------------------------- state guards

TEST(LifecycleTest, StageAndFineTuneRejectWrongStates) {
  std::shared_ptr<const core::AdamelLinkage> incumbent = TrainToyLinkage(61);
  std::shared_ptr<const core::AdamelLinkage> other = TrainToyLinkage(62);

  LinkageService service(PumpServiceOptions());
  LifecycleOptions lopts;
  lopts.model_name = "adamel";
  LifecycleManager lifecycle(&service, lopts);

  // Null candidate and missing incumbent are typed errors.
  EXPECT_EQ(lifecycle.StageCandidate(nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(lifecycle.StageCandidate(other).code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(service.registry().Register("adamel", 1, incumbent).ok());
  ASSERT_TRUE(lifecycle.StageCandidate(other).ok());
  // Shadowing: neither a second candidate nor a fine-tune may start.
  EXPECT_EQ(lifecycle.StageCandidate(other).code(),
            StatusCode::kFailedPrecondition);
  FineTuneSpec spec;
  core::MelInputs inputs;
  const data::PairDataset train = ToyDataset(10, 63);
  inputs.source_train = &train;
  spec.inputs = &inputs;
  spec.fit.path = TempPath("lifecycle_guard_state.ckpt");
  spec.candidate_model_path = TempPath("lifecycle_guard_cand.ckpt");
  EXPECT_EQ(lifecycle.BeginFineTune(spec).code(),
            StatusCode::kFailedPrecondition);

  // Spec validation fires before state checks.
  FineTuneSpec incomplete;
  EXPECT_EQ(lifecycle.BeginFineTune(incomplete).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace adamel::serve
