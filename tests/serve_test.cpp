// Tests for src/serve: the warm model registry (typed checkpoint-error
// contract), the micro-batcher (deadlines, backpressure, coalescing
// determinism), and the end-to-end LinkageService under concurrency.

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/deepmatcher.h"
#include "baselines/tler.h"
#include "common/rng.h"
#include "core/trainer.h"
#include "gallery/gallery.h"
#include "nn/serialize.h"
#include "obs/clock.h"
#include "serve/batcher.h"
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

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

core::AdamelConfig FastConfig() {
  core::AdamelConfig config;
  config.epochs = 2;
  return config;
}

// Trains a small AdaMEL-base linkage model on a toy task.
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

data::PairDataset Slice(const data::PairDataset& dataset, int offset,
                        int count) {
  return data::PairSpan(dataset).Subspan(offset, count).ToDataset();
}

// ---------------------------------------------------------------- registry

TEST(ModelRegistryTest, RegisterGetLatestRemove) {
  ModelRegistry registry;
  EXPECT_EQ(registry.Register("m", 1, nullptr).code(),
            StatusCode::kInvalidArgument);
  std::shared_ptr<const core::EntityLinkageModel> v1 = TrainToyLinkage(1);
  std::shared_ptr<const core::EntityLinkageModel> v2 = TrainToyLinkage(2);
  EXPECT_EQ(registry.Register("m", 0, v1).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(registry.Register("m", 1, v1).ok());
  ASSERT_TRUE(registry.Register("m", 2, v2).ok());
  EXPECT_EQ(registry.Register("m", 2, v2).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.size(), 2);

  ASSERT_TRUE(registry.Get("m", 1).ok());
  EXPECT_EQ(registry.Get("m", 1).value().get(), v1.get());
  // Version 0 resolves to the latest registered version.
  EXPECT_EQ(registry.Get("m").value().get(), v2.get());
  EXPECT_EQ(registry.Get("m", 3).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.Get("other").status().code(), StatusCode::kNotFound);

  const std::vector<ModelInfo> listed = registry.List();
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0].name, "m");
  EXPECT_EQ(listed[0].version, 1);
  EXPECT_EQ(listed[0].model_kind, "AdaMEL-base");

  EXPECT_TRUE(registry.Remove("m", 2));
  EXPECT_FALSE(registry.Remove("m", 2));
  EXPECT_EQ(registry.Get("m").value().get(), v1.get());
}

TEST(ModelRegistryTest, ResolveReportsConcreteVersion) {
  ModelRegistry registry;
  std::shared_ptr<const core::EntityLinkageModel> v1 = TrainToyLinkage(1);
  std::shared_ptr<const core::EntityLinkageModel> v3 = TrainToyLinkage(2);
  ASSERT_TRUE(registry.Register("m", 1, v1).ok());
  ASSERT_TRUE(registry.Register("m", 3, v3).ok());

  // Version 0 resolves to the latest and reports which version that is —
  // the number callers pin requests (and offline references) to.
  StatusOr<ResolvedModel> latest = registry.Resolve("m");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value().model.get(), v3.get());
  EXPECT_EQ(latest.value().version, 3);

  StatusOr<ResolvedModel> pinned = registry.Resolve("m", 1);
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(pinned.value().model.get(), v1.get());
  EXPECT_EQ(pinned.value().version, 1);
  EXPECT_EQ(registry.Resolve("m", 2).status().code(),
            StatusCode::kNotFound);
}

TEST(ModelRegistryTest, PublishAllocatesNextVersionAtomically) {
  ModelRegistry registry;
  std::shared_ptr<const core::EntityLinkageModel> model = TrainToyLinkage(1);
  // First publish on an empty name starts at 1.
  StatusOr<int> first = registry.Publish("m", model);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), 1);
  // Publishing after a sparse Register continues from the highest version.
  ASSERT_TRUE(registry.Register("m", 7, model).ok());
  StatusOr<int> next = registry.Publish("m", model);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value(), 8);
  EXPECT_EQ(registry.Resolve("m").value().version, 8);
  EXPECT_EQ(registry.Publish("m", nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ModelRegistryTest, LatestDoesNotBleedAcrossNames) {
  // "a" has a high version; Get("b", 0) must not pick it up via the
  // upper_bound scan.
  ModelRegistry registry;
  std::shared_ptr<const core::EntityLinkageModel> model = TrainToyLinkage(3);
  ASSERT_TRUE(registry.Register("a", 7, model).ok());
  EXPECT_EQ(registry.Get("b").status().code(), StatusCode::kNotFound);
}

// Regression: a model type without checkpoint support must fail
// kFailedPrecondition — not kDataLoss — even when the file at the path is
// present and corrupt. The roster mistake is diagnosed before the file.
TEST(ModelRegistryTest, UnsupportedModelFailsPreconditionNotDataLoss) {
  const std::string path = TempPath("serve_unsupported.ckpt");
  ASSERT_TRUE(nn::AtomicWriteFile(path, "not a checkpoint").ok());

  ModelRegistry registry;
  ASSERT_FALSE(baselines::DeepMatcherModel().SupportsCheckpointing());
  const Status corrupt_file = registry.LoadFromCheckpoint(
      "dm", 1, std::make_unique<baselines::DeepMatcherModel>(), path);
  EXPECT_EQ(corrupt_file.code(), StatusCode::kFailedPrecondition);

  const Status missing_file = registry.LoadFromCheckpoint(
      "dm", 1, std::make_unique<baselines::DeepMatcherModel>(),
      TempPath("serve_does_not_exist.ckpt"));
  EXPECT_EQ(missing_file.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry.size(), 0);
}

TEST(ModelRegistryTest, MissingCheckpointFileIsNotFound) {
  ModelRegistry registry;
  const Status loaded = registry.LoadFromCheckpoint(
      "adamel", 1,
      std::make_unique<core::AdamelLinkage>(core::AdamelVariant::kBase,
                                            FastConfig()),
      TempPath("serve_missing.ckpt"));
  EXPECT_EQ(loaded.code(), StatusCode::kNotFound);
}

TEST(ModelRegistryTest, CorruptCheckpointFileIsDataLoss) {
  const std::string path = TempPath("serve_corrupt.ckpt");
  std::unique_ptr<core::AdamelLinkage> trained = TrainToyLinkage(4);
  ASSERT_TRUE(trained->SaveCheckpoint(path).ok());
  StatusOr<std::string> bytes = nn::ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  std::string corrupted = std::move(bytes).value();
  ASSERT_GT(corrupted.size(), 64u);
  corrupted[corrupted.size() / 2] ^= 0x40;
  ASSERT_TRUE(nn::AtomicWriteFile(path, corrupted).ok());

  ModelRegistry registry;
  const Status loaded = registry.LoadFromCheckpoint(
      "adamel", 1,
      std::make_unique<core::AdamelLinkage>(core::AdamelVariant::kBase,
                                            FastConfig()),
      path);
  EXPECT_EQ(loaded.code(), StatusCode::kDataLoss);
}

TEST(ModelRegistryTest, WrongModelKindCheckpointIsDataLoss) {
  // A TLER model handed an AdaMEL checkpoint: the file exists and is intact,
  // but is unusable for this model — kDataLoss, not kFailedPrecondition.
  const std::string path = TempPath("serve_wrong_kind.ckpt");
  ASSERT_TRUE(TrainToyLinkage(5)->SaveCheckpoint(path).ok());

  ModelRegistry registry;
  const Status loaded = registry.LoadFromCheckpoint(
      "tler", 1, std::make_unique<baselines::TlerModel>(), path);
  EXPECT_EQ(loaded.code(), StatusCode::kDataLoss);
}

TEST(ModelRegistryTest, CheckpointRoundTripServesIdenticalScores) {
  const std::string path = TempPath("serve_roundtrip.ckpt");
  std::unique_ptr<core::AdamelLinkage> trained = TrainToyLinkage(6);
  const data::PairDataset test = ToyDataset(25, 7);
  const std::vector<float> offline = trained->ScorePairs(test).value();
  ASSERT_TRUE(trained->SaveCheckpoint(path).ok());

  ModelRegistry registry;
  ASSERT_TRUE(registry
                  .LoadFromCheckpoint(
                      "adamel", 1,
                      std::make_unique<core::AdamelLinkage>(
                          core::AdamelVariant::kBase, FastConfig()),
                      path)
                  .ok());
  const auto model = registry.Get("adamel");
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model.value()->ScorePairs(test).value(), offline);
}

// ----------------------------------------------------------------- batcher

BatcherOptions PumpOptions() {
  BatcherOptions options;
  options.worker_threads = 0;  // nothing runs until RunOnce()
  return options;
}

TEST(MicroBatcherTest, EmptyAndNullRequestsResolveImmediately) {
  MicroBatcher batcher(PumpOptions());
  BatchWorkItem null_model;
  null_model.pairs = ToyDataset(3, 8);
  EXPECT_EQ(batcher.Submit(std::move(null_model)).get().status.code(),
            StatusCode::kInvalidArgument);

  std::shared_ptr<const core::EntityLinkageModel> model = TrainToyLinkage(8);
  BatchWorkItem empty;
  empty.model = model;
  ScoreResponse response = batcher.Submit(std::move(empty)).get();
  EXPECT_TRUE(response.status.ok());
  EXPECT_TRUE(response.scores.empty());
  EXPECT_EQ(batcher.stats().submitted, 0);
}

TEST(MicroBatcherTest, DeadlineExpiredAtSubmit) {
  obs::ScopedFakeClock clock;
  clock.Set(5'000);
  MicroBatcher batcher(PumpOptions());
  std::shared_ptr<const core::EntityLinkageModel> model = TrainToyLinkage(9);

  BatchWorkItem item;
  item.model = model;
  item.pairs = ToyDataset(4, 10);
  item.deadline_ns = 4'000;  // already in the past
  EXPECT_EQ(batcher.Submit(std::move(item)).get().status.code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(batcher.stats().timed_out, 1);
  EXPECT_EQ(batcher.stats().submitted, 0);
}

TEST(MicroBatcherTest, DeadlineExpiresInQueue) {
  obs::ScopedFakeClock clock;
  MicroBatcher batcher(PumpOptions());
  std::shared_ptr<const core::EntityLinkageModel> model = TrainToyLinkage(11);

  BatchWorkItem item;
  item.model = model;
  item.pairs = ToyDataset(4, 12);
  item.deadline_ns = 1'000;
  std::future<ScoreResponse> future = batcher.Submit(std::move(item));
  EXPECT_EQ(batcher.queued_pairs(), 4);

  clock.Advance(2'000);  // the request expires while queued
  EXPECT_EQ(batcher.RunOnce(), 1);
  const ScoreResponse response = future.get();
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(response.queue_ns, 2'000);
  EXPECT_EQ(batcher.stats().timed_out, 1);
  EXPECT_EQ(batcher.stats().pairs_scored, 0);
}

TEST(MicroBatcherTest, BackpressureRejectsWhenQueueFull) {
  BatcherOptions options = PumpOptions();
  options.max_queue_pairs = 10;
  MicroBatcher batcher(options);
  std::shared_ptr<const core::EntityLinkageModel> model = TrainToyLinkage(13);
  const data::PairDataset six = ToyDataset(6, 14);

  BatchWorkItem first;
  first.model = model;
  first.pairs = six;
  std::future<ScoreResponse> admitted = batcher.Submit(std::move(first));

  BatchWorkItem second;
  second.model = model;
  second.pairs = six;  // 6 + 6 > 10: rejected
  EXPECT_EQ(batcher.Submit(std::move(second)).get().status.code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(batcher.stats().rejected, 1);

  // Draining the queue frees capacity again.
  EXPECT_EQ(batcher.RunOnce(), 1);
  EXPECT_TRUE(admitted.get().status.ok());
  BatchWorkItem third;
  third.model = model;
  third.pairs = six;
  std::future<ScoreResponse> readmitted = batcher.Submit(std::move(third));
  EXPECT_EQ(batcher.queued_pairs(), 6);
  EXPECT_EQ(batcher.RunOnce(), 1);
  EXPECT_TRUE(readmitted.get().status.ok());
}

TEST(MicroBatcherTest, CoalescedScoresAreBitwiseIdenticalToOffline) {
  std::shared_ptr<const core::AdamelLinkage> model = TrainToyLinkage(15);
  const data::PairDataset test = ToyDataset(30, 16);
  const std::vector<float> offline = model->ScorePairs(test).value();

  MicroBatcher batcher(PumpOptions());
  // Three requests slicing the same test set; one RunOnce must coalesce
  // them into a single forward pass.
  const int cuts[4] = {0, 11, 17, 30};
  std::vector<std::future<ScoreResponse>> futures;
  for (int i = 0; i < 3; ++i) {
    BatchWorkItem item;
    item.model = model;
    item.pairs = Slice(test, cuts[i], cuts[i + 1] - cuts[i]);
    futures.push_back(batcher.Submit(std::move(item)));
  }
  EXPECT_EQ(batcher.RunOnce(), 3);

  for (int i = 0; i < 3; ++i) {
    ScoreResponse response = futures[i].get();
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.batch_pairs, 30);
    const std::vector<float> expected(offline.begin() + cuts[i],
                                      offline.begin() + cuts[i + 1]);
    EXPECT_EQ(response.scores, expected) << "request " << i;
  }
  const BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.coalesced_requests, 3);
  EXPECT_EQ(stats.pairs_scored, 30);
  EXPECT_EQ(stats.max_batch_pairs, 30);
}

TEST(MicroBatcherTest, MaxBatchPairsSplitsBatches) {
  std::shared_ptr<const core::EntityLinkageModel> model = TrainToyLinkage(17);
  const data::PairDataset test = ToyDataset(20, 18);

  BatcherOptions options = PumpOptions();
  options.max_batch_pairs = 10;
  MicroBatcher batcher(options);
  std::vector<std::future<ScoreResponse>> futures;
  for (int i = 0; i < 4; ++i) {
    BatchWorkItem item;
    item.model = model;
    item.pairs = Slice(test, 5 * i, 5);
    futures.push_back(batcher.Submit(std::move(item)));
  }
  EXPECT_EQ(batcher.RunOnce(), 2);  // 5 + 5 fills the 10-pair cap
  EXPECT_EQ(batcher.RunOnce(), 2);
  for (auto& future : futures) {
    ScoreResponse response = future.get();
    EXPECT_TRUE(response.status.ok());
    EXPECT_EQ(response.batch_pairs, 10);
  }
  EXPECT_EQ(batcher.stats().batches, 2);
}

TEST(MicroBatcherTest, ShutdownDrainsQueuedRequests) {
  std::shared_ptr<const core::EntityLinkageModel> model = TrainToyLinkage(19);
  auto batcher = std::make_unique<MicroBatcher>(PumpOptions());
  BatchWorkItem item;
  item.model = model;
  item.pairs = ToyDataset(5, 20);
  std::future<ScoreResponse> future = batcher->Submit(std::move(item));
  batcher.reset();  // destructor must fulfill the promise
  EXPECT_TRUE(future.get().status.ok());
}

// Regression: the batch window used to shrink to the *head's* deadline
// only, so a coalesced joiner with a tighter deadline expired while the
// window was held open on the head's (here: unlimited) budget. The window
// must close deadline_slack_ns before the tightest member deadline.
TEST(MicroBatcherTest, TightDeadlineJoinerClosesBatchWindow) {
  obs::ScopedFakeClock clock;  // outlives the batcher and its worker
  BatcherOptions options;
  options.worker_threads = 1;
  options.max_batch_delay_ns = 50'000'000;  // 50 ms: head holds a long window
  MicroBatcher batcher(options);
  std::shared_ptr<const core::EntityLinkageModel> model = TrainToyLinkage(34);
  const data::PairDataset test = ToyDataset(4, 35);

  BatchWorkItem head;
  head.model = model;
  head.pairs = Slice(test, 0, 2);  // no deadline
  std::future<ScoreResponse> head_future = batcher.Submit(std::move(head));
  // Fake time stands still, so the worker sits inside the head's batch
  // window re-scanning the queue; wait until it has pulled the head.
  for (int i = 0; i < 5000 && batcher.inflight_pairs() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(batcher.inflight_pairs(), 2);

  BatchWorkItem joiner;
  joiner.model = model;
  joiner.pairs = Slice(test, 2, 2);
  joiner.deadline_ns = 1'000'000;  // 1 ms, far tighter than the open window
  std::future<ScoreResponse> joiner_future =
      batcher.Submit(std::move(joiner));
  for (int i = 0; i < 5000 && batcher.inflight_pairs() < 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(batcher.inflight_pairs(), 4);

  // Past the shrunken window close (deadline - slack) but before the
  // joiner's deadline: the batch must execute now, with both requests
  // scored, instead of holding until the 50 ms window expires the joiner.
  clock.Advance(1'000'000 - options.deadline_slack_ns / 2);
  ASSERT_EQ(joiner_future.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  ASSERT_EQ(head_future.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  const ScoreResponse joined = joiner_future.get();
  EXPECT_TRUE(joined.status.ok()) << joined.status.ToString();
  EXPECT_EQ(joined.batch_pairs, 4);  // it did coalesce with the head
  EXPECT_TRUE(head_future.get().status.ok());
  EXPECT_EQ(batcher.stats().timed_out, 0);
}

// The adaptive window scales with queue depth: a lone 1-pair request
// (fill 1/256) gets min_batch_delay_ns + fill * (max - min), ~0.3 ms of a
// 50 ms maximum, so it executes once ~1 ms passes. The fixed window holds
// it for the full 50 ms.
TEST(MicroBatcherTest, AdaptiveWindowClosesEarlyOnShallowQueue) {
  std::shared_ptr<const core::EntityLinkageModel> model = TrainToyLinkage(36);
  const data::PairDataset test = ToyDataset(1, 37);
  for (const bool adaptive : {true, false}) {
    SCOPED_TRACE(adaptive ? "adaptive" : "fixed");
    obs::ScopedFakeClock clock;  // outlives the batcher and its worker
    BatcherOptions options;
    options.worker_threads = 1;
    options.max_batch_delay_ns = 50'000'000;
    options.adaptive = adaptive;
    MicroBatcher batcher(options);

    BatchWorkItem lone;
    lone.model = model;
    lone.pairs = test;  // no deadline
    std::future<ScoreResponse> future = batcher.Submit(std::move(lone));
    // The window is sized when the worker pulls the head, so wait for that
    // before moving fake time.
    for (int i = 0; i < 5000 && batcher.inflight_pairs() < 1; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(batcher.inflight_pairs(), 1);

    clock.Advance(1'000'000);
    if (!adaptive) {
      EXPECT_EQ(future.wait_for(std::chrono::milliseconds(100)),
                std::future_status::timeout);
      clock.Advance(options.max_batch_delay_ns);
    }
    ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    const ScoreResponse response = future.get();
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.batch_pairs, 1);
  }
}

// Scores every pair 0.5 after blocking until Release(); lets a test hold a
// collected batch in the executing state.
class BlockingModel : public core::EntityLinkageModel {
 public:
  std::string Name() const override { return "blocking-stub"; }
  Status Fit(const core::MelInputs& /*inputs*/) override { return OkStatus(); }
  int64_t ParameterCount() const override { return 0; }

  StatusOr<std::vector<float>> ScorePairs(
      data::PairSpan batch) const override {
    std::unique_lock<std::mutex> lock(mutex_);
    ++scoring_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
    return std::vector<float>(static_cast<size_t>(batch.size()), 0.5f);
  }

  void WaitUntilScoring() const {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return scoring_ > 0; });
  }
  void Release() const {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;  // sticky: later batches score without blocking
    }
    cv_.notify_all();
  }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  mutable int scoring_ = 0;
  mutable bool released_ = false;
};

// Regression: admission used to count only *queued* pairs, so pairs pulled
// into a collected-but-unfinished batch vanished from the gate and a burst
// could hold ~workers x max_batch_pairs extra pairs. The true bound is
// queued + in-flight <= max_queue_pairs.
TEST(MicroBatcherTest, AdmissionBoundCountsInFlightPairs) {
  auto blocking = std::make_shared<BlockingModel>();
  BatcherOptions options = PumpOptions();
  options.max_queue_pairs = 10;
  MicroBatcher batcher(options);
  const data::PairDataset six = ToyDataset(6, 36);

  BatchWorkItem first;
  first.model = blocking;
  first.pairs = six;
  std::future<ScoreResponse> admitted = batcher.Submit(std::move(first));
  std::thread pump([&batcher] { EXPECT_EQ(batcher.RunOnce(), 1); });
  blocking->WaitUntilScoring();
  // The batch is executing: nothing queued, six pairs in flight — and they
  // still count against the admission bound.
  EXPECT_EQ(batcher.queued_pairs(), 0);
  EXPECT_EQ(batcher.inflight_pairs(), 6);
  BatchWorkItem second;
  second.model = blocking;
  second.pairs = six;  // 6 in flight + 6 > 10: rejected
  EXPECT_EQ(batcher.Submit(std::move(second)).get().status.code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(batcher.stats().rejected, 1);

  blocking->Release();
  pump.join();
  EXPECT_TRUE(admitted.get().status.ok());
  EXPECT_EQ(batcher.inflight_pairs(), 0);
  // Finishing the batch frees the capacity its pairs held.
  BatchWorkItem third;
  third.model = blocking;
  third.pairs = six;
  std::future<ScoreResponse> readmitted = batcher.Submit(std::move(third));
  EXPECT_EQ(batcher.RunOnce(), 1);
  EXPECT_TRUE(readmitted.get().status.ok());
}

// Scoring always fails; the batch must show up in BatcherStats::failed.
class FailingModel : public core::EntityLinkageModel {
 public:
  std::string Name() const override { return "failing-stub"; }
  Status Fit(const core::MelInputs& /*inputs*/) override { return OkStatus(); }
  int64_t ParameterCount() const override { return 0; }
  StatusOr<std::vector<float>> ScorePairs(
      data::PairSpan /*batch*/) const override {
    return InternalError("forward pass exploded");
  }
};

TEST(MicroBatcherTest, FailedBatchesAreCountedInStats) {
  MicroBatcher batcher(PumpOptions());
  BatchWorkItem item;
  item.model = std::make_shared<FailingModel>();
  item.pairs = ToyDataset(3, 37);
  std::future<ScoreResponse> future = batcher.Submit(std::move(item));
  EXPECT_EQ(batcher.RunOnce(), 1);
  EXPECT_EQ(future.get().status.code(), StatusCode::kInternal);
  const BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.pairs_scored, 0);
  EXPECT_EQ(batcher.inflight_pairs(), 0);
}

// ----------------------------------------------------------------- service

TEST(LinkageServiceTest, UnknownModelFailsFastWithNotFound) {
  ServiceOptions options;
  options.batcher.worker_threads = 0;
  LinkageService service(options);
  ScoreRequest request;
  request.model = "nope";
  request.pairs = ToyDataset(3, 21);
  EXPECT_EQ(service.SubmitAsync(std::move(request)).get().status.code(),
            StatusCode::kNotFound);
}

TEST(LinkageServiceTest, PumpModeScoresMatchOffline) {
  std::shared_ptr<const core::AdamelLinkage> model = TrainToyLinkage(22);
  const data::PairDataset test = ToyDataset(12, 23);
  const std::vector<float> offline = model->ScorePairs(test).value();

  ServiceOptions options;
  options.batcher.worker_threads = 0;
  LinkageService service(options);
  ASSERT_TRUE(service.registry().Register("adamel", 1, model).ok());

  ScoreRequest request;
  request.model = "adamel";
  request.pairs = test;
  std::future<ScoreResponse> future = service.SubmitAsync(std::move(request));
  EXPECT_EQ(service.PumpOnce(), 1);
  EXPECT_EQ(future.get().scores, offline);
}

// Regression: deterministic pump mode composed with the adaptive
// controller. Under a backlog deeper than `max_batch_pairs` the effective
// pair cap widens toward `adaptive_max_batch_pairs`, so the same three
// requests drain in two batches instead of three — with scores still
// bitwise the offline reference. Pinned by exact batch counts so a change
// to the controller's widening rule fails loudly here.
TEST(LinkageServiceTest, PumpModeWithAdaptiveControllerWidensBatches) {
  obs::ScopedFakeClock clock;
  std::shared_ptr<const core::AdamelLinkage> model = TrainToyLinkage(34);
  const data::PairDataset test = ToyDataset(300, 35);
  const std::vector<float> offline = model->ScorePairs(test).value();

  const auto run = [&](bool adaptive) -> std::pair<int64_t, bool> {
    ServiceOptions options;
    options.batcher.worker_threads = 0;
    options.batcher.max_batch_pairs = 128;
    options.batcher.adaptive = adaptive;
    options.batcher.adaptive_max_batch_pairs = 256;
    LinkageService service(options);
    ADAMEL_CHECK(service.registry().Register("adamel", 1, model).ok());

    std::vector<std::future<ScoreResponse>> futures;
    for (int i = 0; i < 3; ++i) {
      ScoreRequest request;
      request.model = "adamel";
      request.pairs = Slice(test, 100 * i, 100);
      futures.push_back(service.SubmitAsync(std::move(request)));
    }
    while (service.PumpOnce() > 0) {
    }
    bool bitwise = true;
    for (int i = 0; i < 3; ++i) {
      const ScoreResponse response = futures[i].get();
      ADAMEL_CHECK(response.status.ok()) << response.status.ToString();
      const std::vector<float> expected(offline.begin() + 100 * i,
                                        offline.begin() + 100 * (i + 1));
      bitwise = bitwise && response.scores == expected;
    }
    return {service.stats().batches, bitwise};
  };

  const std::pair<int64_t, bool> fixed = run(/*adaptive=*/false);
  const std::pair<int64_t, bool> adaptive = run(/*adaptive=*/true);
  // Fixed cap 128: each 100-pair request runs alone. Adaptive with a
  // 300-pair backlog: cap widens to 256, so 100+100 coalesce, then 100.
  EXPECT_EQ(fixed.first, 3);
  EXPECT_EQ(adaptive.first, 2);
  EXPECT_TRUE(fixed.second);
  EXPECT_TRUE(adaptive.second);
}

TEST(LinkageServiceTest, WorkerThreadsServeBitwiseIdenticalScores) {
  std::shared_ptr<const core::AdamelLinkage> model = TrainToyLinkage(24);
  const data::PairDataset test = ToyDataset(40, 25);
  const std::vector<float> offline = model->ScorePairs(test).value();

  ServiceOptions options;
  options.batcher.worker_threads = 2;
  LinkageService service(options);
  ASSERT_TRUE(service.registry().Register("adamel", 1, model).ok());

  std::vector<std::future<ScoreResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    ScoreRequest request;
    request.model = "adamel";
    request.pairs = Slice(test, 5 * i, 5);
    futures.push_back(service.SubmitAsync(std::move(request)));
  }
  for (int i = 0; i < 8; ++i) {
    ScoreResponse response = futures[i].get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    const std::vector<float> expected(offline.begin() + 5 * i,
                                      offline.begin() + 5 * (i + 1));
    EXPECT_EQ(response.scores, expected) << "request " << i;
  }
  EXPECT_EQ(service.stats().pairs_scored, 40);
}

// ------------------------------------------------------- quantized routing

TEST(LinkageServiceTest, QuantizedRequestRoutesToQuantizedPath) {
  std::unique_ptr<core::AdamelLinkage> trained = TrainToyLinkage(26);
  const data::PairDataset calibration = ToyDataset(40, 27);
  ASSERT_TRUE(
      trained->EnableQuantizedScoring(data::PairSpan(calibration)).ok());
  std::shared_ptr<const core::AdamelLinkage> model = std::move(trained);
  const data::PairDataset test = ToyDataset(12, 28);
  const std::vector<float> offline_fp32 = model->ScorePairs(test).value();
  const std::vector<float> offline_q =
      model->ScorePairsQuantized(test).value();

  ServiceOptions options;
  options.batcher.worker_threads = 0;
  LinkageService service(options);
  ASSERT_TRUE(service.registry().Register("adamel", 1, model).ok());

  ScoreRequest request;
  request.model = "adamel";
  request.pairs = test;
  request.quantized = true;
  std::future<ScoreResponse> future = service.SubmitAsync(std::move(request));
  EXPECT_EQ(service.PumpOnce(), 1);
  const ScoreResponse response = future.get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  // Served quantized scores are bitwise the offline quantized ones — and
  // genuinely different arithmetic from fp32 (sanity check the routing).
  EXPECT_EQ(response.scores, offline_q);
  EXPECT_NE(response.scores, offline_fp32);
}

TEST(LinkageServiceTest, QuantizedAndFp32RequestsNeverShareABatch) {
  std::unique_ptr<core::AdamelLinkage> trained = TrainToyLinkage(29);
  ASSERT_TRUE(
      trained->EnableQuantizedScoring(data::PairSpan(ToyDataset(40, 30)))
          .ok());
  std::shared_ptr<const core::AdamelLinkage> model = std::move(trained);
  const data::PairDataset test = ToyDataset(10, 31);
  const std::vector<float> offline_fp32 = model->ScorePairs(test).value();
  const std::vector<float> offline_q =
      model->ScorePairsQuantized(test).value();

  ServiceOptions options;
  options.batcher.worker_threads = 0;
  options.batcher.max_batch_pairs = 64;  // both would fit in one batch
  LinkageService service(options);
  ASSERT_TRUE(service.registry().Register("adamel", 1, model).ok());

  std::vector<std::future<ScoreResponse>> futures;
  for (const bool quantized : {false, true}) {
    ScoreRequest request;
    request.model = "adamel";
    request.pairs = test;
    request.quantized = quantized;
    futures.push_back(service.SubmitAsync(std::move(request)));
  }
  while (service.PumpOnce() > 0) {
  }
  // Same model, same schema, but different scoring mode: the coalescing
  // key keeps them apart, so each run through its own forward pass.
  EXPECT_EQ(service.stats().batches, 2);
  EXPECT_EQ(futures[0].get().scores, offline_fp32);
  EXPECT_EQ(futures[1].get().scores, offline_q);
}

TEST(LinkageServiceTest, QuantizedWithoutSupportFailsFastAtSubmission) {
  std::shared_ptr<const core::AdamelLinkage> model = TrainToyLinkage(32);
  ASSERT_FALSE(model->SupportsQuantizedScoring());

  ServiceOptions options;
  options.batcher.worker_threads = 0;
  LinkageService service(options);
  ASSERT_TRUE(service.registry().Register("adamel", 1, model).ok());

  ScoreRequest request;
  request.model = "adamel";
  request.pairs = ToyDataset(4, 33);
  request.quantized = true;
  // Resolves immediately — no pump needed — with a typed error.
  EXPECT_EQ(service.SubmitAsync(std::move(request)).get().status.code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.stats().submitted, 0);
  // A precondition fast-fail is an erroneous outcome, not a silent drop:
  // it must land in `failed` so the offered = completed + missed + shed +
  // failed accounting identity holds for load metrics.
  EXPECT_EQ(service.stats().failed, 1);
}

// TSan concurrency suite: N client threads hammer M models through one
// service while another thread mutates the registry. Run under
// ADAMEL_SANITIZE=thread in CI.
TEST(LinkageServiceTest, ConcurrentClientsAcrossModels) {
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 6;

  std::shared_ptr<const core::AdamelLinkage> model_a = TrainToyLinkage(26);
  std::shared_ptr<const core::AdamelLinkage> model_b = TrainToyLinkage(27);
  const data::PairDataset test = ToyDataset(24, 28);
  const std::vector<float> offline_a = model_a->ScorePairs(test).value();
  const std::vector<float> offline_b = model_b->ScorePairs(test).value();

  ServiceOptions options;
  options.batcher.worker_threads = 3;
  options.batcher.max_batch_pairs = 16;
  LinkageService service(options);
  ASSERT_TRUE(service.registry().Register("a", 1, model_a).ok());
  ASSERT_TRUE(service.registry().Register("b", 1, model_b).ok());

  std::vector<std::vector<ScoreResponse>> responses(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([c, &service, &test, &responses] {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        ScoreRequest request;
        request.model = (c + r) % 2 == 0 ? "a" : "b";
        request.pairs = Slice(test, 4 * ((c + r) % 6), 4);
        responses[c].push_back(service.Score(std::move(request)));
      }
    });
  }
  // Registry churn while requests are in flight: a later version appears,
  // in-flight requests keep their resolved model alive.
  std::thread churn([&service, &model_a] {
    ASSERT_TRUE(service.registry().Register("a", 2, model_a).ok());
    service.registry().Remove("a", 2);
  });
  for (std::thread& client : clients) {
    client.join();
  }
  churn.join();

  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(responses[c].size(), static_cast<size_t>(kRequestsPerClient));
    for (int r = 0; r < kRequestsPerClient; ++r) {
      const ScoreResponse& response = responses[c][r];
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      const std::vector<float>& offline =
          (c + r) % 2 == 0 ? offline_a : offline_b;
      const int offset = 4 * ((c + r) % 6);
      const std::vector<float> expected(offline.begin() + offset,
                                        offline.begin() + offset + 4);
      EXPECT_EQ(response.scores, expected);
    }
  }
  const BatcherStats stats = service.stats();
  EXPECT_EQ(stats.submitted, kClients * kRequestsPerClient);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.timed_out, 0);
}

// ---------------------------------------------------------- Fit validation

TEST(FitValidationTest, NullSourceTrainIsInvalidArgument) {
  core::AdamelLinkage linkage(core::AdamelVariant::kBase, FastConfig());
  core::MelInputs inputs;  // source_train left null
  EXPECT_EQ(linkage.Fit(inputs).code(), StatusCode::kInvalidArgument);
}

TEST(FitValidationTest, EmptySourceTrainIsInvalidArgument) {
  core::AdamelLinkage linkage(core::AdamelVariant::kBase, FastConfig());
  const data::PairDataset empty(data::Schema({"key", "noise"}));
  core::MelInputs inputs;
  inputs.source_train = &empty;
  EXPECT_EQ(linkage.Fit(inputs).code(), StatusCode::kInvalidArgument);
}

TEST(FitValidationTest, HybWithoutTargetOrSupportIsInvalidArgument) {
  core::AdamelLinkage linkage(core::AdamelVariant::kHyb, FastConfig());
  const data::PairDataset train = ToyDataset(10, 29);
  core::MelInputs inputs;
  inputs.source_train = &train;  // kHyb also needs target + support
  EXPECT_EQ(linkage.Fit(inputs).code(), StatusCode::kInvalidArgument);
}

TEST(FitValidationTest, BaselinesValidateInputsToo) {
  baselines::TlerModel tler;
  core::MelInputs inputs;
  EXPECT_EQ(tler.Fit(inputs).code(), StatusCode::kInvalidArgument);
  baselines::DeepMatcherModel deepmatcher;
  EXPECT_EQ(deepmatcher.Fit(inputs).code(), StatusCode::kInvalidArgument);
}

TEST(FitValidationTest, ScoreBeforeFitIsFailedPrecondition) {
  const core::AdamelLinkage unfitted(core::AdamelVariant::kBase);
  EXPECT_EQ(unfitted.ScorePairs(ToyDataset(3, 30)).status().code(),
            StatusCode::kFailedPrecondition);
}

// ------------------------------------------------------------ 1:N search

data::Record GalleryRecord(int i, const std::string& key) {
  data::Record record;
  record.id = "gal" + std::to_string(i);
  record.source = "gallery";
  record.values = {key, "noise" + std::to_string(i % 4)};
  return record;
}

// Enrolled population sharing the key vocabulary of ToyDataset, so trained
// toy models produce meaningful re-rank scores.
std::shared_ptr<const gallery::Gallery> BuildToyGallery(
    std::vector<data::Record>* out_records) {
  gallery::GalleryOptions options;
  options.embedding.dim = 32;
  options.num_shards = 4;
  auto built =
      gallery::Gallery::Create(data::Schema({"key", "noise"}), options)
          .value();
  std::vector<data::Record> records;
  for (int i = 0; i < 40; ++i) {
    records.push_back(GalleryRecord(i, "key" + std::to_string(i % 20)));
  }
  ADAMEL_CHECK(built->Enroll(records).ok());
  if (out_records != nullptr) {
    *out_records = std::move(records);
  }
  return std::shared_ptr<const gallery::Gallery>(std::move(built));
}

TEST(SearchAsyncTest, WithoutGalleryIsFailedPrecondition) {
  ServiceOptions options;
  options.batcher.worker_threads = 0;
  LinkageService service(options);
  EXPECT_EQ(service.gallery(), nullptr);
  SearchRequest request;
  request.model = "adamel";
  request.query = GalleryRecord(0, "key1");
  EXPECT_EQ(service.SearchAsync(std::move(request)).get().status.code(),
            StatusCode::kFailedPrecondition);
}

TEST(SearchAsyncTest, UnknownModelFailsFastWithNotFound) {
  ServiceOptions options;
  options.batcher.worker_threads = 0;
  options.gallery = BuildToyGallery(nullptr);
  LinkageService service(options);
  SearchRequest request;
  request.model = "nope";
  request.query = GalleryRecord(0, "key1");
  EXPECT_EQ(service.SearchAsync(std::move(request)).get().status.code(),
            StatusCode::kNotFound);
}

TEST(SearchAsyncTest, ValidatesKAgainstProbeK) {
  ServiceOptions options;
  options.batcher.worker_threads = 0;
  options.gallery = BuildToyGallery(nullptr);
  LinkageService service(options);
  ASSERT_TRUE(service.registry().Register("adamel", 1, TrainToyLinkage(61))
                  .ok());
  SearchRequest request;
  request.model = "adamel";
  request.query = GalleryRecord(0, "key1");
  request.k = 10;
  request.probe_k = 5;  // probe fewer than we return: nonsensical
  EXPECT_EQ(service.SearchAsync(std::move(request)).get().status.code(),
            StatusCode::kInvalidArgument);
}

TEST(SearchAsyncTest, EmptyProbeResolvesImmediatelyWithoutABatch) {
  ServiceOptions options;
  options.batcher.worker_threads = 0;  // pump mode, and we never pump
  options.gallery = BuildToyGallery(nullptr);
  LinkageService service(options);
  ASSERT_TRUE(service.registry().Register("adamel", 1, TrainToyLinkage(62))
                  .ok());
  SearchRequest request;
  request.model = "adamel";
  // Neither attribute shares a token with any enrolled record, so the index
  // probe comes back empty and no batch is ever submitted.
  request.query = GalleryRecord(0, "zzzunique");
  request.query.values[1] = "qqqunique";
  const SearchResponse response = service.SearchAsync(std::move(request)).get();
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.candidates.empty());
  EXPECT_EQ(response.batch_pairs, 0);
  EXPECT_EQ(response.served_version, 1);
}

TEST(SearchAsyncTest, ServedScoresAreBitwiseIdenticalToOfflineScorePairs) {
  std::vector<data::Record> enrolled;
  std::shared_ptr<const gallery::Gallery> gal = BuildToyGallery(&enrolled);
  std::shared_ptr<const core::AdamelLinkage> model = TrainToyLinkage(63);

  ServiceOptions options;
  options.batcher.worker_threads = 0;
  options.gallery = gal;
  LinkageService service(options);
  ASSERT_TRUE(service.registry().Register("adamel", 3, model).ok());

  SearchRequest request;
  request.model = "adamel";
  request.query = GalleryRecord(999, "key7");
  request.k = 5;
  request.probe_k = 16;
  const data::Record query = request.query;
  std::future<SearchResponse> future = service.SearchAsync(std::move(request));
  EXPECT_EQ(service.PumpOnce(), 1);
  const SearchResponse response = future.get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ASSERT_FALSE(response.candidates.empty());
  ASSERT_LE(response.candidates.size(), 5u);
  EXPECT_EQ(response.served_version, 3);
  EXPECT_GT(response.batch_pairs, 0);

  for (size_t i = 0; i < response.candidates.size(); ++i) {
    const gallery::Candidate& candidate = response.candidates[i];
    if (i > 0) {
      EXPECT_GE(response.candidates[i - 1].score, candidate.score);
    }
    // The bitwise contract: the served score equals scoring this exact
    // (query, enrolled record) pair through ScorePairs offline.
    data::PairDataset offline(gal->schema());
    data::LabeledPair pair;
    pair.left = query;
    pair.right = gal->GetRecord(candidate.index).value();
    offline.Add(std::move(pair));
    EXPECT_EQ(candidate.score, model->ScorePairs(offline).value()[0])
        << "candidate " << i << " (" << candidate.id << ")";
  }
}

TEST(SearchAsyncTest, WorkerModeSearchesConcurrently) {
  std::vector<data::Record> enrolled;
  std::shared_ptr<const gallery::Gallery> gal = BuildToyGallery(&enrolled);
  std::shared_ptr<const core::AdamelLinkage> model = TrainToyLinkage(64);

  ServiceOptions options;
  options.batcher.worker_threads = 2;
  options.gallery = gal;
  LinkageService service(options);
  ASSERT_TRUE(service.registry().Register("adamel", 1, model).ok());

  std::vector<std::future<SearchResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    SearchRequest request;
    request.model = "adamel";
    request.query = GalleryRecord(100 + i, "key" + std::to_string(i % 20));
    request.k = 3;
    request.probe_k = 8;
    futures.push_back(service.SearchAsync(std::move(request)));
  }
  for (int i = 0; i < 8; ++i) {
    const SearchResponse response = futures[i].get();
    ASSERT_TRUE(response.status.ok())
        << "search " << i << ": " << response.status.ToString();
    EXPECT_LE(response.candidates.size(), 3u);
  }
}

}  // namespace
}  // namespace adamel::serve
