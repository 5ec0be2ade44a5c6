// `train`: back-to-back AdamelLinkage(kHyb).Fit calls on a Music-1M-scale
// task (6000 weak-labeled source pairs, 1200 unlabeled target pairs, 100
// support pairs), default config with a fixed epoch count. The only
// workload where backward and the optimizer run; serving and the gallery
// sit idle.
//
// Step latency is observed from outside, in traced fits only: a poller
// thread watches the trainer's existing `train.steps` counter and stamps
// each increment. Untraced fits run without it, so their CPU time is the
// trainer's own.
#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "core/features.h"
#include "core/trainer.h"
#include "datagen/music_world.h"
#include "eval/metrics.h"
#include "exec/common.h"
#include "exec/layers.h"

namespace perfbench {
namespace {

using namespace adamel;

constexpr int kEpochs = 2;
constexpr uint64_t kTaskSeed = 1;
constexpr int64_t kPollNs = 20'000;

// Stamps every increment of the `train.steps` counter until stopped.
class StepPoller {
 public:
  StepPoller() : thread_([this] { Run(); }) {}
  ~StepPoller() { Stop(); }
  StepPoller(const StepPoller&) = delete;
  StepPoller& operator=(const StepPoller&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  /// (time, steps seen so far) at each observed change.
  const std::vector<std::pair<int64_t, int64_t>>& marks() const {
    return marks_;
  }

 private:
  void Run() {
    adamel::obs::Counter* steps =
        adamel::obs::Registry::Global().GetCounter("train.steps");
    int64_t last = steps->value();
    marks_.emplace_back(Now(), last);
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(kPollNs));
      const int64_t value = steps->value();
      if (value != last) {
        marks_.emplace_back(Now(), value);
        last = value;
      }
    }
  }

  std::atomic<bool> stop_{false};
  std::vector<std::pair<int64_t, int64_t>> marks_;
  std::thread thread_;
};

class TrainWorkload : public Workload {
 public:
  std::map<std::string, int> Threads() const override {
    // The step poller runs in traced fits only.
    return {{"fit", 1}, {"step_poller", 1}, {"pool_workers", 0}};
  }

  std::string Setup() override {
    last_model_.reset();
    SetNumThreads(1);
    const int64_t start = Now();
    const double cpu_start = CpuSeconds();
    datagen::MusicTaskOptions options;
    options.entity_type = datagen::MusicEntityType::kArtist;
    options.scale = datagen::MusicScale::k1M;
    options.seed = kTaskSeed;
    options.weak_train_pairs = 6000;
    options.target_unlabeled_pairs = 1200;
    options.support_positives = 50;
    options.support_negatives = 50;
    task_ = datagen::MakeMusicTask(options);
    const double seconds = static_cast<double>(Now() - start) * 1e-9;
    Json reply;
    reply.Num("wall_s", seconds)
        .Num("cpu_s", CpuSeconds() - cpu_start)
        .Int("source_pairs", task_.source_train.size())
        .Int("target_pairs", task_.target_unlabeled.size())
        .Int("support_pairs", task_.support.size())
        .Int("test_pairs", task_.test.size());
    return reply.Done();
  }

  // One Fit with config seed `args.seed`. `rate` is unused.
  std::string Phase(const PhaseArgs& args) override {
    core::AdamelConfig config;
    config.epochs = kEpochs;
    config.seed = args.seed;
    auto model =
        std::make_shared<core::AdamelLinkage>(core::AdamelVariant::kHyb, config);
    core::MelInputs inputs;
    inputs.source_train = &task_.source_train;
    inputs.target_unlabeled = &task_.target_unlabeled;
    inputs.support = &task_.support;

    const CounterSnapshot counters_before = CounterSnapshot::Take();
    const double cpu_before = CpuSeconds();
    std::unique_ptr<StepPoller> poller;
    if (args.traced) {
      poller = std::make_unique<StepPoller>();
    }
    const int64_t start = Now();
    const Status fitted = model->Fit(inputs);
    const int64_t end = Now();
    std::vector<std::pair<int64_t, int64_t>> marks;
    if (poller != nullptr) {
      poller->Stop();
      marks = poller->marks();
    }
    const double cpu_s = CpuSeconds() - cpu_before;
    const CounterSnapshot counters_after = CounterSnapshot::Take();

    // Step durations between consecutive observed increments; the first
    // increment also covers featurization, so it starts no interval.
    std::vector<double> step_ms;
    for (size_t i = 2; i < marks.size(); ++i) {
      const int64_t steps = marks[i].second - marks[i - 1].second;
      const double each =
          static_cast<double>(marks[i].first - marks[i - 1].first) * 1e-6 /
          static_cast<double>(steps);
      for (int64_t s = 0; s < steps; ++s) {
        step_ms.push_back(each);
      }
    }
    double pr_auc = 0.0;
    if (fitted.ok()) {
      const std::vector<float> scores = model->ScorePairs(task_.test).value();
      std::vector<int> labels;
      for (const data::LabeledPair& pair : task_.test.pairs()) {
        labels.push_back(pair.label);
      }
      pr_auc = eval::AveragePrecision(scores, labels);
      last_model_ = model;
    }

    Json reply;
    reply.Str("phase", args.name)
        .Int("fit_seed", static_cast<int64_t>(args.seed))
        .Bool("fit_ok", fitted.ok())
        .Num("wall_s", static_cast<double>(end - start) * 1e-9)
        .Num("cpu_s", cpu_s)
        .Num("pr_auc", pr_auc)
        .Int("pair_epochs",
             static_cast<int64_t>(task_.source_train.size()) * kEpochs)
        .Nums("step_ms", step_ms);
    counters_after.WriteDelta(counters_before, &reply);
    if (args.traced) {
      SpanRecorder spans;
      const auto request = static_cast<int64_t>(args.seed);
      const int64_t root = spans.Add("train.fit", start, end, -1, request);
      for (size_t i = 2; i < marks.size(); ++i) {
        spans.Add("train.step", marks[i - 1].first, marks[i].first, root,
                  request);
      }
      reply.SpansOf("spans", spans.Take());
    }
    return reply.Done();
  }

  std::string Layers() override {
    ADAMEL_CHECK(last_model_ != nullptr) << "layers before any fit";
    // train.featurize_s: the task's featurization on a fresh (cold)
    // extractor, as Fit does it.
    const core::AdamelConfig config;
    const core::FeatureExtractor cold(task_.source_train.schema(),
                                      config.feature_mode, config.embed_dim);
    const int64_t start = Now();
    for (const data::PairDataset* set :
         {&task_.source_train, &task_.target_unlabeled, &task_.support}) {
      const core::FeaturizedPairs features = cold.Featurize(*set);
      (void)features;
    }
    Json reply;
    reply.Num("train.featurize_s", static_cast<double>(Now() - start) * 1e-9);
    CoreLayers(last_model_->trained(), task_.source_train, &reply);
    TextLayers(task_.source_train, config.embed_dim, &reply);
    return reply.Done();
  }

 private:
  datagen::MelTask task_;
  std::shared_ptr<core::AdamelLinkage> last_model_;
};

}  // namespace

// The task is fixed, so every fit seed has one PR-AUC; the run seed only
// rotates the order of the fit seeds (chosen by run.py).
std::unique_ptr<Workload> MakeTrainWorkload(uint64_t /*seed*/) {
  return std::make_unique<TrainWorkload>();
}

}  // namespace perfbench
