// Tests for src/core: feature extraction (Eq. 2-3), the AdaMEL model
// (Eq. 4-7), the graph-free inference forward, and the trainer variants
// (Algorithms 1-3).

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "core/features.h"
#include "core/inference.h"
#include "core/model.h"
#include "core/trainer.h"
#include "datagen/music_world.h"
#include "eval/metrics.h"
#include "nn/debug_checks.h"
#include "nn/kernels/kernels.h"
#include "nn/ops.h"

namespace adamel::core {
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

// A tiny linearly-learnable linkage dataset: pairs match iff the "key"
// attribute shares its token.
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

// ---------------------------------------------------------------- features

TEST(FeatureExtractorTest, FeatureNamesPerMode) {
  const data::Schema schema({"a", "b"});
  const FeatureExtractor both(schema, FeatureMode::kSharedAndUnique, 8);
  EXPECT_EQ(both.feature_names(),
            (std::vector<std::string>{"a_shared", "a_unique", "b_shared",
                                      "b_unique"}));
  EXPECT_EQ(both.feature_count(), 4);
  const FeatureExtractor shared(schema, FeatureMode::kSharedOnly, 8);
  EXPECT_EQ(shared.feature_count(), 2);
  EXPECT_EQ(shared.feature_names()[0], "a_shared");
  const FeatureExtractor unique(schema, FeatureMode::kUniqueOnly, 8);
  EXPECT_EQ(unique.feature_names()[1], "b_unique");
}

TEST(FeatureExtractorTest, RowWidthIsFeatureCountTimesDim) {
  const FeatureExtractor extractor(data::Schema({"a", "b"}),
                                   FeatureMode::kSharedAndUnique, 16);
  const auto row = extractor.FeaturizePair(
      MakePair({"x y", "p"}, {"y z", "q"}, data::kMatch));
  EXPECT_EQ(row.size(), 4u * 16u);
}

TEST(FeatureExtractorTest, MissingValueUsesFixedVector) {
  const FeatureExtractor extractor(data::Schema({"a"}),
                                   FeatureMode::kSharedAndUnique, 8);
  const auto row1 =
      extractor.FeaturizePair(MakePair({""}, {"hello"}, data::kMatch));
  const auto row2 =
      extractor.FeaturizePair(MakePair({"bye"}, {""}, data::kMatch));
  // Both sides of the missing case collapse to the same fixed vector.
  EXPECT_EQ(row1, row2);
  // And the vector is non-zero (Section 4.3).
  double norm = 0.0;
  for (float v : row1) {
    norm += std::fabs(v);
  }
  EXPECT_GT(norm, 0.1);
}

TEST(FeatureExtractorTest, EmptyContrastIsZeroNotMissing) {
  const FeatureExtractor extractor(data::Schema({"a"}),
                                   FeatureMode::kSharedAndUnique, 8);
  // Disjoint values: shared set empty -> zero vector, distinct from the
  // missing-value encoding.
  const auto disjoint =
      extractor.FeaturizePair(MakePair({"aaa"}, {"bbb"}, data::kMatch));
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(disjoint[i], 0.0f) << "shared part should be zero";
  }
  // Identical values: unique set empty -> zero vector.
  const auto identical =
      extractor.FeaturizePair(MakePair({"aaa"}, {"aaa"}, data::kMatch));
  for (int i = 8; i < 16; ++i) {
    EXPECT_EQ(identical[i], 0.0f) << "unique part should be zero";
  }
  const auto missing =
      extractor.FeaturizePair(MakePair({""}, {"aaa"}, data::kMatch));
  EXPECT_NE(disjoint, missing);
}

TEST(FeatureExtractorTest, SharedTokensLandInSharedFeature) {
  const FeatureExtractor extractor(data::Schema({"a"}),
                                   FeatureMode::kSharedAndUnique, 16);
  const auto same =
      extractor.FeaturizePair(MakePair({"hello"}, {"hello"}, 1));
  const auto diff =
      extractor.FeaturizePair(MakePair({"hello"}, {"world"}, 1));
  // Shared part nonzero when tokens overlap, zero otherwise.
  double same_shared = 0.0;
  double diff_shared = 0.0;
  for (int i = 0; i < 16; ++i) {
    same_shared += std::fabs(same[i]);
    diff_shared += std::fabs(diff[i]);
  }
  EXPECT_GT(same_shared, 0.1);
  EXPECT_EQ(diff_shared, 0.0);
}

TEST(FeatureExtractorTest, FeaturizeDatasetShapesAndLabels) {
  const data::PairDataset dataset = ToyDataset(20, 1);
  const FeatureExtractor extractor(dataset.schema(),
                                   FeatureMode::kSharedAndUnique, 8);
  const FeaturizedPairs features = extractor.Featurize(dataset);
  EXPECT_EQ(features.pair_count, 20);
  EXPECT_EQ(features.matrix.rows(), 20);
  EXPECT_EQ(features.matrix.cols(), 4 * 8);
  EXPECT_EQ(features.labels.size(), 20u);
  EXPECT_EQ(features.feature_count, 4);
}

// ------------------------------------------------------------------ model

TEST(AdamelModelTest, ForwardShapes) {
  Rng rng(2);
  AdamelConfig config;
  config.embed_dim = 8;
  config.latent_dim = 6;
  config.attention_dim = 5;
  config.hidden_dim = 7;
  const AdamelModel model(4, config, &rng);
  const nn::Tensor h = nn::Tensor::RandomNormal(3, 4 * 8, 1.0f, &rng);
  const AdamelModel::Output out = model.Forward(h);
  EXPECT_EQ(out.attention.rows(), 3);
  EXPECT_EQ(out.attention.cols(), 4);
  EXPECT_EQ(out.logits.rows(), 3);
  EXPECT_EQ(out.logits.cols(), 1);
}

TEST(AdamelModelTest, AttentionRowsSumToOne) {
  Rng rng(3);
  AdamelConfig config;
  config.embed_dim = 8;
  const AdamelModel model(6, config, &rng);
  const nn::Tensor h = nn::Tensor::RandomNormal(5, 6 * 8, 2.0f, &rng);
  const nn::Tensor attention = model.ForwardAttention(h);
  for (int r = 0; r < attention.rows(); ++r) {
    double total = 0.0;
    for (int c = 0; c < attention.cols(); ++c) {
      EXPECT_GE(attention.At(r, c), 0.0f);
      total += attention.At(r, c);
    }
    EXPECT_NEAR(total, 1.0, 1e-5);
  }
}

TEST(AdamelModelTest, ParameterCountMatchesFormula) {
  Rng rng(4);
  AdamelConfig config;
  config.embed_dim = 10;    // D
  config.latent_dim = 6;    // H
  config.attention_dim = 5; // H'
  config.hidden_dim = 7;    // classifier hidden
  const int f = 3;
  const AdamelModel model(f, config, &rng);
  // F*(D*H + H) per-feature affine + (H*H' + H') attention + classifier
  // ((F*H)*Hh + Hh + Hh*1 + 1).
  const int64_t expected = f * (10 * 6 + 6) + (6 * 5 + 5) +
                           ((f * 6) * 7 + 7 + 7 * 1 + 1);
  EXPECT_EQ(model.ParameterCount(), expected);
}

TEST(AdamelModelTest, AttentionDependsOnInput) {
  Rng rng(5);
  AdamelConfig config;
  config.embed_dim = 8;
  const AdamelModel model(4, config, &rng);
  const nn::Tensor h1 = nn::Tensor::RandomNormal(1, 32, 1.0f, &rng);
  const nn::Tensor h2 = nn::Tensor::RandomNormal(1, 32, 1.0f, &rng);
  const nn::Tensor a1 = model.ForwardAttention(h1);
  const nn::Tensor a2 = model.ForwardAttention(h2);
  double diff = 0.0;
  for (int c = 0; c < 4; ++c) {
    diff += std::fabs(a1.At(0, c) - a2.At(0, c));
  }
  EXPECT_GT(diff, 1e-4);
}

// ---------------------------------------------------------------- trainer

TEST(AdamelTrainerTest, LearnsSeparableToyTask) {
  const data::PairDataset train = ToyDataset(300, 10);
  const data::PairDataset test = ToyDataset(150, 11);
  AdamelConfig config;
  config.epochs = 20;
  config.seed = 1;
  const AdamelTrainer trainer(config);
  MelInputs inputs;
  inputs.source_train = &train;
  const TrainedAdamel model = trainer.Fit(AdamelVariant::kBase, inputs);
  std::vector<int> labels;
  for (const auto& pair : test.pairs()) {
    labels.push_back(pair.label == data::kMatch ? 1 : 0);
  }
  EXPECT_GT(eval::AveragePrecision(model.ScorePairs(test), labels), 0.95);
}

TEST(AdamelTrainerTest, PredictionsAreProbabilities) {
  const data::PairDataset train = ToyDataset(50, 12);
  AdamelConfig config;
  config.epochs = 2;
  const AdamelTrainer trainer(config);
  MelInputs inputs;
  inputs.source_train = &train;
  const TrainedAdamel model = trainer.Fit(AdamelVariant::kBase, inputs);
  for (float score : model.ScorePairs(train)) {
    EXPECT_GE(score, 0.0f);
    EXPECT_LE(score, 1.0f);
  }
}

TEST(AdamelTrainerTest, DeterministicGivenSeed) {
  const data::PairDataset train = ToyDataset(60, 13);
  AdamelConfig config;
  config.epochs = 3;
  config.seed = 77;
  const AdamelTrainer trainer(config);
  MelInputs inputs;
  inputs.source_train = &train;
  const std::vector<float> a =
      trainer.Fit(AdamelVariant::kBase, inputs).ScorePairs(train);
  const std::vector<float> b =
      trainer.Fit(AdamelVariant::kBase, inputs).ScorePairs(train);
  EXPECT_EQ(a, b);
}

TEST(AdamelTrainerTest, HistoryHasOneEntryPerEpoch) {
  const data::PairDataset train = ToyDataset(60, 14);
  AdamelConfig config;
  config.epochs = 5;
  const AdamelTrainer trainer(config);
  MelInputs inputs;
  inputs.source_train = &train;
  std::vector<EpochStats> history;
  trainer.Fit(AdamelVariant::kBase, inputs, &history);
  EXPECT_EQ(history.size(), 5u);
  // Loss should broadly decrease on a learnable task.
  EXPECT_LT(history.back().base_loss, history.front().base_loss);
}

TEST(AdamelTrainerTest, SkipsOptimizerStepOnNonFiniteGradientNorm) {
  // A huge learning rate drives the weights until the forward overflows and
  // the gradient norm turns inf/NaN. Those steps must be skipped (and
  // counted): stepping would write NaN into every weight.
  const data::PairDataset train = ToyDataset(60, 28);
  AdamelConfig config;
  config.epochs = 3;
  config.learning_rate = 1e30f;
  const AdamelTrainer trainer(config);
  MelInputs inputs;
  inputs.source_train = &train;
  std::vector<EpochStats> history;
  const TrainedAdamel trained =
      trainer.Fit(AdamelVariant::kBase, inputs, &history);
  int skipped = 0;
  for (const EpochStats& stats : history) {
    skipped += stats.skipped_steps;
  }
  EXPECT_GT(skipped, 0) << "the setup no longer produces a non-finite norm";
  for (const nn::NamedTensor& param : trained.model().NamedParameters()) {
    for (const float v : param.second.data()) {
      ASSERT_FALSE(std::isnan(v)) << param.first;
    }
  }
}

TEST(AdamelTrainerTest, ZeroVariantUsesTargetLoss) {
  const data::PairDataset train = ToyDataset(60, 15);
  const data::PairDataset target = ToyDataset(60, 16).WithoutLabels();
  AdamelConfig config;
  config.epochs = 3;
  const AdamelTrainer trainer(config);
  MelInputs inputs;
  inputs.source_train = &train;
  inputs.target_unlabeled = &target;
  std::vector<EpochStats> history;
  trainer.Fit(AdamelVariant::kZero, inputs, &history);
  EXPECT_GT(history.front().target_loss, 0.0);
  EXPECT_EQ(history.front().support_loss, 0.0);
}

TEST(AdamelTrainerTest, FewVariantUsesSupportLoss) {
  const data::PairDataset train = ToyDataset(60, 17);
  const data::PairDataset support = ToyDataset(20, 18);
  AdamelConfig config;
  config.epochs = 3;
  const AdamelTrainer trainer(config);
  MelInputs inputs;
  inputs.source_train = &train;
  inputs.support = &support;
  std::vector<EpochStats> history;
  trainer.Fit(AdamelVariant::kFew, inputs, &history);
  EXPECT_GT(history.front().support_loss, 0.0);
  EXPECT_EQ(history.front().target_loss, 0.0);
}

TEST(AdamelTrainerTest, SupportLossAveragedOverSupportStepsOnly) {
  // Regression: with support_every > 1 the support loss used to be divided
  // by the total batch count even though it was only computed on every k-th
  // batch, understating it by a factor of ~k. With batch_size 32 over 320
  // pairs there are 10 batches; support_every = 10 means exactly one
  // support step per epoch. An untrained model's unweighted BCE is ~ln 2 ≈
  // 0.69 — the buggy average reported ~0.069.
  const data::PairDataset train = ToyDataset(320, 19);
  const data::PairDataset support = ToyDataset(20, 20);
  AdamelConfig config;
  config.epochs = 1;
  config.batch_size = 32;
  config.support_every = 10;
  config.support_deviation_weights = false;
  const AdamelTrainer trainer(config);
  MelInputs inputs;
  inputs.source_train = &train;
  inputs.support = &support;
  std::vector<EpochStats> history;
  trainer.Fit(AdamelVariant::kFew, inputs, &history);
  ASSERT_EQ(history.size(), 1u);
  EXPECT_GT(history.front().support_loss, 0.3);
}

TEST(AdamelTrainerTest, LambdaOneDisablesBaseSupervision) {
  // At lambda = 1 the model has no label supervision (Figure 8's cliff):
  // predictions should be near-chance on the toy task.
  const data::PairDataset train = ToyDataset(200, 19);
  const data::PairDataset target = ToyDataset(100, 20).WithoutLabels();
  const data::PairDataset test = ToyDataset(100, 21);
  AdamelConfig config;
  config.epochs = 10;
  config.lambda = 1.0f;
  const AdamelTrainer trainer(config);
  MelInputs inputs;
  inputs.source_train = &train;
  inputs.target_unlabeled = &target;
  const TrainedAdamel model = trainer.Fit(AdamelVariant::kZero, inputs);
  std::vector<int> labels;
  for (const auto& pair : test.pairs()) {
    labels.push_back(pair.label == data::kMatch ? 1 : 0);
  }
  // Chance AP is the positive prevalence (~0.5); a supervised model hits
  // ~1.0 (see LearnsSeparableToyTask).
  EXPECT_LT(eval::AveragePrecision(model.ScorePairs(test), labels), 0.85);
}

TEST(AdamelTrainerTest, AttentionVectorsMatchFeatureCount) {
  const data::PairDataset train = ToyDataset(40, 22);
  AdamelConfig config;
  config.epochs = 2;
  const AdamelTrainer trainer(config);
  MelInputs inputs;
  inputs.source_train = &train;
  const TrainedAdamel model = trainer.Fit(AdamelVariant::kBase, inputs);
  const auto vectors = model.AttentionVectors(train);
  ASSERT_EQ(vectors.size(), 40u);
  EXPECT_EQ(vectors[0].size(), 4u);  // 2 attributes x shared/unique
}

TEST(AdamelTrainerTest, MeanAttentionSortedAndNormalized) {
  const data::PairDataset train = ToyDataset(40, 23);
  AdamelConfig config;
  config.epochs = 2;
  const AdamelTrainer trainer(config);
  MelInputs inputs;
  inputs.source_train = &train;
  const TrainedAdamel model = trainer.Fit(AdamelVariant::kBase, inputs);
  const auto importance = model.MeanAttention(train);
  ASSERT_EQ(importance.size(), 4u);
  double total = 0.0;
  for (size_t i = 0; i < importance.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(importance[i - 1].second, importance[i].second);
    }
    total += importance[i].second;
  }
  EXPECT_NEAR(total, 1.0, 1e-4);
}

TEST(AdamelTrainerTest, LearnsToAttendToInformativeAttribute) {
  // The "key" attribute decides the label; "noise" is random. The learned
  // attention should rank a key feature above both noise features.
  const data::PairDataset train = ToyDataset(400, 24);
  AdamelConfig config;
  config.epochs = 15;
  const AdamelTrainer trainer(config);
  MelInputs inputs;
  inputs.source_train = &train;
  const TrainedAdamel model = trainer.Fit(AdamelVariant::kBase, inputs);
  const auto importance = model.MeanAttention(train);
  EXPECT_NE(importance[0].first.find("key"), std::string::npos)
      << "top feature was " << importance[0].first;
}

// ------------------------------------------------- graph-free inference

// Bitwise equality (EXPECT_EQ on floats would equate -0 and +0).
bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

data::PairDataset FirstPairs(const data::PairDataset& dataset, int n) {
  data::PairDataset out(dataset.schema());
  for (int i = 0; i < n; ++i) {
    out.Add(dataset.pairs()[i]);
  }
  return out;
}

TrainedAdamel TrainInferenceModel() {
  const data::PairDataset train = ToyDataset(120, 29);
  AdamelConfig config;
  config.epochs = 2;
  config.seed = 5;
  MelInputs inputs;
  inputs.source_train = &train;
  TrainedAdamel trained = AdamelTrainer(config).Fit(AdamelVariant::kBase,
                                                    inputs);
  EXPECT_TRUE(trained.EnableQuantizedScoring(data::PairSpan(train)).ok());
  return trained;
}

TEST(InferenceForwardTest, MatchesAutogradForwardBitwise) {
  const TrainedAdamel trained = TrainInferenceModel();
  // 513 crosses the 512-pair prediction chunk.
  const data::PairDataset pool = ToyDataset(513, 30);
  for (const int threads : {1, 4}) {
    SetNumThreads(threads);
    for (const nn::kernels::Isa isa : nn::kernels::AvailableIsas()) {
      nn::kernels::SetBackendForTesting(isa);
      for (const int batch : {1, 16, 64, 513}) {
        SCOPED_TRACE(std::string(nn::kernels::IsaName(isa)) + " threads=" +
                     std::to_string(threads) +
                     " batch=" + std::to_string(batch));
        const data::PairDataset pairs = FirstPairs(pool, batch);
        const nn::Tensor h = trained.extractor().Featurize(pairs).matrix;
        const std::vector<float> autograd_scores =
            nn::Sigmoid(trained.model().Forward(h).logits).ToVector();
        const std::vector<float> autograd_attention =
            trained.model().ForwardAttention(h).ToVector();
        EXPECT_TRUE(SameBits(trained.ScorePairs(pairs), autograd_scores));
        std::vector<float> attention;
        for (const std::vector<float>& row : trained.AttentionVectors(pairs)) {
          attention.insert(attention.end(), row.begin(), row.end());
        }
        EXPECT_TRUE(SameBits(attention, autograd_attention));
      }
    }
  }
  nn::kernels::ResetBackendForTesting();
  SetNumThreads(0);
}

TEST(InferenceForwardTest, QuantizedScoresAreBackendPoolAndBatchInvariant) {
  const TrainedAdamel trained = TrainInferenceModel();
  const data::PairDataset pool = ToyDataset(513, 31);
  nn::kernels::SetBackendForTesting(nn::kernels::Isa::kScalar);
  SetNumThreads(1);
  const std::vector<float> reference =
      trained.ScorePairsQuantized(pool).value();
  std::vector<float> one_by_one;
  for (int i = 0; i < 20; ++i) {
    const std::vector<float> single =
        trained.ScorePairsQuantized(data::PairSpan(pool).Subspan(i, 1))
            .value();
    one_by_one.push_back(single[0]);
  }
  EXPECT_TRUE(SameBits(one_by_one, std::vector<float>(reference.begin(),
                                                     reference.begin() + 20)));
  for (const int threads : {1, 4}) {
    SetNumThreads(threads);
    for (const nn::kernels::Isa isa : nn::kernels::AvailableIsas()) {
      nn::kernels::SetBackendForTesting(isa);
      EXPECT_TRUE(SameBits(trained.ScorePairsQuantized(pool).value(),
                           reference))
          << nn::kernels::IsaName(isa) << " threads=" << threads;
    }
  }
  nn::kernels::ResetBackendForTesting();
  SetNumThreads(0);
}

// Forwards to another ForwardGemms, recording the highest live autograd
// node count seen at any GEMM of the forward.
class NodeCountingGemms final : public ForwardGemms {
 public:
  explicit NodeCountingGemms(const ForwardGemms& inner) : inner_(inner) {}
  void Gemm(GemmFamily family, int feature, const float* a, int m,
            float* c) const override {
    max_live_ = std::max(max_live_, nn::debug::LiveNodeCount());
    inner_.Gemm(family, feature, a, m, c);
  }
  int64_t max_live() const { return max_live_; }

 private:
  const ForwardGemms& inner_;
  mutable int64_t max_live_ = 0;
};

TEST(InferenceForwardTest, ServingBuildsNoAutogradNodes) {
  if (!nn::debug::kDebugChecksEnabled) {
    GTEST_SKIP() << "node accounting needs ADAMEL_DEBUG_CHECKS";
  }
  const TrainedAdamel trained = TrainInferenceModel();
  const data::PairDataset pairs = ToyDataset(40, 32);
  const int64_t before = nn::debug::LiveNodeCount();
  EXPECT_EQ(trained.ScorePairs(pairs).size(), 40u);
  EXPECT_EQ(trained.ScorePairsQuantized(pairs).value().size(), 40u);
  EXPECT_EQ(nn::debug::LiveNodeCount(), before);

  // Stronger than before/after: no node is alive mid-forward beyond the
  // featurized input itself.
  const FeaturizedPairs features = trained.extractor().Featurize(pairs);
  const PackedAdamel packed(trained.model());
  const NodeCountingGemms counting(packed);
  const int64_t baseline = nn::debug::LiveNodeCount();
  std::vector<float> scores(40);
  RunForward(packed.params(), counting, features.matrix.data().data(), 40,
             scores.data(), /*attention=*/nullptr);
  EXPECT_EQ(counting.max_live(), baseline);
}

TEST(AdamelLinkageTest, ImplementsInterfaceEndToEnd) {
  const data::PairDataset train = ToyDataset(80, 25);
  const data::PairDataset target = ToyDataset(40, 26).WithoutLabels();
  const data::PairDataset support = ToyDataset(20, 27);
  AdamelConfig config;
  config.epochs = 3;
  AdamelLinkage linkage(AdamelVariant::kHyb, config);
  EXPECT_EQ(linkage.Name(), "AdaMEL-hyb");
  MelInputs inputs;
  inputs.source_train = &train;
  inputs.target_unlabeled = &target;
  inputs.support = &support;
  ASSERT_TRUE(linkage.Fit(inputs).ok());
  EXPECT_EQ(linkage.ScorePairs(train).value().size(), 80u);
  EXPECT_GT(linkage.ParameterCount(), 0);
}

TEST(VariantNameTest, AllNamesStable) {
  EXPECT_STREQ(AdamelVariantName(AdamelVariant::kBase), "AdaMEL-base");
  EXPECT_STREQ(AdamelVariantName(AdamelVariant::kZero), "AdaMEL-zero");
  EXPECT_STREQ(AdamelVariantName(AdamelVariant::kFew), "AdaMEL-few");
  EXPECT_STREQ(AdamelVariantName(AdamelVariant::kHyb), "AdaMEL-hyb");
}

}  // namespace
}  // namespace adamel::core
