#include "baselines/ditto_like.h"

#include <cmath>
#include <numeric>

#include "common/check.h"
#include "nn/ops.h"
#include "nn/optim.h"

namespace adamel::baselines {
namespace {

constexpr int kSummaryTokens = 40;

}  // namespace

struct DittoLikeModel::Network : nn::Module {
  Network(int embed_dim, Rng* rng)
      : head({4 * embed_dim, 256, 64, 1}, nn::Activation::kRelu, rng) {}

  nn::Mlp head;

  std::vector<nn::Tensor> Parameters() const override {
    return head.Parameters();
  }
};

DittoLikeModel::DittoLikeModel(BaselineConfig config) : config_(config) {}

DittoLikeModel::~DittoLikeModel() = default;

std::vector<std::string> DittoLikeModel::Serialize(
    const data::Record& record, const data::Schema& schema,
    const text::Tokenizer& tokenizer) {
  std::vector<std::string> tokens;
  for (int a = 0; a < schema.size(); ++a) {
    tokens.push_back("col");
    tokens.push_back(schema.attribute(a));
    tokens.push_back("val");
    for (std::string& token : tokenizer.Tokenize(record.value(a))) {
      tokens.push_back(std::move(token));
    }
  }
  return tokens;
}

std::vector<float> DittoLikeModel::PoolTokens(
    const std::vector<std::string>& tokens, bool augment, Rng* rng) const {
  // TF-IDF summarization first (Ditto's "retain high TF-IDF tokens").
  std::vector<std::string> kept = tfidf_.Summarize(tokens, kSummaryTokens);
  // Span-deletion augmentation: drop a random contiguous ~20% span.
  if (augment && kept.size() > 5 && rng->Bernoulli(0.5)) {
    const int span = std::max(1, static_cast<int>(kept.size()) / 5);
    const int start =
        rng->UniformInt(static_cast<int>(kept.size()) - span + 1);
    kept.erase(kept.begin() + start, kept.begin() + start + span);
  }
  std::vector<float> pooled = embedding_->EmbedTokens(kept);
  const float inv = 1.0f / static_cast<float>(std::max<size_t>(1, kept.size()));
  for (float& v : pooled) {
    v *= inv;
  }
  return pooled;
}

std::vector<float> DittoLikeModel::PairVector(
    const std::vector<std::string>& left,
    const std::vector<std::string>& right, bool augment, Rng* rng) const {
  const std::vector<float> l = PoolTokens(left, augment, rng);
  const std::vector<float> r = PoolTokens(right, augment, rng);
  std::vector<float> vec;
  vec.reserve(4 * l.size());
  vec.insert(vec.end(), l.begin(), l.end());
  vec.insert(vec.end(), r.begin(), r.end());
  for (size_t i = 0; i < l.size(); ++i) {
    vec.push_back(std::fabs(l[i] - r[i]));
  }
  for (size_t i = 0; i < l.size(); ++i) {
    vec.push_back(l[i] * r[i]);
  }
  return vec;
}

Status DittoLikeModel::Fit(const core::MelInputs& inputs) {
  ADAMEL_RETURN_IF_ERROR(core::ValidateMelInputs(inputs));
  schema_ = inputs.source_train->schema();
  Rng rng(config_.seed);
  const data::PairDataset train =
      CapTrainingPairs(*inputs.source_train, config_.max_train_pairs, &rng);

  text::TokenizerOptions tokenizer_options;
  tokenizer_options.crop_size = config_.token_crop;
  const text::Tokenizer tokenizer(tokenizer_options);

  // Serialize all records and fit the TF-IDF model on the training corpus.
  std::vector<std::vector<std::string>> left_serialized;
  std::vector<std::vector<std::string>> right_serialized;
  std::vector<float> labels;
  std::vector<std::vector<std::string>> corpus;
  for (const data::LabeledPair& pair : train.pairs()) {
    left_serialized.push_back(Serialize(pair.left, schema_, tokenizer));
    right_serialized.push_back(Serialize(pair.right, schema_, tokenizer));
    corpus.push_back(left_serialized.back());
    corpus.push_back(right_serialized.back());
    labels.push_back(pair.label == data::kMatch ? 1.0f : 0.0f);
  }
  // adamel-lint: allow-next-line(unchecked-status) -- TfIdf::Fit returns void
  tfidf_.Fit(corpus);

  embedding_ = std::make_unique<text::HashTextEmbedding>(
      text::EmbeddingOptions{.dim = config_.embed_dim});
  network_ = std::make_unique<Network>(config_.embed_dim, &rng);
  nn::Adam optimizer(network_->Parameters(), config_.learning_rate);

  std::vector<int> order(labels.size());
  std::iota(order.begin(), order.end(), 0);
  // The pooled representation is recomputed per batch because augmentation
  // re-samples spans (token embeddings themselves are cached).
  const auto batch_loss = [&](int, const std::vector<int>& rows) {
    std::vector<float> batch_values;
    std::vector<float> batch_labels;
    for (int i : rows) {
      const std::vector<float> vec =
          PairVector(left_serialized[i], right_serialized[i],
                     /*augment=*/true, &rng);
      batch_values.insert(batch_values.end(), vec.begin(), vec.end());
      batch_labels.push_back(labels[i]);
    }
    const nn::Tensor batch =
        nn::Tensor::FromVector(static_cast<int>(rows.size()),
                               4 * config_.embed_dim, std::move(batch_values));
    return nn::BceWithLogits(network_->head.Forward(batch), batch_labels);
  };
  const int epochs = config_.epochs * 2;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    rng.Shuffle(order);
    nn::TrainEpoch(&optimizer, order, config_.batch_size, config_.grad_clip,
                   batch_loss);
  }
  return OkStatus();
}

StatusOr<std::vector<float>> DittoLikeModel::ScorePairs(
    data::PairSpan batch) const {
  if (network_ == nullptr) {
    return FailedPreconditionError(Name() + ": ScorePairs before Fit");
  }
  const data::PairDataset projected = batch.ToDataset().Reproject(schema_);
  text::TokenizerOptions tokenizer_options;
  tokenizer_options.crop_size = config_.token_crop;
  const text::Tokenizer tokenizer(tokenizer_options);
  Rng rng(config_.seed + 1);
  std::vector<float> scores;
  scores.reserve(projected.size());
  for (const data::LabeledPair& pair : projected.pairs()) {
    const std::vector<float> vec = PairVector(
        Serialize(pair.left, schema_, tokenizer),
        Serialize(pair.right, schema_, tokenizer), /*augment=*/false, &rng);
    const nn::Tensor input = nn::Tensor::FromVector(
        1, 4 * config_.embed_dim, vec);
    scores.push_back(nn::Sigmoid(network_->head.Forward(input)).At(0, 0));
  }
  return scores;
}

int64_t DittoLikeModel::ParameterCount() const {
  ADAMEL_CHECK(network_ != nullptr);
  return network_->ParameterCount();
}

}  // namespace adamel::baselines
