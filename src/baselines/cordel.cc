#include "baselines/cordel.h"

#include <numeric>

#include "common/check.h"
#include "nn/ops.h"
#include "nn/optim.h"
#include "text/tokenizer.h"

namespace adamel::baselines {

struct CorDelModel::Network : nn::Module {
  Network(int embed_dim, int attributes, Rng* rng)
      : shared_query(nn::Tensor::XavierUniform(embed_dim, 1, rng)),
        unique_query(nn::Tensor::XavierUniform(embed_dim, 1, rng)),
        classifier({attributes * 2 * embed_dim, 128, 1},
                   nn::Activation::kRelu, rng) {}

  // Word-level attention queries for the shared / unique token groups.
  nn::Tensor shared_query;
  nn::Tensor unique_query;
  nn::Mlp classifier;

  std::vector<nn::Tensor> Parameters() const override {
    std::vector<nn::Tensor> params = {shared_query, unique_query};
    for (const nn::Tensor& p : classifier.Parameters()) {
      params.push_back(p);
    }
    return params;
  }
};

CorDelModel::CorDelModel(BaselineConfig config) : config_(config) {}

CorDelModel::~CorDelModel() = default;

namespace {

// Attention-pooled summary (1 x D) of a token group.
nn::Tensor AttentionPool(const text::HashTextEmbedding& embedding,
                         const std::vector<std::string>& tokens,
                         const nn::Tensor& query) {
  const nn::Tensor sequence = EmbedSequence(embedding, tokens);  // T x D
  const nn::Tensor weights =
      nn::Softmax(nn::Transpose(nn::MatMul(sequence, query)));  // 1 x T
  return nn::MatMul(weights, sequence);                         // 1 x D
}

}  // namespace

nn::Tensor CorDelModel::PairLogit(const TokenizedPair& pair) const {
  const int attrs = static_cast<int>(pair.left_tokens.size());
  std::vector<nn::Tensor> parts;
  parts.reserve(2 * attrs);
  for (int a = 0; a < attrs; ++a) {
    // Compare-and-contrast at the token level before any embedding math.
    const text::TokenContrast contrast =
        text::ContrastTokens(pair.left_tokens[a], pair.right_tokens[a]);
    parts.push_back(AttentionPool(*embedding_, contrast.shared,
                                  network_->shared_query));
    parts.push_back(AttentionPool(*embedding_, contrast.unique,
                                  network_->unique_query));
  }
  return network_->classifier.Forward(nn::ConcatCols(parts));
}

Status CorDelModel::Fit(const core::MelInputs& inputs) {
  ADAMEL_RETURN_IF_ERROR(core::ValidateMelInputs(inputs));
  schema_ = inputs.source_train->schema();
  Rng rng(config_.seed);
  const data::PairDataset train =
      CapTrainingPairs(*inputs.source_train, config_.max_train_pairs, &rng);
  const std::vector<TokenizedPair> pairs =
      TokenizeDataset(train, config_.token_crop);

  embedding_ = std::make_unique<text::HashTextEmbedding>(
      text::EmbeddingOptions{.dim = config_.embed_dim});
  network_ =
      std::make_unique<Network>(config_.embed_dim, schema_.size(), &rng);
  nn::Adam optimizer(network_->Parameters(), config_.learning_rate);

  std::vector<int> order(pairs.size());
  std::iota(order.begin(), order.end(), 0);
  const auto batch_loss = [&](int, const std::vector<int>& rows) {
    std::vector<nn::Tensor> logits;
    std::vector<float> labels;
    for (int i : rows) {
      logits.push_back(PairLogit(pairs[i]));
      labels.push_back(pairs[i].label);
    }
    return nn::BceWithLogits(nn::ConcatRows(logits), labels);
  };
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(order);
    nn::TrainEpoch(&optimizer, order, config_.batch_size, config_.grad_clip,
                   batch_loss);
  }
  return OkStatus();
}

StatusOr<std::vector<float>> CorDelModel::ScorePairs(
    data::PairSpan batch) const {
  if (network_ == nullptr) {
    return FailedPreconditionError(Name() + ": ScorePairs before Fit");
  }
  const data::PairDataset projected = batch.ToDataset().Reproject(schema_);
  const std::vector<TokenizedPair> pairs =
      TokenizeDataset(projected, config_.token_crop);
  std::vector<float> scores;
  scores.reserve(pairs.size());
  for (const TokenizedPair& pair : pairs) {
    scores.push_back(nn::Sigmoid(PairLogit(pair)).At(0, 0));
  }
  return scores;
}

int64_t CorDelModel::ParameterCount() const {
  ADAMEL_CHECK(network_ != nullptr);
  return network_->ParameterCount();
}

}  // namespace adamel::baselines
