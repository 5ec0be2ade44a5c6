#include "baselines/deepmatcher.h"

#include <numeric>

#include "common/check.h"
#include "nn/ops.h"
#include "nn/optim.h"

namespace adamel::baselines {

struct DeepMatcherModel::Network : nn::Module {
  Network(int embed_dim, int hidden_dim, int attributes, Rng* rng)
      : rnn(embed_dim, hidden_dim, rng),
        attention_query(
            nn::Tensor::XavierUniform(2 * hidden_dim, 1, rng)),
        highway(attributes * 4 * hidden_dim, rng),
        head(attributes * 4 * hidden_dim, 1, rng) {}

  nn::BiGru rnn;
  nn::Tensor attention_query;  // 2H x 1, attention pooling over states
  nn::HighwayLayer highway;
  nn::Linear head;

  std::vector<nn::Tensor> Parameters() const override {
    std::vector<nn::Tensor> params = rnn.Parameters();
    params.push_back(attention_query);
    for (const nn::Tensor& p : highway.Parameters()) {
      params.push_back(p);
    }
    for (const nn::Tensor& p : head.Parameters()) {
      params.push_back(p);
    }
    return params;
  }
};

DeepMatcherModel::DeepMatcherModel(BaselineConfig config) : config_(config) {}

DeepMatcherModel::~DeepMatcherModel() = default;

nn::Tensor DeepMatcherModel::Summarize(const nn::Tensor& sequence) const {
  const nn::Tensor states = network_->rnn.Forward(sequence);  // T x 2H
  // Attention pooling: softmax over timesteps of states * query.
  const nn::Tensor scores =
      nn::Softmax(nn::Transpose(nn::MatMul(states, network_->attention_query)));
  return nn::MatMul(scores, states);  // 1 x 2H
}

nn::Tensor DeepMatcherModel::PairLogit(const TokenizedPair& pair) const {
  std::vector<nn::Tensor> similarity_parts;
  const int attrs = static_cast<int>(pair.left_tokens.size());
  similarity_parts.reserve(attrs);
  for (int a = 0; a < attrs; ++a) {
    const nn::Tensor s_left =
        Summarize(EmbedSequence(*embedding_, pair.left_tokens[a]));
    const nn::Tensor s_right =
        Summarize(EmbedSequence(*embedding_, pair.right_tokens[a]));
    const nn::Tensor diff = nn::Sub(s_left, s_right);
    similarity_parts.push_back(nn::ConcatCols(
        {nn::Sqrt(nn::AddScalar(nn::Square(diff), 1e-12f)),  // |diff|
         nn::Mul(s_left, s_right)}));
  }
  const nn::Tensor features = nn::ConcatCols(similarity_parts);
  return network_->head.Forward(network_->highway.Forward(features));
}

Status DeepMatcherModel::Fit(const core::MelInputs& inputs) {
  ADAMEL_RETURN_IF_ERROR(core::ValidateMelInputs(inputs));
  schema_ = inputs.source_train->schema();
  Rng rng(config_.seed);
  const data::PairDataset train =
      CapTrainingPairs(*inputs.source_train, config_.max_train_pairs, &rng);
  const std::vector<TokenizedPair> pairs =
      TokenizeDataset(train, config_.token_crop);

  embedding_ = std::make_unique<text::HashTextEmbedding>(
      text::EmbeddingOptions{.dim = config_.embed_dim});
  network_ = std::make_unique<Network>(config_.embed_dim, config_.hidden_dim,
                                       schema_.size(), &rng);
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

StatusOr<std::vector<float>> DeepMatcherModel::ScorePairs(
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

int64_t DeepMatcherModel::ParameterCount() const {
  ADAMEL_CHECK(network_ != nullptr);
  return network_->ParameterCount();
}

}  // namespace adamel::baselines
