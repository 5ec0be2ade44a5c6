#include "baselines/entitymatcher.h"

#include <cmath>
#include <numeric>

#include "common/check.h"
#include "nn/ops.h"
#include "nn/optim.h"

namespace adamel::baselines {
namespace {

constexpr int kAttributeHidden = 96;
constexpr int kEntityHidden = 768;

// Best cosine similarity of `token_vec` against each row of `others`.
float BestCosine(const std::vector<float>& token_vec,
                 const std::vector<std::vector<float>>& others) {
  float best = 0.0f;
  for (const auto& other : others) {
    best = std::max(best, text::CosineSimilarity(token_vec, other));
  }
  return best;
}

}  // namespace

struct EntityMatcherModel::Network : nn::Module {
  Network(int attributes, Rng* rng)
      : entity_mlp({attributes * kAttributeHidden, kEntityHidden, 256, 1},
                   nn::Activation::kRelu, rng) {
    attribute_layers.reserve(attributes);
    for (int a = 0; a < attributes; ++a) {
      attribute_layers.emplace_back(2 * kAlignFeatures, kAttributeHidden,
                                    rng);
    }
  }

  std::vector<nn::Linear> attribute_layers;
  nn::Mlp entity_mlp;

  nn::Tensor Forward(const nn::Tensor& features) const {
    // features: N x (attrs * 2 * kAlignFeatures); per-attribute projection
    // then wide entity-level aggregation.
    std::vector<nn::Tensor> per_attribute;
    per_attribute.reserve(attribute_layers.size());
    for (size_t a = 0; a < attribute_layers.size(); ++a) {
      const nn::Tensor slice = nn::SliceCols(
          features, static_cast<int>(a) * 2 * kAlignFeatures,
          2 * kAlignFeatures);
      per_attribute.push_back(
          nn::Relu(attribute_layers[a].Forward(slice)));
    }
    return entity_mlp.Forward(nn::ConcatCols(per_attribute));
  }

  std::vector<nn::Tensor> Parameters() const override {
    std::vector<nn::Tensor> params;
    for (const nn::Linear& layer : attribute_layers) {
      for (const nn::Tensor& p : layer.Parameters()) {
        params.push_back(p);
      }
    }
    for (const nn::Tensor& p : entity_mlp.Parameters()) {
      params.push_back(p);
    }
    return params;
  }
};

EntityMatcherModel::EntityMatcherModel(BaselineConfig config)
    : config_(config) {}

EntityMatcherModel::~EntityMatcherModel() = default;

std::vector<float> EntityMatcherModel::AlignmentFeatures(
    const TokenizedPair& pair) const {
  const int attrs = static_cast<int>(pair.left_tokens.size());

  // Pre-embed every token once; build the flattened "other record" pools
  // for cross-attribute alignment.
  auto embed_all = [&](const std::vector<std::vector<std::string>>& tokens) {
    std::vector<std::vector<std::vector<float>>> result(attrs);
    for (int a = 0; a < attrs; ++a) {
      for (const std::string& token : tokens[a]) {
        result[a].push_back(embedding_->EmbedToken(token));
      }
    }
    return result;
  };
  const auto left = embed_all(pair.left_tokens);
  const auto right = embed_all(pair.right_tokens);
  std::vector<std::vector<float>> left_pool;
  std::vector<std::vector<float>> right_pool;
  for (int a = 0; a < attrs; ++a) {
    left_pool.insert(left_pool.end(), left[a].begin(), left[a].end());
    right_pool.insert(right_pool.end(), right[a].begin(), right[a].end());
  }

  std::vector<float> features;
  features.reserve(attrs * 2 * kAlignFeatures);
  auto direction = [&](const std::vector<std::vector<float>>& mine,
                       const std::vector<std::vector<float>>& same_attr,
                       const std::vector<std::vector<float>>& pool) {
    // kAlignFeatures stats for one attribute, one direction.
    if (mine.empty()) {
      features.insert(features.end(), kAlignFeatures, 0.0f);
      return;
    }
    // Mean-pooled alignment scores: the learned-attention alignment of the
    // original averages soft matches over all tokens, so decoration and
    // drift tokens dilute the score on shifted sources — the behaviour that
    // makes EntityMatcher source-sensitive in the MEL experiments.
    float sum_cross = 0.0f;
    float sum_same = 0.0f;
    float sum_sq_cross = 0.0f;
    int covered = 0;
    for (const auto& vec : mine) {
      const float cross = pool.empty() ? 0.0f : BestCosine(vec, pool);
      const float same = same_attr.empty() ? 0.0f : BestCosine(vec, same_attr);
      sum_cross += cross;
      sum_sq_cross += cross * cross;
      sum_same += same;
      if (cross > 0.9f) {
        ++covered;
      }
    }
    const float n = static_cast<float>(mine.size());
    features.push_back(sum_cross / n);
    features.push_back(sum_sq_cross / n);
    features.push_back(sum_same / n);
    features.push_back(static_cast<float>(covered) / n);
    features.push_back(n / static_cast<float>(config_.token_crop));
    features.push_back(1.0f);  // attribute-present indicator
  };
  for (int a = 0; a < attrs; ++a) {
    direction(left[a], right[a], right_pool);
    direction(right[a], left[a], left_pool);
  }
  return features;
}

nn::Tensor EntityMatcherModel::FeaturizeDataset(
    const std::vector<TokenizedPair>& pairs) const {
  const int attrs = static_cast<int>(pairs.front().left_tokens.size());
  const int width = attrs * 2 * kAlignFeatures;
  std::vector<float> values;
  values.reserve(pairs.size() * width);
  for (const TokenizedPair& pair : pairs) {
    const std::vector<float> row = AlignmentFeatures(pair);
    values.insert(values.end(), row.begin(), row.end());
  }
  return nn::Tensor::FromVector(static_cast<int>(pairs.size()), width,
                                std::move(values));
}

Status EntityMatcherModel::Fit(const core::MelInputs& inputs) {
  ADAMEL_RETURN_IF_ERROR(core::ValidateMelInputs(inputs));
  schema_ = inputs.source_train->schema();
  Rng rng(config_.seed);
  const data::PairDataset train =
      CapTrainingPairs(*inputs.source_train, config_.max_train_pairs, &rng);
  const std::vector<TokenizedPair> pairs =
      TokenizeDataset(train, config_.token_crop);

  embedding_ = std::make_unique<text::HashTextEmbedding>(
      text::EmbeddingOptions{.dim = config_.embed_dim});
  network_ = std::make_unique<Network>(schema_.size(), &rng);
  const nn::Tensor features = FeaturizeDataset(pairs);
  std::vector<float> labels;
  for (const TokenizedPair& pair : pairs) {
    labels.push_back(pair.label);
  }

  nn::Adam optimizer(network_->Parameters(), config_.learning_rate);
  std::vector<int> order(pairs.size());
  std::iota(order.begin(), order.end(), 0);
  const auto batch_loss = [&](int, const std::vector<int>& rows) {
    std::vector<float> batch_labels;
    for (int i : rows) {
      batch_labels.push_back(labels[i]);
    }
    return nn::BceWithLogits(
        network_->Forward(nn::SelectRows(features, rows)), batch_labels);
  };
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(order);
    nn::TrainEpoch(&optimizer, order, config_.batch_size, config_.grad_clip,
                   batch_loss);
  }
  return OkStatus();
}

StatusOr<std::vector<float>> EntityMatcherModel::ScorePairs(
    data::PairSpan batch) const {
  if (network_ == nullptr) {
    return FailedPreconditionError(Name() + ": ScorePairs before Fit");
  }
  const data::PairDataset projected = batch.ToDataset().Reproject(schema_);
  const std::vector<TokenizedPair> pairs =
      TokenizeDataset(projected, config_.token_crop);
  const nn::Tensor features = FeaturizeDataset(pairs);
  const nn::Tensor probs = nn::Sigmoid(network_->Forward(features));
  std::vector<float> scores(probs.rows());
  for (int i = 0; i < probs.rows(); ++i) {
    scores[i] = probs.At(i, 0);
  }
  return scores;
}

int64_t EntityMatcherModel::ParameterCount() const {
  ADAMEL_CHECK(network_ != nullptr);
  return network_->ParameterCount();
}

}  // namespace adamel::baselines
