#include "core/inference.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.h"
#include "nn/kernels/kernels.h"
#include "nn/ops.h"

namespace adamel::core {
namespace {

const nn::Tensor& FindParam(const std::vector<nn::NamedTensor>& params,
                            const std::string& name) {
  for (const nn::NamedTensor& p : params) {
    if (p.first == name) {
      return p.second;
    }
  }
  ADAMEL_CHECK(false) << "AdamelModel has no parameter " << name;
  return params.front().second;
}

// c (m x bias.size()) += bias per row: nn::Add of a 1 x n bias, as
// nn::Linear::Forward applies it after the MatMul.
void AddBias(const std::vector<float>& bias, int m, float* c) {
  const size_t n = bias.size();
  for (int r = 0; r < m; ++r) {
    float* row = c + static_cast<size_t>(r) * n;
    for (size_t j = 0; j < n; ++j) {
      row[j] += bias[j];
    }
  }
}

// nn::Sigmoid's expression; the branch keeps exp() off large positive
// arguments.
float Sigmoid(float v) {
  return v >= 0.0f ? 1.0f / (1.0f + std::exp(-v))
                   : std::exp(v) / (1.0f + std::exp(v));
}

}  // namespace

std::pair<int, int> ForwardParams::GemmShape(GemmFamily family) const {
  switch (family) {
    case GemmFamily::kProjection:
      return {embed_dim, latent_dim};
    case GemmFamily::kAttention:
      return {latent_dim, attention_dim};
    case GemmFamily::kClassifier0:
      return {feature_count * latent_dim, hidden_dim};
    case GemmFamily::kClassifier1:
      return {hidden_dim, 1};
  }
  ADAMEL_CHECK(false) << "unknown GEMM family";
  return {0, 0};
}

const nn::Tensor& ForwardWeight(const std::vector<nn::NamedTensor>& params,
                                GemmFamily family, int feature) {
  switch (family) {
    case GemmFamily::kProjection:
      return FindParam(params,
                       "projection" + std::to_string(feature) + ".weight");
    case GemmFamily::kAttention:
      return FindParam(params, "attention.w");
    case GemmFamily::kClassifier0:
      return FindParam(params, "classifier.layer0.weight");
    case GemmFamily::kClassifier1:
      return FindParam(params, "classifier.layer1.weight");
  }
  ADAMEL_CHECK(false) << "unknown GEMM family";
  return params.front().second;
}

void RunForward(const ForwardParams& params, const ForwardGemms& gemms,
                const float* h, int rows, float* scores, float* attention) {
  ADAMEL_CHECK_GT(rows, 0);
  const nn::kernels::KernelBackend& backend = nn::kernels::Active();
  const int m = rows;
  const int f = params.feature_count;
  const int d = params.embed_dim;
  const int l = params.latent_dim;
  const int att = params.attention_dim;
  const size_t latent_size = static_cast<size_t>(m) * l;

  // Eq. (4)-(5) per feature. latents holds x_j (m x l) at j * latent_size.
  std::vector<float> h_j(static_cast<size_t>(m) * d);
  std::vector<float> latents(f * latent_size);
  std::vector<float> t(static_cast<size_t>(m) * att);
  std::vector<float> e_j(static_cast<size_t>(m));
  std::vector<float> probs(static_cast<size_t>(m) * f);
  for (int j = 0; j < f; ++j) {
    // Eq. (4): x_j = relu(h_j V_j + b_j).
    for (int r = 0; r < m; ++r) {
      const float* src = h + (static_cast<size_t>(r) * f + j) * d;
      std::copy(src, src + d, h_j.data() + static_cast<size_t>(r) * d);
    }
    float* x_j = latents.data() + j * latent_size;
    gemms.Gemm(GemmFamily::kProjection, j, h_j.data(), m, x_j);
    AddBias(params.projection_bias[j], m, x_j);
    backend.relu(x_j, x_j, static_cast<int64_t>(latent_size));
    // Eq. (5): e_j = a^T tanh(W x_j).
    gemms.Gemm(GemmFamily::kAttention, j, x_j, m, t.data());
    for (float& v : t) {
      v = std::tanh(v);
    }
    nn::MatMulPacked(t.data(), m, att, params.attention_a_packed.data(), 1,
                     e_j.data());
    for (int r = 0; r < m; ++r) {
      probs[static_cast<size_t>(r) * f + j] = e_j[r];
    }
  }

  // Eq. (6): row softmax over the feature energies.
  for (int r = 0; r < m; ++r) {
    float* row = probs.data() + static_cast<size_t>(r) * f;
    const float row_max = backend.row_max(row, f);
    double denom = 0.0;
    for (int c = 0; c < f; ++c) {
      const float e = std::exp(row[c] - row_max);
      row[c] = e;
      denom += e;
    }
    backend.scale(row, static_cast<float>(1.0 / denom), row, f);
  }
  if (attention != nullptr) {
    std::copy(probs.begin(), probs.end(), attention);
  }
  if (scores == nullptr) {
    return;
  }

  // Eq. (7): gate each latent by its attention score, relu, concatenate,
  // classify, squash.
  std::vector<float> gated(static_cast<size_t>(m) * f * l);
  for (int r = 0; r < m; ++r) {
    for (int j = 0; j < f; ++j) {
      backend.scale(latents.data() + j * latent_size +
                        static_cast<size_t>(r) * l,
                    probs[static_cast<size_t>(r) * f + j],
                    gated.data() + (static_cast<size_t>(r) * f + j) * l, l);
    }
  }
  backend.relu(gated.data(), gated.data(),
               static_cast<int64_t>(gated.size()));
  std::vector<float> hidden(static_cast<size_t>(m) * params.hidden_dim);
  gemms.Gemm(GemmFamily::kClassifier0, 0, gated.data(), m, hidden.data());
  AddBias(params.classifier0_bias, m, hidden.data());
  backend.relu(hidden.data(), hidden.data(),
               static_cast<int64_t>(hidden.size()));
  gemms.Gemm(GemmFamily::kClassifier1, 0, hidden.data(), m, scores);
  AddBias(params.classifier1_bias, m, scores);
  for (int r = 0; r < m; ++r) {
    scores[r] = Sigmoid(scores[r]);
  }
}

PackedAdamel::PackedAdamel(const AdamelModel& model) {
  const AdamelConfig& config = model.config();
  params_.feature_count = model.feature_count();
  params_.embed_dim = config.embed_dim;
  params_.latent_dim = config.latent_dim;
  params_.attention_dim = config.attention_dim;
  params_.hidden_dim = config.hidden_dim;

  const std::vector<nn::NamedTensor> named = model.NamedParameters();
  const auto pack = [&](GemmFamily family, int feature) {
    const auto [k, n] = params_.GemmShape(family);
    const nn::Tensor& w = ForwardWeight(named, family, feature);
    ADAMEL_CHECK(w.rows() == k && w.cols() == n);
    packed_.push_back(nn::kernels::PackPanelsF32(w.data().data(), k, n));
  };
  for (int j = 0; j < params_.feature_count; ++j) {
    pack(GemmFamily::kProjection, j);
    params_.projection_bias.push_back(
        FindParam(named, "projection" + std::to_string(j) + ".bias").data());
  }
  for (const GemmFamily family : kSharedGemms) {
    pack(family, 0);
  }
  params_.attention_a = FindParam(named, "attention.a").data();
  params_.attention_a_packed = nn::kernels::PackPanelsF32(
      params_.attention_a.data(), params_.attention_dim, 1);
  params_.classifier0_bias = FindParam(named, "classifier.layer0.bias").data();
  params_.classifier1_bias = FindParam(named, "classifier.layer1.bias").data();
}

void PackedAdamel::Gemm(GemmFamily family, int feature, const float* a,
                        int m, float* c) const {
  const auto [k, n] = params_.GemmShape(family);
  nn::MatMulPacked(a, m, k,
                   packed_[params_.GemmIndex(family, feature)].data(), n, c);
}

}  // namespace adamel::core
