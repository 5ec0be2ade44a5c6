#include "core/quantized_model.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "common/check.h"
#include "nn/kernels/kernels.h"
#include "nn/tensor.h"

namespace adamel::core {
namespace {

// Inverts kernels::PackPanelsS8 back to a row-major k x n matrix so the
// checkpoint format stays independent of the packed kernel layout.
std::vector<int8_t> UnpackPanelsS8(const nn::QuantizedGemmB& b) {
  using nn::kernels::kGemmPanel;
  using nn::kernels::kQuantKUnroll;
  std::vector<int8_t> rowmajor(static_cast<size_t>(b.k) * b.n);
  const int panels = (b.n + kGemmPanel - 1) / kGemmPanel;
  for (int p = 0; p < panels; ++p) {
    const int j0 = p * kGemmPanel;
    const int width = std::min(kGemmPanel, b.n - j0);
    const int8_t* panel =
        b.packed.data() + static_cast<size_t>(p) * b.k_padded * kGemmPanel;
    for (int kk = 0; kk < b.k; ++kk) {
      const int8_t* line = panel + static_cast<size_t>(kk / kQuantKUnroll) *
                                       kGemmPanel * kQuantKUnroll +
                           (kk % kQuantKUnroll);
      for (int jj = 0; jj < width; ++jj) {
        rowmajor[static_cast<size_t>(kk) * b.n + j0 + jj] =
            line[jj * kQuantKUnroll];
      }
    }
  }
  return rowmajor;
}

void WriteQuantizedB(const nn::QuantizedGemmB& b, nn::BlobWriter* writer) {
  writer->WriteI32(b.k);
  writer->WriteI32(b.n);
  writer->WriteF32(b.scale);
  const std::vector<int8_t> rowmajor = UnpackPanelsS8(b);
  writer->WriteRaw(std::string_view(
      reinterpret_cast<const char*>(rowmajor.data()), rowmajor.size()));
}

Status ReadQuantizedB(nn::BlobReader* reader, nn::QuantizedGemmB* b) {
  int32_t k = 0;
  int32_t n = 0;
  float scale = 0.0f;
  ADAMEL_RETURN_IF_ERROR(reader->ReadI32(&k));
  ADAMEL_RETURN_IF_ERROR(reader->ReadI32(&n));
  ADAMEL_RETURN_IF_ERROR(reader->ReadF32(&scale));
  if (k <= 0 || n <= 0 || scale <= 0.0f || !std::isfinite(scale)) {
    return InvalidArgumentError("bad quantized tensor header");
  }
  std::string_view bytes;
  ADAMEL_RETURN_IF_ERROR(
      reader->ReadRaw(static_cast<size_t>(k) * n, &bytes));
  nn::QuantizedGemmB out;
  out.k = k;
  out.n = n;
  out.k_padded = (k + nn::kernels::kQuantKUnroll - 1) /
                 nn::kernels::kQuantKUnroll * nn::kernels::kQuantKUnroll;
  out.scale = scale;
  out.packed = nn::kernels::PackPanelsS8(
      reinterpret_cast<const int8_t*>(bytes.data()), k, n);
  *b = std::move(out);
  return OkStatus();
}

Status ReadScale(nn::BlobReader* reader, float* scale) {
  ADAMEL_RETURN_IF_ERROR(reader->ReadF32(scale));
  if (!(*scale > 0.0f) || !std::isfinite(*scale)) {
    return InvalidArgumentError("bad activation scale");
  }
  return OkStatus();
}

// Calibration GEMMs: the fp32 GEMMs, recording the max-abs of each int8
// GEMM's input on the way (by ForwardParams::GemmIndex; attention W is
// shared, so its slot takes the max over features).
class MaxAbsObserver final : public ForwardGemms {
 public:
  explicit MaxAbsObserver(const PackedAdamel& fp32)
      : fp32_(fp32),
        max_abs_(static_cast<size_t>(fp32.params().gemm_count()), 0.0f) {}

  void Gemm(GemmFamily family, int feature, const float* a, int m,
            float* c) const override {
    const ForwardParams& params = fp32_.params();
    float& slot = max_abs_[params.GemmIndex(family, feature)];
    slot = std::max(slot, nn::MaxAbs(a, static_cast<int64_t>(m) *
                                            params.GemmShape(family).first));
    fp32_.Gemm(family, feature, a, m, c);
  }

  float Scale(GemmFamily family, int feature) const {
    return nn::SymmetricScale(
        max_abs_[fp32_.params().GemmIndex(family, feature)]);
  }

 private:
  const PackedAdamel& fp32_;
  // Observations, not model state: Gemm is const to fit the forward's
  // interface, and Build runs the observer on one thread.
  mutable std::vector<float> max_abs_;
};

}  // namespace

StatusOr<std::shared_ptr<const QuantizedAdamelModel>>
QuantizedAdamelModel::Build(const AdamelModel& model, const float* calibration,
                            int rows) {
  if (rows < 1 || calibration == nullptr) {
    return InvalidArgumentError(
        "quantization needs a non-empty calibration batch");
  }
  const PackedAdamel fp32(model);
  const MaxAbsObserver observer(fp32);
  std::vector<float> scores(static_cast<size_t>(rows));
  RunForward(fp32.params(), observer, calibration, rows, scores.data(),
             /*attention=*/nullptr);

  // adamel-lint: allow-next-line(raw-new) -- private ctor, make_shared can't
  auto q = std::shared_ptr<QuantizedAdamelModel>(new QuantizedAdamelModel());
  q->params_ = fp32.params();
  const std::vector<nn::NamedTensor> named = model.NamedParameters();
  const auto quantize = [&](GemmFamily family, int feature) {
    const auto [k, n] = q->params_.GemmShape(family);
    Site site;
    site.w = nn::QuantizeForGemm(
        ForwardWeight(named, family, feature).data().data(), k, n);
    site.in_scale = observer.Scale(family, feature);
    q->sites_.push_back(std::move(site));
  };
  for (int j = 0; j < q->params_.feature_count; ++j) {
    quantize(GemmFamily::kProjection, j);
  }
  for (const GemmFamily family : kSharedGemms) {
    quantize(family, 0);
  }
  return std::shared_ptr<const QuantizedAdamelModel>(std::move(q));
}

void QuantizedAdamelModel::Score(const float* h, int rows,
                                 float* scores) const {
  RunForward(params_, *this, h, rows, scores, /*attention=*/nullptr);
}

void QuantizedAdamelModel::Gemm(GemmFamily family, int feature,
                                const float* a, int m, float* c) const {
  const Site& site = sites_[params_.GemmIndex(family, feature)];
  nn::QuantizedGemm(a, m, site.w.k, site.in_scale, site.w, /*bias=*/nullptr,
                    c);
}

void QuantizedAdamelModel::Save(nn::BlobWriter* writer) const {
  writer->WriteI32(params_.feature_count);
  writer->WriteI32(params_.embed_dim);
  writer->WriteI32(params_.latent_dim);
  writer->WriteI32(params_.attention_dim);
  writer->WriteI32(params_.hidden_dim);
  // Per GEMM: the int8 weight, the fp32 vector that goes with it (its bias,
  // or `a` for attention W), and the input scale.
  const auto write = [&](GemmFamily family, int feature,
                         const std::vector<float>& fp32) {
    const Site& site = sites_[params_.GemmIndex(family, feature)];
    WriteQuantizedB(site.w, writer);
    writer->WriteFloats(fp32);
    writer->WriteF32(site.in_scale);
  };
  for (int j = 0; j < params_.feature_count; ++j) {
    write(GemmFamily::kProjection, j, params_.projection_bias[j]);
  }
  write(GemmFamily::kAttention, 0, params_.attention_a);
  write(GemmFamily::kClassifier0, 0, params_.classifier0_bias);
  write(GemmFamily::kClassifier1, 0, params_.classifier1_bias);
}

StatusOr<std::shared_ptr<const QuantizedAdamelModel>>
QuantizedAdamelModel::Load(nn::BlobReader* reader) {
  // adamel-lint: allow-next-line(raw-new) -- private ctor, make_shared can't
  auto q = std::shared_ptr<QuantizedAdamelModel>(new QuantizedAdamelModel());
  ForwardParams& p = q->params_;
  ADAMEL_RETURN_IF_ERROR(reader->ReadI32(&p.feature_count));
  ADAMEL_RETURN_IF_ERROR(reader->ReadI32(&p.embed_dim));
  ADAMEL_RETURN_IF_ERROR(reader->ReadI32(&p.latent_dim));
  ADAMEL_RETURN_IF_ERROR(reader->ReadI32(&p.attention_dim));
  ADAMEL_RETURN_IF_ERROR(reader->ReadI32(&p.hidden_dim));
  if (p.feature_count <= 0 || p.embed_dim <= 0 || p.latent_dim <= 0 ||
      p.attention_dim <= 0 || p.hidden_dim <= 0) {
    return InvalidArgumentError("bad quantized model dimensions");
  }
  q->sites_.resize(p.gemm_count());
  // Also checks the shapes the forward will use, so a corrupt blob fails
  // here instead of indexing out of bounds later. Every fp32 vector (a
  // bias, or `a`) has n entries.
  const auto read = [&](GemmFamily family, int feature,
                        std::vector<float>* fp32) -> Status {
    Site& site = q->sites_[p.GemmIndex(family, feature)];
    ADAMEL_RETURN_IF_ERROR(ReadQuantizedB(reader, &site.w));
    ADAMEL_RETURN_IF_ERROR(reader->ReadFloats(fp32));
    ADAMEL_RETURN_IF_ERROR(ReadScale(reader, &site.in_scale));
    const auto [k, n] = p.GemmShape(family);
    if (site.w.k != k || site.w.n != n ||
        fp32->size() != static_cast<size_t>(n)) {
      return InvalidArgumentError("quantized tensor shape mismatch");
    }
    return OkStatus();
  };
  p.projection_bias.resize(p.feature_count);
  for (int j = 0; j < p.feature_count; ++j) {
    ADAMEL_RETURN_IF_ERROR(
        read(GemmFamily::kProjection, j, &p.projection_bias[j]));
  }
  ADAMEL_RETURN_IF_ERROR(read(GemmFamily::kAttention, 0, &p.attention_a));
  ADAMEL_RETURN_IF_ERROR(
      read(GemmFamily::kClassifier0, 0, &p.classifier0_bias));
  ADAMEL_RETURN_IF_ERROR(
      read(GemmFamily::kClassifier1, 0, &p.classifier1_bias));
  p.attention_a_packed =
      nn::kernels::PackPanelsF32(p.attention_a.data(), p.attention_dim, 1);
  return std::shared_ptr<const QuantizedAdamelModel>(std::move(q));
}

}  // namespace adamel::core
