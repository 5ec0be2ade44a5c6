// Tests for nn/ops.h: forward values on hand-checked cases plus numerical
// gradient verification (CheckGradient) for every differentiable op.

#include <cmath>
#include <functional>
#include <limits>
#include <ostream>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/grad_check.h"
#include "nn/ops.h"
#include "nn/tensor.h"

namespace adamel::nn {
namespace {

constexpr double kGradTolerance = 2e-2;

Tensor RandomParam(int rows, int cols, uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  Tensor t = Tensor::RandomNormal(rows, cols, scale, &rng,
                                  /*requires_grad=*/true);
  return t;
}

// ------------------------------------------------------------- forward

TEST(OpsForward, AddBroadcastRow) {
  const Tensor a = Tensor::FromVector(2, 2, {1, 2, 3, 4});
  const Tensor row = Tensor::FromVector(1, 2, {10, 20});
  const Tensor out = Add(a, row);
  EXPECT_FLOAT_EQ(out.At(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(out.At(1, 1), 24.0f);
}

TEST(OpsForward, AddBroadcastColumnAndScalar) {
  const Tensor a = Tensor::FromVector(2, 2, {1, 2, 3, 4});
  const Tensor col = Tensor::FromVector(2, 1, {10, 20});
  const Tensor out = Add(a, col);
  EXPECT_FLOAT_EQ(out.At(0, 1), 12.0f);
  EXPECT_FLOAT_EQ(out.At(1, 0), 23.0f);
  const Tensor out2 = Add(a, Tensor::Scalar(100.0f));
  EXPECT_FLOAT_EQ(out2.At(1, 1), 104.0f);
}

TEST(OpsForward, SubMulDiv) {
  const Tensor a = Tensor::FromVector(1, 3, {6, 8, 10});
  const Tensor b = Tensor::FromVector(1, 3, {2, 4, 5});
  EXPECT_FLOAT_EQ(Sub(a, b).At(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(Mul(a, b).At(0, 1), 32.0f);
  EXPECT_FLOAT_EQ(Div(a, b).At(0, 2), 2.0f);
}

TEST(OpsForward, UnaryValues) {
  const Tensor x = Tensor::FromVector(1, 4, {-1.0f, 0.0f, 1.0f, 2.0f});
  const Tensor relu = Relu(x);
  EXPECT_FLOAT_EQ(relu.At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(relu.At(0, 3), 2.0f);
  EXPECT_NEAR(Tanh(x).At(0, 2), std::tanh(1.0), 1e-6);
  EXPECT_NEAR(Sigmoid(x).At(0, 1), 0.5, 1e-6);
  EXPECT_NEAR(Exp(x).At(0, 0), std::exp(-1.0), 1e-6);
}

TEST(OpsForward, SigmoidStableForExtremeInputs) {
  const Tensor x = Tensor::FromVector(1, 2, {-100.0f, 100.0f});
  const Tensor s = Sigmoid(x);
  EXPECT_NEAR(s.At(0, 0), 0.0, 1e-6);
  EXPECT_NEAR(s.At(0, 1), 1.0, 1e-6);
  EXPECT_TRUE(std::isfinite(s.At(0, 0)));
}

TEST(OpsForward, ClipClampsRange) {
  const Tensor x = Tensor::FromVector(1, 3, {-5.0f, 0.5f, 5.0f});
  const Tensor c = Clip(x, 0.0f, 1.0f);
  EXPECT_FLOAT_EQ(c.At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(c.At(0, 1), 0.5f);
  EXPECT_FLOAT_EQ(c.At(0, 2), 1.0f);
}

TEST(OpsForward, MatMulKnownProduct) {
  const Tensor a = Tensor::FromVector(2, 3, {1, 2, 3, 4, 5, 6});
  const Tensor b = Tensor::FromVector(3, 2, {7, 8, 9, 10, 11, 12});
  const Tensor c = MatMul(a, b);
  EXPECT_EQ(c.rows(), 2);
  EXPECT_EQ(c.cols(), 2);
  EXPECT_FLOAT_EQ(c.At(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.At(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.At(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.At(1, 1), 154.0f);
}

TEST(OpsForward, MatMulPropagatesNanThroughZeroActivations) {
  // Regression: the old kernel skipped `a == 0.0f` terms, which silently
  // dropped NaN/Inf from B (0 * NaN must stay NaN per IEEE 754).
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const Tensor a = Tensor::FromVector(1, 2, {0.0f, 0.0f});
  const Tensor b = Tensor::FromVector(2, 2, {nan, inf, 1.0f, 1.0f});
  const Tensor c = MatMul(a, b);
  EXPECT_TRUE(std::isnan(c.At(0, 0)));
  EXPECT_TRUE(std::isnan(c.At(0, 1)));  // 0 * inf == NaN
}

TEST(OpsGradient, MatMulBackwardPropagatesNanThroughZeroActivations) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor a = Tensor::FromVector(1, 2, {0.0f, 0.0f}, /*requires_grad=*/true);
  Tensor b = Tensor::FromVector(2, 1, {nan, 1.0f}, /*requires_grad=*/true);
  Tensor loss = Sum(MatMul(a, b));
  loss.Backward();
  // dA = dOut * B^T picks up the NaN weight; dB = A^T * dOut multiplies the
  // zero activations into the upstream gradient, which is finite here.
  EXPECT_TRUE(std::isnan(a.GradAt(0, 0)));
  EXPECT_FLOAT_EQ(a.GradAt(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(b.GradAt(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(b.GradAt(1, 0), 0.0f);
}

TEST(OpsForward, TransposeSwapsIndices) {
  const Tensor a = Tensor::FromVector(2, 3, {1, 2, 3, 4, 5, 6});
  const Tensor t = Transpose(a);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_FLOAT_EQ(t.At(2, 1), 6.0f);
}

TEST(OpsForward, ConcatAndSlice) {
  const Tensor a = Tensor::FromVector(2, 1, {1, 2});
  const Tensor b = Tensor::FromVector(2, 2, {3, 4, 5, 6});
  const Tensor cols = ConcatCols({a, b});
  EXPECT_EQ(cols.cols(), 3);
  EXPECT_FLOAT_EQ(cols.At(1, 2), 6.0f);
  const Tensor back = SliceCols(cols, 1, 2);
  EXPECT_EQ(back.ToVector(), b.ToVector());

  const Tensor rows = ConcatRows({Tensor::FromVector(1, 2, {1, 2}),
                                  Tensor::FromVector(2, 2, {3, 4, 5, 6})});
  EXPECT_EQ(rows.rows(), 3);
  EXPECT_FLOAT_EQ(rows.At(2, 1), 6.0f);
  EXPECT_EQ(SliceRows(rows, 1, 2).At(0, 0), 3.0f);
}

TEST(OpsForward, SelectRowsGathersWithRepeats) {
  const Tensor a = Tensor::FromVector(3, 2, {1, 2, 3, 4, 5, 6});
  const Tensor sel = SelectRows(a, {2, 0, 2});
  EXPECT_EQ(sel.rows(), 3);
  EXPECT_FLOAT_EQ(sel.At(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(sel.At(1, 0), 1.0f);
  EXPECT_FLOAT_EQ(sel.At(2, 1), 6.0f);
}

TEST(OpsForward, ReshapeKeepsOrder) {
  const Tensor a = Tensor::FromVector(2, 3, {1, 2, 3, 4, 5, 6});
  const Tensor r = Reshape(a, 3, 2);
  EXPECT_FLOAT_EQ(r.At(1, 0), 3.0f);
  EXPECT_FLOAT_EQ(r.At(2, 1), 6.0f);
}

TEST(OpsForward, Reductions) {
  const Tensor a = Tensor::FromVector(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(Sum(a).At(0, 0), 21.0f);
  EXPECT_FLOAT_EQ(Mean(a).At(0, 0), 3.5f);
  const Tensor rows = SumRows(a);
  EXPECT_FLOAT_EQ(rows.At(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(rows.At(1, 0), 15.0f);
  const Tensor cols = SumCols(a);
  EXPECT_FLOAT_EQ(cols.At(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(cols.At(0, 2), 9.0f);
  const Tensor mean_cols = MeanCols(a);
  EXPECT_FLOAT_EQ(mean_cols.At(0, 1), 3.5f);
}

TEST(OpsForward, SoftmaxRowsSumToOne) {
  Rng rng(3);
  const Tensor x = Tensor::RandomNormal(4, 6, 3.0f, &rng);
  const Tensor s = Softmax(x);
  for (int r = 0; r < s.rows(); ++r) {
    double total = 0.0;
    for (int c = 0; c < s.cols(); ++c) {
      EXPECT_GT(s.At(r, c), 0.0f);
      total += s.At(r, c);
    }
    EXPECT_NEAR(total, 1.0, 1e-5);
  }
}

TEST(OpsForward, SoftmaxInvariantToShift) {
  const Tensor x = Tensor::FromVector(1, 3, {1.0f, 2.0f, 3.0f});
  const Tensor y = Tensor::FromVector(1, 3, {101.0f, 102.0f, 103.0f});
  const Tensor sx = Softmax(x);
  const Tensor sy = Softmax(y);
  for (int c = 0; c < 3; ++c) {
    EXPECT_NEAR(sx.At(0, c), sy.At(0, c), 1e-6);
  }
}

TEST(OpsForward, DropoutIdentityInEval) {
  Rng rng(4);
  const Tensor x = Tensor::Full(2, 4, 3.0f);
  const Tensor y = Dropout(x, 0.5f, &rng, /*training=*/false);
  EXPECT_EQ(y.ToVector(), x.ToVector());
}

TEST(OpsForward, DropoutZeroesAndRescales) {
  Rng rng(4);
  const Tensor x = Tensor::Full(1, 1000, 1.0f);
  const Tensor y = Dropout(x, 0.5f, &rng, /*training=*/true);
  int zeros = 0;
  double sum = 0.0;
  for (float v : y.data()) {
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(v, 2.0f);  // inverted-dropout scale 1/(1-p)
    }
    sum += v;
  }
  EXPECT_NEAR(zeros / 1000.0, 0.5, 0.05);
  EXPECT_NEAR(sum / 1000.0, 1.0, 0.1);
}

TEST(OpsForward, BceWithLogitsMatchesClosedForm) {
  const Tensor logits = Tensor::FromVector(2, 1, {0.0f, 2.0f});
  const Tensor loss = BceWithLogits(logits, {1.0f, 0.0f});
  const double expected =
      (-std::log(0.5) + (-std::log(1.0 - 1.0 / (1.0 + std::exp(-2.0))))) /
      2.0;
  EXPECT_NEAR(loss.At(0, 0), expected, 1e-5);
}

TEST(OpsForward, BceWithLogitsWeightsShiftTheMean) {
  const Tensor logits = Tensor::FromVector(2, 1, {3.0f, -3.0f});
  // First example is badly wrong (y=0 with logit 3), second nearly right.
  const Tensor unweighted = BceWithLogits(logits, {0.0f, 0.0f});
  const Tensor upweight_bad =
      BceWithLogits(logits, {0.0f, 0.0f}, {10.0f, 1.0f});
  EXPECT_GT(upweight_bad.At(0, 0), unweighted.At(0, 0));
}

TEST(OpsForward, BceStableOnHugeLogits) {
  const Tensor logits = Tensor::FromVector(2, 1, {1000.0f, -1000.0f});
  const Tensor loss = BceWithLogits(logits, {1.0f, 0.0f});
  EXPECT_NEAR(loss.At(0, 0), 0.0, 1e-5);
  EXPECT_TRUE(std::isfinite(loss.At(0, 0)));
}

TEST(OpsForward, RowKlDivergenceZeroForIdenticalRows) {
  const std::vector<float> p = {0.2f, 0.3f, 0.5f};
  const Tensor q = Tensor::FromVector(2, 3,
                                      {0.2f, 0.3f, 0.5f, 0.2f, 0.3f, 0.5f});
  EXPECT_NEAR(RowKlDivergence(p, q).At(0, 0), 0.0, 1e-5);
}

TEST(OpsForward, RowKlDivergencePositiveForDifferentRows) {
  const std::vector<float> p = {0.9f, 0.05f, 0.05f};
  const Tensor q =
      Tensor::FromVector(1, 3, {0.05f, 0.05f, 0.9f});
  EXPECT_GT(RowKlDivergence(p, q).At(0, 0), 1.0);
}

// ------------------------------------------------------------- gradients

// Each entry builds a scalar loss from a 2x3 parameter; CheckGradient
// verifies the analytic gradient numerically.
struct GradCase {
  const char* name;
  std::function<Tensor(const Tensor&)> loss;
};

// Without this, gtest prints a GradCase as its raw bytes, which hold
// pointers: the test names that ctest discovers would then change with
// every build (ASLR) and could not be tracked across builds.
void PrintTo(const GradCase& c, std::ostream* os) { *os << c.name; }

class OpsGradientSweep : public ::testing::TestWithParam<GradCase> {};

TEST_P(OpsGradientSweep, MatchesNumericalGradient) {
  Tensor param = RandomParam(2, 3, 99, 0.7f);
  const auto& loss_fn = GetParam().loss;
  const GradCheckResult result =
      CheckGradient([&] { return loss_fn(param); }, param);
  EXPECT_LT(result.max_relative_error, kGradTolerance)
      << GetParam().name << " worst index " << result.worst_index
      << " analytic " << result.worst_analytic << " numeric "
      << result.worst_numeric;
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, OpsGradientSweep,
    ::testing::Values(
        GradCase{"sum", [](const Tensor& p) { return Sum(p); }},
        GradCase{"mean", [](const Tensor& p) { return Mean(p); }},
        GradCase{"square", [](const Tensor& p) { return Sum(Square(p)); }},
        GradCase{"tanh", [](const Tensor& p) { return Sum(Tanh(p)); }},
        GradCase{"sigmoid",
                 [](const Tensor& p) { return Sum(Sigmoid(p)); }},
        GradCase{"exp", [](const Tensor& p) { return Sum(Exp(p)); }},
        GradCase{"softmax_weighted",
                 [](const Tensor& p) {
                   const Tensor w = Tensor::FromVector(
                       1, 3, {1.0f, -2.0f, 3.0f});
                   return Sum(Mul(Softmax(p), w));
                 }},
        GradCase{"matmul",
                 [](const Tensor& p) {
                   const Tensor b = Tensor::FromVector(
                       3, 2, {1, -1, 2, 0.5f, -0.25f, 1});
                   return Sum(Square(MatMul(p, b)));
                 }},
        GradCase{"transpose",
                 [](const Tensor& p) {
                   return Sum(Square(Transpose(p)));
                 }},
        GradCase{"broadcast_add_row",
                 [](const Tensor& p) {
                   const Tensor x = Tensor::Full(4, 3, 0.5f);
                   return Sum(Square(Add(x, SliceRows(p, 0, 1))));
                 }},
        GradCase{"broadcast_mul_col",
                 [](const Tensor& p) {
                   const Tensor x = Tensor::Full(2, 5, 0.5f);
                   return Sum(Square(Mul(x, SliceCols(p, 0, 1))));
                 }},
        GradCase{"div",
                 [](const Tensor& p) {
                   const Tensor b = Tensor::Full(2, 3, 2.0f);
                   return Sum(Div(Exp(p), AddScalar(Square(b), 1.0f)));
                 }},
        GradCase{"concat_slice",
                 [](const Tensor& p) {
                   const Tensor left = SliceCols(p, 0, 1);
                   const Tensor right = SliceCols(p, 1, 2);
                   return Sum(Square(ConcatCols({right, left})));
                 }},
        GradCase{"select_rows",
                 [](const Tensor& p) {
                   return Sum(Square(SelectRows(p, {1, 0, 1})));
                 }},
        GradCase{"reshape",
                 [](const Tensor& p) {
                   return Sum(Square(Reshape(p, 3, 2)));
                 }},
        GradCase{"sum_rows",
                 [](const Tensor& p) { return Sum(Square(SumRows(p))); }},
        GradCase{"mean_cols",
                 [](const Tensor& p) { return Sum(Square(MeanCols(p))); }},
        GradCase{"bce",
                 [](const Tensor& p) {
                   return BceWithLogits(Reshape(p, 6, 1),
                                        {1, 0, 1, 0, 1, 0});
                 }},
        GradCase{"bce_weighted",
                 [](const Tensor& p) {
                   return BceWithLogits(Reshape(p, 6, 1),
                                        {1, 0, 1, 0, 1, 0},
                                        {1, 2, 0.5f, 1, 3, 1});
                 }},
        GradCase{"kl_via_softmax",
                 [](const Tensor& p) {
                   return RowKlDivergence({0.5f, 0.2f, 0.3f}, Softmax(p));
                 }}),
    [](const ::testing::TestParamInfo<GradCase>& info) {
      return info.param.name;
    });

TEST(OpsGradient, MatMulBothSides) {
  Tensor a = RandomParam(3, 4, 1);
  Tensor b = RandomParam(4, 2, 2);
  auto loss = [&] { return Sum(Square(MatMul(a, b))); };
  EXPECT_LT(CheckGradient(loss, a).max_relative_error, kGradTolerance);
  EXPECT_LT(CheckGradient(loss, b).max_relative_error, kGradTolerance);
}

TEST(OpsGradient, KlGradientFlowsToTargetMeanToo) {
  // Both the source attention and the (mean of the) target attention are
  // functions of the parameter: gradient must flow through both paths, as
  // required by the joint update of W, a in Section 4.4.1.
  Tensor p = RandomParam(4, 3, 7, 0.5f);
  auto loss = [&] {
    const Tensor source = Softmax(SliceRows(p, 0, 2));
    const Tensor target = Softmax(SliceRows(p, 2, 2));
    const Tensor mean_target = AddScalar(MeanCols(target), 1e-8f);
    const Tensor q = AddScalar(source, 1e-8f);
    return Sum(Mul(mean_target, Log(Div(mean_target, q))));
  };
  const GradCheckResult result = CheckGradient(loss, p);
  EXPECT_LT(result.max_relative_error, kGradTolerance);
  // And the target half of the parameter really receives gradient.
  p.ZeroGrad();
  Tensor l = loss();
  l.Backward();
  double target_grad_mag = 0.0;
  for (int c = 0; c < 3; ++c) {
    target_grad_mag += std::fabs(p.GradAt(2, c)) + std::fabs(p.GradAt(3, c));
  }
  EXPECT_GT(target_grad_mag, 0.0);
}

}  // namespace
}  // namespace adamel::nn
