// Tests for nn layers (Linear/Mlp/Highway/GRU), optimizers (Sgd/Adam) and
// the shared mini-batch step loop (TrainEpoch): shape contracts, gradient
// checks through composite modules, convergence on small learnable
// problems, and the batching and non-finite-step contract every trainer
// relies on.

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/grad_check.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "nn/optim.h"

namespace adamel::nn {
namespace {

TEST(LinearTest, OutputShapeAndBias) {
  Rng rng(1);
  Linear layer(4, 3, &rng);
  const Tensor x = Tensor::Zeros(5, 4);
  const Tensor y = layer.Forward(x);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 3);
  // Zero input -> output equals bias (zero-initialized).
  for (float v : y.data()) {
    EXPECT_FLOAT_EQ(v, 0.0f);
  }
}

TEST(LinearTest, ParameterCount) {
  Rng rng(1);
  Linear layer(4, 3, &rng);
  EXPECT_EQ(layer.ParameterCount(), 4 * 3 + 3);
}

TEST(LinearTest, GradientCheckOnWeights) {
  Rng rng(2);
  Linear layer(3, 2, &rng);
  const Tensor x = Tensor::RandomNormal(4, 3, 1.0f, &rng);
  auto loss = [&] { return Sum(Square(layer.Forward(x))); };
  Tensor w = layer.Parameters()[0];
  Tensor b = layer.Parameters()[1];
  EXPECT_LT(CheckGradient(loss, w).max_relative_error, 2e-2);
  EXPECT_LT(CheckGradient(loss, b).max_relative_error, 2e-2);
}

TEST(MlpTest, HiddenLayersAndLogitOutput) {
  Rng rng(3);
  Mlp mlp({6, 8, 4, 1}, Activation::kRelu, &rng);
  const Tensor x = Tensor::RandomNormal(2, 6, 1.0f, &rng);
  const Tensor y = mlp.Forward(x);
  EXPECT_EQ(y.rows(), 2);
  EXPECT_EQ(y.cols(), 1);
  EXPECT_EQ(mlp.ParameterCount(), 6 * 8 + 8 + 8 * 4 + 4 + 4 * 1 + 1);
}

TEST(MlpTest, GradientFlowsToFirstLayer) {
  Rng rng(4);
  Mlp mlp({3, 5, 1}, Activation::kTanh, &rng);
  const Tensor x = Tensor::RandomNormal(4, 3, 1.0f, &rng);
  Tensor first_weight = mlp.Parameters()[0];
  auto loss = [&] { return Sum(Square(mlp.Forward(x))); };
  EXPECT_LT(CheckGradient(loss, first_weight).max_relative_error, 2e-2);
}

TEST(ActivateTest, AllModes) {
  const Tensor x = Tensor::FromVector(1, 2, {-1.0f, 1.0f});
  EXPECT_FLOAT_EQ(Activate(x, Activation::kRelu).At(0, 0), 0.0f);
  EXPECT_NEAR(Activate(x, Activation::kTanh).At(0, 1), std::tanh(1.0f),
              1e-6);
  EXPECT_NEAR(Activate(x, Activation::kSigmoid).At(0, 1),
              1.0 / (1.0 + std::exp(-1.0)), 1e-6);
  EXPECT_FLOAT_EQ(Activate(x, Activation::kNone).At(0, 0), -1.0f);
}

TEST(HighwayTest, OutputShapePreserved) {
  Rng rng(5);
  HighwayLayer highway(6, &rng);
  const Tensor x = Tensor::RandomNormal(3, 6, 1.0f, &rng);
  const Tensor y = highway.Forward(x);
  EXPECT_EQ(y.rows(), 3);
  EXPECT_EQ(y.cols(), 6);
}

TEST(HighwayTest, GradientCheck) {
  Rng rng(6);
  HighwayLayer highway(4, &rng);
  const Tensor x = Tensor::RandomNormal(2, 4, 1.0f, &rng);
  Tensor carry_w = highway.Parameters()[2];
  auto loss = [&] { return Sum(Square(highway.Forward(x))); };
  EXPECT_LT(CheckGradient(loss, carry_w).max_relative_error, 2e-2);
}

TEST(GruTest, ShapesAndLastState) {
  Rng rng(7);
  Gru gru(5, 3, &rng);
  const Tensor sequence = Tensor::RandomNormal(6, 5, 1.0f, &rng);
  const Tensor states = gru.Forward(sequence);
  EXPECT_EQ(states.rows(), 6);
  EXPECT_EQ(states.cols(), 3);
  const Tensor last = gru.ForwardLast(sequence);
  EXPECT_EQ(last.rows(), 1);
  for (int c = 0; c < 3; ++c) {
    EXPECT_FLOAT_EQ(last.At(0, c), states.At(5, c));
  }
}

TEST(GruTest, HiddenStatesBounded) {
  // GRU hidden states are convex mixes of tanh outputs -> within (-1, 1).
  Rng rng(8);
  Gru gru(4, 4, &rng);
  const Tensor sequence = Tensor::RandomNormal(10, 4, 3.0f, &rng);
  const Tensor states = gru.Forward(sequence);
  for (float v : states.data()) {
    EXPECT_GT(v, -1.0f);
    EXPECT_LT(v, 1.0f);
  }
}

TEST(GruTest, GradientThroughTime) {
  Rng rng(9);
  Gru gru(3, 2, &rng);
  const Tensor sequence = Tensor::RandomNormal(4, 3, 1.0f, &rng);
  Tensor some_weight = gru.Parameters()[0];
  auto loss = [&] { return Sum(Square(gru.ForwardLast(sequence))); };
  EXPECT_LT(CheckGradient(loss, some_weight).max_relative_error, 2e-2);
}

TEST(BiGruTest, ConcatenatesDirections) {
  Rng rng(10);
  BiGru bigru(4, 3, &rng);
  const Tensor sequence = Tensor::RandomNormal(5, 4, 1.0f, &rng);
  const Tensor states = bigru.Forward(sequence);
  EXPECT_EQ(states.rows(), 5);
  EXPECT_EQ(states.cols(), 6);
  EXPECT_EQ(bigru.output_dim(), 6);
}

TEST(BiGruTest, BackwardDirectionSeesFuture) {
  // Changing the LAST input must change the FIRST output row's backward
  // half (cols 3..5) but not its forward half (cols 0..2).
  Rng rng(11);
  BiGru bigru(2, 3, &rng);
  Tensor sequence = Tensor::Zeros(4, 2);
  const Tensor out_before = bigru.Forward(sequence);
  sequence.Set(3, 0, 5.0f);
  const Tensor out_after = bigru.Forward(sequence);
  for (int c = 0; c < 3; ++c) {
    EXPECT_FLOAT_EQ(out_before.At(0, c), out_after.At(0, c));
  }
  bool backward_changed = false;
  for (int c = 3; c < 6; ++c) {
    backward_changed |= out_before.At(0, c) != out_after.At(0, c);
  }
  EXPECT_TRUE(backward_changed);
}

// ---------------------------------------------------------------- optim

TEST(SgdTest, ConvergesOnQuadratic) {
  Tensor x = Tensor::FromVector(1, 2, {5.0f, -3.0f}, true);
  Sgd sgd({x}, 0.1f);
  for (int i = 0; i < 200; ++i) {
    sgd.ZeroGrad();
    Tensor loss = Sum(Square(x));
    loss.Backward();
    sgd.Step();
  }
  EXPECT_NEAR(x.At(0, 0), 0.0, 1e-3);
  EXPECT_NEAR(x.At(0, 1), 0.0, 1e-3);
}

TEST(SgdTest, MomentumAccelerates) {
  Tensor a = Tensor::Full(1, 1, 10.0f, true);
  Tensor b = Tensor::Full(1, 1, 10.0f, true);
  Sgd plain({a}, 0.01f, 0.0f);
  Sgd momentum({b}, 0.01f, 0.9f);
  for (int i = 0; i < 30; ++i) {
    plain.ZeroGrad();
    Tensor la = Sum(Square(a));
    la.Backward();
    plain.Step();
    momentum.ZeroGrad();
    Tensor lb = Sum(Square(b));
    lb.Backward();
    momentum.Step();
  }
  EXPECT_LT(std::fabs(b.At(0, 0)), std::fabs(a.At(0, 0)));
}

TEST(AdamTest, SolvesLinearRegression) {
  // Fit y = 2x1 - x2 + 0.5 with Adam on MSE.
  Rng rng(12);
  const int n = 64;
  Tensor x = Tensor::RandomNormal(n, 2, 1.0f, &rng);
  std::vector<float> target(n);
  for (int i = 0; i < n; ++i) {
    target[i] = 2.0f * x.At(i, 0) - x.At(i, 1) + 0.5f;
  }
  const Tensor y = Tensor::FromVector(n, 1, target);
  Linear model(2, 1, &rng);
  Adam adam(model.Parameters(), 0.05f);
  for (int step = 0; step < 400; ++step) {
    adam.ZeroGrad();
    Tensor loss = Mean(Square(Sub(model.Forward(x), y)));
    loss.Backward();
    adam.Step();
  }
  EXPECT_NEAR(model.weight().At(0, 0), 2.0, 0.05);
  EXPECT_NEAR(model.weight().At(1, 0), -1.0, 0.05);
  EXPECT_NEAR(model.bias().At(0, 0), 0.5, 0.05);
}

TEST(AdamTest, WeightDecayShrinksUnusedWeights) {
  // A weight with zero data gradient should decay toward zero.
  Tensor w = Tensor::Full(1, 1, 1.0f, true);
  Adam adam({w}, 0.05f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/1.0f);
  for (int i = 0; i < 100; ++i) {
    adam.ZeroGrad();
    adam.Step();
  }
  EXPECT_LT(std::fabs(w.At(0, 0)), 0.2f);
}

TEST(ClipGradNormTest, ScalesDownLargeGradients) {
  Tensor x = Tensor::FromVector(1, 2, {1.0f, 1.0f}, true);
  Tensor loss = Sum(MulScalar(x, 300.0f));
  loss.Backward();
  const GradClipResult clip = ClipGradNorm({x}, 1.0f);
  EXPECT_TRUE(clip.finite);
  EXPECT_NEAR(clip.norm, 300.0f * std::sqrt(2.0f), 1.0f);
  double norm_after = 0.0;
  for (float g : x.grad()) {
    norm_after += g * g;
  }
  EXPECT_NEAR(std::sqrt(norm_after), 1.0, 1e-4);
}

TEST(ClipGradNormTest, LeavesSmallGradientsAlone) {
  Tensor x = Tensor::FromVector(1, 2, {1.0f, 1.0f}, true);
  Tensor loss = Sum(MulScalar(x, 0.1f));
  loss.Backward();
  EXPECT_TRUE(ClipGradNorm({x}, 10.0f).finite);
  EXPECT_FLOAT_EQ(x.grad()[0], 0.1f);
}

TEST(ClipGradNormTest, ReportsNonFiniteGradientsWithoutScaling) {
  // Regression: an Inf gradient used to produce a NaN scale factor that was
  // multiplied into EVERY parameter's gradient, so one overflow poisoned the
  // whole model on the next optimizer step. Now the clip must leave the
  // gradients untouched and report finite=false so callers skip the step.
  Tensor x = Tensor::FromVector(1, 1, {1.0f}, true);
  Tensor y = Tensor::FromVector(1, 2, {1.0f, 1.0f}, true);
  // d/dx (1e30*x)^2 = 2e60*x overflows float: x's gradient becomes Inf.
  Tensor loss = Add(Sum(Square(MulScalar(x, 1e30f))), Sum(y));
  loss.Backward();
  ASSERT_FALSE(std::isfinite(x.grad()[0]));
  const GradClipResult clip = ClipGradNorm({x, y}, 1.0f);
  EXPECT_FALSE(clip.finite);
  EXPECT_FALSE(std::isfinite(clip.norm));
  // The healthy parameter's gradient must not have been scaled by NaN.
  EXPECT_FLOAT_EQ(y.grad()[0], 1.0f);
  EXPECT_FLOAT_EQ(y.grad()[1], 1.0f);
}

TEST(TrainEpochTest, BatchesAreContiguousSlicesOfOrder) {
  Tensor w = Tensor::Full(1, 1, 1.0f, true);
  Sgd sgd({w}, 0.1f);
  const std::vector<int> order = {4, 1, 3, 0, 2, 6, 5};
  std::vector<int> indices;
  std::vector<std::vector<int>> batches;
  const EpochSteps steps = TrainEpoch(
      &sgd, order, /*batch_size=*/3, /*grad_clip=*/10.0f,
      [&](int batch_index, const std::vector<int>& rows) {
        indices.push_back(batch_index);
        batches.push_back(rows);
        return Sum(w);
      });
  EXPECT_EQ(indices, (std::vector<int>{0, 1, 2}));
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0], (std::vector<int>{4, 1, 3}));
  EXPECT_EQ(batches[1], (std::vector<int>{0, 2, 6}));
  EXPECT_EQ(batches[2], (std::vector<int>{5}));  // the partial tail
  EXPECT_EQ(steps.steps, 3);
  EXPECT_EQ(steps.skipped_steps, 0);
  EXPECT_DOUBLE_EQ(steps.grad_norm_sum, 3.0);
  EXPECT_FLOAT_EQ(w.At(0, 0), 1.0f - 3 * 0.1f);
}

TEST(TrainEpochTest, NonFiniteGradientNormSkipsOnlyThatStep) {
  // Batch 0 overflows x's gradient; stepping on it would write NaN into
  // every weight (Adam's moments are shared across the update). The
  // driver must skip it, leaving every parameter bitwise unchanged, and
  // still step batch 1.
  Tensor x = Tensor::FromVector(1, 1, {1.0f}, true);
  Tensor y = Tensor::FromVector(1, 2, {1.0f, -2.0f}, true);
  Adam adam({x, y}, 0.1f);
  const std::vector<float> x0 = x.ToVector();
  const std::vector<float> y0 = y.ToVector();
  auto bitwise_equal = [](const std::vector<float>& a,
                          const std::vector<float>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
  };
  bool unchanged_after_skip = false;
  const EpochSteps steps = TrainEpoch(
      &adam, /*order=*/{0, 1}, /*batch_size=*/1, /*grad_clip=*/10.0f,
      [&](int batch_index, const std::vector<int>&) {
        if (batch_index == 0) {
          // d/dx (1e30*x)^2 = 2e60*x overflows float.
          return Add(Sum(Square(MulScalar(x, 1e30f))), Sum(y));
        }
        unchanged_after_skip =
            bitwise_equal(x.ToVector(), x0) && bitwise_equal(y.ToVector(), y0);
        return Add(Sum(x), Sum(y));
      });
  EXPECT_TRUE(unchanged_after_skip);
  EXPECT_EQ(steps.steps, 2);
  EXPECT_EQ(steps.skipped_steps, 1);
  EXPECT_EQ(adam.step_count(), 1);
  // Only batch 1's norm (three unit gradients) is summed.
  EXPECT_NEAR(steps.grad_norm_sum, std::sqrt(3.0), 1e-6);
  EXPECT_NE(x.At(0, 0), x0[0]);
  for (float v : y.ToVector()) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(ModuleTest, ZeroGradClearsAllParameters) {
  Rng rng(13);
  Mlp mlp({2, 3, 1}, Activation::kRelu, &rng);
  const Tensor x = Tensor::RandomNormal(2, 2, 1.0f, &rng);
  Tensor loss = Sum(Square(mlp.Forward(x)));
  loss.Backward();
  mlp.ZeroGrad();
  for (const Tensor& p : mlp.Parameters()) {
    for (float g : p.grad()) {
      EXPECT_EQ(g, 0.0f);
    }
  }
}

}  // namespace
}  // namespace adamel::nn
