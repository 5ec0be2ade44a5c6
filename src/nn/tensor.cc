#include "nn/tensor.h"

#include <cmath>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"

namespace adamel::nn {

namespace {

std::shared_ptr<TensorImpl> NewImpl(int rows, int cols, bool requires_grad) {
  ADAMEL_CHECK_GT(rows, 0);
  ADAMEL_CHECK_GT(cols, 0);
  auto impl = std::make_shared<TensorImpl>();
  impl->rows = rows;
  impl->cols = cols;
  impl->data.assign(static_cast<size_t>(rows) * cols, 0.0f);
  impl->requires_grad = requires_grad;
  return impl;
}

}  // namespace

Tensor MakeFromImpl(std::shared_ptr<TensorImpl> impl) {
  return Tensor(std::move(impl));
}

Tensor Tensor::Zeros(int rows, int cols, bool requires_grad) {
  return MakeFromImpl(NewImpl(rows, cols, requires_grad));
}

Tensor Tensor::Full(int rows, int cols, float value, bool requires_grad) {
  auto impl = NewImpl(rows, cols, requires_grad);
  for (float& v : impl->data) {
    v = value;
  }
  return MakeFromImpl(std::move(impl));
}

Tensor Tensor::Scalar(float value) { return Full(1, 1, value); }

Tensor Tensor::FromVector(int rows, int cols, std::vector<float> values,
                          bool requires_grad) {
  ADAMEL_CHECK_EQ(static_cast<int>(values.size()), rows * cols);
  auto impl = NewImpl(rows, cols, requires_grad);
  impl->data = std::move(values);
  return MakeFromImpl(std::move(impl));
}

Tensor Tensor::RandomNormal(int rows, int cols, float stddev, Rng* rng,
                            bool requires_grad) {
  ADAMEL_CHECK(rng != nullptr);
  auto impl = NewImpl(rows, cols, requires_grad);
  for (float& v : impl->data) {
    v = static_cast<float>(rng->Normal(0.0, stddev));
  }
  return MakeFromImpl(std::move(impl));
}

Tensor Tensor::XavierUniform(int fan_in, int fan_out, Rng* rng,
                             bool requires_grad) {
  ADAMEL_CHECK(rng != nullptr);
  const double bound = std::sqrt(6.0 / (fan_in + fan_out));
  auto impl = NewImpl(fan_in, fan_out, requires_grad);
  for (float& v : impl->data) {
    v = static_cast<float>(rng->Uniform(-bound, bound));
  }
  return MakeFromImpl(std::move(impl));
}

int Tensor::rows() const {
  ADAMEL_CHECK(defined());
  return impl_->rows;
}

int Tensor::cols() const {
  ADAMEL_CHECK(defined());
  return impl_->cols;
}

int Tensor::size() const {
  ADAMEL_CHECK(defined());
  return impl_->size();
}

float Tensor::At(int row, int col) const {
  ADAMEL_CHECK(defined());
  ADAMEL_CHECK_GE(row, 0);
  ADAMEL_CHECK_LT(row, impl_->rows);
  ADAMEL_CHECK_GE(col, 0);
  ADAMEL_CHECK_LT(col, impl_->cols);
  return impl_->data[static_cast<size_t>(row) * impl_->cols + col];
}

void Tensor::Set(int row, int col, float value) {
  ADAMEL_CHECK(defined());
  ADAMEL_CHECK_GE(row, 0);
  ADAMEL_CHECK_LT(row, impl_->rows);
  ADAMEL_CHECK_GE(col, 0);
  ADAMEL_CHECK_LT(col, impl_->cols);
  impl_->data[static_cast<size_t>(row) * impl_->cols + col] = value;
}

const std::vector<float>& Tensor::data() const {
  ADAMEL_CHECK(defined());
  return impl_->data;
}

std::vector<float>& Tensor::mutable_data() {
  ADAMEL_CHECK(defined());
  return impl_->data;
}

const std::vector<float>& Tensor::grad() const {
  ADAMEL_CHECK(defined());
  impl_->EnsureGrad();
  return impl_->grad;
}

float Tensor::GradAt(int row, int col) const {
  ADAMEL_CHECK(defined());
  impl_->EnsureGrad();
  return impl_->grad[static_cast<size_t>(row) * impl_->cols + col];
}

bool Tensor::requires_grad() const {
  ADAMEL_CHECK(defined());
  return impl_->requires_grad;
}

Tensor Tensor::Detach() const {
  ADAMEL_CHECK(defined());
  auto impl = NewImpl(impl_->rows, impl_->cols, /*requires_grad=*/false);
  impl->data = impl_->data;
  return MakeFromImpl(std::move(impl));
}

std::vector<float> Tensor::ToVector() const {
  ADAMEL_CHECK(defined());
  return impl_->data;
}

void Tensor::ZeroGrad() {
  ADAMEL_CHECK(defined());
  impl_->grad.assign(impl_->data.size(), 0.0f);
}

void Tensor::Backward() {
  ADAMEL_CHECK(defined());
  ADAMEL_CHECK_EQ(impl_->size(), 1) << "Backward() requires a scalar root";
  // Graphs are single-use: a second Backward() through the same nodes would
  // double-accumulate into every leaf gradient.
  ADAMEL_DCHECK(!impl_->backward_consumed)
      << "double Backward() on the same autograd graph; recompute the "
         "forward pass first";

  // Topological order by iterative post-order DFS over parent edges.
  std::vector<TensorImpl*> order;
  std::unordered_set<TensorImpl*> visited;
  std::vector<std::pair<TensorImpl*, size_t>> stack;
#ifdef ADAMEL_DEBUG_CHECKS
  // Nodes on the current DFS path; a parent edge back into this set means
  // the "graph" is cyclic and the backward walk below would be unsound.
  std::unordered_set<TensorImpl*> on_path;
  on_path.insert(impl_.get());
#endif
  stack.emplace_back(impl_.get(), 0);
  visited.insert(impl_.get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      TensorImpl* child = node->parents[next_child].get();
      ++next_child;
#ifdef ADAMEL_DEBUG_CHECKS
      ADAMEL_DCHECK(on_path.count(child) == 0)
          << "autograd graph contains a cycle through a "
          << child->rows << "x" << child->cols << " node";
#endif
      if (visited.insert(child).second) {
#ifdef ADAMEL_DEBUG_CHECKS
        on_path.insert(child);
#endif
        stack.emplace_back(child, 0);
      }
    } else {
#ifdef ADAMEL_DEBUG_CHECKS
      on_path.erase(node);
#endif
      order.push_back(node);
      stack.pop_back();
    }
  }

#ifdef ADAMEL_DEBUG_CHECKS
  // Topological-consistency validation: `order` must place every parent
  // before its consumer, or the reversed walk would propagate incomplete
  // gradients. This is a structural invariant of the DFS; checking it here
  // guards the traversal against future refactors.
  {
    std::unordered_map<TensorImpl*, size_t> position;
    position.reserve(order.size());
    for (size_t i = 0; i < order.size(); ++i) {
      position.emplace(order[i], i);
    }
    for (size_t i = 0; i < order.size(); ++i) {
      for (const auto& parent : order[i]->parents) {
        ADAMEL_DCHECK_LT(position.at(parent.get()), i)
            << "autograd topological order is inconsistent";
      }
    }
  }
#endif

  impl_->EnsureGrad();
  impl_->grad[0] = 1.0f;
  // `order` is post-order (children first); walk it backwards so each node's
  // gradient is complete before it is propagated to its parents.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorImpl* node = *it;
    if (node->backward_fn) {
      ADAMEL_DCHECK(!node->backward_consumed)
          << "node reused across two Backward() calls; graphs are "
             "single-use";
      node->EnsureGrad();
      node->backward_fn(*node);
      node->backward_consumed = true;
    }
  }
  impl_->backward_consumed = true;
}

std::string Tensor::DebugString() const {
  if (!defined()) {
    return "Tensor(undefined)";
  }
  std::ostringstream out;
  out << "Tensor(" << impl_->rows << "x" << impl_->cols << ", [";
  const int max_elems = 16;
  for (int i = 0; i < impl_->size() && i < max_elems; ++i) {
    if (i > 0) {
      out << ", ";
    }
    out << impl_->data[i];
  }
  if (impl_->size() > max_elems) {
    out << ", ...";
  }
  out << "])";
  return out.str();
}

}  // namespace adamel::nn
