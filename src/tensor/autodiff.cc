#include "tensor/autodiff.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/logging.h"

namespace lite {

VarPtr Param(Tensor t) { return std::make_shared<Var>(std::move(t), true); }
VarPtr Input(Tensor t) { return std::make_shared<Var>(std::move(t), false); }

namespace {

/// Creates an op node whose requires_grad is the OR of its parents'.
VarPtr MakeNode(Tensor value, std::vector<VarPtr> parents) {
  bool req = false;
  for (const auto& p : parents) req = req || p->requires_grad;
  auto node = std::make_shared<Var>(std::move(value), req);
  node->parents = std::move(parents);
  return node;
}

void TopoSort(const VarPtr& root, std::vector<Var*>* order) {
  // Iterative postorder DFS to avoid stack overflow on long chains (LSTM).
  std::unordered_set<Var*> visited;
  std::vector<std::pair<Var*, size_t>> stack;
  stack.emplace_back(root.get(), 0);
  visited.insert(root.get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      Var* child = node->parents[next_child].get();
      ++next_child;
      if (child->requires_grad && !visited.count(child)) {
        visited.insert(child);
        stack.emplace_back(child, 0);
      }
    } else {
      order->push_back(node);
      stack.pop_back();
    }
  }
}

}  // namespace

void Backward(const VarPtr& root) {
  LITE_CHECK(root->numel() == 1) << "Backward root must be scalar";
  std::vector<Var*> order;
  TopoSort(root, &order);
  // Zero only op-node gradients: leaf parameters accumulate across calls so
  // minibatch training can sum per-instance gradients (Optimizer::ZeroGrad
  // clears them between steps).
  for (Var* v : order) {
    if (v->backward_fn) v->grad.Zero();
  }
  root->grad[0] = 1.0f;
  // Postorder puts root last; run closures from root backwards.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if ((*it)->backward_fn) (*it)->backward_fn();
  }
}

namespace ops {

VarPtr MatMul(const VarPtr& a, const VarPtr& b) {
  LITE_CHECK(a->value.rank() == 2 && b->value.rank() == 2) << "MatMul rank";
  Tensor out(a->value.shape()[0], b->value.shape()[1]);
  lite::MatMul(a->value, b->value, &out);
  auto node = MakeNode(std::move(out), {a, b});
  Var* n = node.get();
  Var* ap = a.get();
  Var* bp = b.get();
  node->backward_fn = [n, ap, bp]() {
    if (ap->requires_grad) MatMulTransposeBAccum(n->grad, bp->value, &ap->grad);
    if (bp->requires_grad) MatMulTransposeAAccum(ap->value, n->grad, &bp->grad);
  };
  return node;
}

VarPtr MatMulTransB(const VarPtr& a, const VarPtr& b) {
  // out = a * b^T, a: m x k, b: n x k -> m x n.
  LITE_CHECK(a->value.rank() == 2 && b->value.rank() == 2) << "MatMulTransB rank";
  size_t m = a->value.shape()[0], k = a->value.shape()[1], nn = b->value.shape()[0];
  LITE_CHECK(b->value.shape()[1] == k) << "MatMulTransB inner dim";
  Tensor out(m, nn);
  MatMulTransposeBAccum(a->value, b->value, &out);
  auto node = MakeNode(std::move(out), {a, b});
  Var* n = node.get();
  Var* ap = a.get();
  Var* bp = b.get();
  node->backward_fn = [n, ap, bp]() {
    // dA += dOut * B ; dB += dOut^T * A.
    if (ap->requires_grad) {
      Tensor tmp(ap->value.shape()[0], ap->value.shape()[1]);
      lite::MatMul(n->grad, bp->value, &tmp);
      ap->grad.Add(tmp);
    }
    if (bp->requires_grad) MatMulTransposeAAccum(n->grad, ap->value, &bp->grad);
  };
  return node;
}

VarPtr Add(const VarPtr& a, const VarPtr& b) {
  LITE_CHECK(a->value.SameShape(b->value)) << "Add shape";
  Tensor out = a->value;
  out.Add(b->value);
  auto node = MakeNode(std::move(out), {a, b});
  Var* n = node.get();
  Var* ap = a.get();
  Var* bp = b.get();
  node->backward_fn = [n, ap, bp]() {
    if (ap->requires_grad) ap->grad.Add(n->grad);
    if (bp->requires_grad) bp->grad.Add(n->grad);
  };
  return node;
}

VarPtr Sub(const VarPtr& a, const VarPtr& b) {
  LITE_CHECK(a->value.SameShape(b->value)) << "Sub shape";
  Tensor out = a->value;
  out.Axpy(-1.0f, b->value);
  auto node = MakeNode(std::move(out), {a, b});
  Var* n = node.get();
  Var* ap = a.get();
  Var* bp = b.get();
  node->backward_fn = [n, ap, bp]() {
    if (ap->requires_grad) ap->grad.Add(n->grad);
    if (bp->requires_grad) bp->grad.Axpy(-1.0f, n->grad);
  };
  return node;
}

VarPtr Mul(const VarPtr& a, const VarPtr& b) {
  LITE_CHECK(a->value.SameShape(b->value)) << "Mul shape";
  Tensor out = a->value;
  for (size_t i = 0; i < out.numel(); ++i) out[i] *= b->value[i];
  auto node = MakeNode(std::move(out), {a, b});
  Var* n = node.get();
  Var* ap = a.get();
  Var* bp = b.get();
  node->backward_fn = [n, ap, bp]() {
    for (size_t i = 0; i < n->grad.numel(); ++i) {
      if (ap->requires_grad) ap->grad[i] += n->grad[i] * bp->value[i];
      if (bp->requires_grad) bp->grad[i] += n->grad[i] * ap->value[i];
    }
  };
  return node;
}

VarPtr AddBias(const VarPtr& a, const VarPtr& bias) {
  LITE_CHECK(bias->value.rank() == 1) << "AddBias bias must be rank-1";
  Tensor out = a->value;
  if (a->value.rank() == 1) {
    LITE_CHECK(a->value.numel() == bias->value.numel()) << "AddBias size";
    out.Add(bias->value);
  } else {
    size_t rows = a->value.shape()[0], cols = a->value.shape()[1];
    LITE_CHECK(bias->value.numel() == cols) << "AddBias col mismatch";
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols; ++c) out.at(r, c) += bias->value[c];
    }
  }
  auto node = MakeNode(std::move(out), {a, bias});
  Var* n = node.get();
  Var* ap = a.get();
  Var* bp = bias.get();
  node->backward_fn = [n, ap, bp]() {
    if (ap->requires_grad) ap->grad.Add(n->grad);
    if (bp->requires_grad) {
      if (n->grad.rank() == 1) {
        bp->grad.Add(n->grad);
      } else {
        size_t rows = n->grad.shape()[0], cols = n->grad.shape()[1];
        for (size_t r = 0; r < rows; ++r) {
          for (size_t c = 0; c < cols; ++c) bp->grad[c] += n->grad.at(r, c);
        }
      }
    }
  };
  return node;
}

VarPtr Scale(const VarPtr& a, float alpha) {
  Tensor out = a->value;
  out.Scale(alpha);
  auto node = MakeNode(std::move(out), {a});
  Var* n = node.get();
  Var* ap = a.get();
  node->backward_fn = [n, ap, alpha]() {
    if (ap->requires_grad) ap->grad.Axpy(alpha, n->grad);
  };
  return node;
}

namespace {
template <typename Fwd, typename Bwd>
VarPtr Elementwise(const VarPtr& a, Fwd fwd, Bwd dydx) {
  Tensor out = a->value;
  for (size_t i = 0; i < out.numel(); ++i) out[i] = fwd(out[i]);
  auto node = MakeNode(std::move(out), {a});
  Var* n = node.get();
  Var* ap = a.get();
  node->backward_fn = [n, ap, dydx]() {
    if (!ap->requires_grad) return;
    for (size_t i = 0; i < n->grad.numel(); ++i) {
      ap->grad[i] += n->grad[i] * dydx(ap->value[i], n->value[i]);
    }
  };
  return node;
}
}  // namespace

VarPtr Relu(const VarPtr& a) {
  return Elementwise(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

VarPtr Sigmoid(const VarPtr& a) {
  return Elementwise(
      a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

VarPtr Tanh(const VarPtr& a) {
  return Elementwise(
      a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

VarPtr Concat(const std::vector<VarPtr>& parts) {
  LITE_CHECK(!parts.empty()) << "Concat of nothing";
  size_t total = 0;
  for (const auto& p : parts) total += p->numel();
  Tensor out(total);
  size_t off = 0;
  for (const auto& p : parts) {
    std::copy(p->value.vec().begin(), p->value.vec().end(),
              out.vec().begin() + static_cast<long>(off));
    off += p->numel();
  }
  auto node = MakeNode(std::move(out), parts);
  Var* n = node.get();
  std::vector<Var*> raw;
  raw.reserve(parts.size());
  for (const auto& p : parts) raw.push_back(p.get());
  node->backward_fn = [n, raw]() {
    size_t off = 0;
    for (Var* p : raw) {
      if (p->requires_grad) {
        for (size_t i = 0; i < p->numel(); ++i) p->grad[i] += n->grad[off + i];
      }
      off += p->numel();
    }
  };
  return node;
}

VarPtr StackRows(const std::vector<VarPtr>& parts) {
  LITE_CHECK(!parts.empty()) << "StackRows of nothing";
  size_t cols = parts[0]->numel();
  for (const auto& p : parts) {
    LITE_CHECK(p->value.rank() == 1 && p->numel() == cols)
        << "StackRows needs equal-length rank-1 parts";
  }
  Tensor out(parts.size(), cols);
  for (size_t r = 0; r < parts.size(); ++r) {
    std::copy(parts[r]->value.vec().begin(), parts[r]->value.vec().end(),
              out.vec().begin() + static_cast<long>(r * cols));
  }
  auto node = MakeNode(std::move(out), parts);
  Var* n = node.get();
  std::vector<Var*> raw;
  raw.reserve(parts.size());
  for (const auto& p : parts) raw.push_back(p.get());
  node->backward_fn = [n, raw, cols]() {
    for (size_t r = 0; r < raw.size(); ++r) {
      if (!raw[r]->requires_grad) continue;
      for (size_t c = 0; c < cols; ++c) {
        raw[r]->grad[c] += n->grad.at(r, c);
      }
    }
  };
  return node;
}

VarPtr Row(const VarPtr& a, size_t r) {
  LITE_CHECK(a->value.rank() == 2 && r < a->value.shape()[0]) << "Row OOB";
  size_t cols = a->value.shape()[1];
  Tensor out(1, cols);
  for (size_t c = 0; c < cols; ++c) out.at(0, c) = a->value.at(r, c);
  auto node = MakeNode(std::move(out), {a});
  Var* n = node.get();
  Var* ap = a.get();
  node->backward_fn = [n, ap, r, cols]() {
    if (!ap->requires_grad) return;
    for (size_t c = 0; c < cols; ++c) ap->grad.at(r, c) += n->grad.at(0, c);
  };
  return node;
}

VarPtr SliceCols(const VarPtr& a, size_t start, size_t len) {
  LITE_CHECK(a->value.rank() == 2) << "SliceCols rank";
  size_t rows = a->value.shape()[0], cols = a->value.shape()[1];
  LITE_CHECK(start + len <= cols) << "SliceCols OOB";
  Tensor out(rows, len);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < len; ++c) out.at(r, c) = a->value.at(r, start + c);
  }
  auto node = MakeNode(std::move(out), {a});
  Var* n = node.get();
  Var* ap = a.get();
  node->backward_fn = [n, ap, start, len, rows]() {
    if (!ap->requires_grad) return;
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < len; ++c) {
        ap->grad.at(r, start + c) += n->grad.at(r, c);
      }
    }
  };
  return node;
}

VarPtr Reshape(const VarPtr& a, std::vector<size_t> shape) {
  size_t n = 1;
  for (size_t d : shape) n *= d;
  LITE_CHECK(n == a->numel()) << "Reshape numel mismatch";
  Tensor out(std::move(shape), a->value.vec());
  auto node = MakeNode(std::move(out), {a});
  Var* nd = node.get();
  Var* ap = a.get();
  node->backward_fn = [nd, ap]() {
    if (!ap->requires_grad) return;
    for (size_t i = 0; i < nd->grad.numel(); ++i) ap->grad[i] += nd->grad[i];
  };
  return node;
}

VarPtr Conv1D(const VarPtr& input, const VarPtr& weight, const VarPtr& bias,
              size_t width) {
  LITE_CHECK(input->value.rank() == 2) << "Conv1D input rank";
  size_t d = input->value.shape()[0];
  size_t n = input->value.shape()[1];
  LITE_CHECK(n >= width && width >= 1) << "Conv1D width";
  size_t kernels = weight->value.shape()[0];
  LITE_CHECK(weight->value.shape()[1] == d * width) << "Conv1D weight shape";
  LITE_CHECK(bias->value.numel() == kernels) << "Conv1D bias shape";
  size_t m = n - width + 1;
  Tensor out(kernels, m);
  const float* x = input->value.data();
  const float* w = weight->value.data();
  // Every output starts at its bias and adds its terms in (dim, offset)
  // order; positions run innermost so each add is contiguous over them.
  for (size_t k = 0; k < kernels; ++k) {
    const float* wk = w + k * d * width;  // layout: [dim][offset].
    float* ok = out.data() + k * m;
    std::fill(ok, ok + m, bias->value[k]);
    for (size_t dd = 0; dd < d; ++dd) {
      for (size_t dx = 0; dx < width; ++dx) {
        const float wv = wk[dd * width + dx];
        const float* xrow = x + dd * n + dx;
        for (size_t j = 0; j < m; ++j) ok[j] += wv * xrow[j];
      }
    }
  }
  auto node = MakeNode(std::move(out), {input, weight, bias});
  Var* nd = node.get();
  Var* xp = input.get();
  Var* wp = weight.get();
  Var* bp = bias.get();
  node->backward_fn = [nd, xp, wp, bp, d, n, width, kernels, m]() {
    const float* g = nd->grad.data();
    const float* x = xp->value.data();
    const float* w = wp->value.data();
    // Positions with a non-zero gradient, ascending: the others add nothing,
    // and behind MaxOverCols there is one per kernel.
    std::vector<size_t> live;
    live.reserve(m);
    for (size_t k = 0; k < kernels; ++k) {
      const float* gk = g + k * m;
      const float* wk = w + k * d * width;
      float* dwk = wp->requires_grad ? wp->grad.data() + k * d * width : nullptr;
      if (bp->requires_grad) {
        float s = 0.0f;
        for (size_t j = 0; j < m; ++j) s += gk[j];
        bp->grad[k] += s;
      }
      live.clear();
      for (size_t j = 0; j < m; ++j) {
        if (gk[j] != 0.0f) live.push_back(j);
      }
      for (size_t dd = 0; dd < d; ++dd) {
        const float* xrow = x + dd * n;
        float* dxrow = xp->requires_grad ? xp->grad.data() + dd * n : nullptr;
        for (size_t dx = 0; dx < width; ++dx) {
          float wv = wk[dd * width + dx];
          float dw = 0.0f;
          for (size_t j : live) {
            float gj = gk[j];
            dw += gj * xrow[j + dx];
            if (dxrow) dxrow[j + dx] += gj * wv;
          }
          if (dwk) dwk[dd * width + dx] += dw;
        }
      }
    }
  };
  return node;
}

VarPtr MaxOverCols(const VarPtr& a) {
  LITE_CHECK(a->value.rank() == 2) << "MaxOverCols rank";
  size_t rows = a->value.shape()[0], cols = a->value.shape()[1];
  Tensor out(rows);
  auto argmax = std::make_shared<std::vector<size_t>>(rows);
  for (size_t r = 0; r < rows; ++r) {
    size_t best = 0;
    for (size_t c = 1; c < cols; ++c) {
      if (a->value.at(r, c) > a->value.at(r, best)) best = c;
    }
    (*argmax)[r] = best;
    out[r] = a->value.at(r, best);
  }
  auto node = MakeNode(std::move(out), {a});
  Var* n = node.get();
  Var* ap = a.get();
  node->backward_fn = [n, ap, argmax, rows]() {
    if (!ap->requires_grad) return;
    for (size_t r = 0; r < rows; ++r) {
      ap->grad.at(r, (*argmax)[r]) += n->grad[r];
    }
  };
  return node;
}

VarPtr MaxOverRows(const VarPtr& a) {
  LITE_CHECK(a->value.rank() == 2) << "MaxOverRows rank";
  size_t rows = a->value.shape()[0], cols = a->value.shape()[1];
  Tensor out(cols);
  auto argmax = std::make_shared<std::vector<size_t>>(cols);
  for (size_t c = 0; c < cols; ++c) {
    size_t best = 0;
    for (size_t r = 1; r < rows; ++r) {
      if (a->value.at(r, c) > a->value.at(best, c)) best = r;
    }
    (*argmax)[c] = best;
    out[c] = a->value.at(best, c);
  }
  auto node = MakeNode(std::move(out), {a});
  Var* n = node.get();
  Var* ap = a.get();
  node->backward_fn = [n, ap, argmax, cols]() {
    if (!ap->requires_grad) return;
    for (size_t c = 0; c < cols; ++c) {
      ap->grad.at((*argmax)[c], c) += n->grad[c];
    }
  };
  return node;
}

VarPtr MeanOverRows(const VarPtr& a) {
  LITE_CHECK(a->value.rank() == 2) << "MeanOverRows rank";
  size_t rows = a->value.shape()[0], cols = a->value.shape()[1];
  Tensor out(cols);
  for (size_t c = 0; c < cols; ++c) {
    float s = 0.0f;
    for (size_t r = 0; r < rows; ++r) s += a->value.at(r, c);
    out[c] = s / static_cast<float>(rows);
  }
  auto node = MakeNode(std::move(out), {a});
  Var* n = node.get();
  Var* ap = a.get();
  node->backward_fn = [n, ap, rows, cols]() {
    if (!ap->requires_grad) return;
    float inv = 1.0f / static_cast<float>(rows);
    for (size_t c = 0; c < cols; ++c) {
      float g = n->grad[c] * inv;
      for (size_t r = 0; r < rows; ++r) ap->grad.at(r, c) += g;
    }
  };
  return node;
}

VarPtr SoftmaxRows(const VarPtr& a) {
  LITE_CHECK(a->value.rank() == 2) << "SoftmaxRows rank";
  size_t rows = a->value.shape()[0], cols = a->value.shape()[1];
  Tensor out = a->value;
  for (size_t r = 0; r < rows; ++r) {
    float mx = out.at(r, 0);
    for (size_t c = 1; c < cols; ++c) mx = std::max(mx, out.at(r, c));
    float sum = 0.0f;
    for (size_t c = 0; c < cols; ++c) {
      float e = std::exp(out.at(r, c) - mx);
      out.at(r, c) = e;
      sum += e;
    }
    for (size_t c = 0; c < cols; ++c) out.at(r, c) /= sum;
  }
  auto node = MakeNode(std::move(out), {a});
  Var* n = node.get();
  Var* ap = a.get();
  node->backward_fn = [n, ap, rows, cols]() {
    if (!ap->requires_grad) return;
    for (size_t r = 0; r < rows; ++r) {
      float dot = 0.0f;
      for (size_t c = 0; c < cols; ++c) dot += n->grad.at(r, c) * n->value.at(r, c);
      for (size_t c = 0; c < cols; ++c) {
        ap->grad.at(r, c) += n->value.at(r, c) * (n->grad.at(r, c) - dot);
      }
    }
  };
  return node;
}

VarPtr EmbeddingLookup(const VarPtr& table, const std::vector<int>& ids,
                       bool columns_are_tokens) {
  LITE_CHECK(table->value.rank() == 2) << "EmbeddingLookup table rank";
  size_t v = table->value.shape()[0];
  size_t d = table->value.shape()[1];
  size_t n = ids.size();
  LITE_CHECK(n > 0 && v > 0) << "EmbeddingLookup empty";
  auto clamped = std::make_shared<std::vector<size_t>>(n);
  for (size_t i = 0; i < n; ++i) {
    long id = ids[i];
    if (id < 0) id = 0;
    if (static_cast<size_t>(id) >= v) id = static_cast<long>(v) - 1;
    (*clamped)[i] = static_cast<size_t>(id);
  }
  Tensor out = columns_are_tokens ? Tensor(d, n) : Tensor(n, d);
  for (size_t i = 0; i < n; ++i) {
    size_t row = (*clamped)[i];
    for (size_t j = 0; j < d; ++j) {
      float val = table->value.at(row, j);
      if (columns_are_tokens) {
        out.at(j, i) = val;
      } else {
        out.at(i, j) = val;
      }
    }
  }
  auto node = MakeNode(std::move(out), {table});
  Var* nd = node.get();
  Var* tp = table.get();
  node->backward_fn = [nd, tp, clamped, d, n, columns_are_tokens]() {
    if (!tp->requires_grad) return;
    for (size_t i = 0; i < n; ++i) {
      size_t row = (*clamped)[i];
      for (size_t j = 0; j < d; ++j) {
        float g = columns_are_tokens ? nd->grad.at(j, i) : nd->grad.at(i, j);
        tp->grad.at(row, j) += g;
      }
    }
  };
  return node;
}

VarPtr MseLoss(const VarPtr& pred, const Tensor& target) {
  LITE_CHECK(pred->numel() == target.numel()) << "MseLoss size";
  size_t n = pred->numel();
  Tensor out(static_cast<size_t>(1));
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double diff = pred->value[i] - target[i];
    s += diff * diff;
  }
  out[0] = static_cast<float>(s / static_cast<double>(n));
  auto node = MakeNode(std::move(out), {pred});
  Var* nd = node.get();
  Var* pp = pred.get();
  Tensor tgt = target;
  node->backward_fn = [nd, pp, tgt, n]() {
    if (!pp->requires_grad) return;
    float scale = 2.0f / static_cast<float>(n) * nd->grad[0];
    for (size_t i = 0; i < n; ++i) {
      pp->grad[i] += scale * (pp->value[i] - tgt[i]);
    }
  };
  return node;
}

VarPtr BceWithLogitsLoss(const VarPtr& logit, float label) {
  LITE_CHECK(logit->numel() == 1) << "BceWithLogitsLoss expects scalar logit";
  float x = logit->value[0];
  // Numerically stable: max(x,0) - x*y + log(1+exp(-|x|)).
  float loss = std::max(x, 0.0f) - x * label + std::log1p(std::exp(-std::fabs(x)));
  Tensor out(static_cast<size_t>(1));
  out[0] = loss;
  auto node = MakeNode(std::move(out), {logit});
  Var* nd = node.get();
  Var* lp = logit.get();
  node->backward_fn = [nd, lp, label]() {
    if (!lp->requires_grad) return;
    float x = lp->value[0];
    float sig = 1.0f / (1.0f + std::exp(-x));
    lp->grad[0] += (sig - label) * nd->grad[0];
  };
  return node;
}

VarPtr SquareSum(const VarPtr& a) {
  Tensor out(static_cast<size_t>(1));
  double s = 0.0;
  for (size_t i = 0; i < a->numel(); ++i) s += static_cast<double>(a->value[i]) * a->value[i];
  out[0] = static_cast<float>(s);
  auto node = MakeNode(std::move(out), {a});
  Var* nd = node.get();
  Var* ap = a.get();
  node->backward_fn = [nd, ap]() {
    if (!ap->requires_grad) return;
    for (size_t i = 0; i < ap->numel(); ++i) {
      ap->grad[i] += 2.0f * ap->value[i] * nd->grad[0];
    }
  };
  return node;
}

VarPtr GradReverse(const VarPtr& a, float lambda) {
  Tensor out = a->value;
  auto node = MakeNode(std::move(out), {a});
  Var* nd = node.get();
  Var* ap = a.get();
  node->backward_fn = [nd, ap, lambda]() {
    if (!ap->requires_grad) return;
    ap->grad.Axpy(-lambda, nd->grad);
  };
  return node;
}

}  // namespace ops
}  // namespace lite
