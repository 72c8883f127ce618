// Gradient correctness: every autodiff op is validated against central
// finite differences, plus structural tests (accumulation, topo order,
// gradient reversal).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>

#include "tensor/autodiff.h"
#include "util/rng.h"

namespace lite {
namespace {

using namespace ops;

/// Checks d(loss)/d(param) for every element of every parameter via central
/// differences. `build` must construct a fresh graph from current parameter
/// values and return a scalar node.
void CheckGradients(std::vector<VarPtr> params,
                    const std::function<VarPtr()>& build, float eps = 1e-3f,
                    float tol = 2e-2f) {
  VarPtr loss = build();
  for (auto& p : params) p->grad.Zero();
  Backward(loss);
  // Snapshot analytic gradients.
  std::vector<Tensor> analytic;
  for (auto& p : params) analytic.push_back(p->grad);

  for (size_t pi = 0; pi < params.size(); ++pi) {
    Var& p = *params[pi];
    for (size_t i = 0; i < p.numel(); ++i) {
      float orig = p.value[i];
      p.value[i] = orig + eps;
      float up = build()->value[0];
      p.value[i] = orig - eps;
      float down = build()->value[0];
      p.value[i] = orig;
      float numeric = (up - down) / (2.0f * eps);
      float exact = analytic[pi][i];
      float scale = std::max({std::fabs(numeric), std::fabs(exact), 1.0f});
      EXPECT_NEAR(exact, numeric, tol * scale)
          << "param " << pi << " element " << i;
    }
  }
}

TEST(AutodiffTest, MatMulGradient) {
  Rng rng(1);
  VarPtr a = Param(Tensor::Randn({2, 3}, &rng, 1.0f));
  VarPtr b = Param(Tensor::Randn({3, 2}, &rng, 1.0f));
  CheckGradients({a, b}, [&] { return SquareSum(MatMul(a, b)); });
}

TEST(AutodiffTest, MatMulTransBGradient) {
  Rng rng(2);
  VarPtr a = Param(Tensor::Randn({2, 3}, &rng, 1.0f));
  VarPtr b = Param(Tensor::Randn({4, 3}, &rng, 1.0f));
  CheckGradients({a, b}, [&] { return SquareSum(MatMulTransB(a, b)); });
}

TEST(AutodiffTest, AddSubMulGradient) {
  Rng rng(3);
  VarPtr a = Param(Tensor::Randn({5}, &rng, 1.0f));
  VarPtr b = Param(Tensor::Randn({5}, &rng, 1.0f));
  CheckGradients({a, b}, [&] { return SquareSum(Add(a, b)); });
  CheckGradients({a, b}, [&] { return SquareSum(Sub(a, b)); });
  CheckGradients({a, b}, [&] { return SquareSum(Mul(a, b)); });
}

TEST(AutodiffTest, AddBiasGradient) {
  Rng rng(4);
  VarPtr a = Param(Tensor::Randn({3, 4}, &rng, 1.0f));
  VarPtr bias = Param(Tensor::Randn({4}, &rng, 1.0f));
  CheckGradients({a, bias}, [&] { return SquareSum(AddBias(a, bias)); });
}

TEST(AutodiffTest, ScaleGradient) {
  Rng rng(5);
  VarPtr a = Param(Tensor::Randn({4}, &rng, 1.0f));
  CheckGradients({a}, [&] { return SquareSum(Scale(a, -2.5f)); });
}

TEST(AutodiffTest, ActivationGradients) {
  Rng rng(6);
  VarPtr a = Param(Tensor::Randn({6}, &rng, 1.0f));
  // Shift away from the ReLU kink where numeric gradients are invalid.
  for (size_t i = 0; i < a->numel(); ++i) {
    if (std::fabs(a->value[i]) < 0.05f) a->value[i] = 0.3f;
  }
  CheckGradients({a}, [&] { return SquareSum(Relu(a)); });
  CheckGradients({a}, [&] { return SquareSum(Sigmoid(a)); });
  CheckGradients({a}, [&] { return SquareSum(Tanh(a)); });
}

TEST(AutodiffTest, ConcatRowSliceReshapeGradients) {
  Rng rng(7);
  VarPtr a = Param(Tensor::Randn({3}, &rng, 1.0f));
  VarPtr b = Param(Tensor::Randn({2}, &rng, 1.0f));
  CheckGradients({a, b}, [&] { return SquareSum(Concat({a, b})); });

  VarPtr m = Param(Tensor::Randn({3, 4}, &rng, 1.0f));
  CheckGradients({m}, [&] { return SquareSum(Row(m, 1)); });
  CheckGradients({m}, [&] { return SquareSum(SliceCols(m, 1, 2)); });
  CheckGradients({m}, [&] { return SquareSum(Reshape(m, {12})); });
}

TEST(AutodiffTest, Conv1DGradient) {
  Rng rng(8);
  VarPtr x = Param(Tensor::Randn({3, 8}, &rng, 1.0f));     // D=3, N=8.
  VarPtr w = Param(Tensor::Randn({2, 3 * 3}, &rng, 1.0f)); // 2 kernels, w=3.
  VarPtr b = Param(Tensor::Randn({2}, &rng, 1.0f));
  CheckGradients({x, w, b}, [&] { return SquareSum(Conv1D(x, w, b, 3)); });
}

// ---------------------------------------------------------------------------
// Conv1D parity. The kernel must give every output and gradient element the
// same float operations, in the same order, as the per-position reference
// below, so the two agree bit for bit: signed zeros and NaNs included.

/// One dependent add chain per output: bias, then (dim, offset) terms.
Tensor ReferenceConv1D(const Tensor& x, const Tensor& w, const Tensor& bias,
                       size_t width) {
  size_t d = x.shape()[0], n = x.shape()[1], kernels = w.shape()[0];
  size_t m = n - width + 1;
  Tensor out(kernels, m);
  for (size_t k = 0; k < kernels; ++k) {
    const float* wk = w.data() + k * d * width;
    for (size_t j = 0; j < m; ++j) {
      float s = bias[k];
      for (size_t dd = 0; dd < d; ++dd) {
        const float* xrow = x.data() + dd * n + j;
        const float* wrow = wk + dd * width;
        for (size_t o = 0; o < width; ++o) s += wrow[o] * xrow[o];
      }
      out.at(k, j) = s;
    }
  }
  return out;
}

/// Dense backward over every position, skipping zero upstream gradients.
/// A null output is an operand that requires no gradient.
void ReferenceConv1DBackward(const Tensor& g, const Tensor& x,
                             const Tensor& w, size_t width, Tensor* dx,
                             Tensor* dw, Tensor* db) {
  size_t d = x.shape()[0], n = x.shape()[1], kernels = w.shape()[0];
  size_t m = n - width + 1;
  for (size_t k = 0; k < kernels; ++k) {
    const float* gk = g.data() + k * m;
    if (db) {
      float s = 0.0f;
      for (size_t j = 0; j < m; ++j) s += gk[j];
      (*db)[k] += s;
    }
    for (size_t dd = 0; dd < d; ++dd) {
      for (size_t o = 0; o < width; ++o) {
        float wv = w.at(k, dd * width + o);
        float sum = 0.0f;
        for (size_t j = 0; j < m; ++j) {
          float gj = gk[j];
          if (gj == 0.0f) continue;
          sum += gj * x.at(dd, j + o);
          if (dx) dx->at(dd, j + o) += gj * wv;
        }
        if (dw) dw->at(k, dd * width + o) += sum;
      }
    }
  }
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// A leaf whose gradient buffer already holds values, every third one -0.0,
/// so accumulation onto a signed zero is compared too.
VarPtr Leaf(std::vector<size_t> shape, bool requires_grad, Rng* rng) {
  auto v = std::make_shared<Var>(Tensor::Randn(shape, rng, 1.0f),
                                 requires_grad);
  v->grad = Tensor::Randn(shape, rng, 1.0f);
  for (size_t i = 0; i < v->numel(); i += 3) v->grad[i] = -0.0f;
  return v;
}

enum class Upstream { kDense, kMaxPool, kAllZero, kSignedZeroAndNan };

/// Runs Conv1D forward and backward once and compares the output and all
/// three gradients with the reference, bit for bit.
void CheckConvAgainstReference(size_t width, size_t n, size_t d,
                               size_t kernels, Upstream up, bool x_param,
                               bool wb_grad, Rng* rng) {
  SCOPED_TRACE(::testing::Message()
               << "width=" << width << " n=" << n << " d=" << d
               << " kernels=" << kernels << " upstream=" << static_cast<int>(up)
               << " x_param=" << x_param << " wb_grad=" << wb_grad);
  VarPtr x = Leaf({d, n}, x_param, rng);
  VarPtr w = Leaf({kernels, d * width}, wb_grad, rng);
  VarPtr b = Leaf({kernels}, wb_grad, rng);
  Tensor dx = x->grad, dw = w->grad, db = b->grad;
  VarPtr conv = Conv1D(x, w, b, width);
  EXPECT_TRUE(SameBits(conv->value,
                       ReferenceConv1D(x->value, w->value, b->value, width)));

  size_t m = n - width + 1;
  if (up == Upstream::kDense || up == Upstream::kSignedZeroAndNan) {
    conv->grad = Tensor::Randn({kernels, m}, rng, 1.0f);
  }
  if (up == Upstream::kSignedZeroAndNan) {
    for (size_t i = 0; i < conv->numel(); i += 2) conv->grad[i] = -0.0f;
    conv->grad[conv->numel() / 2] = std::numeric_limits<float>::quiet_NaN();
  }
  if (up == Upstream::kMaxPool) {  // one non-zero position per kernel.
    VarPtr pooled = MaxOverCols(conv);
    pooled->grad = Tensor::Randn({kernels}, rng, 1.0f);
    pooled->backward_fn();
  }
  conv->backward_fn();
  ReferenceConv1DBackward(conv->grad, x->value, w->value, width,
                          x_param ? &dx : nullptr, wb_grad ? &dw : nullptr,
                          wb_grad ? &db : nullptr);
  EXPECT_TRUE(SameBits(x->grad, dx));
  EXPECT_TRUE(SameBits(w->grad, dw));
  EXPECT_TRUE(SameBits(b->grad, db));
}

TEST(Conv1DParityTest, MatchesPerPositionReferenceBitForBit) {
  Rng rng(40);
  for (size_t width = 1; width <= 5; ++width) {
    for (size_t n : {width, size_t{128}}) {
      for (size_t d : {1, 16}) {
        for (size_t kernels : {1, 16}) {
          for (Upstream up : {Upstream::kDense, Upstream::kMaxPool,
                              Upstream::kAllZero,
                              Upstream::kSignedZeroAndNan}) {
            for (bool x_param : {true, false}) {
              for (bool wb_grad : {true, false}) {
                CheckConvAgainstReference(width, n, d, kernels, up, x_param,
                                          wb_grad, &rng);
              }
            }
          }
        }
      }
    }
  }
}

TEST(AutodiffTest, PoolingGradients) {
  Rng rng(9);
  VarPtr m = Param(Tensor::Randn({4, 5}, &rng, 1.0f));
  CheckGradients({m}, [&] { return SquareSum(MaxOverCols(m)); });
  CheckGradients({m}, [&] { return SquareSum(MaxOverRows(m)); });
  CheckGradients({m}, [&] { return SquareSum(MeanOverRows(m)); });
}

TEST(AutodiffTest, SoftmaxRowsGradient) {
  Rng rng(10);
  VarPtr m = Param(Tensor::Randn({3, 4}, &rng, 1.0f));
  VarPtr coeff = Param(Tensor::Randn({3, 4}, &rng, 1.0f));
  // Use a weighted sum so the gradient isn't trivially zero (softmax rows
  // sum to 1, so SquareSum alone has near-degenerate gradients).
  CheckGradients({m}, [&] {
    return SquareSum(Mul(SoftmaxRows(m), coeff));
  });
}

TEST(AutodiffTest, SoftmaxRowsSumsToOne) {
  Rng rng(11);
  VarPtr m = Input(Tensor::Randn({5, 7}, &rng, 3.0f));
  VarPtr s = SoftmaxRows(m);
  for (size_t r = 0; r < 5; ++r) {
    float sum = 0.0f;
    for (size_t c = 0; c < 7; ++c) sum += s->value.at(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST(AutodiffTest, EmbeddingLookupGradient) {
  Rng rng(12);
  VarPtr table = Param(Tensor::Randn({5, 3}, &rng, 1.0f));
  std::vector<int> ids{0, 2, 2, 4};
  CheckGradients({table}, [&] {
    return SquareSum(EmbeddingLookup(table, ids, true));
  });
  CheckGradients({table}, [&] {
    return SquareSum(EmbeddingLookup(table, ids, false));
  });
}

TEST(AutodiffTest, EmbeddingLookupClampsOutOfRange) {
  VarPtr table = Param(Tensor({3, 2}, {0, 0, 1, 1, 2, 2}));
  VarPtr out = EmbeddingLookup(table, {-5, 10}, false);
  EXPECT_FLOAT_EQ(out->value.at(0, 0), 0.0f);  // clamped to row 0.
  EXPECT_FLOAT_EQ(out->value.at(1, 0), 2.0f);  // clamped to row 2.
}

TEST(AutodiffTest, MseLossGradient) {
  Rng rng(13);
  VarPtr pred = Param(Tensor::Randn({4}, &rng, 1.0f));
  Tensor target = Tensor::FromVector({0.5, -0.5, 1.0, 2.0});
  CheckGradients({pred}, [&] { return MseLoss(pred, target); });
}

TEST(AutodiffTest, BceWithLogitsGradient) {
  Rng rng(14);
  VarPtr logit = Param(Tensor::Randn({1}, &rng, 1.0f));
  CheckGradients({logit}, [&] { return BceWithLogitsLoss(logit, 1.0f); });
  CheckGradients({logit}, [&] { return BceWithLogitsLoss(logit, 0.0f); });
}

TEST(AutodiffTest, BceWithLogitsValue) {
  VarPtr logit = Param(Tensor::FromVector({0.0}));
  VarPtr loss = BceWithLogitsLoss(logit, 1.0f);
  EXPECT_NEAR(loss->value[0], std::log(2.0f), 1e-5);
}

TEST(AutodiffTest, GradReverseNegatesAndScales) {
  VarPtr a = Param(Tensor::FromVector({1.0, 2.0}));
  VarPtr rev = GradReverse(a, 0.5f);
  VarPtr loss = SquareSum(rev);
  a->grad.Zero();
  Backward(loss);
  // d(sum x^2)/dx = 2x, reversed with lambda 0.5 -> -x.
  EXPECT_FLOAT_EQ(a->grad[0], -1.0f);
  EXPECT_FLOAT_EQ(a->grad[1], -2.0f);
  // Forward is identity.
  EXPECT_FLOAT_EQ(rev->value[0], 1.0f);
}

TEST(AutodiffTest, GradientsAccumulateAcrossBackwardCalls) {
  VarPtr a = Param(Tensor::FromVector({3.0}));
  a->grad.Zero();
  Backward(SquareSum(a));  // grad += 6.
  Backward(SquareSum(a));  // grad += 6.
  EXPECT_FLOAT_EQ(a->grad[0], 12.0f);
}

TEST(AutodiffTest, DiamondGraphAccumulates) {
  // loss = sum((a + a) * a) -> d/da of 2a^2 elementwise = 4a... via SquareSum:
  // loss = SquareSum(Add(a,a)) = sum(4 a^2), grad = 8a.
  VarPtr a = Param(Tensor::FromVector({2.0}));
  a->grad.Zero();
  Backward(SquareSum(Add(a, a)));
  EXPECT_FLOAT_EQ(a->grad[0], 16.0f);
}

TEST(AutodiffTest, NoGradThroughInputs) {
  VarPtr x = Input(Tensor::FromVector({1.0, 2.0}));
  VarPtr loss = SquareSum(x);
  Backward(loss);  // Must not crash; x requires no grad.
  EXPECT_FALSE(loss->requires_grad);
}

TEST(AutodiffTest, DeepChainNoStackOverflow) {
  // LSTM-like long chains must not recurse: 5000-node chain.
  VarPtr a = Param(Tensor::FromVector({1.0}));
  VarPtr x = a;
  for (int i = 0; i < 5000; ++i) x = Scale(x, 1.0001f);
  a->grad.Zero();
  Backward(SquareSum(x));
  EXPECT_GT(a->grad[0], 0.0f);
}

}  // namespace
}  // namespace lite
