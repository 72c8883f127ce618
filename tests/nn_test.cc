#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "nn/encoders.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "tensor/optimizer.h"

namespace lite {
namespace {

using namespace ops;

TEST(LinearTest, ShapesAndForward) {
  Rng rng(1);
  Linear lin(3, 2, &rng);
  VarPtr v = lin.Forward(Input(Tensor::FromVector({1.0, 2.0, 3.0})));
  EXPECT_EQ(v->value.rank(), 1u);
  EXPECT_EQ(v->numel(), 2u);
  VarPtr m = lin.Forward(Input(Tensor(static_cast<size_t>(4), static_cast<size_t>(3))));
  EXPECT_EQ(m->value.rank(), 2u);
  EXPECT_EQ(m->value.shape()[0], 4u);
  EXPECT_EQ(m->value.shape()[1], 2u);
  EXPECT_EQ(lin.NumParams(), 3u * 2u + 2u);
}

TEST(MlpTest, TowerHalvesWidths) {
  Rng rng(2);
  Mlp mlp(64, 3, 1, &rng);
  // Hidden widths 32, 16, 8 -> concat 56.
  EXPECT_EQ(mlp.hidden_concat_dim(), 56u);
  MlpOutput out = mlp.Forward(Input(Tensor(static_cast<size_t>(64))));
  EXPECT_EQ(out.output->numel(), 1u);
  EXPECT_EQ(out.hidden_concat->numel(), 56u);
}

TEST(MlpTest, LearnsSimpleRegression) {
  // y = 2*x0 - x1.
  Rng rng(3);
  Mlp mlp(2, 2, 1, &rng);
  Adam adam(mlp.Params(), 0.02f);
  Rng data_rng(4);
  for (int step = 0; step < 600; ++step) {
    adam.ZeroGrad();
    double x0 = data_rng.Uniform(-1, 1), x1 = data_rng.Uniform(-1, 1);
    VarPtr pred = mlp.Predict(Input(Tensor::FromVector({x0, x1})));
    Tensor target(static_cast<size_t>(1));
    target[0] = static_cast<float>(2 * x0 - x1);
    Backward(MseLoss(pred, target));
    adam.Step();
  }
  double err = 0.0;
  for (int i = 0; i < 50; ++i) {
    double x0 = data_rng.Uniform(-1, 1), x1 = data_rng.Uniform(-1, 1);
    VarPtr pred = mlp.Predict(Input(Tensor::FromVector({x0, x1})));
    err += std::fabs(pred->value[0] - (2 * x0 - x1));
  }
  EXPECT_LT(err / 50.0, 0.2);
}

TEST(MlpTest, SigmoidOutputBounded) {
  Rng rng(5);
  Mlp disc(8, 2, 1, &rng, /*sigmoid_output=*/true);
  VarPtr out = disc.Predict(Input(Tensor::Full({8}, 100.0f)));
  EXPECT_GE(out->value[0], 0.0f);
  EXPECT_LE(out->value[0], 1.0f);
}

TEST(MlpTest, ForwardBatchRowsMatchForwardBitForBit) {
  for (bool sigmoid : {false, true}) {
    Rng rng(6);
    Mlp mlp(10, 3, 2, &rng, sigmoid);
    Tensor x(static_cast<size_t>(5), static_cast<size_t>(10));
    for (float& v : x.vec()) v = static_cast<float>(rng.Gaussian(0.0, 1.0));
    Tensor y = mlp.ForwardBatch(x);
    ASSERT_EQ(y.shape()[0], 5u);
    ASSERT_EQ(y.shape()[1], 2u);
    for (size_t r = 0; r < 5; ++r) {
      Tensor row(static_cast<size_t>(10));
      for (size_t c = 0; c < 10; ++c) row[c] = x.at(r, c);
      VarPtr one = mlp.Predict(Input(row));
      for (size_t c = 0; c < 2; ++c) {
        EXPECT_EQ(y.at(r, c), one->value[c]) << "sigmoid=" << sigmoid;
      }
    }
  }
}

TEST(TextCnnTest, ForwardShapeAndPadding) {
  Rng rng(6);
  TextCnnEncoder cnn(50, 8, {3, 4, 5}, 4, 16, &rng);
  VarPtr h = cnn.Forward({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_EQ(h->numel(), 16u);
  // Shorter than the largest width: must pad, not crash.
  VarPtr h2 = cnn.Forward({1, 2});
  EXPECT_EQ(h2->numel(), 16u);
  // ReLU output nonnegative (Eq. 1).
  for (size_t i = 0; i < h->numel(); ++i) EXPECT_GE(h->value[i], 0.0f);
}

TEST(TextCnnTest, DistinguishesTokenPatterns) {
  // Train to separate two token sequences by regression target.
  Rng rng(7);
  TextCnnEncoder cnn(20, 8, {2}, 4, 8, &rng);
  Linear head(8, 1, &rng);
  std::vector<VarPtr> params = cnn.Params();
  auto hp = head.Params();
  params.insert(params.end(), hp.begin(), hp.end());
  Adam adam(params, 0.02f);
  std::vector<int> seq_a{2, 3, 2, 3, 2, 3};
  std::vector<int> seq_b{7, 8, 7, 8, 7, 8};
  for (int step = 0; step < 300; ++step) {
    adam.ZeroGrad();
    for (auto& [seq, y] : {std::pair{seq_a, 1.0f}, std::pair{seq_b, -1.0f}}) {
      VarPtr pred = head.Forward(cnn.Forward(seq));
      Tensor t(static_cast<size_t>(1));
      t[0] = y;
      Backward(Scale(MseLoss(pred, t), 0.5f));
    }
    adam.Step();
  }
  float pa = head.Forward(cnn.Forward(seq_a))->value[0];
  float pb = head.Forward(cnn.Forward(seq_b))->value[0];
  EXPECT_GT(pa, 0.5f);
  EXPECT_LT(pb, -0.5f);
}

TEST(GcnTest, NormalizedAdjacencyProperties) {
  // Chain 0-1-2 with self-loops: symmetric, rows bounded.
  Tensor a = NormalizedAdjacency(3, {{0, 1}, {1, 2}});
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_FLOAT_EQ(a.at(i, j), a.at(j, i));
      EXPECT_GE(a.at(i, j), 0.0f);
      EXPECT_LE(a.at(i, j), 1.0f);
    }
  }
  // Degree-2 node (1) has 1/deg self weight: A_hat[1][1] = 1/3.
  EXPECT_NEAR(a.at(1, 1), 1.0f / 3.0f, 1e-5);
  // Isolated node: self-loop only.
  Tensor iso = NormalizedAdjacency(1, {});
  EXPECT_FLOAT_EQ(iso.at(0, 0), 1.0f);
}

TEST(GcnTest, OneHotFeaturesWithOov) {
  Tensor f = OneHotNodeFeatures({0, 2, 5, -1}, 3);
  EXPECT_EQ(f.shape()[0], 4u);
  EXPECT_EQ(f.shape()[1], 4u);  // S+1.
  EXPECT_FLOAT_EQ(f.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(f.at(1, 2), 1.0f);
  EXPECT_FLOAT_EQ(f.at(2, 3), 1.0f);  // 5 >= 3 -> oov column.
  EXPECT_FLOAT_EQ(f.at(3, 3), 1.0f);  // negative -> oov column.
}

TEST(GcnTest, ForwardShape) {
  Rng rng(8);
  GcnEncoder gcn(5, 12, 2, &rng);
  GcnGraph g;
  g.node_features = OneHotNodeFeatures({0, 1, 2, 3}, 4);
  g.norm_adjacency = NormalizedAdjacency(4, {{0, 1}, {1, 2}, {2, 3}});
  VarPtr h = gcn.Forward(g);
  EXPECT_EQ(h->numel(), 12u);
}

TEST(GcnTest, StructureAffectsOutput) {
  Rng rng(9);
  GcnEncoder gcn(3, 8, 2, &rng);
  GcnGraph chain, star;
  chain.node_features = OneHotNodeFeatures({0, 1, 2, 1}, 2);
  chain.norm_adjacency = NormalizedAdjacency(4, {{0, 1}, {1, 2}, {2, 3}});
  star.node_features = OneHotNodeFeatures({0, 1, 2, 1}, 2);
  star.norm_adjacency = NormalizedAdjacency(4, {{0, 1}, {0, 2}, {0, 3}});
  VarPtr hc = gcn.Forward(chain);
  VarPtr hs = gcn.Forward(star);
  float diff = 0.0f;
  for (size_t i = 0; i < hc->numel(); ++i) {
    diff += std::fabs(hc->value[i] - hs->value[i]);
  }
  EXPECT_GT(diff, 1e-4f);
}

TEST(LstmTest, ForwardAndTruncation) {
  Rng rng(10);
  LstmEncoder lstm(30, 6, 10, 16, &rng);
  std::vector<int> long_seq(100, 3);
  VarPtr h = lstm.Forward(long_seq);  // truncated to 16 steps.
  EXPECT_EQ(h->numel(), 10u);
  VarPtr h_empty = lstm.Forward({});
  EXPECT_EQ(h_empty->numel(), 10u);
  // Hidden state bounded by tanh.
  for (size_t i = 0; i < h->numel(); ++i) {
    EXPECT_LE(std::fabs(h->value[i]), 1.0f);
  }
}

TEST(LstmTest, OrderSensitive) {
  Rng rng(11);
  LstmEncoder lstm(10, 4, 8, 16, &rng);
  VarPtr a = lstm.Forward({1, 2, 3, 4});
  VarPtr b = lstm.Forward({4, 3, 2, 1});
  float diff = 0.0f;
  for (size_t i = 0; i < a->numel(); ++i) diff += std::fabs(a->value[i] - b->value[i]);
  EXPECT_GT(diff, 1e-5f);
}

TEST(TransformerTest, ForwardShape) {
  Rng rng(12);
  TransformerEncoder tr(30, 8, 8, 12, 32, &rng);
  VarPtr h = tr.Forward({1, 5, 9, 2, 2, 2});
  EXPECT_EQ(h->numel(), 12u);
  VarPtr h2 = tr.Forward(std::vector<int>(100, 1));  // truncated.
  EXPECT_EQ(h2->numel(), 12u);
}

TEST(ModuleTest, SaveLoadRoundtrip) {
  Rng rng(13);
  Mlp mlp(6, 2, 1, &rng);
  std::stringstream saved;
  ASSERT_TRUE(SerializeParams(mlp.Params(), &saved));

  Rng rng2(99);
  Mlp other(6, 2, 1, &rng2);
  VarPtr input = Input(Tensor::Full({6}, 0.7f));
  float before = other.Predict(input)->value[0];
  ASSERT_TRUE(DeserializeParams(&saved, other.Params()));
  float after = other.Predict(input)->value[0];
  float orig = mlp.Predict(input)->value[0];
  EXPECT_NE(before, after);
  EXPECT_FLOAT_EQ(after, orig);
}

TEST(ModuleTest, LoadRejectsShapeMismatch) {
  Rng rng(14);
  Mlp mlp(6, 2, 1, &rng);
  std::stringstream saved;
  ASSERT_TRUE(SerializeParams(mlp.Params(), &saved));
  Mlp bigger(8, 2, 1, &rng);
  EXPECT_FALSE(DeserializeParams(&saved, bigger.Params()));
}

TEST(ModuleTest, CopyAndSoftUpdate) {
  Rng rng(15);
  Mlp a(4, 1, 1, &rng), b(4, 1, 1, &rng);
  CopyParams(a.Params(), b.Params());
  VarPtr x = Input(Tensor::Full({4}, 1.0f));
  EXPECT_FLOAT_EQ(a.Predict(x)->value[0], b.Predict(x)->value[0]);

  // Soft update toward a zeroed source moves parameters 10% of the way.
  Mlp zero(4, 1, 1, &rng);
  for (auto& p : zero.Params()) p->value.Zero();
  float w_before = b.Params()[0]->value[0];
  SoftUpdateParams(zero.Params(), b.Params(), 0.1f);
  EXPECT_NEAR(b.Params()[0]->value[0], 0.9f * w_before, 1e-6);
}

// Layer-level gradient checks: compose each encoder with a scalar loss and
// compare every parameter's analytic gradient against central differences.
template <typename BuildLoss>
void CheckLayerGradients(const std::vector<VarPtr>& params, BuildLoss build,
                         float tol = 3e-2f) {
  VarPtr loss = build();
  for (auto& p : params) p->grad.Zero();
  Backward(loss);
  std::vector<Tensor> analytic;
  for (auto& p : params) analytic.push_back(p->grad);
  const float eps = 2e-3f;
  for (size_t pi = 0; pi < params.size(); ++pi) {
    Var& p = *params[pi];
    // Sample a handful of coordinates per parameter to keep the test fast.
    for (size_t i = 0; i < p.numel(); i += std::max<size_t>(1, p.numel() / 5)) {
      float orig = p.value[i];
      p.value[i] = orig + eps;
      float up = build()->value[0];
      p.value[i] = orig - eps;
      float down = build()->value[0];
      p.value[i] = orig;
      float numeric = (up - down) / (2 * eps);
      float scale = std::max({std::fabs(numeric), std::fabs(analytic[pi][i]), 1.0f});
      EXPECT_NEAR(analytic[pi][i], numeric, tol * scale)
          << "param " << pi << " coord " << i;
    }
  }
}

TEST(LayerGradTest, TextCnnEndToEnd) {
  Rng rng(21);
  TextCnnEncoder cnn(12, 4, {2, 3}, 3, 5, &rng);
  std::vector<int> ids{1, 4, 7, 2, 9, 3};
  CheckLayerGradients(cnn.Params(),
                      [&] { return ops::SquareSum(cnn.Forward(ids)); });
}

TEST(LayerGradTest, GcnEndToEnd) {
  Rng rng(22);
  GcnEncoder gcn(4, 6, 2, &rng);
  GcnGraph g;
  g.node_features = OneHotNodeFeatures({0, 1, 2, 3, 1}, 3);
  g.norm_adjacency = NormalizedAdjacency(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  CheckLayerGradients(gcn.Params(),
                      [&] { return ops::SquareSum(gcn.Forward(g)); });
}

TEST(LayerGradTest, LstmEndToEnd) {
  Rng rng(23);
  LstmEncoder lstm(10, 3, 4, 6, &rng);
  std::vector<int> ids{1, 5, 2, 8};
  CheckLayerGradients(lstm.Params(),
                      [&] { return ops::SquareSum(lstm.Forward(ids)); }, 5e-2f);
}

TEST(LayerGradTest, TransformerEndToEnd) {
  Rng rng(24);
  TransformerEncoder tr(10, 4, 4, 5, 8, &rng);
  std::vector<int> ids{1, 5, 2, 8, 3};
  CheckLayerGradients(tr.Params(),
                      [&] { return ops::SquareSum(tr.Forward(ids)); }, 5e-2f);
}

}  // namespace
}  // namespace lite
