#include "nn/encoders.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace lite {

using namespace ops;

TextCnnEncoder::TextCnnEncoder(size_t vocab_size, size_t emb_dim,
                               std::vector<size_t> widths,
                               size_t kernels_per_width, size_t out_dim,
                               Rng* rng)
    : emb_dim_(emb_dim),
      out_dim_(out_dim),
      widths_(std::move(widths)),
      kernels_per_width_(kernels_per_width) {
  LITE_CHECK(!widths_.empty() && vocab_size > 0) << "TextCnnEncoder config";
  embedding_ = Param(Tensor::Randn({vocab_size, emb_dim}, rng, 0.1f));
  for (size_t w : widths_) {
    float stddev = std::sqrt(2.0f / static_cast<float>(emb_dim * w));
    conv_w_.push_back(
        Param(Tensor::Randn({kernels_per_width, emb_dim * w}, rng, stddev)));
    conv_b_.push_back(Param(Tensor::Zeros({kernels_per_width})));
  }
  proj_ = std::make_unique<Linear>(kernels_per_width * widths_.size(), out_dim, rng);
}

VarPtr TextCnnEncoder::Pooled(const std::vector<int>& token_ids) const {
  size_t max_w = *std::max_element(widths_.begin(), widths_.end());
  std::vector<int> ids = token_ids;
  while (ids.size() < max_w) ids.push_back(0);  // pad token.
  VarPtr x = EmbeddingLookup(embedding_, ids, /*columns_are_tokens=*/true);
  std::vector<VarPtr> pooled;
  pooled.reserve(widths_.size());
  for (size_t i = 0; i < widths_.size(); ++i) {
    VarPtr conv = Conv1D(x, conv_w_[i], conv_b_[i], widths_[i]);
    pooled.push_back(MaxOverCols(conv));
  }
  return Concat(pooled);
}

VarPtr TextCnnEncoder::Forward(const std::vector<int>& token_ids) const {
  return Relu(proj_->Forward(Pooled(token_ids)));  // Eq. 1: ReLU(W^CNN Q).
}

VarPtr TextCnnEncoder::ForwardBatch(
    const std::vector<std::vector<int>>& sequences) const {
  LITE_CHECK(!sequences.empty()) << "ForwardBatch of nothing";
  std::vector<VarPtr> qs;
  qs.reserve(sequences.size());
  for (const auto& token_ids : sequences) qs.push_back(Pooled(token_ids));
  return Relu(proj_->Forward(StackRows(qs)));
}

std::vector<VarPtr> TextCnnEncoder::Params() const {
  std::vector<VarPtr> out{embedding_};
  out.insert(out.end(), conv_w_.begin(), conv_w_.end());
  out.insert(out.end(), conv_b_.begin(), conv_b_.end());
  auto p = proj_->Params();
  out.insert(out.end(), p.begin(), p.end());
  return out;
}

Tensor NormalizedAdjacency(size_t num_nodes,
                           const std::vector<std::pair<int, int>>& edges) {
  LITE_CHECK(num_nodes > 0) << "NormalizedAdjacency empty graph";
  Tensor a(num_nodes, num_nodes);
  for (size_t i = 0; i < num_nodes; ++i) a.at(i, i) = 1.0f;  // A + I.
  for (const auto& [u, v] : edges) {
    LITE_CHECK(u >= 0 && v >= 0 && static_cast<size_t>(u) < num_nodes &&
               static_cast<size_t>(v) < num_nodes)
        << "edge out of range";
    a.at(static_cast<size_t>(u), static_cast<size_t>(v)) = 1.0f;
    a.at(static_cast<size_t>(v), static_cast<size_t>(u)) = 1.0f;
  }
  std::vector<float> inv_sqrt_deg(num_nodes);
  for (size_t i = 0; i < num_nodes; ++i) {
    float deg = 0.0f;
    for (size_t j = 0; j < num_nodes; ++j) deg += a.at(i, j);
    inv_sqrt_deg[i] = 1.0f / std::sqrt(std::max(deg, 1e-6f));
  }
  for (size_t i = 0; i < num_nodes; ++i) {
    for (size_t j = 0; j < num_nodes; ++j) {
      a.at(i, j) *= inv_sqrt_deg[i] * inv_sqrt_deg[j];
    }
  }
  return a;
}

Tensor OneHotNodeFeatures(const std::vector<int>& node_labels, size_t s) {
  LITE_CHECK(!node_labels.empty()) << "OneHotNodeFeatures empty";
  Tensor feat(node_labels.size(), s + 1);
  for (size_t i = 0; i < node_labels.size(); ++i) {
    int label = node_labels[i];
    size_t col = (label >= 0 && static_cast<size_t>(label) < s)
                     ? static_cast<size_t>(label)
                     : s;  // oov column.
    feat.at(i, col) = 1.0f;
  }
  return feat;
}

GcnEncoder::GcnEncoder(size_t in_dim, size_t hidden_dim, size_t num_layers,
                       Rng* rng)
    : in_dim_(in_dim), hidden_dim_(hidden_dim) {
  LITE_CHECK(num_layers >= 1) << "GcnEncoder needs >= 1 layer";
  size_t d = in_dim;
  for (size_t l = 0; l < num_layers; ++l) {
    float stddev = std::sqrt(2.0f / static_cast<float>(d + hidden_dim));
    weights_.push_back(Param(Tensor::Randn({d, hidden_dim}, rng, stddev)));
    d = hidden_dim;
  }
}

VarPtr GcnEncoder::Forward(const GcnGraph& graph) const {
  LITE_CHECK(graph.node_features.shape()[1] == in_dim_)
      << "GcnEncoder feature width " << graph.node_features.shape()[1]
      << " != " << in_dim_;
  VarPtr a_hat = Input(graph.norm_adjacency);
  VarPtr h = Input(graph.node_features);
  for (const auto& w : weights_) {
    h = Relu(MatMul(MatMul(a_hat, h), w));
  }
  return MaxOverRows(h);  // Eq. 2: h_DAG = max H^L.
}

std::vector<VarPtr> GcnEncoder::Params() const { return weights_; }

LstmEncoder::LstmEncoder(size_t vocab_size, size_t emb_dim, size_t hidden_dim,
                         size_t max_steps, Rng* rng)
    : emb_dim_(emb_dim), hidden_dim_(hidden_dim), max_steps_(max_steps) {
  embedding_ = Param(Tensor::Randn({vocab_size, emb_dim}, rng, 0.1f));
  float sx = std::sqrt(1.0f / static_cast<float>(emb_dim));
  float sh = std::sqrt(1.0f / static_cast<float>(hidden_dim));
  wx_ = Param(Tensor::Randn({emb_dim, 4 * hidden_dim}, rng, sx));
  wh_ = Param(Tensor::Randn({hidden_dim, 4 * hidden_dim}, rng, sh));
  Tensor b = Tensor::Zeros({4 * hidden_dim});
  // Forget-gate bias of 1 stabilizes early training.
  for (size_t i = hidden_dim; i < 2 * hidden_dim; ++i) b[i] = 1.0f;
  b_ = Param(std::move(b));
}

VarPtr LstmEncoder::Forward(const std::vector<int>& token_ids) const {
  std::vector<int> ids = token_ids;
  if (ids.empty()) ids.push_back(0);
  if (ids.size() > max_steps_) ids.resize(max_steps_);
  VarPtr x = EmbeddingLookup(embedding_, ids, /*columns_are_tokens=*/false);
  VarPtr h = Input(Tensor(static_cast<size_t>(1), hidden_dim_));
  VarPtr c = Input(Tensor(static_cast<size_t>(1), hidden_dim_));
  size_t hd = hidden_dim_;
  for (size_t t = 0; t < ids.size(); ++t) {
    VarPtr xt = Row(x, t);
    VarPtr z = AddBias(Add(MatMul(xt, wx_), MatMul(h, wh_)), b_);
    VarPtr i = Sigmoid(SliceCols(z, 0, hd));
    VarPtr f = Sigmoid(SliceCols(z, hd, hd));
    VarPtr o = Sigmoid(SliceCols(z, 2 * hd, hd));
    VarPtr g = Tanh(SliceCols(z, 3 * hd, hd));
    c = Add(Mul(f, c), Mul(i, g));
    h = Mul(o, Tanh(c));
  }
  return Reshape(h, {hidden_dim_});
}

std::vector<VarPtr> LstmEncoder::Params() const {
  return {embedding_, wx_, wh_, b_};
}

TransformerEncoder::TransformerEncoder(size_t vocab_size, size_t emb_dim,
                                       size_t key_dim, size_t out_dim,
                                       size_t max_steps, Rng* rng)
    : emb_dim_(emb_dim), key_dim_(key_dim), out_dim_(out_dim),
      max_steps_(max_steps) {
  embedding_ = Param(Tensor::Randn({vocab_size, emb_dim}, rng, 0.1f));
  positional_ = Tensor(max_steps, emb_dim);
  for (size_t pos = 0; pos < max_steps; ++pos) {
    for (size_t i = 0; i < emb_dim; ++i) {
      double angle = static_cast<double>(pos) /
                     std::pow(10000.0, 2.0 * static_cast<double>(i / 2) /
                                           static_cast<double>(emb_dim));
      positional_.at(pos, i) = static_cast<float>(
          (i % 2 == 0) ? 0.1 * std::sin(angle) : 0.1 * std::cos(angle));
    }
  }
  wq_ = std::make_unique<Linear>(emb_dim, key_dim, rng);
  wk_ = std::make_unique<Linear>(emb_dim, key_dim, rng);
  wv_ = std::make_unique<Linear>(emb_dim, key_dim, rng);
  ffn_ = std::make_unique<Linear>(key_dim, out_dim, rng);
}

VarPtr TransformerEncoder::Forward(const std::vector<int>& token_ids) const {
  std::vector<int> ids = token_ids;
  if (ids.empty()) ids.push_back(0);
  if (ids.size() > max_steps_) ids.resize(max_steps_);
  size_t n = ids.size();
  VarPtr x = EmbeddingLookup(embedding_, ids, /*columns_are_tokens=*/false);
  Tensor pos(n, emb_dim_);
  for (size_t t = 0; t < n; ++t) {
    for (size_t i = 0; i < emb_dim_; ++i) pos.at(t, i) = positional_.at(t, i);
  }
  x = Add(x, Input(std::move(pos)));
  VarPtr q = wq_->Forward(x);
  VarPtr k = wk_->Forward(x);
  VarPtr v = wv_->Forward(x);
  float scale = 1.0f / std::sqrt(static_cast<float>(key_dim_));
  VarPtr scores = SoftmaxRows(Scale(MatMulTransB(q, k), scale));
  VarPtr attended = MatMul(scores, v);
  VarPtr pooled = MeanOverRows(attended);
  return Relu(ffn_->Forward(pooled));
}

std::vector<VarPtr> TransformerEncoder::Params() const {
  std::vector<VarPtr> out{embedding_};
  for (const Linear* l : {wq_.get(), wk_.get(), wv_.get(), ffn_.get()}) {
    auto p = l->Params();
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

}  // namespace lite
