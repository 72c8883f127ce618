// Feature encoders for stage-level code tokens and DAG scheduler graphs.
//
// - TextCnnEncoder: the paper's choice for code (Section III-D): token
//   embedding matrix (D x N) -> multi-width Conv1D -> max pooling ->
//   ReLU(W^CNN Q) (Eq. 1).
// - GcnEncoder: the paper's choice for the scheduler DAG (Section III-E):
//   H^{l+1} = ReLU(D^-1/2 (A+I) D^-1/2 H^l W) with max-pool readout (Eq. 2).
// - LstmEncoder / TransformerEncoder: the sequence-model ablations of
//   Table VII.
#ifndef LITE_NN_ENCODERS_H_
#define LITE_NN_ENCODERS_H_

#include <vector>

#include "nn/layers.h"
#include "nn/module.h"
#include "util/rng.h"

namespace lite {

/// TextCNN over token-id sequences.
class TextCnnEncoder : public Module {
 public:
  /// `vocab_size` includes padding (id 0) and oov; `emb_dim` = D;
  /// `kernels_per_width` = I per convolution width; `widths` e.g. {3,4,5};
  /// `out_dim` is the code representation size (h_code).
  TextCnnEncoder(size_t vocab_size, size_t emb_dim,
                 std::vector<size_t> widths, size_t kernels_per_width,
                 size_t out_dim, Rng* rng);

  /// Encodes a (possibly short) token-id sequence; sequences shorter than
  /// the largest kernel width are padded with token 0.
  VarPtr Forward(const std::vector<int>& token_ids) const;

  /// Encodes several sequences at once: convolution + pooling stay
  /// per-sequence (lengths differ), but the pooled Q vectors are stacked and
  /// pushed through the output projection as one matrix-matrix product.
  /// Row b is bit-identical to Forward(sequences[b]). Output is B x out_dim.
  VarPtr ForwardBatch(const std::vector<std::vector<int>>& sequences) const;

  std::vector<VarPtr> Params() const override;
  size_t out_dim() const { return out_dim_; }
  size_t emb_dim() const { return emb_dim_; }
  const std::vector<size_t>& widths() const { return widths_; }
  size_t kernels_per_width() const { return kernels_per_width_; }
  const VarPtr& embedding() const { return embedding_; }

 private:
  /// Q: pad -> embedding -> per-width Conv1D -> max pool, concatenated.
  VarPtr Pooled(const std::vector<int>& token_ids) const;

  size_t emb_dim_, out_dim_;
  std::vector<size_t> widths_;
  size_t kernels_per_width_;
  VarPtr embedding_;                 // vocab x D
  std::vector<VarPtr> conv_w_;       // per width: I x (D*w)
  std::vector<VarPtr> conv_b_;       // per width: I
  std::unique_ptr<Linear> proj_;     // (I * |widths|) -> out_dim
};

/// A DAG prepared for GCN consumption: one-hot node features (|V| x (S+1))
/// and the symmetric-normalized adjacency with self-loops (|V| x |V|).
struct GcnGraph {
  Tensor node_features;
  Tensor norm_adjacency;
};

/// Builds D^-1/2 (A + I) D^-1/2 from a directed adjacency list, treating
/// edges as undirected for message passing (standard GCN practice).
Tensor NormalizedAdjacency(size_t num_nodes,
                           const std::vector<std::pair<int, int>>& edges);

/// Builds one-hot node features with the oov convention: labels >= s map to
/// the extra oov column (index s), giving S+1 columns.
Tensor OneHotNodeFeatures(const std::vector<int>& node_labels, size_t s);

/// Graph convolutional encoder with max-pool readout.
class GcnEncoder : public Module {
 public:
  /// `in_dim` = S+1 (operation vocabulary + oov); `hidden_dim` is both the
  /// intermediate and output width; `num_layers` >= 1.
  GcnEncoder(size_t in_dim, size_t hidden_dim, size_t num_layers, Rng* rng);

  VarPtr Forward(const GcnGraph& graph) const;

  std::vector<VarPtr> Params() const override;
  size_t out_dim() const { return hidden_dim_; }

 private:
  size_t in_dim_, hidden_dim_;
  std::vector<VarPtr> weights_;
};

/// Single-layer LSTM over token embeddings; final hidden state is the code
/// representation. Sequences are truncated to `max_steps` for tractability.
class LstmEncoder : public Module {
 public:
  LstmEncoder(size_t vocab_size, size_t emb_dim, size_t hidden_dim,
              size_t max_steps, Rng* rng);

  VarPtr Forward(const std::vector<int>& token_ids) const;

  std::vector<VarPtr> Params() const override;
  size_t out_dim() const { return hidden_dim_; }

 private:
  size_t emb_dim_, hidden_dim_, max_steps_;
  VarPtr embedding_;
  VarPtr wx_, wh_, b_;  // D x 4H, H x 4H, 4H (gate order: i, f, o, g).
};

/// One-block single-head transformer encoder with sinusoidal positions and
/// mean pooling.
class TransformerEncoder : public Module {
 public:
  TransformerEncoder(size_t vocab_size, size_t emb_dim, size_t key_dim,
                     size_t out_dim, size_t max_steps, Rng* rng);

  VarPtr Forward(const std::vector<int>& token_ids) const;

  std::vector<VarPtr> Params() const override;
  size_t out_dim() const { return out_dim_; }

 private:
  size_t emb_dim_, key_dim_, out_dim_, max_steps_;
  VarPtr embedding_;
  Tensor positional_;  // max_steps x emb_dim, constant.
  std::unique_ptr<Linear> wq_, wk_, wv_, ffn_;
};

}  // namespace lite

#endif  // LITE_NN_ENCODERS_H_
