// NECS: Neural Estimator via Code and Scheduler representation
// (Section III). The composite model:
//
//   h_code = ReLU(W^CNN · flat(maxpool(Conv1D(C_i))))        (Eq. 1)
//   h_DAG  = maxpool(GCN(V_i, A_i))                          (Eq. 2)
//   y_hat  = towerMLP(concat(d_i, e_i, o_i, h_code, h_DAG))  (Eq. 3)
//
// trained with squared loss (Eq. 4). Targets live in log1p(seconds) space.
#ifndef LITE_LITE_NECS_H_
#define LITE_LITE_NECS_H_

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lite/dataset.h"
#include "lite/features.h"
#include "nn/encoders.h"
#include "nn/layers.h"
#include "nn/quantized.h"

namespace lite {

class QuantizedNecs;  // lite/qnecs.h

struct NecsConfig {
  size_t emb_dim = 16;                     ///< D: token embedding size.
  std::vector<size_t> cnn_widths = {3, 4, 5};
  size_t cnn_kernels = 16;                 ///< I per width.
  size_t code_dim = 32;                    ///< h_code size.
  size_t gcn_hidden = 24;                  ///< h_DAG size.
  size_t gcn_layers = 2;
  size_t mlp_hidden = 3;                   ///< tower depth L.
  /// Ablation switches: disabling an encoder replaces its representation
  /// with zeros (the MLP still sees the same input width).
  bool use_code_encoder = true;
  bool use_dag_encoder = true;
};

/// Abstract stage-level performance estimator: every Table VII competitor
/// implements this, so the ranking harness treats them uniformly.
class StageEstimator {
 public:
  virtual ~StageEstimator() = default;
  /// Predicted target (log1p seconds) for one stage instance.
  virtual double PredictTarget(const StageInstance& inst) const = 0;
  virtual std::string name() const = 0;

  /// Predicted whole-application time: per-stage-spec predictions scaled by
  /// execution counts and summed (Eq. 5's aggregation). Virtual so models
  /// with a batched inference path (NECS) can fuse the per-stage loop into
  /// one matrix-matrix pass; overrides must stay numerically identical to
  /// the default per-stage loop.
  virtual double PredictAppSeconds(const CandidateEval& candidate) const;
};

/// Knob-independent scoring template of one query's stage set, shared by
/// the exact tower (NecsModel::BuildPlan) and its quantized twins
/// (QuantizedNecs::BuildPlan). Every tower input except the knob slots is
/// frozen into `rows`, in PredictBatch's column order [data, env, knobs,
/// h_code, h_dag], so scoring a block of candidates is template copies,
/// knob writes and one tower pass over the stacked rows.
struct ScoringPlan {
  std::vector<float> rows;   ///< num_rows x input_dim, one row per stage.
  std::vector<double> reps;  ///< executions per stage.
  size_t num_rows = 0;
  size_t input_dim = 0;
  size_t knob_offset = 0;  ///< first knob column (after data + env).

  /// The plan of `base`'s stages, rows zeroed: the backend writes each
  /// stage's row with WriteTowerRow (its knob slots are overwritten per
  /// candidate).
  static ScoringPlan Template(const CandidateEval& base, size_t input_dim);
  float* row(size_t s) { return rows.data() + s * input_dim; }
  /// Writes candidates [begin, end) of `knobs` (normalized) to `x` as
  /// stacked copies of the template rows with their knob slots filled.
  void StackCandidates(const std::vector<std::vector<double>>& knobs,
                       size_t begin, size_t end, float* x) const;
  /// Eq. 5 for `count` stacked candidates: out[c] sums, in stage order,
  /// SecondsFromTarget(prediction) * reps over the candidate's rows, where
  /// row r's prediction is y[r * stride].
  void SumStages(const float* y, size_t stride, size_t count,
                 double* out) const;
};

/// Writes `inst`'s tower input [data, env, knobs, h_code, h_DAG] to the
/// `input_dim` floats at `row`.
void WriteTowerRow(const StageInstance& inst, std::span<const float> h_code,
                   std::span<const float> h_dag, size_t input_dim, float* row);

class NecsModel : public Module, public StageEstimator {
 public:
  /// `token_vocab_size` from the training TokenVocab (includes pad/oov);
  /// `op_vocab_size` is S (one-hot width becomes S+1).
  NecsModel(size_t token_vocab_size, size_t op_vocab_size, NecsConfig config,
            uint64_t seed);
  ~NecsModel();  // out of line: unique_ptr<QuantizedNecs> members.

  struct ForwardResult {
    VarPtr pred;    ///< scalar, log1p-seconds space.
    VarPtr hidden;  ///< concatenated MLP hidden activations (for Eq. 8).
  };

  /// Full autodiff forward pass (training / fine-tuning).
  ForwardResult Forward(const StageInstance& inst) const;

  /// Inference-only prediction with per-(app, stage) encoder caching —
  /// code and DAG encodings do not depend on knobs, so candidate
  /// ranking reuses them. Call InvalidateCache() after any parameter change
  /// (NecsTrainer, AdaptiveModelUpdater and SetTokenEmbeddings already do).
  double PredictTarget(const StageInstance& inst) const override;
  std::string name() const override { return "NECS"; }

  /// Batched inference: one tower matrix-matrix pass over all instances
  /// instead of B matrix-vector passes. Entry i is bit-identical to
  /// PredictTarget(insts[i]). Thread-safe: the encoder cache is guarded by
  /// a shared mutex, so concurrent PredictBatch/PredictTarget calls are
  /// allowed (warm the cache first to avoid serializing on misses).
  std::vector<double> PredictBatch(std::span<const StageInstance> insts) const;

  /// Eq. 5 aggregation on the batched path; numerically identical to the
  /// base-class per-stage loop.
  double PredictAppSeconds(const CandidateEval& candidate) const override;

  /// Precomputes encoder-cache entries for `insts` (the code encodings of
  /// all missing stages run as one batched CNN projection). Scoring loops
  /// call this once before sharding candidates across threads so the
  /// parallel phase only ever reads the cache.
  void WarmEncoderCache(std::span<const StageInstance> insts) const;

  /// The exact tower's plan for `base`'s stage set (its knob values are
  /// ignored). Warms the encoder cache as a side effect.
  ScoringPlan BuildPlan(const CandidateEval& base) const;

  /// Predicted application seconds of candidates [begin, end) of `knobs`
  /// (normalized) under `plan`, written to out[0..end-begin): one tower
  /// pass over the stacked rows. Entry c is bit-identical to
  /// PredictAppSeconds on that candidate, because lite::MatMul accumulates
  /// every output in k order whatever the row count. Thread-safe.
  void ScoreWithKnobsBlock(const ScoringPlan& plan,
                           const std::vector<std::vector<double>>& knobs,
                           size_t begin, size_t end, double* out) const;

  /// Knob-independent (h_code, h_DAG) encodings for one stage, served from
  /// the shared encoder cache (computed and inserted on miss — the same
  /// entry PredictTarget/PredictBatch use). Exposed so the serving layer
  /// can derive workload embeddings from already-cached encoder outputs
  /// (serve/retrieval_cache.h) without re-running the towers: after any
  /// scoring pass over the workload this is a pure cache read.
  std::pair<Tensor, Tensor> StageEncodings(const StageInstance& inst) const {
    return EncodeStage(inst);
  }

  /// Clears the encoder cache AND drops the lazily-built quantized twins:
  /// any parameter change invalidates both.
  void InvalidateCache() const;

  /// Lazily-built quantized twin for `backend` (kInt8 or kFp16), derived
  /// from the current FP32 weights and cached until InvalidateCache(). This
  /// is the only source of twins: snapshots carry fp32 weights, and
  /// quantizing them is deterministic, so a loaded model's twin is bit
  /// for bit the trained model's. Thread-safe; the returned twin stays
  /// valid until the next parameter change on this model.
  const QuantizedNecs* Quantized(QuantBackend backend) const;

  /// Replaces the token-embedding table with pretrained vectors (rows must
  /// match the token vocabulary, columns the configured emb_dim). Call
  /// before training; see lite/embedding_pretrain.h.
  void SetTokenEmbeddings(const Tensor& embeddings);

  std::vector<VarPtr> Params() const override;
  size_t hidden_dim() const { return mlp_->hidden_concat_dim(); }
  size_t op_vocab_size() const { return op_vocab_size_; }
  const NecsConfig& config() const { return config_; }

 private:
  friend class QuantizedNecs;  // reads weights + config to build twins.

  VarPtr AssembleInput(const StageInstance& inst, const VarPtr& h_code,
                       const VarPtr& h_dag) const;
  /// Cache identity of an instance's knob-independent encodings.
  static std::string CacheKey(const StageInstance& inst);
  /// Computes the (h_code, h_DAG) values for one instance (no caching).
  std::pair<Tensor, Tensor> ComputeEncodings(const StageInstance& inst) const;
  /// Cached (h_code, h_DAG) values; computes and inserts on miss.
  std::pair<Tensor, Tensor> EncodeStage(const StageInstance& inst) const;

  NecsConfig config_;
  size_t op_vocab_size_;
  std::unique_ptr<TextCnnEncoder> cnn_;
  std::unique_ptr<GcnEncoder> gcn_;
  std::unique_ptr<Mlp> mlp_;
  mutable std::shared_mutex cache_mu_;
  mutable std::unordered_map<std::string, std::pair<Tensor, Tensor>> cache_;
  /// Quantized twins, built on first use per backend; guarded by twin_mu_
  /// (separate from cache_mu_ so twin construction never blocks scoring).
  mutable std::mutex twin_mu_;
  mutable std::unique_ptr<QuantizedNecs> twin_int8_;
  mutable std::unique_ptr<QuantizedNecs> twin_fp16_;
};

struct TrainOptions {
  size_t epochs = 12;
  float lr = 1e-3f;
  size_t batch_size = 16;
  float grad_clip = 5.0f;
  uint64_t seed = 23;
  bool verbose = false;
};

/// Minibatch Adam training on the squared loss (Eq. 4).
class NecsTrainer {
 public:
  /// Returns mean training loss per epoch.
  std::vector<double> Train(NecsModel* model,
                            const std::vector<StageInstance>& instances,
                            const TrainOptions& options) const;
};

}  // namespace lite

#endif  // LITE_LITE_NECS_H_
