// QuantizedNecs: the quantized inference twin of NecsModel.
//
// A twin owns quantized copies of the knob-dependent tower (MLP) and the
// code encoder (TextCNN); the GCN stays exact fp32 — it is tiny, runs only
// on encoder-cache misses, and its output is cached, so quantizing it would
// buy nothing. The twin keeps its OWN encoder cache: quantized encodings
// must never be served from (or inserted into) the fp32 model's cache, or
// backend selection would contaminate exact scoring.
//
// Twins are derived lazily from the owning NecsModel's current weights
// (NecsModel::Quantized) and dropped on InvalidateCache(), so any parameter
// change (training, adaptive update, CopyParams) rebuilds them. The serving
// path scores candidates through the same ScoringPlan as the exact tower
// (lite/necs.h): the knob-independent feature template is assembled once
// per query, and each block of candidates only copies the template, writes
// its normalized knobs, and runs the quantized GEMM chain from a
// thread-local arena — no heap traffic, no string-keyed cache lookups, no
// CandidateEval copies on the hot path.
#ifndef LITE_LITE_QNECS_H_
#define LITE_LITE_QNECS_H_

#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lite/necs.h"
#include "nn/quantized.h"

namespace lite {

class QuantizedNecs {
 public:
  /// Quantizes `model`'s current weights for `mode` (kInt8 or kFp16).
  /// `model` must outlive the twin (NecsModel owns its twins).
  QuantizedNecs(const NecsModel& model, QuantBackend mode);

  QuantBackend mode() const { return mode_; }

  /// Quantized analog of NecsModel::PredictBatch (same row assembly, same
  /// cache-key discipline, quantized tower). Thread-safe.
  std::vector<double> PredictBatch(std::span<const StageInstance> insts) const;

  /// Precomputes this twin's encoder-cache entries for `insts` (batched
  /// quantized CNN for the missing codes, exact GCN for the DAGs).
  void WarmEncoderCache(std::span<const StageInstance> insts) const;

  /// Builds the plan for `base` (a featurized candidate whose knob values
  /// are ignored) from this twin's encodings. Warms this twin's encoder
  /// cache as a side effect.
  ScoringPlan BuildPlan(const CandidateEval& base) const;

  /// Scores candidates [begin, end) of `knobs` (normalized) through ONE
  /// GEMM chain over the stacked rows, writing predicted app seconds to
  /// out[0..end-begin). Entry c is bit-identical to the Eq. 5 sum over
  /// PredictBatch on that candidate's stage instances — every quantized
  /// row (activation scale, dot, epilogue) is computed independently —
  /// while amortizing the per-GEMM overhead (activation setup, dispatch,
  /// arena churn) across the block, which is where the time goes at
  /// serving pool sizes. Resets `arena`.
  void ScoreWithKnobsBlock(const ScoringPlan& plan,
                           const std::vector<std::vector<double>>& knobs,
                           size_t begin, size_t end, double* out,
                           qk::Arena* arena) const;

  void InvalidateCache() const {
    std::unique_lock<std::shared_mutex> lock(cache_mu_);
    cache_.clear();
  }

 private:
  /// (h_code, h_dag) for one instance, from this twin's cache.
  std::pair<std::vector<float>, std::vector<float>> EncodeStage(
      const StageInstance& inst) const;
  std::pair<std::vector<float>, std::vector<float>> ComputeEncodings(
      const StageInstance& inst) const;

  const NecsModel* owner_;
  QuantBackend mode_;
  QuantizedTextCnn cnn_;
  QuantizedMlp mlp_;
  mutable std::shared_mutex cache_mu_;
  mutable std::unordered_map<std::string,
                             std::pair<std::vector<float>, std::vector<float>>>
      cache_;
};

}  // namespace lite

#endif  // LITE_LITE_QNECS_H_
