// LITE: the end-to-end lightweight knob recommender (Fig. 2).
//
// Offline phase: collect training instances on small datasets, build
// vocabularies, train NECS, fit Adaptive Candidate Generation.
// Online phase: for a given (application, data, environment) —
//   Step 1 collect application features (instrument if cold-start),
//   Step 2 generate knob candidates in the adaptive search region,
//   Step 3 rank candidates by aggregated predicted stage time (Eq. 5),
//   Step 4 collect feedback and periodically fine-tune via the adversarial
//          Adaptive Model Update.
#ifndef LITE_LITE_LITE_SYSTEM_H_
#define LITE_LITE_LITE_SYSTEM_H_

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "lite/candidate_gen.h"
#include "lite/model_update.h"
#include "lite/necs.h"
#include "lite/stage_head.h"
#include "sparksim/stage_planner.h"

namespace lite {

namespace spark {
class ResilientRunner;  // sparksim/resilient_runner.h
}

struct LiteOptions {
  CorpusOptions corpus;
  NecsConfig necs;
  TrainOptions train;
  CandidateGenOptions acg;
  UpdateOptions update;
  /// Candidates sampled from the adaptive region per recommendation.
  size_t num_candidates = 60;
  /// Feedback batch size that triggers an adaptive update.
  size_t update_batch = 10;
  /// Treat capped/failed feedback runs as right-censored observations
  /// (harness-aware CollectFeedback overload): transiently failed
  /// submissions are dropped and deterministic failures keep only their cap
  /// value as a lower bound. When false, failed runs are ingested the naive
  /// way — every kept stage labeled with the failure-cap sentinel as if it
  /// were a real measurement (for ablation; this poisons the update).
  bool censored_feedback = true;
  /// Number of independently seeded NECS models; candidate ranking uses the
  /// ensemble-mean log prediction. 1 reproduces the paper's single model;
  /// small ensembles damp the winner's curse of argmin over a noisy
  /// estimator and noticeably improve recommendations (see DESIGN.md).
  size_t ensemble_size = 1;
  /// Worker threads for candidate scoring (0 = one per hardware core,
  /// 1 = single-threaded). Scores are reduced in candidate order, so the
  /// recommendation is identical for every value.
  size_t scoring_threads = 0;
  /// Scoring-tower backend for candidate ranking. kExactFp32 (default) is
  /// bit-identical to the per-candidate reference loop. kInt8/kFp16 run the
  /// quantized SIMD kernels (tensor/qkernels.h) through lazily derived
  /// model twins — bounded score error (docs/QUANTIZATION.md), enforced by
  /// DiffQuantizationAccuracy.
  QuantBackend scoring_backend = QuantBackend::kExactFp32;
  /// SLA deadline on predicted runtime, threaded into the recommend
  /// pipeline: finite values filter candidates predicted slower than the
  /// deadline before argmin (falling back to the plain argmin when nothing
  /// qualifies). Infinity (the default) is bitwise inert. The TuningService
  /// carries per-tenant deadlines instead (serve/guardrail.h).
  double sla_deadline_seconds = std::numeric_limits<double>::infinity();
  /// Per-stage tuning (docs/STAGE_TUNING.md): when true, TrainOffline also
  /// fits a per-stage prediction head (lite/stage_head.h) on the offline
  /// corpus, enabling RecommendStaged/RetuneStaged. Inert by default, and
  /// inert for the app-level path either way: Recommend() never consults
  /// the head, so enabling this cannot perturb existing recommendations
  /// (the DiffStageTuningTransparency contract).
  bool stage_tuning = false;
  StageHeadTrainOptions stage_head_train;
  /// Grid resolution of the per-stage planner's coordinate search.
  int stage_values_per_knob = 5;
  uint64_t seed = 41;
};

class LiteSystem {
 public:
  LiteSystem(const spark::SparkRunner* runner, LiteOptions options);

  /// Runs the offline phase. Must be called before Recommend().
  void TrainOffline();

  struct Recommendation {
    spark::Config config;
    double predicted_seconds = 0.0;
    double recommend_wall_seconds = 0.0;  ///< actual wall-clock of this call.
    size_t candidates_evaluated = 0;
  };

  /// Online recommendation for an application (warm- or cold-start: the
  /// featurization uses the trained vocabularies, mapping unseen tokens and
  /// operations to oov).
  Recommendation Recommend(const spark::ApplicationSpec& app,
                           const spark::DataSpec& data,
                           const spark::ClusterEnv& env) const;

  /// Fine-grained recommendation: the app-level result plus per-stage knob
  /// overrides planned with the stage head. `base` is produced by the
  /// unmodified Recommend() pipeline (bit-identical to calling it
  /// directly); the planner then searches per-stage overrides of the
  /// stage-tunable knobs on top of base.config. Without a trained stage
  /// head (stage_tuning off) the result degrades to the plain
  /// recommendation with zero overrides.
  struct StagedRecommendation {
    Recommendation base;
    spark::StagedConfig staged;  ///< base.config + planned overrides.
    /// Head-predicted totals of the un-overridden and planned configs.
    double baseline_seconds = 0.0;
    double planned_seconds = 0.0;
    /// True when the per-stage planner actually ran.
    bool planned = false;
  };
  StagedRecommendation RecommendStaged(const spark::ApplicationSpec& app,
                                       const spark::DataSpec& data,
                                       const spark::ClusterEnv& env) const;

  /// AQE-style mid-job re-tune: derives a data-scale correction from the
  /// observed stage events and re-plans the knobs of not-yet-run stages
  /// (sparksim/stage_planner.h documents the formula and the inertness
  /// contract). Requires a trained stage head.
  spark::RetuneResult RetuneStaged(
      const spark::ApplicationSpec& app, const spark::DataSpec& data,
      const spark::ClusterEnv& env, const spark::StagedConfig& current,
      const std::vector<spark::StageEvent>& observed) const;

  /// Scores an explicit candidate list (entry i = predicted application
  /// seconds of candidates[i]) through serve::ScoreCandidateSet, sharded
  /// across `LiteOptions::scoring_threads` on `scoring_backend`; the scores
  /// are bit-identical for every thread count. Recommend() is argmin over
  /// this vector.
  std::vector<double> ScoreCandidates(
      const spark::ApplicationSpec& app, const spark::DataSpec& data,
      const spark::ClusterEnv& env,
      const std::vector<spark::Config>& candidates) const;

  /// Step 4: records feedback (observed run of the recommended config) as
  /// target-domain instances; triggers an adversarial update every
  /// `update_batch` feedbacks.
  void CollectFeedback(const spark::ApplicationSpec& app,
                       const spark::DataSpec& data, const spark::ClusterEnv& env,
                       const spark::Config& config);

  /// Step 4 through the resilient harness: the run is submitted via
  /// `harness` (retries, fault injection), and failed/capped outcomes are
  /// ingested according to `LiteOptions::censored_feedback`.
  void CollectFeedback(const spark::ApplicationSpec& app,
                       const spark::DataSpec& data, const spark::ClusterEnv& env,
                       const spark::Config& config,
                       spark::ResilientRunner* harness);

  /// Extracts target-domain instances from one observed run (via
  /// serve::ExtractFeedbackInstances — stage runs with an out-of-range
  /// stage_index are dropped and counted, never indexed) and queues them as
  /// feedback. `sentinel_labels` relabels every kept stage with the failure
  /// cap (the naive protocol for failed runs). Public so callers that
  /// measured the run themselves (the tuning service, tests) can feed it
  /// in; the CollectFeedback overloads wrap this with run execution.
  void IngestFeedbackRun(const spark::ApplicationSpec& app,
                         const spark::DataSpec& data,
                         const spark::ClusterEnv& env,
                         const spark::Config& config,
                         const spark::AppRunResult& run, bool sentinel_labels);

  /// Forces an adaptive update with the currently collected feedback.
  /// Stats are aggregated over the whole ensemble (mean accuracy and loss
  /// curves, summed epochs/censored counts) — see UpdateStats.
  UpdateStats ForceAdaptiveUpdate();

  const Corpus& corpus() const { return corpus_; }
  NecsModel* model() { return models_.empty() ? nullptr : models_[0].get(); }
  const NecsModel* model() const {
    return models_.empty() ? nullptr : models_[0].get();
  }
  size_t ensemble_size() const { return models_.size(); }
  /// Access to individual ensemble members (snapshot serialization).
  const NecsModel* ensemble_member(size_t i) const {
    return i < models_.size() ? models_[i].get() : nullptr;
  }
  const CandidateGenerator& candidate_generator() const { return acg_; }
  /// The per-stage prediction head; nullptr unless LiteOptions::stage_tuning
  /// was set when TrainOffline ran.
  const StageHead* stage_head() const { return stage_head_.get(); }
  bool trained() const { return trained_; }
  size_t pending_feedback() const { return feedback_.size(); }
  const LiteOptions& options() const { return options_; }

 private:
  const spark::SparkRunner* runner_;
  LiteOptions options_;
  Corpus corpus_;
  std::vector<std::unique_ptr<NecsModel>> models_;
  std::unique_ptr<StageHead> stage_head_;
  CandidateGenerator acg_;
  std::vector<StageInstance> feedback_;  ///< target domain DT.
  bool trained_ = false;
};

}  // namespace lite

#endif  // LITE_LITE_LITE_SYSTEM_H_
