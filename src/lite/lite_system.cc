#include "lite/lite_system.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/recommend_pipeline.h"
#include "sparksim/resilient_runner.h"
#include "util/logging.h"

namespace lite {

namespace {
// Feedback/update observability (see docs/OBSERVABILITY.md for the
// catalog). The recommendation- and scoring-level series
// (lite_recommendations_total, lite_score_calls_total, ...) live in
// serve/recommend_pipeline.cc — the one place every serving surface runs
// through. Metric pointers are
// resolved once; updates are lock-free sharded atomics, so instrumentation
// never perturbs scoring results or ordering.
struct LiteMetrics {
  obs::Counter* feedback_runs;
  obs::Counter* feedback_censored;
  obs::Counter* feedback_dropped;
  obs::Counter* adaptive_updates;
  obs::Gauge* domain_accuracy;
  obs::Histogram* update_seconds;

  static const LiteMetrics& Get() {
    static const LiteMetrics* m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      return new LiteMetrics{
          reg.GetCounter("lite_feedback_runs_total"),
          reg.GetCounter("lite_feedback_censored_total"),
          reg.GetCounter("lite_feedback_dropped_total"),
          reg.GetCounter("lite_adaptive_updates_total"),
          reg.GetGauge("lite_update_domain_accuracy"),
          reg.GetHistogram("lite_adaptive_update_seconds"),
      };
    }();
    return *m;
  }
};
}  // namespace

LiteSystem::LiteSystem(const spark::SparkRunner* runner, LiteOptions options)
    : runner_(runner), options_(std::move(options)), acg_(options_.acg) {}

void LiteSystem::TrainOffline() {
  CorpusBuilder builder(runner_);
  corpus_ = builder.Build(options_.corpus);
  LITE_CHECK(!corpus_.instances.empty()) << "offline corpus is empty";
  NecsTrainer trainer;
  models_.clear();
  size_t k = std::max<size_t>(options_.ensemble_size, 1);
  for (size_t m = 0; m < k; ++m) {
    auto model = std::make_unique<NecsModel>(corpus_.vocab->size(),
                                             corpus_.op_vocab->size(),
                                             options_.necs,
                                             options_.seed + 1000 * m);
    TrainOptions topts = options_.train;
    topts.seed = options_.train.seed + 31 * m;
    trainer.Train(model.get(), corpus_.instances, topts);
    models_.push_back(std::move(model));
  }
  acg_.Fit(corpus_);
  if (options_.stage_tuning) {
    stage_head_ = std::make_unique<StageHead>(
        options_.necs.code_dim, options_.necs.gcn_hidden,
        options_.seed + 7777);
    StageHeadTrainOptions hopts = options_.stage_head_train;
    stage_head_->Train(*models_[0], corpus_.instances, hopts);
  } else {
    stage_head_.reset();
  }
  trained_ = true;
}

LiteSystem::StagedRecommendation LiteSystem::RecommendStaged(
    const spark::ApplicationSpec& app, const spark::DataSpec& data,
    const spark::ClusterEnv& env) const {
  StagedRecommendation out;
  out.base = Recommend(app, data, env);
  out.staged.base = out.base.config;
  if (stage_head_ == nullptr) return out;
  spark::StageEvalFactory factory = MakeStageHeadEvalFactory(
      stage_head_.get(), models_[0].get(), runner_, &corpus_, &app, data,
      &env);
  spark::StagePlannerOptions popts;
  popts.values_per_knob = options_.stage_values_per_knob;
  spark::StagePlanner planner(popts);
  spark::StagePlan plan = planner.Plan(
      app, spark::ResolveIterations(app, data), out.base.config, factory(1.0));
  if (plan.ok && !plan.baseline_failed) {
    out.staged = plan.staged;
    out.baseline_seconds = plan.baseline_seconds;
    out.planned_seconds = plan.planned_seconds;
    out.planned = true;
  }
  return out;
}

spark::RetuneResult LiteSystem::RetuneStaged(
    const spark::ApplicationSpec& app, const spark::DataSpec& data,
    const spark::ClusterEnv& env, const spark::StagedConfig& current,
    const std::vector<spark::StageEvent>& observed) const {
  LITE_CHECK(trained_) << "RetuneStaged before TrainOffline";
  spark::RetuneResult out;
  out.staged = current;
  if (stage_head_ == nullptr) return out;
  spark::StageEvalFactory factory = MakeStageHeadEvalFactory(
      stage_head_.get(), models_[0].get(), runner_, &corpus_, &app, data,
      &env);
  spark::StagePlannerOptions popts;
  popts.values_per_knob = options_.stage_values_per_knob;
  spark::StagePlanner planner(popts);
  return planner.Retune(app, spark::ResolveIterations(app, data), current,
                        observed, factory);
}

std::vector<double> LiteSystem::ScoreCandidates(
    const spark::ApplicationSpec& app, const spark::DataSpec& data,
    const spark::ClusterEnv& env,
    const std::vector<spark::Config>& candidates) const {
  LITE_CHECK(trained_) << "ScoreCandidates before TrainOffline";
  std::vector<const NecsModel*> models;
  models.reserve(models_.size());
  for (const auto& m : models_) models.push_back(m.get());
  return serve::ScoreCandidateSet(
      runner_, corpus_, models, app, data, env, candidates,
      serve::ScoringOptions{.threads = options_.scoring_threads,
                            .backend = options_.scoring_backend});
}

LiteSystem::Recommendation LiteSystem::Recommend(
    const spark::ApplicationSpec& app, const spark::DataSpec& data,
    const spark::ClusterEnv& env) const {
  LITE_CHECK(trained_) << "Recommend before TrainOffline";
  serve::PipelineContext ctx;
  ctx.acg = &acg_;
  ctx.num_candidates = options_.num_candidates;
  ctx.seed = options_.seed;
  ctx.sla_deadline_seconds = options_.sla_deadline_seconds;
  return serve::RunRecommendPipeline(
      ctx, app, data, env, [&](const std::vector<spark::Config>& candidates) {
        return ScoreCandidates(app, data, env, candidates);
      });
}

void LiteSystem::CollectFeedback(const spark::ApplicationSpec& app,
                                 const spark::DataSpec& data,
                                 const spark::ClusterEnv& env,
                                 const spark::Config& config) {
  LITE_CHECK(trained_) << "CollectFeedback before TrainOffline";
  // Execute the application with the recommended configuration and extract
  // target-domain stage instances from the observed run.
  spark::AppRunResult run = runner_->cost_model().Run(app, data, env, config);
  LiteMetrics::Get().feedback_runs->Inc();
  if (run.failed) {
    LiteMetrics::Get().feedback_dropped->Inc();
    return;  // failed runs carry no stage-level labels.
  }
  IngestFeedbackRun(app, data, env, config, run, /*sentinel_labels=*/false);
}

void LiteSystem::CollectFeedback(const spark::ApplicationSpec& app,
                                 const spark::DataSpec& data,
                                 const spark::ClusterEnv& env,
                                 const spark::Config& config,
                                 spark::ResilientRunner* harness) {
  LITE_CHECK(trained_) << "CollectFeedback before TrainOffline";
  LITE_CHECK(harness != nullptr) << "CollectFeedback: null harness";
  spark::MeasureOutcome m = harness->MeasureDetailed(app, data, env, config);
  const LiteMetrics& metrics = LiteMetrics::Get();
  metrics.feedback_runs->Inc();
  if (m.censored) metrics.feedback_censored->Inc();
  if (!m.result.failed) {
    IngestFeedbackRun(app, data, env, config, m.result,
                      /*sentinel_labels=*/false);
    return;
  }
  if (options_.censored_feedback) {
    // Transient exhaustion carries no information about the configuration —
    // drop it. Deterministic failures keep their successful stage prefix as
    // real labels plus the capped failing stage, which the extractor marks
    // censored so the updater one-sides its loss.
    if (m.transient) {
      metrics.feedback_dropped->Inc();
      return;
    }
    IngestFeedbackRun(app, data, env, config, m.result,
                      /*sentinel_labels=*/false);
    return;
  }
  // Naive protocol: pretend the cap is a real observation for every kept
  // stage. This is what fitting the 7200 s sentinel looks like.
  IngestFeedbackRun(app, data, env, config, m.result,
                    /*sentinel_labels=*/true);
}

void LiteSystem::IngestFeedbackRun(const spark::ApplicationSpec& app,
                                   const spark::DataSpec& data,
                                   const spark::ClusterEnv& env,
                                   const spark::Config& config,
                                   const spark::AppRunResult& run,
                                   bool sentinel_labels) {
  LITE_CHECK(trained_) << "IngestFeedbackRun before TrainOffline";
  std::vector<StageInstance> instances = serve::ExtractFeedbackInstances(
      runner_, corpus_, options_.corpus.max_stage_instances_per_run, app,
      data, env, config, run, sentinel_labels);
  feedback_.insert(feedback_.end(), instances.begin(), instances.end());

  if (feedback_.size() >= options_.update_batch) ForceAdaptiveUpdate();
}

UpdateStats LiteSystem::ForceAdaptiveUpdate() {
  LITE_CHECK(trained_) << "update before TrainOffline";
  UpdateStats stats;
  if (feedback_.empty()) return stats;
  const LiteMetrics& metrics = LiteMetrics::Get();
  obs::Span span("lite.adaptive_update", metrics.update_seconds);
  AdaptiveModelUpdater updater(options_.update);
  // Aggregate across ensemble members: overwriting `stats` per member would
  // report only the last member (and the gauge would track one model of k).
  for (auto& model : models_) {
    UpdateStats member =
        updater.Update(model.get(), corpus_.instances, feedback_);
    stats.Accumulate(member);
  }
  stats.FinishAggregation();
  metrics.adaptive_updates->Inc();
  metrics.domain_accuracy->Set(stats.final_domain_accuracy);
  feedback_.clear();
  return stats;
}

}  // namespace lite
