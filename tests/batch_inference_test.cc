// Equivalence properties of the scoring engine: the batch tower pass, the
// stacked candidate blocks, the encoder cache, the thread-pool sharding,
// and the candidate dedupe must all be invisible in the numbers — same
// predictions, same ranking, bit for bit, as the per-candidate reference
// loop in testkit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "lite/candidate_gen.h"
#include "lite/lite_system.h"
#include "lite/model_update.h"
#include "serve/recommend_pipeline.h"
#include "testkit/diff.h"

namespace lite {
namespace {

LiteOptions SmallOptions(size_t threads) {
  LiteOptions opts;
  opts.corpus.apps = {"TS", "PR"};
  opts.corpus.clusters = {spark::ClusterEnv::ClusterA()};
  opts.corpus.configs_per_setting = 2;
  opts.corpus.max_stage_instances_per_run = 5;
  opts.corpus.max_code_tokens = 64;
  opts.necs.emb_dim = 8;
  opts.necs.cnn_widths = {3, 4};
  opts.necs.cnn_kernels = 6;
  opts.necs.code_dim = 12;
  opts.necs.gcn_hidden = 8;
  opts.train.epochs = 2;
  opts.num_candidates = 40;
  opts.scoring_threads = threads;
  return opts;
}

class BatchInferenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    runner_ = new spark::SparkRunner();
    system_ = new LiteSystem(runner_, SmallOptions(4));
    system_->TrainOffline();
  }

  /// The per-candidate reference scores of `candidates` under system_.
  static std::vector<double> Reference(
      const spark::ApplicationSpec& app, const spark::DataSpec& data,
      const spark::ClusterEnv& env,
      const std::vector<spark::Config>& candidates) {
    return testkit::ReferenceScores(runner_, system_->corpus(),
                                    {system_->model()}, app, data, env,
                                    candidates);
  }

  static std::vector<spark::Config> SomeCandidates(size_t count,
                                                   uint64_t seed) {
    const auto& space = spark::KnobSpace::Spark16();
    Rng rng(seed);
    std::vector<spark::Config> out;
    for (size_t i = 0; i < count; ++i) out.push_back(space.RandomConfig(&rng));
    return out;
  }

  static spark::SparkRunner* runner_;
  static LiteSystem* system_;
};

spark::SparkRunner* BatchInferenceTest::runner_ = nullptr;
LiteSystem* BatchInferenceTest::system_ = nullptr;

TEST_F(BatchInferenceTest, PredictBatchMatchesLoopedPredictTarget) {
  const NecsModel* model = system_->model();
  const auto& insts = system_->corpus().instances;
  ASSERT_GT(insts.size(), 4u);
  std::vector<double> batch = model->PredictBatch(insts);
  ASSERT_EQ(batch.size(), insts.size());
  for (size_t i = 0; i < insts.size(); ++i) {
    EXPECT_NEAR(batch[i], model->PredictTarget(insts[i]), 1e-9) << "i=" << i;
  }
}

TEST_F(BatchInferenceTest, PredictBatchOfNothingIsEmpty) {
  std::vector<StageInstance> empty;
  EXPECT_TRUE(system_->model()->PredictBatch(empty).empty());
}

TEST_F(BatchInferenceTest, BatchedAppSecondsMatchesBaseClassLoop) {
  const NecsModel* model = system_->model();
  CorpusBuilder builder(runner_);
  const auto* app = spark::AppCatalog::Find("PR");
  spark::DataSpec data = app->MakeData(app->test_size_mb);
  CandidateEval ce = builder.FeaturizeCandidate(
      system_->corpus(), *app, data, spark::ClusterEnv::ClusterC(),
      spark::KnobSpace::Spark16().DefaultConfig());
  // The base-class aggregation over scalar PredictTarget calls.
  double scalar_total = 0.0;
  for (size_t i = 0; i < ce.stage_instances.size(); ++i) {
    double reps = i < ce.stage_reps.size()
                      ? static_cast<double>(ce.stage_reps[i])
                      : 1.0;
    scalar_total +=
        SecondsFromTarget(model->PredictTarget(ce.stage_instances[i])) * reps;
  }
  EXPECT_NEAR(model->PredictAppSeconds(ce), scalar_total, 1e-9);
}

TEST_F(BatchInferenceTest, ScoresIdenticalScalarVsBatchedAndAcrossThreads) {
  const auto* app = spark::AppCatalog::Find("TS");
  spark::DataSpec data = app->MakeData(app->test_size_mb);
  const spark::ClusterEnv env = spark::ClusterEnv::ClusterC();
  std::vector<const NecsModel*> models{system_->model()};

  // Pool sizes on both sides of the engine's 32-candidate block edge, and
  // one that splits into full blocks for every worker count. Neither the
  // block composition nor the thread count may change a single bit.
  for (size_t pool : {1u, 31u, 32u, 33u, 64u, 1000u}) {
    std::vector<spark::Config> candidates = SomeCandidates(pool, 91);
    std::vector<double> reference = Reference(*app, data, env, candidates);
    ASSERT_EQ(reference.size(), pool);
    EXPECT_EQ(system_->ScoreCandidates(*app, data, env, candidates),
              reference)
        << "pool=" << pool;
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      std::vector<double> scores = serve::ScoreCandidateSet(
          runner_, system_->corpus(), models, *app, data, env, candidates,
          serve::ScoringOptions{.threads = threads});
      EXPECT_EQ(scores, reference) << "pool=" << pool << " threads=" << threads;
    }
  }
}

TEST_F(BatchInferenceTest, ScoresIdenticalWithCacheColdOrWarm) {
  const auto* app = spark::AppCatalog::Find("PR");
  spark::DataSpec data = app->MakeData(app->validation_size_mb);
  const spark::ClusterEnv env = spark::ClusterEnv::ClusterA();
  std::vector<spark::Config> candidates = SomeCandidates(32, 17);

  system_->model()->InvalidateCache();
  std::vector<double> cold = system_->ScoreCandidates(*app, data, env, candidates);
  std::vector<double> warm = system_->ScoreCandidates(*app, data, env, candidates);
  system_->model()->InvalidateCache();
  std::vector<double> cold_again =
      system_->ScoreCandidates(*app, data, env, candidates);
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(cold[i], warm[i]) << "i=" << i;
    EXPECT_EQ(cold[i], cold_again[i]) << "i=" << i;
  }
}

TEST_F(BatchInferenceTest, RecommendationIdenticalScalarVsBatched) {
  const auto* app = spark::AppCatalog::Find("TS");
  spark::DataSpec data = app->MakeData(app->test_size_mb);
  const spark::ClusterEnv env = spark::ClusterEnv::ClusterC();
  // The recommend pipeline over the per-candidate reference scorer.
  serve::PipelineContext ctx;
  ctx.acg = &system_->candidate_generator();
  ctx.num_candidates = system_->options().num_candidates;
  ctx.seed = system_->options().seed;
  LiteSystem::Recommendation a = serve::RunRecommendPipeline(
      ctx, *app, data, env, [&](const std::vector<spark::Config>& cands) {
        return Reference(*app, data, env, cands);
      });
  LiteSystem::Recommendation b = system_->Recommend(*app, data, env);
  EXPECT_EQ(a.config, b.config);
  EXPECT_EQ(a.predicted_seconds, b.predicted_seconds);
  EXPECT_EQ(a.candidates_evaluated, b.candidates_evaluated);
}

TEST_F(BatchInferenceTest, EncoderCacheFreshAfterAdaptiveUpdateStep) {
  // A model trained one more step must serve predictions from its new
  // weights, not from stale cached encodings.
  LiteSystem fresh(runner_, SmallOptions(2));
  fresh.TrainOffline();
  NecsModel* model = fresh.model();
  const StageInstance& inst = fresh.corpus().instances[0];

  double before = model->PredictTarget(inst);  // warms the cache.
  std::vector<StageInstance> target(fresh.corpus().instances.begin(),
                                    fresh.corpus().instances.begin() + 4);
  UpdateOptions uopts;
  uopts.epochs = 1;
  AdaptiveModelUpdater(uopts).Update(model, fresh.corpus().instances, target);

  double after = model->PredictTarget(inst);
  double reference = model->Forward(inst).pred->value[0];  // cache-free.
  EXPECT_NEAR(after, reference, 1e-9)
      << "cached encodings served after a parameter update";
  EXPECT_NE(before, after) << "update step did not change the prediction";

  std::vector<double> after_batch = model->PredictBatch(
      std::span<const StageInstance>(&inst, 1));
  EXPECT_NEAR(after_batch[0], reference, 1e-9);
}

TEST(DedupeConfigsTest, RemovesDuplicatesPreservingFirstOccurrenceOrder) {
  const auto& space = spark::KnobSpace::Spark16();
  spark::Config a = space.DefaultConfig();
  spark::Config b = a;
  b[spark::kExecutorCores] += 1;
  spark::Config c = a;
  c[spark::kExecutorMemory] += 2;
  std::vector<spark::Config> result = DedupeConfigs({a, b, a, c, b, a});
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0], a);
  EXPECT_EQ(result[1], b);
  EXPECT_EQ(result[2], c);
  EXPECT_TRUE(DedupeConfigs({}).empty());
}

TEST_F(BatchInferenceTest, RecommendScoresAUniqueCandidateSet) {
  const auto* app = spark::AppCatalog::Find("PR");
  spark::DataSpec data = app->MakeData(app->test_size_mb);
  const spark::ClusterEnv env = spark::ClusterEnv::ClusterC();

  // Replay Recommend's internal sampling to count what it should score:
  // dedupe first, then the feasibility pre-check.
  Rng rng(system_->options().seed ^ std::hash<std::string>{}(app->name));
  std::vector<spark::Config> sampled =
      system_->candidate_generator().SampleCandidates(
          *app, data, env, system_->options().num_candidates, &rng);
  std::vector<spark::Config> deduped = DedupeConfigs(sampled);
  std::set<spark::Config> unique(deduped.begin(), deduped.end());
  ASSERT_EQ(unique.size(), deduped.size());
  std::vector<spark::Config> feasible;
  for (const auto& c : deduped) {
    if (spark::PlacementFeasible(env, c)) feasible.push_back(c);
  }
  if (feasible.empty()) feasible = deduped;

  LiteSystem::Recommendation rec = system_->Recommend(*app, data, env);
  EXPECT_EQ(rec.candidates_evaluated, feasible.size());
  EXPECT_LE(rec.candidates_evaluated, system_->options().num_candidates);
}

}  // namespace
}  // namespace lite
