// Cross-module integration scenarios exercising complete user journeys:
// offline training -> online recommendation -> feedback -> update ->
// snapshot -> serving, plus determinism of the whole pipeline.
#include <gtest/gtest.h>

#include "lite/snapshot.h"
#include "testkit/temp_dir.h"
#include "tuning/experiment.h"
#include "tuning/model_tuners.h"
#include "tuning/sha_tuner.h"
#include "tuning/simple_tuners.h"

namespace lite {
namespace {

LiteOptions TinyOptions() {
  LiteOptions opts;
  opts.corpus.apps = {"TS", "KM", "PR", "WC"};
  opts.corpus.clusters = {spark::ClusterEnv::ClusterA()};
  opts.corpus.configs_per_setting = 2;
  opts.corpus.max_stage_instances_per_run = 5;
  opts.corpus.max_code_tokens = 64;
  opts.necs.emb_dim = 8;
  opts.necs.cnn_widths = {3, 4};
  opts.necs.cnn_kernels = 6;
  opts.necs.code_dim = 12;
  opts.necs.gcn_hidden = 8;
  opts.train.epochs = 5;
  opts.num_candidates = 24;
  opts.ensemble_size = 2;
  opts.update.epochs = 2;
  opts.update_batch = 4;
  return opts;
}

TEST(IntegrationTest, FullLifecycle) {
  spark::SparkRunner runner;
  LiteSystem system(&runner, TinyOptions());
  system.TrainOffline();

  const auto* app = spark::AppCatalog::Find("KM");
  spark::DataSpec data = app->MakeData(app->test_size_mb);
  spark::ClusterEnv env = spark::ClusterEnv::ClusterC();

  // Recommend, execute, feed back, update, recommend again.
  LiteSystem::Recommendation r1 = system.Recommend(*app, data, env);
  EXPECT_TRUE(spark::PlacementFeasible(env, r1.config));
  system.CollectFeedback(*app, data, env, r1.config);
  system.CollectFeedback(*app, data, env, r1.config);
  UpdateStats stats = system.ForceAdaptiveUpdate();
  EXPECT_EQ(system.pending_feedback(), 0u);
  LiteSystem::Recommendation r2 = system.Recommend(*app, data, env);
  EXPECT_TRUE(spark::KnobSpace::Spark16().IsValid(r2.config));

  // Snapshot after the update; serving agrees with the in-process system.
  testkit::ScopedTempDir tmp("integration_snapshot");
  ASSERT_TRUE(SaveSnapshot(system, tmp.path()));
  auto served = LoadedLiteModel::Load(tmp.path(), &runner);
  ASSERT_NE(served, nullptr);
  LiteSystem::Recommendation r3 = served->Recommend(*app, data, env);
  EXPECT_EQ(r3.config, r2.config);
}

TEST(IntegrationTest, WholePipelineDeterministic) {
  auto run_once = [] {
    spark::SparkRunner runner;
    LiteSystem system(&runner, TinyOptions());
    system.TrainOffline();
    const auto* app = spark::AppCatalog::Find("PR");
    return system.Recommend(*app, app->MakeData(app->test_size_mb),
                            spark::ClusterEnv::ClusterC());
  };
  LiteSystem::Recommendation a = run_once();
  LiteSystem::Recommendation b = run_once();
  EXPECT_EQ(a.config, b.config);
  EXPECT_NEAR(a.predicted_seconds, b.predicted_seconds,
              1e-6 * (1 + std::fabs(a.predicted_seconds)));
}

TEST(IntegrationTest, MiniTunerShootout) {
  // A compressed Table-VI: on one app, LITE should beat Default and not be
  // worse than the probing baselines given their budgets.
  spark::SparkRunner runner;
  LiteSystem system(&runner, TinyOptions());
  system.TrainOffline();

  DefaultTuner def(&runner);
  ManualTuner manual(&runner);
  ShaTuner sha(&runner);
  LiteTuner lite(&runner, &system);
  TuningTask task;
  task.app = spark::AppCatalog::Find("KM");
  task.data = task.app->MakeData(task.app->test_size_mb);
  task.env = spark::ClusterEnv::ClusterC();
  std::vector<Tuner*> tuners{&def, &manual, &sha, &lite};
  TaskComparison cmp = CompareTuners(tuners, task, 7200.0);

  double t_def = cmp.outcomes[0].seconds;
  double t_lite = cmp.outcomes[3].seconds;
  EXPECT_LT(t_lite, t_def);
  // LITE's overhead is orders of magnitude below the probers'.
  EXPECT_LT(cmp.outcomes[3].overhead, 5.0);
  EXPECT_GT(cmp.outcomes[2].overhead, 100.0);
}

}  // namespace
}  // namespace lite
