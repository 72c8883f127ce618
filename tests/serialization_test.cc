// Persistence roundtrips: trees, forests, vocabularies, and full LiteSystem
// snapshots.
#include <gtest/gtest.h>

#include <sstream>

#include "lite/snapshot.h"
#include "lite/vocab.h"
#include "ml/serialization.h"
#include "sparksim/dag.h"
#include "testkit/temp_dir.h"

namespace lite {
namespace {

std::vector<std::vector<double>> MakeX(Rng* rng, size_t n, size_t dims) {
  std::vector<std::vector<double>> x(n, std::vector<double>(dims));
  for (auto& row : x) {
    for (double& v : row) v = rng->Uniform();
  }
  return x;
}

TEST(SerializationTest, TreeRoundtrip) {
  Rng rng(1);
  auto x = MakeX(&rng, 200, 3);
  std::vector<double> y;
  for (const auto& row : x) y.push_back(2 * row[0] - row[1] + 0.5 * row[2]);
  DecisionTreeRegressor tree;
  tree.Fit(x, y, &rng);

  std::stringstream ss;
  SerializeTree(tree, &ss);
  DecisionTreeRegressor loaded;
  ASSERT_TRUE(DeserializeTree(&ss, &loaded));
  EXPECT_EQ(loaded.NumNodes(), tree.NumNodes());
  for (int i = 0; i < 50; ++i) {
    std::vector<double> q{rng.Uniform(), rng.Uniform(), rng.Uniform()};
    EXPECT_DOUBLE_EQ(loaded.Predict(q), tree.Predict(q));
  }
}

TEST(SerializationTest, ForestRoundtrip) {
  Rng rng(2);
  auto x = MakeX(&rng, 150, 2);
  std::vector<double> y;
  for (const auto& row : x) y.push_back(row[0] * row[1]);
  RandomForestRegressor forest(ForestOptions{.num_trees = 8});
  forest.Fit(x, y, &rng);

  std::stringstream ss;
  SerializeForest(forest, &ss);
  RandomForestRegressor loaded;
  ASSERT_TRUE(DeserializeForest(&ss, &loaded));
  EXPECT_EQ(loaded.NumTrees(), 8u);
  for (int i = 0; i < 20; ++i) {
    std::vector<double> q{rng.Uniform(), rng.Uniform()};
    EXPECT_DOUBLE_EQ(loaded.Predict(q), forest.Predict(q));
  }
}

TEST(SerializationTest, RejectsCorruptInput) {
  std::stringstream bad1("nonsense");
  DecisionTreeRegressor t;
  EXPECT_FALSE(DeserializeTree(&bad1, &t));
  // Out-of-range child index.
  std::stringstream bad2("litemodel v1 tree\n1\n0 0.5 1.0 5 6\n");
  EXPECT_FALSE(DeserializeTree(&bad2, &t));
  // Split node without children.
  std::stringstream bad3("litemodel v1 tree\n1\n0 0.5 1.0 -1 -1\n");
  EXPECT_FALSE(DeserializeTree(&bad3, &t));
  RandomForestRegressor f;
  std::stringstream bad4("litemodel v1 gbdt\n0 0 0\n");
  EXPECT_FALSE(DeserializeForest(&bad4, &f));
}

TEST(SerializationTest, TokenVocabRoundtrip) {
  TokenVocab v = TokenVocab::Build({{"map", "map", "filter", "(", ")"}});
  std::stringstream ss;
  v.Serialize(&ss);
  TokenVocab loaded;
  ASSERT_TRUE(TokenVocab::Deserialize(&ss, &loaded));
  EXPECT_EQ(loaded.size(), v.size());
  EXPECT_EQ(loaded.IdOf("map"), v.IdOf("map"));
  EXPECT_EQ(loaded.IdOf("unknown-token"), TokenVocab::kOovId);
}

TEST(SerializationTest, OpVocabRoundtrip) {
  std::vector<const spark::ApplicationSpec*> apps;
  for (const auto& a : spark::AppCatalog::All()) apps.push_back(&a);
  spark::OpVocab v = spark::OpVocab::FromApplications(apps);
  std::stringstream ss;
  v.Serialize(&ss);
  spark::OpVocab loaded;
  ASSERT_TRUE(spark::OpVocab::Deserialize(&ss, &loaded));
  EXPECT_EQ(loaded.size(), v.size());
  EXPECT_EQ(loaded.IdOf("map"), v.IdOf("map"));
  EXPECT_EQ(loaded.IdOf("zzz"), static_cast<int>(loaded.size()));
}

TEST(SnapshotTest, SaveLoadRecommendAgrees) {
  spark::SparkRunner runner;
  LiteOptions opts;
  opts.corpus.apps = {"TS", "PR", "KM"};
  opts.corpus.clusters = {spark::ClusterEnv::ClusterA()};
  opts.corpus.configs_per_setting = 2;
  opts.corpus.max_stage_instances_per_run = 5;
  opts.corpus.max_code_tokens = 64;
  opts.necs.emb_dim = 8;
  opts.necs.cnn_widths = {3, 4};
  opts.necs.cnn_kernels = 6;
  opts.necs.code_dim = 12;
  opts.necs.gcn_hidden = 8;
  opts.train.epochs = 4;
  opts.num_candidates = 20;
  opts.ensemble_size = 2;
  LiteSystem system(&runner, opts);
  system.TrainOffline();

  testkit::ScopedTempDir tmp("lite_snapshot");
  ASSERT_TRUE(SaveSnapshot(system, tmp.path()));

  auto loaded = LoadedLiteModel::Load(tmp.path(), &runner);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->ensemble_size(), 2u);

  const auto* app = spark::AppCatalog::Find("PR");
  spark::DataSpec data = app->MakeData(app->test_size_mb);
  spark::ClusterEnv env = spark::ClusterEnv::ClusterA();
  LiteSystem::Recommendation orig = system.Recommend(*app, data, env);
  LiteSystem::Recommendation restored = loaded->Recommend(*app, data, env);
  // Identical candidate stream (same seed) + identical weights => identical
  // recommendation.
  EXPECT_EQ(restored.config, orig.config);
  EXPECT_NEAR(restored.predicted_seconds, orig.predicted_seconds,
              1e-4 * (1.0 + orig.predicted_seconds));
}

TEST(SnapshotTest, LoadRejectsMissingDir) {
  spark::SparkRunner runner;
  EXPECT_EQ(LoadedLiteModel::Load("/nonexistent/dir/xyz", &runner), nullptr);
}

TEST(SnapshotTest, SaveRequiresTrainedSystem) {
  spark::SparkRunner runner;
  LiteSystem system(&runner, LiteOptions{});
  testkit::ScopedTempDir tmp("untrained_snapshot");
  EXPECT_FALSE(SaveSnapshot(system, tmp.path()));
  EXPECT_FALSE(SnapshotExists(tmp.path()));
}

}  // namespace
}  // namespace lite
