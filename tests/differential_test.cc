// Differential suite: the three execution paths (scalar NECS, batched
// NECS, resilient harness) and the snapshot/serialization round-trips must
// agree bit for bit on random workload tuples. All randomness is replayable
// via LITE_TEST_SEED.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lite/lite_system.h"
#include "lite/snapshot.h"
#include "testkit/diff.h"
#include "testkit/gen.h"
#include "testkit/temp_dir.h"

namespace lite {
namespace {

using testkit::DiffResult;
using testkit::GenOptions;
using testkit::WorkloadTuple;

std::string SeedNote() {
  return "replay with: LITE_TEST_SEED=" +
         std::to_string(testkit::SeedFromEnv());
}

// Shared small trained system (training dominates suite runtime; the
// differential checks themselves are cheap).
class DifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    runner_ = new spark::SparkRunner();
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
    opts.train.epochs = 2;
    opts.num_candidates = 12;
    opts.ensemble_size = 2;
    system_ = new LiteSystem(runner_, opts);
    system_->TrainOffline();
  }

  static void TearDownTestSuite() {
    delete system_;
    delete runner_;
    system_ = nullptr;
    runner_ = nullptr;
  }

  /// Generator restricted to the corpus apps so featurization exercises the
  /// in-vocabulary path; cold-start coverage lives in the full-catalog
  /// generator below.
  testkit::TupleGenerator CorpusGen(uint64_t salt) const {
    GenOptions options;
    options.apps = {"TS", "PR", "KM"};
    return testkit::TupleGenerator(options, testkit::SeedFromEnv() + salt);
  }

  static spark::SparkRunner* runner_;
  static LiteSystem* system_;
};

spark::SparkRunner* DifferentialTest::runner_ = nullptr;
LiteSystem* DifferentialTest::system_ = nullptr;

TEST_F(DifferentialTest, ScalarVsBatchedPredictionsAgree) {
  testkit::TupleGenerator gen = CorpusGen(1);
  for (int i = 0; i < 8; ++i) {
    WorkloadTuple t = gen.Next();
    CandidateEval ce = CorpusBuilder(runner_).FeaturizeCandidate(
        system_->corpus(), *t.app, t.data, t.env, t.config);
    ASSERT_FALSE(ce.stage_instances.empty());
    DiffResult r = testkit::DiffScalarVsBatch(*system_->model(),
                                              ce.stage_instances);
    ASSERT_TRUE(r.ok) << r.message << "\n  tuple: " << t.Describe() << "\n  "
                      << SeedNote();
  }
}

TEST_F(DifferentialTest, ScoringAgreesAcrossThreadCounts) {
  testkit::TupleGenerator gen = CorpusGen(2);
  std::vector<const NecsModel*> models;
  for (size_t m = 0; m < system_->ensemble_size(); ++m) {
    models.push_back(system_->ensemble_member(m));
  }
  for (int i = 0; i < 3; ++i) {
    WorkloadTuple t = gen.Next();
    // Random candidate pool around the tuple's own config.
    std::vector<spark::Config> candidates;
    const auto& space = spark::KnobSpace::Spark16();
    candidates.push_back(t.config);
    candidates.push_back(space.DefaultConfig());
    for (int c = 0; c < 10; ++c) candidates.push_back(space.RandomConfig(gen.rng()));
    DiffResult r = testkit::DiffScoringThreadCounts(
        runner_, system_->corpus(), models, t, candidates, {1, 2, 4});
    ASSERT_TRUE(r.ok) << r.message << "\n  tuple: " << t.Describe() << "\n  "
                      << SeedNote();
  }
}

// Instrumentation must observe, never steer: scoring and recommendation
// are bit-identical with observability off vs fully on (metrics + live
// trace recording), at every scoring-thread count.
TEST_F(DifferentialTest, ObservabilityIsTransparentAcrossThreadCounts) {
  testkit::TupleGenerator gen = CorpusGen(4);
  for (int i = 0; i < 2; ++i) {
    WorkloadTuple t = gen.Next();
    std::vector<spark::Config> candidates;
    const auto& space = spark::KnobSpace::Spark16();
    candidates.push_back(t.config);
    candidates.push_back(space.DefaultConfig());
    for (int c = 0; c < 14; ++c) {
      candidates.push_back(space.RandomConfig(gen.rng()));
    }
    DiffResult r = testkit::DiffObservabilityTransparency(
        *system_, *runner_, t, candidates, {1, 4, 8});
    ASSERT_TRUE(r.ok) << r.message << "\n  tuple: " << t.Describe() << "\n  "
                      << SeedNote();
  }
}

// Quantized backends must stay inside the shipped error bounds
// (docs/QUANTIZATION.md) on random tuples and pools — thread counts and
// kernel ISA are checked bit-for-bit inside the diff.
TEST_F(DifferentialTest, QuantizedBackendsStayWithinErrorBounds) {
  testkit::TupleGenerator gen = CorpusGen(5);
  std::vector<const NecsModel*> models;
  for (size_t m = 0; m < system_->ensemble_size(); ++m) {
    models.push_back(system_->ensemble_member(m));
  }
  for (int i = 0; i < 2; ++i) {
    WorkloadTuple t = gen.Next();
    std::vector<spark::Config> candidates;
    const auto& space = spark::KnobSpace::Spark16();
    candidates.push_back(t.config);
    candidates.push_back(space.DefaultConfig());
    for (int c = 0; c < 10; ++c) {
      candidates.push_back(space.RandomConfig(gen.rng()));
    }
    for (auto [backend, bound] :
         {std::pair{QuantBackend::kInt8, 0.05},
          std::pair{QuantBackend::kFp16, 5e-3}}) {
      DiffResult r = testkit::DiffQuantizationAccuracy(
          runner_, system_->corpus(), models, t, candidates, backend, bound,
          {1, 2, 4});
      ASSERT_TRUE(r.ok) << r.message << "\n  tuple: " << t.Describe()
                        << "\n  " << SeedNote();
    }
  }
}

// Shipping the quantized kernels may not move one bit of the default
// serving path: backend off => ScoreCandidateSet (batched and scalar) is
// bit-identical to the pre-quantization reference at every thread count.
TEST_F(DifferentialTest, QuantBackendOffIsTransparent) {
  testkit::TupleGenerator gen = CorpusGen(6);
  std::vector<const NecsModel*> models;
  for (size_t m = 0; m < system_->ensemble_size(); ++m) {
    models.push_back(system_->ensemble_member(m));
  }
  for (int i = 0; i < 2; ++i) {
    WorkloadTuple t = gen.Next();
    std::vector<spark::Config> candidates;
    const auto& space = spark::KnobSpace::Spark16();
    candidates.push_back(t.config);
    candidates.push_back(space.DefaultConfig());
    for (int c = 0; c < 10; ++c) {
      candidates.push_back(space.RandomConfig(gen.rng()));
    }
    DiffResult r = testkit::DiffQuantTransparency(
        runner_, system_->corpus(), models, t, candidates, {1, 4, 8});
    ASSERT_TRUE(r.ok) << r.message << "\n  tuple: " << t.Describe() << "\n  "
                      << SeedNote();
  }
}

TEST_F(DifferentialTest, SnapshotRoundTripIsLossless) {
  testkit::ScopedTempDir tmp("testkit_snapshot_diff");
  testkit::TupleGenerator gen = CorpusGen(3);
  WorkloadTuple t = gen.Next();
  DiffResult r =
      testkit::DiffSnapshotRoundTrip(*system_, *runner_, t, tmp.path());
  ASSERT_TRUE(r.ok) << r.message << "\n  tuple: " << t.Describe() << "\n  "
                    << SeedNote();
}

// Stage-tuning transparency: enabled-but-unused must be bit-identical to
// disabled across thread counts 1/4/8 and the exact/int8/fp16 backends.
// Trains its own system with a stage head so the enabled service really
// plans — the strongest form of the inertness claim.
TEST(StageTuningDifferentialTest, EnabledButUnusedIsBitIdentical) {
  spark::SparkRunner runner;
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
  opts.train.epochs = 1;
  opts.num_candidates = 8;
  opts.ensemble_size = 1;
  opts.stage_tuning = true;
  opts.stage_head_train.epochs = 1;
  LiteSystem system(&runner, opts);
  system.TrainOffline();
  ASSERT_NE(system.stage_head(), nullptr);

  testkit::ScopedTempDir tmp("stage_tuning_diff_snapshot");
  const std::string& dir = tmp.path();
  ASSERT_TRUE(SaveSnapshot(system, dir));

  const uint64_t seed = testkit::SeedFromEnv();
  GenOptions gopts;
  gopts.apps = {"TS", "PR"};
  gopts.clusters = {spark::ClusterEnv::ClusterA()};
  testkit::TupleGenerator gen(gopts, seed + 11);
  for (int i = 0; i < 2; ++i) {
    WorkloadTuple t = gen.Next();
    DiffResult r = testkit::DiffStageTuningTransparency(runner, t, dir);
    EXPECT_TRUE(r.ok) << r.message << "\n  tuple: " << t.Describe() << "\n  "
                      << SeedNote();
  }
}

// Runner-level differentials need no trained model: sweep the full catalog,
// all clusters, corner-heavy knobs.
TEST(RunnerDifferentialTest, PlainVsResilientAndSerializationRoundTrips) {
  spark::SparkRunner runner;
  uint64_t seed = testkit::SeedFromEnv();
  size_t cases = std::max<size_t>(8, testkit::CasesFromEnv() / 4);
  testkit::PropertyOutcome outcome = testkit::CheckTupleProperty(
      "runner_differentials", cases, GenOptions{}, seed,
      [&](const WorkloadTuple& t) -> std::string {
        DiffResult r = testkit::DiffRunnerVsResilient(runner, t);
        if (!r.ok) return "runner-vs-resilient: " + r.message;
        r = testkit::DiffEventLogRoundTrip(runner, t);
        if (!r.ok) return "eventlog-roundtrip: " + r.message;
        r = testkit::DiffTraceRoundTrip(runner, t);
        if (!r.ok) return "trace-roundtrip: " + r.message;
        return "";
      });
  EXPECT_TRUE(outcome.ok) << outcome.report;
}

}  // namespace
}  // namespace lite
