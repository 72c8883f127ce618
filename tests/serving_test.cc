// Serving-pipeline suite: the unified RecommendPipeline and the concurrent
// TuningService built on it.
//
// DiffServingEquivalence is the drift guard promised in docs/SERVING.md:
// TuningService and LoadedLiteModel recommendations are bit-identical to
// LiteSystem::Recommend for the same snapshot and seed, across scoring
// thread counts and before/after a hot-swap to an identical snapshot.
// The regression tests pin the four bugs fixed when the paths were
// unified: the NaN-swallowing argmin, per-member-overwritten update stats,
// unchecked feedback stage indices, and hard-failing unknown meta keys.
// ConcurrentClientsHotSwapAndUpdates is part of the TSan CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "lite/lite_system.h"
#include "lite/snapshot.h"
#include "obs/metrics.h"
#include "serve/recommend_pipeline.h"
#include "serve/tuning_service.h"
#include "sparksim/runner.h"
#include "testkit/temp_dir.h"
#include "util/thread_pool.h"

namespace lite {
namespace {

LiteOptions TinyOptions(size_t ensemble) {
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
  opts.ensemble_size = ensemble;
  return opts;
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

// Shared trained system + saved snapshot (training dominates suite
// runtime). Tests that mutate models train their own system instead.
class ServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    runner_ = new spark::SparkRunner();
    system_ = new LiteSystem(runner_, TinyOptions(/*ensemble=*/2));
    system_->TrainOffline();
    tmp_ = new testkit::ScopedTempDir("serving_snapshot");
    dir_ = &tmp_->path();
    ASSERT_TRUE(SaveSnapshot(*system_, *dir_));
  }

  static void TearDownTestSuite() {
    delete tmp_;
    delete system_;
    delete runner_;
    tmp_ = nullptr;
    dir_ = nullptr;
    system_ = nullptr;
    runner_ = nullptr;
  }

  struct Query {
    const spark::ApplicationSpec* app;
    spark::DataSpec data;
    spark::ClusterEnv env;
  };

  static std::vector<Query> Queries() {
    std::vector<Query> qs;
    for (const char* name : {"TS", "PR", "KM"}) {
      const auto* app = spark::AppCatalog::Find(name);
      qs.push_back({app, app->MakeData(app->test_size_mb),
                    spark::ClusterEnv::ClusterA()});
    }
    return qs;
  }

  static spark::SparkRunner* runner_;
  static LiteSystem* system_;
  static testkit::ScopedTempDir* tmp_;
  static const std::string* dir_;
};

spark::SparkRunner* ServingTest::runner_ = nullptr;
LiteSystem* ServingTest::system_ = nullptr;
testkit::ScopedTempDir* ServingTest::tmp_ = nullptr;
const std::string* ServingTest::dir_ = nullptr;

// The acceptance differential: one snapshot, one seed => one bit pattern,
// whichever surface serves it, at every scoring thread count, and across a
// hot-swap to an identical snapshot.
TEST_F(ServingTest, DiffServingEquivalence) {
  auto loaded = LoadedLiteModel::Load(*dir_, runner_);
  ASSERT_NE(loaded, nullptr);

  for (const Query& q : Queries()) {
    LiteSystem::Recommendation direct =
        system_->Recommend(*q.app, q.data, q.env);
    LiteSystem::Recommendation from_snapshot =
        loaded->Recommend(*q.app, q.data, q.env);
    // Identical candidate stream (same seed) + identical weights =>
    // identical recommendation.
    EXPECT_EQ(from_snapshot.config, direct.config) << q.app->name;
    EXPECT_EQ(from_snapshot.predicted_seconds, direct.predicted_seconds)
        << q.app->name;

    for (size_t threads : {1u, 4u, 8u}) {
      serve::ServiceOptions sopts;
      sopts.scoring.threads = threads;
      serve::TuningService service(runner_, sopts);
      ASSERT_TRUE(service.LoadSnapshot(*dir_));
      int session = service.OpenSession("tenant-a");  // snapshot's seed.

      serve::TuningService::Response sync =
          service.Recommend(session, *q.app, q.data, q.env);
      ASSERT_TRUE(sync.ok) << sync.error;
      EXPECT_EQ(sync.rec.config, direct.config)
          << q.app->name << " threads=" << threads;
      EXPECT_EQ(sync.rec.predicted_seconds, direct.predicted_seconds)
          << q.app->name << " threads=" << threads;

      serve::TuningService::Response async =
          service.SubmitRecommend(session, *q.app, q.data, q.env).get();
      ASSERT_TRUE(async.ok) << async.error;
      EXPECT_EQ(async.rec.config, direct.config);
      EXPECT_EQ(async.rec.predicted_seconds, direct.predicted_seconds);

      // Hot-swap to an identical snapshot must not move a single bit.
      ASSERT_TRUE(service.LoadSnapshot(*dir_));
      EXPECT_EQ(service.stats().hot_swaps, 1u);
      serve::TuningService::Response after =
          service.Recommend(session, *q.app, q.data, q.env);
      ASSERT_TRUE(after.ok) << after.error;
      EXPECT_EQ(after.rec.config, direct.config);
      EXPECT_EQ(after.rec.predicted_seconds, direct.predicted_seconds);
    }
  }
}

// Regression (argmin/NaN): a NaN score fails every `<`, so the old
// per-surface argmin loops silently returned a default-constructed Config
// with predicted_seconds = inf whenever the best-scoring prefix was NaN.
TEST_F(ServingTest, ArgminSkipsNonFiniteScores) {
  const Query q = Queries()[0];
  serve::PipelineContext ctx;
  ctx.acg = &system_->candidate_generator();
  ctx.num_candidates = 12;
  ctx.seed = system_->options().seed;

  uint64_t before = CounterValue("lite_recommend_nonfinite_scores_total");
  std::vector<spark::Config> seen;
  LiteSystem::Recommendation rec = serve::RunRecommendPipeline(
      ctx, *q.app, q.data, q.env,
      [&](const std::vector<spark::Config>& candidates) {
        seen = candidates;
        // NaN everywhere except one expensive-looking finite entry.
        std::vector<double> scores(candidates.size(),
                                   std::nan(""));
        scores.back() = 1234.5;
        return scores;
      });
  ASSERT_GT(seen.size(), 1u);
  EXPECT_EQ(rec.config, seen.back());
  EXPECT_EQ(rec.predicted_seconds, 1234.5);
  EXPECT_EQ(rec.candidates_evaluated, seen.size());
  EXPECT_EQ(CounterValue("lite_recommend_nonfinite_scores_total") - before,
            seen.size() - 1);
}

TEST_F(ServingTest, ArgminFallsBackToFirstCandidateWhenAllNonFinite) {
  const Query q = Queries()[1];
  serve::PipelineContext ctx;
  ctx.acg = &system_->candidate_generator();
  ctx.num_candidates = 12;
  ctx.seed = system_->options().seed;

  std::vector<spark::Config> seen;
  LiteSystem::Recommendation rec = serve::RunRecommendPipeline(
      ctx, *q.app, q.data, q.env,
      [&](const std::vector<spark::Config>& candidates) {
        seen = candidates;
        return std::vector<double>(
            candidates.size(), std::numeric_limits<double>::quiet_NaN());
      });
  ASSERT_FALSE(seen.empty());
  // Never a default-constructed Config: the first candidate is returned,
  // with its (non-finite) score reported honestly.
  EXPECT_EQ(rec.config, seen.front());
  EXPECT_FALSE(std::isfinite(rec.predicted_seconds));
  EXPECT_EQ(rec.candidates_evaluated, seen.size());
}

// Regression (update stats): ForceAdaptiveUpdate used to overwrite `stats`
// per ensemble member, so callers (and the accuracy gauge) saw only the
// last member. Now stats aggregate the whole ensemble.
TEST_F(ServingTest, AdaptiveUpdateStatsAggregateAcrossEnsemble) {
  spark::SparkRunner runner;
  LiteOptions opts = TinyOptions(/*ensemble=*/2);
  opts.update.epochs = 2;
  opts.update_batch = 1000;  // no auto-update while collecting.
  LiteSystem system(&runner, opts);
  system.TrainOffline();

  const auto* app = spark::AppCatalog::Find("TS");
  spark::DataSpec data = app->MakeData(app->test_size_mb);
  spark::ClusterEnv env = spark::ClusterEnv::ClusterA();
  spark::Config config = spark::KnobSpace::Spark16().DefaultConfig();
  spark::AppRunResult run = runner.cost_model().Run(*app, data, env, config);
  ASSERT_FALSE(run.failed);
  system.IngestFeedbackRun(*app, data, env, config, run,
                           /*sentinel_labels=*/false);
  ASSERT_GT(system.pending_feedback(), 0u);

  UpdateStats stats = system.ForceAdaptiveUpdate();
  EXPECT_EQ(stats.members_updated, 2u);
  EXPECT_EQ(stats.epochs_run, 2u * opts.update.epochs);
  // Loss curves are per-epoch means across members, not the last member's.
  EXPECT_EQ(stats.prediction_loss.size(), opts.update.epochs);
  EXPECT_EQ(stats.discriminator_loss.size(), opts.update.epochs);
  EXPECT_GE(stats.final_domain_accuracy, 0.0);
  EXPECT_LE(stats.final_domain_accuracy, 1.0);
  // The gauge reports the aggregated (ensemble-mean) accuracy.
  EXPECT_DOUBLE_EQ(obs::MetricsRegistry::Global()
                       .GetGauge("lite_update_domain_accuracy")
                       ->Value(),
                   stats.final_domain_accuracy);
}

// Regression (feedback indexing): a stage run whose stage_index does not
// name a stage of the application used to index `seen[...]` out of bounds
// (UB under fault injection / malformed results). It is now dropped and
// counted; in-range stage runs in the same result are still ingested.
TEST_F(ServingTest, FeedbackDropsOutOfRangeStageRuns) {
  spark::SparkRunner runner;
  LiteOptions opts = TinyOptions(/*ensemble=*/1);
  opts.update_batch = 1000;
  LiteSystem system(&runner, opts);
  system.TrainOffline();

  const auto* app = spark::AppCatalog::Find("PR");
  spark::DataSpec data = app->MakeData(app->test_size_mb);
  spark::ClusterEnv env = spark::ClusterEnv::ClusterA();
  spark::Config config = spark::KnobSpace::Spark16().DefaultConfig();
  spark::AppRunResult run = runner.cost_model().Run(*app, data, env, config);
  ASSERT_FALSE(run.failed);
  ASSERT_FALSE(run.stage_runs.empty());

  // Malform the result: two stage runs that no stage of `app` backs.
  spark::StageRunResult bad = run.stage_runs.front();
  bad.stage_index = app->stages.size();
  run.stage_runs.insert(run.stage_runs.begin(), bad);
  bad.stage_index = 1u << 20;
  run.stage_runs.push_back(bad);

  uint64_t before = CounterValue("lite_feedback_bad_stage_total");
  system.IngestFeedbackRun(*app, data, env, config, run,
                           /*sentinel_labels=*/false);
  EXPECT_EQ(CounterValue("lite_feedback_bad_stage_total") - before, 2u);
  // The well-formed stage runs were still ingested.
  EXPECT_GT(system.pending_feedback(), 0u);
}

// Regression (options validation): a ServiceOptions with max_pending = 0
// used to construct fine and then reject every request forever; a negative
// thread count cast into size_t used to ask for ~2^64 workers. Both now
// fail loudly at construction with std::invalid_argument.
TEST_F(ServingTest, ServiceOptionsValidatedAtConstruction) {
  serve::ServiceOptions zero_bound;
  zero_bound.max_pending = 0;
  EXPECT_THROW(serve::TuningService(runner_, zero_bound),
               std::invalid_argument);

  serve::ServiceOptions negative_threads;
  negative_threads.scoring.threads = static_cast<size_t>(-1);  // wrapped.
  EXPECT_THROW(serve::TuningService(runner_, negative_threads),
               std::invalid_argument);

  serve::ServiceOptions nan_budget;
  nan_budget.guardrail.enabled = true;
  nan_budget.guardrail.failure_rate_threshold =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(serve::TuningService(runner_, nan_budget),
               std::invalid_argument);

  // The validator names the offending field so misconfiguration is
  // diagnosable from the exception alone.
  EXPECT_NE(serve::ValidateServiceOptions(zero_bound).find("max_pending"),
            std::string::npos);
  EXPECT_EQ(serve::ValidateServiceOptions(serve::ServiceOptions{}), "");
}

// Regression (stats/metrics drift): serve_* metric increments used to
// happen outside mu_ while the Stats twin mutated inside it, so a snapshot
// taken between the two saw them disagree. Both now publish in the same
// critical section; after Drain the deltas must match exactly.
TEST_F(ServingTest, StatsAndMetricsPublishTogether) {
  uint64_t req0 = CounterValue("serve_requests_total");
  uint64_t done0 = CounterValue("serve_completed_total");
  uint64_t sess0 = CounterValue("serve_sessions_total");

  serve::TuningService service(runner_, serve::ServiceOptions{});
  ASSERT_TRUE(service.LoadSnapshot(*dir_));
  int session = service.OpenSession("tenant-sm");
  const std::vector<Query> queries = Queries();
  std::vector<std::future<serve::TuningService::Response>> futures;
  for (int i = 0; i < 6; ++i) {
    const Query& q = queries[i % queries.size()];
    futures.push_back(service.SubmitRecommend(session, *q.app, q.data, q.env));
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().ok);
  service.Drain();

  serve::TuningService::Stats stats = service.stats();
  EXPECT_EQ(stats.submitted, CounterValue("serve_requests_total") - req0);
  EXPECT_EQ(stats.completed, CounterValue("serve_completed_total") - done0);
  EXPECT_EQ(stats.sessions, CounterValue("serve_sessions_total") - sess0);
  EXPECT_EQ(stats.sessions, 1u);
}

// Deterministic backpressure: with every shared-pool worker parked behind a
// gate, accepted requests stay pending, so the admission bound is exact.
TEST_F(ServingTest, BackpressureRejectsBeyondBoundedQueue) {
  serve::ServiceOptions sopts;
  sopts.max_pending = 2;
  sopts.scoring.threads = 1;
  serve::TuningService service(runner_, sopts);
  ASSERT_TRUE(service.LoadSnapshot(*dir_));
  int session = service.OpenSession("tenant-bp");
  const Query q = Queries()[0];

  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  ThreadPool& pool = ThreadPool::Shared();
  std::vector<std::future<void>> parked;
  for (size_t i = 0; i < pool.size(); ++i) {
    parked.push_back(pool.Submit([opened] { opened.wait(); }));
  }

  auto a = service.SubmitRecommend(session, *q.app, q.data, q.env);
  auto b = service.SubmitRecommend(session, *q.app, q.data, q.env);
  auto c = service.SubmitRecommend(session, *q.app, q.data, q.env);

  serve::TuningService::Response rejected = c.get();  // immediate: never queued.
  EXPECT_TRUE(rejected.rejected);
  EXPECT_FALSE(rejected.ok);

  gate.set_value();
  for (auto& f : parked) f.get();
  serve::TuningService::Response ra = a.get();
  serve::TuningService::Response rb = b.get();
  EXPECT_TRUE(ra.ok) << ra.error;
  EXPECT_TRUE(rb.ok) << rb.error;

  serve::TuningService::Stats stats = service.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

// TSan target: concurrent clients, hot-swaps and off-path adaptive updates
// must be race-free, with no failed or torn request.
TEST_F(ServingTest, ConcurrentClientsHotSwapAndUpdates) {
  serve::ServiceOptions sopts;
  sopts.max_pending = 256;
  sopts.scoring.threads = 1;  // client threads are the concurrency here.
  sopts.update_batch = 4;
  sopts.update.epochs = 1;
  serve::TuningService service(runner_, sopts);
  ASSERT_TRUE(service.LoadSnapshot(*dir_));

  const std::vector<Query> queries = Queries();
  constexpr int kClients = 4;
  constexpr int kRequests = 6;
  std::vector<int> sessions;
  for (int c = 0; c < kClients; ++c) {
    sessions.push_back(
        service.OpenSession("tenant-" + std::to_string(c)));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRequests; ++r) {
        const Query& q = queries[(c + r) % queries.size()];
        serve::TuningService::Response resp =
            service.Recommend(sessions[c], *q.app, q.data, q.env);
        if (!resp.ok || resp.rec.candidates_evaluated == 0) ++failures;
      }
    });
  }

  // Interleave hot-swaps and feedback-triggered off-path updates with the
  // client traffic.
  spark::Config config = spark::KnobSpace::Spark16().DefaultConfig();
  for (int swap = 0; swap < 3; ++swap) {
    ASSERT_TRUE(service.LoadSnapshot(*dir_));
    const Query& q = queries[swap % queries.size()];
    spark::AppRunResult run =
        runner_->cost_model().Run(*q.app, q.data, q.env, config);
    ASSERT_TRUE(
        service.SubmitFeedback(sessions[0], *q.app, q.data, q.env, config, run));
  }

  for (auto& t : clients) t.join();
  service.Drain();
  service.DrainUpdates();
  EXPECT_EQ(failures.load(), 0);
  serve::TuningService::Stats stats = service.stats();
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.completed,
            static_cast<uint64_t>(kClients) * kRequests);
  EXPECT_GE(stats.hot_swaps, 3u);
}

// Off-path update wiring: a filled feedback batch fine-tunes a clone and
// swaps it in without touching the previously served snapshot.
TEST_F(ServingTest, OffPathUpdateSwapsFineTunedClone) {
  serve::ServiceOptions sopts;
  sopts.update_batch = 1;
  sopts.update.epochs = 1;
  serve::TuningService service(runner_, sopts);
  ASSERT_TRUE(service.LoadSnapshot(*dir_));
  int session = service.OpenSession("tenant-up");

  std::shared_ptr<const LoadedLiteModel> before = service.CurrentSnapshot();
  const Query q = Queries()[2];
  spark::Config config = spark::KnobSpace::Spark16().DefaultConfig();
  spark::AppRunResult run =
      runner_->cost_model().Run(*q.app, q.data, q.env, config);
  ASSERT_TRUE(
      service.SubmitFeedback(session, *q.app, q.data, q.env, config, run));
  service.DrainUpdates();

  std::shared_ptr<const LoadedLiteModel> after = service.CurrentSnapshot();
  EXPECT_NE(before.get(), after.get());  // swapped, not mutated in place.
  EXPECT_EQ(service.stats().adaptive_updates, 1u);
  EXPECT_EQ(service.pending_feedback(), 0u);
  // The retired snapshot is still alive and intact for holders (RCU grace).
  LiteSystem::Recommendation old_rec = before->Recommend(*q.app, q.data, q.env);
  EXPECT_GT(old_rec.candidates_evaluated, 0u);
}

}  // namespace
}  // namespace lite
