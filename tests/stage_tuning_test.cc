// Fine-grained per-stage tuning: staged configs and their validation, the
// staged cost-model execution path, the evaluator-abstracted planner with
// its AQE-style re-tune, the NECS per-stage head, and the serving
// endpoints. The oracle invariants (stage_override_dominance /
// retune_inertness) prove the planner's laws on random tuples; this suite
// pins the concrete API contracts and the serving semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "lite/lite_system.h"
#include "lite/snapshot.h"
#include "lite/stage_head.h"
#include "serve/tuning_service.h"
#include "sparksim/application.h"
#include "sparksim/cost_model.h"
#include "sparksim/environment.h"
#include "sparksim/eventlog.h"
#include "sparksim/knob.h"
#include "sparksim/runner.h"
#include "sparksim/stage_config.h"
#include "sparksim/stage_planner.h"
#include "testkit/gen.h"
#include "testkit/oracle.h"
#include "testkit/temp_dir.h"

namespace lite {
namespace {

using spark::Config;
using spark::EffectiveConfig;
using spark::KnobSpace;
using spark::StagedConfig;
using spark::StageEvent;
using spark::StageKnobOverride;
using spark::ValidateStagedConfig;

const spark::ApplicationSpec* App(const char* name) {
  const auto* app = spark::AppCatalog::Find(name);
  EXPECT_NE(app, nullptr);
  return app;
}

// --- StagedConfig / EffectiveConfig / validation --------------------------

TEST(StageConfigTest, NoOverridesIsBitIdenticalToBase) {
  const auto& space = KnobSpace::Spark16();
  StagedConfig staged{space.DefaultConfig(), {}};
  for (size_t si = 0; si < 8; ++si) {
    EXPECT_EQ(EffectiveConfig(staged, si), staged.base);
  }
}

TEST(StageConfigTest, OverrideAppliesOnlyToItsStage) {
  const auto& space = KnobSpace::Spark16();
  const size_t knob = spark::kShuffleFileBuffer;
  const double value = space.spec(knob).min_value;
  StagedConfig staged{space.DefaultConfig(), {{2, knob, value}}};
  EXPECT_EQ(EffectiveConfig(staged, 0), staged.base);
  EXPECT_EQ(EffectiveConfig(staged, 1), staged.base);
  Config at2 = EffectiveConfig(staged, 2);
  EXPECT_EQ(at2[knob], value);
  at2[knob] = staged.base[knob];
  EXPECT_EQ(at2, staged.base);  // only the overridden knob moved.
}

TEST(StageConfigTest, LaterDuplicateOverrideWins) {
  const auto& space = KnobSpace::Spark16();
  const size_t knob = spark::kDefaultParallelism;
  StagedConfig staged{space.DefaultConfig(),
                      {{0, knob, space.spec(knob).min_value},
                       {0, knob, space.spec(knob).max_value}}};
  EXPECT_EQ(EffectiveConfig(staged, 0)[knob], space.spec(knob).max_value);
}

TEST(StageConfigTest, OutOfRangeOverrideIsClampedAtExecution) {
  const auto& space = KnobSpace::Spark16();
  const size_t knob = spark::kMemoryFraction;
  StagedConfig staged{space.DefaultConfig(),
                      {{0, knob, space.spec(knob).max_value * 10.0}}};
  EXPECT_EQ(EffectiveConfig(staged, 0)[knob], space.spec(knob).max_value);
}

TEST(StageConfigTest, ValidationCatalog) {
  const auto* app = App("TS");
  const auto& space = KnobSpace::Spark16();
  const size_t knob = spark::kStageTunableKnobs[0];
  std::string why;

  StagedConfig good{space.DefaultConfig(),
                    {{0, knob, space.spec(knob).min_value}}};
  EXPECT_TRUE(ValidateStagedConfig(good, *app, &why)) << why;
  EXPECT_TRUE(ValidateStagedConfig({space.DefaultConfig(), {}}, *app, &why));

  EXPECT_FALSE(ValidateStagedConfig({Config{}, {}}, *app, &why));
  EXPECT_FALSE(ValidateStagedConfig(
      {space.DefaultConfig(),
       {{app->stages.size(), knob, space.spec(knob).min_value}}},
      *app, &why));
  EXPECT_FALSE(ValidateStagedConfig(
      {space.DefaultConfig(), {{0, spark::kNumKnobs, 1.0}}}, *app, &why));
  // Tunable-knob whitelist: executor instances is app-level only.
  EXPECT_FALSE(ValidateStagedConfig(
      {space.DefaultConfig(), {{0, spark::kExecutorInstances, 4.0}}}, *app,
      &why));
  EXPECT_FALSE(ValidateStagedConfig(
      {space.DefaultConfig(), {{0, knob, std::nan("")}}}, *app, &why));
  EXPECT_FALSE(ValidateStagedConfig(
      {space.DefaultConfig(),
       {{0, knob, space.spec(knob).max_value * 2.0 + 1.0}}},
      *app, &why));
}

TEST(StageConfigTest, TunableKnobWhitelist) {
  for (size_t knob : spark::kStageTunableKnobs) {
    EXPECT_TRUE(spark::IsStageTunableKnob(knob));
  }
  EXPECT_FALSE(spark::IsStageTunableKnob(spark::kExecutorInstances));
  EXPECT_FALSE(spark::IsStageTunableKnob(spark::kNumKnobs));
}

// --- Staged cost-model execution ------------------------------------------

TEST(RunStagedTest, EmptyOverridesBitIdenticalToRun) {
  spark::CostModel model;  // default options keep the noise on.
  testkit::TupleGenerator gen(testkit::GenOptions{}, testkit::SeedFromEnv());
  for (int i = 0; i < 5; ++i) {
    testkit::WorkloadTuple t = gen.Next();
    spark::AppRunResult plain = model.Run(*t.app, t.data, t.env, t.config);
    spark::AppRunResult staged =
        model.RunStaged(*t.app, t.data, t.env, {t.config, {}});
    ASSERT_EQ(staged.stage_runs.size(), plain.stage_runs.size());
    EXPECT_EQ(staged.total_seconds, plain.total_seconds);
    EXPECT_EQ(staged.failed, plain.failed);
    for (size_t j = 0; j < plain.stage_runs.size(); ++j) {
      EXPECT_EQ(staged.stage_runs[j].seconds, plain.stage_runs[j].seconds);
    }
  }
}

TEST(RunStagedTest, OverrideMovesOnlyItsOwnStage) {
  spark::CostModelOptions mopts;
  mopts.noise_sigma = 0.0;
  spark::CostModel model(mopts);
  const auto* app = App("TS");
  spark::DataSpec data = app->MakeData(app->test_size_mb);
  spark::ClusterEnv env = spark::ClusterEnv::ClusterA();
  const auto& space = KnobSpace::Spark16();
  Config base = space.DefaultConfig();

  // Shrink the shuffle buffer on one shuffle stage only: that stage slows,
  // every other stage is bit-identical.
  size_t target = app->stages.size();
  for (size_t si = 0; si < app->stages.size(); ++si) {
    if (app->stages[si].shuffle_fraction > 0.0) target = si;
  }
  ASSERT_LT(target, app->stages.size()) << "TS must have a shuffle stage";
  StagedConfig staged{
      base,
      {{target, spark::kShuffleFileBuffer,
        space.spec(spark::kShuffleFileBuffer).min_value}}};
  spark::AppRunResult plain = model.Run(*app, data, env, base);
  spark::AppRunResult overridden = model.RunStaged(*app, data, env, staged);
  ASSERT_EQ(overridden.stage_runs.size(), plain.stage_runs.size());
  for (size_t j = 0; j < plain.stage_runs.size(); ++j) {
    if (plain.stage_runs[j].stage_index == target) {
      EXPECT_GT(overridden.stage_runs[j].seconds,
                plain.stage_runs[j].seconds);
    } else {
      EXPECT_EQ(overridden.stage_runs[j].seconds,
                plain.stage_runs[j].seconds);
    }
  }
}

// --- Planner + re-tune on the simulator evaluator -------------------------

struct PlannerHarness {
  spark::CostModelOptions mopts;
  spark::CostModel model;
  const spark::ApplicationSpec* app;
  spark::DataSpec data;
  spark::ClusterEnv env;
  Config base;
  int iterations;
  spark::StageEvalFactory factory;

  PlannerHarness()
      : mopts([] {
          spark::CostModelOptions o;
          o.noise_sigma = 0.0;
          return o;
        }()),
        model(mopts),
        app(App("CC")),  // iterative, multi-stage.
        data(app->MakeData(app->test_size_mb)),
        env(spark::ClusterEnv::ClusterB()),
        base(KnobSpace::Spark16().DefaultConfig()),
        iterations(spark::ResolveIterations(*app, data)),
        factory(spark::MakeSimulatorStageEvalFactory(&model, app, data,
                                                     &env)) {}

  std::vector<StageEvent> ObserveStagesBelow(const StagedConfig& staged,
                                             size_t cut) const {
    spark::AppRunResult run = model.RunStaged(*app, data, env, staged);
    std::vector<StageEvent> events;
    for (const auto& sr : run.stage_runs) {
      if (sr.stage_index >= cut) continue;
      StageEvent e;
      e.stage_index = sr.stage_index;
      e.iteration = sr.iteration;
      e.stage_name = app->stages[sr.stage_index].name;
      e.seconds = sr.seconds;
      events.push_back(e);
    }
    return events;
  }
};

TEST(StagePlannerTest, PlanDominatesAndRePredicts) {
  PlannerHarness h;
  spark::StagePlanner planner;
  spark::StagePlan plan =
      planner.Plan(*h.app, h.iterations, h.base, h.factory(1.0));
  ASSERT_TRUE(plan.ok);
  ASSERT_FALSE(plan.baseline_failed);
  EXPECT_EQ(plan.staged.base, h.base);
  std::string why;
  EXPECT_TRUE(ValidateStagedConfig(plan.staged, *h.app, &why)) << why;
  EXPECT_LE(plan.planned_seconds, plan.baseline_seconds);

  // The claimed planned time re-predicts bit-identically.
  bool failed = false;
  EXPECT_EQ(spark::PredictStagedSeconds(*h.app, h.iterations, plan.staged,
                                        h.factory(1.0), &failed),
            plan.planned_seconds);
  EXPECT_FALSE(failed);

  // And the staged run really beats the flat run on the quiet model.
  spark::AppRunResult flat = h.model.Run(*h.app, h.data, h.env, h.base);
  spark::AppRunResult staged =
      h.model.RunStaged(*h.app, h.data, h.env, plan.staged);
  EXPECT_FALSE(staged.failed);
  EXPECT_LE(staged.total_seconds, flat.total_seconds * (1.0 + 1e-9));
}

TEST(StagePlannerTest, RetuneEmptyObservationsIsVerbatim) {
  PlannerHarness h;
  spark::StagePlanner planner;
  spark::StagePlan plan =
      planner.Plan(*h.app, h.iterations, h.base, h.factory(1.0));
  ASSERT_TRUE(plan.ok);
  spark::RetuneResult ret =
      planner.Retune(*h.app, h.iterations, plan.staged, {}, h.factory);
  ASSERT_TRUE(ret.ok);
  EXPECT_EQ(ret.correction, 1.0);
  EXPECT_EQ(ret.frontier, 0u);
  EXPECT_EQ(ret.staged.base, plan.staged.base);
  ASSERT_EQ(ret.staged.overrides.size(), plan.staged.overrides.size());
}

TEST(StagePlannerTest, RetuneIsInertOnMatchingObservations) {
  PlannerHarness h;
  spark::StagePlanner planner;
  spark::StagePlan plan =
      planner.Plan(*h.app, h.iterations, h.base, h.factory(1.0));
  ASSERT_TRUE(plan.ok);
  const size_t cut = (h.app->stages.size() + 1) / 2;
  std::vector<StageEvent> observed = h.ObserveStagesBelow(plan.staged, cut);
  ASSERT_FALSE(observed.empty());

  spark::RetuneResult ret =
      planner.Retune(*h.app, h.iterations, plan.staged, observed, h.factory);
  ASSERT_TRUE(ret.ok);
  EXPECT_EQ(ret.correction, 1.0);  // x/x == 1.0, exactly.
  EXPECT_EQ(ret.frontier, cut);
  ASSERT_EQ(ret.staged.overrides.size(), plan.staged.overrides.size());
  for (size_t i = 0; i < ret.staged.overrides.size(); ++i) {
    EXPECT_EQ(ret.staged.overrides[i].stage_index,
              plan.staged.overrides[i].stage_index);
    EXPECT_EQ(ret.staged.overrides[i].knob, plan.staged.overrides[i].knob);
    EXPECT_EQ(ret.staged.overrides[i].value, plan.staged.overrides[i].value);
  }
}

TEST(StagePlannerTest, RetuneRespondsToSlowObservations) {
  PlannerHarness h;
  spark::StagePlanner planner;
  spark::StagePlan plan =
      planner.Plan(*h.app, h.iterations, h.base, h.factory(1.0));
  ASSERT_TRUE(plan.ok);
  const size_t cut = (h.app->stages.size() + 1) / 2;
  std::vector<StageEvent> observed = h.ObserveStagesBelow(plan.staged, cut);
  ASSERT_FALSE(observed.empty());
  for (StageEvent& e : observed) e.seconds *= 3.0;

  spark::RetuneResult ret =
      planner.Retune(*h.app, h.iterations, plan.staged, observed, h.factory);
  ASSERT_TRUE(ret.ok);
  EXPECT_GT(ret.correction, 1.0);
  EXPECT_LE(ret.correction, 4.0);  // the clamp ceiling.
  std::string why;
  EXPECT_TRUE(ValidateStagedConfig(ret.staged, *h.app, &why)) << why;
  // Kept prefix untouched.
  for (const StageKnobOverride& o : ret.staged.overrides) {
    if (o.stage_index >= cut) continue;
    bool found = false;
    for (const StageKnobOverride& p : plan.staged.overrides) {
      found = found || (p.stage_index == o.stage_index && p.knob == o.knob &&
                        p.value == o.value);
    }
    EXPECT_TRUE(found) << "re-tune rewrote the already-run stage "
                       << o.stage_index;
  }
}

TEST(StagePlannerTest, CorrectionWindowUsesNewestEvents) {
  PlannerHarness h;
  spark::StagePlanner planner;
  // Synthetic observation list longer than the window: old events carry an
  // absurd slowdown, the newest kObservationWindow match predictions — the
  // correction must ignore the stale ones entirely.
  spark::StagePlan plan =
      planner.Plan(*h.app, h.iterations, h.base, h.factory(1.0));
  ASSERT_TRUE(plan.ok);
  std::vector<StageEvent> observed =
      h.ObserveStagesBelow(plan.staged, h.app->stages.size());
  ASSERT_GT(observed.size(), spark::StagePlanner::kObservationWindow);
  std::vector<StageEvent> padded = observed;
  for (size_t i = 0;
       i + spark::StagePlanner::kObservationWindow < padded.size(); ++i) {
    padded[i].seconds *= 100.0;
  }
  spark::RetuneResult ret =
      planner.Retune(*h.app, h.iterations, plan.staged, padded, h.factory);
  ASSERT_TRUE(ret.ok);
  EXPECT_EQ(ret.correction, 1.0);
}

// --- Oracle invariants catch the mutant catalog ---------------------------

TEST(StageTuningOracleTest, CleanPlannerPassesMutantsTrip) {
  testkit::TupleGenerator gen(testkit::GenOptions{},
                              testkit::SeedFromEnv() ^ 0x57a6eu);
  std::vector<testkit::WorkloadTuple> tuples;
  for (int i = 0; i < 8; ++i) tuples.push_back(gen.Next());

  for (int m = 0; m < spark::kNumStageMutations; ++m) {
    testkit::OracleOptions oopts;
    oopts.stage_mutation = m;
    testkit::SimulatorOracle oracle(spark::CostModelOptions{}, oopts);
    size_t violations = 0;
    for (const auto& t : tuples) {
      testkit::OracleReport report;
      oracle.CheckStageOverrideDominance(t, &report);
      oracle.CheckRetuneInertness(t, &report);
      violations += report.violations.size();
    }
    if (m == spark::kStageMutNone) {
      EXPECT_EQ(violations, 0u) << "clean planner tripped the oracle";
    } else {
      EXPECT_GT(violations, 0u) << "stage mutation " << m << " escaped";
    }
  }
}

// --- LiteSystem + snapshot integration ------------------------------------

struct TrainedFixture {
  spark::SparkRunner runner;
  std::unique_ptr<LiteSystem> system;
  const spark::ApplicationSpec* app;
  spark::DataSpec data;
  spark::ClusterEnv env;

  static TrainedFixture& Get() {
    static TrainedFixture* f = [] {
      auto* fx = new TrainedFixture();
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
      opts.stage_head_train.epochs = 2;
      fx->system = std::make_unique<LiteSystem>(&fx->runner, opts);
      fx->system->TrainOffline();
      fx->app = App("TS");
      fx->data = fx->app->MakeData(fx->app->test_size_mb);
      fx->env = spark::ClusterEnv::ClusterA();
      return fx;
    }();
    return *f;
  }
};

TEST(LiteSystemStageTest, TrainingFitsAHeadAndPlansDominate) {
  TrainedFixture& fx = TrainedFixture::Get();
  ASSERT_NE(fx.system->stage_head(), nullptr);

  LiteSystem::StagedRecommendation sr =
      fx.system->RecommendStaged(*fx.app, fx.data, fx.env);
  ASSERT_TRUE(sr.planned);
  EXPECT_EQ(sr.staged.base, sr.base.config);
  std::string why;
  EXPECT_TRUE(ValidateStagedConfig(sr.staged, *fx.app, &why)) << why;
  // Under the head's own predictions, per-stage never loses to app-level.
  EXPECT_LE(sr.planned_seconds, sr.baseline_seconds);
}

TEST(LiteSystemStageTest, RetuneStagedHonoursObservations) {
  TrainedFixture& fx = TrainedFixture::Get();
  LiteSystem::StagedRecommendation sr =
      fx.system->RecommendStaged(*fx.app, fx.data, fx.env);
  ASSERT_TRUE(sr.planned);

  // Observe the first stage from the simulator and re-tune: whatever the
  // correction, the result must be valid and keep the base config.
  spark::AppRunResult run =
      fx.runner.cost_model().RunStaged(*fx.app, fx.data, fx.env, sr.staged);
  std::vector<StageEvent> observed;
  for (const auto& r : run.stage_runs) {
    if (r.stage_index != 0) continue;
    StageEvent e;
    e.stage_index = r.stage_index;
    e.iteration = r.iteration;
    e.seconds = r.seconds;
    observed.push_back(e);
  }
  ASSERT_FALSE(observed.empty());
  spark::RetuneResult ret =
      fx.system->RetuneStaged(*fx.app, fx.data, fx.env, sr.staged, observed);
  ASSERT_TRUE(ret.ok);
  EXPECT_GE(ret.correction, 0.25);
  EXPECT_LE(ret.correction, 4.0);
  EXPECT_EQ(ret.frontier, 1u);
  EXPECT_EQ(ret.staged.base, sr.staged.base);
  std::string why;
  EXPECT_TRUE(ValidateStagedConfig(ret.staged, *fx.app, &why)) << why;
}

TEST(LiteSystemStageTest, DisabledByDefaultHasNoHead) {
  spark::SparkRunner runner;
  LiteOptions opts;
  opts.corpus.apps = {"TS"};
  opts.corpus.clusters = {spark::ClusterEnv::ClusterA()};
  opts.corpus.configs_per_setting = 1;
  opts.corpus.max_stage_instances_per_run = 3;
  opts.corpus.max_code_tokens = 32;
  opts.necs.emb_dim = 4;
  opts.necs.cnn_widths = {3};
  opts.necs.cnn_kernels = 4;
  opts.necs.code_dim = 8;
  opts.necs.gcn_hidden = 8;
  opts.train.epochs = 1;
  opts.num_candidates = 4;
  opts.ensemble_size = 1;
  ASSERT_FALSE(opts.stage_tuning) << "stage tuning must default to off";
  LiteSystem system(&runner, opts);
  system.TrainOffline();
  EXPECT_EQ(system.stage_head(), nullptr);
  LiteSystem::StagedRecommendation sr =
      system.RecommendStaged(*App("TS"), App("TS")->MakeData(10.0),
                             spark::ClusterEnv::ClusterA());
  EXPECT_FALSE(sr.planned);
  EXPECT_TRUE(sr.staged.overrides.empty());
}

TEST(SnapshotStageTest, HeadRoundTripsAndClonePlansIdentically) {
  TrainedFixture& fx = TrainedFixture::Get();
  testkit::ScopedTempDir tmp("stage_tuning_snapshot");
  ASSERT_TRUE(SaveSnapshot(*fx.system, tmp.path()));
  auto loaded = LoadedLiteModel::Load(tmp.path(), &fx.runner);
  ASSERT_NE(loaded, nullptr);
  ASSERT_NE(loaded->stage_head(), nullptr);

  // The restored head plans bit-identically to the in-memory system.
  LiteSystem::StagedRecommendation want =
      fx.system->RecommendStaged(*fx.app, fx.data, fx.env);
  ASSERT_TRUE(want.planned);
  spark::StagePlan got = loaded->PlanStages(*fx.app, fx.data, fx.env,
                                            want.base.config, {});
  ASSERT_TRUE(got.ok);
  EXPECT_EQ(got.planned_seconds, want.planned_seconds);
  EXPECT_EQ(got.baseline_seconds, want.baseline_seconds);
  ASSERT_EQ(got.staged.overrides.size(), want.staged.overrides.size());
  for (size_t i = 0; i < got.staged.overrides.size(); ++i) {
    EXPECT_EQ(got.staged.overrides[i].stage_index,
              want.staged.overrides[i].stage_index);
    EXPECT_EQ(got.staged.overrides[i].knob, want.staged.overrides[i].knob);
    EXPECT_EQ(got.staged.overrides[i].value, want.staged.overrides[i].value);
  }

  // Clone carries the head and plans the same.
  auto clone = loaded->Clone();
  ASSERT_NE(clone, nullptr);
  ASSERT_NE(clone->stage_head(), nullptr);
  spark::StagePlan cloned = clone->PlanStages(*fx.app, fx.data, fx.env,
                                              want.base.config, {});
  EXPECT_EQ(cloned.planned_seconds, got.planned_seconds);
}

// --- Serving endpoints ----------------------------------------------------

struct ServiceFixture {
  TrainedFixture* base = &TrainedFixture::Get();
  testkit::ScopedTempDir tmp{"stage_tuning_service_snapshot"};
  const std::string& dir = tmp.path();

  ServiceFixture() { EXPECT_TRUE(SaveSnapshot(*base->system, dir)); }
};

TEST(ServiceStageTest, DisabledFeatureDegradesAndRejects) {
  ServiceFixture fx;
  serve::TuningService service(&fx.base->runner, {});
  ASSERT_TRUE(service.LoadSnapshot(fx.dir));
  int session = service.OpenSession("tenant-a");

  serve::TuningService::StagedResponse sr = service.RecommendStaged(
      session, *fx.base->app, fx.base->data, fx.base->env);
  ASSERT_TRUE(sr.base.ok);
  EXPECT_FALSE(sr.stage_tuned);
  EXPECT_EQ(sr.staged.base, sr.base.rec.config);
  EXPECT_TRUE(sr.staged.overrides.empty());

  serve::TuningService::RetuneResponse rr = service.Retune(
      session, *fx.base->app, fx.base->data, fx.base->env,
      {sr.base.rec.config, {}}, std::vector<StageEvent>{});
  EXPECT_FALSE(rr.ok);
  EXPECT_NE(rr.error.find("disabled"), std::string::npos) << rr.error;
}

TEST(ServiceStageTest, EnabledPlansAndRetunesWithStats) {
  ServiceFixture fx;
  serve::ServiceOptions opts;
  opts.stage_tuning.enabled = true;
  serve::TuningService service(&fx.base->runner, opts);
  ASSERT_TRUE(service.LoadSnapshot(fx.dir));
  int session = service.OpenSession("tenant-b");

  serve::TuningService::StagedResponse sr = service.RecommendStaged(
      session, *fx.base->app, fx.base->data, fx.base->env);
  ASSERT_TRUE(sr.base.ok) << sr.base.error;
  ASSERT_TRUE(sr.stage_tuned);
  std::string why;
  EXPECT_TRUE(ValidateStagedConfig(sr.staged, *fx.base->app, &why)) << why;
  EXPECT_LE(sr.planned_seconds, sr.baseline_seconds);
  EXPECT_EQ(service.stats().stage_plans, 1u);

  // Re-tune from a genuine event log of the staged run.
  spark::SparkRunner& runner = fx.base->runner;
  spark::AppRunResult run = runner.cost_model().RunStaged(
      *fx.base->app, fx.base->data, fx.base->env, sr.staged);
  std::string event_log = spark::WriteEventLog(*fx.base->app, run);
  serve::TuningService::RetuneResponse rr =
      service.Retune(session, *fx.base->app, fx.base->data, fx.base->env,
                     sr.staged, event_log);
  ASSERT_TRUE(rr.ok) << rr.error;
  EXPECT_GE(rr.correction, 0.25);
  EXPECT_LE(rr.correction, 4.0);
  EXPECT_EQ(rr.frontier, fx.base->app->stages.size());
  EXPECT_TRUE(ValidateStagedConfig(rr.staged, *fx.base->app, &why)) << why;
  EXPECT_EQ(service.stats().retunes, 1u);

  // Unknown session and malformed log reject cleanly.
  serve::TuningService::RetuneResponse bad_session =
      service.Retune(9999, *fx.base->app, fx.base->data, fx.base->env,
                     sr.staged, event_log);
  EXPECT_FALSE(bad_session.ok);
  serve::TuningService::RetuneResponse bad_log =
      service.Retune(session, *fx.base->app, fx.base->data, fx.base->env,
                     sr.staged, std::string("nonsense"));
  EXPECT_FALSE(bad_log.ok);
  EXPECT_NE(bad_log.error.find("malformed"), std::string::npos)
      << bad_log.error;
  EXPECT_EQ(service.stats().retunes, 1u);  // rejects never count.
}

TEST(ServiceStageTest, HeadlessSnapshotRejectsRetune) {
  TrainedFixture& base = TrainedFixture::Get();
  // A snapshot without a stage head: train-free trick — save, strip the
  // meta flag by re-saving a headless system is costly, so instead load
  // the service with stage tuning enabled but point it at a snapshot whose
  // system never trained a head.
  spark::SparkRunner runner;
  LiteOptions opts;
  opts.corpus.apps = {"TS"};
  opts.corpus.clusters = {spark::ClusterEnv::ClusterA()};
  opts.corpus.configs_per_setting = 1;
  opts.corpus.max_stage_instances_per_run = 3;
  opts.corpus.max_code_tokens = 32;
  opts.necs.emb_dim = 4;
  opts.necs.cnn_widths = {3};
  opts.necs.cnn_kernels = 4;
  opts.necs.code_dim = 8;
  opts.necs.gcn_hidden = 8;
  opts.train.epochs = 1;
  opts.num_candidates = 4;
  opts.ensemble_size = 1;
  LiteSystem headless(&runner, opts);
  headless.TrainOffline();
  testkit::ScopedTempDir tmp("stage_tuning_headless_snapshot");
  const std::string& dir = tmp.path();
  ASSERT_TRUE(SaveSnapshot(headless, dir));

  serve::ServiceOptions sopts;
  sopts.stage_tuning.enabled = true;
  serve::TuningService service(&runner, sopts);
  ASSERT_TRUE(service.LoadSnapshot(dir));
  int session = service.OpenSession("tenant-c");

  // RecommendStaged degrades to the plain response.
  serve::TuningService::StagedResponse sr =
      service.RecommendStaged(session, *base.app, base.data, base.env);
  EXPECT_TRUE(sr.base.ok);
  EXPECT_FALSE(sr.stage_tuned);

  serve::TuningService::RetuneResponse rr = service.Retune(
      session, *base.app, base.data, base.env,
      {KnobSpace::Spark16().DefaultConfig(), {}}, std::vector<StageEvent>{});
  EXPECT_FALSE(rr.ok);
  EXPECT_NE(rr.error.find("stage head"), std::string::npos) << rr.error;
}

TEST(ServiceStageTest, InvalidValuesPerKnobRejectedAtConstruction) {
  serve::ServiceOptions opts;
  opts.stage_tuning.enabled = true;
  opts.stage_tuning.values_per_knob = 1;  // a 1-point grid cannot search.
  EXPECT_FALSE(serve::ValidateServiceOptions(opts).empty());
  opts.stage_tuning.values_per_knob = 5;
  EXPECT_TRUE(serve::ValidateServiceOptions(opts).empty())
      << serve::ValidateServiceOptions(opts);
}

}  // namespace
}  // namespace lite
