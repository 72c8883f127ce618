// Guardrail suite: the serve::Guardrail state machine, its determinism
// contract, knob-importance pruning helpers, and the guardrail-enabled
// TuningService end to end (quarantine engagement on a feedback-regression
// storm, incumbent fallback, half-open recovery, SLA deadlines,
// exploration budgets, and the `guardrail_transparency` differential).
//
// Determinism: every replayed sequence derives its seed from
// testkit::SeedFromEnv, so a failure is reproducible with
// LITE_TEST_SEED=<seed> ./build/tests/guardrail_test.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "lite/lite_system.h"
#include "lite/snapshot.h"
#include "obs/metrics.h"
#include "serve/guardrail.h"
#include "serve/tuning_service.h"
#include "sparksim/runner.h"
#include "testkit/diff.h"
#include "testkit/gen.h"
#include "testkit/temp_dir.h"
#include "util/rng.h"

namespace lite {
namespace {

using serve::BreakerState;
using serve::GuardDecision;
using serve::Guardrail;
using serve::GuardrailOptions;
using serve::GuardTransition;
using serve::TenantPolicy;

GuardrailOptions SmallOptions(uint64_t seed = 41) {
  GuardrailOptions o;
  o.enabled = true;
  o.window = 8;
  o.min_observations = 4;
  o.failure_rate_threshold = 0.5;
  o.regression_ratio_threshold = 2.0;
  o.quarantine_cooldown = 3;
  o.probe_interval = 2;
  o.probes_to_close = 2;
  o.seed = seed;
  return o;
}

spark::Config MakeConfig(double fill) {
  return spark::Config(spark::kNumKnobs, fill);
}

// --- Options / policy validation -----------------------------------------

TEST(GuardrailValidationTest, DefaultOptionsAreValid) {
  EXPECT_EQ(serve::ValidateGuardrailOptions(GuardrailOptions{}), "");
  EXPECT_EQ(serve::ValidateTenantPolicy(TenantPolicy{}), "");
}

TEST(GuardrailValidationTest, RejectsNaNAndOutOfRangeThresholds) {
  GuardrailOptions o = SmallOptions();
  o.failure_rate_threshold = std::nan("");
  EXPECT_NE(serve::ValidateGuardrailOptions(o), "");
  o = SmallOptions();
  o.failure_rate_threshold = 1.5;
  EXPECT_NE(serve::ValidateGuardrailOptions(o), "");
  o = SmallOptions();
  o.regression_ratio_threshold = 0.5;  // would trip on *improvements*.
  EXPECT_NE(serve::ValidateGuardrailOptions(o), "");
  o = SmallOptions();
  o.window = 0;
  EXPECT_NE(serve::ValidateGuardrailOptions(o), "");
  o = SmallOptions();
  o.min_observations = o.window + 1;
  EXPECT_NE(serve::ValidateGuardrailOptions(o), "");
  o = SmallOptions();
  o.probe_interval = 0;
  EXPECT_NE(serve::ValidateGuardrailOptions(o), "");
  o = SmallOptions();
  o.importance_keep_fraction = 0.0;
  EXPECT_NE(serve::ValidateGuardrailOptions(o), "");
}

TEST(GuardrailValidationTest, SetTenantPolicyThrowsOnInvalidPolicy) {
  Guardrail guard(SmallOptions());
  TenantPolicy nan_deadline;
  nan_deadline.sla_deadline_seconds = std::nan("");
  EXPECT_THROW(guard.SetTenantPolicy("t", nan_deadline),
               std::invalid_argument);
  TenantPolicy bad_budget;
  bad_budget.exploration_fraction = 1.5;
  EXPECT_THROW(guard.SetTenantPolicy("t", bad_budget), std::invalid_argument);
  TenantPolicy fine;
  fine.sla_deadline_seconds = 120.0;
  fine.exploration_fraction = 0.25;
  EXPECT_NO_THROW(guard.SetTenantPolicy("t", fine));
  EXPECT_DOUBLE_EQ(guard.PolicyOf("t").sla_deadline_seconds, 120.0);
}

// --- Incumbent tracking ---------------------------------------------------

TEST(GuardrailStateTest, IncumbentTracksBestHealthyObservation) {
  Guardrail guard(SmallOptions());
  EXPECT_FALSE(guard.HasIncumbent("t"));

  guard.Observe("t", MakeConfig(1.0), 50.0, false, false);
  double seconds = 0.0;
  EXPECT_TRUE(guard.HasIncumbent("t"));
  EXPECT_EQ(guard.IncumbentOf("t", &seconds), MakeConfig(1.0));
  EXPECT_DOUBLE_EQ(seconds, 50.0);

  // A faster healthy run takes over; slower ones do not.
  guard.Observe("t", MakeConfig(2.0), 30.0, false, false);
  EXPECT_EQ(guard.IncumbentOf("t", &seconds), MakeConfig(2.0));
  EXPECT_DOUBLE_EQ(seconds, 30.0);
  guard.Observe("t", MakeConfig(3.0), 40.0, false, false);
  EXPECT_EQ(guard.IncumbentOf("t", &seconds), MakeConfig(2.0));

  // Censored and failed runs never become the baseline, however fast the
  // cap value claims to be.
  guard.Observe("t", MakeConfig(4.0), 1.0, false, true);
  guard.Observe("t", MakeConfig(5.0), 1.0, true, false);
  EXPECT_EQ(guard.IncumbentOf("t", &seconds), MakeConfig(2.0));
}

// --- Detector trips -------------------------------------------------------

TEST(GuardrailStateTest, FailureRateTripsBreaker) {
  Guardrail guard(SmallOptions());
  guard.Observe("t", MakeConfig(1.0), 30.0, false, false);  // incumbent.
  EXPECT_EQ(guard.StateOf("t"), BreakerState::kClosed);
  // Three bad observations out of four reaches the 0.5 threshold at
  // min_observations = 4.
  guard.Observe("t", MakeConfig(2.0), 300.0, true, false);
  guard.Observe("t", MakeConfig(2.0), 300.0, false, true);
  EXPECT_EQ(guard.StateOf("t"), BreakerState::kClosed);  // 3 obs < min.
  guard.Observe("t", MakeConfig(2.0), 300.0, true, false);
  EXPECT_EQ(guard.StateOf("t"), BreakerState::kQuarantined);
  EXPECT_EQ(guard.stats().trips, 1u);
  EXPECT_EQ(guard.TenantsIn(BreakerState::kQuarantined), 1u);
}

TEST(GuardrailStateTest, RuntimeRegressionTripsBreaker) {
  Guardrail guard(SmallOptions());
  guard.Observe("t", MakeConfig(1.0), 10.0, false, false);  // incumbent @10s.
  // Healthy but 3x slower than the incumbent: mean ratio crosses 2.0 once
  // enough evidence accumulates.
  for (int i = 0; i < 3; ++i) {
    guard.Observe("t", MakeConfig(2.0), 30.0, false, false);
  }
  EXPECT_EQ(guard.StateOf("t"), BreakerState::kQuarantined);
  const std::vector<GuardTransition> log = guard.TransitionLog();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].tenant, "t");
  EXPECT_EQ(log[0].from, BreakerState::kClosed);
  EXPECT_EQ(log[0].to, BreakerState::kQuarantined);
  EXPECT_NE(log[0].reason.find("regression"), std::string::npos);
}

TEST(GuardrailStateTest, NoTripWithoutIncumbent) {
  Guardrail guard(SmallOptions());
  // All-bad feedback, but no baseline to fall back to: the breaker must
  // stay closed (quarantine without an incumbent would serve nothing).
  for (int i = 0; i < 8; ++i) {
    guard.Observe("t", MakeConfig(2.0), 300.0, true, false);
  }
  EXPECT_EQ(guard.StateOf("t"), BreakerState::kClosed);
}

// --- Quarantine serving, cooldown, probing, recovery ----------------------

TEST(GuardrailStateTest, QuarantineServesIncumbentThenHalfOpensAndRecovers) {
  GuardrailOptions opts = SmallOptions();
  Guardrail guard(opts);
  guard.Observe("t", MakeConfig(1.0), 10.0, false, false);
  for (int i = 0; i < 3; ++i) {
    guard.Observe("t", MakeConfig(2.0), 300.0, true, false);
  }
  ASSERT_EQ(guard.StateOf("t"), BreakerState::kQuarantined);

  // Cooldown: quarantine_cooldown incumbent serves, then half-open.
  for (size_t i = 0; i < opts.quarantine_cooldown; ++i) {
    GuardDecision d = guard.Admit("t");
    EXPECT_FALSE(d.use_model);
    EXPECT_EQ(d.incumbent, MakeConfig(1.0));
    EXPECT_DOUBLE_EQ(d.incumbent_seconds, 10.0);
  }
  EXPECT_EQ(guard.StateOf("t"), BreakerState::kProbing);

  // Probing cadence: with probe_interval = 2, admissions alternate
  // incumbent / probe.
  GuardDecision first = guard.Admit("t");
  EXPECT_FALSE(first.use_model);
  GuardDecision probe = guard.Admit("t");
  EXPECT_TRUE(probe.use_model);
  EXPECT_TRUE(probe.probe);

  // Healthy probe feedback (a non-incumbent config, good runtime) counts
  // toward closing; probes_to_close = 2 closes the breaker.
  guard.Observe("t", MakeConfig(7.0), 11.0, false, false);
  EXPECT_EQ(guard.StateOf("t"), BreakerState::kProbing);
  guard.Observe("t", MakeConfig(7.0), 11.0, false, false);
  EXPECT_EQ(guard.StateOf("t"), BreakerState::kClosed);
  EXPECT_EQ(guard.stats().recoveries, 1u);
  // Incumbent feedback inside PROBING is not probe feedback.
}

TEST(GuardrailStateTest, ProbeThatBeatsIncumbentStillCounts) {
  // Regression guard: a probe that *improves on* the incumbent becomes the
  // new incumbent inside the same Observe call. It must still be classified
  // as probe feedback (pre-update view) — otherwise the strongest possible
  // health evidence is swallowed and the tenant never recovers.
  Guardrail guard(SmallOptions());
  guard.Observe("t", MakeConfig(1.0), 10.0, false, false);
  for (int i = 0; i < 3; ++i) {
    guard.Observe("t", MakeConfig(2.0), 300.0, true, false);
  }
  for (int i = 0; i < 3; ++i) guard.Admit("t");  // cooldown -> PROBING.
  ASSERT_EQ(guard.StateOf("t"), BreakerState::kProbing);

  // Both probes beat the 10.0 s baseline, so each updates the incumbent.
  guard.Observe("t", MakeConfig(7.0), 9.0, false, false);
  EXPECT_EQ(guard.IncumbentOf("t", nullptr), MakeConfig(7.0));
  EXPECT_EQ(guard.StateOf("t"), BreakerState::kProbing);
  guard.Observe("t", MakeConfig(8.0), 8.0, false, false);
  EXPECT_EQ(guard.StateOf("t"), BreakerState::kClosed);
  EXPECT_EQ(guard.stats().recoveries, 1u);
  double seconds = 0.0;
  EXPECT_EQ(guard.IncumbentOf("t", &seconds), MakeConfig(8.0));
  EXPECT_DOUBLE_EQ(seconds, 8.0);
}

TEST(GuardrailStateTest, ConvergedModelProbesWithIncumbentConfig) {
  // A model that has converged on the incumbent probes with the incumbent
  // config itself. With an outstanding probe decision that feedback must
  // count toward closing; without one, incumbent feedback stays inert.
  GuardrailOptions opts = SmallOptions();
  Guardrail guard(opts);
  guard.Observe("t", MakeConfig(1.0), 10.0, false, false);
  for (int i = 0; i < 3; ++i) {
    guard.Observe("t", MakeConfig(2.0), 300.0, true, false);
  }
  for (int i = 0; i < 3; ++i) guard.Admit("t");  // cooldown -> PROBING.
  ASSERT_EQ(guard.StateOf("t"), BreakerState::kProbing);

  // No probe outstanding: incumbent feedback is not probe evidence.
  guard.Observe("t", MakeConfig(1.0), 10.0, false, false);
  EXPECT_EQ(guard.StateOf("t"), BreakerState::kProbing);

  for (size_t closed = 0; closed < opts.probes_to_close; ++closed) {
    // Drive admissions until a probe decision goes out, then answer it
    // with healthy feedback for the incumbent config.
    GuardDecision d;
    do {
      d = guard.Admit("t");
    } while (!d.probe);
    guard.Observe("t", MakeConfig(1.0), 10.0, false, false);
  }
  EXPECT_EQ(guard.StateOf("t"), BreakerState::kClosed);
  EXPECT_EQ(guard.stats().recoveries, 1u);
}

TEST(GuardrailStateTest, BadProbeReQuarantines) {
  Guardrail guard(SmallOptions());
  guard.Observe("t", MakeConfig(1.0), 10.0, false, false);
  for (int i = 0; i < 3; ++i) {
    guard.Observe("t", MakeConfig(2.0), 300.0, true, false);
  }
  for (int i = 0; i < 3; ++i) guard.Admit("t");  // cooldown -> PROBING.
  ASSERT_EQ(guard.StateOf("t"), BreakerState::kProbing);

  guard.Observe("t", MakeConfig(7.0), 10.0, true, false);  // failed probe.
  EXPECT_EQ(guard.StateOf("t"), BreakerState::kQuarantined);
  EXPECT_EQ(guard.stats().trips, 2u);
}

// --- Exploration budget ---------------------------------------------------

TEST(GuardrailStateTest, ExplorationBudgetCapsModelTraffic) {
  Guardrail guard(SmallOptions());
  TenantPolicy policy;
  policy.exploration_fraction = 0.25;
  guard.SetTenantPolicy("t", policy);
  guard.Observe("t", MakeConfig(1.0), 10.0, false, false);

  size_t explored = 0;
  constexpr size_t kRequests = 400;
  for (size_t i = 0; i < kRequests; ++i) {
    if (guard.Admit("t").use_model) ++explored;
  }
  // Budgeted Bernoulli(0.25) stream: comfortably between 15% and 35%.
  EXPECT_GT(explored, kRequests / 7);
  EXPECT_LT(explored, kRequests / 2);
  EXPECT_EQ(guard.stats().exploration_suppressed, kRequests - explored);

  // Without an incumbent there is nothing to exploit: the budget cannot
  // suppress anything.
  size_t fresh_explored = 0;
  guard.SetTenantPolicy("fresh", policy);
  for (size_t i = 0; i < 10; ++i) {
    if (guard.Admit("fresh").use_model) ++fresh_explored;
  }
  EXPECT_EQ(fresh_explored, 10u);
}

// --- Determinism ----------------------------------------------------------

// Replays one seeded feedback/request storm twice over fresh guardrails and
// once with a different seed: the transition logs must match exactly for
// the same seed (and the exploration schedule must be seed-sensitive).
TEST(GuardrailDeterminismTest, SameSeedSameStreamSameTransitionLog) {
  const uint64_t seed = testkit::SeedFromEnv();

  auto run_storm = [](uint64_t guard_seed, uint64_t stream_seed) {
    Guardrail guard([&] {
      GuardrailOptions o = SmallOptions(guard_seed);
      return o;
    }());
    TenantPolicy policy;
    policy.exploration_fraction = 0.5;
    guard.SetTenantPolicy("a", policy);
    Rng stream(stream_seed);
    std::vector<std::string> decisions;
    for (int i = 0; i < 300; ++i) {
      const std::string tenant = stream.Bernoulli(0.5) ? "a" : "b";
      GuardDecision d = guard.Admit(tenant);
      decisions.push_back(tenant + (d.use_model ? ":model" : ":incumbent") +
                          (d.probe ? ":probe" : ""));
      const bool bad = stream.Bernoulli(0.3);
      const double seconds = bad ? 300.0 : 10.0 + stream.Uniform() * 5.0;
      guard.Observe(tenant, MakeConfig(bad ? 9.0 : stream.Uniform()), seconds,
                    bad, false);
    }
    return std::make_pair(guard.TransitionLog(), decisions);
  };

  auto [log1, dec1] = run_storm(seed, seed + 1);
  auto [log2, dec2] = run_storm(seed, seed + 1);

  ASSERT_EQ(log1.size(), log2.size()) << "replay with: LITE_TEST_SEED=" << seed;
  for (size_t i = 0; i < log1.size(); ++i) {
    EXPECT_EQ(log1[i].seq, log2[i].seq);
    EXPECT_EQ(log1[i].tenant, log2[i].tenant);
    EXPECT_EQ(log1[i].from, log2[i].from);
    EXPECT_EQ(log1[i].to, log2[i].to);
    EXPECT_EQ(log1[i].reason, log2[i].reason)
        << "transition " << i << " diverged; replay with: LITE_TEST_SEED="
        << seed;
  }
  EXPECT_EQ(dec1, dec2) << "replay with: LITE_TEST_SEED=" << seed;

  // The storm above quarantines at least once (30% bad feedback against a
  // 0.5 threshold over an 8-wide window is a near-certain trip across 300
  // observations) — an empty log would make this test vacuous.
  EXPECT_FALSE(log1.empty()) << "replay with: LITE_TEST_SEED=" << seed;
}

// --- Knob importance ------------------------------------------------------

TEST(KnobImportanceTest, IdentifiesTheDrivingKnob) {
  Rng rng(7);
  std::vector<spark::Config> candidates;
  std::vector<double> scores;
  for (int i = 0; i < 64; ++i) {
    spark::Config c(spark::kNumKnobs, 0.0);
    for (double& v : c) v = rng.Uniform();
    candidates.push_back(c);
    // Score is driven overwhelmingly by knob 3; every other knob only
    // contributes finite-sample binning noise.
    scores.push_back(100.0 * c[3] + 10.0);
  }
  std::vector<double> imp =
      serve::ComputeKnobImportance(candidates, scores);
  ASSERT_EQ(imp.size(), spark::kNumKnobs);
  EXPECT_DOUBLE_EQ(imp[3], 1.0);  // normalized winner.
  for (size_t k = 0; k < imp.size(); ++k) {
    if (k == 3) continue;
    EXPECT_LT(imp[k], 0.2) << "knob " << k;
  }

  std::vector<size_t> top = serve::TopImportanceKnobs(imp, 1.0 / 16.0);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0], 3u);
}

TEST(KnobImportanceTest, DegenerateInputsAreZero) {
  // Too few candidates -> all zeros (no evidence, no pruning).
  std::vector<spark::Config> few(4, MakeConfig(1.0));
  std::vector<double> few_scores(4, 10.0);
  for (double v : serve::ComputeKnobImportance(few, few_scores)) {
    EXPECT_EQ(v, 0.0);
  }
  // keep_fraction >= 1 keeps every knob in order.
  std::vector<double> imp(spark::kNumKnobs, 0.5);
  EXPECT_EQ(serve::TopImportanceKnobs(imp, 1.0).size(), spark::kNumKnobs);
  // And never fewer than one knob stays free.
  EXPECT_EQ(serve::TopImportanceKnobs(imp, 1e-9).size(), 1u);
}

// --- Service integration (trained fixture) --------------------------------

LiteOptions TinyOptions() {
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
  opts.num_candidates = 12;
  opts.ensemble_size = 1;
  return opts;
}

class GuardedServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    runner_ = new spark::SparkRunner();
    LiteSystem system(runner_, TinyOptions());
    system.TrainOffline();
    tmp_ = new testkit::ScopedTempDir("guardrail_snapshot");
    dir_ = &tmp_->path();
    ASSERT_TRUE(SaveSnapshot(system, *dir_));
  }

  static void TearDownTestSuite() {
    delete tmp_;
    delete runner_;
    tmp_ = nullptr;
    dir_ = nullptr;
    runner_ = nullptr;
  }

  static serve::ServiceOptions GuardedOptions() {
    serve::ServiceOptions sopts;
    sopts.update_batch = 0;  // keep the model frozen for determinism.
    sopts.guardrail = SmallOptions();
    return sopts;
  }

  static spark::MeasureOutcome Outcome(double seconds, bool failed,
                                       bool censored) {
    spark::MeasureOutcome o;
    o.seconds = seconds;
    o.failed = failed;
    o.censored = censored;
    return o;
  }

  static spark::SparkRunner* runner_;
  static testkit::ScopedTempDir* tmp_;
  static const std::string* dir_;
};

spark::SparkRunner* GuardedServiceTest::runner_ = nullptr;
testkit::ScopedTempDir* GuardedServiceTest::tmp_ = nullptr;
const std::string* GuardedServiceTest::dir_ = nullptr;

TEST_F(GuardedServiceTest, ServiceOptionsValidationGuardsConstruction) {
  serve::ServiceOptions bad = GuardedOptions();
  bad.guardrail.regression_ratio_threshold = std::nan("");
  EXPECT_THROW(serve::TuningService(runner_, bad), std::invalid_argument);
}

// The regression storm end to end: healthy baseline, then failed/censored
// feedback trips the breaker; quarantined requests are served the incumbent
// verbatim with zero model evaluations; cooldown half-opens; healthy probes
// recover.
TEST_F(GuardedServiceTest, RegressionStormQuarantinesAndRecovers) {
  serve::TuningService service(runner_, GuardedOptions());
  ASSERT_TRUE(service.LoadSnapshot(*dir_));
  int session = service.OpenSession("storm-tenant");
  const auto* app = spark::AppCatalog::Find("TS");
  spark::DataSpec data = app->MakeData(app->test_size_mb);
  spark::ClusterEnv env = spark::ClusterEnv::ClusterA();
  Guardrail* guard = service.guardrail();
  ASSERT_NE(guard, nullptr);

  // Establish the baseline with an honest fast run.
  spark::Config baseline = spark::KnobSpace::Spark16().DefaultConfig();
  spark::MeasureOutcome good = Outcome(12.0, false, false);
  good.result = runner_->cost_model().Run(*app, data, env, baseline);
  ASSERT_TRUE(service.SubmitFeedback(session, *app, data, env, baseline, good));
  EXPECT_TRUE(guard->HasIncumbent("storm-tenant"));
  const size_t healthy_pending = service.pending_feedback();

  // Storm: failed + censored feedback about model-chosen configs.
  spark::Config bad_config = MakeConfig(0.9);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(service.SubmitFeedback(session, *app, data, env, bad_config,
                                       Outcome(600.0, i % 2 == 0,
                                               i % 2 == 1)));
  }
  EXPECT_EQ(guard->StateOf("storm-tenant"), BreakerState::kQuarantined);
  // Bad runs never reached the update batch (poisoned-update gating).
  EXPECT_EQ(service.pending_feedback(), healthy_pending);
  EXPECT_EQ(service.stats().bad_feedback_dropped, 4u);

  // Quarantined serving: incumbent verbatim, zero candidates evaluated.
  for (int i = 0; i < 3; ++i) {
    serve::TuningService::Response r =
        service.Recommend(session, *app, data, env);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.from_incumbent);
    EXPECT_EQ(r.rec.config, baseline);
    EXPECT_DOUBLE_EQ(r.rec.predicted_seconds, 12.0);
    EXPECT_EQ(r.rec.candidates_evaluated, 0u);
  }
  // Cooldown (3 incumbent serves) elapsed: half-open.
  EXPECT_EQ(guard->StateOf("storm-tenant"), BreakerState::kProbing);

  // Probe cadence: odd ticks serve the incumbent, even ticks probe.
  serve::TuningService::Response r1 =
      service.Recommend(session, *app, data, env);
  EXPECT_TRUE(r1.from_incumbent);
  serve::TuningService::Response r2 =
      service.Recommend(session, *app, data, env);
  EXPECT_FALSE(r2.from_incumbent);
  EXPECT_TRUE(r2.probe);
  EXPECT_GT(r2.rec.candidates_evaluated, 0u);

  // Healthy probe feedback closes the breaker after probes_to_close = 2.
  ASSERT_TRUE(service.SubmitFeedback(session, *app, data, env, r2.rec.config,
                                     Outcome(13.0, false, false)));
  ASSERT_TRUE(service.SubmitFeedback(session, *app, data, env, r2.rec.config,
                                     Outcome(13.0, false, false)));
  EXPECT_EQ(guard->StateOf("storm-tenant"), BreakerState::kClosed);
  EXPECT_EQ(guard->stats().recoveries, 1u);

  // Closed again: requests flow to the model.
  serve::TuningService::Response back =
      service.Recommend(session, *app, data, env);
  ASSERT_TRUE(back.ok) << back.error;
  EXPECT_FALSE(back.from_incumbent);
  EXPECT_GT(back.rec.candidates_evaluated, 0u);
}

// SLA deadlines thread through to the pipeline argmin: an impossible
// deadline falls back to the plain argmin (never an empty answer), a
// permissive one is bitwise inert.
TEST_F(GuardedServiceTest, TenantSlaDeadlineFiltersCandidates) {
  serve::TuningService service(runner_, GuardedOptions());
  ASSERT_TRUE(service.LoadSnapshot(*dir_));
  const auto* app = spark::AppCatalog::Find("PR");
  spark::DataSpec data = app->MakeData(app->test_size_mb);
  spark::ClusterEnv env = spark::ClusterEnv::ClusterA();

  int session = service.OpenSession("sla-tenant");
  serve::TuningService::Response plain =
      service.Recommend(session, *app, data, env);
  ASSERT_TRUE(plain.ok) << plain.error;

  // A deadline below every candidate's prediction: infeasible, served the
  // fastest predicted candidate — exactly the plain argmin winner.
  TenantPolicy strict;
  strict.sla_deadline_seconds = plain.rec.predicted_seconds * 0.5;
  service.SetTenantPolicy("sla-tenant", strict);
  serve::TuningService::Response strict_r =
      service.Recommend(session, *app, data, env);
  ASSERT_TRUE(strict_r.ok) << strict_r.error;
  EXPECT_EQ(strict_r.rec.config, plain.rec.config);
  EXPECT_EQ(strict_r.rec.predicted_seconds, plain.rec.predicted_seconds);

  // A deadline above every prediction is bitwise inert.
  TenantPolicy loose;
  loose.sla_deadline_seconds = plain.rec.predicted_seconds * 1e6;
  service.SetTenantPolicy("sla-tenant", loose);
  serve::TuningService::Response loose_r =
      service.Recommend(session, *app, data, env);
  ASSERT_TRUE(loose_r.ok) << loose_r.error;
  EXPECT_EQ(loose_r.rec.config, plain.rec.config);
  EXPECT_EQ(loose_r.rec.predicted_seconds, plain.rec.predicted_seconds);
}

// The `guardrail_transparency` invariant: guardrails-off must be
// bit-identical to guardrails-enabled-but-never-tripped.
TEST_F(GuardedServiceTest, GuardrailTransparencyDifferential) {
  const auto* app = spark::AppCatalog::Find("TS");
  testkit::WorkloadTuple t;
  t.app = app;
  t.data = app->MakeData(app->test_size_mb);
  t.env = spark::ClusterEnv::ClusterA();
  t.config = spark::KnobSpace::Spark16().DefaultConfig();
  testkit::DiffResult result =
      testkit::DiffGuardrailTransparency(*runner_, t, *dir_);
  EXPECT_TRUE(result.ok) << "guardrail_transparency: " << result.message;
}

// Knob-importance pruning for a stable tenant shrinks the scored pool and
// keeps serving valid recommendations.
TEST_F(GuardedServiceTest, StableTenantPrunesKnobs) {
  serve::ServiceOptions sopts = GuardedOptions();
  sopts.guardrail.prune_knobs = true;
  sopts.guardrail.importance_keep_fraction = 0.25;
  sopts.guardrail.importance_sample = 16;
  serve::TuningService service(runner_, sopts);
  ASSERT_TRUE(service.LoadSnapshot(*dir_));
  int session = service.OpenSession("stable-tenant");
  const auto* app = spark::AppCatalog::Find("TS");
  spark::DataSpec data = app->MakeData(app->test_size_mb);
  spark::ClusterEnv env = spark::ClusterEnv::ClusterA();

  serve::TuningService::Response before =
      service.Recommend(session, *app, data, env);
  ASSERT_TRUE(before.ok) << before.error;

  // Make the tenant stable: incumbent + a full healthy window.
  spark::Config baseline = spark::KnobSpace::Spark16().DefaultConfig();
  ASSERT_TRUE(service.SubmitFeedback(session, *app, data, env, baseline,
                                     Outcome(12.0, false, false)));
  for (size_t i = 0; i < sopts.guardrail.window; ++i) {
    ASSERT_TRUE(service.SubmitFeedback(session, *app, data, env, baseline,
                                       Outcome(12.5, false, false)));
  }
  ASSERT_EQ(service.guardrail()->StateOf("stable-tenant"),
            BreakerState::kClosed);

  uint64_t pinned_before = obs::MetricsRegistry::Global()
                               .GetCounter("lite_candidates_pinned_total")
                               ->Value();
  serve::TuningService::Response pruned =
      service.Recommend(session, *app, data, env);
  ASSERT_TRUE(pruned.ok) << pruned.error;
  EXPECT_FALSE(pruned.from_incumbent);
  // Pruning engaged: every sampled candidate had its low-importance knobs
  // pinned, and the importance vector is cached for the family.
  EXPECT_GT(obs::MetricsRegistry::Global()
                .GetCounter("lite_candidates_pinned_total")
                ->Value(),
            pinned_before);
  EXPECT_NE(service.guardrail()->ImportanceFor(app->name, /*generation=*/1),
            nullptr);
  // Pinning can only collapse the deduped pool, never grow it.
  EXPECT_GT(pruned.rec.candidates_evaluated, 0u);
  EXPECT_LE(pruned.rec.candidates_evaluated, before.rec.candidates_evaluated);
  // The free knobs still vary, so the answer remains a real configuration.
  EXPECT_EQ(pruned.rec.config.size(), spark::kNumKnobs);
}

}  // namespace
}  // namespace lite
