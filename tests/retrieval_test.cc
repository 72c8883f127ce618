// Retrieval-cache suite: the serve::RetrievalCache (warm-start index +
// memoized responses), its invalidation contract, and the retrieval-enabled
// TuningService end to end.
//
// The three oracle invariants from docs/RETRIEVAL.md:
//   (a) no memo hit is ever served from a snapshot generation older than
//       the live one (hot-swap flushes *before* publication);
//   (b) a quarantined tenant never receives a cached entry (guardrail
//       Admit() precedes every memo lookup; quarantine flushes the tenant);
//   (c) warm-start seeding never worsens the argmin (the seeded candidate
//       pool is a superset of the unseeded one).
//
// DiffRetrievalTransparency is the drift guard: cache-disabled vs
// enabled-but-cold is bit-identical across scoring thread counts, and a
// memo hit replays the first response verbatim.
//
// Determinism: replayed sequences derive their seed from
// testkit::SeedFromEnv, so a failure is reproducible with
// LITE_TEST_SEED=<seed> ./build/tests/retrieval_test.
// ConcurrentClientsSwapsAndFeedbackWithRetrieval is part of the TSan CI job.
#include <gtest/gtest.h>

#include <future>
#include <string>
#include <thread>
#include <vector>

#include "lite/lite_system.h"
#include "lite/snapshot.h"
#include "obs/metrics.h"
#include "serve/recommend_pipeline.h"
#include "serve/retrieval_cache.h"
#include "serve/tuning_service.h"
#include "sparksim/runner.h"
#include "testkit/diff.h"
#include "testkit/gen.h"
#include "testkit/temp_dir.h"
#include "util/rng.h"

namespace lite {
namespace {

using serve::BreakerState;
using serve::CacheEvent;
using serve::CacheEventType;
using serve::RetrievalCache;
using serve::RetrievalCacheOptions;

spark::Config MakeConfig(double fill) {
  return spark::Config(spark::kNumKnobs, fill);
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

RetrievalCacheOptions SmallCacheOptions() {
  RetrievalCacheOptions o;
  o.enabled = true;
  o.top_k_seeds = 2;
  o.max_index_entries = 8;
  o.max_memo_entries = 8;
  o.max_embedding_entries = 8;
  return o;
}

LiteSystem::Recommendation MakeRec(double fill, double seconds) {
  LiteSystem::Recommendation rec;
  rec.config = MakeConfig(fill);
  rec.predicted_seconds = seconds;
  rec.recommend_wall_seconds = 0.000125;
  rec.candidates_evaluated = 12;
  return rec;
}

// --- Options validation ---------------------------------------------------

TEST(RetrievalValidationTest, DisabledOptionsAreAlwaysValid) {
  RetrievalCacheOptions o;  // enabled = false
  o.max_index_entries = 0;  // nonsense, but the cache is never constructed.
  EXPECT_EQ(serve::ValidateRetrievalOptions(o), "");
}

TEST(RetrievalValidationTest, RejectsZeroCapacitiesAndWrappedTopK) {
  RetrievalCacheOptions o = SmallCacheOptions();
  EXPECT_EQ(serve::ValidateRetrievalOptions(o), "");

  o = SmallCacheOptions();
  o.top_k_seeds = static_cast<size_t>(-1);  // negative value cast to size_t.
  EXPECT_NE(serve::ValidateRetrievalOptions(o), "");

  o = SmallCacheOptions();
  o.max_index_entries = 0;
  EXPECT_NE(serve::ValidateRetrievalOptions(o), "");

  o = SmallCacheOptions();
  o.max_memo_entries = 0;
  EXPECT_NE(serve::ValidateRetrievalOptions(o), "");
  o.memoize = false;  // no memo => the memo capacity is irrelevant.
  EXPECT_EQ(serve::ValidateRetrievalOptions(o), "");

  o = SmallCacheOptions();
  o.max_embedding_entries = 0;
  EXPECT_NE(serve::ValidateRetrievalOptions(o), "");

  o = SmallCacheOptions();
  o.max_event_log = 0;
  EXPECT_NE(serve::ValidateRetrievalOptions(o), "");
}

// --- Index: best-per-workload, deterministic retrieval, eviction ----------

TEST(RetrievalIndexTest, KeepsBestOutcomeAndRetrievesNearestDeterministically) {
  RetrievalCache cache(SmallCacheOptions());

  // Three observations of workload fp=1: the 30s run must win.
  cache.InsertOutcome("t", "TS", 1, {0.0, 0.0}, MakeConfig(0.1), 50.0, 1,
                      false);
  cache.InsertOutcome("t", "TS", 1, {0.0, 0.0}, MakeConfig(0.2), 30.0, 1,
                      false);
  cache.InsertOutcome("t", "TS", 1, {0.0, 0.0}, MakeConfig(0.3), 40.0, 1,
                      false);
  cache.InsertOutcome("t", "PR", 2, {10.0, 10.0}, MakeConfig(0.4), 10.0, 1,
                      true);
  EXPECT_EQ(cache.index_size(), 2u);

  std::vector<serve::RetrievedSeed> seeds = cache.Retrieve({0.1, 0.1}, 4);
  ASSERT_EQ(seeds.size(), 2u);
  EXPECT_EQ(seeds[0].config, MakeConfig(0.2));  // nearest, best observed.
  EXPECT_DOUBLE_EQ(seeds[0].observed_seconds, 30.0);
  EXPECT_EQ(seeds[1].config, MakeConfig(0.4));
  EXPECT_LT(seeds[0].distance, seeds[1].distance);

  // Malformed ingest is ignored: wrong knob count, non-finite seconds.
  cache.InsertOutcome("t", "KM", 3, {0.0, 0.0}, spark::Config(3, 0.5), 5.0, 1,
                      false);
  cache.InsertOutcome("t", "KM", 4, {0.0, 0.0}, MakeConfig(0.5),
                      std::nan(""), 1, false);
  EXPECT_EQ(cache.index_size(), 2u);

  // A dimension-mismatched entry (a swapped model with a different encoder
  // width) is skipped by retrieval, not served with a garbage distance.
  cache.InsertOutcome("t", "KM", 5, {0.0, 0.0, 0.0}, MakeConfig(0.6), 1.0, 1,
                      false);
  seeds = cache.Retrieve({0.0, 0.0}, 8);
  EXPECT_EQ(seeds.size(), 2u);
}

TEST(RetrievalIndexTest, EvictsOldestBeyondCapacity) {
  RetrievalCacheOptions o = SmallCacheOptions();
  o.max_index_entries = 2;
  RetrievalCache cache(o);
  cache.InsertOutcome("t", "TS", 1, {1.0}, MakeConfig(0.1), 10.0, 1, false);
  cache.InsertOutcome("t", "TS", 2, {2.0}, MakeConfig(0.2), 10.0, 1, false);
  cache.InsertOutcome("t", "TS", 3, {3.0}, MakeConfig(0.3), 10.0, 1, false);
  EXPECT_EQ(cache.index_size(), 2u);
  EXPECT_EQ(cache.stats().index_evictions, 1u);
  // fp=1 was evicted: the nearest neighbor of {1.0} is now fp=2's entry.
  std::vector<serve::RetrievedSeed> seeds = cache.Retrieve({1.0}, 1);
  ASSERT_EQ(seeds.size(), 1u);
  EXPECT_EQ(seeds[0].config, MakeConfig(0.2));
}

// --- Memo: generation and tenant invalidation -----------------------------

TEST(RetrievalMemoTest, HotSwapFlushesAndRejectsStaleInserts) {
  RetrievalCache cache(SmallCacheOptions());
  cache.OnSnapshotInstalled(1);
  EXPECT_EQ(cache.live_generation(), 1u);

  RetrievalCache::MemoKey key;
  key.workload_hash = 7;
  key.generation = 1;
  key.policy_fingerprint = 9;
  const LiteSystem::Recommendation rec = MakeRec(0.25, 12.5);
  cache.InsertMemo(key, "t", "TS", rec);
  EXPECT_EQ(cache.memo_size(), 1u);

  LiteSystem::Recommendation out;
  ASSERT_TRUE(cache.LookupMemo(key, "t", "TS", &out));
  // Replayed verbatim: wall time and candidate count included.
  EXPECT_EQ(out.config, rec.config);
  EXPECT_EQ(out.predicted_seconds, rec.predicted_seconds);
  EXPECT_EQ(out.recommend_wall_seconds, rec.recommend_wall_seconds);
  EXPECT_EQ(out.candidates_evaluated, rec.candidates_evaluated);

  // Hot-swap: the whole memo goes, and the flush is in the event log.
  cache.OnSnapshotInstalled(2);
  EXPECT_EQ(cache.memo_size(), 0u);
  EXPECT_FALSE(cache.LookupMemo(key, "t", "TS", &out));
  const RetrievalCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.generation_flushes, 2u);  // both installs flush.
  EXPECT_EQ(stats.invalidated_entries, 1u);

  // A request that raced the swap (still holding generation 1) must not
  // plant an entry the flush already missed.
  cache.InsertMemo(key, "t", "TS", rec);
  EXPECT_EQ(cache.memo_size(), 0u);
  EXPECT_EQ(cache.stats().stale_inserts_rejected, 1u);

  bool saw_flush = false;
  for (const CacheEvent& e : cache.EventLog()) {
    if (e.type == CacheEventType::kInvalidateGeneration &&
        e.generation == 2 && e.count == 1) {
      saw_flush = true;
    }
  }
  EXPECT_TRUE(saw_flush);
}

TEST(RetrievalMemoTest, QuarantineFlushIsTenantScoped) {
  RetrievalCache cache(SmallCacheOptions());
  cache.OnSnapshotInstalled(1);

  RetrievalCache::MemoKey ka{1, 1, 1}, kb{2, 1, 2};
  cache.InsertMemo(ka, "alpha", "TS", MakeRec(0.1, 10.0));
  cache.InsertMemo(kb, "beta", "TS", MakeRec(0.2, 20.0));
  EXPECT_EQ(cache.memo_size(), 2u);

  cache.OnTenantQuarantined("alpha");
  EXPECT_EQ(cache.memo_size(), 1u);
  LiteSystem::Recommendation out;
  EXPECT_FALSE(cache.LookupMemo(ka, "alpha", "TS", &out));
  EXPECT_TRUE(cache.LookupMemo(kb, "beta", "TS", &out));
  EXPECT_EQ(cache.stats().tenant_flushes, 1u);

  bool saw_tenant_flush = false;
  for (const CacheEvent& e : cache.EventLog()) {
    if (e.type == CacheEventType::kInvalidateTenant && e.tenant == "alpha" &&
        e.count == 1) {
      saw_tenant_flush = true;
    }
  }
  EXPECT_TRUE(saw_tenant_flush);
}

TEST(RetrievalMemoTest, StatsAgreeWithMetricsExactly) {
  const uint64_t hits0 = CounterValue("serve_retrieval_hits_total");
  const uint64_t misses0 = CounterValue("serve_retrieval_misses_total");
  const uint64_t inserts0 = CounterValue("serve_retrieval_inserts_total");

  RetrievalCache cache(SmallCacheOptions());
  cache.OnSnapshotInstalled(1);
  RetrievalCache::MemoKey key{5, 1, 5};
  LiteSystem::Recommendation out;
  EXPECT_FALSE(cache.LookupMemo(key, "t", "TS", &out));
  cache.InsertMemo(key, "t", "TS", MakeRec(0.5, 5.0));
  EXPECT_TRUE(cache.LookupMemo(key, "t", "TS", &out));

  const RetrievalCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(CounterValue("serve_retrieval_hits_total") - hits0, stats.hits);
  EXPECT_EQ(CounterValue("serve_retrieval_misses_total") - misses0,
            stats.misses);
  EXPECT_EQ(CounterValue("serve_retrieval_inserts_total") - inserts0,
            stats.inserts);
}

// --- Persistence ----------------------------------------------------------

TEST(RetrievalPersistenceTest, SaveLoadRoundTripPreservesRetrieval) {
  RetrievalCache cache(SmallCacheOptions());
  // Awkward doubles on purpose: the round-trip must be bit-exact.
  cache.InsertOutcome("tenant-a", "TS", 11, {1.0 / 3.0, 2.0 / 7.0},
                      MakeConfig(1.0 / 9.0), 12.3456789012345, 3, true);
  cache.InsertOutcome("tenant-b", "PR", 22, {5.0, -0.125},
                      MakeConfig(0.875), 98.7654321098765, 4, false);

  testkit::ScopedTempDir tmp("retrieval_index");
  const std::string path = tmp.path() + "/retrieval_index.txt";
  ASSERT_TRUE(cache.SaveIndex(path));

  RetrievalCache loaded(SmallCacheOptions());
  ASSERT_TRUE(loaded.LoadIndex(path));
  EXPECT_EQ(loaded.index_size(), cache.index_size());

  const std::vector<serve::RetrievedSeed> before =
      cache.Retrieve({0.3, 0.3}, 4);
  const std::vector<serve::RetrievedSeed> after =
      loaded.Retrieve({0.3, 0.3}, 4);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].config, before[i].config) << "seed " << i;
    EXPECT_EQ(after[i].distance, before[i].distance) << "seed " << i;
    EXPECT_EQ(after[i].observed_seconds, before[i].observed_seconds)
        << "seed " << i;
  }

  // A missing file fails cleanly and leaves the loaded cache untouched.
  RetrievalCache untouched(SmallCacheOptions());
  untouched.InsertOutcome("t", "TS", 1, {1.0}, MakeConfig(0.5), 1.0, 1, false);
  EXPECT_FALSE(untouched.LoadIndex(tmp.path() + "/no_such_index.txt"));
  EXPECT_EQ(untouched.index_size(), 1u);
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

class RetrievalServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    runner_ = new spark::SparkRunner();
    LiteSystem system(runner_, TinyOptions());
    system.TrainOffline();
    tmp_ = new testkit::ScopedTempDir("retrieval_snapshot");
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

  static serve::ServiceOptions CachedOptions() {
    serve::ServiceOptions sopts;
    sopts.update_batch = 0;  // keep the model frozen for determinism.
    sopts.retrieval.enabled = true;
    return sopts;
  }

  static serve::GuardrailOptions SmallGuardrail(uint64_t seed = 41) {
    serve::GuardrailOptions o;
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

spark::SparkRunner* RetrievalServiceTest::runner_ = nullptr;
testkit::ScopedTempDir* RetrievalServiceTest::tmp_ = nullptr;
const std::string* RetrievalServiceTest::dir_ = nullptr;

TEST_F(RetrievalServiceTest, ServiceOptionsValidationCoversRetrieval) {
  serve::ServiceOptions bad = CachedOptions();
  bad.retrieval.max_index_entries = 0;
  EXPECT_THROW(serve::TuningService(runner_, bad), std::invalid_argument);
}

// An exact repeat is a memo hit: the cached Recommendation replayed bit for
// bit, with zero additional candidate evaluations anywhere in the process.
TEST_F(RetrievalServiceTest, MemoHitReplaysBitForBitWithZeroEvaluations) {
  serve::TuningService service(runner_, CachedOptions());
  ASSERT_TRUE(service.LoadSnapshot(*dir_));
  int session = service.OpenSession("memo-tenant");
  const auto* app = spark::AppCatalog::Find("TS");
  spark::DataSpec data = app->MakeData(app->test_size_mb);
  spark::ClusterEnv env = spark::ClusterEnv::ClusterA();

  serve::TuningService::Response first =
      service.Recommend(session, *app, data, env);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.from_cache);

  const uint64_t evaluated = CounterValue("lite_candidates_evaluated_total");
  serve::TuningService::Response second =
      service.Recommend(session, *app, data, env);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.from_cache);
  // Zero model evaluations on the hit path.
  EXPECT_EQ(CounterValue("lite_candidates_evaluated_total"), evaluated);
  // Verbatim replay, recorded wall time included.
  EXPECT_EQ(second.rec.config, first.rec.config);
  EXPECT_EQ(second.rec.predicted_seconds, first.rec.predicted_seconds);
  EXPECT_EQ(second.rec.recommend_wall_seconds,
            first.rec.recommend_wall_seconds);
  EXPECT_EQ(second.rec.candidates_evaluated, first.rec.candidates_evaluated);

  RetrievalCache* cache = service.retrieval();
  ASSERT_NE(cache, nullptr);
  const RetrievalCache::Stats stats = cache->stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);

  // A different workload (2x the data) is a different embedding => miss.
  spark::DataSpec bigger = app->MakeData(app->test_size_mb * 2);
  serve::TuningService::Response third =
      service.Recommend(session, *app, bigger, env);
  ASSERT_TRUE(third.ok) << third.error;
  EXPECT_FALSE(third.from_cache);
}

// The transparency differential across scoring thread counts 1/4/8, over
// seeded generated tuples: disabled vs enabled-but-cold bit-identical, and
// the memo hit replays the first response verbatim.
TEST_F(RetrievalServiceTest, DiffRetrievalTransparency) {
  const uint64_t seed = testkit::SeedFromEnv();
  testkit::GenOptions gopts;
  gopts.apps = {"TS", "PR"};
  gopts.clusters = {spark::ClusterEnv::ClusterA()};
  testkit::TupleGenerator gen(gopts, seed);
  for (int i = 0; i < 3; ++i) {
    testkit::WorkloadTuple t = gen.Next();
    testkit::DiffResult res =
        testkit::DiffRetrievalTransparency(*runner_, t, *dir_);
    EXPECT_TRUE(res.ok) << res.message << "\n  tuple: " << t.Describe()
                        << "\n  replay with: LITE_TEST_SEED=" << seed;
  }
}

// Property (a): no hit is ever served from a generation older than the
// live one. Hot-swaps flush the memo before publishing, so the repeat
// after each swap is a miss, and every hit in the event log carries
// generation == live_generation.
TEST_F(RetrievalServiceTest, HotSwapNeverServesStaleGeneration) {
  serve::TuningService service(runner_, CachedOptions());
  ASSERT_TRUE(service.LoadSnapshot(*dir_));
  int session = service.OpenSession("swap-tenant");
  const auto* ts = spark::AppCatalog::Find("TS");
  const auto* pr = spark::AppCatalog::Find("PR");
  spark::ClusterEnv env = spark::ClusterEnv::ClusterA();
  spark::DataSpec ts_data = ts->MakeData(ts->test_size_mb);
  spark::DataSpec pr_data = pr->MakeData(pr->test_size_mb);

  for (int swap = 0; swap < 3; ++swap) {
    // Warm then hit, for both workloads.
    for (const auto& [app, data] : {std::pair(ts, ts_data),
                                    std::pair(pr, pr_data)}) {
      serve::TuningService::Response warm =
          service.Recommend(session, *app, data, env);
      ASSERT_TRUE(warm.ok) << warm.error;
      EXPECT_FALSE(warm.from_cache) << "swap " << swap;
      serve::TuningService::Response hit =
          service.Recommend(session, *app, data, env);
      ASSERT_TRUE(hit.ok) << hit.error;
      EXPECT_TRUE(hit.from_cache) << "swap " << swap;
    }
    // Hot-swap to an identical snapshot: same bits, new generation — the
    // memo must flush anyway (version invalidation is structural, not
    // content-based).
    ASSERT_TRUE(service.LoadSnapshot(*dir_));
  }

  RetrievalCache* cache = service.retrieval();
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->live_generation(), 4u);  // initial load + 3 swaps.
  size_t hits = 0;
  for (const CacheEvent& e : cache->EventLog()) {
    if (e.type != CacheEventType::kHit) continue;
    ++hits;
    EXPECT_EQ(e.generation, e.live_generation)
        << "stale-generation hit at seq " << e.seq;
  }
  EXPECT_EQ(hits, 6u);  // one per workload per swap round.
  EXPECT_EQ(cache->stats().generation_flushes, 4u);
}

// Property (b): a quarantined tenant never receives a cached entry. The
// guardrail's Admit() precedes every memo lookup, entering quarantine
// flushes the tenant's entries, and the other tenant's memo is untouched.
TEST_F(RetrievalServiceTest, QuarantinedTenantNeverServedFromCache) {
  serve::ServiceOptions sopts = CachedOptions();
  sopts.guardrail = SmallGuardrail();
  serve::TuningService service(runner_, sopts);
  ASSERT_TRUE(service.LoadSnapshot(*dir_));
  int quar = service.OpenSession("quar-tenant");
  int safe = service.OpenSession("safe-tenant");
  const auto* app = spark::AppCatalog::Find("TS");
  spark::DataSpec data = app->MakeData(app->test_size_mb);
  spark::ClusterEnv env = spark::ClusterEnv::ClusterA();

  // Incumbents for both tenants (honest fast baselines).
  spark::Config baseline = spark::KnobSpace::Spark16().DefaultConfig();
  spark::MeasureOutcome good = Outcome(12.0, false, false);
  good.result = runner_->cost_model().Run(*app, data, env, baseline);
  ASSERT_TRUE(service.SubmitFeedback(quar, *app, data, env, baseline, good));
  ASSERT_TRUE(service.SubmitFeedback(safe, *app, data, env, baseline, good));

  // Warm both tenants' memos.
  for (int s : {quar, safe}) {
    ASSERT_TRUE(service.Recommend(s, *app, data, env).ok);
    EXPECT_TRUE(service.Recommend(s, *app, data, env).from_cache);
  }

  // Regression storm trips the breaker for quar-tenant only.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(service.SubmitFeedback(quar, *app, data, env, MakeConfig(0.9),
                                       Outcome(600.0, true, false)));
  }
  ASSERT_EQ(service.guardrail()->StateOf("quar-tenant"),
            BreakerState::kQuarantined);

  RetrievalCache* cache = service.retrieval();
  ASSERT_NE(cache, nullptr);
  uint64_t flush_seq = 0;
  for (const CacheEvent& e : cache->EventLog()) {
    if (e.type == CacheEventType::kInvalidateTenant &&
        e.tenant == "quar-tenant") {
      flush_seq = e.seq;
    }
  }
  EXPECT_GT(flush_seq, 0u) << "quarantine did not flush the tenant's memo";

  // Quarantined serving: incumbent verbatim, never a cache hit (these three
  // serves also complete the cooldown).
  for (int i = 0; i < 3; ++i) {
    serve::TuningService::Response r = service.Recommend(quar, *app, data, env);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.from_incumbent);
    EXPECT_FALSE(r.from_cache);
    EXPECT_EQ(r.rec.config, baseline);
  }

  // The safe tenant's memo survived tenant-scoped invalidation.
  serve::TuningService::Response still_cached =
      service.Recommend(safe, *app, data, env);
  EXPECT_TRUE(still_cached.from_cache);

  // No hit event for the quarantined tenant after the flush.
  for (const CacheEvent& e : cache->EventLog()) {
    if (e.type == CacheEventType::kHit && e.seq > flush_seq) {
      EXPECT_NE(e.tenant, "quar-tenant")
          << "cached entry leaked past the guardrail at seq " << e.seq;
    }
  }
  EXPECT_GE(cache->stats().tenant_flushes, 1u);
}

// Property (c): warm-start seeding never worsens the argmin. The seeded
// pool is a superset of the unseeded pool, so on the same snapshot the
// seeded best predicted time is <= the unseeded best.
TEST_F(RetrievalServiceTest, WarmStartSeedingNeverWorsensArgmin) {
  auto loaded = LoadedLiteModel::Load(*dir_, runner_);
  ASSERT_NE(loaded, nullptr);
  const uint64_t seed = testkit::SeedFromEnv();
  testkit::GenOptions gopts;
  gopts.apps = {"TS", "PR"};
  gopts.clusters = {spark::ClusterEnv::ClusterA()};
  testkit::TupleGenerator gen(gopts, seed);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);

  for (int i = 0; i < 4; ++i) {
    testkit::WorkloadTuple t = gen.Next();
    serve::PipelineContext ctx;
    ctx.acg = &loaded->candidate_generator();
    ctx.num_candidates = loaded->num_candidates();
    ctx.seed = loaded->seed();
    auto score = [&](const std::vector<spark::Config>& candidates) {
      return loaded->ScoreCandidates(*t.app, t.data, t.env, candidates);
    };

    LiteSystem::Recommendation unseeded =
        serve::RunRecommendPipeline(ctx, *t.app, t.data, t.env, score);

    // Seeds: the tuple's random config, two fresh knob-space samples, and
    // two malformed ones — wrong knob count, and out-of-range values whose
    // executor.cores of 0 would divide by zero in the placement math if the
    // pipeline's range check ever regressed. Both must be skipped silently.
    const spark::KnobSpace& space = spark::KnobSpace::Spark16();
    std::vector<spark::Config> seeds;
    seeds.push_back(t.config);
    seeds.push_back(space.RandomConfig(&rng));
    seeds.push_back(space.RandomConfig(&rng));
    seeds.push_back(spark::Config(3, 0.5));
    seeds.push_back(spark::Config(spark::kNumKnobs, 0.0));
    ctx.seed_candidates = &seeds;
    LiteSystem::Recommendation seeded =
        serve::RunRecommendPipeline(ctx, *t.app, t.data, t.env, score);
    EXPECT_LE(seeded.predicted_seconds, unseeded.predicted_seconds)
        << "seeding worsened the argmin on " << t.Describe()
        << "\n  replay with: LITE_TEST_SEED=" << seed;

    // Empty seed list: bit-identical to the unseeded pipeline.
    std::vector<spark::Config> empty;
    ctx.seed_candidates = &empty;
    LiteSystem::Recommendation noop =
        serve::RunRecommendPipeline(ctx, *t.app, t.data, t.env, score);
    EXPECT_EQ(noop.config, unseeded.config);
    EXPECT_EQ(noop.predicted_seconds, unseeded.predicted_seconds);
    EXPECT_EQ(noop.candidates_evaluated, unseeded.candidates_evaluated);
  }
}

// Satellite: seeded determinism replay. One seeded two-tenant storm of
// requests, hot-swaps and feedback, run twice over fresh services: the
// cache event logs must match field for field.
TEST_F(RetrievalServiceTest, SeededReplayUnderTwoTenantSwapStorm) {
  const uint64_t seed = testkit::SeedFromEnv();
  const auto* ts = spark::AppCatalog::Find("TS");
  const auto* pr = spark::AppCatalog::Find("PR");
  spark::ClusterEnv env = spark::ClusterEnv::ClusterA();
  struct Workload {
    const spark::ApplicationSpec* app;
    spark::DataSpec data;
  };
  const std::vector<Workload> workloads = {
      {ts, ts->MakeData(ts->test_size_mb)},
      {ts, ts->MakeData(ts->test_size_mb * 2)},
      {pr, pr->MakeData(pr->test_size_mb)},
  };

  auto run_storm = [&]() {
    serve::ServiceOptions sopts = CachedOptions();
    sopts.guardrail = SmallGuardrail(seed);
    serve::TuningService service(runner_, sopts);
    EXPECT_TRUE(service.LoadSnapshot(*dir_));
    int alpha = service.OpenSession("alpha");
    int beta = service.OpenSession("beta");
    Rng stream(seed + 1);
    for (int i = 0; i < 48; ++i) {
      const int session = stream.Bernoulli(0.5) ? alpha : beta;
      const Workload& w = workloads[stream.Index(workloads.size())];
      serve::TuningService::Response r =
          service.Recommend(session, *w.app, w.data, env);
      EXPECT_TRUE(r.ok) << r.error;
      if (i % 17 == 11) {
        // Deterministic hot-swap cadence: the storm always crosses
        // generations, so the replay exercises invalidation.
        EXPECT_TRUE(service.LoadSnapshot(*dir_));
      }
      if (stream.Bernoulli(0.3)) {
        const bool bad = stream.Bernoulli(0.25);
        const double secs = bad ? 300.0 : 10.0 + stream.Uniform() * 5.0;
        EXPECT_TRUE(service.SubmitFeedback(session, *w.app, w.data, env,
                                           r.rec.config,
                                           Outcome(secs, bad, false)));
      }
    }
    return service.retrieval()->EventLog();
  };

  const std::vector<CacheEvent> log1 = run_storm();
  const std::vector<CacheEvent> log2 = run_storm();
  ASSERT_EQ(log1.size(), log2.size())
      << "replay with: LITE_TEST_SEED=" << seed;
  for (size_t i = 0; i < log1.size(); ++i) {
    EXPECT_EQ(log1[i].seq, log2[i].seq) << "event " << i;
    EXPECT_EQ(log1[i].type, log2[i].type)
        << "event " << i << " (" << serve::CacheEventName(log1[i].type)
        << " vs " << serve::CacheEventName(log2[i].type)
        << "); replay with: LITE_TEST_SEED=" << seed;
    EXPECT_EQ(log1[i].tenant, log2[i].tenant) << "event " << i;
    EXPECT_EQ(log1[i].app, log2[i].app) << "event " << i;
    EXPECT_EQ(log1[i].generation, log2[i].generation) << "event " << i;
    EXPECT_EQ(log1[i].live_generation, log2[i].live_generation)
        << "event " << i;
    EXPECT_EQ(log1[i].count, log2[i].count) << "event " << i;
  }

  // The storm must actually exercise the cache: hits, swap flushes, and
  // never a stale-generation hit.
  size_t hits = 0, flushes = 0;
  for (const CacheEvent& e : log1) {
    if (e.type == CacheEventType::kHit) {
      ++hits;
      EXPECT_EQ(e.generation, e.live_generation)
          << "stale hit at seq " << e.seq
          << "; replay with: LITE_TEST_SEED=" << seed;
    }
    if (e.type == CacheEventType::kInvalidateGeneration) ++flushes;
  }
  EXPECT_GT(hits, 0u) << "replay with: LITE_TEST_SEED=" << seed;
  EXPECT_GE(flushes, 3u);  // initial load + two in-storm swaps.
}

// TSan target: concurrent clients, hot-swaps and feedback against one
// retrieval-enabled service. The assertions are the structural invariants;
// the sanitizer checks the synchronization.
TEST_F(RetrievalServiceTest, ConcurrentClientsSwapsAndFeedbackWithRetrieval) {
  serve::ServiceOptions sopts = CachedOptions();
  sopts.guardrail = SmallGuardrail();
  serve::TuningService service(runner_, sopts);
  ASSERT_TRUE(service.LoadSnapshot(*dir_));
  const auto* app = spark::AppCatalog::Find("TS");
  spark::DataSpec data = app->MakeData(app->test_size_mb);
  spark::ClusterEnv env = spark::ClusterEnv::ClusterA();

  std::vector<std::thread> threads;
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&, c] {
      int session = service.OpenSession("tenant-" + std::to_string(c % 2));
      for (int i = 0; i < 8; ++i) {
        serve::TuningService::Response r =
            service.Recommend(session, *app, data, env);
        EXPECT_TRUE(r.ok || r.rejected) << r.error;
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(service.LoadSnapshot(*dir_));
    }
  });
  threads.emplace_back([&] {
    int session = service.OpenSession("tenant-0");
    for (int i = 0; i < 6; ++i) {
      service.SubmitFeedback(session, *app, data, env, MakeConfig(0.5),
                             Outcome(i % 3 == 0 ? 300.0 : 15.0, i % 3 == 0,
                                     false));
    }
  });
  for (std::thread& t : threads) t.join();
  service.Drain();

  RetrievalCache* cache = service.retrieval();
  ASSERT_NE(cache, nullptr);
  for (const CacheEvent& e : cache->EventLog()) {
    if (e.type == CacheEventType::kHit) {
      EXPECT_EQ(e.generation, e.live_generation)
          << "stale-generation hit under concurrency at seq " << e.seq;
    }
  }
  EXPECT_LE(cache->index_size(), sopts.retrieval.max_index_entries);
  EXPECT_LE(cache->memo_size(), sopts.retrieval.max_memo_entries);
}

}  // namespace
}  // namespace lite
