// Candidate-scoring throughput: the per-candidate reference loop
// (testkit::ReferenceScores: per-candidate featurization + per-stage
// autodiff towers) against the scoring engine (serve::ScoreCandidateSet:
// featurize once, one knob-free plan per member, one tower pass per block
// of stacked candidates) single-threaded and sharded across the thread
// pool. The score vectors must match bit for bit — the harness verifies
// that before it reports any timing.
//
// Acceptance (printed at the end): at the 1000-candidate pool the engine
// on the shared pool is >= 5x the reference loop with an identical argmin.
#include <chrono>
#include <iostream>
#include <thread>

#include "bench/bench_common.h"
#include "serve/recommend_pipeline.h"
#include "testkit/diff.h"

using namespace lite;
using namespace lite::bench;

namespace {

double TimeSeconds(const std::function<void()>& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

LiteOptions BenchOptions(const ScaleProfile& profile) {
  LiteOptions opts;
  opts.corpus = MakeCorpusOptions(profile, {"TS", "PR", "KM"},
                                  {spark::ClusterEnv::ClusterA()});
  opts.necs = profile.necs;
  opts.train.epochs = profile.name == "smoke" ? 3 : 8;
  opts.ensemble_size = 1;  // throughput comparison; ensembles scale both paths.
  return opts;
}

}  // namespace

int main() {
  ScaleProfile profile = GetScaleProfile();
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "Batched candidate scoring bench (scale=" << profile.name
            << ", cores=" << cores << ")\n";

  spark::SparkRunner runner;
  LiteSystem system(&runner, BenchOptions(profile));
  system.TrainOffline();

  const auto* app = spark::AppCatalog::Find("PR");
  spark::DataSpec data = app->MakeData(app->test_size_mb);
  const spark::ClusterEnv env = spark::ClusterEnv::ClusterC();
  std::vector<const NecsModel*> models{system.model()};

  std::vector<size_t> pools = profile.name == "smoke"
                                  ? std::vector<size_t>{50, 200}
                                  : std::vector<size_t>{100, 1000, 10000};

  TablePrinter table({"Pool", "Reference (s)", "Engine 1T (s)",
                      "Engine MT (s)", "Speedup MT/ref", "Identical"});
  bool all_identical = true;
  double speedup_at_1k = 0.0;
  std::vector<BenchJsonField> json_fields{
      {"cores", BenchJsonNum(static_cast<double>(cores))}};

  for (size_t pool : pools) {
    const auto& space = spark::KnobSpace::Spark16();
    Rng rng(1234 + pool);
    std::vector<spark::Config> candidates;
    candidates.reserve(pool);
    for (size_t i = 0; i < pool; ++i) {
      candidates.push_back(space.RandomConfig(&rng));
    }

    std::vector<double> s_scores, b1_scores, bm_scores;
    system.model()->InvalidateCache();
    double t_scalar = TimeSeconds([&] {
      s_scores = testkit::ReferenceScores(&runner, system.corpus(), models,
                                          *app, data, env, candidates);
    });
    system.model()->InvalidateCache();
    double t_b1 = TimeSeconds([&] {
      b1_scores = serve::ScoreCandidateSet(
          &runner, system.corpus(), models, *app, data, env, candidates,
          serve::ScoringOptions{.threads = 1});
    });
    system.model()->InvalidateCache();
    double t_bm = TimeSeconds([&] {
      bm_scores = serve::ScoreCandidateSet(
          &runner, system.corpus(), models, *app, data, env, candidates,
          serve::ScoringOptions{.threads = 0});
    });

    bool identical = s_scores == b1_scores && b1_scores == bm_scores;
    all_identical = all_identical && identical;
    double speedup = t_bm > 0 ? t_scalar / t_bm : 0.0;
    if (pool == 1000) speedup_at_1k = speedup;
    table.AddRow({TablePrinter::Fmt(static_cast<int64_t>(pool)),
                  TablePrinter::Fmt(t_scalar), TablePrinter::Fmt(t_b1),
                  TablePrinter::Fmt(t_bm), TablePrinter::Fmt(speedup, 2),
                  identical ? "yes" : "NO"});
    std::string prefix = "pool_" + std::to_string(pool);
    json_fields.push_back({prefix + "_scalar_s", BenchJsonNum(t_scalar)});
    json_fields.push_back({prefix + "_batched_1t_s", BenchJsonNum(t_b1)});
    json_fields.push_back({prefix + "_batched_mt_s", BenchJsonNum(t_bm)});
    json_fields.push_back({prefix + "_speedup", BenchJsonNum(speedup)});
    json_fields.push_back({prefix + "_identical", BenchJsonBool(identical)});
  }

  table.Print(std::cout, "Reference loop vs scoring engine");
  std::cout << "\nBit-identical scores across all paths: "
            << (all_identical ? "yes" : "NO") << "\n";
  if (speedup_at_1k > 0.0) {
    std::cout << "Acceptance (>=5x at 1000 candidates, identical ranking): "
              << (all_identical && speedup_at_1k >= 5.0 ? "PASS" : "FAIL")
              << " (" << TablePrinter::Fmt(speedup_at_1k, 2) << "x on " << cores
              << " cores)\n";
  }

  json_fields.push_back({"speedup_at_1k", BenchJsonNum(speedup_at_1k)});
  json_fields.push_back({"all_identical", BenchJsonBool(all_identical)});
  WriteBenchJson("BENCH_scoring.json", "bench_batch_scoring", profile,
                 json_fields);
  return all_identical ? 0 : 1;
}
