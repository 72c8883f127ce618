// Observability overhead: candidate scoring with the obs subsystem fully
// disabled (LITE_OBS=0 semantics via SetEnabled) versus fully enabled, and
// versus enabled with a live trace recording. The harness first proves the
// score vectors are bit-identical in every mode — instrumentation may only
// observe the computation — and only then reports timings.
//
// Acceptance (printed at the end): on the 1000-candidate pool, metrics-
// enabled scoring costs < 2% over disabled scoring (min over repetitions,
// so scheduler noise does not masquerade as overhead). Timing is hardware-
// dependent, so the exit code reflects only the bit-identity requirement;
// the overhead verdict is recorded in BENCH_obs.json for CI trending.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <thread>

#include "bench/bench_common.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/recommend_pipeline.h"

using namespace lite;
using namespace lite::bench;

namespace {

double TimeSeconds(const std::function<void()>& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  ScaleProfile profile = GetScaleProfile();
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "Observability overhead bench (scale=" << profile.name
            << ", cores=" << cores << ")\n";

  LiteOptions opts;
  opts.corpus = MakeCorpusOptions(profile, {"TS", "PR", "KM"},
                                  {spark::ClusterEnv::ClusterA()});
  opts.necs = profile.necs;
  opts.train.epochs = profile.name == "smoke" ? 3 : 8;
  opts.ensemble_size = 1;

  spark::SparkRunner runner;
  LiteSystem system(&runner, opts);
  system.TrainOffline();
  std::vector<const NecsModel*> models{system.model()};

  const auto* app = spark::AppCatalog::Find("PR");
  spark::DataSpec data = app->MakeData(app->test_size_mb);
  const spark::ClusterEnv env = spark::ClusterEnv::ClusterC();

  const size_t pool = profile.name == "smoke" ? 200 : 1000;
  const int reps = profile.name == "smoke" ? 3 : 5;
  const auto& space = spark::KnobSpace::Spark16();
  Rng rng(4242);
  std::vector<spark::Config> candidates;
  candidates.reserve(pool);
  for (size_t i = 0; i < pool; ++i) {
    candidates.push_back(space.RandomConfig(&rng));
  }

  auto score_once = [&] {
    system.model()->InvalidateCache();
    return serve::ScoreCandidateSet(&runner, system.corpus(), models, *app,
                                    data, env, candidates,
                                    serve::ScoringOptions{.threads = 0});
  };

  const bool saved_enabled = obs::Enabled();
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();

  // Warm up both modes once (thread pool spin-up, metric registration) so
  // one-time costs don't land in either timed side.
  obs::SetEnabled(true);
  std::vector<double> ref_enabled = score_once();
  obs::SetEnabled(false);
  std::vector<double> ref_disabled = score_once();

  double t_disabled = 1e100, t_enabled = 1e100, t_tracing = 1e100;
  bool identical = ref_enabled == ref_disabled;
  for (int r = 0; r < reps; ++r) {
    obs::SetEnabled(false);
    std::vector<double> off;
    t_disabled = std::min(t_disabled, TimeSeconds([&] { off = score_once(); }));
    obs::SetEnabled(true);
    std::vector<double> on;
    t_enabled = std::min(t_enabled, TimeSeconds([&] { on = score_once(); }));
    recorder.Start();
    std::vector<double> traced;
    t_tracing =
        std::min(t_tracing, TimeSeconds([&] { traced = score_once(); }));
    recorder.Stop();
    identical = identical && off == ref_disabled && on == ref_disabled &&
                traced == ref_disabled;
  }
  obs::SetEnabled(saved_enabled);

  double overhead_pct =
      t_disabled > 0 ? (t_enabled / t_disabled - 1.0) * 100.0 : 0.0;
  double tracing_pct =
      t_disabled > 0 ? (t_tracing / t_disabled - 1.0) * 100.0 : 0.0;
  bool overhead_ok = overhead_pct < 2.0;

  TablePrinter table({"Mode", "Best (s)", "Overhead"});
  table.AddRow({"obs disabled", TablePrinter::Fmt(t_disabled), "-"});
  table.AddRow({"obs enabled", TablePrinter::Fmt(t_enabled),
                TablePrinter::Fmt(overhead_pct, 2) + "%"});
  table.AddRow({"enabled + tracing", TablePrinter::Fmt(t_tracing),
                TablePrinter::Fmt(tracing_pct, 2) + "%"});
  table.Print(std::cout, "Scoring wall time, " + std::to_string(pool) +
                             " candidates (min of " + std::to_string(reps) +
                             " reps)");

  std::cout << "\nBit-identical scores across all modes: "
            << (identical ? "yes" : "NO") << "\n";
  std::cout << "Acceptance (< 2% metrics overhead): "
            << (overhead_ok ? "PASS" : "FAIL") << " ("
            << TablePrinter::Fmt(overhead_pct, 2) << "%)\n";

  WriteBenchJson(
      "BENCH_obs.json", "bench_observability", profile,
      {{"pool", BenchJsonNum(static_cast<double>(pool))},
       {"reps", BenchJsonNum(reps)},
       {"cores", BenchJsonNum(static_cast<double>(cores))},
       {"t_disabled_s", BenchJsonNum(t_disabled)},
       {"t_enabled_s", BenchJsonNum(t_enabled)},
       {"t_tracing_s", BenchJsonNum(t_tracing)},
       {"overhead_pct", BenchJsonNum(overhead_pct)},
       {"tracing_overhead_pct", BenchJsonNum(tracing_pct)},
       {"bit_identical", BenchJsonBool(identical)},
       {"overhead_under_2pct", BenchJsonBool(overhead_ok)}});

  return identical ? 0 : 1;
}
