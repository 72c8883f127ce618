// Shared declarations of the serving benchmark: arguments, queries, the
// trained snapshot, the per-run outcome, the four workloads and the
// per-layer probe of the traced run.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "lite/lite_system.h"
#include "lite/snapshot.h"
#include "serve/tuning_service.h"
#include "sparksim/runner.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Base directory for the per-process scratch directory (snapshots).
  std::string scratch = ".bench_build/scratch";
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
};

/// One distinct (application, data, cluster) query.
struct Query {
  const lite::spark::ApplicationSpec* app = nullptr;
  lite::spark::DataSpec data;
  lite::spark::ClusterEnv env;
};

/// Independent, reproducible sub-seed `salt` of the workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t salt);

/// The model under test, trained at the start of every run with the code
/// under test (fixed inputs and seeds) and saved to the run's scratch
/// directory.
struct Snapshot {
  std::string dir;
  lite::LiteOptions options;
  double train_s = 0.0;  ///< LiteSystem construction + TrainOffline.
  double save_s = 0.0;   ///< SaveSnapshot.
  uint64_t bytes = 0;
};
Snapshot TrainSnapshot(const lite::spark::SparkRunner& runner,
                       size_t num_candidates, const std::string& dir);

/// Simulated runs, memoized by (query, config). The simulator stands in
/// for the cluster and is never called inside a timed interval.
class SimCache {
 public:
  explicit SimCache(const lite::spark::SparkRunner* runner) : runner_(runner) {}
  const lite::spark::AppRunResult& Run(size_t query, const Query& q,
                                       const lite::spark::Config& config);
  double DefaultSeconds(size_t query, const Query& q);

 private:
  const lite::spark::SparkRunner* runner_;
  std::mutex mu_;
  std::map<std::pair<size_t, lite::spark::Config>, lite::spark::AppRunResult>
      runs_;
};

/// What one invocation produced.
struct Outcome {
  MetricSet end_to_end;
  MetricSet layers;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Correctness violations; any entry fails the run.
  std::vector<std::string> errors;
  /// Operation counts for the human-readable report.
  std::vector<std::pair<std::string, uint64_t>> counts;
};

/// Inputs of the per-layer probe: the workload's served state, replayed
/// call by call through each module's public entry points.
struct ProbeInput {
  const lite::spark::SparkRunner* runner = nullptr;
  const Snapshot* snapshot = nullptr;
  std::shared_ptr<const lite::LoadedLiteModel> model;    ///< as served.
  std::shared_ptr<const lite::LoadedLiteModel> updated;  ///< after updates.
  lite::serve::TuningService* service = nullptr;  ///< serves `model`.
  std::vector<Query> queries;
  size_t pool = 200;
  SpanLog* spans = nullptr;
};
/// Sets every per-layer metric the probe measures on `out->layers`; a
/// replayed query whose argmin differs from LoadedLiteModel::Recommend is
/// an error in `out->errors`.
void ProbeLayers(const ProbeInput& in, Outcome* out);

/// Runs one named workload ("pool1k", "mixed_open", "staged",
/// "update_plane"); throws std::invalid_argument for an unknown name.
Outcome RunWorkload(const Args& args, SpanLog* spans);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
