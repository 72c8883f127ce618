// Testkit differential layer: the repo has several execution paths
// (scalar NECS, batched NECS, the block scoring engine, the resilient
// harness) and a persistence format that all claim to agree. This header
// turns each agreement claim into a checkable assertion:
//
//   * scalar PredictTarget vs batched PredictBatch — bit-identical;
//   * the scoring engine vs the per-candidate reference — bit-identical;
//   * ensemble candidate scoring across thread counts — bit-identical;
//   * SparkRunner vs ResilientRunner with faults disabled — bit-identical;
//   * LiteSystem vs its snapshot round-trip — identical recommendation and
//     bit-identical ensemble predictions;
//   * event-log and Chrome-trace serialization round-trips.
//
// Each check returns a DiffResult whose message pinpoints the first
// divergence; suites assert `result.ok` and print `result.message`.
#ifndef LITE_TESTKIT_DIFF_H_
#define LITE_TESTKIT_DIFF_H_

#include <span>
#include <string>
#include <vector>

#include "lite/dataset.h"
#include "lite/lite_system.h"
#include "lite/necs.h"
#include "testkit/gen.h"

namespace lite::testkit {

struct DiffResult {
  bool ok = true;
  std::string message;
};

/// The per-candidate reference scorer that serve::ScoreCandidateSet must
/// reproduce: featurize each candidate on its own, predict every stage
/// instance (one graph-building PredictTarget per stage on the exact
/// backend, the twin's PredictBatch on a quantized one), sum seconds x reps
/// in stage order, and take the ensemble mean in log space in member order.
/// On the exact backend the engine must match it bit for bit.
std::vector<double> ReferenceScores(
    const spark::SparkRunner* runner, const Corpus& feature_space,
    const std::vector<const NecsModel*>& models,
    const spark::ApplicationSpec& app, const spark::DataSpec& data,
    const spark::ClusterEnv& env, const std::vector<spark::Config>& candidates,
    QuantBackend backend = QuantBackend::kExactFp32);

/// Scalar PredictTarget vs one PredictBatch call over `insts`: entry i must
/// be bit-identical (the batched tower documents this contract).
DiffResult DiffScalarVsBatch(const NecsModel& model,
                             std::span<const StageInstance> insts);

/// serve::ScoreCandidateSet across `thread_counts`: every thread count
/// must produce bit-identical scores (ordered reduction contract).
DiffResult DiffScoringThreadCounts(
    const spark::SparkRunner* runner, const Corpus& feature_space,
    const std::vector<const NecsModel*>& models, const WorkloadTuple& t,
    const std::vector<spark::Config>& candidates,
    const std::vector<size_t>& thread_counts);

/// Observability transparency: serve::ScoreCandidateSet and Recommend
/// must be bit-identical with observability disabled vs enabled (metrics +
/// a live trace recording), for every thread count in `thread_counts`.
/// Instrumentation may only observe the computation, never steer it.
/// Serializes on the obs checks' internal mutex; saves and restores the
/// process-wide enabled flag and leaves the recorder stopped.
DiffResult DiffObservabilityTransparency(
    const LiteSystem& system, const spark::SparkRunner& runner,
    const WorkloadTuple& t, const std::vector<spark::Config>& candidates,
    const std::vector<size_t>& thread_counts);

/// SparkRunner::Measure vs an inert-plan ResilientRunner on one tuple:
/// bit-identical seconds, and the detailed outcome must report a clean
/// single attempt.
DiffResult DiffRunnerVsResilient(const spark::SparkRunner& runner,
                                 const WorkloadTuple& t);

/// Event-log serialization round-trip on one tuple: structure and times
/// must survive WriteEventLog -> ParseEventLog.
DiffResult DiffEventLogRoundTrip(const spark::SparkRunner& runner,
                                 const WorkloadTuple& t);

/// Chrome-trace round-trip on one tuple: spans must mirror stage runs.
DiffResult DiffTraceRoundTrip(const spark::SparkRunner& runner,
                              const WorkloadTuple& t);

/// Snapshot round-trip: saves `system` into `dir` (which must exist and be
/// writable), loads it back, and compares (a) the recommendation for the
/// tuple and (b) every ensemble member's predictions over the tuple's
/// featurized stage instances, bit for bit.
DiffResult DiffSnapshotRoundTrip(const LiteSystem& system,
                                 const spark::SparkRunner& runner,
                                 const WorkloadTuple& t,
                                 const std::string& dir);

/// Guardrail transparency (the `guardrail_transparency` oracle invariant):
/// a TuningService with the guardrail *enabled* but never tripped — default
/// tenant policies, no feedback submitted, breaker CLOSED — must produce
/// bit-identical recommendations to the same service with the guardrail
/// disabled, for the tuple's query. `dir` must hold a saved snapshot. The
/// safety layer may intervene only when its detector has evidence; an idle
/// guardrail that perturbs even one bit is a serving regression.
DiffResult DiffGuardrailTransparency(const spark::SparkRunner& runner,
                                     const WorkloadTuple& t,
                                     const std::string& dir);

/// Observed accuracy numbers from DiffQuantizationAccuracy, for aggregation
/// into the golden workload-matrix agreement test (differential_test.cc).
struct QuantAccuracyReport {
  /// max over candidates of |quant - exact| / max(|exact|, 1e-9).
  double max_rel_error = 0.0;
  /// Exact-score regret of the quantized argmin relative to the exact
  /// argmin: (exact[q*] - exact[e*]) / max(exact[e*], 1e-9). Zero when the
  /// top-1 candidate agrees exactly.
  double top1_regret = 0.0;
  bool top1_exact_match = false;
};

/// Quantized-backend accuracy (the quantization error bound): scores the
/// candidate set with the exact fp32 tower and with `backend`, and checks
///   * quantized scores are bit-identical across `thread_counts` (the
///     ordered-reduction contract extends to the quantized path);
///   * when the AVX2 kernels are compiled in and the CPU supports them,
///     generic and AVX2 quantized scores are bit-identical (integer dots
///     are exact; the fp16 path fixes its reduction tree) — the kernel ISA
///     may never leak into scores. Twin encoder caches are flushed between
///     ISA passes so cached encodings cannot mask a CNN divergence.
///     Restores the process-wide ISA override before returning;
///   * every candidate's relative score error is <= `max_rel_error`.
/// On success `report` (optional) carries the observed error and the top-1
/// regret of the quantized argmin.
DiffResult DiffQuantizationAccuracy(
    const spark::SparkRunner* runner, const Corpus& feature_space,
    const std::vector<const NecsModel*>& models, const WorkloadTuple& t,
    const std::vector<spark::Config>& candidates, QuantBackend backend,
    double max_rel_error, const std::vector<size_t>& thread_counts,
    QuantAccuracyReport* report = nullptr);

/// Quantized-backend transparency (the `quant_transparency` invariant):
/// with the backend left at its kExactFp32 default, ScoreCandidateSet must
/// be bit-identical to the exact ReferenceScores for every thread count.
/// Shipping the quantized kernels may not move one bit of the default
/// serving path.
DiffResult DiffQuantTransparency(
    const spark::SparkRunner* runner, const Corpus& feature_space,
    const std::vector<const NecsModel*>& models, const WorkloadTuple& t,
    const std::vector<spark::Config>& candidates,
    const std::vector<size_t>& thread_counts);

/// Retrieval-cache transparency (the `retrieval_transparency` invariant),
/// checked across scoring thread counts 1/4/8:
///   * cache-disabled vs cache-enabled-but-cold must be bit-identical — an
///     empty index seeds nothing and a cold memo hits nothing, so enabling
///     the cache may not perturb a single bit;
///   * a second identical request on the enabled service must be a memo hit
///     (from_cache) replaying the first response's Recommendation verbatim
///     — config, predicted seconds, candidate count and recorded wall time
///     all bit-identical.
/// `dir` must hold a saved snapshot.
DiffResult DiffRetrievalTransparency(const spark::SparkRunner& runner,
                                     const WorkloadTuple& t,
                                     const std::string& dir);

/// Stage-tuning transparency (the structurally-inert guarantee of
/// ServiceOptions::stage_tuning), checked across scoring thread counts
/// 1/4/8 and the exact, int8 and fp16 scoring backends:
///   * with stage tuning enabled but no staged endpoint exercised, plain
///     Recommend must be bit-identical to a stage-tuning-disabled service
///     — config, predicted seconds and candidate count;
///   * RecommendStaged's embedded base response must be that same
///     bit-identical recommendation (it takes the exact Recommend path);
///   * a plain Recommend issued *after* a staged request must still match
///     the disabled service — planning leaves no residue in serving state.
/// `dir` must hold a saved snapshot.
DiffResult DiffStageTuningTransparency(const spark::SparkRunner& runner,
                                       const WorkloadTuple& t,
                                       const std::string& dir);

}  // namespace lite::testkit

#endif  // LITE_TESTKIT_DIFF_H_
