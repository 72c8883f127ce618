// Per-stage knob planning and AQE-style mid-job re-tuning.
//
// The planner is evaluator-abstracted: it searches per-stage overrides
// against a StageEvalFn — a deterministic function (stage, iteration,
// config) -> predicted seconds that may keep state (the NECS stage-head
// evaluator repeats its last answer), so the planner calls each one from
// one thread. Callers plug in either the simulator's quiet cost model
// (oracle, benchmarks) or the NECS per-stage head (serving). Because the
// cost model's RunStage is pure per stage, per-stage coordinate search
// decomposes exactly: improving one stage cannot hurt another, which is
// what makes the `stage_override_dominance` oracle invariant hold by
// construction.
//
// Re-tuning follows Spark AQE's shape: after some stages have completed,
// compare observed stage runtimes against predictions, derive a
// multiplicative data-scale correction, and re-plan only the not-yet-run
// stages under the corrected evaluator. The correction enters through the
// *data scale* (factory(r) rebuilds the evaluator over rescaled data), not
// as a flat time multiplier — a flat multiplier would cancel out of every
// argmin and could never change a decision.
//
// Inertness contract (`retune_inertness` oracle invariant): when observed
// runtimes equal predictions bit for bit, the correction is exactly 1.0
// (x/x == 1.0 in IEEE arithmetic), factory(1.0) rebuilds bit-identical
// inputs, and the deterministic re-plan reproduces the original overrides
// with zero deltas.
//
// Correction formula (the oracle re-derives this independently, so it is
// part of the API contract): over the last min(n, kObservationWindow)
// observed events, in event order, sum observed seconds and predicted
// seconds — skipping events whose stage index is out of range or whose
// prediction fails — then correction = clamp(obs/pred, 0.25, 4.0), or 1.0
// when the predicted sum is not positive.
#ifndef LITE_SPARKSIM_STAGE_PLANNER_H_
#define LITE_SPARKSIM_STAGE_PLANNER_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "sparksim/application.h"
#include "sparksim/cost_model.h"
#include "sparksim/environment.h"
#include "sparksim/eventlog.h"
#include "sparksim/stage_config.h"

namespace lite::spark {

/// Predicted cost of one stage execution under a concrete config.
struct StageEvalResult {
  double seconds = 0.0;
  bool failed = false;
};

/// Deterministic per-stage cost oracle: (stage index, iteration, effective
/// config). It may keep state: call one instance from one thread at a time.
using StageEvalFn =
    std::function<StageEvalResult(size_t, int, const Config&)>;

/// Rebuilds a StageEvalFn with the observed/predicted data-scale
/// correction applied (1.0 = the original evaluator, bit for bit).
using StageEvalFactory = std::function<StageEvalFn(double)>;

/// The catalog of intentional planner bugs behind
/// StagePlannerOptions::mutation, mirroring CostModelMutation:
/// tools/mutation_check flips each id and proves the stage-tuning oracle
/// invariants flag the mutated planner. Production leaves this at kNone.
enum StageTuningMutation : int {
  kStageMutNone = 0,
  /// Overrides recorded against the *next* stage index — the classic
  /// off-by-one between the planned stage id and AQE's replanned stage.
  kStageMutWrongStageIndex = 1,
  /// Acceptance test inverted: the search keeps strictly *worsening*
  /// candidates.
  kStageMutInvertedDominance = 2,
  /// Observation window shifted one event into the past: the newest
  /// completed stage never informs the correction.
  kStageMutStaleObservations = 3,
  /// Candidate grid overshoots the knob's legal maximum and records the
  /// raw, unclamped value in the plan.
  kStageMutUnclampedOverride = 4,
  kNumStageMutations = 5,  ///< ids are 1 .. kNumStageMutations - 1.
};

struct StagePlannerOptions {
  /// Grid resolution of the per-knob coordinate search.
  int values_per_knob = 5;
  /// Test-only planner bug injection (StageTuningMutation).
  int mutation = 0;
};

/// Result of planning per-stage overrides on top of a base config.
struct StagePlan {
  StagedConfig staged;
  /// Predicted total seconds of the base config (every stage un-overridden)
  /// under the planning evaluator.
  double baseline_seconds = 0.0;
  /// Predicted total seconds of the planned staged config, accumulated
  /// stage-major from the search's own per-stage sums. An independent
  /// re-prediction of `staged` with the same evaluator reproduces this
  /// bit for bit — the consistency leg of `stage_override_dominance`.
  double planned_seconds = 0.0;
  /// True when the base config already fails under the evaluator; the plan
  /// then carries no new overrides.
  bool baseline_failed = false;
  bool ok = false;
};

/// Result of a mid-job re-tune.
struct RetuneResult {
  StagedConfig staged;
  /// The observed/predicted data-scale correction (see header comment).
  double correction = 1.0;
  /// First not-yet-observed stage: 1 + the largest observed stage index.
  /// Overrides of stages below the frontier are kept verbatim (those
  /// stages already ran); stages at or above it are re-planned.
  size_t frontier = 0;
  bool ok = false;
};

class StagePlanner {
 public:
  /// Observation window of the correction estimate (newest events).
  static constexpr size_t kObservationWindow = 8;

  explicit StagePlanner(StagePlannerOptions options = {})
      : options_(options) {}

  /// Greedy per-stage, per-knob coordinate search over the stage-tunable
  /// knobs. A candidate override is kept only on strict improvement of its
  /// own stage's predicted time, and failed candidate evaluations are
  /// rejected outright — so the planned config never loses to the base
  /// under the planning evaluator.
  StagePlan Plan(const ApplicationSpec& app, int iterations,
                 const Config& base, const StageEvalFn& eval) const;

  /// AQE-style re-tune: derive the data-scale correction from observed
  /// stage events (see header comment for the exact formula), keep the
  /// overrides of already-run stages, and re-plan the remaining stages
  /// under factory(correction). With an empty observation list the input
  /// is returned verbatim.
  RetuneResult Retune(const ApplicationSpec& app, int iterations,
                      const StagedConfig& current,
                      const std::vector<StageEvent>& observed,
                      const StageEvalFactory& factory) const;

  const StagePlannerOptions& options() const { return options_; }

 private:
  /// Shared search core: keeps `seed`'s overrides for stages below
  /// `first_stage`, searches every stage at or above it.
  StagePlan PlanRange(const ApplicationSpec& app, int iterations,
                      const StagedConfig& seed, size_t first_stage,
                      const StageEvalFn& eval) const;

  StagePlannerOptions options_;
};

/// Predicted total seconds of a staged config: stage-major, per-stage sums
/// added in stage order — the exact accumulation order of the planner's
/// search, so clean plans re-predict bit-identically. Sets *failed (when
/// non-null) if any stage evaluation fails.
double PredictStagedSeconds(const ApplicationSpec& app, int iterations,
                            const StagedConfig& staged,
                            const StageEvalFn& eval, bool* failed);

/// Number of executions of stage `stage_index` in a run with `iterations`
/// iterations (1 for non-per-iteration stages).
int StageReps(const ApplicationSpec& app, size_t stage_index, int iterations);

/// Resolved iteration count of a run — the cost model's own rule.
int ResolveIterations(const ApplicationSpec& app, const DataSpec& data);

/// Evaluator over the simulator: factory(scale) closes over a copy of
/// `data` with size_mb (and num_rows, when explicit) multiplied by the
/// scale, then answers with CostModel::RunStage. factory(1.0) reproduces
/// the unscaled data bit for bit. Pass a quiet model (noise_sigma = 0) for
/// planning; a noisy evaluator would make the search chase noise.
StageEvalFactory MakeSimulatorStageEvalFactory(const CostModel* model,
                                               const ApplicationSpec* app,
                                               const DataSpec& data,
                                               const ClusterEnv* env);

}  // namespace lite::spark

#endif  // LITE_SPARKSIM_STAGE_PLANNER_H_
