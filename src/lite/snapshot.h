// LiteSystem snapshots: persist a trained system (vocabularies, NECS
// ensemble weights, candidate-generator forests) and restore it later
// without re-running the offline collection phase. This is how a
// production deployment ships the tuner: train once where the small-data
// cluster lives, load everywhere else.
//
// A snapshot is a set of named blobs (EncodeSnapshotBlobs):
//   meta.txt        format version, NECS config, ensemble size, dims
//   vocab.txt       token vocabulary
//   opvocab.txt     DAG operation vocabulary
//   necs_<i>.txt    parameter tensors of ensemble member i
//   acg.txt         per-knob random forests + sigmas
//   stagehead.txt   per-stage head parameters (only when trained; its
//                   presence is announced by the `stagehead` meta key)
//
// On disk a snapshot directory holds one file, <dir>/snapshot.blobs: the
// blob set as one model-plane container (modelplane/wire.h) — a manifest
// of every blob's size and content hash, then the blobs. The plane ships
// the same container inside its push frames, so disk and wire share one
// format and one decoder. Quantized (int8/fp16) twins are not stored: they
// are derived from the fp32 weights on first use (NecsModel::Quantized).
//
// A snapshot restores everything Recommend() needs. The offline instance
// corpus itself is not persisted, so adaptive updates after a restore use
// only newly collected feedback as the source-domain sample (documented
// limitation).
#ifndef LITE_LITE_SNAPSHOT_H_
#define LITE_LITE_SNAPSHOT_H_

#include <map>
#include <string>

#include "lite/lite_system.h"
#include "serve/recommend_pipeline.h"

namespace lite {

/// The one file in a snapshot directory.
inline constexpr char kSnapshotFile[] = "snapshot.blobs";

/// Saves a trained system into `dir`: EncodeSnapshotBlobs, then
/// WriteSnapshotBlobs. Failures bump `lite_snapshot_save_failed_total`.
/// The directory must already exist.
bool SaveSnapshot(const LiteSystem& system, const std::string& dir);

/// Writes `blobs` as the snapshot file of `dir`: one container, staged to
/// a temp file and committed by a single rename (util/atomic_file.h). A
/// crash or failure mid-save leaves the previously committed snapshot
/// loadable byte-for-byte.
bool WriteSnapshotBlobs(const std::map<std::string, std::string>& blobs,
                        const std::string& dir);

/// Returns true when `dir` holds a snapshot file. False means "no
/// snapshot" — either nothing was ever saved there or the first save
/// aborted before its rename; Load returns nullptr for both without
/// logging a corruption warning.
bool SnapshotExists(const std::string& dir);

/// Encodes a snapshot as named blobs (the list in the file comment; value
/// == the part's exact bytes). This is the model-distribution plane's
/// publication format (src/modelplane/): a blob set produced here, shipped
/// over the wire and decoded with LoadedLiteModel::LoadFromBlobs yields a
/// model bit-identical to one restored from a saved snapshot.
bool EncodeSnapshotBlobs(const LiteSystem& system,
                         std::map<std::string, std::string>* blobs);

/// A restored, recommend-ready subset of LiteSystem. Recommend() runs the
/// same serve::RunRecommendPipeline as LiteSystem — identical candidate
/// stream, metrics, spans and argmin semantics — and honours the same
/// scoring options (thread count, batched vs scalar path).
///
/// Forward compatibility: loading skips unknown meta.txt keys with a
/// warning (consuming the rest of the line), so snapshots written by newer
/// binaries that append meta fields still load; malformed values of known
/// keys and structural damage still fail cleanly with nullptr.
class LoadedLiteModel {
 public:
  /// Loads the snapshot file of `dir`; returns nullptr on failure. A
  /// missing file is "no snapshot", not corruption. The file is decoded by
  /// the container decoder a shard's pull runs, checking every blob once
  /// against the manifest (BlobCheck::kComplete): a blob whose size or
  /// content hash disagrees with its entry, or a missing or extra blob,
  /// fails the whole load. The blobs then go through LoadFromBlobs.
  static std::unique_ptr<LoadedLiteModel> Load(const std::string& dir,
                                               const spark::SparkRunner* runner);

  /// Restores from an in-memory blob set (EncodeSnapshotBlobs's format,
  /// the model plane's wire payload). Bit-identical to Load() on a
  /// snapshot holding the same blobs.
  static std::unique_ptr<LoadedLiteModel> LoadFromBlobs(
      const std::map<std::string, std::string>& blobs,
      const spark::SparkRunner* runner);

  /// Encodes this model back into the named-blob form (the format
  /// EncodeSnapshotBlobs documents). The serving layer publishes adaptive
  /// updates to the model plane with this: encode(clone) after a fine-tune,
  /// push the changed blobs. Deterministic: identical weights encode to
  /// identical bytes, so unchanged parts hash unchanged (delta pushes).
  bool EncodeBlobs(std::map<std::string, std::string>* blobs) const;

  /// Same contract as LiteSystem::Recommend.
  LiteSystem::Recommendation Recommend(const spark::ApplicationSpec& app,
                                       const spark::DataSpec& data,
                                       const spark::ClusterEnv& env) const;

  /// Scores an explicit candidate list under the configured scoring
  /// options (same contract as LiteSystem::ScoreCandidates).
  std::vector<double> ScoreCandidates(
      const spark::ApplicationSpec& app, const spark::DataSpec& data,
      const spark::ClusterEnv& env,
      const std::vector<spark::Config>& candidates) const;

  /// Deep copy (model weights included, encoder caches cold). The serving
  /// hot-swap path fine-tunes a clone off-path and swaps it in, so the
  /// snapshot being served is never mutated.
  std::unique_ptr<LoadedLiteModel> Clone() const;

  size_t ensemble_size() const { return models_.size(); }
  const NecsModel* model(size_t i = 0) const { return models_[i].get(); }
  /// Mutable member access for off-path fine-tuning of a Clone(). Never
  /// call on a model that is concurrently serving.
  NecsModel* mutable_model(size_t i) { return models_[i].get(); }
  const Corpus& feature_space() const { return feature_space_; }
  const CandidateGenerator& candidate_generator() const { return acg_; }
  size_t num_candidates() const { return num_candidates_; }
  uint64_t seed() const { return seed_; }

  /// Snapshot generation: a monotone version number assigned by the serving
  /// layer when the model is installed (serve::TuningService). Carried *on*
  /// the model — not in a separate atomic — so a request that copies the
  /// snapshot pointer reads the (model, generation) pair atomically; the
  /// retrieval cache keys memoized responses on it, which is what makes a
  /// stale-generation cache hit structurally impossible across hot-swaps.
  /// 0 = never installed (direct LoadedLiteModel use).
  uint64_t generation() const { return generation_; }
  void set_generation(uint64_t g) { generation_ = g; }

  /// Knob-independent workload embedding for (app, data, env): member 0's
  /// cached NECS stage encodings (h_code, h_DAG) mean-pooled across the
  /// application's stage specs, concatenated with the normalized data (4)
  /// and environment (6) features. The encodings come from the same
  /// per-(app, stage, datasize) encoder cache candidate scoring fills, so
  /// after any scoring pass over this workload the embedding is a pure
  /// cache read — no extra forward passes. Deterministic for a fixed
  /// model: identical workloads embed identically bit for bit.
  std::vector<double> WorkloadEmbedding(const spark::ApplicationSpec& app,
                                        const spark::DataSpec& data,
                                        const spark::ClusterEnv& env) const;

  /// Scoring options used by Recommend/ScoreCandidates (defaults match
  /// LiteOptions: batched, one worker per core).
  const serve::ScoringOptions& scoring() const { return scoring_; }
  void set_scoring(const serve::ScoringOptions& s) { scoring_ = s; }

  /// The restored per-stage head; nullptr when the snapshot carries none.
  const StageHead* stage_head() const { return stage_head_.get(); }

  /// Plans per-stage overrides on top of `base` with the restored head
  /// (sparksim/stage_planner.h). Callers must check stage_head() != nullptr.
  /// The head always evaluates in exact fp32 regardless of the configured
  /// scoring backend.
  spark::StagePlan PlanStages(const spark::ApplicationSpec& app,
                              const spark::DataSpec& data,
                              const spark::ClusterEnv& env,
                              const spark::Config& base,
                              const spark::StagePlannerOptions& opts) const;

  /// AQE-style re-tune of `current` from observed stage events (see the
  /// planner header for the correction formula and inertness contract).
  spark::RetuneResult RetuneStages(
      const spark::ApplicationSpec& app, const spark::DataSpec& data,
      const spark::ClusterEnv& env, const spark::StagedConfig& current,
      const std::vector<spark::StageEvent>& observed,
      const spark::StagePlannerOptions& opts) const;

 private:
  LoadedLiteModel() = default;

  const spark::SparkRunner* runner_ = nullptr;
  Corpus feature_space_;  ///< vocabularies + dims only (no instances).
  std::vector<std::unique_ptr<NecsModel>> models_;
  std::unique_ptr<StageHead> stage_head_;
  NecsConfig necs_config_;  ///< kept for Clone().
  CandidateGenerator acg_;
  size_t num_candidates_ = 60;
  uint64_t seed_ = 41;
  uint64_t generation_ = 0;
  serve::ScoringOptions scoring_;
};

}  // namespace lite

#endif  // LITE_LITE_SNAPSHOT_H_
