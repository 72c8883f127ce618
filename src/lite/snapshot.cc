#include "lite/snapshot.h"

#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "lite/features.h"
#include "ml/serialization.h"
#include "modelplane/blob.h"
#include "modelplane/wire.h"
#include "nn/module.h"
#include "obs/metrics.h"
#include "util/atomic_file.h"
#include "util/logging.h"

namespace lite {

namespace {
constexpr char kMetaMagic[] = "litesnapshot";
constexpr char kMetaVersion[] = "v1";
/// The manifest version a snapshot file is checksummed at. Plane versions
/// belong to a running plane, not to the bytes on disk.
constexpr uint64_t kFileManifestVersion = 0;

/// Everything the writers need, decoupled from whether the source is a
/// LiteSystem (offline training) or a LoadedLiteModel (a served snapshot
/// being republished to the model plane after an adaptive update).
struct SnapshotView {
  size_t max_code_tokens = 0;
  size_t bow_dims = 0;
  size_t num_candidates = 0;
  uint64_t seed = 0;
  NecsConfig necs;
  const TokenVocab* vocab = nullptr;
  const spark::OpVocab* op_vocab = nullptr;
  std::vector<std::vector<VarPtr>> members;
  std::vector<VarPtr> stage_head;  ///< empty = no per-stage head.
  const CandidateGenerator* acg = nullptr;
};

/// Renders every part of the snapshot as a named blob. Returns false when
/// any component writer fails.
bool RenderSnapshotBlobs(const SnapshotView& v,
                         std::map<std::string, std::string>* blobs) {
  blobs->clear();
  {
    std::ostringstream out;
    v.vocab->Serialize(&out);
    if (!out) return false;
    (*blobs)["vocab.txt"] = out.str();
  }
  {
    std::ostringstream out;
    v.op_vocab->Serialize(&out);
    if (!out) return false;
    (*blobs)["opvocab.txt"] = out.str();
  }
  for (size_t i = 0; i < v.members.size(); ++i) {
    std::ostringstream out;
    if (!SerializeParams(v.members[i], &out)) return false;
    (*blobs)["necs_" + std::to_string(i) + ".txt"] = out.str();
  }
  if (!v.stage_head.empty()) {
    std::ostringstream out;
    if (!SerializeParams(v.stage_head, &out)) return false;
    (*blobs)["stagehead.txt"] = out.str();
  }
  {
    std::ostringstream out;
    out << "acg v1 " << v.acg->forests().size() << "\n";
    out.precision(17);
    for (double s : v.acg->sigmas()) out << s << " ";
    out << "\n";
    for (const auto& f : v.acg->forests()) SerializeForest(f, &out);
    if (!out) return false;
    (*blobs)["acg.txt"] = out.str();
  }
  {
    std::ostringstream meta;
    meta << kMetaMagic << " " << kMetaVersion << "\n";
    meta << "ensemble " << v.members.size() << "\n";
    meta << "max_code_tokens " << v.max_code_tokens << "\n";
    meta << "bow_dims " << v.bow_dims << "\n";
    meta << "num_candidates " << v.num_candidates << "\n";
    meta << "seed " << v.seed << "\n";
    meta << "necs " << v.necs.emb_dim << " " << v.necs.cnn_kernels << " "
         << v.necs.code_dim << " " << v.necs.gcn_hidden << " "
         << v.necs.gcn_layers << " " << v.necs.mlp_hidden << " "
         << v.necs.cnn_widths.size();
    for (size_t w : v.necs.cnn_widths) meta << " " << w;
    meta << "\n";
    meta << "encoders " << (v.necs.use_code_encoder ? 1 : 0) << " "
         << (v.necs.use_dag_encoder ? 1 : 0) << "\n";
    if (!v.stage_head.empty()) {
      // Readers that predate per-stage tuning skip this unknown key (and
      // never look for stagehead.txt) — forward compatible by design.
      meta << "stagehead 1\n";
    }
    if (!meta) return false;
    (*blobs)["meta.txt"] = meta.str();
  }
  return true;
}

bool ViewOfSystem(const LiteSystem& system, SnapshotView* v) {
  if (!system.trained()) return false;
  const Corpus& corpus = system.corpus();
  v->max_code_tokens = corpus.max_code_tokens;
  v->bow_dims = corpus.bow_dims;
  v->num_candidates = system.options().num_candidates;
  v->seed = system.options().seed;
  v->necs = system.options().necs;
  v->vocab = corpus.vocab.get();
  v->op_vocab = corpus.op_vocab.get();
  for (size_t i = 0; i < system.ensemble_size(); ++i) {
    const NecsModel* m = system.ensemble_member(i);
    if (m == nullptr) return false;
    v->members.push_back(m->Params());
  }
  if (system.stage_head() != nullptr) {
    v->stage_head = system.stage_head()->Params();
  }
  v->acg = &system.candidate_generator();
  return true;
}

}  // namespace

bool SaveSnapshot(const LiteSystem& system, const std::string& dir) {
  std::map<std::string, std::string> blobs;
  if (!EncodeSnapshotBlobs(system, &blobs) || !WriteSnapshotBlobs(blobs, dir)) {
    obs::MetricsRegistry::Global()
        .GetCounter("lite_snapshot_save_failed_total")
        ->Inc();
    return false;
  }
  return true;
}

bool WriteSnapshotBlobs(const std::map<std::string, std::string>& blobs,
                        const std::string& dir) {
  std::vector<modelplane::Blob> list;
  list.reserve(blobs.size());
  for (const auto& [key, bytes] : blobs) list.push_back({key, bytes});
  std::string file;
  if (!modelplane::EncodeContainer(
          modelplane::BuildManifest(kFileManifestVersion, blobs), list,
          &file)) {
    return false;
  }
  AtomicFileWriter w(dir + "/" + kSnapshotFile);
  if (!w.ok()) return false;
  w.stream().write(file.data(), static_cast<std::streamsize>(file.size()));
  return w.Commit();
}

bool SnapshotExists(const std::string& dir) {
  std::ifstream file(dir + "/" + kSnapshotFile);
  return static_cast<bool>(file);
}

bool EncodeSnapshotBlobs(const LiteSystem& system,
                         std::map<std::string, std::string>* blobs) {
  SnapshotView v;
  return ViewOfSystem(system, &v) && RenderSnapshotBlobs(v, blobs);
}

bool LoadedLiteModel::EncodeBlobs(
    std::map<std::string, std::string>* blobs) const {
  SnapshotView v;
  v.max_code_tokens = feature_space_.max_code_tokens;
  v.bow_dims = feature_space_.bow_dims;
  v.num_candidates = num_candidates_;
  v.seed = seed_;
  v.necs = necs_config_;
  v.vocab = feature_space_.vocab.get();
  v.op_vocab = feature_space_.op_vocab.get();
  for (const auto& m : models_) v.members.push_back(m->Params());
  if (stage_head_ != nullptr) v.stage_head = stage_head_->Params();
  v.acg = &acg_;
  return RenderSnapshotBlobs(v, blobs);
}

std::unique_ptr<LoadedLiteModel> LoadedLiteModel::Load(
    const std::string& dir, const spark::SparkRunner* runner) {
  const std::string path = dir + "/" + kSnapshotFile;
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return nullptr;  // no snapshot here (yet).
  const std::streamoff size = in.tellg();
  if (size < 0) return nullptr;
  std::string file(static_cast<size_t>(size), '\0');
  in.seekg(0);
  if (!in.read(file.data(), size)) return nullptr;
  modelplane::Manifest manifest;
  std::vector<modelplane::Blob> list;
  std::string why = "trailing bytes after the container";
  size_t pos = 0;
  if (!modelplane::DecodeContainer(file, &pos, kFileManifestVersion,
                                   modelplane::BlobCheck::kComplete,
                                   &manifest, &list, &why) ||
      pos != file.size()) {
    LITE_WARN << "snapshot '" << path << "' rejected whole: " << why;
    return nullptr;
  }
  std::map<std::string, std::string> blobs;
  for (modelplane::Blob& b : list) {
    blobs.emplace(std::move(b.key), std::move(b.bytes));
  }
  return LoadFromBlobs(blobs, runner);
}

std::unique_ptr<LoadedLiteModel> LoadedLiteModel::LoadFromBlobs(
    const std::map<std::string, std::string>& blobs,
    const spark::SparkRunner* runner) {
  // Parts are parsed straight from the blob set; their bytes were checked
  // against the manifest once, by whoever assembled the set (the snapshot
  // file's container decoder, or a shard's VerifyBlobSet after a pull).
  const auto part = [&blobs](const std::string& name) -> const std::string* {
    auto it = blobs.find(name);
    return it == blobs.end() ? nullptr : &it->second;
  };
  auto loaded = std::unique_ptr<LoadedLiteModel>(new LoadedLiteModel());
  loaded->runner_ = runner;

  size_t ensemble = 0;
  bool has_stage_head = false;
  NecsConfig necs;
  {
    const std::string* meta_bytes = part("meta.txt");
    if (meta_bytes == nullptr) return nullptr;
    std::istringstream meta(*meta_bytes);
    std::string magic, version, key;
    if (!(meta >> magic >> version) || magic != kMetaMagic ||
        version != kMetaVersion) {
      return nullptr;
    }
    size_t widths = 0;
    while (meta >> key) {
      if (key == "ensemble") {
        meta >> ensemble;
      } else if (key == "max_code_tokens") {
        meta >> loaded->feature_space_.max_code_tokens;
      } else if (key == "bow_dims") {
        meta >> loaded->feature_space_.bow_dims;
      } else if (key == "num_candidates") {
        meta >> loaded->num_candidates_;
      } else if (key == "seed") {
        meta >> loaded->seed_;
      } else if (key == "necs") {
        meta >> necs.emb_dim >> necs.cnn_kernels >> necs.code_dim >>
            necs.gcn_hidden >> necs.gcn_layers >> necs.mlp_hidden >> widths;
        necs.cnn_widths.assign(widths, 0);
        for (auto& w : necs.cnn_widths) meta >> w;
      } else if (key == "encoders") {
        int code = 1, dag = 1;
        meta >> code >> dag;
        necs.use_code_encoder = code != 0;
        necs.use_dag_encoder = dag != 0;
      } else if (key == "stagehead") {
        int flag = 0;
        meta >> flag;
        has_stage_head = flag != 0;
      } else {
        // Unknown key: a snapshot from a newer writer that appended meta
        // fields. Skip the rest of the line instead of hard-failing so
        // older binaries stay forward-compatible; malformed values of
        // *known* keys below still reject the snapshot.
        std::string rest;
        std::getline(meta, rest);
        LITE_WARN << "snapshot meta: skipping unknown key '" << key << "'";
        continue;
      }
      if (!meta) return nullptr;
    }
    if (ensemble == 0 || ensemble > 64) return nullptr;
  }
  const std::string* bytes = nullptr;
  {
    if ((bytes = part("vocab.txt")) == nullptr) return nullptr;
    std::istringstream in(*bytes);
    auto vocab = std::make_shared<TokenVocab>();
    if (!TokenVocab::Deserialize(&in, vocab.get())) return nullptr;
    loaded->feature_space_.vocab = std::move(vocab);
  }
  {
    if ((bytes = part("opvocab.txt")) == nullptr) return nullptr;
    std::istringstream in(*bytes);
    auto opvocab = std::make_shared<spark::OpVocab>();
    if (!spark::OpVocab::Deserialize(&in, opvocab.get())) return nullptr;
    loaded->feature_space_.op_vocab = std::move(opvocab);
  }
  loaded->necs_config_ = necs;
  for (size_t i = 0; i < ensemble; ++i) {
    if ((bytes = part("necs_" + std::to_string(i) + ".txt")) == nullptr) {
      return nullptr;
    }
    std::istringstream in(*bytes);
    auto model = std::make_unique<NecsModel>(
        loaded->feature_space_.vocab->size(),
        loaded->feature_space_.op_vocab->size(), necs, /*seed=*/1);
    if (!DeserializeParams(&in, model->Params())) return nullptr;
    loaded->models_.push_back(std::move(model));
  }
  if (has_stage_head) {
    // The head's dims are fixed by the NECS encoder widths already parsed
    // above; DeserializeParams rejects any shape mismatch, so a corrupted
    // or truncated stagehead.txt fails the whole load cleanly.
    if ((bytes = part("stagehead.txt")) == nullptr) return nullptr;
    std::istringstream in(*bytes);
    auto head = std::make_unique<StageHead>(necs.code_dim, necs.gcn_hidden,
                                            /*seed=*/1);
    if (!DeserializeParams(&in, head->Params())) return nullptr;
    loaded->stage_head_ = std::move(head);
  }
  {
    if ((bytes = part("acg.txt")) == nullptr) return nullptr;
    std::istringstream in(*bytes);
    std::string magic, version;
    size_t count = 0;
    if (!(in >> magic >> version >> count) || magic != "acg" || version != "v1") {
      return nullptr;
    }
    if (count != spark::KnobSpace::Spark16().size()) return nullptr;
    std::vector<double> sigmas(count);
    for (double& s : sigmas) {
      if (!(in >> s)) return nullptr;
    }
    std::vector<RandomForestRegressor> forests(count);
    for (auto& f : forests) {
      if (!DeserializeForest(&in, &f)) return nullptr;
    }
    loaded->acg_.Restore(std::move(forests), std::move(sigmas));
  }
  return loaded;
}

std::vector<double> LoadedLiteModel::ScoreCandidates(
    const spark::ApplicationSpec& app, const spark::DataSpec& data,
    const spark::ClusterEnv& env,
    const std::vector<spark::Config>& candidates) const {
  LITE_CHECK(!models_.empty()) << "LoadedLiteModel not initialized";
  std::vector<const NecsModel*> models;
  models.reserve(models_.size());
  for (const auto& m : models_) models.push_back(m.get());
  return serve::ScoreCandidateSet(runner_, feature_space_, models, app, data,
                                  env, candidates, scoring_);
}

LiteSystem::Recommendation LoadedLiteModel::Recommend(
    const spark::ApplicationSpec& app, const spark::DataSpec& data,
    const spark::ClusterEnv& env) const {
  LITE_CHECK(!models_.empty()) << "LoadedLiteModel not initialized";
  serve::PipelineContext ctx;
  ctx.acg = &acg_;
  ctx.num_candidates = num_candidates_;
  ctx.seed = seed_;
  return serve::RunRecommendPipeline(
      ctx, app, data, env, [&](const std::vector<spark::Config>& candidates) {
        return ScoreCandidates(app, data, env, candidates);
      });
}

std::vector<double> LoadedLiteModel::WorkloadEmbedding(
    const spark::ApplicationSpec& app, const spark::DataSpec& data,
    const spark::ClusterEnv& env) const {
  LITE_CHECK(!models_.empty()) << "LoadedLiteModel not initialized";
  // Featurize with the default configuration: code tokens, DAG, data and
  // env features are knob-independent, so any reference config yields the
  // same encoder inputs (and therefore the same encoder-cache entries) as
  // the candidates scored for this workload.
  CorpusBuilder builder(runner_);
  CandidateEval ce = builder.FeaturizeCandidate(
      feature_space_, app, data, env,
      spark::KnobSpace::Spark16().DefaultConfig());
  const NecsModel* model = models_[0].get();
  std::vector<double> pooled;
  double stages = 0.0;
  for (const StageInstance& inst : ce.stage_instances) {
    std::pair<Tensor, Tensor> enc = model->StageEncodings(inst);
    const std::vector<float>& code = enc.first.vec();
    const std::vector<float>& dag = enc.second.vec();
    if (pooled.empty()) pooled.assign(code.size() + dag.size(), 0.0);
    if (pooled.size() != code.size() + dag.size()) continue;  // defensive.
    for (size_t i = 0; i < code.size(); ++i) pooled[i] += code[i];
    for (size_t i = 0; i < dag.size(); ++i) pooled[code.size() + i] += dag[i];
    stages += 1.0;
  }
  if (stages > 0.0) {
    for (double& v : pooled) v /= stages;
  }
  for (double v : NormalizeDataFeature(data)) pooled.push_back(v);
  for (double v : NormalizeEnvFeature(env)) pooled.push_back(v);
  return pooled;
}

std::unique_ptr<LoadedLiteModel> LoadedLiteModel::Clone() const {
  auto clone = std::unique_ptr<LoadedLiteModel>(new LoadedLiteModel());
  clone->runner_ = runner_;
  clone->feature_space_ = feature_space_;  // vocabularies shared (immutable).
  clone->necs_config_ = necs_config_;
  clone->acg_ = acg_;
  clone->num_candidates_ = num_candidates_;
  clone->seed_ = seed_;
  clone->scoring_ = scoring_;
  for (const auto& m : models_) {
    auto copy = std::make_unique<NecsModel>(feature_space_.vocab->size(),
                                            feature_space_.op_vocab->size(),
                                            necs_config_, /*seed=*/1);
    CopyParams(m->Params(), copy->Params());
    copy->InvalidateCache();
    clone->models_.push_back(std::move(copy));
  }
  if (stage_head_ != nullptr) {
    auto head = std::make_unique<StageHead>(stage_head_->code_dim(),
                                            stage_head_->dag_dim(),
                                            /*seed=*/1);
    CopyParams(stage_head_->Params(), head->Params());
    clone->stage_head_ = std::move(head);
  }
  return clone;
}

spark::StagePlan LoadedLiteModel::PlanStages(
    const spark::ApplicationSpec& app, const spark::DataSpec& data,
    const spark::ClusterEnv& env, const spark::Config& base,
    const spark::StagePlannerOptions& opts) const {
  LITE_CHECK(stage_head_ != nullptr) << "PlanStages: snapshot has no stage head";
  spark::StageEvalFactory factory = MakeStageHeadEvalFactory(
      stage_head_.get(), models_[0].get(), runner_, &feature_space_, &app,
      data, &env);
  spark::StagePlanner planner(opts);
  return planner.Plan(app, spark::ResolveIterations(app, data), base,
                      factory(1.0));
}

spark::RetuneResult LoadedLiteModel::RetuneStages(
    const spark::ApplicationSpec& app, const spark::DataSpec& data,
    const spark::ClusterEnv& env, const spark::StagedConfig& current,
    const std::vector<spark::StageEvent>& observed,
    const spark::StagePlannerOptions& opts) const {
  LITE_CHECK(stage_head_ != nullptr)
      << "RetuneStages: snapshot has no stage head";
  spark::StageEvalFactory factory = MakeStageHeadEvalFactory(
      stage_head_.get(), models_[0].get(), runner_, &feature_space_, &app,
      data, &env);
  spark::StagePlanner planner(opts);
  return planner.Retune(app, spark::ResolveIterations(app, data), current,
                        observed, factory);
}

}  // namespace lite
