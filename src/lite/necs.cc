#include "lite/necs.h"

#include <cmath>
#include <mutex>

#include "lite/qnecs.h"
#include "obs/metrics.h"
#include "tensor/optimizer.h"
#include "util/logging.h"

namespace lite {

using namespace ops;

namespace {
// Encoder-cache observability. The invariant hits + misses == lookups is
// checked by the metrics-consistency tests; warm-cache inserts are counted
// separately because WarmEncoderCache batch-computes entries without a
// per-entry lookup.
struct NecsMetrics {
  obs::Counter* cache_lookups;
  obs::Counter* cache_hits;
  obs::Counter* cache_misses;
  obs::Counter* cache_warm_inserts;
  obs::Counter* predict_batches;
  obs::Counter* instances_predicted;

  static const NecsMetrics& Get() {
    static const NecsMetrics* m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      return new NecsMetrics{
          reg.GetCounter("necs_encoder_cache_lookups_total"),
          reg.GetCounter("necs_encoder_cache_hits_total"),
          reg.GetCounter("necs_encoder_cache_misses_total"),
          reg.GetCounter("necs_encoder_cache_warm_inserts_total"),
          reg.GetCounter("necs_predict_batches_total"),
          reg.GetCounter("necs_instances_predicted_total"),
      };
    }();
    return *m;
  }
};
}  // namespace

double StageEstimator::PredictAppSeconds(const CandidateEval& candidate) const {
  double total = 0.0;
  for (size_t i = 0; i < candidate.stage_instances.size(); ++i) {
    double target = PredictTarget(candidate.stage_instances[i]);
    double reps = i < candidate.stage_reps.size()
                      ? static_cast<double>(candidate.stage_reps[i])
                      : 1.0;
    total += SecondsFromTarget(target) * reps;
  }
  return total;
}

ScoringPlan ScoringPlan::Template(const CandidateEval& base,
                                  size_t input_dim) {
  ScoringPlan plan;
  plan.num_rows = base.stage_instances.size();
  plan.input_dim = input_dim;
  plan.rows.assign(plan.num_rows * input_dim, 0.0f);
  if (plan.num_rows > 0) {
    plan.knob_offset = base.stage_instances[0].data_feat.size() +
                       base.stage_instances[0].env_feat.size();
  }
  for (size_t s = 0; s < plan.num_rows; ++s) {
    plan.reps.push_back(s < base.stage_reps.size()
                            ? static_cast<double>(base.stage_reps[s])
                            : 1.0);
  }
  return plan;
}

void WriteTowerRow(const StageInstance& inst, std::span<const float> h_code,
                   std::span<const float> h_dag, size_t input_dim,
                   float* row) {
  size_t off = 0;
  for (double v : inst.data_feat) row[off++] = static_cast<float>(v);
  for (double v : inst.env_feat) row[off++] = static_cast<float>(v);
  for (double v : inst.knobs) row[off++] = static_cast<float>(v);
  for (float v : h_code) row[off++] = v;
  for (float v : h_dag) row[off++] = v;
  LITE_CHECK(off == input_dim)
      << "tower row width " << off << " != MLP input " << input_dim;
}

void ScoringPlan::StackCandidates(const std::vector<std::vector<double>>& knobs,
                                  size_t begin, size_t end, float* x) const {
  for (size_t c = begin; c < end; ++c) {
    float* cand = x + (c - begin) * rows.size();
    std::copy(rows.begin(), rows.end(), cand);
    for (size_t s = 0; s < num_rows; ++s) {
      float* krow = cand + s * input_dim + knob_offset;
      for (size_t k = 0; k < knobs[c].size(); ++k) {
        krow[k] = static_cast<float>(knobs[c][k]);
      }
    }
  }
}

void ScoringPlan::SumStages(const float* y, size_t stride, size_t count,
                            double* out) const {
  for (size_t c = 0; c < count; ++c) {
    const float* yc = y + c * num_rows * stride;
    double total = 0.0;
    for (size_t s = 0; s < num_rows; ++s) {
      total += SecondsFromTarget(static_cast<double>(yc[s * stride])) * reps[s];
    }
    out[c] = total;
  }
}

NecsModel::NecsModel(size_t token_vocab_size, size_t op_vocab_size,
                     NecsConfig config, uint64_t seed)
    : config_(config), op_vocab_size_(op_vocab_size) {
  Rng rng(seed);
  cnn_ = std::make_unique<TextCnnEncoder>(token_vocab_size, config.emb_dim,
                                          config.cnn_widths, config.cnn_kernels,
                                          config.code_dim, &rng);
  gcn_ = std::make_unique<GcnEncoder>(op_vocab_size + 1, config.gcn_hidden,
                                      config.gcn_layers, &rng);
  size_t input_dim = 4 + 6 + spark::kNumKnobs + config.code_dim + config.gcn_hidden;
  mlp_ = std::make_unique<Mlp>(input_dim, config.mlp_hidden, 1, &rng);
}

NecsModel::~NecsModel() = default;

void NecsModel::InvalidateCache() const {
  {
    std::unique_lock<std::shared_mutex> lock(cache_mu_);
    cache_.clear();
  }
  // Quantized twins are derived from the weights the cache was derived
  // from: any invalidation drops them too, and the next Quantized() call
  // re-quantizes from the fresh parameters.
  std::lock_guard<std::mutex> lock(twin_mu_);
  twin_int8_.reset();
  twin_fp16_.reset();
}

const QuantizedNecs* NecsModel::Quantized(QuantBackend backend) const {
  LITE_CHECK(backend != QuantBackend::kExactFp32)
      << "NecsModel::Quantized(kExactFp32): the model itself is the exact path";
  std::lock_guard<std::mutex> lock(twin_mu_);
  std::unique_ptr<QuantizedNecs>& slot =
      backend == QuantBackend::kInt8 ? twin_int8_ : twin_fp16_;
  if (!slot) slot = std::make_unique<QuantizedNecs>(*this, backend);
  return slot.get();
}

VarPtr NecsModel::AssembleInput(const StageInstance& inst, const VarPtr& h_code,
                                const VarPtr& h_dag) const {
  VarPtr d = Input(Tensor::FromVector(inst.data_feat));
  VarPtr e = Input(Tensor::FromVector(inst.env_feat));
  VarPtr o = Input(Tensor::FromVector(inst.knobs));
  return Concat({d, e, o, h_code, h_dag});
}

NecsModel::ForwardResult NecsModel::Forward(const StageInstance& inst) const {
  VarPtr h_code = config_.use_code_encoder
                      ? cnn_->Forward(inst.code_token_ids)
                      : Input(Tensor(config_.code_dim));
  VarPtr h_dag;
  if (config_.use_dag_encoder) {
    GcnGraph graph = BuildGcnGraph(inst, op_vocab_size_);
    h_dag = gcn_->Forward(graph);
  } else {
    h_dag = Input(Tensor(config_.gcn_hidden));
  }
  MlpOutput out = mlp_->Forward(AssembleInput(inst, h_code, h_dag));
  return {out.output, out.hidden_concat};
}

std::string NecsModel::CacheKey(const StageInstance& inst) {
  // Keyed by (app, stage): the encoders read only the stage's code tokens
  // and DAG, which featurization takes from the instrumented application
  // whatever the data size, so every data scale of a stage shares one
  // entry (a re-tune at a new scale must not grow the cache).
  return inst.app_name + '#' + std::to_string(inst.stage_index);
}

std::pair<Tensor, Tensor> NecsModel::ComputeEncodings(
    const StageInstance& inst) const {
  VarPtr h_code = config_.use_code_encoder
                      ? cnn_->Forward(inst.code_token_ids)
                      : Input(Tensor(config_.code_dim));
  VarPtr h_dag;
  if (config_.use_dag_encoder) {
    GcnGraph graph = BuildGcnGraph(inst, op_vocab_size_);
    h_dag = gcn_->Forward(graph);
  } else {
    h_dag = Input(Tensor(config_.gcn_hidden));
  }
  return {h_code->value, h_dag->value};
}

std::pair<Tensor, Tensor> NecsModel::EncodeStage(const StageInstance& inst) const {
  const NecsMetrics& metrics = NecsMetrics::Get();
  metrics.cache_lookups->Inc();
  std::string key = CacheKey(inst);
  {
    std::shared_lock<std::shared_mutex> lock(cache_mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      metrics.cache_hits->Inc();
      return it->second;
    }
  }
  metrics.cache_misses->Inc();
  std::pair<Tensor, Tensor> enc = ComputeEncodings(inst);
  std::unique_lock<std::shared_mutex> lock(cache_mu_);
  return cache_.emplace(key, std::move(enc)).first->second;
}

void NecsModel::WarmEncoderCache(std::span<const StageInstance> insts) const {
  // Missing keys, first occurrence only, in input order.
  std::vector<size_t> missing;
  {
    std::shared_lock<std::shared_mutex> lock(cache_mu_);
    std::unordered_map<std::string, bool> queued;
    for (size_t i = 0; i < insts.size(); ++i) {
      std::string key = CacheKey(insts[i]);
      if (cache_.count(key) || queued[key]) continue;
      queued[key] = true;
      missing.push_back(i);
    }
  }
  if (missing.empty()) return;

  // All missing code encodings in one batched CNN projection; row m of the
  // batch is bit-identical to the scalar Forward, so warmed entries match
  // what a cold PredictTarget would have cached.
  std::vector<Tensor> h_codes(missing.size(), Tensor(config_.code_dim));
  if (config_.use_code_encoder) {
    std::vector<std::vector<int>> sequences;
    sequences.reserve(missing.size());
    for (size_t i : missing) sequences.push_back(insts[i].code_token_ids);
    VarPtr stacked = cnn_->ForwardBatch(sequences);
    for (size_t m = 0; m < missing.size(); ++m) {
      for (size_t c = 0; c < config_.code_dim; ++c) {
        h_codes[m][c] = stacked->value.at(m, c);
      }
    }
  }

  NecsMetrics::Get().cache_warm_inserts->Inc(missing.size());
  std::unique_lock<std::shared_mutex> lock(cache_mu_);
  for (size_t m = 0; m < missing.size(); ++m) {
    const StageInstance& inst = insts[missing[m]];
    Tensor h_dag(config_.gcn_hidden);
    if (config_.use_dag_encoder) {
      GcnGraph graph = BuildGcnGraph(inst, op_vocab_size_);
      h_dag = gcn_->Forward(graph)->value;
    }
    cache_.emplace(CacheKey(inst),
                   std::make_pair(std::move(h_codes[m]), std::move(h_dag)));
  }
}

double NecsModel::PredictTarget(const StageInstance& inst) const {
  auto [code_val, dag_val] = EncodeStage(inst);
  VarPtr h_code = Input(std::move(code_val));
  VarPtr h_dag = Input(std::move(dag_val));
  MlpOutput out = mlp_->Forward(AssembleInput(inst, h_code, h_dag));
  return out.output->value[0];
}

std::vector<double> NecsModel::PredictBatch(
    std::span<const StageInstance> insts) const {
  std::vector<double> out(insts.size());
  if (insts.empty()) return out;
  const NecsMetrics& metrics = NecsMetrics::Get();
  metrics.predict_batches->Inc();
  metrics.instances_predicted->Inc(insts.size());
  const size_t in_dim = mlp_->input_dim();
  Tensor x(insts.size(), in_dim);
  for (size_t b = 0; b < insts.size(); ++b) {
    auto [h_code, h_dag] = EncodeStage(insts[b]);
    WriteTowerRow(insts[b], h_code.vec(), h_dag.vec(), in_dim,
                  x.data() + b * in_dim);
  }
  Tensor pred = mlp_->ForwardBatch(std::move(x));
  for (size_t b = 0; b < out.size(); ++b) out[b] = pred.at(b, 0);
  return out;
}

ScoringPlan NecsModel::BuildPlan(const CandidateEval& base) const {
  WarmEncoderCache(base.stage_instances);
  ScoringPlan plan = ScoringPlan::Template(base, mlp_->input_dim());
  for (size_t s = 0; s < plan.num_rows; ++s) {
    auto [h_code, h_dag] = EncodeStage(base.stage_instances[s]);
    WriteTowerRow(base.stage_instances[s], h_code.vec(), h_dag.vec(),
                  plan.input_dim, plan.row(s));
  }
  return plan;
}

void NecsModel::ScoreWithKnobsBlock(const ScoringPlan& plan,
                                    const std::vector<std::vector<double>>& knobs,
                                    size_t begin, size_t end,
                                    double* out) const {
  const size_t rows = (end - begin) * plan.num_rows;
  if (rows == 0) {
    std::fill(out, out + (end - begin), 0.0);
    return;
  }
  const NecsMetrics& metrics = NecsMetrics::Get();
  metrics.predict_batches->Inc();
  metrics.instances_predicted->Inc(rows);
  Tensor x(rows, plan.input_dim);
  plan.StackCandidates(knobs, begin, end, x.data());
  Tensor y = mlp_->ForwardBatch(std::move(x));
  plan.SumStages(y.data(), 1, end - begin, out);
}

double NecsModel::PredictAppSeconds(const CandidateEval& candidate) const {
  std::vector<double> targets = PredictBatch(candidate.stage_instances);
  double total = 0.0;
  for (size_t i = 0; i < targets.size(); ++i) {
    double reps = i < candidate.stage_reps.size()
                      ? static_cast<double>(candidate.stage_reps[i])
                      : 1.0;
    total += SecondsFromTarget(targets[i]) * reps;
  }
  return total;
}

void NecsModel::SetTokenEmbeddings(const Tensor& embeddings) {
  VarPtr table = cnn_->embedding();
  LITE_CHECK(table->value.SameShape(embeddings))
      << "pretrained embedding shape " << embeddings.ShapeString()
      << " != " << table->value.ShapeString();
  table->value = embeddings;
  InvalidateCache();
}

std::vector<VarPtr> NecsModel::Params() const {
  std::vector<VarPtr> out;
  for (const Module* m :
       {static_cast<const Module*>(cnn_.get()),
        static_cast<const Module*>(gcn_.get()),
        static_cast<const Module*>(mlp_.get())}) {
    auto p = m->Params();
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

std::vector<double> NecsTrainer::Train(NecsModel* model,
                                       const std::vector<StageInstance>& instances,
                                       const TrainOptions& options) const {
  LITE_CHECK(!instances.empty()) << "training on empty corpus";
  Adam adam(model->Params(), options.lr);
  Rng rng(options.seed);
  std::vector<size_t> order(instances.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  std::vector<double> epoch_losses;
  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(&order);
    double loss_sum = 0.0;
    size_t pos = 0;
    while (pos < order.size()) {
      size_t batch_end = std::min(pos + options.batch_size, order.size());
      float inv_batch = 1.0f / static_cast<float>(batch_end - pos);
      adam.ZeroGrad();
      for (size_t b = pos; b < batch_end; ++b) {
        const StageInstance& inst = instances[order[b]];
        NecsModel::ForwardResult fwd = model->Forward(inst);
        Tensor target(static_cast<size_t>(1));
        target[0] = static_cast<float>(inst.y);
        VarPtr loss = Scale(MseLoss(fwd.pred, target), inv_batch);
        Backward(loss);
        loss_sum += static_cast<double>(loss->value[0]);
      }
      adam.ClipGradNorm(options.grad_clip);
      adam.Step();
      pos = batch_end;
    }
    double num_batches = std::ceil(static_cast<double>(order.size()) /
                                   static_cast<double>(options.batch_size));
    double mean_loss = loss_sum / num_batches;
    epoch_losses.push_back(mean_loss);
    if (options.verbose) {
      LITE_INFO << "NECS epoch " << epoch << " loss " << mean_loss;
    }
  }
  model->InvalidateCache();
  return epoch_losses;
}

}  // namespace lite
