#include "lite/qnecs.h"

#include <cmath>
#include <cstring>

#include "obs/metrics.h"
#include "util/logging.h"

namespace lite {

namespace {
struct QNecsMetrics {
  obs::Counter* cache_misses;
  obs::Counter* candidates_scored;
  obs::Counter* plans_built;

  static const QNecsMetrics& Get() {
    static const QNecsMetrics* m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      return new QNecsMetrics{
          reg.GetCounter("qnecs_encoder_cache_misses_total"),
          reg.GetCounter("qnecs_candidates_scored_total"),
          reg.GetCounter("qnecs_plans_built_total"),
      };
    }();
    return *m;
  }
};
}  // namespace

QuantizedNecs::QuantizedNecs(const NecsModel& model, QuantBackend mode)
    : owner_(&model), mode_(mode) {
  LITE_CHECK(mode != QuantBackend::kExactFp32)
      << "QuantizedNecs: exact mode is the fp32 model itself";
  if (model.config_.use_code_encoder) {
    cnn_ = QuantizedTextCnn::From(*model.cnn_, mode);
  } else {
    cnn_.mode = mode;  // unused; ablation produces zero encodings.
  }
  mlp_ = QuantizedMlp::From(*model.mlp_, mode);
}

std::pair<std::vector<float>, std::vector<float>>
QuantizedNecs::ComputeEncodings(const StageInstance& inst) const {
  const NecsConfig& config = owner_->config_;
  std::vector<float> h_code(config.code_dim, 0.0f);
  if (config.use_code_encoder) {
    // Misses are rare (the cache is keyed per (app, stage, datasize)), so a
    // local arena keeps this reentrancy-safe with respect to the caller's
    // thread-local scratch.
    qk::Arena arena(1 << 14);
    cnn_.EncodeBatch({inst.code_token_ids}, h_code.data(), &arena);
  }
  std::vector<float> h_dag(config.gcn_hidden, 0.0f);
  if (config.use_dag_encoder) {
    GcnGraph graph = BuildGcnGraph(inst, owner_->op_vocab_size_);
    // Keep the Var alive past the read: Forward returns a temporary VarPtr
    // and `value` lives inside it.
    VarPtr v = owner_->gcn_->Forward(graph);
    h_dag.assign(v->value.vec().begin(), v->value.vec().end());
  }
  return {std::move(h_code), std::move(h_dag)};
}

std::pair<std::vector<float>, std::vector<float>> QuantizedNecs::EncodeStage(
    const StageInstance& inst) const {
  std::string key = NecsModel::CacheKey(inst);
  {
    std::shared_lock<std::shared_mutex> lock(cache_mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
  }
  if (obs::Enabled()) QNecsMetrics::Get().cache_misses->Inc();
  auto enc = ComputeEncodings(inst);
  std::unique_lock<std::shared_mutex> lock(cache_mu_);
  return cache_.emplace(std::move(key), std::move(enc)).first->second;
}

void QuantizedNecs::WarmEncoderCache(
    std::span<const StageInstance> insts) const {
  const NecsConfig& config = owner_->config_;
  std::vector<size_t> missing;
  {
    std::shared_lock<std::shared_mutex> lock(cache_mu_);
    std::unordered_map<std::string, bool> queued;
    for (size_t i = 0; i < insts.size(); ++i) {
      std::string key = NecsModel::CacheKey(insts[i]);
      if (cache_.count(key) || queued[key]) continue;
      queued[key] = true;
      missing.push_back(i);
    }
  }
  if (missing.empty()) return;

  std::vector<float> codes(missing.size() * config.code_dim, 0.0f);
  if (config.use_code_encoder) {
    std::vector<std::vector<int>> sequences;
    sequences.reserve(missing.size());
    for (size_t i : missing) sequences.push_back(insts[i].code_token_ids);
    qk::Arena arena(1 << 14);
    cnn_.EncodeBatch(sequences, codes.data(), &arena);
  }
  if (obs::Enabled()) QNecsMetrics::Get().cache_misses->Inc(missing.size());
  std::unique_lock<std::shared_mutex> lock(cache_mu_);
  for (size_t m = 0; m < missing.size(); ++m) {
    const StageInstance& inst = insts[missing[m]];
    std::vector<float> h_code(codes.begin() + m * config.code_dim,
                              codes.begin() + (m + 1) * config.code_dim);
    std::vector<float> h_dag(config.gcn_hidden, 0.0f);
    if (config.use_dag_encoder) {
      GcnGraph graph = BuildGcnGraph(inst, owner_->op_vocab_size_);
      VarPtr v = owner_->gcn_->Forward(graph);
      h_dag.assign(v->value.vec().begin(), v->value.vec().end());
    }
    cache_.emplace(NecsModel::CacheKey(inst),
                   std::make_pair(std::move(h_code), std::move(h_dag)));
  }
}

std::vector<double> QuantizedNecs::PredictBatch(
    std::span<const StageInstance> insts) const {
  std::vector<double> out(insts.size());
  if (insts.empty()) return out;
  const size_t in_dim = mlp_.input_dim();
  // Resolve encodings before touching the thread-local arena: a cache miss
  // runs the encoders, and nothing below may interleave with that.
  std::vector<std::pair<std::vector<float>, std::vector<float>>> encs;
  encs.reserve(insts.size());
  for (const StageInstance& inst : insts) encs.push_back(EncodeStage(inst));

  qk::Arena* arena = qk::Arena::ThreadLocal();
  arena->Reset();
  float* x = arena->AllocFloats(insts.size() * in_dim);
  for (size_t b = 0; b < insts.size(); ++b) {
    float* row = x + b * in_dim;
    size_t off = 0;
    for (double v : insts[b].data_feat) row[off++] = static_cast<float>(v);
    for (double v : insts[b].env_feat) row[off++] = static_cast<float>(v);
    for (double v : insts[b].knobs) row[off++] = static_cast<float>(v);
    for (float v : encs[b].first) row[off++] = v;
    for (float v : encs[b].second) row[off++] = v;
    LITE_CHECK(off == in_dim) << "QuantizedNecs row width " << off
                              << " != MLP input " << in_dim;
  }
  float* y = arena->AllocFloats(insts.size() * mlp_.output_dim());
  mlp_.ForwardBatch(x, insts.size(), y, arena);
  for (size_t b = 0; b < out.size(); ++b) {
    out[b] = static_cast<double>(y[b * mlp_.output_dim()]);
  }
  return out;
}

double QuantizedNecs::PredictAppSeconds(const CandidateEval& candidate) const {
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

QuantizedNecs::ScoringPlan QuantizedNecs::BuildPlan(
    const CandidateEval& base) const {
  ScoringPlan plan;
  plan.num_rows = base.stage_instances.size();
  plan.input_dim = mlp_.input_dim();
  plan.rows.assign(plan.num_rows * plan.input_dim, 0.0f);
  plan.reps.resize(plan.num_rows);
  if (plan.num_rows == 0) return plan;
  WarmEncoderCache(base.stage_instances);
  plan.knob_offset = base.stage_instances[0].data_feat.size() +
                     base.stage_instances[0].env_feat.size();
  for (size_t s = 0; s < plan.num_rows; ++s) {
    const StageInstance& inst = base.stage_instances[s];
    auto [h_code, h_dag] = EncodeStage(inst);
    float* row = plan.rows.data() + s * plan.input_dim;
    size_t off = 0;
    for (double v : inst.data_feat) row[off++] = static_cast<float>(v);
    for (double v : inst.env_feat) row[off++] = static_cast<float>(v);
    off += inst.knobs.size();  // knob slots stay zero; filled per candidate.
    for (float v : h_code) row[off++] = v;
    for (float v : h_dag) row[off++] = v;
    LITE_CHECK(off == plan.input_dim)
        << "ScoringPlan row width " << off << " != MLP input "
        << plan.input_dim;
    plan.reps[s] = s < base.stage_reps.size()
                       ? static_cast<double>(base.stage_reps[s])
                       : 1.0;
  }
  if (obs::Enabled()) QNecsMetrics::Get().plans_built->Inc();
  return plan;
}

double QuantizedNecs::ScoreWithKnobs(const ScoringPlan& plan,
                                     const std::vector<double>& knobs,
                                     qk::Arena* arena) const {
  if (plan.num_rows == 0) return 0.0;
  if (obs::Enabled()) QNecsMetrics::Get().candidates_scored->Inc();
  arena->Reset();
  const size_t in_dim = plan.input_dim;
  float* x = arena->AllocFloats(plan.num_rows * in_dim);
  std::memcpy(x, plan.rows.data(), plan.rows.size() * sizeof(float));
  for (size_t s = 0; s < plan.num_rows; ++s) {
    float* krow = x + s * in_dim + plan.knob_offset;
    for (size_t k = 0; k < knobs.size(); ++k) {
      krow[k] = static_cast<float>(knobs[k]);
    }
  }
  float* y = arena->AllocFloats(plan.num_rows * mlp_.output_dim());
  mlp_.ForwardBatch(x, plan.num_rows, y, arena);
  double total = 0.0;
  for (size_t s = 0; s < plan.num_rows; ++s) {
    total += SecondsFromTarget(static_cast<double>(y[s * mlp_.output_dim()])) *
             plan.reps[s];
  }
  return total;
}

void QuantizedNecs::ScoreWithKnobsBlock(
    const ScoringPlan& plan, const std::vector<std::vector<double>>& knobs,
    size_t begin, size_t end, double* out, qk::Arena* arena) const {
  const size_t count = end - begin;
  if (count == 0) return;
  if (plan.num_rows == 0) {
    for (size_t c = 0; c < count; ++c) out[c] = 0.0;
    return;
  }
  if (obs::Enabled()) QNecsMetrics::Get().candidates_scored->Inc(count);
  arena->Reset();
  const size_t in_dim = plan.input_dim;
  const size_t rows_per = plan.num_rows;
  float* x = arena->AllocFloats(count * rows_per * in_dim);
  for (size_t c = 0; c < count; ++c) {
    float* cand = x + c * rows_per * in_dim;
    std::memcpy(cand, plan.rows.data(), plan.rows.size() * sizeof(float));
    const std::vector<double>& k = knobs[begin + c];
    for (size_t s = 0; s < rows_per; ++s) {
      float* krow = cand + s * in_dim + plan.knob_offset;
      for (size_t j = 0; j < k.size(); ++j) {
        krow[j] = static_cast<float>(k[j]);
      }
    }
  }
  const size_t out_dim = mlp_.output_dim();
  float* y = arena->AllocFloats(count * rows_per * out_dim);
  mlp_.ForwardBatch(x, count * rows_per, y, arena);
  for (size_t c = 0; c < count; ++c) {
    double total = 0.0;
    const float* yc = y + c * rows_per * out_dim;
    for (size_t s = 0; s < rows_per; ++s) {
      total += SecondsFromTarget(static_cast<double>(yc[s * out_dim])) *
               plan.reps[s];
    }
    out[c] = total;
  }
}

}  // namespace lite
