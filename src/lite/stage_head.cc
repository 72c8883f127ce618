#include "lite/stage_head.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>

#include "sparksim/knob.h"
#include "tensor/optimizer.h"
#include "util/logging.h"
#include "util/rng.h"

namespace lite {

using namespace ops;

StageHead::StageHead(size_t code_dim, size_t dag_dim, uint64_t seed)
    : code_dim_(code_dim), dag_dim_(dag_dim) {
  Rng rng(seed);
  // Two halving hidden layers: the head rides on encodings the big towers
  // already computed, so it stays deliberately small.
  mlp_ = std::make_unique<Mlp>(input_dim(), 2, 1, &rng);
}

size_t StageHead::input_dim() const {
  return code_dim_ + dag_dim_ + 4 + 6 + spark::kNumKnobs;
}

void StageHead::WriteRow(const NecsModel& encoder, const StageInstance& inst,
                         float* row) const {
  auto [h_code, h_dag] = encoder.StageEncodings(inst);
  size_t off = 0;
  for (float v : h_code.vec()) row[off++] = v;
  for (float v : h_dag.vec()) row[off++] = v;
  for (double v : inst.data_feat) row[off++] = static_cast<float>(v);
  for (double v : inst.env_feat) row[off++] = static_cast<float>(v);
  for (double v : inst.knobs) row[off++] = static_cast<float>(v);
  LITE_CHECK(off == input_dim())
      << "stage-head row width " << off << " != " << input_dim();
}

VarPtr StageHead::Assemble(const NecsModel& encoder,
                           const StageInstance& inst) const {
  Tensor row(input_dim());
  WriteRow(encoder, inst, row.data());
  // Input() wraps the row as a constant: gradients stop here, the NECS
  // towers stay frozen.
  return Input(std::move(row));
}

double StageHead::PredictTarget(const NecsModel& encoder,
                                const StageInstance& inst) const {
  VarPtr out = mlp_->Predict(Assemble(encoder, inst));
  return static_cast<double>(out->value[0]);
}

std::vector<double> StageHead::Train(const NecsModel& encoder,
                                     const std::vector<StageInstance>& instances,
                                     const StageHeadTrainOptions& options) {
  LITE_CHECK(!instances.empty()) << "StageHead: training on empty corpus";
  Adam adam(Params(), options.lr);
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
        VarPtr pred = mlp_->Predict(Assemble(encoder, inst));
        Tensor target(static_cast<size_t>(1));
        target[0] = static_cast<float>(inst.y);
        VarPtr loss = Scale(MseLoss(pred, target), inv_batch);
        Backward(loss);
        loss_sum += static_cast<double>(loss->value[0]);
      }
      adam.ClipGradNorm(options.grad_clip);
      adam.Step();
      pos = batch_end;
    }
    double num_batches = std::ceil(static_cast<double>(order.size()) /
                                   static_cast<double>(options.batch_size));
    epoch_losses.push_back(loss_sum / num_batches);
  }
  return epoch_losses;
}

std::vector<VarPtr> StageHead::Params() const { return mlp_->Params(); }

spark::StageEvalFactory MakeStageHeadEvalFactory(
    const StageHead* head, const NecsModel* encoder,
    const spark::SparkRunner* runner, const Corpus* feature_space,
    const spark::ApplicationSpec* app, spark::DataSpec data,
    const spark::ClusterEnv* env) {
  return [head, encoder, runner, feature_space, app, data,
          env](double scale) -> spark::StageEvalFn {
    spark::DataSpec scaled = data;
    scaled.size_mb = data.size_mb * scale;
    if (data.num_rows > 0) {
      scaled.num_rows =
          std::llround(static_cast<double>(data.num_rows) * scale);
    }
    // Featurize once per evaluator and freeze one head input row per stage:
    // code tokens, DAGs, data and env features are knob-independent, so a
    // query only writes the normalized knobs into a copy of its stage's row.
    const CandidateEval templ =
        CorpusBuilder(runner).FeaturizeCandidate(
            *feature_space, *app, scaled, *env,
            spark::KnobSpace::Spark16().DefaultConfig());
    struct Evaluator {
      std::vector<Tensor> rows;  // 1 x input_dim each.
      // The last answer: the planner asks the same (stage, config) once per
      // iteration, and the head ignores the iteration.
      size_t last_stage = SIZE_MAX;
      spark::Config last_config;
      spark::StageEvalResult last;
    };
    auto ev = std::make_shared<Evaluator>();
    for (const StageInstance& inst : templ.stage_instances) {
      Tensor row(1, head->input_dim());
      head->WriteRow(*encoder, inst, row.data());
      ev->rows.push_back(std::move(row));
    }
    return [head, ev](size_t stage_index, int /*iteration*/,
                      const spark::Config& config) -> spark::StageEvalResult {
      if (stage_index >= ev->rows.size()) {
        return spark::StageEvalResult{0.0, true};
      }
      if (stage_index == ev->last_stage && config == ev->last_config) {
        return ev->last;
      }
      Tensor x = ev->rows[stage_index];
      std::vector<double> knobs = spark::KnobSpace::Spark16().Normalize(config);
      for (size_t k = 0; k < knobs.size(); ++k) {
        x[head->knob_offset() + k] = static_cast<float>(knobs[k]);
      }
      Tensor y = head->PredictRows(std::move(x));
      ev->last_stage = stage_index;
      ev->last_config = config;
      ev->last = spark::StageEvalResult{
          SecondsFromTarget(static_cast<double>(y[0])), false};
      return ev->last;
    };
  };
}

}  // namespace lite
