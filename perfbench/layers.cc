// The per-layer probe of the traced run. It replays the workload's
// distinct queries call by call through each module's public entry points,
// in pipeline order, records a span around every call, and turns the spans
// and the registry counters into per-layer metrics. Spans are recorded
// from the benchmark's own code; the program under test is unchanged.
#include <cmath>
#include <functional>
#include <limits>
#include <set>
#include <stdexcept>

#include "bench.h"
#include "lite/dataset.h"
#include "lite/qnecs.h"
#include "modelplane/plane_server.h"
#include "modelplane/shard_puller.h"
#include "modelplane/sharded_service.h"
#include "serve/guardrail.h"
#include "serve/recommend_pipeline.h"
#include "serve/retrieval_cache.h"
#include "sparksim/eventlog.h"
#include "sparksim/knob.h"
#include "sparksim/stage_planner.h"
#include "util/rng.h"

namespace perfbench {

namespace spark = lite::spark;
namespace serve = lite::serve;
namespace mp = lite::modelplane;
using lite::LoadedLiteModel;
using lite::QuantBackend;

namespace {

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Times `fn` and records it as a span named `name`.
double Timed(SpanLog* spans, const std::string& name, int64_t parent,
             int64_t request, const std::function<void()>& fn) {
  Clock::time_point t0 = Clock::now();
  fn();
  Clock::time_point t1 = Clock::now();
  spans->Add(name, t0, t1, parent, request);
  return Ms(t0, t1);
}

/// Mean microseconds of `reps` calls of `fn`.
double MeanUs(int reps, const std::function<void()>& fn) {
  Clock::time_point t0 = Clock::now();
  for (int r = 0; r < reps; ++r) fn();
  return Ms(t0, Clock::now()) * 1e3 / reps;
}

std::vector<const lite::NecsModel*> Members(const LoadedLiteModel& m) {
  std::vector<const lite::NecsModel*> out;
  for (size_t i = 0; i < m.ensemble_size(); ++i) out.push_back(m.model(i));
  return out;
}

/// The candidate pool of a request: the region sample on the request's own
/// RNG stream (SampleCandidates), DedupeConfigs, and the placement
/// feasibility filter. The replay's argmin is checked against
/// LoadedLiteModel::Recommend, so this cannot drift from the pipeline
/// unnoticed.
std::vector<spark::Config> CandidatePool(const LoadedLiteModel& m,
                                         const Query& q, size_t pool) {
  lite::Rng rng(m.seed() ^ std::hash<std::string>{}(q.app->name));
  std::vector<spark::Config> cands = lite::DedupeConfigs(
      m.candidate_generator().SampleCandidates(*q.app, q.data, q.env, pool,
                                               &rng));
  std::vector<spark::Config> feasible;
  for (const spark::Config& c : cands) {
    if (spark::PlacementFeasible(q.env, c)) feasible.push_back(c);
  }
  return feasible.empty() ? cands : feasible;
}

/// serve::ScoreCandidateSet on one thread with `backend`: the library's
/// one scoring entry point (featurize once, warm, tower).
std::vector<double> ScoreSet(const spark::SparkRunner& runner,
                             const LoadedLiteModel& m,
                             const std::vector<const lite::NecsModel*>& members,
                             const Query& q,
                             const std::vector<spark::Config>& cands,
                             QuantBackend backend) {
  serve::ScoringOptions so;
  so.threads = 1;
  so.backend = backend;
  return serve::ScoreCandidateSet(&runner, m.feature_space(), members, *q.app,
                                  q.data, q.env, cands, so);
}

/// The warm step of ScoreCandidateSet on its own: encoder-cache warm-up
/// for the exact tower, twin lookup and scoring plans for a quantized one.
void WarmStep(const std::vector<const lite::NecsModel*>& members,
              const lite::CandidateEval& base, QuantBackend backend) {
  for (const lite::NecsModel* m : members) {
    if (backend == QuantBackend::kExactFp32) {
      m->WarmEncoderCache(base.stage_instances);
    } else {
      m->Quantized(backend)->BuildPlan(base);
    }
  }
}

/// Tower time of one ScoreCandidateSet call on warm caches: the call minus
/// its featurize and warm steps, each timed alone on the same inputs
/// (median of three, after one untimed call warms every cache).
double TowerMs(const spark::SparkRunner& runner, const LoadedLiteModel& m,
               const std::vector<const lite::NecsModel*>& members,
               const lite::CorpusBuilder& builder, const Query& q,
               const std::vector<spark::Config>& cands, QuantBackend backend,
               SpanLog* spans, const std::string& name) {
  ScoreSet(runner, m, members, q, cands, backend);
  std::vector<double> score_ms, featurize_ms, warm_ms;
  for (int r = 0; r < 3; ++r) {
    lite::CandidateEval base;
    featurize_ms.push_back(Timed(spans, "lite.featurize", -1, -1, [&] {
      base = builder.FeaturizeCandidate(m.feature_space(), *q.app, q.data,
                                        q.env, cands[0]);
    }));
    warm_ms.push_back(Timed(spans, "lite.encoder_warm.hit", -1, -1,
                            [&] { WarmStep(members, base, backend); }));
    score_ms.push_back(Timed(spans, name, -1, -1, [&] {
      ScoreSet(runner, m, members, q, cands, backend);
    }));
  }
  return std::max(0.0, Median(score_ms) - Median(featurize_ms) -
                           Median(warm_ms));
}

size_t Argmin(const std::vector<double>& scores) {
  size_t best = 0;
  double best_score = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < scores.size(); ++i) {
    if (std::isfinite(scores[i]) && scores[i] < best_score) {
      best_score = scores[i];
      best = i;
    }
  }
  return best;
}

/// Multiply-accumulates of one tower row (the NECS MLP: input width
/// 4 + 6 + knobs + code_dim + gcn_hidden, halving hidden layers, scalar
/// head).
double TowerMacsPerRow(const lite::NecsConfig& c) {
  size_t width = 4 + 6 + spark::kNumKnobs + c.code_dim + c.gcn_hidden;
  double macs = 0.0;
  for (size_t l = 0; l < c.mlp_hidden; ++l) {
    size_t next = std::max<size_t>(width / 2, 4);
    macs += static_cast<double>(width * next);
    width = next;
  }
  return macs + static_cast<double>(width);
}

}  // namespace

void ProbeLayers(const ProbeInput& in, Outcome* outcome) {
  MetricSet* out = &outcome->layers;
  const spark::SparkRunner& runner = *in.runner;
  const lite::LiteOptions& opts = in.snapshot->options;
  SpanLog* spans = in.spans;
  const LoadedLiteModel& model = *in.model;
  const QuantBackend backend = model.scoring().backend;
  const std::vector<const lite::NecsModel*> members = Members(model);
  lite::CorpusBuilder builder(&runner);
  const spark::Config defaults = spark::KnobSpace::Spark16().DefaultConfig();

  // --- Set-up layers: simulated corpus runs and the corpus build. ---------
  {
    std::vector<double> measure_ms;
    for (const std::string& name : opts.corpus.apps) {
      const spark::ApplicationSpec* app = spark::AppCatalog::Find(name);
      for (double size : app->train_sizes_mb) {
        for (const spark::ClusterEnv& env : opts.corpus.clusters) {
          spark::DataSpec data = app->MakeData(size);
          measure_ms.push_back(Timed(spans, "sparksim.measure", -1, -1, [&] {
            runner.Measure(*app, data, env, defaults);
          }));
        }
      }
    }
    out->Set("sparksim.measure_ms", Mean(measure_ms), "ms");
    out->Set("lite.corpus_build_ms", Timed(spans, "lite.corpus_build", -1, -1, [&] {
               builder.Build(opts.corpus);
             }), "ms");
  }

  // --- Cold layers, on a clone (cold encoder caches, no int8 twins). ------
  {
    std::unique_ptr<LoadedLiteModel> cold = model.Clone();
    out->Set("lite.quantize_ms", Timed(spans, "lite.quantize", -1, -1, [&] {
               cold->model(0)->Quantized(QuantBackend::kInt8);
             }), "ms");
    std::vector<double> warm_ms;
    std::set<std::pair<std::string, double>> seen;  // encoder cache keys.
    for (const Query& q : in.queries) {
      if (!seen.insert({q.app->name, q.data.size_mb}).second) continue;
      lite::CandidateEval base = builder.FeaturizeCandidate(
          cold->feature_space(), *q.app, q.data, q.env, defaults);
      warm_ms.push_back(Timed(spans, "lite.encoder_warm.cold", -1, -1, [&] {
        for (size_t m = 0; m < cold->ensemble_size(); ++m) {
          cold->model(m)->WarmEncoderCache(base.stage_instances);
        }
      }));
    }
    out->Set("lite.encoder_warm_ms", Median(warm_ms), "ms");
  }

  // --- The request path, replayed in pipeline order on the served model,
  // --- against TuningService::Recommend on the same query. The replay's
  // --- children are the admit/embedding/retrieve calls on the path, the
  // --- candidate pool, ScoreCandidateSet (featurize + warm + tower) and
  // --- the argmin; featurize and the warm step are also timed alone,
  // --- outside the replay, so that no time is counted twice. ---------------
  serve::Guardrail scratch_guard([] {
    serve::GuardrailOptions g;
    g.enabled = true;
    return g;
  }());
  serve::RetrievalCacheOptions ro;
  ro.enabled = true;
  serve::RetrievalCache scratch_cache(ro);
  serve::RetrievalCache* cache = in.service->retrieval() != nullptr
                                     ? in.service->retrieval()
                                     : &scratch_cache;
  const bool on_path_guard = in.service->guardrail() != nullptr;
  const bool on_path_retrieval = in.service->retrieval() != nullptr;
  std::vector<double> sample_ms, featurize_ms, request_ms, overhead_ms;
  std::vector<double> admit_us, embed_us, macs, queue_wait_ms;
  const bool probe_queue_wait = !out->all().count("serve.queue_wait_ms");
  std::vector<int64_t> roots;
  std::vector<spark::Config> chosen;
  uint64_t replay_mismatches = 0;
  for (size_t i = 0; i < in.queries.size(); ++i) {
    const Query& q = in.queries[i];
    const int64_t req = static_cast<int64_t>(i);
    lite::CandidateEval base;
    {
      std::vector<spark::Config> cands = CandidatePool(model, q, in.pool);
      featurize_ms.push_back(Timed(spans, "lite.featurize", -1, req, [&] {
        base = builder.FeaturizeCandidate(model.feature_space(), *q.app,
                                          q.data, q.env, cands[0]);
      }));
    }
    const int64_t root = spans->Open("replay.request", Clock::now(), -1, req);
    roots.push_back(root);
    if (on_path_guard) {
      Timed(spans, "serve.guardrail_admit", root, req,
            [&] { scratch_guard.Admit("probe-" + std::to_string(i)); });
    }
    std::vector<double> embedding;
    if (on_path_retrieval) {
      Timed(spans, "serve.embedding", root, req,
            [&] { embedding = model.WorkloadEmbedding(*q.app, q.data, q.env); });
      Timed(spans, "serve.retrieve", root, req,
            [&] { cache->Retrieve(embedding, 4); });
    }
    std::vector<spark::Config> cands;
    sample_ms.push_back(Timed(spans, "lite.acg_sample", root, req,
                              [&] { cands = CandidatePool(model, q, in.pool); }));
    macs.push_back(TowerMacsPerRow(members[0]->config()) *
                   static_cast<double>(base.stage_instances.size() *
                                       members.size()));
    std::vector<double> scores;
    Timed(spans, "serve.score_candidate_set", root, req, [&] {
      scores = ScoreSet(runner, model, members, q, cands, backend);
    });
    size_t best = 0;
    Timed(spans, "lite.argmin", root, req, [&] { best = Argmin(scores); });
    spans->Close(root, Clock::now());
    chosen.push_back(cands[best]);

    int session = in.service->OpenSession("probe-" + std::to_string(i));
    Clock::time_point t0 = Clock::now();
    in.service->Recommend(session, *q.app, q.data, q.env);
    Clock::time_point t1 = Clock::now();
    const lite::LiteSystem::Recommendation direct =
        model.Recommend(*q.app, q.data, q.env);
    Clock::time_point t2 = Clock::now();
    if (direct.config != cands[best]) ++replay_mismatches;
    spans->Add("serve.request", t0, t1, -1, req);
    request_ms.push_back(Ms(t0, t1));
    overhead_ms.push_back(Ms(t0, t1) - Ms(t1, t2));
    if (probe_queue_wait) {
      // The workload's clients call synchronously, so its traffic has no
      // admission queue to measure; time the one SubmitRecommend adds.
      Clock::time_point s0 = Clock::now();
      serve::TuningService::Response sr =
          in.service->SubmitRecommend(session, *q.app, q.data, q.env).get();
      queue_wait_ms.push_back(Ms(s0, Clock::now()) -
                              sr.rec.recommend_wall_seconds * 1e3);
    }

    admit_us.push_back(MeanUs(50, [&] {
      scratch_guard.Admit("probe-admit-" + std::to_string(i));
    }));
    embed_us.push_back(MeanUs(20, [&] {
      embedding = model.WorkloadEmbedding(*q.app, q.data, q.env);
    }));
    if (!on_path_retrieval) {
      scratch_cache.InsertOutcome("probe", q.app->name,
                                  serve::RetrievalCache::WorkloadFingerprint(
                                      *q.app, q.data, q.env),
                                  embedding, cands[best], 1.0 + i, 1, false);
    }
  }
  {
    // Attribution: layer self-times inside the replay roots over the
    // service's own time for the same queries.
    std::vector<SpanLog::Span> all = spans->spans();
    std::vector<double> self = spans->SelfMs();
    std::vector<bool> is_root(all.size(), false);
    for (int64_t r : roots) is_root[static_cast<size_t>(r)] = true;
    double attributed = 0.0, total = 0.0;
    for (size_t s = 0; s < all.size(); ++s) {
      if (all[s].parent >= 0 && is_root[static_cast<size_t>(all[s].parent)]) {
        attributed += self[s];
      }
    }
    for (double ms : request_ms) total += ms;
    out->Set("trace.attributed_pct", total > 0 ? attributed / total * 100.0 : 0.0,
             "%");
  }
  out->Set("lite.acg_sample_ms", Median(sample_ms), "ms");
  out->Set("lite.featurize_ms", Median(featurize_ms), "ms");
  out->Set("lite.tower_macs_per_candidate", Mean(macs), "MAC");
  out->Set("serve.request_ms", Median(request_ms), "ms");
  out->Set("serve.overhead_ms", Median(overhead_ms), "ms");
  if (probe_queue_wait) {
    out->Set("serve.queue_wait_ms", Median(queue_wait_ms), "ms");
  }
  out->Set("serve.guardrail_admit_us", Mean(admit_us), "us");
  out->Set("serve.embedding_us", Mean(embed_us), "us");
  {
    std::vector<double> retrieve_us;
    for (const Query& q : in.queries) {
      std::vector<double> e = model.WorkloadEmbedding(*q.app, q.data, q.env);
      retrieve_us.push_back(MeanUs(20, [&] { cache->Retrieve(e, 4); }));
    }
    out->Set("serve.retrieve_us", Mean(retrieve_us), "us");
  }

  if (replay_mismatches > 0) {
    outcome->errors.push_back(
        "trace: " + std::to_string(replay_mismatches) +
        " replayed queries chose another config than LoadedLiteModel::Recommend");
  }

  // --- Both towers at their reference pool sizes, on every workload. -----
  {
    std::vector<double> exact_ms, int8_ms;
    for (const Query& q : in.queries) {
      exact_ms.push_back(TowerMs(runner, model, members, builder, q,
                                 CandidatePool(model, q, 1000),
                                 QuantBackend::kExactFp32, spans,
                                 "serve.score_candidate_set.exact1k"));
      int8_ms.push_back(TowerMs(runner, model, members, builder, q,
                                CandidatePool(model, q, 200),
                                QuantBackend::kInt8, spans,
                                "serve.score_candidate_set.int8_200"));
    }
    out->Set("lite.tower_exact_ms", Median(exact_ms), "ms");
    out->Set("lite.tower_int8_ms", Median(int8_ms), "ms");
  }

  // --- Stage planning and mid-job re-tuning. -----------------------------
  {
    std::vector<double> plan_ms, retune_ms, delta_pct;
    spark::StagePlannerOptions popts;
    for (size_t i = 0; i < in.queries.size() && model.stage_head() != nullptr;
         ++i) {
      const Query& q = in.queries[i];
      spark::StagePlan plan;
      plan_ms.push_back(Timed(spans, "lite.stage_plan", -1, -1, [&] {
        plan = model.PlanStages(*q.app, q.data, q.env, chosen[i], popts);
      }));
      spark::ParsedEventLog parsed;
      spark::ParseEventLog(
          runner.SubmitStaged(*q.app, q.data, q.env, plan.staged).event_log,
          &parsed);
      parsed.stages.resize(parsed.stages.size() / 2);
      retune_ms.push_back(Timed(spans, "lite.retune", -1, -1, [&] {
        model.RetuneStages(*q.app, q.data, q.env, plan.staged, parsed.stages,
                           popts);
      }));
      double plain = runner.Measure(*q.app, q.data, q.env, chosen[i]);
      double staged = runner.MeasureStaged(*q.app, q.data, q.env, plan.staged);
      delta_pct.push_back((staged / plain - 1.0) * 100.0);
    }
    out->Set("lite.stage_plan_ms", Median(plan_ms), "ms");
    out->Set("lite.retune_ms", Median(retune_ms), "ms");
    out->Set("lite.stage_sim_delta_pct", Mean(delta_pct), "%");
  }

  // --- The model plane: the saved snapshot as version 1, the updated
  // --- model as version 2, through a scratch plane and puller. -----------
  {
    std::unique_ptr<LoadedLiteModel> original =
        LoadedLiteModel::Load(in.snapshot->dir, &runner);
    if (original == nullptr) throw std::runtime_error("probe: snapshot load failed");
    std::map<std::string, std::string> v1, v2;
    out->Set("plane.encode_ms", Timed(spans, "plane.encode", -1, -1, [&] {
               original->EncodeBlobs(&v1);
             }), "ms");
    in.updated->EncodeBlobs(&v2);
    mp::ModelPlaneServer plane;
    out->Set("plane.publish_ms", Timed(spans, "plane.publish", -1, -1,
                                       [&] { plane.Publish(v1); }), "ms");
    mp::ShardPuller puller(plane.chain());
    std::string request = puller.MakeRequestFrame();
    std::string push;
    out->Set("plane.push_ms", Timed(spans, "plane.push", -1, -1, [&] {
               push = plane.HandleRequestFrame(request);
             }), "ms");
    out->Set("plane.apply_ms", Timed(spans, "plane.apply", -1, -1, [&] {
               puller.ApplyResponseFrame(push);
             }), "ms");
    out->Set("plane.decode_ms", Timed(spans, "plane.decode", -1, -1, [&] {
               LoadedLiteModel::LoadFromBlobs(*puller.installed_blobs(), &runner);
             }), "ms");
    plane.Publish(v2);
    puller.ApplyResponseFrame(plane.HandleRequestFrame(puller.MakeRequestFrame()));
    mp::ShardedServiceOptions fo;
    fo.shards = 1;
    fo.service.scoring.threads = 1;
    mp::ShardedTuningService fleet(&runner, &plane, fo);
    out->Set("plane.sync_shard_ms", Timed(spans, "plane.sync_shard", -1, -1,
                                          [&] { fleet.SyncShard(0); }), "ms");
    mp::ModelPlaneServer::Stats s = plane.stats();
    double full = s.full_pushes > 0
                      ? static_cast<double>(s.full_push_bytes) / s.full_pushes
                      : 0.0;
    double delta = s.delta_pushes > 0
                       ? static_cast<double>(s.delta_push_bytes) / s.delta_pushes
                       : 0.0;
    out->Set("plane.full_push_bytes", full, "bytes");
    out->Set("plane.delta_push_bytes", delta, "bytes");
    out->Set("plane.delta_ratio", full > 0 ? delta / full : 0.0, "fraction");
    out->Set("plane.pull_failures",
             static_cast<double>(puller.stats().failures +
                                 fleet.puller(0).stats().failures),
             "count");
  }
}

}  // namespace perfbench
