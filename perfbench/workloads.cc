// The four workloads of the serving benchmark. Each one trains the model
// under test, builds its serving topology (repeated to take a steady
// set-up time), drives timed request blocks through the
// public serving API, checks every answer, and reports the end-to-end
// metrics. Simulated job runs and correctness references are computed
// outside every timed interval.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "modelplane/plane_server.h"
#include "modelplane/sharded_service.h"
#include "obs/metrics.h"
#include "sparksim/eventlog.h"
#include "sparksim/knob.h"
#include "sparksim/stage_config.h"

namespace perfbench {

namespace spark = lite::spark;
namespace serve = lite::serve;
namespace mp = lite::modelplane;
using lite::LoadedLiteModel;
using lite::QuantBackend;

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  // splitmix64 over (seed, salt).
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Snapshot TrainSnapshot(const spark::SparkRunner& runner, size_t num_candidates,
                       const std::string& dir) {
  Snapshot s;
  s.dir = dir;
  lite::LiteOptions& o = s.options;
  // A short, fixed training budget (3 apps on cluster A, 4 epochs) with the
  // quick-scale NECS architecture: inference cost depends on the
  // architecture, not on how long the model trained. The training inputs
  // and seeds are fixed, not drawn from the workload seed: models trained
  // from different seeds differ enough in quality to move sim_speedup by
  // tens of percent, which would hide a change in the code under test.
  o.corpus.apps = {"TS", "PR", "KM"};
  o.corpus.clusters = {spark::ClusterEnv::ClusterA()};
  o.corpus.configs_per_setting = 2;
  o.corpus.max_stage_instances_per_run = 5;
  o.corpus.max_code_tokens = 128;
  o.corpus.seed = 17;
  o.necs = lite::NecsConfig{.emb_dim = 16, .cnn_widths = {3, 4, 5},
                            .cnn_kernels = 16, .code_dim = 32,
                            .gcn_hidden = 20};
  o.train.epochs = 4;
  o.train.lr = 1.5e-3f;
  o.train.seed = 23;
  o.acg.top_fraction = 0.25;
  o.acg.seed = 31;
  o.num_candidates = num_candidates;
  o.ensemble_size = 2;
  o.scoring_threads = 1;
  o.stage_tuning = true;
  o.seed = 41;

  Clock::time_point t0 = Clock::now();
  lite::LiteSystem system(&runner, o);
  system.TrainOffline();
  Clock::time_point t1 = Clock::now();
  if (!lite::SaveSnapshot(system, dir)) {
    throw std::runtime_error("SaveSnapshot failed in " + dir);
  }
  Clock::time_point t2 = Clock::now();
  s.train_s = Seconds(t0, t1);
  s.save_s = Seconds(t1, t2);
  s.bytes = DirectoryBytes(dir);
  return s;
}

const spark::AppRunResult& SimCache::Run(size_t query, const Query& q,
                                         const spark::Config& config) {
  std::lock_guard<std::mutex> lock(mu_);
  auto key = std::make_pair(query, config);
  auto it = runs_.find(key);
  if (it == runs_.end()) {
    it = runs_.emplace(key, runner_->cost_model().Run(*q.app, q.data, q.env,
                                                      config)).first;
  }
  return it->second;
}

double SimCache::DefaultSeconds(size_t query, const Query& q) {
  return runner_->Measure(*q.app, q.data, q.env,
                          spark::KnobSpace::Spark16().DefaultConfig());
}

namespace {

constexpr size_t kSetupRepeats = 5;
// p99 needs 1000 requests; closed loops send more (pool1k 1200, staged
// 2000), so that the faster blocks still hold enough.
constexpr size_t kMinTimedRequests = 1000;
// Other tenants of a shared host slow memory-bound work by up to ~1.7x, in
// phases of one to ten seconds that can fill most of a run. Short blocks
// let FastBlocks drop the slowed ones: p99 comes from the faster half of
// the blocks (it needs the samples), p50 and throughput from the fastest
// tenth, with at least kMinP50Requests.
constexpr size_t kTimedBlocks = 30;
constexpr double kP50BlockShare = 0.1;
constexpr size_t kMinP50Requests = 120;
// Synchronous update rounds of the workloads served by one service.
constexpr size_t kUpdateRounds = 12;

// ---------------------------------------------------------------------------
// Inputs.

/// `sizes` data sizes per app (test size times a seeded factor in
/// [lo, hi]) on each cluster, in app-major order.
std::vector<Query> MakeQueries(const std::vector<std::string>& apps,
                               size_t sizes,
                               const std::vector<spark::ClusterEnv>& clusters,
                               double lo, double hi, uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> factor(lo, hi);
  std::vector<Query> out;
  for (const std::string& name : apps) {
    const spark::ApplicationSpec* app = spark::AppCatalog::Find(name);
    if (app == nullptr) throw std::invalid_argument("unknown app " + name);
    for (size_t k = 0; k < sizes; ++k) {
      spark::DataSpec data = app->MakeData(app->test_size_mb * factor(gen));
      for (const spark::ClusterEnv& env : clusters) {
        out.push_back(Query{app, data, env});
      }
    }
  }
  return out;
}

// The closed-loop workloads use applications with three stages each:
// request cost grows with the stage count, and a 50/50 mix of 3- and
// 4-stage apps puts p50 on the boundary between two latency modes.
const std::vector<std::string> kThreeStageApps6 = {"WC", "CC", "KM",
                                                   "LiR", "LoR", "DT"};
const std::vector<std::string> kThreeStageApps8 = {"WC", "CC", "SP",  "LP",
                                                   "KM", "LiR", "LoR", "DT"};

std::vector<std::string> AllApps() {
  std::vector<std::string> names;
  for (const auto& a : spark::AppCatalog::All()) names.push_back(a.abbrev);
  return names;
}

/// A seeded permutation of [0, n).
std::vector<size_t> Permutation(size_t n, uint64_t seed) {
  std::vector<size_t> p(n);
  for (size_t i = 0; i < n; ++i) p[i] = i;
  std::shuffle(p.begin(), p.end(), std::mt19937_64(seed));
  return p;
}

bool SameRecommendation(const lite::LiteSystem::Recommendation& a,
                        const lite::LiteSystem::Recommendation& b) {
  return a.config == b.config && a.predicted_seconds == b.predicted_seconds;
}

// ---------------------------------------------------------------------------
// Request samples and the end-to-end metrics built from them.

struct Sample {
  double ms = 0.0;
  bool ok = false;
  bool traced = false;
  size_t block = 0;
  /// Closed loop: time from the client's previous reply to this call, the
  /// load generator's own delay between requests.
  double lag_ms = 0.0;
};

/// The timed requests of a run, in blocks. Time on a shared host comes in
/// bursts slowed by other tenants' load, so the latency and throughput
/// metrics come from the faster half of the blocks (see FastBlocks).
struct RequestLog {
  std::vector<Sample> samples;
  std::vector<double> block_seconds;
  uint64_t sent = 0;
  uint64_t rejected = 0;
  uint64_t failed = 0;

  /// Appends `block`'s samples as the next block.
  void Append(const RequestLog& block) {
    const size_t base = block_seconds.size();
    for (Sample s : block.samples) {
      s.block += base;
      samples.push_back(s);
    }
    block_seconds.insert(block_seconds.end(), block.block_seconds.begin(),
                         block.block_seconds.end());
    sent += block.sent;
    rejected += block.rejected;
    failed += block.failed;
  }
  uint64_t ok() const { return sent - rejected - failed; }
};

/// latency_p99_ms over the faster half of the blocks (widened until it
/// holds kMinTimedRequests requests), latency_p50_ms and throughput_rps
/// over the fastest tenth (at least kMinP50Requests requests), and
/// slo_attainment over every request; plus the traced-vs-untraced p50
/// overhead on traced runs. A closed loop of `clients` clients with no
/// think time completes clients / mean latency requests per second
/// (Little's law); timing the blocks instead would count the tail of each
/// block, where the clients that finished early sit idle. An open loop
/// (`clients` == 0) completes what its schedule sent.
void SetRequestMetrics(const RequestLog& log, double slo_ms, size_t clients,
                       bool trace, Outcome* out) {
  std::vector<std::vector<double>> blocks(log.block_seconds.size());
  std::vector<double> traced_ms, untraced_ms;
  uint64_t within = 0;
  std::vector<double> lag_ms;
  for (const Sample& s : log.samples) {
    lag_ms.push_back(s.lag_ms);
    if (!s.ok) continue;
    blocks.at(s.block).push_back(s.ms);
    (s.traced ? traced_ms : untraced_ms).push_back(s.ms);
    if (s.ms <= slo_ms) ++within;
  }
  auto pool_blocks = [&](const std::vector<size_t>& chosen,
                         std::vector<double>* ms) {
    double seconds = 0.0;
    for (size_t b : chosen) {
      ms->insert(ms->end(), blocks[b].begin(), blocks[b].end());
      seconds += log.block_seconds[b];
    }
    return seconds;
  };
  std::vector<double> tail, pooled;
  const std::vector<size_t> half = FastBlocks(blocks, kMinTimedRequests);
  pool_blocks(half, &tail);
  const std::vector<size_t> fastest =
      FastBlocks(blocks, kMinP50Requests, kP50BlockShare);
  const double pooled_seconds = pool_blocks(fastest, &pooled);
  if (TailPercentile(tail.size()) < 99.0) {
    out->errors.push_back("only " + std::to_string(tail.size()) +
                          " ok timed requests: p99 needs 10 samples beyond it");
  }
  out->end_to_end.Set("latency_p50_ms", Percentile(pooled, 50), "ms");
  out->end_to_end.Set("latency_p99_ms", Percentile(tail, 99), "ms");
  double throughput = 0.0;
  if (clients > 0) {
    out->layers.Set("harness.gen_lag_p99_ms", Percentile(lag_ms, 99), "ms");
    double sum_ms = 0.0;
    for (double ms : pooled) sum_ms += ms;
    throughput = sum_ms > 0 ? static_cast<double>(clients * pooled.size()) /
                                  (sum_ms / 1e3)
                            : 0.0;
  } else if (pooled_seconds > 0) {
    throughput = static_cast<double>(pooled.size()) / pooled_seconds;
  }
  out->end_to_end.Set("throughput_rps", throughput, "1/s");
  out->end_to_end.Set("slo_attainment",
                      log.sent > 0 ? static_cast<double>(within) /
                                         static_cast<double>(log.sent)
                                   : 0.0,
                      "fraction");
  double overhead = 0.0;
  if (trace && !traced_ms.empty() && !untraced_ms.empty()) {
    double base = Median(untraced_ms);
    overhead = base > 0 ? (Median(traced_ms) / base - 1.0) * 100.0 : 0.0;
  }
  out->layers.Set("trace.overhead_pct", overhead, "%");
  out->attempted += log.sent;
  out->failed += log.rejected + log.failed;
  out->counts.push_back({"requests_sent", log.sent});
  out->counts.push_back({"requests_ok", log.ok()});
  out->counts.push_back({"requests_rejected", log.rejected});
  out->counts.push_back({"requests_failed", log.failed});
  out->counts.push_back({"timed_blocks", log.block_seconds.size()});
  out->counts.push_back({"blocks_for_p99", half.size()});
  out->counts.push_back({"requests_for_p99", tail.size()});
  out->counts.push_back({"blocks_for_p50", fastest.size()});
  out->counts.push_back({"requests_for_p50", pooled.size()});
}

/// One closed-loop block: `clients` threads each send a request, wait for
/// its reply, and repeat until stop(elapsed seconds, requests done) holds.
/// `fn(c)` performs client c's next request and returns whether it
/// succeeded. On traced runs every other request records a "request" span.
RequestLog ClosedLoop(size_t clients, bool trace, SpanLog* spans,
                      const std::function<bool(double, uint64_t)>& stop,
                      const std::function<bool(size_t)>& fn) {
  std::atomic<uint64_t> done{0};
  std::vector<std::vector<Sample>> per_client(clients);
  Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        Clock::time_point previous = start;
        for (uint64_t k = 0;; ++k) {
          bool traced = trace && k % 2 == 0;
          Clock::time_point t0 = Clock::now();
          bool ok = fn(c);
          Clock::time_point t1 = Clock::now();
          if (traced) spans->Add("request", t0, t1);
          per_client[c].push_back(
              Sample{Ms(t0, t1), ok, traced, 0, Ms(previous, t0)});
          previous = t1;
          uint64_t total = ++done;
          if (stop(Seconds(start, t1), total)) break;
        }
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Clock::time_point end = Clock::now();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  RequestLog log;
  log.block_seconds.push_back(Seconds(start, end));
  for (auto& v : per_client) {
    for (const Sample& s : v) {
      log.samples.push_back(s);
      ++log.sent;
      if (!s.ok) ++log.failed;
    }
  }
  return log;
}

// ---------------------------------------------------------------------------
// Set-up.

/// Builds the serving topology `kSetupRepeats` times (load -> install ->
/// warm, from the saved snapshot) and keeps the last one; returns the
/// median of the faster half of the build times, in seconds. `build`
/// returns its own duration.
template <typename Topology>
double RepeatedSetup(std::unique_ptr<Topology>* keep,
                     const std::function<double(std::unique_ptr<Topology>*)>&
                         build) {
  std::vector<double> times;
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    std::unique_ptr<Topology> fresh;
    times.push_back(build(&fresh));
    *keep = std::move(fresh);  // the previous topology is torn down here.
  }
  return FastHalfMedian(times);
}

/// Per-repeat layer timings of the set-up (medians go to the traced run).
struct SetupTimes {
  std::vector<double> load_ms;
  std::vector<double> install_ms;
};

std::unique_ptr<LoadedLiteModel> TimedLoad(const spark::SparkRunner& runner,
                                           const std::string& dir,
                                           SetupTimes* times) {
  Clock::time_point t0 = Clock::now();
  std::unique_ptr<LoadedLiteModel> m = LoadedLiteModel::Load(dir, &runner);
  times->load_ms.push_back(Ms(t0, Clock::now()));
  if (m == nullptr) throw std::runtime_error("snapshot failed to load: " + dir);
  return m;
}

void TimedInstall(serve::TuningService* service,
                  std::unique_ptr<LoadedLiteModel> model, SetupTimes* times) {
  Clock::time_point t0 = Clock::now();
  service->InstallSnapshot(std::move(model));
  times->install_ms.push_back(Ms(t0, Clock::now()));
}

/// One request per distinct query on a "warm" session.
void WarmPass(serve::TuningService* service, const std::vector<Query>& qs) {
  int session = service->OpenSession("warm");
  for (const Query& q : qs) service->Recommend(session, *q.app, q.data, q.env);
}

/// The set-up of a workload served by one TuningService (see
/// RepeatedSetup); keeps the last service built.
double SetUpSingleService(const spark::SparkRunner& runner,
                          const serve::ServiceOptions& so, const Snapshot& snap,
                          const std::vector<Query>& qs, SetupTimes* times,
                          std::unique_ptr<serve::TuningService>* keep) {
  return RepeatedSetup<serve::TuningService>(
      keep, [&](std::unique_ptr<serve::TuningService>* t) {
        Clock::time_point t0 = Clock::now();
        *t = std::make_unique<serve::TuningService>(&runner, so);
        TimedInstall(t->get(), TimedLoad(runner, snap.dir, times), times);
        WarmPass(t->get(), qs);
        return Seconds(t0, Clock::now());
      });
}

void SetSetupMetrics(Clock::time_point start, const Snapshot& snap,
                     Clock::time_point trained, double topology_s,
                     const SetupTimes& times, Outcome* out) {
  out->end_to_end.Set("setup_s", Seconds(start, trained) + topology_s, "s");
  out->layers.Set("lite.train_offline_ms", snap.train_s * 1e3, "ms");
  out->layers.Set("lite.snapshot_save_ms", snap.save_s * 1e3, "ms");
  out->layers.Set("lite.snapshot_load_ms", FastHalfMedian(times.load_ms), "ms");
  out->layers.Set("lite.snapshot_bytes", static_cast<double>(snap.bytes),
                  "bytes");
  out->layers.Set("serve.install_ms", FastHalfMedian(times.install_ms), "ms");
}

// ---------------------------------------------------------------------------
// Registry counters read around the timed blocks.

struct CounterDeltas {
  static constexpr const char* kNames[] = {
      "necs_encoder_cache_hits_total", "necs_encoder_cache_lookups_total",
      "qk_gemm_rows_total", "lite_seeded_candidates_total"};
  uint64_t before[4] = {};
  uint64_t after[4] = {};

  static uint64_t Read(const char* name) {
    return lite::obs::MetricsRegistry::Global().GetCounter(name)->Value();
  }
  void Begin() {
    for (int i = 0; i < 4; ++i) before[i] = Read(kNames[i]);
  }
  void End() {
    for (int i = 0; i < 4; ++i) after[i] = Read(kNames[i]);
  }
  double Delta(int i) const {
    return static_cast<double>(after[i] - before[i]);
  }

  void SetMetrics(uint64_t requests, Outcome* out) const {
    double n = requests > 0 ? static_cast<double>(requests) : 1.0;
    out->layers.Set("lite.encoder_cache_hit_ratio",
                    Delta(1) > 0 ? Delta(0) / Delta(1) : 0.0, "fraction");
    out->layers.Set("tensor.qk_gemm_rows_per_request", Delta(2) / n, "rows");
    out->layers.Set("serve.seeded_candidates_per_request", Delta(3) / n,
                    "count");
  }
};

// ---------------------------------------------------------------------------
// Synchronous update rounds.

/// Synchronous adaptive-update rounds on `service`. Each round submits the
/// same feedback batch, calls ForceAdaptiveUpdate and then `propagate` (a
/// fleet's SyncAll; nothing for a lone service, which serves the new
/// generation when the call returns). A round runs from the update call
/// to the end of `propagate`. The batch is the simulated default-config
/// runs of fixed queries, not of the seeded ones: the fine-tune's cost
/// depends on the feedback, and a seeded batch moved it by 1.7x between
/// seeds.
class UpdateRounds {
 public:
  UpdateRounds(const spark::SparkRunner& runner, serve::TuningService* service)
      : service_(service),
        queries_(MakeQueries({"WC", "CC"}, 1, {spark::ClusterEnv::ClusterA()},
                             1.0, 1.0, 0)),
        session_(service->OpenSession("update-rounds")) {
    for (const Query& q : queries_) {
      runs_.push_back(runner.cost_model().Run(*q.app, q.data, q.env, defaults_));
    }
  }

  void Run(const std::function<void()>& propagate, Outcome* out) {
    std::vector<double> us;
    for (size_t k = 0; k < queries_.size(); ++k) {
      const Query& q = queries_[k];
      Clock::time_point t0 = Clock::now();
      service_->SubmitFeedback(session_, *q.app, q.data, q.env, defaults_,
                               runs_[k]);
      us.push_back(Ms(t0, Clock::now()) * 1e3);
    }
    feedback_us_.push_back(Median(us));
    const uint64_t generation = service_->CurrentSnapshot()->generation();
    Clock::time_point t0 = Clock::now();
    service_->ForceAdaptiveUpdate();
    Clock::time_point t1 = Clock::now();
    propagate();
    Clock::time_point t2 = Clock::now();
    if (service_->CurrentSnapshot()->generation() != generation + 1) {
      out->errors.push_back("update round did not install a new generation");
    }
    log_.AddRound({t0, t2});
    adaptive_ms_.push_back(Ms(t0, t1));
  }
  RoundLog* log() { return &log_; }
  size_t rounds() const { return log_.rounds(); }

  /// Sets update_to_serve_ms and the update layers.
  void SetMetrics(Outcome* out) const {
    out->end_to_end.Set("update_to_serve_ms", log_.FastRoundMs(), "ms");
    out->layers.Set("lite.adaptive_update_ms",
                    FastestMedian(adaptive_ms_, 0.25), "ms");
    out->layers.Set("serve.feedback_us", FastHalfMedian(feedback_us_), "us");
  }

 private:
  serve::TuningService* service_;
  const spark::Config defaults_ = spark::KnobSpace::Spark16().DefaultConfig();
  std::vector<Query> queries_;
  std::vector<spark::AppRunResult> runs_;
  int session_;
  RoundLog log_;
  std::vector<double> adaptive_ms_, feedback_us_;
};

/// update_to_serve_ms of a workload served by one TuningService: the
/// result format asks every workload for every end-to-end metric. The
/// rounds run on a second service holding a clone of the served model (the
/// served service may hold the traffic's feedback, which would change the
/// size of the first fine-tune), between timed blocks and spread over the
/// run: the host's memory-bound speed drifts by up to 1.7x over seconds,
/// and six rounds run back to back after the traffic moved
/// update_to_serve_ms by 0.48 (quartile spread over median) between seeds.
class SideRounds {
 public:
  SideRounds(const spark::SparkRunner& runner, const LoadedLiteModel& served,
             serve::ServiceOptions so)
      : service_(&runner, Plain(std::move(so))), rounds_(runner, &service_) {
    service_.InstallSnapshot(served.Clone());
  }

  void Run(Outcome* out) { rounds_.Run([] {}, out); }
  size_t rounds() const { return rounds_.rounds(); }

  /// Sets the update metrics; returns the model the rounds produced.
  std::shared_ptr<const LoadedLiteModel> Finish(Outcome* out) {
    rounds_.SetMetrics(out);
    return service_.CurrentSnapshot();
  }

 private:
  static serve::ServiceOptions Plain(serve::ServiceOptions so) {
    so.update_batch = 0;
    so.guardrail.enabled = false;
    so.retrieval.enabled = false;
    so.stage_tuning.enabled = false;
    return so;
  }

  serve::TuningService service_;
  UpdateRounds rounds_;
};

/// Closed-loop timed blocks of seconds / kTimedBlocks each, kTimedBlocks
/// of them and then more until `min_requests` requests were sent, with a
/// side round after every kTimedBlocks / kUpdateRounds-th block.
RequestLog TimedBlocks(double seconds, size_t clients, uint64_t min_requests,
                       bool trace, SpanLog* spans, SideRounds* side,
                       Outcome* out, const std::function<bool(size_t)>& fn) {
  const double block_s = seconds / kTimedBlocks;
  const size_t every = kTimedBlocks / kUpdateRounds;
  RequestLog log;
  for (size_t b = 0; b < kTimedBlocks || log.sent < min_requests; ++b) {
    log.Append(ClosedLoop(clients, trace, spans,
                          [block_s](double elapsed, uint64_t) {
                            return elapsed >= block_s;
                          },
                          fn));
    if (b % every == every - 1 && side->rounds() < kUpdateRounds) side->Run(out);
  }
  return log;
}

/// sim_speedup: geometric mean over queries of simulated default-config
/// runtime / simulated runtime of the served (staged) config.
double SimSpeedup(const spark::SparkRunner& runner, const std::vector<Query>& qs,
                  const std::vector<spark::StagedConfig>& served,
                  SimCache* sims) {
  std::vector<double> ratios;
  for (size_t i = 0; i < qs.size(); ++i) {
    double tuned = runner.MeasureStaged(*qs[i].app, qs[i].data, qs[i].env,
                                        served[i]);
    ratios.push_back(sims->DefaultSeconds(i, qs[i]) / tuned);
  }
  return GeoMean(ratios);
}

std::vector<spark::StagedConfig> Plain(const std::vector<spark::Config>& cs) {
  std::vector<spark::StagedConfig> out;
  for (const spark::Config& c : cs) out.push_back(spark::StagedConfig{c, {}});
  return out;
}

/// Records peak_rss_mb, after the timed traffic.
void SetPeakRss(Outcome* out) {
  out->end_to_end.Set("peak_rss_mb", PeakRssMb(), "MB");
}

/// Median over requests of reply time minus submit time minus the
/// pipeline's own wall time, in ms (the wait outside the pipeline).
void SetQueueWait(const std::vector<double>& wait_ms, Outcome* out) {
  out->layers.Set("serve.queue_wait_ms", Median(wait_ms), "ms");
}

void SetMemoRatio(serve::TuningService* service, Outcome* out) {
  double ratio = 0.0;
  if (service->retrieval() != nullptr) {
    serve::RetrievalCache::Stats s = service->retrieval()->stats();
    uint64_t n = s.hits + s.misses;
    ratio = n > 0 ? static_cast<double>(s.hits) / static_cast<double>(n) : 0.0;
  }
  out->layers.Set("serve.memo_hit_ratio", ratio, "fraction");
}

// ---------------------------------------------------------------------------
// pool1k: exact fp32 scoring of 1000-candidate pools, one closed-loop
// client. The NECS tower does the work.

Outcome RunPool1k(const Args& args, SpanLog* spans) {
  Outcome out;
  Clock::time_point start = Clock::now();
  spark::SparkRunner runner;
  ScopedTempDir scratch(args.scratch);
  const std::vector<Query> qs =
      MakeQueries(kThreeStageApps6, 2,
                  {spark::ClusterEnv::ClusterA()}, 0.8, 1.25,
                  SubSeed(args.seed, 10));
  Snapshot snap = TrainSnapshot(runner, 1000, scratch.path());
  Clock::time_point trained = Clock::now();

  serve::ServiceOptions so;
  so.scoring.threads = 1;
  so.scoring.backend = QuantBackend::kExactFp32;
  so.update_batch = 0;
  SetupTimes times;
  std::unique_ptr<serve::TuningService> kept;
  double topology_s = SetUpSingleService(runner, so, snap, qs, &times, &kept);
  SetSetupMetrics(start, snap, trained, topology_s, times, &out);
  serve::TuningService* service = kept.get();

  // Reference answers: the snapshot served directly, same scoring options.
  std::unique_ptr<LoadedLiteModel> reference =
      LoadedLiteModel::Load(snap.dir, &runner);
  if (reference == nullptr) throw std::runtime_error("reference load failed");
  reference->set_scoring(so.scoring);
  std::vector<lite::LiteSystem::Recommendation> want;
  for (const Query& q : qs) want.push_back(reference->Recommend(*q.app, q.data, q.env));

  // One client. With two, both scoring workers bounce the cache lines of
  // shared state (encoder caches, registry counters), whose cost depends
  // on where the host places the two vCPUs: p50 moved between 26 and 49 ms
  // from run to run, against 24-25 ms with one client.
  const size_t clients = 1;
  std::vector<int> sessions;
  for (size_t c = 0; c < clients; ++c) {
    sessions.push_back(service->OpenSession("client-" + std::to_string(c)));
  }
  const std::vector<size_t> order = Permutation(qs.size(), SubSeed(args.seed, 11));
  std::vector<std::vector<std::pair<size_t, serve::TuningService::Response>>>
      got(clients);
  std::vector<std::vector<double>> waits(clients);
  std::vector<uint64_t> next(clients, 0);
  std::atomic<double> pending_max{0.0};
  lite::obs::Gauge* pending =
      lite::obs::MetricsRegistry::Global().GetGauge("serve_pending_requests");
  SideRounds side(runner, *service->CurrentSnapshot(), so);
  CounterDeltas counters;
  counters.Begin();
  RequestLog log = TimedBlocks(
      args.seconds, clients, 1200, args.trace, spans, &side, &out,
      [&](size_t c) {
        size_t qi = order[(next[c]++ * clients + c) % order.size()];
        const Query& q = qs[qi];
        Clock::time_point t0 = Clock::now();
        std::future<serve::TuningService::Response> f =
            service->SubmitRecommend(sessions[c], *q.app, q.data, q.env);
        double p = pending->Value();
        if (p > pending_max.load()) pending_max = p;
        serve::TuningService::Response r = f.get();
        waits[c].push_back(Ms(t0, Clock::now()) -
                           r.rec.recommend_wall_seconds * 1e3);
        bool ok = r.ok;
        got[c].push_back({qi, std::move(r)});
        return ok;
      });
  counters.End();
  for (const auto& per_client : got) {
    for (const auto& [qi, r] : per_client) {
      if (r.ok && !SameRecommendation(r.rec, want[qi])) {
        out.errors.push_back("pool1k: response differs from "
                             "LoadedLiteModel::Recommend");
        break;
      }
    }
  }
  SetRequestMetrics(log, 250.0, clients, args.trace, &out);
  counters.SetMetrics(log.sent, &out);
  std::vector<double> all_waits;
  for (const auto& w : waits) all_waits.insert(all_waits.end(), w.begin(), w.end());
  SetQueueWait(all_waits, &out);
  out.layers.Set("serve.pending_max", pending_max.load(), "count");
  SetMemoRatio(service, &out);

  std::vector<spark::Config> served;
  for (const auto& w : want) served.push_back(w.config);
  SimCache sims(&runner);
  out.end_to_end.Set("sim_speedup", SimSpeedup(runner, qs, Plain(served), &sims),
                     "x");
  SetPeakRss(&out);
  std::shared_ptr<const LoadedLiteModel> updated = side.Finish(&out);
  if (args.trace) {
    ProbeInput in;
    in.runner = &runner;
    in.snapshot = &snap;
    in.model = service->CurrentSnapshot();
    in.updated = updated;
    in.service = service;
    in.queries = qs;
    in.pool = 1000;
    in.spans = spans;
    ProbeLayers(in, &out);
  }
  return out;
}

// ---------------------------------------------------------------------------
// mixed_open: open-loop Poisson traffic from 32 tenants over a Zipf-skewed
// query space, guardrail + retrieval on, int8 scoring, feedback for every
// served config. The service layers do the work.

/// Blocking FIFO with close(); pop() returns nullopt once closed and empty.
template <typename T>
class Channel {
 public:
  void Push(T v) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      items_.push_back(std::move(v));
    }
    cv_.notify_one();
  }
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T v = std::move(items_.front());
    items_.pop_front();
    return v;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

struct OpenRequest {
  double offset_s = 0.0;
  size_t tenant = 0;
  size_t query = 0;
  bool repeat = false;
};

constexpr double kOpenRate = 600.0;         // requests per second.
constexpr double kRepeatShare = 0.7;        // exact repeats of earlier pairs.
constexpr double kRepeatMinAgeS = 0.05;     // a repeat's pair is this old.
constexpr size_t kTenants = 32;
constexpr double kOpenSloMs = 50.0;

/// Poisson schedule of (tenant, query) pairs. With probability
/// kRepeatShare a request repeats a pair first sent at least
/// kRepeatMinAgeS earlier (a memo hit), its query drawn from a Zipf(1.1)
/// popularity over a seeded permutation of the query space. Otherwise it
/// is a pair never sent before, tenant and query drawn uniformly, so the
/// mix of misses does not depend on which queries the seed made popular.
std::vector<OpenRequest> OpenSchedule(size_t num_queries, double seconds,
                                      uint64_t seed) {
  std::vector<double> offsets =
      PoissonSchedule(kOpenRate, seconds, SubSeed(seed, 21));
  std::mt19937_64 gen(SubSeed(seed, 22));
  std::vector<size_t> rank = Permutation(num_queries, SubSeed(seed, 23));
  std::vector<double> weights(num_queries);
  for (size_t r = 0; r < num_queries; ++r) {
    weights[rank[r]] = 1.0 / std::pow(static_cast<double>(r + 1), 1.1);
  }
  std::discrete_distribution<size_t> zipf(weights.begin(), weights.end());
  std::uniform_int_distribution<size_t> tenant(0, kTenants - 1);
  std::uniform_int_distribution<size_t> query(0, num_queries - 1);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  using Pair = std::pair<size_t, size_t>;  // (tenant, query)
  std::vector<std::pair<double, Pair>> first_seen;
  std::set<Pair> used;
  std::vector<std::vector<Pair>> eligible_by_query(num_queries);
  size_t eligible = 0;
  std::vector<OpenRequest> out;
  for (double t : offsets) {
    while (eligible < first_seen.size() &&
           first_seen[eligible].first <= t - kRepeatMinAgeS) {
      const Pair& p = first_seen[eligible].second;
      eligible_by_query[p.second].push_back(p);
      ++eligible;
    }
    OpenRequest req;
    req.offset_s = t;
    std::optional<Pair> pick;
    if (eligible > 0 && u(gen) < kRepeatShare) {
      for (int attempt = 0; attempt < 64 && !pick; ++attempt) {
        const std::vector<Pair>& pairs = eligible_by_query[zipf(gen)];
        if (!pairs.empty()) {
          pick = pairs[std::uniform_int_distribution<size_t>(
              0, pairs.size() - 1)(gen)];
        }
      }
      if (!pick) {
        pick = first_seen[std::uniform_int_distribution<size_t>(
                              0, eligible - 1)(gen)]
                   .second;
      }
      req.repeat = true;
    } else {
      for (int attempt = 0; attempt < 1000 && !pick; ++attempt) {
        Pair p{tenant(gen), query(gen)};
        if (used.insert(p).second) {
          first_seen.push_back({t, p});
          pick = p;
        }
      }
      if (!pick) continue;  // the pair space is exhausted; skip the slot.
    }
    req.tenant = pick->first;
    req.query = pick->second;
    out.push_back(req);
  }
  return out;
}

Outcome RunMixedOpen(const Args& args, SpanLog* spans) {
  Outcome out;
  Clock::time_point start = Clock::now();
  spark::SparkRunner runner;
  ScopedTempDir scratch(args.scratch);
  const std::vector<Query> qs = MakeQueries(
      AllApps(), 3,
      {spark::ClusterEnv::ClusterA(), spark::ClusterEnv::ClusterB(),
       spark::ClusterEnv::ClusterC()},
      0.8, 1.25, SubSeed(args.seed, 20));
  const std::vector<OpenRequest> schedule =
      OpenSchedule(qs.size(), args.seconds, args.seed);
  Snapshot snap = TrainSnapshot(runner, 200, scratch.path());
  Clock::time_point trained = Clock::now();

  serve::ServiceOptions so;
  so.scoring.threads = 1;
  so.scoring.backend = QuantBackend::kInt8;
  so.update_batch = 0;
  so.max_stage_instances_per_run = 4;
  so.guardrail.enabled = true;
  // Tenants mix applications whose runtimes differ by orders of magnitude,
  // so the regression breaker would compare unlike jobs: admission and
  // observation run in full, but the breaker never trips.
  so.guardrail.regression_ratio_threshold = 1e9;
  so.guardrail.failure_rate_threshold = 1.0;
  so.retrieval.enabled = true;
  so.retrieval.memoize = true;
  so.retrieval.top_k_seeds = 4;
  SetupTimes times;
  std::unique_ptr<serve::TuningService> kept;
  double topology_s = SetUpSingleService(runner, so, snap, qs, &times, &kept);
  SetSetupMetrics(start, snap, trained, topology_s, times, &out);
  serve::TuningService* service = kept.get();

  std::vector<int> sessions;
  for (size_t t = 0; t < kTenants; ++t) {
    sessions.push_back(service->OpenSession("tenant-" + std::to_string(t)));
  }

  struct Reply {
    OpenLoopSample time;
    serve::TuningService::Response response;
  };
  const size_t n = schedule.size();
  std::vector<Reply> replies(n);
  SimCache sims(&runner);
  std::vector<double> feedback_us;
  SideRounds side(runner, *service->CurrentSnapshot(), so);

  // A memo hit is answered inside SubmitRecommend, so the generator stamps
  // it as it returns. The poller stamps every other reply as soon as its
  // future is ready: a thread blocked on the future would add its own
  // wake-up to every latency. The feedback thread simulates each served
  // config and submits it. Neither touches the generator's schedule.
  using Submitted = std::pair<size_t, std::future<serve::TuningService::Response>>;
  std::mutex submitted_mu;
  std::vector<Submitted> submitted;
  std::atomic<bool> all_sent{false};
  std::atomic<size_t> fed{0};
  Channel<size_t> to_feedback;
  std::thread poller([&] {
    std::vector<Submitted> open;
    for (bool last = false; !last || !open.empty();) {
      last = all_sent.load();
      {
        std::lock_guard<std::mutex> lock(submitted_mu);
        for (Submitted& s : submitted) open.push_back(std::move(s));
        submitted.clear();
      }
      for (size_t k = 0; k < open.size();) {
        if (open[k].second.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++k;
          continue;
        }
        Clock::time_point now = Clock::now();
        size_t i = open[k].first;
        replies[i].response = open[k].second.get();
        replies[i].time.replied = now;
        to_feedback.Push(i);
        open[k] = std::move(open.back());
        open.pop_back();
      }
      // Misses take a millisecond or more; a short sleep keeps the poller
      // from taking a core from the service's workers.
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  std::thread feedback([&] {
    while (auto i = to_feedback.Pop()) {
      const Reply& r = replies[*i];
      if (r.response.ok) {
        const OpenRequest& req = schedule[*i];
        const Query& q = qs[req.query];
        const spark::AppRunResult& run =
            sims.Run(req.query, q, r.response.rec.config);
        Clock::time_point t0 = Clock::now();
        service->SubmitFeedback(sessions[req.tenant], *q.app, q.data, q.env,
                                r.response.rec.config, run);
        feedback_us.push_back(Ms(t0, Clock::now()) * 1e3);
      }
      ++fed;
    }
  });

  lite::obs::Gauge* pending =
      lite::obs::MetricsRegistry::Global().GetGauge("serve_pending_requests");
  double pending_max = 0.0;
  auto offset = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };
  // The schedule runs in kUpdateRounds segments. Between two segments the
  // generator waits until every reply is in and fed back, runs a side
  // round, and resumes the schedule where it stopped: the pause is charged
  // to no request.
  const double segment_s = args.seconds / kUpdateRounds;
  size_t segment = 0;
  CounterDeltas counters;
  counters.Begin();
  Clock::time_point t_start = Clock::now() + std::chrono::milliseconds(20);
  for (size_t i = 0; i < n; ++i) {
    const OpenRequest& req = schedule[i];
    const size_t seg = std::min(kUpdateRounds - 1,
                                static_cast<size_t>(req.offset_s / segment_s));
    if (seg != segment) {
      while (fed.load() < i) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      side.Run(&out);
      segment = seg;
      t_start = Clock::now() + std::chrono::milliseconds(1) -
                offset(static_cast<double>(seg) * segment_s);
    }
    Clock::time_point due = t_start + offset(req.offset_s);
    // Sleep to just short of the due time, then spin: sleep wake-up jitter
    // would otherwise be charged to every request.
    std::this_thread::sleep_until(due - std::chrono::microseconds(300));
    while (Clock::now() < due) {
    }
    const Query& q = qs[req.query];
    replies[i].time.scheduled = due;
    replies[i].time.sent = Clock::now();
    std::future<serve::TuningService::Response> f = service->SubmitRecommend(
        sessions[req.tenant], *q.app, q.data, q.env);
    Clock::time_point returned = Clock::now();
    pending_max = std::max(pending_max, pending->Value());
    if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      replies[i].response = f.get();
      replies[i].time.replied = returned;
      to_feedback.Push(i);
      continue;
    }
    std::lock_guard<std::mutex> lock(submitted_mu);
    submitted.push_back({i, std::move(f)});
  }
  all_sent = true;
  poller.join();
  counters.End();
  to_feedback.Close();
  feedback.join();
  service->Drain();
  while (side.rounds() < kUpdateRounds) side.Run(&out);

  // Blocks by scheduled send time.
  const double block_s = args.seconds / kTimedBlocks;
  RequestLog log;
  log.block_seconds.assign(kTimedBlocks, block_s);
  std::vector<double> lag_ms, waits;
  int64_t request_id = 0;
  for (size_t i = 0; i < n; ++i) {
    const Reply& r = replies[i];
    bool traced = args.trace && i % 2 == 0;
    size_t block = std::min(kTimedBlocks - 1,
                            static_cast<size_t>(schedule[i].offset_s / block_s));
    log.samples.push_back(
        Sample{r.time.latency_ms(), r.response.ok, traced, block});
    if (traced) {
      spans->Add("request", r.time.scheduled, r.time.replied, -1, request_id++);
    }
    ++log.sent;
    if (r.response.rejected) {
      ++log.rejected;
    } else if (!r.response.ok) {
      ++log.failed;
    }
    if (r.response.ok && !r.response.from_cache) {
      waits.push_back(Ms(r.time.sent, r.time.replied) -
                      r.response.rec.recommend_wall_seconds * 1e3);
    }
    lag_ms.push_back(r.time.lag_ms());
  }
  SetRequestMetrics(log, kOpenSloMs, 0, args.trace, &out);
  counters.SetMetrics(log.sent, &out);
  SetQueueWait(waits, &out);
  out.layers.Set("serve.pending_max", pending_max, "count");
  out.layers.Set("harness.gen_lag_p99_ms", Percentile(lag_ms, 99), "ms");
  SetMemoRatio(service, &out);

  // Correctness: a memo hit is only ever served from the live generation.
  for (const serve::CacheEvent& e : service->retrieval()->EventLog()) {
    if (e.type == serve::CacheEventType::kHit &&
        e.generation != e.live_generation) {
      out.errors.push_back("mixed_open: stale-generation memo hit");
      break;
    }
  }

  // sim_speedup over every distinct query, with the served model's own
  // answer (no retrieval seeds, no memo). The configs the service answers
  // after the traffic depend on which feedback reached the retrieval index
  // first, and a few of them fail on the simulator: their geometric mean
  // spread 0.31 (quartile spread over median) between seeds.
  std::vector<spark::Config> served;
  for (const Query& q : qs) {
    served.push_back(
        service->CurrentSnapshot()->Recommend(*q.app, q.data, q.env).config);
  }
  out.end_to_end.Set("sim_speedup", SimSpeedup(runner, qs, Plain(served), &sims),
                     "x");
  uint64_t repeats = 0;
  for (const OpenRequest& r : schedule) repeats += r.repeat ? 1 : 0;
  out.counts.push_back({"scheduled_repeats", repeats});
  out.counts.push_back({"feedback_submitted", feedback_us.size()});

  SetPeakRss(&out);
  std::shared_ptr<const LoadedLiteModel> updated = side.Finish(&out);
  // The traffic's own SubmitFeedback calls, not the rounds' few.
  out.layers.Set("serve.feedback_us", Median(feedback_us), "us");
  if (args.trace) {
    ProbeInput in;
    in.runner = &runner;
    in.snapshot = &snap;
    in.model = service->CurrentSnapshot();
    in.updated = updated;
    in.service = service;
    // Every k-th query: a dozen spread over apps, sizes and clusters.
    for (size_t i = 0; i < qs.size(); i += qs.size() / 12) {
      in.queries.push_back(qs[i]);
    }
    in.pool = 200;
    in.spans = spans;
    ProbeLayers(in, &out);
  }
  return out;
}

// ---------------------------------------------------------------------------
// staged: RecommendStaged then one Retune per job, one closed-loop client,
// data sizes the snapshot never trained on. The per-stage planner does the
// work.

Outcome RunStaged(const Args& args, SpanLog* spans) {
  Outcome out;
  Clock::time_point start = Clock::now();
  spark::SparkRunner runner;
  ScopedTempDir scratch(args.scratch);
  const std::vector<Query> qs = MakeQueries(
      kThreeStageApps8, 2,
      {spark::ClusterEnv::ClusterA()}, 0.8, 1.25, SubSeed(args.seed, 30));
  Snapshot snap = TrainSnapshot(runner, 200, scratch.path());
  Clock::time_point trained = Clock::now();

  serve::ServiceOptions so;
  so.scoring.threads = 1;
  so.scoring.backend = QuantBackend::kInt8;
  so.update_batch = 0;
  so.stage_tuning.enabled = true;
  SetupTimes times;
  std::unique_ptr<serve::TuningService> kept;
  double topology_s = SetUpSingleService(runner, so, snap, qs, &times, &kept);
  SetSetupMetrics(start, snap, trained, topology_s, times, &out);
  serve::TuningService* service = kept.get();

  // Untimed: each query's staged plan, its simulated run, and the first
  // half of that run's stage events — the prefix every Retune sees.
  int session = service->OpenSession("jobs");
  std::vector<spark::StagedConfig> planned;
  std::vector<std::vector<spark::StageEvent>> prefixes;
  for (const Query& q : qs) {
    serve::TuningService::StagedResponse sr =
        service->RecommendStaged(session, *q.app, q.data, q.env);
    planned.push_back(sr.staged);
    spark::Submission sub = runner.SubmitStaged(*q.app, q.data, q.env, sr.staged);
    spark::ParsedEventLog parsed;
    if (!spark::ParseEventLog(sub.event_log, &parsed)) {
      throw std::runtime_error("simulated event log did not parse");
    }
    parsed.stages.resize(parsed.stages.size() / 2);
    prefixes.push_back(std::move(parsed.stages));
  }

  const std::vector<size_t> order = Permutation(qs.size(), SubSeed(args.seed, 31));
  uint64_t invalid = 0, drifted = 0, retunes_failed = 0, planned_count = 0;
  uint64_t next = 0;
  SideRounds side(runner, *service->CurrentSnapshot(), so);
  CounterDeltas counters;
  counters.Begin();
  RequestLog log = TimedBlocks(
      args.seconds, 1, 2000, args.trace, spans, &side, &out, [&](size_t) {
        size_t qi = order[next++ % order.size()];
        const Query& q = qs[qi];
        serve::TuningService::StagedResponse sr =
            service->RecommendStaged(session, *q.app, q.data, q.env);
        serve::TuningService::RetuneResponse rr = service->Retune(
            session, *q.app, q.data, q.env, sr.staged, prefixes[qi]);
        if (!spark::ValidateStagedConfig(sr.staged, *q.app, nullptr) ||
            !spark::ValidateStagedConfig(rr.staged, *q.app, nullptr)) {
          ++invalid;
        }
        if (sr.staged.base != planned[qi].base ||
            sr.staged.overrides.size() != planned[qi].overrides.size()) {
          ++drifted;
        }
        if (!rr.ok) ++retunes_failed;
        if (sr.stage_tuned) ++planned_count;
        return sr.base.ok && rr.ok;
      });
  counters.End();
  if (invalid > 0) {
    out.errors.push_back("staged: " + std::to_string(invalid) +
                         " staged configs failed ValidateStagedConfig");
  }
  if (drifted > 0) {
    out.errors.push_back("staged: RecommendStaged is not deterministic");
  }
  SetRequestMetrics(log, 100.0, 1, args.trace, &out);
  counters.SetMetrics(log.sent, &out);
  SetMemoRatio(service, &out);
  // One synchronous client: nothing ever waits in the admission queue.
  out.layers.Set("serve.pending_max", 0.0, "count");
  out.counts.push_back({"stage_plans", planned_count});
  out.counts.push_back({"retunes_failed", retunes_failed});

  SimCache sims(&runner);
  out.end_to_end.Set("sim_speedup", SimSpeedup(runner, qs, planned, &sims), "x");
  SetPeakRss(&out);
  std::shared_ptr<const LoadedLiteModel> updated = side.Finish(&out);
  if (args.trace) {
    ProbeInput in;
    in.runner = &runner;
    in.snapshot = &snap;
    in.model = service->CurrentSnapshot();
    in.updated = updated;
    in.service = service;
    in.queries = qs;
    in.pool = 200;
    in.spans = spans;
    ProbeLayers(in, &out);
  }
  return out;
}

// ---------------------------------------------------------------------------
// update_plane: a publisher TuningService feeds 4 shards of a
// ShardedTuningService through a ModelPlaneServer; 2 closed-loop clients
// over 16 tenants; synchronous update rounds between fixed-size request
// blocks. The fine-tune and the plane do the work.

struct PlaneTopology {
  // Declaration order is teardown order reversed: the fleet and the
  // publisher both point at the plane.
  std::unique_ptr<mp::ModelPlaneServer> plane;
  std::unique_ptr<serve::TuningService> publisher;
  std::unique_ptr<mp::ShardedTuningService> fleet;
};

constexpr size_t kShards = 4;
constexpr size_t kPlaneTenants = 16;
constexpr size_t kPlaneBlocks = 20;
constexpr double kPlaneRequestsPerSecond = 1000.0;  // sizes the blocks.

Outcome RunUpdatePlane(const Args& args, SpanLog* spans) {
  Outcome out;
  Clock::time_point start = Clock::now();
  spark::SparkRunner runner;
  ScopedTempDir scratch(args.scratch);
  const std::vector<Query> qs = MakeQueries(
      kThreeStageApps8, 1,
      {spark::ClusterEnv::ClusterA(), spark::ClusterEnv::ClusterB()}, 0.8, 1.25,
      SubSeed(args.seed, 40));
  Snapshot snap = TrainSnapshot(runner, 200, scratch.path());
  Clock::time_point trained = Clock::now();

  mp::ShardedServiceOptions fo;
  fo.shards = kShards;
  fo.service.scoring.threads = 1;
  fo.service.scoring.backend = QuantBackend::kInt8;
  fo.service.update_batch = 0;
  const serve::ServiceOptions& so = fo.service;
  SetupTimes times;
  std::unique_ptr<PlaneTopology> topo;
  double topology_s = RepeatedSetup<PlaneTopology>(
      &topo, [&](std::unique_ptr<PlaneTopology>* t) {
        Clock::time_point t0 = Clock::now();
        auto p = std::make_unique<PlaneTopology>();
        p->plane = std::make_unique<mp::ModelPlaneServer>();
        p->publisher = std::make_unique<serve::TuningService>(&runner, so);
        mp::AttachPublisher(p->publisher.get(), p->plane.get());
        TimedInstall(p->publisher.get(), TimedLoad(runner, snap.dir, &times),
                     &times);
        p->fleet =
            std::make_unique<mp::ShardedTuningService>(&runner, p->plane.get(), fo);
        if (p->fleet->SyncAll() != kShards) {
          throw std::runtime_error("initial shard sync failed");
        }
        WarmPass(p->publisher.get(), qs);
        for (size_t i = 0; i < kShards; ++i) WarmPass(p->fleet->shard(i), qs);
        *t = std::move(p);
        return Seconds(t0, Clock::now());
      });
  SetSetupMetrics(start, snap, trained, topology_s, times, &out);
  mp::ModelPlaneServer& plane = *topo->plane;
  serve::TuningService& publisher = *topo->publisher;
  mp::ShardedTuningService& fleet = *topo->fleet;

  // Seeded tenant names, four per shard.
  std::vector<std::string> tenants;
  std::vector<size_t> per_shard(kShards, 0);
  std::mt19937_64 gen(SubSeed(args.seed, 41));
  while (tenants.size() < kPlaneTenants) {
    std::string name = "tenant-" + std::to_string(gen() % 1000000);
    size_t shard = fleet.RouteShard(name);
    if (per_shard[shard] < kPlaneTenants / kShards &&
        std::find(tenants.begin(), tenants.end(), name) == tenants.end()) {
      ++per_shard[shard];
      tenants.push_back(name);
    }
  }
  std::vector<int> sessions;
  for (const std::string& t : tenants) sessions.push_back(fleet.OpenSession(t));
  const int pub_session = publisher.OpenSession("publisher-probe");
  std::vector<int> probe_sessions;
  for (size_t i = 0; i < kShards; ++i) {
    probe_sessions.push_back(fleet.shard(i)->OpenSession("shard-probe"));
  }

  // After block b, untimed: the publisher's answer to every query, and on
  // every shard a probe query (rotating over the queries from block to
  // block) whose answer must match the publisher's bit for bit at the
  // plane version.
  auto check_shards = [&](size_t b, std::vector<spark::Config>* served) {
    std::vector<lite::LiteSystem::Recommendation> want;
    served->clear();
    for (const Query& q : qs) {
      serve::TuningService::Response r =
          publisher.Recommend(pub_session, *q.app, q.data, q.env);
      want.push_back(r.rec);
      served->push_back(r.rec.config);
    }
    for (size_t i = 0; i < kShards; ++i) {
      const std::string shard = "update_plane: shard " + std::to_string(i);
      if (fleet.shard_version(i) != plane.version()) {
        out.errors.push_back(shard + " is not at the plane version");
      }
      const size_t qi = (b * kShards + i) % qs.size();
      const Query& q = qs[qi];
      serve::TuningService::Response r =
          fleet.shard(i)->Recommend(probe_sessions[i], *q.app, q.data, q.env);
      if (!r.ok || !SameRecommendation(r.rec, want[qi])) {
        out.errors.push_back(shard + " answers query " + std::to_string(qi) +
                             " differently from the publisher");
      }
    }
  };

  const size_t block_requests = static_cast<size_t>(
      kPlaneRequestsPerSecond * args.seconds / kPlaneBlocks);
  const size_t clients = 2;
  SimCache sims(&runner);
  UpdateRounds rounds(runner, &publisher);
  RequestLog log;
  std::vector<spark::Config> served;
  std::vector<uint64_t> next(clients, 0);
  CounterDeltas counters;
  counters.Begin();
  // Every block starts right after a round, on shards that have just
  // installed a new version.
  for (size_t b = 0; b < kPlaneBlocks; ++b) {
    rounds.Run(
        [&] {
          if (fleet.SyncAll() != kShards) {
            out.errors.push_back("update_plane: a shard missed a plane version");
          }
        },
        &out);
    Clock::time_point block_start = Clock::now();
    log.Append(ClosedLoop(
        clients, args.trace, spans,
        [&](double, uint64_t done) { return done >= block_requests; },
        [&](size_t c) {
          uint64_t k = next[c]++;
          size_t t = (c + clients * k) % tenants.size();
          const Query& q = qs[(t + k) % qs.size()];
          return fleet.Recommend(sessions[t], *q.app, q.data, q.env).ok;
        }));
    rounds.log()->AddBlock({block_start, Clock::now()});
    check_shards(b, &served);
  }
  counters.End();
  if (!rounds.log()->Disjoint()) {
    out.errors.push_back("update_plane: an update round overlapped a block");
  }
  uint64_t pulls = 0, pull_failures = 0;
  for (size_t i = 0; i < kShards; ++i) {
    mp::ShardPuller::Stats s = fleet.puller(i).stats();
    pulls += s.pulls;
    pull_failures += s.failures;
  }
  if (pull_failures > 0) {
    out.errors.push_back("update_plane: " + std::to_string(pull_failures) +
                         " failed or torn pulls on fault-free links");
  }
  SetRequestMetrics(log, 100.0, clients, args.trace, &out);
  out.attempted += pulls;
  out.failed += pull_failures;
  out.counts.push_back({"plane_pulls", pulls});
  out.counts.push_back({"plane_pull_failures", pull_failures});
  out.counts.push_back({"update_rounds", rounds.log()->rounds()});
  out.counts.push_back({"plane_version", plane.version()});
  counters.SetMetrics(log.sent, &out);
  SetMemoRatio(&publisher, &out);
  // Synchronous clients: nothing ever waits in an admission queue.
  out.layers.Set("serve.pending_max", 0.0, "count");
  rounds.SetMetrics(&out);
  out.end_to_end.Set("sim_speedup", SimSpeedup(runner, qs, Plain(served), &sims),
                     "x");
  SetPeakRss(&out);
  if (args.trace) {
    ProbeInput in;
    in.runner = &runner;
    in.snapshot = &snap;
    in.model = fleet.shard(0)->CurrentSnapshot();
    in.updated = publisher.CurrentSnapshot();
    in.service = fleet.shard(0);
    in.queries = qs;
    in.pool = 200;
    in.spans = spans;
    ProbeLayers(in, &out);
    out.layers.Set("plane.pull_failures", static_cast<double>(pull_failures),
                   "count");
  }
  return out;
}

}  // namespace

Outcome RunWorkload(const Args& args, SpanLog* spans) {
  if (args.workload == "pool1k") return RunPool1k(args, spans);
  if (args.workload == "mixed_open") return RunMixedOpen(args, spans);
  if (args.workload == "staged") return RunStaged(args, spans);
  if (args.workload == "update_plane") return RunUpdatePlane(args, spans);
  throw std::invalid_argument("unknown workload '" + args.workload + "'");
}

}  // namespace perfbench
