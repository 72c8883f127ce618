// Round-trip fuzzing of the serialization formats (Spark event logs, Chrome
// traces, the snapshot file and its meta, the retrieval index, the model
// plane's wire): random truncations, byte flips, deletions and line splices
// of valid documents must produce either a clean parse failure or a
// structurally sane result — never a crash, hang or out-of-bounds read
// (this suite is part of the ASan CI job). Replayable via LITE_TEST_SEED.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "lite/lite_system.h"
#include "lite/snapshot.h"
#include "modelplane/blob.h"
#include "modelplane/plane_server.h"
#include "modelplane/shard_puller.h"
#include "modelplane/wire.h"
#include "serve/retrieval_cache.h"
#include "serve/tuning_service.h"
#include "sparksim/eventlog.h"
#include "sparksim/stage_config.h"
#include "sparksim/stage_planner.h"
#include "sparksim/knob.h"
#include "sparksim/runner.h"
#include "sparksim/trace.h"
#include "testkit/gen.h"
#include "testkit/temp_dir.h"
#include "util/logging.h"
#include "util/rng.h"

namespace lite {
namespace {

std::string SeedNote() {
  return "replay with: LITE_TEST_SEED=" +
         std::to_string(testkit::SeedFromEnv());
}

/// Structure-aware corpus: a handful of genuine documents produced by the
/// simulator (several apps/clusters, one deliberately failing run).
struct FuzzCorpus {
  std::vector<std::string> event_logs;
  std::vector<std::string> traces;
};

FuzzCorpus BuildCorpus(uint64_t seed) {
  FuzzCorpus corpus;
  spark::SparkRunner runner;
  testkit::TupleGenerator gen(testkit::GenOptions{}, seed);
  for (int i = 0; i < 6; ++i) {
    testkit::WorkloadTuple t = gen.Next();
    spark::AppRunResult run =
        runner.cost_model().Run(*t.app, t.data, t.env, t.config);
    corpus.event_logs.push_back(spark::WriteEventLog(*t.app, run));
    corpus.traces.push_back(spark::WriteChromeTrace(*t.app, run));
  }
  return corpus;
}

std::string Truncate(const std::string& doc, Rng* rng) {
  if (doc.empty()) return doc;
  return doc.substr(0, rng->Index(doc.size()));
}

std::string FlipBytes(const std::string& doc, Rng* rng) {
  if (doc.empty()) return doc;
  std::string out = doc;
  size_t flips = 1 + rng->Index(8);
  for (size_t i = 0; i < flips; ++i) {
    size_t pos = rng->Index(out.size());
    out[pos] = static_cast<char>(rng->UniformInt(0, 255));
  }
  return out;
}

std::string DeleteSpan(const std::string& doc, Rng* rng) {
  if (doc.size() < 2) return doc;
  size_t start = rng->Index(doc.size() - 1);
  size_t len = 1 + rng->Index(std::min<size_t>(doc.size() - start, 40));
  std::string out = doc;
  out.erase(start, len);
  return out;
}

std::string SpliceLines(const std::string& doc, Rng* rng) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start <= doc.size()) {
    size_t nl = doc.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(doc.substr(start));
      break;
    }
    lines.push_back(doc.substr(start, nl - start));
    start = nl + 1;
  }
  if (lines.size() < 2) return doc;
  // Shuffle a few lines, duplicate one, drop one.
  rng->Shuffle(&lines);
  lines.push_back(lines[rng->Index(lines.size())]);
  lines.erase(lines.begin() + static_cast<long>(rng->Index(lines.size())));
  std::string out;
  for (size_t i = 0; i < lines.size(); ++i) {
    out += lines[i];
    if (i + 1 < lines.size()) out += '\n';
  }
  return out;
}

std::string Mutate(const std::string& doc, Rng* rng) {
  switch (rng->Index(5)) {
    case 0: return Truncate(doc, rng);
    case 1: return FlipBytes(doc, rng);
    case 2: return DeleteSpan(doc, rng);
    case 3: return SpliceLines(doc, rng);
    default: return FlipBytes(Truncate(doc, rng), rng);
  }
}

/// A parse that claims success on mutated input must still hand back a
/// structurally sane object — finite times, bounded sizes.
void CheckEventLogSanity(const spark::ParsedEventLog& parsed,
                         const std::string& context) {
  EXPECT_LT(parsed.stages.size(), 1u << 20) << context;
  EXPECT_TRUE(std::isfinite(parsed.total_seconds)) << context;
  for (const auto& s : parsed.stages) {
    EXPECT_TRUE(std::isfinite(s.seconds)) << context;
  }
}

void CheckTraceSanity(const spark::ParsedChromeTrace& parsed,
                      const std::string& context) {
  EXPECT_LT(parsed.spans.size(), 1u << 20) << context;
  for (const auto& s : parsed.spans) {
    EXPECT_TRUE(std::isfinite(s.ts_us)) << context;
    EXPECT_TRUE(std::isfinite(s.dur_us)) << context;
  }
}

TEST(SerializationFuzzTest, EventLogParserSurvivesCorruption) {
  uint64_t seed = testkit::SeedFromEnv();
  FuzzCorpus corpus = BuildCorpus(seed);
  Rng rng(seed ^ 0xe7e2);
  size_t rounds = std::max<size_t>(50, testkit::CasesFromEnv());
  for (size_t i = 0; i < rounds; ++i) {
    const std::string& base = corpus.event_logs[i % corpus.event_logs.size()];
    std::string mutated = Mutate(base, &rng);
    spark::ParsedEventLog parsed;
    bool ok = spark::ParseEventLog(mutated, &parsed);
    if (ok) {
      CheckEventLogSanity(parsed, "round " + std::to_string(i) + "; " +
                                      SeedNote());
    }
  }
}

TEST(SerializationFuzzTest, TraceParserSurvivesCorruption) {
  uint64_t seed = testkit::SeedFromEnv();
  FuzzCorpus corpus = BuildCorpus(seed);
  Rng rng(seed ^ 0x7ace);
  size_t rounds = std::max<size_t>(50, testkit::CasesFromEnv());
  for (size_t i = 0; i < rounds; ++i) {
    const std::string& base = corpus.traces[i % corpus.traces.size()];
    std::string mutated = Mutate(base, &rng);
    spark::ParsedChromeTrace parsed;
    bool ok = spark::ParseChromeTrace(mutated, &parsed);
    if (ok) {
      CheckTraceSanity(parsed, "round " + std::to_string(i) + "; " +
                                   SeedNote());
    }
  }
}

// Degenerate inputs must fail cleanly (and must not be accepted).
TEST(SerializationFuzzTest, DegenerateInputsRejectedCleanly) {
  const std::vector<std::string> junk = {
      "",
      "\n\n\n",
      "not json at all",
      "{\"event\":\"",
      std::string(1 << 16, '{'),
      std::string("\x00\xff\x7f\n\x01", 5),
      "[\n",
      "]\n",
      "[{\"ph\":\"X\"",
  };
  for (const std::string& doc : junk) {
    spark::ParsedEventLog ev;
    spark::ParsedChromeTrace tr;
    EXPECT_FALSE(spark::ParseEventLog(doc, &ev))
        << "event-log parser accepted junk of size " << doc.size();
    EXPECT_FALSE(spark::ParseChromeTrace(doc, &tr))
        << "trace parser accepted junk of size " << doc.size();
  }
}

// A valid document prefixed/suffixed with a corrupted copy still parses the
// way the parser documents: either a clean failure or a sane result — the
// parsers must never read past the buffer (ASan enforces).
TEST(SerializationFuzzTest, ConcatenatedDocumentsDoNotCrash) {
  uint64_t seed = testkit::SeedFromEnv();
  FuzzCorpus corpus = BuildCorpus(seed);
  Rng rng(seed ^ 0xc047);
  for (size_t i = 0; i + 1 < corpus.event_logs.size(); ++i) {
    std::string doc = corpus.event_logs[i] + Mutate(corpus.event_logs[i + 1],
                                                    &rng);
    spark::ParsedEventLog parsed;
    if (spark::ParseEventLog(doc, &parsed)) {
      CheckEventLogSanity(parsed, "concat event logs; " + SeedNote());
    }
    std::string trace =
        corpus.traces[i] + Mutate(corpus.traces[i + 1], &rng);
    spark::ParsedChromeTrace tparsed;
    if (spark::ParseChromeTrace(trace, &tparsed)) {
      CheckTraceSanity(tparsed, "concat traces; " + SeedNote());
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot meta.txt forward-compatibility: unknown keys written by a newer
// exporter must be skipped with a warning (not hard-fail the load), and a
// truncated meta blob must produce a clean nullptr — never a crash or an
// out-of-bounds read (ASan enforces).

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Trains the tiny model the snapshot fuzz fixtures share (training
/// dominates their runtime).
std::unique_ptr<LiteSystem> TrainTinySystem(const spark::SparkRunner* runner,
                                            bool stage_tuning) {
  LiteOptions opts;
  opts.corpus.apps = {"TS"};
  opts.corpus.clusters = {spark::ClusterEnv::ClusterA()};
  opts.corpus.configs_per_setting = 2;
  opts.corpus.max_stage_instances_per_run = 4;
  opts.corpus.max_code_tokens = 64;
  opts.necs.emb_dim = 8;
  opts.necs.cnn_widths = {3};
  opts.necs.cnn_kernels = 4;
  opts.necs.code_dim = 8;
  opts.necs.gcn_hidden = 8;
  opts.train.epochs = 1;
  opts.num_candidates = 8;
  opts.ensemble_size = 1;
  opts.stage_tuning = stage_tuning;
  opts.stage_head_train.epochs = 1;
  auto system = std::make_unique<LiteSystem>(runner, opts);
  system->TrainOffline();
  return system;
}

/// One trained snapshot on disk plus its pristine blob set. Mutations edit
/// single blobs and rewrite the file with a re-hashed manifest
/// (WriteSnapshotBlobs), so they get past the container's checks and reach
/// the part parsers.
struct BlobSnapshot {
  spark::SparkRunner runner;
  std::unique_ptr<LiteSystem> system;
  std::string dir;
  std::map<std::string, std::string> blobs;

  void Init(bool stage_tuning, const std::string& dir_path) {
    system = TrainTinySystem(&runner, stage_tuning);
    dir = dir_path;
    EXPECT_TRUE(SaveSnapshot(*system, dir));
    EXPECT_TRUE(EncodeSnapshotBlobs(*system, &blobs));
  }

  /// Rewrites the snapshot with blob `name` replaced by `contents`.
  void Write(const std::string& name, const std::string& contents) const {
    std::map<std::string, std::string> edited = blobs;
    edited[name] = contents;
    EXPECT_TRUE(WriteSnapshotBlobs(edited, dir));
  }

  /// Rewrites the snapshot without blob `name`.
  void Drop(const std::string& name) const {
    std::map<std::string, std::string> edited = blobs;
    edited.erase(name);
    EXPECT_TRUE(WriteSnapshotBlobs(edited, dir));
  }

  void Restore() const { EXPECT_TRUE(WriteSnapshotBlobs(blobs, dir)); }
};

/// The headless snapshot shared by the meta and snapshot-file fuzz tests.
struct SnapshotFixture : BlobSnapshot {
  std::string meta;  ///< pristine meta.txt contents.

  static SnapshotFixture& Get() {
    static testkit::ScopedTempDir tmp("meta_fuzz_snapshot");
    static SnapshotFixture* f = [] {
      auto* fx = new SnapshotFixture();
      fx->Init(/*stage_tuning=*/false, tmp.path());
      fx->meta = fx->blobs.at("meta.txt");
      return fx;
    }();
    return *f;
  }

  void WriteMeta(const std::string& contents) const {
    Write("meta.txt", contents);
  }
};

TEST(SnapshotMetaFuzzTest, UnknownMetaKeysAreSkippedNotFatal) {
  SnapshotFixture& fx = SnapshotFixture::Get();
  const auto* app = spark::AppCatalog::Find("TS");
  spark::DataSpec data = app->MakeData(app->test_size_mb);
  spark::ClusterEnv env = spark::ClusterEnv::ClusterA();

  fx.WriteMeta(fx.meta);
  auto pristine = LoadedLiteModel::Load(fx.dir, &fx.runner);
  ASSERT_NE(pristine, nullptr);
  LiteSystem::Recommendation want = pristine->Recommend(*app, data, env);

  // Keys a newer writer might append: scalar, vector-valued, free-text with
  // spaces, valueless, and a final key with no trailing newline.
  const std::vector<std::string> futures = {
      fx.meta + "calibration_temp 0.85\n",
      fx.meta + "quantization int8 per_channel\nexport_sha 3f9ab2\n",
      fx.meta + "note built by a newer exporter with extra metadata\n",
      fx.meta + "experimental_flag\n",
      fx.meta + "trailing_key_without_newline 1",
  };
  // Unknown keys may also appear between known ones, not just at the end.
  size_t first_nl = fx.meta.find('\n');
  ASSERT_NE(first_nl, std::string::npos);
  std::string interleaved = fx.meta;
  interleaved.insert(first_nl + 1, "provenance run-2031-01 cluster-x\n");

  for (const std::string& doc : futures) {
    fx.WriteMeta(doc);
    auto loaded = LoadedLiteModel::Load(fx.dir, &fx.runner);
    ASSERT_NE(loaded, nullptr) << "rejected forward-compatible meta:\n" << doc;
    LiteSystem::Recommendation got = loaded->Recommend(*app, data, env);
    EXPECT_EQ(got.config, want.config);
    EXPECT_EQ(got.predicted_seconds, want.predicted_seconds);
  }
  fx.WriteMeta(interleaved);
  auto loaded = LoadedLiteModel::Load(fx.dir, &fx.runner);
  ASSERT_NE(loaded, nullptr) << "rejected interleaved unknown key";
  LiteSystem::Recommendation got = loaded->Recommend(*app, data, env);
  EXPECT_EQ(got.config, want.config);

  fx.WriteMeta(fx.meta);  // restore for later tests.
}

TEST(SnapshotMetaFuzzTest, TruncatedMetaFailsCleanly) {
  SnapshotFixture& fx = SnapshotFixture::Get();
  uint64_t seed = testkit::SeedFromEnv();
  Rng rng(seed ^ 0x5a9d);

  // Every prefix length is either rejected (nullptr) or — when the cut
  // happens to land on a whole-line boundary past all required keys —
  // loads a usable model. Never a crash.
  size_t rounds = std::max<size_t>(60, testkit::CasesFromEnv());
  for (size_t i = 0; i < rounds; ++i) {
    size_t cut = rng.Index(fx.meta.size());
    fx.WriteMeta(fx.meta.substr(0, cut));
    auto loaded = LoadedLiteModel::Load(fx.dir, &fx.runner);
    if (loaded != nullptr) {
      EXPECT_GE(loaded->ensemble_size(), 1u)
          << "cut=" << cut << "; " << SeedNote();
    }
  }
  // The empty file and a bare magic line are always rejected.
  fx.WriteMeta("");
  EXPECT_EQ(LoadedLiteModel::Load(fx.dir, &fx.runner), nullptr);
  fx.WriteMeta("litesnapshot v1\n");
  EXPECT_EQ(LoadedLiteModel::Load(fx.dir, &fx.runner), nullptr);

  fx.WriteMeta(fx.meta);  // restore.
  EXPECT_NE(LoadedLiteModel::Load(fx.dir, &fx.runner), nullptr);
}

// --- The snapshot file: one fuzz target for model bytes -------------------
//
// Every model byte a process reads from disk comes through the snapshot
// file, one container (the model plane's pushes embed the same one). Its
// decoder checks the framing, the manifest checksum and every blob's size
// and content hash against the manifest, so every strict prefix of the file
// and every single-byte change must make Load return nullptr — never a
// crash or an out-of-bounds read (ASan enforces).

/// Load over the snapshot as it is on disk, with the per-rejection warning
/// muted (these loops reject thousands of files).
bool LoadsQuietly(const SnapshotFixture& fx) {
  const LogLevel level = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  const bool loaded = LoadedLiteModel::Load(fx.dir, &fx.runner) != nullptr;
  SetLogLevel(level);
  return loaded;
}

TEST(SnapshotFileFuzzTest, EveryTruncationIsRejected) {
  SnapshotFixture& fx = SnapshotFixture::Get();
  fx.Restore();
  const std::string path = fx.dir + "/" + kSnapshotFile;
  const size_t size = ReadFile(path).size();
  ASSERT_GT(size, 0u);
  ASSERT_TRUE(LoadsQuietly(fx));

  size_t accepted = 0, example = 0;
  for (size_t len = size; len-- > 0;) {
    std::filesystem::resize_file(path, len);
    if (LoadsQuietly(fx)) {
      ++accepted;
      example = len;
    }
  }
  EXPECT_EQ(accepted, 0u) << "e.g. the " << example << "-byte prefix of "
                          << size << " loaded";
  fx.Restore();
  EXPECT_TRUE(LoadsQuietly(fx));
}

TEST(SnapshotFileFuzzTest, SingleByteFlipsAreRejected) {
  SnapshotFixture& fx = SnapshotFixture::Get();
  fx.Restore();
  const std::string path = fx.dir + "/" + kSnapshotFile;
  const std::string file = ReadFile(path);
  ASSERT_FALSE(file.empty());
  Rng rng(testkit::SeedFromEnv() ^ 0xf11b5);

  size_t accepted = 0, example = 0;
  const size_t rounds = std::max<size_t>(512, testkit::CasesFromEnv());
  for (size_t i = 0; i < rounds; ++i) {
    std::string bad = file;
    const size_t at = rng.Index(bad.size());
    bad[at] = static_cast<char>(bad[at] ^ (1 + rng.Index(255)));
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bad;
    if (LoadsQuietly(fx)) {
      ++accepted;
      example = at;
    }
  }
  EXPECT_EQ(accepted, 0u) << "e.g. a flip at byte " << example << " loaded; "
                          << SeedNote();
  fx.Restore();
  EXPECT_TRUE(LoadsQuietly(fx));
}

// --- Retrieval index (`literetrieval v1`) fuzzing -------------------------
//
// The retrieval cache's index file is the one serving-layer artifact loaded
// from disk; a corrupted index must either fail LoadIndex cleanly (cache
// unchanged) or commit a bounded, structurally sane index — never crash,
// and never feed the serving path values it cannot survive.

serve::RetrievalCacheOptions FuzzCacheOptions() {
  serve::RetrievalCacheOptions o;
  o.enabled = true;
  o.max_index_entries = 16;
  return o;
}

/// A genuine index document: synthetic but well-formed entries saved by the
/// real writer.
std::string BuildIndexDoc(uint64_t seed) {
  serve::RetrievalCache cache(FuzzCacheOptions());
  Rng rng(seed);
  for (int i = 0; i < 5; ++i) {
    std::vector<double> embedding(6);
    for (double& v : embedding) v = rng.Gaussian();
    spark::Config config = spark::KnobSpace::Spark16().RandomConfig(&rng);
    cache.InsertOutcome(i % 2 == 0 ? "tenant-a" : "tenant b",  // space on purpose
                        "TS", 100 + i, embedding, config,
                        5.0 + rng.Uniform() * 50.0, 1, i == 0);
  }
  testkit::ScopedTempDir tmp("fuzz_index_base");
  const std::string path = tmp.path() + "/index.txt";
  EXPECT_TRUE(cache.SaveIndex(path));
  return ReadFile(path);
}

bool LoadIndexDoc(const std::string& doc, serve::RetrievalCache* cache) {
  testkit::ScopedTempDir tmp("fuzz_index_mut");
  const std::string path = tmp.path() + "/index.txt";
  std::ofstream(path, std::ios::trunc | std::ios::binary) << doc;
  return cache->LoadIndex(path);
}

TEST(RetrievalIndexFuzzTest, LoaderSurvivesCorruption) {
  uint64_t seed = testkit::SeedFromEnv();
  Rng rng(seed ^ 0x1d3au);
  const std::string base = BuildIndexDoc(seed);

  size_t rounds = std::max<size_t>(80, testkit::CasesFromEnv());
  for (size_t i = 0; i < rounds; ++i) {
    std::string mutated = Mutate(base, &rng);
    serve::RetrievalCache cache(FuzzCacheOptions());
    // A sentinel entry: a rejected load must leave it untouched.
    cache.InsertOutcome("sentinel", "PR", 1, {0.0, 0.0},
                        spark::KnobSpace::Spark16().DefaultConfig(), 10.0, 1,
                        false);
    if (LoadIndexDoc(mutated, &cache)) {
      // Committed: bounded and structurally sane — retrieval over the
      // loaded entries must produce finite, ordered distances.
      EXPECT_LE(cache.index_size(), FuzzCacheOptions().max_index_entries)
          << SeedNote();
      std::vector<serve::RetrievedSeed> seeds =
          cache.Retrieve(std::vector<double>(6, 0.0), 8);
      double prev = 0.0;
      for (const serve::RetrievedSeed& s : seeds) {
        EXPECT_TRUE(std::isfinite(s.distance)) << SeedNote();
        EXPECT_TRUE(std::isfinite(s.observed_seconds)) << SeedNote();
        EXPECT_GE(s.distance, prev) << SeedNote();
        prev = s.distance;
      }
    } else {
      // Rejected: the pre-existing index survives verbatim.
      EXPECT_EQ(cache.index_size(), 1u) << SeedNote();
      EXPECT_EQ(cache.Retrieve({0.0, 0.0}, 1).size(), 1u) << SeedNote();
    }
  }
}

TEST(RetrievalIndexFuzzTest, UnknownKeysAreSkippedNotFatal) {
  uint64_t seed = testkit::SeedFromEnv();
  const std::string base = BuildIndexDoc(seed);

  serve::RetrievalCache pristine(FuzzCacheOptions());
  ASSERT_TRUE(LoadIndexDoc(base, &pristine));
  const std::vector<serve::RetrievedSeed> want =
      pristine.Retrieve(std::vector<double>(6, 0.25), 8);

  // Keys a newer writer might append, inside an entry (after the first
  // "tenant" line) and between the header and the first entry.
  const std::string inside = "provenance run-2031 cluster x\nscore 0.5\n";
  std::string doctored = base;
  size_t tenant_pos = doctored.find("tenant");
  ASSERT_NE(tenant_pos, std::string::npos);
  size_t line_end = doctored.find('\n', tenant_pos);
  ASSERT_NE(line_end, std::string::npos);
  doctored.insert(line_end + 1, inside);
  size_t header_end = doctored.find('\n', doctored.find("entries"));
  ASSERT_NE(header_end, std::string::npos);
  doctored.insert(header_end + 1, "checksum 3f9ab2c1\n");

  serve::RetrievalCache loaded(FuzzCacheOptions());
  ASSERT_TRUE(LoadIndexDoc(doctored, &loaded))
      << "rejected forward-compatible index";
  EXPECT_EQ(loaded.index_size(), pristine.index_size());
  const std::vector<serve::RetrievedSeed> got =
      loaded.Retrieve(std::vector<double>(6, 0.25), 8);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].config, want[i].config) << "seed " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << "seed " << i;
    EXPECT_EQ(got[i].observed_seconds, want[i].observed_seconds)
        << "seed " << i;
  }
}

TEST(RetrievalIndexFuzzTest, DegenerateInputsRejectedCleanly) {
  for (const std::string& doc : {
           std::string(),
           std::string("literetrieval v1\n"),
           std::string("wrongmagic v1\nentries 0\n"),
           std::string("literetrieval v2\nentries 0\n"),
           std::string("literetrieval v1\nentries 184467440737095516\n"),
           std::string("literetrieval v1\nentries 2\ntenant t\nend\n"),
           // Absurd embedding dimension.
           std::string("literetrieval v1\nentries 1\ntenant t\n"
                       "embedding 999999999 1.0\nend\n"),
           // Non-finite payload values of known keys.
           std::string("literetrieval v1\nentries 1\ntenant t\n"
                       "seconds nan\nembedding 1 0.0\nconfig 1 0.0\nend\n"),
           std::string("literetrieval v1\nentries 1\ntenant t\nseconds 1\n"
                       "embedding 2 nan 0.0\nconfig 1 0.0\nend\n"),
       }) {
    serve::RetrievalCache cache(FuzzCacheOptions());
    EXPECT_FALSE(LoadIndexDoc(doc, &cache)) << "accepted:\n" << doc;
    EXPECT_EQ(cache.index_size(), 0u);
  }
  // "entries 0" with the right magic is a valid empty index.
  serve::RetrievalCache cache(FuzzCacheOptions());
  EXPECT_TRUE(LoadIndexDoc("literetrieval v1\nentries 0\n", &cache));
  EXPECT_EQ(cache.index_size(), 0u);
}

// --- Stage-head snapshot section (`stagehead.txt` + meta flag) fuzzing ----
//
// The per-stage head rides in the snapshot as one more parameter blob,
// announced by the `stagehead` meta key. Corrupting that blob must fail the
// load cleanly (nullptr) or yield a model whose planner still emits
// validate-passing staged configs; older snapshots without the key load
// headless; and degenerate or out-of-range overrides fed back through the
// serving re-tune endpoint are rejected, never acted on.

/// One trained snapshot *with* a stage head, shared by the stage-head fuzz
/// tests (training dominates; mutations only rewrite stagehead.txt/meta).
struct StageHeadFixture : BlobSnapshot {
  std::string meta;      ///< pristine meta.txt contents.
  std::string head_doc;  ///< pristine stagehead.txt contents.

  static StageHeadFixture& Get() {
    static testkit::ScopedTempDir tmp("stage_head_fuzz_snapshot");
    static StageHeadFixture* f = [] {
      auto* fx = new StageHeadFixture();
      fx->Init(/*stage_tuning=*/true, tmp.path());
      EXPECT_NE(fx->system->stage_head(), nullptr);
      fx->meta = fx->blobs.at("meta.txt");
      fx->head_doc = fx->blobs.at("stagehead.txt");
      EXPECT_FALSE(fx->head_doc.empty());
      return fx;
    }();
    return *f;
  }
};

TEST(StageHeadFuzzTest, HeadFileSurvivesCorruption) {
  StageHeadFixture& fx = StageHeadFixture::Get();
  uint64_t seed = testkit::SeedFromEnv();
  Rng rng(seed ^ 0x47ead);
  const auto* app = spark::AppCatalog::Find("TS");
  spark::DataSpec data = app->MakeData(app->test_size_mb);
  spark::ClusterEnv env = spark::ClusterEnv::ClusterA();

  size_t rounds = std::max<size_t>(40, testkit::CasesFromEnv() / 4);
  for (size_t i = 0; i < rounds; ++i) {
    fx.Write("stagehead.txt", Mutate(fx.head_doc, &rng));
    auto loaded = LoadedLiteModel::Load(fx.dir, &fx.runner);
    if (loaded == nullptr) continue;  // clean rejection.
    // A load that survives must carry a usable head: the planner's output
    // stays structurally sane even under garbage weights.
    ASSERT_NE(loaded->stage_head(), nullptr) << SeedNote();
    spark::StagePlan plan = loaded->PlanStages(
        *app, data, env, spark::KnobSpace::Spark16().DefaultConfig(), {});
    EXPECT_TRUE(plan.ok) << SeedNote();
    std::string why;
    EXPECT_TRUE(spark::ValidateStagedConfig(plan.staged, *app, &why))
        << why << "\n  " << SeedNote();
  }
  // A snapshot without the head blob but with the meta flag still set
  // fails the whole load cleanly — a half-present snapshot is worse than
  // none.
  fx.Drop("stagehead.txt");
  EXPECT_EQ(LoadedLiteModel::Load(fx.dir, &fx.runner), nullptr);
  fx.Restore();
  EXPECT_NE(LoadedLiteModel::Load(fx.dir, &fx.runner), nullptr);
}

TEST(StageHeadFuzzTest, MetaFlagForwardAndBackwardCompat) {
  StageHeadFixture& fx = StageHeadFixture::Get();
  fx.Restore();

  // `stagehead 0` (and an absent key): the model loads headless — exactly
  // what a pre-stage-tuning snapshot looks like to this reader.
  std::string no_head = fx.meta;
  size_t pos = no_head.find("stagehead 1");
  ASSERT_NE(pos, std::string::npos);
  no_head.replace(pos, std::string("stagehead 1").size(), "stagehead 0");
  fx.Write("meta.txt", no_head);
  auto headless = LoadedLiteModel::Load(fx.dir, &fx.runner);
  ASSERT_NE(headless, nullptr);
  EXPECT_EQ(headless->stage_head(), nullptr);

  std::string removed = fx.meta;
  pos = removed.find("stagehead 1\n");
  removed.erase(pos, std::string("stagehead 1\n").size());
  fx.Write("meta.txt", removed);
  auto legacy = LoadedLiteModel::Load(fx.dir, &fx.runner);
  ASSERT_NE(legacy, nullptr);
  EXPECT_EQ(legacy->stage_head(), nullptr);

  // Unknown keys around the flag are skipped, the head still loads.
  std::string future = fx.meta + "stagehead_version 2 experimental\n";
  fx.Write("meta.txt", future);
  auto loaded = LoadedLiteModel::Load(fx.dir, &fx.runner);
  ASSERT_NE(loaded, nullptr);
  EXPECT_NE(loaded->stage_head(), nullptr);

  // Malformed flag values fail cleanly.
  std::string garbage = fx.meta;
  pos = garbage.find("stagehead 1");
  garbage.replace(pos, std::string("stagehead 1").size(), "stagehead x");
  fx.Write("meta.txt", garbage);
  EXPECT_EQ(LoadedLiteModel::Load(fx.dir, &fx.runner), nullptr);

  fx.Restore();
  EXPECT_NE(LoadedLiteModel::Load(fx.dir, &fx.runner), nullptr);
}

TEST(StageHeadFuzzTest, DegenerateOverridesRejectedAtTheServeBoundary) {
  StageHeadFixture& fx = StageHeadFixture::Get();
  fx.Restore();
  serve::ServiceOptions opts;
  opts.stage_tuning.enabled = true;
  serve::TuningService service(&fx.runner, opts);
  ASSERT_TRUE(service.LoadSnapshot(fx.dir));
  int session = service.OpenSession("fuzz-tenant");
  const auto* app = spark::AppCatalog::Find("TS");
  spark::DataSpec data = app->MakeData(app->test_size_mb);
  spark::ClusterEnv env = spark::ClusterEnv::ClusterA();
  const auto& space = spark::KnobSpace::Spark16();
  const size_t knob = spark::kStageTunableKnobs[0];
  const double nan = std::nan("");

  spark::StagedConfig good{space.DefaultConfig(), {}};
  std::vector<spark::StageEvent> events;  // empty observations are fine.

  struct Bad {
    const char* label;
    spark::StagedConfig staged;
  };
  std::vector<Bad> bads;
  bads.push_back({"empty base config", {spark::Config{}, {}}});
  bads.push_back(
      {"stage index past the app",
       {space.DefaultConfig(),
        {{app->stages.size(), knob, space.spec(knob).min_value}}}});
  bads.push_back({"knob index out of range",
                  {space.DefaultConfig(), {{0, spark::kNumKnobs, 1.0}}}});
  bads.push_back(
      {"non-stage-tunable knob",
       {space.DefaultConfig(), {{0, spark::kExecutorInstances, 4.0}}}});
  bads.push_back({"NaN override value",
                  {space.DefaultConfig(), {{0, knob, nan}}}});
  bads.push_back(
      {"value above the knob maximum",
       {space.DefaultConfig(),
        {{0, knob, space.spec(knob).max_value * 2.0 + 1.0}}}});
  bads.push_back(
      {"value below the knob minimum",
       {space.DefaultConfig(),
        {{0, knob, space.spec(knob).min_value - 1.0}}}});

  for (const Bad& bad : bads) {
    serve::TuningService::RetuneResponse r =
        service.Retune(session, *app, data, env, bad.staged, events);
    EXPECT_FALSE(r.ok) << "accepted " << bad.label;
    EXPECT_NE(r.error.find("invalid staged config"), std::string::npos)
        << bad.label << " rejected for the wrong reason: " << r.error;
  }

  // The well-formed config sails through the same gate.
  serve::TuningService::RetuneResponse ok_r =
      service.Retune(session, *app, data, env, good, events);
  EXPECT_TRUE(ok_r.ok) << ok_r.error;

  // Malformed event logs through the text overload are rejected, not
  // parsed into something actionable.
  serve::TuningService::RetuneResponse log_r = service.Retune(
      session, *app, data, env, good, std::string("{not an event log"));
  EXPECT_FALSE(log_r.ok);
}

// --- Model-plane wire format (ISSUE 10) -----------------------------------
//
// The fail-whole-pull contract under fire: whatever a truncation, hash
// mismatch or stale frame does, ShardPuller::ApplyResponseFrame either
// installs a complete published (version, blob-set) pair or changes
// nothing — the previously installed version keeps serving.

modelplane::PushMessage MakePlanePush(
    const std::map<std::string, std::string>& blobs, uint64_t version) {
  modelplane::PushMessage msg;
  msg.kind = modelplane::PushMessage::Kind::kFull;
  msg.version = version;
  msg.manifest = modelplane::BuildManifest(version, blobs);
  for (const auto& [key, bytes] : blobs) {
    msg.blobs.push_back(
        modelplane::Blob{key, bytes});
  }
  return msg;
}

TEST(PlaneWireFuzzTest, PushDecoderSurvivesCorruption) {
  Rng rng(testkit::SeedFromEnv() ^ 0x91a7e);
  modelplane::FilterChain chain;
  ASSERT_TRUE(modelplane::MakeFilterChain({"lz77"}, &chain));
  const std::map<std::string, std::string> blobs = {
      {"vocab.txt", "alpha beta\n"},
      {"necs_0.txt", std::string(1024, 'x') + "\n0.125 -0.5\n"},
  };
  std::string frame;
  ASSERT_TRUE(EncodePush(MakePlanePush(blobs, 3), chain, &frame));
  for (int trial = 0; trial < 400; ++trial) {
    const std::string mutated = Mutate(frame, &rng);
    modelplane::PushMessage out;
    std::string why;
    // No crash, hang or OOB (ASan job); a parse that claims success on a
    // mutated frame must have decoded the byte-identical original.
    if (DecodePush(mutated, chain, &out, &why)) {
      std::string reencoded;
      ASSERT_TRUE(EncodePush(out, chain, &reencoded)) << SeedNote();
      EXPECT_EQ(reencoded, frame) << SeedNote() << " trial " << trial;
    }
  }
}

TEST(PlaneWireFuzzTest, TruncatedDeltaFailsWholePullAndKeepsServing) {
  modelplane::ModelPlaneServer plane;
  modelplane::ShardPuller puller(plane.chain());
  std::map<std::string, std::string> blobs = {
      {"vocab.txt", "a b c\n"}, {"necs_0.txt", "weights 1\n"}};
  plane.Publish(blobs);
  std::string resp = plane.HandleRequestFrame(puller.MakeRequestFrame());
  ASSERT_TRUE(puller.ApplyResponseFrame(resp).ok);
  const auto v1 = *puller.installed_blobs();

  blobs["necs_0.txt"] = "weights 2\n";
  plane.Publish(blobs);
  const std::string delta =
      plane.HandleRequestFrame(puller.MakeRequestFrame());
  ASSERT_FALSE(delta.empty());
  for (size_t len = 0; len < delta.size(); ++len) {
    const modelplane::PullOutcome out =
        puller.ApplyResponseFrame(delta.substr(0, len));
    EXPECT_FALSE(out.ok) << "prefix of " << len << " bytes accepted";
    // Fail-whole-pull: version 1 keeps serving, byte for byte.
    ASSERT_EQ(puller.installed_version(), 1u) << "len " << len;
    ASSERT_EQ(*puller.installed_blobs(), v1) << "len " << len;
  }
  // The intact frame still applies afterwards.
  EXPECT_TRUE(puller.ApplyResponseFrame(delta).ok);
  EXPECT_EQ(puller.installed_version(), 2u);
}

TEST(PlaneWireFuzzTest, ManifestBlobHashMismatchRejectsWholePull) {
  modelplane::ModelPlaneServer plane;
  modelplane::ShardPuller puller(plane.chain());
  std::map<std::string, std::string> blobs = {
      {"vocab.txt", "a b c\n"}, {"necs_0.txt", "weights 1\n"}};
  plane.Publish(blobs);
  ASSERT_TRUE(
      puller.ApplyResponseFrame(
                plane.HandleRequestFrame(puller.MakeRequestFrame()))
          .ok);
  const auto v1 = *puller.installed_blobs();

  // A frame that is perfectly consistent at the wire layer (sizes, frame
  // checksum, per-blob hashes all match its own payload) but whose blob
  // bytes disagree with the manifest — the signature of a publisher
  // serving a mix of two versions. Only VerifyBlobSet can catch this.
  auto mixed = blobs;
  mixed["necs_0.txt"] = "weights FROM ANOTHER VERSION\n";
  modelplane::PushMessage msg = MakePlanePush(mixed, 2);
  msg.manifest = modelplane::BuildManifest(2, blobs);  // v2 manifest, mixed bytes.
  std::string frame;
  ASSERT_TRUE(EncodePush(msg, plane.chain(), &frame));
  const modelplane::PullOutcome out = puller.ApplyResponseFrame(frame);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("manifest verification"), std::string::npos)
      << out.error;
  EXPECT_EQ(puller.installed_version(), 1u);
  EXPECT_EQ(*puller.installed_blobs(), v1);
  EXPECT_GE(puller.stats().hash_rejects, 1u);
}

TEST(PlaneWireFuzzTest, VersionRegressionNeverDisplacesNewerInstall) {
  modelplane::ModelPlaneServer plane;
  modelplane::ShardPuller puller(plane.chain());
  std::map<std::string, std::string> blobs = {{"necs_0.txt", "v1\n"}};
  plane.Publish(blobs);
  const std::string v1_push =
      plane.HandleRequestFrame(puller.MakeRequestFrame());
  blobs["necs_0.txt"] = "v2\n";
  plane.Publish(blobs);
  ASSERT_TRUE(
      puller.ApplyResponseFrame(
                plane.HandleRequestFrame(puller.MakeRequestFrame()))
          .ok);
  ASSERT_EQ(puller.installed_version(), 2u);

  // A delayed, wire-valid v1 push (reordered frames, a lagging replica):
  // rejected without touching the newer install.
  const modelplane::PullOutcome out = puller.ApplyResponseFrame(v1_push);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("version regression"), std::string::npos)
      << out.error;
  EXPECT_EQ(puller.installed_version(), 2u);
  EXPECT_EQ(puller.installed_blobs()->at("necs_0.txt"), "v2\n");
  EXPECT_GE(puller.stats().version_regressions, 1u);
}

}  // namespace
}  // namespace lite
