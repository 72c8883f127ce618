// Model-distribution plane suite (ISSUE 10): atomic snapshot publication,
// the checksummed wire format, fault-storm pull atomicity, and N-shard
// serving equivalence.
//
// The crash-mid-save tests drive the InjectAtomicWriteFailure hook — the
// staged temp file is written and then the commit fails *before* the
// rename, exactly the window a crash would hit — and prove the previously
// committed file survives byte-for-byte for every writer that persists
// serving state (SaveSnapshot, RetrievalCache::SaveIndex).
//
// FourShardStormServesNoTornPull is the ISSUE 10 acceptance scenario: a
// 4-shard simulation under a swap storm with injected channel faults must
// serve zero torn or mixed-version pulls, and every shard response must be
// bit-identical to the single-process reference at the same plane version.
// ConcurrentRecommendsDuringSwapStorm is part of the TSan CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "lite/lite_system.h"
#include "lite/snapshot.h"
#include "modelplane/blob.h"
#include "modelplane/channel.h"
#include "modelplane/plane_server.h"
#include "modelplane/shard_puller.h"
#include "modelplane/sharded_service.h"
#include "modelplane/wire.h"
#include "serve/retrieval_cache.h"
#include "serve/tuning_service.h"
#include "sparksim/runner.h"
#include "testkit/temp_dir.h"
#include "util/atomic_file.h"
#include "util/rng.h"

namespace lite {
namespace {

namespace fs = std::filesystem;
using modelplane::Blob;
using modelplane::ChannelFaultOptions;
using modelplane::DecodePush;
using modelplane::EncodePush;
using modelplane::FaultInjectedChannel;
using modelplane::FilterChain;
using modelplane::MakeFilterChain;
using modelplane::Manifest;
using modelplane::ModelPlaneServer;
using modelplane::PlaneOptions;
using modelplane::PullOutcome;
using modelplane::PullRequest;
using modelplane::PushMessage;
using modelplane::QueueChannel;
using modelplane::ShardedServiceOptions;
using modelplane::ShardedTuningService;
using modelplane::ShardPuller;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Byte-exact image of a snapshot directory (file name -> contents).
std::map<std::string, std::string> DirImage(const std::string& dir) {
  std::map<std::string, std::string> image;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    image[entry.path().filename().string()] = ReadFile(entry.path().string());
  }
  return image;
}

// --- AtomicFileWriter -----------------------------------------------------

TEST(AtomicFileTest, CommitPublishesExactBytes) {
  testkit::ScopedTempDir tmp("atomic_commit");
  const std::string path = tmp.path() + "/atomic_commit.txt";
  {
    AtomicFileWriter w(path);
    ASSERT_TRUE(w.ok());
    w.stream() << "payload line\n";
    // Nothing visible at the final path until Commit.
    EXPECT_FALSE(fs::exists(path));
    EXPECT_TRUE(w.Commit());
  }
  EXPECT_EQ(ReadFile(path), "payload line\n");
}

TEST(AtomicFileTest, InjectedFailureLeavesCommittedFileAndNoTemp) {
  testkit::ScopedTempDir tmp("atomic_inject");
  const std::string path = tmp.path() + "/atomic_inject.txt";
  ASSERT_TRUE(WriteFileAtomic(path, [](std::ostream& out) {
    out << "committed v1\n";
    return true;
  }));

  InjectAtomicWriteFailure(1);
  AtomicFileWriter w(path);
  ASSERT_TRUE(w.ok());
  w.stream() << "doomed v2\n";
  const std::string temp = w.temp_path();
  EXPECT_FALSE(w.Commit());
  // The committed bytes survive and the temp is gone — the exact contract
  // the crash-mid-save snapshot tests below rely on.
  EXPECT_EQ(ReadFile(path), "committed v1\n");
  EXPECT_FALSE(fs::exists(temp));
}

TEST(AtomicFileTest, AbandonedWriterUnlinksTempAndKeepsCommitted) {
  testkit::ScopedTempDir tmp("atomic_abandon");
  const std::string path = tmp.path() + "/atomic_abandon.txt";
  ASSERT_TRUE(WriteFileAtomic(path, [](std::ostream& out) {
    out << "committed\n";
    return true;
  }));
  std::string temp;
  {
    AtomicFileWriter w(path);
    ASSERT_TRUE(w.ok());
    w.stream() << "never committed\n";
    temp = w.temp_path();
  }
  EXPECT_EQ(ReadFile(path), "committed\n");
  EXPECT_FALSE(fs::exists(temp));
}

// --- Crash-mid-save for every snapshot writer -----------------------------

LiteOptions TinyOptions() {
  LiteOptions opts;
  opts.corpus.apps = {"TS", "PR"};
  opts.corpus.clusters = {spark::ClusterEnv::ClusterA()};
  opts.corpus.configs_per_setting = 2;
  opts.corpus.max_stage_instances_per_run = 5;
  opts.corpus.max_code_tokens = 64;
  opts.necs.emb_dim = 8;
  opts.necs.cnn_widths = {3, 4};
  opts.necs.cnn_kernels = 6;
  opts.necs.code_dim = 12;
  opts.necs.gcn_hidden = 8;
  opts.train.epochs = 2;
  opts.num_candidates = 8;
  opts.ensemble_size = 1;
  return opts;
}

// Shared trained system (training dominates suite runtime). Tests only
// read it or save it; none mutate it.
class ModelPlaneModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    runner_ = new spark::SparkRunner();
    system_ = new LiteSystem(runner_, TinyOptions());
    system_->TrainOffline();
    tmp_ = new testkit::ScopedTempDir("modelplane_snapshot");
    dir_ = &tmp_->path();
    ASSERT_TRUE(SaveSnapshot(*system_, *dir_));
  }

  static void TearDownTestSuite() {
    delete tmp_;
    delete system_;
    delete runner_;
    tmp_ = nullptr;
    dir_ = nullptr;
    system_ = nullptr;
    runner_ = nullptr;
  }

  static spark::SparkRunner* runner_;
  static LiteSystem* system_;
  static testkit::ScopedTempDir* tmp_;
  static const std::string* dir_;
};

spark::SparkRunner* ModelPlaneModelTest::runner_ = nullptr;
LiteSystem* ModelPlaneModelTest::system_ = nullptr;
testkit::ScopedTempDir* ModelPlaneModelTest::tmp_ = nullptr;
const std::string* ModelPlaneModelTest::dir_ = nullptr;

TEST_F(ModelPlaneModelTest, SaveSnapshotCrashMidSaveKeepsCommittedSnapshot) {
  testkit::ScopedTempDir tmp("crash_save");
  const std::string& dir = tmp.path();
  ASSERT_TRUE(SaveSnapshot(*system_, dir));
  const std::map<std::string, std::string> committed = DirImage(dir);
  ASSERT_EQ(committed.size(), 1u);
  ASSERT_TRUE(committed.count(kSnapshotFile));

  // The whole save is one commit: failing it must leave the committed
  // snapshot byte-for-byte, with no temp file beside it, and loadable.
  InjectAtomicWriteFailure(1);
  EXPECT_FALSE(SaveSnapshot(*system_, dir));
  EXPECT_EQ(DirImage(dir), committed);
  auto loaded = LoadedLiteModel::Load(dir, runner_);
  ASSERT_NE(loaded, nullptr);
}

TEST(RetrievalCrashTest, SaveIndexCrashMidSaveKeepsCommittedIndex) {
  serve::RetrievalCacheOptions opts;
  opts.enabled = true;
  serve::RetrievalCache cache(opts);
  spark::Config config = spark::KnobSpace::Spark16().DefaultConfig();
  cache.InsertOutcome("tenant", "TS", 7, {0.25, 0.5}, config, 12.5, 1, false);

  testkit::ScopedTempDir tmp("crash_index");
  const std::string path = tmp.path() + "/crash_index.txt";
  ASSERT_TRUE(cache.SaveIndex(path));
  const std::string committed = ReadFile(path);

  cache.InsertOutcome("tenant", "PR", 8, {0.75, 0.125}, config, 9.5, 1, false);
  InjectAtomicWriteFailure(1);
  EXPECT_FALSE(cache.SaveIndex(path));
  EXPECT_EQ(ReadFile(path), committed);

  serve::RetrievalCache loaded(opts);
  EXPECT_TRUE(loaded.LoadIndex(path));
  EXPECT_EQ(loaded.index_size(), 1u);
}

TEST_F(ModelPlaneModelTest, SnapshotDirectoryHoldsOneContainerFile) {
  // The file is exactly one container: the decoder a push runs, in its
  // complete mode, reads back the blob set EncodeSnapshotBlobs produces.
  const std::map<std::string, std::string> image = DirImage(*dir_);
  ASSERT_EQ(image.size(), 1u);
  const std::string& file = image.at(kSnapshotFile);
  modelplane::Manifest manifest;
  std::vector<Blob> decoded;
  std::string why;
  size_t pos = 0;
  ASSERT_TRUE(modelplane::DecodeContainer(file, &pos, 0,
                                          modelplane::BlobCheck::kComplete,
                                          &manifest, &decoded, &why))
      << why;
  EXPECT_EQ(pos, file.size());
  std::map<std::string, std::string> blobs;
  for (const Blob& b : decoded) blobs[b.key] = b.bytes;
  std::map<std::string, std::string> want;
  ASSERT_TRUE(EncodeSnapshotBlobs(*system_, &want));
  EXPECT_EQ(blobs, want);
  EXPECT_EQ(manifest.Hash(), modelplane::BuildManifest(0, want).Hash());
}

TEST_F(ModelPlaneModelTest, MissingMetaIsNoSnapshotNotCorruption) {
  // The snapshot file is the commit marker: a directory holding only the
  // temp file of a save that never reached its rename is "no snapshot".
  testkit::ScopedTempDir tmp("no_marker");
  const std::string& dir = tmp.path();
  const std::string committed = DirImage(*dir_).at(kSnapshotFile);
  std::ofstream(dir + "/" + kSnapshotFile + ".tmp.12345", std::ios::binary)
      << committed;
  EXPECT_FALSE(SnapshotExists(dir));
  EXPECT_EQ(LoadedLiteModel::Load(dir, runner_), nullptr);

  // A whole, well-hashed container that lacks the meta blob is not a
  // snapshot either.
  std::map<std::string, std::string> blobs;
  ASSERT_TRUE(EncodeSnapshotBlobs(*system_, &blobs));
  blobs.erase("meta.txt");
  ASSERT_TRUE(WriteSnapshotBlobs(blobs, dir));
  EXPECT_TRUE(SnapshotExists(dir));
  EXPECT_EQ(LoadedLiteModel::Load(dir, runner_), nullptr);
}

TEST_F(ModelPlaneModelTest, MixedVersionDirectoryIsRejectedWhole) {
  testkit::ScopedTempDir tmp("mixed_dir");
  const std::string& dir = tmp.path();
  std::map<std::string, std::string> blobs;
  ASSERT_TRUE(EncodeSnapshotBlobs(*system_, &blobs));
  ASSERT_TRUE(WriteSnapshotBlobs(blobs, dir));
  ASSERT_NE(LoadedLiteModel::Load(dir, runner_), nullptr);

  // One blob's bytes come from a different version while the manifest
  // still describes this one: the whole load fails, whether the foreign
  // bytes differ in size or only in content.
  const modelplane::Manifest manifest = modelplane::BuildManifest(0, blobs);
  std::string other = blobs["necs_0.txt"];
  other[other.size() / 2] = other[other.size() / 2] == '1' ? '2' : '1';
  for (const std::string& foreign :
       {std::string("litenecs v1\nmutated 1\n"), other}) {
    std::vector<Blob> mixed;
    for (const auto& [key, bytes] : blobs) {
      mixed.push_back({key, key == "necs_0.txt" ? foreign : bytes});
    }
    std::string file;
    ASSERT_TRUE(modelplane::EncodeContainer(manifest, mixed, &file));
    std::ofstream(dir + "/" + kSnapshotFile, std::ios::binary | std::ios::trunc)
        << file;
    EXPECT_EQ(LoadedLiteModel::Load(dir, runner_), nullptr);
  }
}

// --- Wire format ----------------------------------------------------------

FilterChain Chain(const std::vector<std::string>& names) {
  FilterChain chain;
  EXPECT_TRUE(MakeFilterChain(names, &chain));
  return chain;
}

PushMessage SamplePush(PushMessage::Kind kind) {
  std::map<std::string, std::string> blobs = {
      {"vocab.txt", "alpha beta gamma alpha beta gamma\n"},
      {"necs_0.txt", std::string(2048, 'x') + "\nweights 0.125 -0.25\n"},
      {"binary.bin", std::string("\x00\x01\xff\n\n\x7f raw", 8)},
  };
  PushMessage msg;
  msg.kind = kind;
  msg.version = 7;
  msg.manifest = modelplane::BuildManifest(7, blobs);
  if (kind == PushMessage::Kind::kNoop) {
    msg.manifest = Manifest{};
    msg.manifest.version = 7;
    return msg;
  }
  if (kind == PushMessage::Kind::kDelta) {
    msg.base = 6;
    msg.removed = {"stagehead.txt"};
    blobs.erase("vocab.txt");  // delta ships only the changed subset.
  }
  for (const auto& [key, bytes] : blobs) {
    msg.blobs.push_back(Blob{key, bytes});
  }
  return msg;
}

TEST(WireTest, PushRoundTripsAcrossKindsAndChains) {
  for (const auto& names : std::vector<std::vector<std::string>>{
           {}, {"id"}, {"lz77"}, {"id", "lz77"}}) {
    const FilterChain chain = Chain(names);
    for (PushMessage::Kind kind :
         {PushMessage::Kind::kFull, PushMessage::Kind::kDelta,
          PushMessage::Kind::kNoop}) {
      const PushMessage msg = SamplePush(kind);
      std::string frame, why;
      ASSERT_TRUE(EncodePush(msg, chain, &frame)) << chain.Describe();
      PushMessage out;
      ASSERT_TRUE(DecodePush(frame, chain, &out, &why))
          << chain.Describe() << ": " << why;
      EXPECT_EQ(out.kind, msg.kind);
      EXPECT_EQ(out.version, msg.version);
      EXPECT_EQ(out.base, msg.base);
      EXPECT_EQ(out.manifest.Hash(), msg.manifest.Hash());
      ASSERT_EQ(out.blobs.size(), msg.blobs.size());
      for (size_t i = 0; i < msg.blobs.size(); ++i) {
        EXPECT_EQ(out.blobs[i].key, msg.blobs[i].key);
        EXPECT_EQ(out.blobs[i].bytes, msg.blobs[i].bytes);
      }
      EXPECT_EQ(out.removed, msg.removed);
    }
  }
}

TEST(WireTest, Lz77RoundTripsAndCompressesRepetitiveText) {
  modelplane::Lz77Filter lz;
  Rng rng(0xc0ffee);
  // Repetitive decimal-tensor-like text (the real payload shape) plus
  // random binary (worst case) must both round-trip exactly.
  std::string tensors;
  for (int i = 0; i < 500; ++i) {
    tensors += "0.125 -3.5e-2 0.625 7.25 ";
    if (i % 7 == 0) tensors += std::to_string(rng.Index(1000));
    tensors += '\n';
  }
  std::string enc, dec;
  ASSERT_TRUE(lz.Encode(tensors, &enc));
  ASSERT_TRUE(lz.Decode(enc, &dec));
  EXPECT_EQ(dec, tensors);
  EXPECT_LT(enc.size(), tensors.size() / 2) << "repetitive text must shrink";

  std::string binary;
  for (int i = 0; i < 4096; ++i) binary += static_cast<char>(rng.Index(256));
  ASSERT_TRUE(lz.Encode(binary, &enc));
  ASSERT_TRUE(lz.Decode(enc, &dec));
  EXPECT_EQ(dec, binary);

  EXPECT_TRUE(lz.Encode("", &enc));
  EXPECT_TRUE(lz.Decode(enc, &dec));
  EXPECT_EQ(dec, "");
}

TEST(WireTest, EveryTruncationOfAPushFrameIsRejected) {
  const FilterChain chain = Chain({"lz77"});
  std::string frame;
  ASSERT_TRUE(EncodePush(SamplePush(PushMessage::Kind::kFull), chain, &frame));
  PushMessage out;
  std::string why;
  for (size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(DecodePush(frame.substr(0, len), chain, &out, &why))
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(WireTest, SingleByteCorruptionOfAPushFrameIsRejected) {
  const FilterChain chain = Chain({"lz77"});
  std::string frame;
  ASSERT_TRUE(EncodePush(SamplePush(PushMessage::Kind::kDelta), chain, &frame));
  Rng rng(0x5eed);
  PushMessage out;
  std::string why;
  for (int trial = 0; trial < 256; ++trial) {
    std::string bad = frame;
    bad[rng.Index(bad.size())] ^=
        static_cast<char>(1 + rng.Index(255));
    if (bad == frame) continue;
    EXPECT_FALSE(DecodePush(bad, chain, &out, &why)) << "trial " << trial;
  }
}

TEST(WireTest, ChainMismatchIsRejected) {
  std::string frame;
  ASSERT_TRUE(
      EncodePush(SamplePush(PushMessage::Kind::kFull), Chain({"lz77"}), &frame));
  PushMessage out;
  std::string why;
  EXPECT_FALSE(DecodePush(frame, Chain({}), &out, &why));
  EXPECT_NE(why.find("chain"), std::string::npos) << why;
}

TEST(WireTest, ContainerRejectsMissingExtraAndDuplicateBlobs) {
  const std::map<std::string, std::string> blobs = {
      {"meta.txt", "litesnapshot v1\n"}, {"necs_0.txt", "weights 1\n"}};
  const Manifest manifest = modelplane::BuildManifest(0, blobs);
  const auto decode = [&](const std::vector<Blob>& list,
                          modelplane::BlobCheck check) {
    std::string bytes, why;
    EXPECT_TRUE(modelplane::EncodeContainer(manifest, list, &bytes));
    Manifest got;
    std::vector<Blob> out;
    size_t pos = 0;
    return modelplane::DecodeContainer(bytes, &pos, 0, check, &got, &out, &why);
  };
  const Blob meta{"meta.txt", blobs.at("meta.txt")};
  const Blob necs{"necs_0.txt", blobs.at("necs_0.txt")};
  const Blob extra{"stagehead.txt", "head 1\n"};
  using modelplane::BlobCheck;
  EXPECT_TRUE(decode({meta, necs}, BlobCheck::kComplete));
  // A delta's subset decodes without its contents being hashed; a
  // snapshot file must carry every entry.
  EXPECT_TRUE(decode({necs}, BlobCheck::kKeysOnly));
  EXPECT_FALSE(decode({necs}, BlobCheck::kComplete));
  // Keys the manifest does not name, and keys given twice, fail both modes.
  for (BlobCheck check : {BlobCheck::kComplete, BlobCheck::kKeysOnly}) {
    EXPECT_FALSE(decode({meta, extra}, check));
    EXPECT_FALSE(decode({necs, necs}, check));
  }
  // Contents that disagree with the manifest fail the complete check.
  EXPECT_FALSE(decode({meta, Blob{"necs_0.txt", "weights 2\n"}},
                      BlobCheck::kComplete));
}

// --- Plane server / puller protocol ---------------------------------------

/// One clean request/response round-trip (no channels).
PullOutcome CleanPull(ModelPlaneServer* plane, ShardPuller* puller) {
  const std::string resp = plane->HandleRequestFrame(puller->MakeRequestFrame());
  if (resp.empty()) return PullOutcome{};
  return puller->ApplyResponseFrame(resp);
}

TEST(PlaneProtocolTest, FullDeltaNoopSelectionAndRemovedKeys) {
  ModelPlaneServer plane;
  ShardPuller puller(plane.chain());

  std::map<std::string, std::string> blobs = {
      {"vocab.txt", "a b c\n"},
      {"necs_0.txt", "weights 1\n"},
      {"stagehead.txt", "head 1\n"},
  };
  EXPECT_EQ(plane.Publish(blobs), 1u);
  PullOutcome out = CleanPull(&plane, &puller);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.version, 1u);
  EXPECT_EQ(puller.stats().full_installs, 1u);

  // Changed member + removed optional part: the delta must carry both —
  // regression guard for removals dropped from the server's change record.
  blobs["necs_0.txt"] = "weights 2\n";
  blobs.erase("stagehead.txt");
  EXPECT_EQ(plane.Publish(blobs), 2u);
  out = CleanPull(&plane, &puller);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.version, 2u);
  EXPECT_EQ(puller.stats().delta_installs, 1u);
  EXPECT_EQ(*puller.installed_blobs(), blobs);
  EXPECT_EQ(puller.installed_blobs()->count("stagehead.txt"), 0u);

  // Already current -> noop.
  out = CleanPull(&plane, &puller);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_FALSE(out.installed);
  EXPECT_EQ(puller.stats().noops, 1u);

  const ModelPlaneServer::Stats stats = plane.stats();
  EXPECT_EQ(stats.publishes, 2u);
  EXPECT_EQ(stats.full_pushes, 1u);
  EXPECT_EQ(stats.delta_pushes, 1u);
  EXPECT_EQ(stats.noop_pushes, 1u);
}

TEST(PlaneProtocolTest, PullerBeyondDeltaWindowGetsFullPush) {
  PlaneOptions opts;
  opts.delta_history = 2;
  ModelPlaneServer plane(opts);
  ShardPuller puller(plane.chain());

  std::map<std::string, std::string> blobs = {{"necs_0.txt", "v1\n"}};
  plane.Publish(blobs);
  ASSERT_TRUE(CleanPull(&plane, &puller).ok);
  for (int v = 2; v <= 6; ++v) {
    blobs["necs_0.txt"] = "v" + std::to_string(v) + "\n";
    plane.Publish(blobs);
  }
  // have=1 is far outside a 2-deep window.
  const PullOutcome out = CleanPull(&plane, &puller);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.version, 6u);
  EXPECT_EQ(puller.stats().full_installs, 2u);
  EXPECT_EQ(puller.stats().delta_installs, 0u);
}

TEST(PlaneProtocolTest, StaleFullPushIsRejectedAsVersionRegression) {
  ModelPlaneServer plane;
  ShardPuller puller(plane.chain());
  std::map<std::string, std::string> blobs = {{"necs_0.txt", "v1\n"}};
  plane.Publish(blobs);
  // Capture a v1 response, then advance the plane and the puller to v2.
  const std::string stale =
      plane.HandleRequestFrame(puller.MakeRequestFrame());
  blobs["necs_0.txt"] = "v2\n";
  plane.Publish(blobs);
  ASSERT_TRUE(CleanPull(&plane, &puller).ok);
  ASSERT_EQ(puller.installed_version(), 2u);
  // The reordered v1 push must bounce off version monotonicity.
  const PullOutcome out = puller.ApplyResponseFrame(stale);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(puller.installed_version(), 2u);
  EXPECT_EQ(puller.stats().version_regressions, 1u);
  EXPECT_EQ((*puller.installed_blobs()).at("necs_0.txt"), "v2\n");
}

// --- Fault-storm pull atomicity -------------------------------------------

// 100-publish swap storm through heavily faulted channels: whatever the
// faults do, the puller only ever holds a (version, blob-set) pair that
// was published exactly as-is. This is the inline twin of the
// `plane_pull_atomicity` oracle invariant (nightly sweep).
TEST(FaultStormTest, HundredSwapStormServesNoTornPull) {
  const uint64_t seed = 0x51097;
  Rng rng(seed);
  PlaneOptions popts;
  popts.delta_history = 4;
  ModelPlaneServer plane(popts);
  ChannelFaultOptions faults;
  faults.drop = 0.15;
  faults.truncate = 0.20;  // the ISSUE 10 gate names injected truncation.
  faults.corrupt = 0.15;
  faults.duplicate = 0.10;
  faults.hold = 0.10;
  QueueChannel req_q, resp_q;
  FaultInjectedChannel req(&req_q, faults, seed ^ 1);
  FaultInjectedChannel resp(&resp_q, faults, seed ^ 2);
  ShardPuller puller(plane.chain());

  auto text = [&rng]() {
    std::string s = "weights";
    const size_t n = 32 + rng.Index(96);
    for (size_t i = 0; i < n; ++i) s += " " + std::to_string(rng.Index(1000));
    return s + "\n";
  };
  std::map<uint64_t, std::map<std::string, std::string>> published;
  std::map<std::string, std::string> blobs = {{"vocab.txt", text()},
                                              {"necs_0.txt", text()}};
  uint64_t last = 0;
  int torn = 0;
  for (int round = 0; round < 100; ++round) {
    blobs["necs_0.txt"] = text();
    if (rng.Bernoulli(0.2)) {
      blobs["stagehead.txt"] = text();
    } else if (rng.Bernoulli(0.2)) {
      blobs.erase("stagehead.txt");
    }
    published[plane.Publish(blobs)] = blobs;

    req.Send(puller.MakeRequestFrame());
    std::string frame;
    while (req.Recv(&frame)) {
      const std::string r = plane.HandleRequestFrame(frame);
      if (!r.empty()) resp.Send(r);
    }
    while (resp.Recv(&frame)) puller.ApplyResponseFrame(frame);
    req.Flush();
    resp.Flush();

    const uint64_t v = puller.installed_version();
    ASSERT_GE(v, last) << "installed version regressed";
    last = v;
    if (v == 0) continue;
    ASSERT_TRUE(published.count(v)) << "version " << v << " never published";
    if (*puller.installed_blobs() != published[v]) ++torn;
  }
  EXPECT_EQ(torn, 0) << "torn or mixed-version pulls served";
  // The storm must actually have exercised the faults and the verifier.
  const FaultInjectedChannel::Stats rs = resp.stats();
  EXPECT_GT(rs.truncated, 0u);
  EXPECT_GT(rs.corrupted, 0u);
  EXPECT_GT(rs.dropped, 0u);
  EXPECT_GT(puller.stats().failures, 0u);
  EXPECT_GT(puller.stats().full_installs + puller.stats().delta_installs, 10u);
}

// --- Sharded serving ------------------------------------------------------

class ShardedServingTest : public ModelPlaneModelTest {
 protected:
  /// Publisher service wired to a plane; installing the suite snapshot
  /// publishes plane version 1.
  static serve::ServiceOptions SingleThreadScoring() {
    serve::ServiceOptions sopts;
    sopts.scoring.threads = 1;
    return sopts;
  }
};

TEST_F(ShardedServingTest, ShardsServeBitIdenticalToSingleProcess) {
  ModelPlaneServer plane;
  serve::TuningService publisher(runner_, SingleThreadScoring());
  modelplane::AttachPublisher(&publisher, &plane);
  ASSERT_TRUE(publisher.LoadSnapshot(*dir_));
  ASSERT_EQ(plane.version(), 1u);

  // Reference: a single-process service on the published blob set.
  serve::TuningService reference(runner_, SingleThreadScoring());
  {
    ShardPuller ref_pull(plane.chain());
    ASSERT_TRUE(CleanPull(&plane, &ref_pull).ok);
    auto model = LoadedLiteModel::LoadFromBlobs(*ref_pull.installed_blobs(),
                                                runner_);
    ASSERT_NE(model, nullptr);
    reference.InstallSnapshot(std::move(model));
  }

  ShardedServiceOptions opts;
  opts.shards = 4;
  opts.service = SingleThreadScoring();
  ShardedTuningService fleet(runner_, &plane, opts);
  ASSERT_EQ(fleet.SyncAll(), 4u);

  const auto* app = spark::AppCatalog::Find("TS");
  ASSERT_NE(app, nullptr);
  const spark::DataSpec data = app->MakeData(app->test_size_mb);
  const spark::ClusterEnv env = spark::ClusterEnv::ClusterA();

  // One tenant per shard (probed so every shard serves at least once).
  std::set<size_t> covered;
  for (int i = 0; covered.size() < 4 && i < 256; ++i) {
    const std::string tenant = "tenant" + std::to_string(i);
    const size_t shard = fleet.RouteShard(tenant);
    if (!covered.insert(shard).second) continue;
    EXPECT_EQ(fleet.shard_version(shard), 1u);

    const int ref_session = reference.OpenSession(tenant, 0);
    serve::TuningService::Response want =
        reference.Recommend(ref_session, *app, data, env);
    ASSERT_TRUE(want.ok) << want.error;

    const int session = fleet.OpenSession(tenant, 0);
    serve::TuningService::Response got = fleet.Recommend(session, *app, data, env);
    ASSERT_TRUE(got.ok) << got.error;
    EXPECT_EQ(got.rec.config, want.rec.config) << "shard " << shard;
    EXPECT_EQ(got.rec.predicted_seconds, want.rec.predicted_seconds)
        << "shard " << shard;
    EXPECT_EQ(got.rec.candidates_evaluated, want.rec.candidates_evaluated)
        << "shard " << shard;
  }
  EXPECT_EQ(covered.size(), 4u);
}

TEST_F(ShardedServingTest, AdaptiveUpdatePropagatesAsDeltaAndStaysEquivalent) {
  ModelPlaneServer plane;
  serve::TuningService publisher(runner_, SingleThreadScoring());
  modelplane::AttachPublisher(&publisher, &plane);
  ASSERT_TRUE(publisher.LoadSnapshot(*dir_));

  ShardedServiceOptions opts;
  opts.shards = 2;
  opts.service = SingleThreadScoring();
  ShardedTuningService fleet(runner_, &plane, opts);
  ASSERT_EQ(fleet.SyncAll(), 2u);

  // Feed the publisher and force an adaptive update -> plane version 2,
  // reaching the already-current shards as a delta push.
  const auto* app = spark::AppCatalog::Find("TS");
  const spark::DataSpec data = app->MakeData(app->test_size_mb);
  const spark::ClusterEnv env = spark::ClusterEnv::ClusterA();
  const spark::Config config = spark::KnobSpace::Spark16().DefaultConfig();
  const int fb_session = publisher.OpenSession("feedback");
  const spark::AppRunResult run =
      runner_->cost_model().Run(*app, data, env, config);
  ASSERT_TRUE(publisher.SubmitFeedback(fb_session, *app, data, env, config, run));
  publisher.ForceAdaptiveUpdate();
  ASSERT_EQ(plane.version(), 2u);

  const ModelPlaneServer::Stats before = plane.stats();
  ASSERT_EQ(fleet.SyncAll(), 2u);
  const ModelPlaneServer::Stats after = plane.stats();
  EXPECT_EQ(fleet.shard_version(0), 2u);
  EXPECT_EQ(fleet.shard_version(1), 2u);
  EXPECT_GT(after.delta_pushes, before.delta_pushes)
      << "current shards must be served deltas, not full pushes";

  // Equivalence holds at the new version too.
  serve::TuningService reference(runner_, SingleThreadScoring());
  {
    ShardPuller ref_pull(plane.chain());
    ASSERT_TRUE(CleanPull(&plane, &ref_pull).ok);
    auto model = LoadedLiteModel::LoadFromBlobs(*ref_pull.installed_blobs(),
                                                runner_);
    ASSERT_NE(model, nullptr);
    reference.InstallSnapshot(std::move(model));
  }
  serve::TuningService::Response want = reference.Recommend(
      reference.OpenSession("t0", 0), *app, data, env);
  serve::TuningService::Response got =
      fleet.Recommend(fleet.OpenSession("t0", 0), *app, data, env);
  ASSERT_TRUE(want.ok);
  ASSERT_TRUE(got.ok);
  EXPECT_EQ(got.rec.config, want.rec.config);
  EXPECT_EQ(got.rec.predicted_seconds, want.rec.predicted_seconds);
}

TEST_F(ShardedServingTest, FaultedLinksConvergeViaRetries) {
  ModelPlaneServer plane;
  serve::TuningService publisher(runner_, SingleThreadScoring());
  modelplane::AttachPublisher(&publisher, &plane);
  ASSERT_TRUE(publisher.LoadSnapshot(*dir_));

  ShardedServiceOptions opts;
  opts.shards = 4;
  opts.service = SingleThreadScoring();
  opts.faults.drop = 0.25;
  opts.faults.truncate = 0.25;
  opts.faults.corrupt = 0.15;
  opts.faults.hold = 0.10;
  opts.pull_attempts = 64;
  opts.fault_seed = 0xfa01;
  ShardedTuningService fleet(runner_, &plane, opts);
  ASSERT_EQ(fleet.SyncAll(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(fleet.shard_version(i), plane.version()) << "shard " << i;
  }
  // At least one link must have actually misbehaved for this to mean much.
  uint64_t injected = 0;
  for (size_t i = 0; i < 4; ++i) {
    const auto rq = fleet.request_link_stats(i);
    const auto rs = fleet.response_link_stats(i);
    injected += rq.dropped + rq.truncated + rq.corrupted + rs.dropped +
                rs.truncated + rs.corrupted;
  }
  EXPECT_GT(injected, 0u);
  EXPECT_EQ(fleet.stats().decode_failures, 0u);
}

// TSan coverage: concurrent recommends on every shard while the publisher
// hot-swaps and the fleet syncs. Torn installs would show up as data races
// or non-published (version, blob-set) pairs.
TEST_F(ShardedServingTest, ConcurrentRecommendsDuringSwapStorm) {
  ModelPlaneServer plane;
  serve::TuningService publisher(runner_, SingleThreadScoring());
  modelplane::AttachPublisher(&publisher, &plane);
  ASSERT_TRUE(publisher.LoadSnapshot(*dir_));

  ShardedServiceOptions opts;
  opts.shards = 2;
  opts.service = SingleThreadScoring();
  ShardedTuningService fleet(runner_, &plane, opts);
  ASSERT_EQ(fleet.SyncAll(), 2u);

  const auto* app = spark::AppCatalog::Find("PR");
  const spark::DataSpec data = app->MakeData(app->test_size_mb);
  const spark::ClusterEnv env = spark::ClusterEnv::ClusterA();

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      const int session =
          fleet.OpenSession("tenant" + std::to_string(c), 1 + c);
      while (!stop.load(std::memory_order_relaxed)) {
        serve::TuningService::Response resp =
            fleet.Recommend(session, *app, data, env);
        if (!resp.ok) ++failures;
      }
    });
  }
  for (int swap = 0; swap < 4; ++swap) {
    ASSERT_TRUE(publisher.LoadSnapshot(*dir_));
    fleet.SyncAll();
  }
  stop.store(true);
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(fleet.shard_version(0), plane.version());
  EXPECT_EQ(fleet.shard_version(1), plane.version());
}

}  // namespace
}  // namespace lite
