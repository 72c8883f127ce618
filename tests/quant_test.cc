// Quantized inference backend: kernel parity (generic vs AVX2, bit for
// bit), quantization error bounds against the exact fp32 oracle, the
// scoring-plan fast path, snapshot round-trips, and backend routing.
//
// The enforced contract (docs/QUANTIZATION.md):
//   * generic and AVX2 kernels are bit-identical on every input;
//   * int8 / fp16 ensemble scores stay within kInt8MaxRelError /
//     kFp16MaxRelError of the exact path;
//   * top-1 recommendation agreement on the golden 45-cell matrix (15
//     catalog applications x clusters A/B/C) meets the per-backend floor;
//   * the exact path is untouched: backend off => bit-identical scores.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "lite/lite_system.h"
#include "lite/qnecs.h"
#include "lite/snapshot.h"
#include "nn/quantized.h"
#include "serve/recommend_pipeline.h"
#include "sparksim/application.h"
#include "tensor/qkernels.h"
#include "testkit/diff.h"
#include "testkit/gen.h"
#include "testkit/temp_dir.h"
#include "util/rng.h"

namespace lite {
namespace {

using qk::KernelIsa;

// The enforced error bounds. fp16 carries ~11 bits of weight mantissa, so
// its score error is tiny; int8 rides on 8-bit codes per output channel and
// lands well under 5% relative on every measured workload.
constexpr double kInt8MaxRelError = 0.05;
constexpr double kFp16MaxRelError = 5e-3;
// Tolerant top-1 agreement: a cell agrees when the quantized argmin is the
// exact argmin or costs at most this much exact-score regret.
constexpr double kAgreementRegret = 0.02;
constexpr int kInt8MinAgreement = 40;  // of 45 cells.
constexpr int kFp16MinAgreement = 44;  // of 45 cells.

std::string SeedNote() {
  return "replay with: LITE_TEST_SEED=" +
         std::to_string(testkit::SeedFromEnv());
}

// ---------------------------------------------------------------------------
// Half-precision conversions.

TEST(HalfConversionTest, RoundTripIsIdentityOnAllFinitePatterns) {
  // Every non-NaN binary16 pattern decodes to a float that re-encodes to
  // the same pattern — the decode is exact, the encode rounds to nearest.
  for (uint32_t h = 0; h <= 0xFFFFu; ++h) {
    const uint16_t half = static_cast<uint16_t>(h);
    const bool is_nan =
        ((half >> 10) & 0x1Fu) == 0x1Fu && (half & 0x3FFu) != 0;
    float f = qk::HalfToFloat(half);
    if (is_nan) {
      EXPECT_TRUE(std::isnan(f)) << "pattern " << h;
      continue;
    }
    EXPECT_EQ(qk::FloatToHalf(f), half) << "pattern " << h;
  }
}

TEST(HalfConversionTest, EncodeHandlesOverflowAndRounding) {
  // Values beyond the half range overflow to infinity with the right sign.
  EXPECT_EQ(qk::FloatToHalf(1e6f), 0x7C00u);
  EXPECT_EQ(qk::FloatToHalf(-1e6f), 0xFC00u);
  // Largest finite half is 65504.
  EXPECT_EQ(qk::HalfToFloat(qk::FloatToHalf(65504.0f)), 65504.0f);
  // Round to nearest even: 1 + 2^-11 is exactly between 1.0 and the next
  // representable half 1 + 2^-10; ties go to the even significand (1.0).
  EXPECT_EQ(qk::HalfToFloat(qk::FloatToHalf(1.0f + 0x1p-11f)), 1.0f);
  // Just above the tie rounds up.
  EXPECT_EQ(qk::HalfToFloat(qk::FloatToHalf(1.0f + 0x1.8p-11f)),
            1.0f + 0x1p-10f);
  // Signed zero survives.
  EXPECT_EQ(qk::FloatToHalf(-0.0f), 0x8000u);
  EXPECT_EQ(qk::FloatToHalf(0.0f), 0x0000u);
}

// ---------------------------------------------------------------------------
// Int8 row quantization.

TEST(QuantizeRowsTest, DequantErrorWithinHalfScale) {
  Rng rng(testkit::SeedFromEnv() + 11);
  const size_t rows = 7, cols = 33;
  std::vector<float> w(rows * cols);
  for (float& v : w) v = static_cast<float>(rng.Gaussian(0.0, 2.0));
  // Mix in a constant row and a zero row (degenerate ranges).
  for (size_t c = 0; c < cols; ++c) w[2 * cols + c] = 0.75f;
  for (size_t c = 0; c < cols; ++c) w[5 * cols + c] = 0.0f;

  qk::QuantizedRowMatrix q = qk::QuantizeRowsInt8(w.data(), rows, cols);
  ASSERT_EQ(q.rows, rows);
  ASSERT_EQ(q.cols, cols);
  for (size_t r = 0; r < rows; ++r) {
    ASSERT_TRUE(std::isfinite(q.scale[r]));
    ASSERT_GT(q.scale[r], 0.0f);
    for (size_t c = 0; c < cols; ++c) {
      int code = q.q[r * cols + c];
      EXPECT_GE(code, -127);
      EXPECT_LE(code, 127);
      double dequant =
          static_cast<double>(q.scale[r]) * (code - q.zero_point[r]);
      EXPECT_LE(std::fabs(dequant - w[r * cols + c]),
                0.5 * q.scale[r] + 1e-6)
          << "row " << r << " col " << c;
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel ISA parity: which ISA ran must be unobservable in the output.

class IsaParityTest : public ::testing::Test {
 protected:
  void TearDown() override {
    // Restore best-available dispatch for the rest of the binary.
    qk::SetKernelIsaForTest(qk::Avx2KernelAvailable() ? KernelIsa::kAvx2
                                                      : KernelIsa::kGeneric);
  }
};

TEST_F(IsaParityTest, DotInt8AgreesWithReferenceOnAllLengths) {
  Rng rng(testkit::SeedFromEnv() + 21);
  // Lengths around every tail/vector-width boundary.
  for (size_t n : {1, 2, 7, 8, 15, 16, 17, 31, 32, 33, 40, 64, 100, 1000}) {
    std::vector<int8_t> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = static_cast<int8_t>(rng.UniformInt(-127, 127));
      b[i] = static_cast<int8_t>(rng.UniformInt(-127, 127));
    }
    int32_t want = 0;
    for (size_t i = 0; i < n; ++i) {
      want += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
    }
    qk::SetKernelIsaForTest(KernelIsa::kGeneric);
    EXPECT_EQ(qk::DotInt8(a.data(), b.data(), n), want) << "n=" << n;
    if (qk::Avx2KernelAvailable()) {
      qk::SetKernelIsaForTest(KernelIsa::kAvx2);
      EXPECT_EQ(qk::DotInt8(a.data(), b.data(), n), want)
          << "n=" << n << " (AVX2)";
    }
  }
}

TEST_F(IsaParityTest, DotHalfBitIdenticalAcrossIsas) {
  if (!qk::Avx2KernelAvailable()) {
    GTEST_SKIP() << "AVX2 kernels not available on this host";
  }
  Rng rng(testkit::SeedFromEnv() + 22);
  for (size_t n : {1, 3, 7, 8, 9, 16, 24, 31, 33, 63, 64, 65, 200}) {
    std::vector<float> x(n);
    std::vector<uint16_t> w(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = static_cast<float>(rng.Gaussian(0.0, 3.0));
      w[i] = qk::FloatToHalf(static_cast<float>(rng.Gaussian(0.0, 3.0)));
    }
    qk::SetKernelIsaForTest(KernelIsa::kGeneric);
    float generic = qk::DotHalf(x.data(), w.data(), n);
    qk::SetKernelIsaForTest(KernelIsa::kAvx2);
    float avx2 = qk::DotHalf(x.data(), w.data(), n);
    EXPECT_EQ(generic, avx2) << "n=" << n << "; " << SeedNote();
    // And the fixed-tree sum stays close to the double-precision dot.
    double ref = 0.0;
    for (size_t i = 0; i < n; ++i) {
      ref += static_cast<double>(x[i]) *
             static_cast<double>(qk::HalfToFloat(w[i]));
    }
    EXPECT_NEAR(generic, ref, 1e-3 * (1.0 + std::fabs(ref))) << "n=" << n;
  }
}

TEST_F(IsaParityTest, GemmsBitIdenticalAcrossIsas) {
  if (!qk::Avx2KernelAvailable()) {
    GTEST_SKIP() << "AVX2 kernels not available on this host";
  }
  Rng rng(testkit::SeedFromEnv() + 23);
  const size_t batch = 5, in = 37, out = 11;
  std::vector<float> w(out * in), x(batch * in), bias(out);
  for (float& v : w) v = static_cast<float>(rng.Gaussian(0.0, 1.0));
  for (float& v : x) v = static_cast<float>(rng.Gaussian(0.0, 1.0));
  for (float& v : bias) v = static_cast<float>(rng.Gaussian(0.0, 0.5));
  qk::QuantizedRowMatrix q8 = qk::QuantizeRowsInt8(w.data(), out, in);
  qk::HalfMatrix f16 = qk::PackHalf(w.data(), out, in);

  auto run = [&](KernelIsa isa, bool relu) {
    qk::SetKernelIsaForTest(isa);
    qk::Arena arena;
    std::vector<float> y8(batch * out), y16(batch * out);
    qk::GemmInt8(x.data(), batch, q8, bias.data(), y8.data(), relu, &arena);
    qk::GemmHalf(x.data(), batch, f16, bias.data(), y16.data(), relu);
    return std::make_pair(y8, y16);
  };
  for (bool relu : {false, true}) {
    auto generic = run(KernelIsa::kGeneric, relu);
    auto avx2 = run(KernelIsa::kAvx2, relu);
    EXPECT_EQ(generic.first, avx2.first) << "int8 relu=" << relu;
    EXPECT_EQ(generic.second, avx2.second) << "half relu=" << relu;
  }
}

#if defined(__x86_64__) || defined(__i386__)
// The AVX2 kernels are pinned to 64-byte cache lines, so their timing does
// not move when unrelated code changes size.
TEST(KernelLayoutTest, Avx2KernelsStartOnCacheLines) {
#define LITE_KERNEL(f) \
  {#f, reinterpret_cast<std::uintptr_t>(&qk::detail::f)}
  const std::pair<const char*, std::uintptr_t> kernels[] = {
      LITE_KERNEL(Avx2RuntimeSupported),
      LITE_KERNEL(DotInt8Avx2),
      LITE_KERNEL(DotInt8MultiAvx2),
      LITE_KERNEL(MaxAbsAvx2),
      LITE_KERNEL(QuantizeActRowAvx2),
      LITE_KERNEL(QuantizeActRowToInt16Avx2),
      LITE_KERNEL(GemmInt8PanelsAvx2),
      LITE_KERNEL(DotHalfAvx2),
      LITE_KERNEL(DotHalfMultiAvx2),
  };
#undef LITE_KERNEL
  for (const auto& [name, address] : kernels) {
    EXPECT_EQ(address % 64, 0u) << name;
  }
}
#endif

TEST(GemmAccuracyTest, GemmsTrackTheFp32Reference) {
  Rng rng(testkit::SeedFromEnv() + 24);
  const size_t batch = 4, in = 48, out = 9;
  std::vector<float> w(out * in), x(batch * in), bias(out);
  for (float& v : w) v = static_cast<float>(rng.Gaussian(0.0, 1.0));
  for (float& v : x) v = static_cast<float>(rng.Gaussian(0.0, 1.0));
  for (float& v : bias) v = static_cast<float>(rng.Gaussian(0.0, 0.5));
  qk::QuantizedRowMatrix q8 = qk::QuantizeRowsInt8(w.data(), out, in);
  qk::HalfMatrix f16 = qk::PackHalf(w.data(), out, in);

  qk::Arena arena;
  std::vector<float> y8(batch * out), y16(batch * out);
  qk::GemmInt8(x.data(), batch, q8, bias.data(), y8.data(), false, &arena);
  qk::GemmHalf(x.data(), batch, f16, bias.data(), y16.data(), false);
  for (size_t b = 0; b < batch; ++b) {
    for (size_t j = 0; j < out; ++j) {
      double ref = bias[j];
      for (size_t c = 0; c < in; ++c) {
        ref += static_cast<double>(x[b * in + c]) *
               static_cast<double>(w[j * in + c]);
      }
      double denom = 1.0 + std::fabs(ref);
      EXPECT_NEAR(y8[b * out + j], ref, 0.08 * denom) << b << "," << j;
      EXPECT_NEAR(y16[b * out + j], ref, 2e-2 * denom) << b << "," << j;
    }
  }
}

// ---------------------------------------------------------------------------
// Mutation hooks must be live (the adequacy proof lives in
// tools/mutation_check; this pins that each mutant changes GEMM output).

TEST(QuantMutationTest, EveryMutantPerturbsTheGemm) {
  Rng rng(testkit::SeedFromEnv() + 31);
  const size_t batch = 3, in = 24, out = 10;
  std::vector<float> w(out * in), x(batch * in), bias(out, 0.0f);
  for (float& v : w) v = static_cast<float>(rng.Gaussian(1.0, 1.0));
  for (float& v : x) v = static_cast<float>(rng.Gaussian(0.0, 2.0));
  // Distinct per-row activation ranges so kStaleActScale bites.
  for (size_t c = 0; c < in; ++c) x[in + c] *= 7.0f;
  qk::QuantizedRowMatrix q8 = qk::QuantizeRowsInt8(w.data(), out, in);

  auto run = [&] {
    qk::Arena arena;
    std::vector<float> y(batch * out);
    qk::GemmInt8(x.data(), batch, q8, bias.data(), y.data(), false, &arena);
    return y;
  };
  std::vector<float> clean = run();
  for (qk::QuantMutation m :
       {qk::QuantMutation::kDropZeroPoint, qk::QuantMutation::kTransposedTile,
        qk::QuantMutation::kStaleActScale}) {
    qk::SetQuantMutationForTest(m);
    std::vector<float> mutated = run();
    qk::SetQuantMutationForTest(qk::QuantMutation::kNone);
    EXPECT_NE(clean, mutated)
        << "mutation " << static_cast<int>(m) << " is dead; " << SeedNote();
  }
}

// ---------------------------------------------------------------------------
// Arena.

TEST(ArenaTest, ResetRetainsCapacityAndAlignsAllocations) {
  qk::Arena arena(256);
  void* p = arena.Allocate(100);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 64, 0u);
  // Force growth past the first block.
  float* f = arena.AllocFloats(4096);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(f) % 64, 0u);
  size_t cap = arena.capacity();
  size_t used = arena.bytes_in_use();
  EXPECT_GE(used, 100u + 4096u * sizeof(float));
  EXPECT_EQ(arena.high_water(), used);

  arena.Reset();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_EQ(arena.capacity(), cap) << "Reset must retain block capacity";
  EXPECT_EQ(arena.high_water(), used);

  // The steady state re-serves the same bytes without growing.
  arena.Allocate(100);
  arena.AllocFloats(4096);
  EXPECT_EQ(arena.capacity(), cap);
}

TEST(ArenaTest, ThreadLocalIsStablePerThread) {
  qk::Arena* a = qk::Arena::ThreadLocal();
  qk::Arena* b = qk::Arena::ThreadLocal();
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Quantized layer twins vs the exact modules.

TEST(QuantizedMlpTest, ForwardBatchTracksExactMlp) {
  Rng rng(testkit::SeedFromEnv() + 41);
  const size_t input_dim = 40, batch = 6;
  Mlp mlp(input_dim, 3, 1, &rng);
  Tensor x(batch, input_dim);
  for (float& v : x.vec()) v = static_cast<float>(rng.Gaussian(0.0, 1.0));
  Tensor exact = mlp.ForwardBatch(x);

  for (QuantBackend mode : {QuantBackend::kInt8, QuantBackend::kFp16}) {
    QuantizedMlp q = QuantizedMlp::From(mlp, mode);
    ASSERT_EQ(q.input_dim(), input_dim);
    ASSERT_EQ(q.output_dim(), 1u);
    qk::Arena arena;
    std::vector<float> y(batch);
    q.ForwardBatch(x.data(), batch, y.data(), &arena);
    double bound = mode == QuantBackend::kInt8 ? 0.15 : 0.01;
    for (size_t b = 0; b < batch; ++b) {
      double e = exact.vec()[b];
      EXPECT_NEAR(y[b], e, bound * (1.0 + std::fabs(e)))
          << QuantBackendName(mode) << " row " << b << "; " << SeedNote();
    }
  }
}

TEST(QuantizedTextCnnTest, EncodeBatchTracksExactEncoder) {
  Rng rng(testkit::SeedFromEnv() + 42);
  const size_t vocab = 50, emb = 8, kernels = 6, out_dim = 12;
  TextCnnEncoder cnn(vocab, emb, {3, 4}, kernels, out_dim, &rng);
  // Mixed lengths, including shorter than the largest width (padded) and
  // out-of-range ids (clamped to oov behavior of the exact embedding).
  std::vector<std::vector<int>> sequences = {
      {1, 2, 3, 4, 5, 6, 7}, {9, 9}, {0}, {11, 48, 3, 21, 35}};
  Tensor exact = cnn.ForwardBatch(sequences)->value;

  for (QuantBackend mode : {QuantBackend::kInt8, QuantBackend::kFp16}) {
    QuantizedTextCnn q = QuantizedTextCnn::From(cnn, mode);
    qk::Arena arena;
    std::vector<float> y(sequences.size() * out_dim);
    q.EncodeBatch(sequences, y.data(), &arena);
    double bound = mode == QuantBackend::kInt8 ? 0.15 : 0.01;
    for (size_t i = 0; i < y.size(); ++i) {
      double e = exact.vec()[i];
      EXPECT_NEAR(y[i], e, bound * (1.0 + std::fabs(e)))
          << QuantBackendName(mode) << " element " << i << "; " << SeedNote();
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end suite on a small trained system (training dominates runtime,
// so the fixture is shared across every test below).

class QuantTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    runner_ = new spark::SparkRunner();
    LiteOptions opts;
    opts.corpus.apps = {"TS", "PR", "KM"};
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
    opts.num_candidates = 12;
    opts.ensemble_size = 2;
    system_ = new LiteSystem(runner_, opts);
    system_->TrainOffline();
  }

  static void TearDownTestSuite() {
    delete system_;
    delete runner_;
    system_ = nullptr;
    runner_ = nullptr;
  }

  std::vector<const NecsModel*> Models() const {
    std::vector<const NecsModel*> models;
    for (size_t m = 0; m < system_->ensemble_size(); ++m) {
      models.push_back(system_->ensemble_member(m));
    }
    return models;
  }

  std::vector<spark::Config> MakePool(Rng* rng, size_t extra) const {
    const auto& space = spark::KnobSpace::Spark16();
    std::vector<spark::Config> pool = {space.DefaultConfig()};
    for (size_t c = 0; c < extra; ++c) pool.push_back(space.RandomConfig(rng));
    return pool;
  }

  static spark::SparkRunner* runner_;
  static LiteSystem* system_;
};

spark::SparkRunner* QuantTest::runner_ = nullptr;
LiteSystem* QuantTest::system_ = nullptr;

TEST_F(QuantTest, QuantizedPredictBatchTracksExactModel) {
  testkit::GenOptions gopts;
  gopts.apps = {"TS", "PR", "KM"};
  testkit::TupleGenerator gen(gopts, testkit::SeedFromEnv() + 51);
  testkit::WorkloadTuple t = gen.Next();
  CandidateEval ce = CorpusBuilder(runner_).FeaturizeCandidate(
      system_->corpus(), *t.app, t.data, t.env, t.config);
  ASSERT_FALSE(ce.stage_instances.empty());

  const NecsModel* model = system_->model();
  std::vector<double> exact = model->PredictBatch(ce.stage_instances);
  for (QuantBackend mode : {QuantBackend::kInt8, QuantBackend::kFp16}) {
    const QuantizedNecs* twin = model->Quantized(mode);
    ASSERT_NE(twin, nullptr);
    EXPECT_EQ(twin->mode(), mode);
    std::vector<double> quant = twin->PredictBatch(ce.stage_instances);
    ASSERT_EQ(quant.size(), exact.size());
    double bound = mode == QuantBackend::kInt8 ? 0.10 : 0.01;
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_NEAR(quant[i], exact[i], bound * (1.0 + std::fabs(exact[i])))
          << QuantBackendName(mode) << " stage " << i << "; " << SeedNote();
    }
  }
  // The same twin object is served until invalidation; a parameter-change
  // invalidation drops it.
  EXPECT_EQ(model->Quantized(QuantBackend::kInt8),
            model->Quantized(QuantBackend::kInt8));
  const QuantizedNecs* before = model->Quantized(QuantBackend::kInt8);
  model->InvalidateCache();
  EXPECT_NE(model->Quantized(QuantBackend::kInt8), before);
}

TEST_F(QuantTest, ScoringPlanPathIsBitIdenticalToSlowPath) {
  testkit::GenOptions gopts;
  gopts.apps = {"TS", "PR", "KM"};
  testkit::TupleGenerator gen(gopts, testkit::SeedFromEnv() + 52);
  const auto& space = spark::KnobSpace::Spark16();
  for (int i = 0; i < 3; ++i) {
    testkit::WorkloadTuple t = gen.Next();
    CandidateEval ce = CorpusBuilder(runner_).FeaturizeCandidate(
        system_->corpus(), *t.app, t.data, t.env, t.config);
    ASSERT_FALSE(ce.stage_instances.empty());
    for (QuantBackend mode : {QuantBackend::kInt8, QuantBackend::kFp16}) {
      const QuantizedNecs* twin = system_->model()->Quantized(mode);
      ScoringPlan plan = twin->BuildPlan(ce);
      EXPECT_EQ(plan.num_rows, ce.stage_instances.size());
      std::vector<double> knobs = space.Normalize(t.config);
      for (auto& inst : ce.stage_instances) inst.knobs = knobs;
      qk::Arena arena;
      double fast = 0.0;
      twin->ScoreWithKnobsBlock(plan, {knobs}, 0, 1, &fast, &arena);
      // The slow path: Eq. 5 over the twin's per-instance predictions.
      std::vector<double> targets = twin->PredictBatch(ce.stage_instances);
      double slow = 0.0;
      for (size_t s = 0; s < targets.size(); ++s) {
        slow += SecondsFromTarget(targets[s]) *
                static_cast<double>(ce.stage_reps[s]);
      }
      EXPECT_EQ(fast, slow)
          << QuantBackendName(mode) << " tuple " << t.Describe() << "; "
          << SeedNote();
    }
  }
}

TEST_F(QuantTest, DiffQuantizationAccuracyHoldsAcrossPoolSizes) {
  testkit::GenOptions gopts;
  gopts.apps = {"TS", "PR", "KM"};
  testkit::TupleGenerator gen(gopts, testkit::SeedFromEnv() + 53);
  for (size_t pool_size : {size_t{4}, size_t{24}}) {
    testkit::WorkloadTuple t = gen.Next();
    std::vector<spark::Config> pool = MakePool(gen.rng(), pool_size - 1);
    for (QuantBackend mode : {QuantBackend::kInt8, QuantBackend::kFp16}) {
      double bound =
          mode == QuantBackend::kInt8 ? kInt8MaxRelError : kFp16MaxRelError;
      testkit::QuantAccuracyReport report;
      testkit::DiffResult r = testkit::DiffQuantizationAccuracy(
          runner_, system_->corpus(), Models(), t, pool, mode, bound,
          {1, 4, 8}, &report);
      ASSERT_TRUE(r.ok) << r.message << "\n  tuple: " << t.Describe()
                        << "\n  " << SeedNote();
      EXPECT_LE(report.max_rel_error, bound);
    }
  }
}

TEST_F(QuantTest, DefaultBackendIsTransparent) {
  testkit::GenOptions gopts;
  gopts.apps = {"TS", "PR", "KM"};
  testkit::TupleGenerator gen(gopts, testkit::SeedFromEnv() + 54);
  testkit::WorkloadTuple t = gen.Next();
  std::vector<spark::Config> pool = MakePool(gen.rng(), 11);
  testkit::DiffResult r = testkit::DiffQuantTransparency(
      runner_, system_->corpus(), Models(), t, pool, {1, 4, 8});
  ASSERT_TRUE(r.ok) << r.message << "\n  tuple: " << t.Describe() << "\n  "
                    << SeedNote();
}

// Top-1 recommendation agreement over the golden 45-cell matrix (every
// catalog application on clusters A/B/C, the golden_trace_test grid): the
// quantized argmin must match the exact argmin — or cost at most
// kAgreementRegret exact-score regret — on at least the per-backend floor.
TEST_F(QuantTest, Top1AgreementOnGolden45CellMatrix) {
  const auto& space = spark::KnobSpace::Spark16();
  Rng rng(testkit::SeedFromEnv() + 55);
  std::vector<spark::Config> pool = {space.DefaultConfig()};
  for (int c = 0; c < 15; ++c) pool.push_back(space.RandomConfig(&rng));

  std::vector<const NecsModel*> models = Models();
  int agree_int8 = 0, agree_fp16 = 0, cells = 0;
  for (const auto& app : spark::AppCatalog::All()) {
    double size_mb =
        app.train_sizes_mb.empty() ? 50.0 : app.train_sizes_mb[0];
    spark::DataSpec data = app.MakeData(size_mb);
    for (const auto& env :
         {spark::ClusterEnv::ClusterA(), spark::ClusterEnv::ClusterB(),
          spark::ClusterEnv::ClusterC()}) {
      ++cells;
      std::vector<double> exact = serve::ScoreCandidateSet(
          runner_, system_->corpus(), models, app, data, env, pool,
          serve::ScoringOptions{.threads = 1});
      size_t exact_best = 0;
      for (size_t i = 1; i < exact.size(); ++i) {
        if (exact[i] < exact[exact_best]) exact_best = i;
      }
      for (QuantBackend mode : {QuantBackend::kInt8, QuantBackend::kFp16}) {
        std::vector<double> quant = serve::ScoreCandidateSet(
            runner_, system_->corpus(), models, app, data, env, pool,
            serve::ScoringOptions{.threads = 1, .backend = mode});
        size_t quant_best = 0;
        for (size_t i = 1; i < quant.size(); ++i) {
          if (quant[i] < quant[quant_best]) quant_best = i;
        }
        double regret = (exact[quant_best] - exact[exact_best]) /
                        std::max(std::fabs(exact[exact_best]), 1e-9);
        bool agrees = quant_best == exact_best || regret <= kAgreementRegret;
        (mode == QuantBackend::kInt8 ? agree_int8 : agree_fp16) += agrees;
      }
    }
  }
  ASSERT_EQ(cells, 45) << "the golden matrix is 15 apps x 3 clusters";
  EXPECT_GE(agree_int8, kInt8MinAgreement)
      << "int8 top-1 agreement dropped below the floor; " << SeedNote();
  EXPECT_GE(agree_fp16, kFp16MinAgreement)
      << "fp16 top-1 agreement dropped below the floor; " << SeedNote();
}

TEST_F(QuantTest, BackendRoutingThroughScoreCandidateSet) {
  testkit::GenOptions gopts;
  gopts.apps = {"TS", "PR", "KM"};
  testkit::TupleGenerator gen(gopts, testkit::SeedFromEnv() + 56);
  testkit::WorkloadTuple t = gen.Next();
  std::vector<spark::Config> pool = MakePool(gen.rng(), 7);
  std::vector<const NecsModel*> models = Models();

  for (QuantBackend mode : {QuantBackend::kInt8, QuantBackend::kFp16}) {
    serve::ScoringOptions opts;
    opts.threads = 1;
    opts.backend = mode;
    std::vector<double> routed = serve::ScoreCandidateSet(
        runner_, system_->corpus(), models, *t.app, t.data, t.env, pool, opts);
    // The backend's per-candidate reference: each twin's own predictions,
    // ensembled exactly like the exact path.
    std::vector<double> reference = testkit::ReferenceScores(
        runner_, system_->corpus(), models, *t.app, t.data, t.env, pool, mode);
    EXPECT_EQ(routed, reference) << QuantBackendName(mode);
  }
}

// Twins are derived on load, never stored: a model restored from a
// snapshot must score bit for bit like the trained model it was saved from
// on every quantized backend (the fp32 weights round-trip exactly and
// quantization is deterministic).
TEST_F(QuantTest, QuantizedSnapshotRoundTripIsBitIdentical) {
  testkit::ScopedTempDir tmp("quant_snapshot_roundtrip");
  ASSERT_TRUE(SaveSnapshot(*system_, tmp.path()));
  std::unique_ptr<LoadedLiteModel> loaded =
      LoadedLiteModel::Load(tmp.path(), runner_);
  ASSERT_NE(loaded, nullptr);
  std::vector<const NecsModel*> loaded_models;
  for (size_t m = 0; m < loaded->ensemble_size(); ++m) {
    loaded_models.push_back(loaded->model(m));
  }

  testkit::GenOptions gopts;
  gopts.apps = {"TS", "PR", "KM"};
  testkit::TupleGenerator gen(gopts, testkit::SeedFromEnv() + 57);
  testkit::WorkloadTuple t = gen.Next();
  std::vector<spark::Config> pool = MakePool(gen.rng(), 9);

  for (QuantBackend mode : {QuantBackend::kInt8, QuantBackend::kFp16}) {
    SCOPED_TRACE(QuantBackendName(mode));
    const serve::ScoringOptions opts{.threads = 1, .backend = mode};
    std::vector<double> want = serve::ScoreCandidateSet(
        runner_, system_->corpus(), Models(), *t.app, t.data, t.env, pool,
        opts);
    std::vector<double> got = serve::ScoreCandidateSet(
        runner_, loaded->feature_space(), loaded_models, *t.app, t.data,
        t.env, pool, opts);
    EXPECT_EQ(got, want) << "twins derived on load drifted; " << SeedNote();
  }
}

TEST(QuantBackendTest, NamesParseAndRoundTrip) {
  QuantBackend b = QuantBackend::kInt8;
  EXPECT_TRUE(ParseQuantBackend("exact", &b));
  EXPECT_EQ(b, QuantBackend::kExactFp32);
  EXPECT_TRUE(ParseQuantBackend("fp32", &b));
  EXPECT_EQ(b, QuantBackend::kExactFp32);
  EXPECT_TRUE(ParseQuantBackend("int8", &b));
  EXPECT_EQ(b, QuantBackend::kInt8);
  EXPECT_TRUE(ParseQuantBackend("fp16", &b));
  EXPECT_EQ(b, QuantBackend::kFp16);
  EXPECT_FALSE(ParseQuantBackend("int4", &b));
  for (QuantBackend mode :
       {QuantBackend::kExactFp32, QuantBackend::kInt8, QuantBackend::kFp16}) {
    QuantBackend parsed = QuantBackend::kExactFp32;
    EXPECT_TRUE(ParseQuantBackend(QuantBackendName(mode), &parsed));
    EXPECT_EQ(parsed, mode);
  }
}

}  // namespace
}  // namespace lite
