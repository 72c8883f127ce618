// Quantized GEMM kernels for the NECS inference fast path.
//
// Weights are quantized per output row (per output channel): int8 with an
// asymmetric scale/zero-point pair per row, or IEEE half-precision storage
// decoded exactly to fp32. Activations on the int8 path are dynamically
// quantized per GEMM input row (symmetric). The fp32 epilogue is shared
// scalar code, and the dispatched inner dot products are constructed to be
// bit-identical between the generic fallback and the AVX2 kernels:
//
//  - int8 dots accumulate exactly in int32, so any summation order works;
//  - half dots keep a fixed 8-lane fp32 accumulator with zero-padded tails
//    and a fixed reduction tree, mirrored lane for lane by the generic
//    kernel (no FMA; the kernel translation units are compiled with
//    -ffp-contract=off so the compiler cannot fuse them either).
//
// That bit-identity is enforced by tests/quant_test.cc and the
// DiffQuantizationAccuracy suite, which makes "which ISA ran" unobservable
// in the scores. The exact FP32 autodiff path remains the oracle; these
// kernels are opt-in via QuantBackend (nn/quantized.h).
#ifndef LITE_TENSOR_QKERNELS_H_
#define LITE_TENSOR_QKERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/arena.h"

namespace lite::qk {

// ---------------------------------------------------------------------------
// Runtime ISA dispatch.

enum class KernelIsa { kGeneric = 0, kAvx2 = 1 };

/// True when the AVX2 (+F16C) kernels were compiled in and the CPU reports
/// support at runtime.
bool Avx2KernelAvailable();

/// The ISA the dot kernels will use. Defaults to the best available.
KernelIsa ActiveKernelIsa();

/// Test hook: force an ISA (kAvx2 is ignored when unavailable). The parity
/// suites run every kernel under both values and require bit-identical
/// output.
void SetKernelIsaForTest(KernelIsa isa);

// ---------------------------------------------------------------------------
// Mutation hooks (tools/mutation_check): deliberately-buggy kernel variants
// that the quantization-accuracy suites must catch. Applied in the shared
// generic code so both ISAs exhibit the bug identically.

enum class QuantMutation {
  kNone = 0,
  kDropZeroPoint,    ///< int8 epilogue forgets the zero-point correction.
  kTransposedTile,   ///< first 8x8 weight tile read transposed.
  kStaleActScale,    ///< activation row b quantized with row b-1's scale.
};

void SetQuantMutationForTest(QuantMutation m);
QuantMutation ActiveQuantMutation();

// ---------------------------------------------------------------------------
// Quantized storage.

/// Per-row asymmetric int8 weights, row-major rows x cols (one output
/// channel per row). Dequantized value: scale[r] * (q[r*cols+c] - zero_point[r]).
struct QuantizedRowMatrix {
  size_t rows = 0, cols = 0;
  std::vector<int8_t> q;          ///< rows * cols.
  std::vector<float> scale;       ///< per row, finite and > 0.
  std::vector<int32_t> zero_point;  ///< per row.

  // Derived output-stationary panel packing for the AVX2 GEMM (built by
  // QuantizeRowsInt8, never stored). Panels hold 8 output rows of
  // int16-widened codes, column-pair interleaved: entry
  // [p][c*8 + l*2 + (c&1)] is w[p*8+l][c], so one 32-byte load yields 8
  // lanes of (w[j][c], w[j][c+1]) pairs ready for vpmaddwd against a
  // broadcast activation pair. Zero-padded to even cols and to full panels
  // of 8 rows (zero codes contribute exactly zero). Summation order changes
  // relative to the dot kernels, which is fine on the int8 path only:
  // int32 accumulation is exact, so any order is bit-identical.
  std::vector<int16_t> panels;
  size_t cols2 = 0;  ///< cols rounded up to even.

  /// (Re)builds `panels` from `q`. Called by QuantizeRowsInt8; kernels fall
  /// back to the dot path when empty.
  void BuildPanels();
};

/// Quantizes a row-major rows x cols fp32 matrix per row into int8 codes in
/// [-127, 127] (symmetric code range keeps |q| * |zp| products small).
QuantizedRowMatrix QuantizeRowsInt8(const float* w, size_t rows, size_t cols);

/// Row-major IEEE-754 binary16 storage. Decoding half -> float is exact, so
/// fp16 error comes only from the one rounding at pack time.
struct HalfMatrix {
  size_t rows = 0, cols = 0;
  std::vector<uint16_t> v;  ///< rows * cols.
};

HalfMatrix PackHalf(const float* w, size_t rows, size_t cols);

/// Exact binary16 -> binary32 (subnormals and infinities included; NaN
/// payload top bits preserved).
float HalfToFloat(uint16_t h);
/// binary32 -> binary16, round to nearest even, overflow to infinity.
uint16_t FloatToHalf(float f);

// ---------------------------------------------------------------------------
// Kernels. Exposed individually for the parity tests; the layer code in
// nn/quantized.h drives the Gemm entry points.

/// Exact int32 dot of two int8 vectors.
int32_t DotInt8(const int8_t* a, const int8_t* b, size_t n);

/// fp32 dot of an fp32 vector with a half-storage vector using the fixed
/// 8-lane accumulator / reduction tree described above.
float DotHalf(const float* x, const uint16_t* w, size_t n);

/// y (batch x w.rows) = x (batch x w.cols) * dequant(w)^T + bias, with
/// per-input-row dynamic activation quantization. `relu` fuses y = max(y, 0).
/// `bias` may be null (treated as zeros). Scratch comes from `arena` (not
/// Reset here — callers own the reset cadence).
void GemmInt8(const float* x, size_t batch, const QuantizedRowMatrix& w,
              const float* bias, float* y, bool relu, Arena* arena);

/// Same contract with half-storage weights (no activation quantization).
void GemmHalf(const float* x, size_t batch, const HalfMatrix& w,
              const float* bias, float* y, bool relu);

namespace detail {
int32_t DotInt8Generic(const int8_t* a, const int8_t* b, size_t n);
float DotHalfGeneric(const float* x, const uint16_t* w, size_t n);
#if defined(__x86_64__) || defined(__i386__)
// Defined in qkernels_avx2.cc (compiled with -mavx2 -mf16c).
int32_t DotInt8Avx2(const int8_t* a, const int8_t* b, size_t n);
float DotHalfAvx2(const float* x, const uint16_t* w, size_t n);
// Multi-row forms: one activation row against all `rows` consecutive weight
// rows. Per-output math is identical to the single-dot kernels (int8 is
// exact int32 in any order; each half output keeps its own fixed 8-lane
// accumulator and reduction tree) — the win is purely amortization: the
// activation vector is loaded once per 4 weight rows and the call/reduction
// overhead is paid per activation row, not per output.
void DotInt8MultiAvx2(const int8_t* a, const int8_t* w, size_t rows,
                      size_t cols, int32_t* out);
void DotHalfMultiAvx2(const float* x, const uint16_t* w, size_t rows,
                      size_t cols, float* out);
// Vectorized pieces of the dynamic activation quantization in GemmInt8.
// Bit-identical to the scalar loops: max/fabs are order-independent on
// finite floats, and _mm256_cvtps_epi32 rounds to nearest-even exactly like
// lrintf under the default rounding mode.
float MaxAbsAvx2(const float* x, size_t n);
void QuantizeActRowAvx2(const float* x, size_t n, float inv, int8_t* q,
                        int32_t* rowsum);
// Same quantization but emitting int16-widened codes (zero-padded out to
// n2 >= n) for the panel GEMM below.
void QuantizeActRowToInt16Avx2(const float* x, size_t n, size_t n2, float inv,
                               int16_t* q, int32_t* rowsum);
// Output-stationary GEMV over w.panels for one int16-widened activation
// row: out[j] = exact int32 dot of row j, no horizontal reductions.
// Requires w.BuildPanels() to have run.
void GemmInt8PanelsAvx2(const int16_t* a16, const QuantizedRowMatrix& w,
                        int32_t* out);
bool Avx2RuntimeSupported();
#endif
}  // namespace detail

}  // namespace lite::qk

#endif  // LITE_TENSOR_QKERNELS_H_
