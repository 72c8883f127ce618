// AVX2 (+F16C) dot kernels. Compiled with -mavx2 -mf16c -ffp-contract=off
// (src/tensor/CMakeLists.txt); only reached after a runtime CPU check, so
// the rest of the binary stays baseline-ISA clean.
//
// Bit-identity contract with the generic kernels (tensor/qkernels.cc):
//  - int8: exact int32 accumulation, any order.
//  - half: 8-lane fp32 accumulator over zero-padded 8-element groups, plain
//    mul + add (no FMA), reduction tree = 128-bit fold, movehl fold, final
//    pairwise add — mirrored scalar-for-lane by DotHalfGeneric.
#include "tensor/qkernels.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>

namespace lite::qk::detail {

// Each kernel starts on a 64-byte cache line, so its loops keep their
// placement when unrelated code changes size (unpinned, that alone moved
// int8 serving p50 by up to 17%). An attribute, not a flag: every build has it.
#define LITE_QK_PINNED __attribute__((aligned(64)))

namespace {

inline int32_t ReduceI32(__m256i acc) {
  __m128i lo = _mm256_castsi256_si128(acc);
  __m128i hi = _mm256_extracti128_si256(acc, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_unpackhi_epi64(s, s));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x1));
  return _mm_cvtsi128_si32(s);
}

// The fixed reduction tree of the half kernels: 128-bit fold, movehl fold,
// final pairwise add. DotHalfGeneric mirrors this exactly.
inline float ReduceHalfAcc(__m256 acc) {
  __m128 lo = _mm256_castps256_ps128(acc);
  __m128 hi = _mm256_extractf128_ps(acc, 1);
  __m128 s4 = _mm_add_ps(lo, hi);                     // lanes l + l+4.
  __m128 s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));  // lanes (0+2, 1+3).
  __m128 s1 = _mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 0x1));
  return _mm_cvtss_f32(s1);
}

}  // namespace

LITE_QK_PINNED bool Avx2RuntimeSupported() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("f16c");
}

LITE_QK_PINNED int32_t DotInt8Avx2(const int8_t* a, const int8_t* b,
                                   size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i av = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    __m128i bv = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    // Widen to int16 and multiply-add adjacent pairs into int32. Unlike
    // maddubs this cannot saturate: |a*b| <= 127*127 and pairs sum to at
    // most 2 * 16129.
    __m256i aw = _mm256_cvtepi8_epi16(av);
    __m256i bw = _mm256_cvtepi8_epi16(bv);
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(aw, bw));
  }
  if (i < n) {
    alignas(16) int8_t at[16] = {0};
    alignas(16) int8_t bt[16] = {0};
    std::memcpy(at, a + i, n - i);
    std::memcpy(bt, b + i, n - i);
    __m128i av = _mm_load_si128(reinterpret_cast<const __m128i*>(at));
    __m128i bv = _mm_load_si128(reinterpret_cast<const __m128i*>(bt));
    __m256i aw = _mm256_cvtepi8_epi16(av);
    __m256i bw = _mm256_cvtepi8_epi16(bv);
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(aw, bw));
  }
  return ReduceI32(acc);
}

LITE_QK_PINNED void DotInt8MultiAvx2(const int8_t* a, const int8_t* w,
                                     size_t rows, size_t cols, int32_t* out) {
  size_t j = 0;
  for (; j + 4 <= rows; j += 4) {
    const int8_t* w0 = w + j * cols;
    const int8_t* w1 = w0 + cols;
    const int8_t* w2 = w1 + cols;
    const int8_t* w3 = w2 + cols;
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    __m256i acc2 = _mm256_setzero_si256();
    __m256i acc3 = _mm256_setzero_si256();
    size_t i = 0;
    for (; i + 16 <= cols; i += 16) {
      __m256i aw = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
      acc0 = _mm256_add_epi32(
          acc0, _mm256_madd_epi16(aw, _mm256_cvtepi8_epi16(_mm_loadu_si128(
                                          reinterpret_cast<const __m128i*>(
                                              w0 + i)))));
      acc1 = _mm256_add_epi32(
          acc1, _mm256_madd_epi16(aw, _mm256_cvtepi8_epi16(_mm_loadu_si128(
                                          reinterpret_cast<const __m128i*>(
                                              w1 + i)))));
      acc2 = _mm256_add_epi32(
          acc2, _mm256_madd_epi16(aw, _mm256_cvtepi8_epi16(_mm_loadu_si128(
                                          reinterpret_cast<const __m128i*>(
                                              w2 + i)))));
      acc3 = _mm256_add_epi32(
          acc3, _mm256_madd_epi16(aw, _mm256_cvtepi8_epi16(_mm_loadu_si128(
                                          reinterpret_cast<const __m128i*>(
                                              w3 + i)))));
    }
    if (i < cols) {
      alignas(16) int8_t at[16] = {0};
      std::memcpy(at, a + i, cols - i);
      __m256i aw = _mm256_cvtepi8_epi16(
          _mm_load_si128(reinterpret_cast<const __m128i*>(at)));
      auto tail = [&](const int8_t* wr, __m256i& acc) {
        alignas(16) int8_t wt[16] = {0};
        std::memcpy(wt, wr + i, cols - i);
        __m256i ww = _mm256_cvtepi8_epi16(
            _mm_load_si128(reinterpret_cast<const __m128i*>(wt)));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(aw, ww));
      };
      tail(w0, acc0);
      tail(w1, acc1);
      tail(w2, acc2);
      tail(w3, acc3);
    }
    out[j + 0] = ReduceI32(acc0);
    out[j + 1] = ReduceI32(acc1);
    out[j + 2] = ReduceI32(acc2);
    out[j + 3] = ReduceI32(acc3);
  }
  for (; j < rows; ++j) out[j] = DotInt8Avx2(a, w + j * cols, cols);
}

LITE_QK_PINNED float MaxAbsAvx2(const float* x, size_t n) {
  const __m256 mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  __m256 m = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    m = _mm256_max_ps(m, _mm256_and_ps(mask, _mm256_loadu_ps(x + i)));
  }
  __m128 m4 =
      _mm_max_ps(_mm256_castps256_ps128(m), _mm256_extractf128_ps(m, 1));
  m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
  m4 = _mm_max_ss(m4, _mm_shuffle_ps(m4, m4, 0x1));
  float r = _mm_cvtss_f32(m4);
  for (; i < n; ++i) r = std::max(r, std::fabs(x[i]));
  return r;
}

LITE_QK_PINNED void QuantizeActRowAvx2(const float* x, size_t n, float inv,
                                       int8_t* q, int32_t* rowsum) {
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256i lo = _mm256_set1_epi32(-127);
  const __m256i hi = _mm256_set1_epi32(127);
  __m256i sum = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    // cvtps rounds to nearest-even — the same rounding lrintf performs.
    __m256i c0 =
        _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(x + i), vinv));
    __m256i c1 =
        _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(x + i + 8), vinv));
    c0 = _mm256_min_epi32(_mm256_max_epi32(c0, lo), hi);
    c1 = _mm256_min_epi32(_mm256_max_epi32(c1, lo), hi);
    sum = _mm256_add_epi32(sum, _mm256_add_epi32(c0, c1));
    // Narrow 16 clamped int32 codes to int8 in order; the saturating packs
    // are exact because the values already sit in [-127, 127].
    __m256i w16 = _mm256_permute4x64_epi64(_mm256_packs_epi32(c0, c1), 0xD8);
    __m128i b8 = _mm_packs_epi16(_mm256_castsi256_si128(w16),
                                 _mm256_extracti128_si256(w16, 1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(q + i), b8);
  }
  int32_t total = ReduceI32(sum);
  for (; i < n; ++i) {
    long code = std::lrintf(x[i] * inv);
    int8_t v = static_cast<int8_t>(std::clamp<long>(code, -127, 127));
    q[i] = v;
    total += v;
  }
  *rowsum = total;
}

LITE_QK_PINNED void QuantizeActRowToInt16Avx2(const float* x, size_t n,
                                              size_t n2, float inv, int16_t* q,
                                              int32_t* rowsum) {
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256i lo = _mm256_set1_epi32(-127);
  const __m256i hi = _mm256_set1_epi32(127);
  __m256i sum = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i c0 =
        _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(x + i), vinv));
    c0 = _mm256_min_epi32(_mm256_max_epi32(c0, lo), hi);
    sum = _mm256_add_epi32(sum, c0);
    __m128i w16 = _mm_packs_epi32(_mm256_castsi256_si128(c0),
                                  _mm256_extracti128_si256(c0, 1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(q + i), w16);
  }
  int32_t total = ReduceI32(sum);
  for (; i < n; ++i) {
    long code = std::lrintf(x[i] * inv);
    int16_t v = static_cast<int16_t>(std::clamp<long>(code, -127, 127));
    q[i] = v;
    total += v;
  }
  for (; i < n2; ++i) q[i] = 0;
  *rowsum = total;
}

LITE_QK_PINNED void GemmInt8PanelsAvx2(const int16_t* a16,
                                       const QuantizedRowMatrix& w,
                                       int32_t* out) {
  const size_t cols2 = w.cols2;
  const size_t np = (w.rows + 7) / 8;
  for (size_t p = 0; p < np; ++p) {
    const int16_t* wp = w.panels.data() + p * cols2 * 8;
    __m256i acc = _mm256_setzero_si256();
    for (size_t c = 0; c < cols2; c += 2) {
      // Broadcast the activation pair (a[c], a[c+1]) to every lane; one
      // madd accumulates both columns into all 8 outputs of the panel.
      int32_t pair;
      std::memcpy(&pair, a16 + c, sizeof(pair));
      __m256i av = _mm256_set1_epi32(pair);
      acc = _mm256_add_epi32(
          acc, _mm256_madd_epi16(
                   av, _mm256_loadu_si256(
                           reinterpret_cast<const __m256i*>(wp + c * 8))));
    }
    if (p * 8 + 8 <= w.rows) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + p * 8), acc);
    } else {
      alignas(32) int32_t tmp[8];
      _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), acc);
      for (size_t l = 0; p * 8 + l < w.rows; ++l) out[p * 8 + l] = tmp[l];
    }
  }
}

LITE_QK_PINNED float DotHalfAvx2(const float* x, const uint16_t* w,
                                 size_t n) {
  __m256 acc = _mm256_setzero_ps();
  size_t n8 = n & ~static_cast<size_t>(7);
  for (size_t i = 0; i < n8; i += 8) {
    __m128i hw = _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + i));
    __m256 wf = _mm256_cvtph_ps(hw);  // exact half -> float.
    __m256 xf = _mm256_loadu_ps(x + i);
    acc = _mm256_add_ps(acc, _mm256_mul_ps(xf, wf));
  }
  if (n8 < n) {
    alignas(32) float xt[8] = {0};
    alignas(16) uint16_t wt[8] = {0};
    for (size_t i = n8; i < n; ++i) {
      xt[i - n8] = x[i];
      wt[i - n8] = w[i];
    }
    __m128i hw = _mm_load_si128(reinterpret_cast<const __m128i*>(wt));
    __m256 wf = _mm256_cvtph_ps(hw);
    __m256 xf = _mm256_load_ps(xt);
    acc = _mm256_add_ps(acc, _mm256_mul_ps(xf, wf));
  }
  return ReduceHalfAcc(acc);
}

LITE_QK_PINNED void DotHalfMultiAvx2(const float* x, const uint16_t* w,
                                     size_t rows, size_t cols, float* out) {
  const size_t n8 = cols & ~static_cast<size_t>(7);
  size_t j = 0;
  for (; j + 4 <= rows; j += 4) {
    const uint16_t* w0 = w + j * cols;
    const uint16_t* w1 = w0 + cols;
    const uint16_t* w2 = w1 + cols;
    const uint16_t* w3 = w2 + cols;
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    for (size_t i = 0; i < n8; i += 8) {
      __m256 xf = _mm256_loadu_ps(x + i);
      acc0 = _mm256_add_ps(
          acc0, _mm256_mul_ps(xf, _mm256_cvtph_ps(_mm_loadu_si128(
                                      reinterpret_cast<const __m128i*>(
                                          w0 + i)))));
      acc1 = _mm256_add_ps(
          acc1, _mm256_mul_ps(xf, _mm256_cvtph_ps(_mm_loadu_si128(
                                      reinterpret_cast<const __m128i*>(
                                          w1 + i)))));
      acc2 = _mm256_add_ps(
          acc2, _mm256_mul_ps(xf, _mm256_cvtph_ps(_mm_loadu_si128(
                                      reinterpret_cast<const __m128i*>(
                                          w2 + i)))));
      acc3 = _mm256_add_ps(
          acc3, _mm256_mul_ps(xf, _mm256_cvtph_ps(_mm_loadu_si128(
                                      reinterpret_cast<const __m128i*>(
                                          w3 + i)))));
    }
    if (n8 < cols) {
      alignas(32) float xt[8] = {0};
      for (size_t i = n8; i < cols; ++i) xt[i - n8] = x[i];
      __m256 xf = _mm256_load_ps(xt);
      auto tail = [&](const uint16_t* wr, __m256& acc) {
        alignas(16) uint16_t wt[8] = {0};
        for (size_t i = n8; i < cols; ++i) wt[i - n8] = wr[i];
        __m256 wf = _mm256_cvtph_ps(
            _mm_load_si128(reinterpret_cast<const __m128i*>(wt)));
        acc = _mm256_add_ps(acc, _mm256_mul_ps(xf, wf));
      };
      tail(w0, acc0);
      tail(w1, acc1);
      tail(w2, acc2);
      tail(w3, acc3);
    }
    out[j + 0] = ReduceHalfAcc(acc0);
    out[j + 1] = ReduceHalfAcc(acc1);
    out[j + 2] = ReduceHalfAcc(acc2);
    out[j + 3] = ReduceHalfAcc(acc3);
  }
  for (; j < rows; ++j) out[j] = DotHalfAvx2(x, w + j * cols, cols);
}

}  // namespace lite::qk::detail

#endif  // x86
