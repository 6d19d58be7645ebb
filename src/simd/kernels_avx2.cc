// The AVX2 (FMA) backend. This is the only translation unit in the tree
// allowed to touch <immintrin.h> (lint rule det/simd-intrinsics); it is
// compiled with -mavx2 -mfma (plus the project-wide -ffp-contract=off) and
// reached only through the runtime dispatch in simd.cc, so a host without
// AVX2 never executes a vector instruction.
//
// Bit-identity with the scalar backend (the contract in simd.h) rests on
// three facts encoded below:
//   * elementwise lanes use vmulps/vaddps — exactly rounded, never fused —
//     so each lane is the identical IEEE operation the scalar loop does;
//   * the double dot uses vfmaddpd only because float*float is exact in
//     double, making fusion bit-neutral; the lane partition (i mod 4) and
//     fold order (l0 + l1) + (l2 + l3) match the scalar backend;
//   * max uses the vmaxps select `(acc > x) ? acc : x` and a fixed
//     pairwise fold, and the ReLU pair uses ordered-quiet compares so NaN
//     and signed-zero handling matches the scalar branches.

#include "simd/kernels.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace sgnn::simd::internal {

bool CpuHasAvx2Fma() {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

#if defined(__AVX2__) && defined(__FMA__)

namespace {

void AxpyAvx2(float alpha, const float* x, float* y, int64_t n) {
  // 4x unrolled: axpy is the GEMM inner kernel, so shaving loop overhead
  // here is what moves the dense-GEMM roofline. Every lane is independent
  // (one unfused mul + add per element), so the unroll is bit-neutral.
  const __m256 va = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256 p0 = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
    const __m256 p1 = _mm256_mul_ps(va, _mm256_loadu_ps(x + i + 8));
    const __m256 p2 = _mm256_mul_ps(va, _mm256_loadu_ps(x + i + 16));
    const __m256 p3 = _mm256_mul_ps(va, _mm256_loadu_ps(x + i + 24));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), p0));
    _mm256_storeu_ps(y + i + 8,
                     _mm256_add_ps(_mm256_loadu_ps(y + i + 8), p1));
    _mm256_storeu_ps(y + i + 16,
                     _mm256_add_ps(_mm256_loadu_ps(y + i + 16), p2));
    _mm256_storeu_ps(y + i + 24,
                     _mm256_add_ps(_mm256_loadu_ps(y + i + 24), p3));
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 prod = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void ScaleAvx2(float alpha, float* y, int64_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), va));
  }
  for (; i < n; ++i) y[i] *= alpha;
}

void MulAvx2(const float* x, float* y, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] *= x[i];
}

void AddAvx2(const float* x, float* y, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void AddScalarAvx2(float alpha, float* y, int64_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), va));
  }
  for (; i < n; ++i) y[i] += alpha;
}

void ReluAvx2(float* y, int64_t n) {
  // blendv on `v < 0`, not max(v, 0): max would rewrite -0.0f to +0.0f
  // where the scalar branch keeps it, and the ordered-quiet compare passes
  // NaN through exactly like `if (v < 0)` does.
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(y + i);
    const __m256 neg = _mm256_cmp_ps(v, zero, _CMP_LT_OQ);
    _mm256_storeu_ps(y + i, _mm256_blendv_ps(v, zero, neg));
  }
  for (; i < n; ++i) {
    if (y[i] < 0.0f) y[i] = 0.0f;
  }
}

void ReluBackwardAvx2(const float* pre, float* g, int64_t n) {
  // Zero where pre <= 0 (ordered-quiet: NaN pre keeps the gradient, the
  // same verdict as the scalar `if (pre[i] <= 0.0f)` branch).
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 dead = _mm256_cmp_ps(_mm256_loadu_ps(pre + i), zero,
                                      _CMP_LE_OQ);
    _mm256_storeu_ps(g + i, _mm256_andnot_ps(dead, _mm256_loadu_ps(g + i)));
  }
  for (; i < n; ++i) {
    if (pre[i] <= 0.0f) g[i] = 0.0f;
  }
}

float MaxAvx2(const float* x, int64_t n) {
  if (n < 8) {
    float m = x[0];
    for (int64_t i = 1; i < n; ++i) m = (m > x[i]) ? m : x[i];
    return m;
  }
  __m256 acc = _mm256_loadu_ps(x);
  const int64_t nb = n & ~int64_t{7};
  for (int64_t i = 8; i < nb; i += 8) {
    acc = _mm256_max_ps(acc, _mm256_loadu_ps(x + i));
  }
  // Pairwise fold (l, l+4), (l, l+2), (l, l+1) — mirrored lane for lane by
  // the scalar backend.
  __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(acc),
                         _mm256_extractf128_ps(acc, 1));
  __m128 m2 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
  __m128 m1 = _mm_max_ss(m2, _mm_shuffle_ps(m2, m2, 0x1));
  float m = _mm_cvtss_f32(m1);
  for (int64_t i = nb; i < n; ++i) m = (m > x[i]) ? m : x[i];
  return m;
}

double DotAvx2(const float* a, const float* b, int64_t n) {
  __m256d acc = _mm256_setzero_pd();
  const int64_t nb = n & ~int64_t{3};
  for (int64_t i = 0; i < nb; i += 4) {
    acc = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i)),
                          _mm256_cvtps_pd(_mm_loadu_ps(b + i)), acc);
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  double sum = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (int64_t i = nb; i < n; ++i) {
    sum += static_cast<double>(a[i]) * b[i];
  }
  return sum;
}

constexpr KernelTable kAvx2Table = {
    AxpyAvx2,  ScaleAvx2,        MulAvx2, AddAvx2, AddScalarAvx2,
    ReluAvx2,  ReluBackwardAvx2, MaxAvx2, DotAvx2,
    "avx2",
};

}  // namespace

const KernelTable* Avx2Table() { return &kAvx2Table; }

#else  // !(__AVX2__ && __FMA__): non-x86 build or vector ISA unavailable.

const KernelTable* Avx2Table() { return nullptr; }

#endif

}  // namespace sgnn::simd::internal
