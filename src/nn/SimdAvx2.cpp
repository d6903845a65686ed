//===- nn/SimdAvx2.cpp - AVX2/FMA/F16C kernel table ---------------------------===//
//
// This translation unit — and only this one — is compiled with
// -mavx2 -mfma -mf16c (see nn/CMakeLists.txt). Nothing here may be called
// unless the runtime probe in Simd.cpp confirmed the CPU has all three.
//
// Determinism: every kernel computes each element with a fixed operation
// sequence for a given N. Remainder lanes mirror the vector lanes — fmaf
// where the lanes use vfmadd, the same exp polynomial evaluated scalar —
// so results do not depend on where parallel chunk boundaries fall.
//
//===----------------------------------------------------------------------===//

#include "nn/Simd.h"

#ifdef TYPILUS_SIMD_AVX2

#include "support/Float16.h"

#include <cassert>
#include <cmath>
#include <cstring>
#include <immintrin.h>

using namespace typilus;
using namespace typilus::nn;

namespace {

inline float hsum(__m256 V) {
  __m128 Lo = _mm_add_ps(_mm256_castps256_ps128(V),
                         _mm256_extractf128_ps(V, 1));
  Lo = _mm_add_ps(Lo, _mm_movehl_ps(Lo, Lo));
  Lo = _mm_add_ss(Lo, _mm_shuffle_ps(Lo, Lo, 1));
  return _mm_cvtss_f32(Lo);
}

inline float hmax(__m256 V) {
  __m128 Lo = _mm_max_ps(_mm256_castps256_ps128(V),
                         _mm256_extractf128_ps(V, 1));
  Lo = _mm_max_ps(Lo, _mm_movehl_ps(Lo, Lo));
  Lo = _mm_max_ss(Lo, _mm_shuffle_ps(Lo, Lo, 1));
  return _mm_cvtss_f32(Lo);
}

//===----------------------------------------------------------------------===//
// exp: Cephes-style polynomial, vector and scalar-mirror forms
//===----------------------------------------------------------------------===//

// Constants of the classic single-precision expf reduction
// (exp(x) = 2^n * exp(r), |r| <= ln2/2; 6th-order polynomial for exp(r)).
constexpr float ExpHi = 88.3762626647949f;
constexpr float ExpLo = -88.3762626647949f;
constexpr float Log2E = 1.44269504088896341f;
constexpr float ExpC1 = 0.693359375f;
constexpr float ExpC2 = -2.12194440e-4f;
constexpr float ExpP0 = 1.9875691500e-4f;
constexpr float ExpP1 = 1.3981999507e-3f;
constexpr float ExpP2 = 8.3334519073e-3f;
constexpr float ExpP3 = 4.1665795894e-2f;
constexpr float ExpP4 = 1.6666665459e-1f;
constexpr float ExpP5 = 5.0000001201e-1f;

inline __m256 expV(__m256 X) {
  X = _mm256_min_ps(_mm256_max_ps(X, _mm256_set1_ps(ExpLo)),
                    _mm256_set1_ps(ExpHi));
  __m256 Fx = _mm256_floor_ps(
      _mm256_fmadd_ps(X, _mm256_set1_ps(Log2E), _mm256_set1_ps(0.5f)));
  X = _mm256_fnmadd_ps(Fx, _mm256_set1_ps(ExpC1), X);
  X = _mm256_fnmadd_ps(Fx, _mm256_set1_ps(ExpC2), X);
  __m256 Z = _mm256_mul_ps(X, X);
  __m256 Y = _mm256_set1_ps(ExpP0);
  Y = _mm256_fmadd_ps(Y, X, _mm256_set1_ps(ExpP1));
  Y = _mm256_fmadd_ps(Y, X, _mm256_set1_ps(ExpP2));
  Y = _mm256_fmadd_ps(Y, X, _mm256_set1_ps(ExpP3));
  Y = _mm256_fmadd_ps(Y, X, _mm256_set1_ps(ExpP4));
  Y = _mm256_fmadd_ps(Y, X, _mm256_set1_ps(ExpP5));
  Y = _mm256_fmadd_ps(Y, Z, _mm256_add_ps(X, _mm256_set1_ps(1.f)));
  __m256i N = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvttps_epi32(Fx), _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(Y, _mm256_castsi256_ps(N));
}

/// Scalar mirror of expV: identical operation sequence per element, so a
/// remainder lane produces the same bits a vector lane would have.
inline float expS(float X) {
  X = std::min(std::max(X, ExpLo), ExpHi);
  float Fx = std::floor(std::fmaf(X, Log2E, 0.5f));
  X = std::fmaf(-Fx, ExpC1, X);
  X = std::fmaf(-Fx, ExpC2, X);
  float Z = X * X;
  float Y = ExpP0;
  Y = std::fmaf(Y, X, ExpP1);
  Y = std::fmaf(Y, X, ExpP2);
  Y = std::fmaf(Y, X, ExpP3);
  Y = std::fmaf(Y, X, ExpP4);
  Y = std::fmaf(Y, X, ExpP5);
  Y = std::fmaf(Y, Z, X + 1.f);
  uint32_t Bits = static_cast<uint32_t>(static_cast<int32_t>(Fx) + 127) << 23;
  float Pow;
  std::memcpy(&Pow, &Bits, sizeof(Pow));
  return Y * Pow;
}

//===----------------------------------------------------------------------===//
// GEMM building blocks
//===----------------------------------------------------------------------===//

void axpyRow(float *Dst, float A, const float *X, int64_t N) {
  __m256 VA = _mm256_set1_ps(A);
  int64_t I = 0;
  for (; I + 8 <= N; I += 8)
    _mm256_storeu_ps(Dst + I, _mm256_fmadd_ps(VA, _mm256_loadu_ps(X + I),
                                              _mm256_loadu_ps(Dst + I)));
  for (; I != N; ++I)
    Dst[I] = std::fmaf(A, X[I], Dst[I]);
}

float dot(const float *A, const float *B, int64_t N) {
  __m256 Acc0 = _mm256_setzero_ps();
  __m256 Acc1 = _mm256_setzero_ps();
  int64_t I = 0;
  for (; I + 16 <= N; I += 16) {
    Acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(A + I), _mm256_loadu_ps(B + I),
                           Acc0);
    Acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(A + I + 8),
                           _mm256_loadu_ps(B + I + 8), Acc1);
  }
  for (; I + 8 <= N; I += 8)
    Acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(A + I), _mm256_loadu_ps(B + I),
                           Acc0);
  float Sum = hsum(_mm256_add_ps(Acc0, Acc1));
  for (; I != N; ++I)
    Sum = std::fmaf(A[I], B[I], Sum);
  return Sum;
}

/// GemmSmallN for N = 8 * NV. Two rows at a time: their 2 * NV C-row
/// accumulators and the NV vectors of the current B row all stay in
/// registers while p streams, and the two rows' FMA chains interleave.
/// Per element this is axpyRow's vector-lane step, fmadd(Alpha * A(i, p),
/// B[p, j], C[i, j]) in ascending p, skipped when Alpha * A(i, p) == 0.
/// The V loops must unroll fully, or the accumulators live on the stack.
template <int NV>
void gemmSmallNRows(int64_t RB, int64_t RE, int64_t K, float Alpha,
                    const float *A, int64_t Asi, int64_t Asp, const float *B,
                    float *C) {
  constexpr int64_t N = 8 * NV;
  int64_t I = RB;
  for (; I + 2 <= RE; I += 2) {
    float *C0 = C + I * N, *C1 = C0 + N;
    const float *A0 = A + I * Asi, *A1 = A0 + Asi;
    __m256 Acc0[NV], Acc1[NV];
#pragma GCC unroll 4
    for (int V = 0; V != NV; ++V) {
      Acc0[V] = _mm256_loadu_ps(C0 + 8 * V);
      Acc1[V] = _mm256_loadu_ps(C1 + 8 * V);
    }
    for (int64_t P = 0; P != K; ++P) {
      float X0 = Alpha * A0[P * Asp], X1 = Alpha * A1[P * Asp];
      const float *BRow = B + P * N;
      __m256 BV[NV];
#pragma GCC unroll 4
      for (int V = 0; V != NV; ++V)
        BV[V] = _mm256_loadu_ps(BRow + 8 * V);
      if (X0 != 0.f) {
        __m256 VA = _mm256_set1_ps(X0);
#pragma GCC unroll 4
        for (int V = 0; V != NV; ++V)
          Acc0[V] = _mm256_fmadd_ps(VA, BV[V], Acc0[V]);
      }
      if (X1 != 0.f) {
        __m256 VA = _mm256_set1_ps(X1);
#pragma GCC unroll 4
        for (int V = 0; V != NV; ++V)
          Acc1[V] = _mm256_fmadd_ps(VA, BV[V], Acc1[V]);
      }
    }
#pragma GCC unroll 4
    for (int V = 0; V != NV; ++V) {
      _mm256_storeu_ps(C0 + 8 * V, Acc0[V]);
      _mm256_storeu_ps(C1 + 8 * V, Acc1[V]);
    }
  }
  if (I == RE)
    return;
  float *C0 = C + I * N;
  const float *A0 = A + I * Asi;
  __m256 Acc0[NV];
#pragma GCC unroll 4
  for (int V = 0; V != NV; ++V)
    Acc0[V] = _mm256_loadu_ps(C0 + 8 * V);
  for (int64_t P = 0; P != K; ++P) {
    float X0 = Alpha * A0[P * Asp];
    if (X0 == 0.f)
      continue;
    __m256 VA = _mm256_set1_ps(X0);
#pragma GCC unroll 4
    for (int V = 0; V != NV; ++V)
      Acc0[V] = _mm256_fmadd_ps(VA, _mm256_loadu_ps(B + P * N + 8 * V),
                                Acc0[V]);
  }
#pragma GCC unroll 4
  for (int V = 0; V != NV; ++V)
    _mm256_storeu_ps(C0 + 8 * V, Acc0[V]);
}

void gemmSmallN(int64_t RB, int64_t RE, int64_t N, int64_t K, float Alpha,
                const float *A, int64_t Asi, int64_t Asp, const float *B,
                float *C) {
  switch (N) {
  case 8:
    return gemmSmallNRows<1>(RB, RE, K, Alpha, A, Asi, Asp, B, C);
  case 16:
    return gemmSmallNRows<2>(RB, RE, K, Alpha, A, Asi, Asp, B, C);
  case 24:
    return gemmSmallNRows<3>(RB, RE, K, Alpha, A, Asi, Asp, B, C);
  default:
    assert(N == 32 && "GemmSmallN needs N in {8, 16, 24, 32}");
    return gemmSmallNRows<4>(RB, RE, K, Alpha, A, Asi, Asp, B, C);
  }
}

//===----------------------------------------------------------------------===//
// L1 distance against the three marker encodings
//===----------------------------------------------------------------------===//

void l1Step(__m256 &Acc, __m256 Q, __m256 R) {
  const __m256 SignMask = _mm256_set1_ps(-0.0f);
  Acc = _mm256_add_ps(Acc, _mm256_andnot_ps(SignMask, _mm256_sub_ps(Q, R)));
}

float l1(const float *A, const float *B, int64_t N) {
  __m256 Acc = _mm256_setzero_ps();
  int64_t I = 0;
  for (; I + 8 <= N; I += 8)
    l1Step(Acc, _mm256_loadu_ps(A + I), _mm256_loadu_ps(B + I));
  float Sum = hsum(Acc);
  for (; I != N; ++I)
    Sum += std::fabs(A[I] - B[I]);
  return Sum;
}

float l1F16(const float *Q, const uint16_t *Row, int64_t N) {
  __m256 Acc = _mm256_setzero_ps();
  int64_t I = 0;
  for (; I + 8 <= N; I += 8) {
    __m256 R = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(Row + I)));
    l1Step(Acc, _mm256_loadu_ps(Q + I), R);
  }
  float Sum = hsum(Acc);
  // vcvtph2ps and the software decoder agree exactly (f16 -> f32 is
  // lossless), so the tail matches the lanes bit-for-bit.
  for (; I != N; ++I)
    Sum += std::fabs(Q[I] - f16BitsToF32(Row[I]));
  return Sum;
}

float l1I8(const float *Q, const int8_t *Row, float Scale, int64_t N) {
  __m256 VS = _mm256_set1_ps(Scale);
  __m256 Acc = _mm256_setzero_ps();
  int64_t I = 0;
  for (; I + 8 <= N; I += 8) {
    __m256i W = _mm256_cvtepi8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(Row + I)));
    __m256 R = _mm256_mul_ps(VS, _mm256_cvtepi32_ps(W));
    l1Step(Acc, _mm256_loadu_ps(Q + I), R);
  }
  float Sum = hsum(Acc);
  for (; I != N; ++I)
    Sum += std::fabs(Q[I] - Scale * static_cast<float>(Row[I]));
  return Sum;
}

//===----------------------------------------------------------------------===//
// Elementwise
//
// The non-reduction bodies below use the scalar table's exact per-element
// operation sequence (mul then add, never a fused contraction), so they
// are bit-identical to the scalar reference — SimdTest pins that.
//===----------------------------------------------------------------------===//

void add(float *Dst, const float *Src, int64_t N) {
  int64_t I = 0;
  for (; I + 8 <= N; I += 8)
    _mm256_storeu_ps(Dst + I, _mm256_add_ps(_mm256_loadu_ps(Dst + I),
                                            _mm256_loadu_ps(Src + I)));
  for (; I != N; ++I)
    Dst[I] += Src[I];
}

void sub(float *Dst, const float *Src, int64_t N) {
  int64_t I = 0;
  for (; I + 8 <= N; I += 8)
    _mm256_storeu_ps(Dst + I, _mm256_sub_ps(_mm256_loadu_ps(Dst + I),
                                            _mm256_loadu_ps(Src + I)));
  for (; I != N; ++I)
    Dst[I] -= Src[I];
}

void mul(float *Dst, const float *Src, int64_t N) {
  int64_t I = 0;
  for (; I + 8 <= N; I += 8)
    _mm256_storeu_ps(Dst + I, _mm256_mul_ps(_mm256_loadu_ps(Dst + I),
                                            _mm256_loadu_ps(Src + I)));
  for (; I != N; ++I)
    Dst[I] *= Src[I];
}

void scale(float *Dst, float S, int64_t N) {
  __m256 VS = _mm256_set1_ps(S);
  int64_t I = 0;
  for (; I + 8 <= N; I += 8)
    _mm256_storeu_ps(Dst + I, _mm256_mul_ps(_mm256_loadu_ps(Dst + I), VS));
  for (; I != N; ++I)
    Dst[I] *= S;
}

void mulAcc(float *Dst, const float *A, const float *B, int64_t N) {
  int64_t I = 0;
  for (; I + 8 <= N; I += 8) {
    __m256 P = _mm256_mul_ps(_mm256_loadu_ps(A + I), _mm256_loadu_ps(B + I));
    _mm256_storeu_ps(Dst + I, _mm256_add_ps(_mm256_loadu_ps(Dst + I), P));
  }
  for (; I != N; ++I)
    Dst[I] += A[I] * B[I];
}

void sigmoid(float *X, int64_t N) {
  const __m256 One = _mm256_set1_ps(1.f);
  int64_t I = 0;
  for (; I + 8 <= N; I += 8) {
    __m256 E = expV(_mm256_sub_ps(_mm256_setzero_ps(),
                                  _mm256_loadu_ps(X + I)));
    _mm256_storeu_ps(X + I, _mm256_div_ps(One, _mm256_add_ps(One, E)));
  }
  for (; I != N; ++I)
    X[I] = 1.f / (1.f + expS(0.f - X[I]));
}

void sigmoidBwd(float *DX, const float *DY, const float *Y, int64_t N) {
  const __m256 One = _mm256_set1_ps(1.f);
  int64_t I = 0;
  for (; I + 8 <= N; I += 8) {
    __m256 VY = _mm256_loadu_ps(Y + I);
    __m256 T = _mm256_mul_ps(_mm256_loadu_ps(DY + I), VY);
    T = _mm256_mul_ps(T, _mm256_sub_ps(One, VY));
    _mm256_storeu_ps(DX + I, _mm256_add_ps(_mm256_loadu_ps(DX + I), T));
  }
  for (; I != N; ++I)
    DX[I] += DY[I] * Y[I] * (1.f - Y[I]);
}

void tanhFwd(float *X, int64_t N) {
  // tanh(x) = sign(x) * (1 - e) / (1 + e) with e = exp(-2|x|) in (0, 1]:
  // the reduction never overflows and the division is well-conditioned.
  const __m256 One = _mm256_set1_ps(1.f);
  const __m256 SignMask = _mm256_set1_ps(-0.0f);
  int64_t I = 0;
  for (; I + 8 <= N; I += 8) {
    __m256 V = _mm256_loadu_ps(X + I);
    __m256 Sign = _mm256_and_ps(V, SignMask);
    __m256 Abs = _mm256_andnot_ps(SignMask, V);
    __m256 E = expV(_mm256_mul_ps(_mm256_set1_ps(-2.f), Abs));
    __m256 R = _mm256_div_ps(_mm256_sub_ps(One, E), _mm256_add_ps(One, E));
    _mm256_storeu_ps(X + I, _mm256_or_ps(R, Sign));
  }
  for (; I != N; ++I) {
    float Abs = std::fabs(X[I]);
    float E = expS(-2.f * Abs);
    float R = (1.f - E) / (1.f + E);
    X[I] = std::copysign(R, X[I]);
  }
}

void tanhBwd(float *DX, const float *DY, const float *Y, int64_t N) {
  const __m256 One = _mm256_set1_ps(1.f);
  int64_t I = 0;
  for (; I + 8 <= N; I += 8) {
    __m256 VY = _mm256_loadu_ps(Y + I);
    __m256 T = _mm256_mul_ps(_mm256_loadu_ps(DY + I),
                             _mm256_sub_ps(One, _mm256_mul_ps(VY, VY)));
    _mm256_storeu_ps(DX + I, _mm256_add_ps(_mm256_loadu_ps(DX + I), T));
  }
  for (; I != N; ++I)
    DX[I] += DY[I] * (1.f - Y[I] * Y[I]);
}

void relu(float *X, int64_t N) {
  const __m256 Zero = _mm256_setzero_ps();
  int64_t I = 0;
  // maxps(x, 0) returns its second operand unless x compares greater —
  // exactly the scalar `x > 0 ? x : 0` for zeros and NaN alike.
  for (; I + 8 <= N; I += 8)
    _mm256_storeu_ps(X + I, _mm256_max_ps(_mm256_loadu_ps(X + I), Zero));
  for (; I != N; ++I)
    X[I] = X[I] > 0.f ? X[I] : 0.f;
}

void reluBwd(float *DX, const float *DY, const float *X, int64_t N) {
  const __m256 Zero = _mm256_setzero_ps();
  int64_t I = 0;
  for (; I + 8 <= N; I += 8) {
    __m256 Mask = _mm256_cmp_ps(_mm256_loadu_ps(X + I), Zero, _CMP_GT_OQ);
    __m256 T = _mm256_and_ps(Mask, _mm256_loadu_ps(DY + I));
    _mm256_storeu_ps(DX + I, _mm256_add_ps(_mm256_loadu_ps(DX + I), T));
  }
  for (; I != N; ++I)
    DX[I] += X[I] > 0.f ? DY[I] : 0.f;
}

//===----------------------------------------------------------------------===//
// Softmax row
//===----------------------------------------------------------------------===//

void softmaxRow(float *Row, int64_t Cols) {
  // Max: float max is exact whatever the order, so this equals the scalar
  // sequential max bit-for-bit.
  float Max = Row[0];
  int64_t I = 1;
  if (Cols >= 9) {
    __m256 VM = _mm256_loadu_ps(Row);
    for (I = 8; I + 8 <= Cols; I += 8)
      VM = _mm256_max_ps(VM, _mm256_loadu_ps(Row + I));
    Max = hmax(VM);
  }
  for (; I < Cols; ++I)
    Max = std::max(Max, Row[I]);

  __m256 VMax = _mm256_set1_ps(Max);
  __m256 VAcc = _mm256_setzero_ps();
  int64_t C = 0;
  for (; C + 8 <= Cols; C += 8) {
    __m256 E = expV(_mm256_sub_ps(_mm256_loadu_ps(Row + C), VMax));
    _mm256_storeu_ps(Row + C, E);
    VAcc = _mm256_add_ps(VAcc, E);
  }
  float Sum = hsum(VAcc);
  for (; C != Cols; ++C) {
    float E = expS(Row[C] - Max);
    Row[C] = E;
    Sum += E;
  }

  __m256 VSum = _mm256_set1_ps(Sum);
  for (C = 0; C + 8 <= Cols; C += 8)
    _mm256_storeu_ps(Row + C, _mm256_div_ps(_mm256_loadu_ps(Row + C), VSum));
  for (; C != Cols; ++C)
    Row[C] /= Sum;
}

constexpr simd::KernelTable Avx2Table = {
    axpyRow,    dot,     gemmSmallN, l1,   l1F16,   l1I8,
    add,        sub,     mul,        scale, mulAcc, sigmoid,
    sigmoidBwd, tanhFwd, tanhBwd,    relu, reluBwd, softmaxRow,
    simd::Isa::Avx2,
};

} // namespace

const simd::KernelTable &simd::avx2Table() { return Avx2Table; }

#endif // TYPILUS_SIMD_AVX2
