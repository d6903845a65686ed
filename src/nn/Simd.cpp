//===- nn/Simd.cpp - Scalar reference table + ISA dispatch --------------------===//

#include "nn/Simd.h"

#include "support/Float16.h"

#include <atomic>
#include <cmath>

using namespace typilus;
using namespace typilus::nn;

//===----------------------------------------------------------------------===//
// Scalar reference kernels
//
// These are the historical nn/Kernels.cpp and knn/TypeMap.cpp inner loops,
// verbatim. They are the determinism reference: the NnTest equivalence
// suite pins the public kernels against naive references *through this
// table*, and the SIMD tables are tolerance-tested against it.
//===----------------------------------------------------------------------===//

namespace {

void scalarAxpyRow(float *Dst, float A, const float *X, int64_t N) {
  for (int64_t I = 0; I != N; ++I)
    Dst[I] += A * X[I];
}

float scalarDot(const float *A, const float *B, int64_t N) {
  float Sum = 0.f;
  for (int64_t I = 0; I != N; ++I)
    Sum += A[I] * B[I];
  return Sum;
}

float scalarL1(const float *A, const float *B, int64_t N) {
  float Sum = 0;
  for (int64_t I = 0; I != N; ++I)
    Sum += std::fabs(A[I] - B[I]);
  return Sum;
}

float scalarL1F16(const float *Q, const uint16_t *Row, int64_t N) {
  float Sum = 0;
  for (int64_t I = 0; I != N; ++I)
    Sum += std::fabs(Q[I] - f16BitsToF32(Row[I]));
  return Sum;
}

float scalarL1I8(const float *Q, const int8_t *Row, float Scale, int64_t N) {
  float Sum = 0;
  for (int64_t I = 0; I != N; ++I)
    Sum += std::fabs(Q[I] - Scale * static_cast<float>(Row[I]));
  return Sum;
}

void scalarAdd(float *Dst, const float *Src, int64_t N) {
  for (int64_t I = 0; I != N; ++I)
    Dst[I] += Src[I];
}

void scalarSub(float *Dst, const float *Src, int64_t N) {
  for (int64_t I = 0; I != N; ++I)
    Dst[I] -= Src[I];
}

void scalarMul(float *Dst, const float *Src, int64_t N) {
  for (int64_t I = 0; I != N; ++I)
    Dst[I] *= Src[I];
}

void scalarScale(float *Dst, float S, int64_t N) {
  for (int64_t I = 0; I != N; ++I)
    Dst[I] *= S;
}

void scalarMulAcc(float *Dst, const float *A, const float *B, int64_t N) {
  for (int64_t I = 0; I != N; ++I)
    Dst[I] += A[I] * B[I];
}

void scalarSigmoid(float *X, int64_t N) {
  for (int64_t I = 0; I != N; ++I)
    X[I] = 1.f / (1.f + std::exp(-X[I]));
}

void scalarSigmoidBwd(float *DX, const float *DY, const float *Y, int64_t N) {
  for (int64_t I = 0; I != N; ++I)
    DX[I] += DY[I] * Y[I] * (1.f - Y[I]);
}

void scalarTanh(float *X, int64_t N) {
  for (int64_t I = 0; I != N; ++I)
    X[I] = std::tanh(X[I]);
}

void scalarTanhBwd(float *DX, const float *DY, const float *Y, int64_t N) {
  for (int64_t I = 0; I != N; ++I)
    DX[I] += DY[I] * (1.f - Y[I] * Y[I]);
}

void scalarRelu(float *X, int64_t N) {
  for (int64_t I = 0; I != N; ++I)
    X[I] = X[I] > 0.f ? X[I] : 0.f;
}

void scalarReluBwd(float *DX, const float *DY, const float *X, int64_t N) {
  for (int64_t I = 0; I != N; ++I)
    DX[I] += X[I] > 0.f ? DY[I] : 0.f;
}

void scalarSoftmaxRow(float *Row, int64_t Cols) {
  float Max = Row[0];
  for (int64_t C = 1; C != Cols; ++C)
    Max = std::max(Max, Row[C]);
  float Sum = 0;
  for (int64_t C = 0; C != Cols; ++C) {
    float E = std::exp(Row[C] - Max);
    Row[C] = E;
    Sum += E;
  }
  for (int64_t C = 0; C != Cols; ++C)
    Row[C] /= Sum;
}

// GemmSmallN is null: the scalar reference keeps GEMM's AxpyRow loop.
constexpr simd::KernelTable ScalarTable = {
    scalarAxpyRow,    scalarDot,        nullptr,       scalarL1,
    scalarL1F16,      scalarL1I8,       scalarAdd,     scalarSub,
    scalarMul,        scalarScale,      scalarMulAcc,  scalarSigmoid,
    scalarSigmoidBwd, scalarTanh,       scalarTanhBwd, scalarRelu,
    scalarReluBwd,    scalarSoftmaxRow, simd::Isa::Scalar,
};

} // namespace

//===----------------------------------------------------------------------===//
// Detection and dispatch state
//===----------------------------------------------------------------------===//

namespace {

/// The best table this build + CPU supports; null when only scalar exists.
const simd::KernelTable *bestSimdTable() {
#ifdef TYPILUS_SIMD_AVX2
  // FMA and F16C ship together with AVX2 on every real core, but the
  // kernels use all three, so gate on all three.
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
      __builtin_cpu_supports("f16c"))
    return &simd::avx2Table();
#endif
#ifdef TYPILUS_SIMD_NEON
  return &simd::neonTable(); // baseline on aarch64, no probe needed
#endif
  return nullptr;
}

std::atomic<const simd::KernelTable *> &activePtr() {
  static std::atomic<const simd::KernelTable *> P{
      bestSimdTable() ? bestSimdTable() : &ScalarTable};
  return P;
}

} // namespace

const simd::KernelTable &simd::active() {
  return *activePtr().load(std::memory_order_acquire);
}

const simd::KernelTable &simd::scalarTable() { return ScalarTable; }

bool simd::simdAvailable() { return bestSimdTable() != nullptr; }

void simd::setSimdEnabled(bool Enabled) {
  const KernelTable *Best = bestSimdTable();
  activePtr().store(Enabled && Best ? Best : &ScalarTable,
                    std::memory_order_release);
}

bool simd::simdEnabled() { return active().WhichIsa != Isa::Scalar; }

simd::Isa simd::activeIsa() { return active().WhichIsa; }

const char *simd::isaName(Isa I) {
  switch (I) {
  case Isa::Scalar:
    return "scalar";
  case Isa::Avx2:
    return "avx2";
  case Isa::Neon:
    return "neon";
  }
  return "scalar";
}
