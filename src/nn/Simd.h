//===- nn/Simd.h - Runtime-dispatched SIMD kernel table -----------*- C++ -*-===//
//
// Part of the Typilus C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime ISA dispatch for the innermost float loops. The public kernels
/// (nn/Kernels.h) and the τmap distance scans (knn/TypeMap.cpp) fetch the
/// process-wide `KernelTable` once per call and run their chunk bodies
/// through it; the table is selected at startup by CPU detection (AVX2+FMA
/// +F16C on x86-64, NEON on aarch64) and can be forced back to scalar with
/// `setSimdEnabled(false)` (the CLI's `--no-simd`).
///
/// Determinism contract (see docs/ARCHITECTURE.md "Execution layer"):
///
///  - The scalar table is the reference: its entries are the historical
///    loops verbatim, so with SIMD off (or unavailable) every result is
///    bit-identical to pre-SIMD builds, for any thread count.
///  - The SIMD tables are validated against the scalar table by tolerance
///    (tests/NnTest.cpp SimdTest). They are still deterministic for any
///    thread count on a given build+CPU: remainder lanes mirror the vector
///    lanes' per-element operation sequence (fmaf for FMA lanes, the same
///    polynomial for exp), so an element's value never depends on where a
///    parallel chunk boundary fell.
///
/// Kernels here are chunk-level: no threading, no dispatch thresholds —
/// callers own both.
///
//===----------------------------------------------------------------------===//

#ifndef TYPILUS_NN_SIMD_H
#define TYPILUS_NN_SIMD_H

#include <cstdint>

namespace typilus {
namespace nn {
namespace simd {

enum class Isa { Scalar, Avx2, Neon };

/// The per-ISA entry points. All pointers are non-null except GemmSmallN.
struct KernelTable {
  /// dst[i] += a * x[i] — the GEMM k-j inner tile and axpyAcc.
  void (*AxpyRow)(float *Dst, float A, const float *X, int64_t N);
  /// Contiguous dot product — the transposed-B GEMM inner loop.
  float (*Dot)(const float *A, const float *B, int64_t N);
  /// Rows [RB, RE) of the non-transposed-B GEMM for narrow C: for each row
  /// i and ascending p, C[i, :] += Alpha * A(i, p) * B[p, :], where
  /// A(i, p) = A[i * Asi + p * Asp], B is [K, N] and C is [*, N], both
  /// row-major. Only called with N <= 32 and N % 8 == 0 (the GGNN's
  /// hidden width), so a C row stays in registers while p streams. Every
  /// element sees the operation sequence of one AxpyRow call per (i, p):
  /// the Alpha * A(i, p) product, the skip when it == 0, then this table's
  /// AxpyRow step. Null when the table has none: GEMM then runs that
  /// AxpyRow loop itself.
  void (*GemmSmallN)(int64_t RB, int64_t RE, int64_t N, int64_t K,
                     float Alpha, const float *A, int64_t Asi, int64_t Asp,
                     const float *B, float *C);

  /// L1 distances against the three τmap marker encodings. The f16 row is
  /// raw binary16 bit patterns; the int8 row decodes as scale * v.
  float (*L1)(const float *A, const float *B, int64_t N);
  float (*L1F16)(const float *Q, const uint16_t *Row, int64_t N);
  float (*L1I8)(const float *Q, const int8_t *Row, float Scale, int64_t N);

  // Fused elementwise bodies (chunk of the nn/Kernels.h kernels).
  void (*Add)(float *Dst, const float *Src, int64_t N);
  void (*Sub)(float *Dst, const float *Src, int64_t N);
  void (*Mul)(float *Dst, const float *Src, int64_t N);
  void (*Scale)(float *Dst, float S, int64_t N);
  void (*MulAcc)(float *Dst, const float *A, const float *B, int64_t N);
  void (*Sigmoid)(float *X, int64_t N);
  void (*SigmoidBwd)(float *DX, const float *DY, const float *Y, int64_t N);
  void (*Tanh)(float *X, int64_t N);
  void (*TanhBwd)(float *DX, const float *DY, const float *Y, int64_t N);
  void (*Relu)(float *X, int64_t N);
  void (*ReluBwd)(float *DX, const float *DY, const float *X, int64_t N);

  /// One row of softmaxRowsInPlace: max-shift, exp, normalize.
  void (*SoftmaxRow)(float *Row, int64_t Cols);

  Isa WhichIsa = Isa::Scalar;
};

/// The table kernels currently dispatch through. Either the best
/// SIMD-capable table for this CPU or the scalar reference.
const KernelTable &active();

/// The scalar reference table (always available; what `--no-simd` pins).
const KernelTable &scalarTable();

/// True when a SIMD table exists for this build and CPU.
bool simdAvailable();

/// Routes active() to the SIMD table (true) or the scalar reference
/// (false). Enabling is a no-op when simdAvailable() is false. Thread-safe
/// but intended for startup (the CLI flag), not mid-computation flips.
void setSimdEnabled(bool Enabled);
bool simdEnabled();

Isa activeIsa();
const char *isaName(Isa I);

// Per-ISA table factories. Only defined when the matching translation
// unit is in the build (TYPILUS_SIMD_AVX2 / TYPILUS_SIMD_NEON); resolved
// through the detection logic in Simd.cpp, never called directly.
const KernelTable &avx2Table();
const KernelTable &neonTable();

} // namespace simd
} // namespace nn
} // namespace typilus

#endif // TYPILUS_NN_SIMD_H
