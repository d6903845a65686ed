//===- tests/NnTest.cpp - autograd gradient checks & layer tests -------------===//
//
// Property tests: every autograd op is validated against central finite
// differences; layers and the optimizer are checked on toy problems.
//
//===----------------------------------------------------------------------===//

#include "nn/Autograd.h"
#include "nn/Layers.h"
#include "nn/Optim.h"
#include "nn/Simd.h"
#include "support/Float16.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

using namespace typilus;
using namespace typilus::nn;

namespace {

/// Pins the kernel dispatch to one table for a test's lifetime and
/// restores the startup selection afterwards.
struct SimdGuard {
  explicit SimdGuard(bool Enabled) : Was(simd::simdEnabled()) {
    simd::setSimdEnabled(Enabled);
  }
  ~SimdGuard() { simd::setSimdEnabled(Was); }
  bool Was;
};

/// Fills \p T with values away from kinks (|x| >= 0.1) so relu/abs/max
/// gradients are stable under finite differences.
Tensor randomAwayFromKinks(int64_t Rows, int64_t Cols, Rng &R) {
  Tensor T = Cols > 0 ? Tensor(Rows, Cols) : Tensor(Rows);
  for (int64_t I = 0; I != T.numel(); ++I) {
    float V = static_cast<float>(R.normal());
    if (std::fabs(V) < 0.1f)
      V = V < 0 ? V - 0.15f : V + 0.15f;
    T[I] = V;
  }
  return T;
}

/// Checks d(F(P))/dP against central differences for every coordinate.
void checkGrad(const std::function<Value(Value)> &F, const Tensor &T0,
               float RelTol = 5e-2f) {
  Value P = Value::param(T0);
  Value Loss = F(P);
  ASSERT_EQ(Loss.val().numel(), 1);
  backward(Loss);
  Tensor Analytic = P.grad();

  const float Eps = 1e-2f;
  for (int64_t I = 0; I != T0.numel(); ++I) {
    Tensor TP = T0, TM = T0;
    TP[I] += Eps;
    TM[I] -= Eps;
    float LP = F(Value::param(TP)).val()[0];
    float LM = F(Value::param(TM)).val()[0];
    float Numeric = (LP - LM) / (2 * Eps);
    float Tol = RelTol * std::max(1.f, std::fabs(Numeric));
    EXPECT_NEAR(Analytic[I], Numeric, Tol)
        << "coordinate " << I << " of " << T0.numel();
  }
}

/// Reduces an arbitrary-shaped output to a scalar through a fixed random
/// projection so gradcheck exercises all coordinates.
std::function<Value(Value)> scalarized(std::function<Value(Value)> F,
                                       const Tensor &ProbeShape, Rng &R) {
  Value Out = F(Value::param(ProbeShape));
  Tensor W = Tensor::zerosLike(Out.val());
  for (int64_t I = 0; I != W.numel(); ++I)
    W[I] = static_cast<float>(R.normal());
  return [F = std::move(F), W = std::move(W)](Value P) {
    return meanAll(mul(F(P), Value::constant(W)));
  };
}

} // namespace

//===----------------------------------------------------------------------===//
// Elementwise and linear-algebra ops
//===----------------------------------------------------------------------===//

TEST(GradCheck, AddSameShape) {
  Rng R(1);
  Tensor A = randomAwayFromKinks(3, 4, R);
  Tensor B = randomAwayFromKinks(3, 4, R);
  checkGrad(scalarized(
                [&](Value P) { return add(P, Value::constant(B)); }, A, R),
            A);
  // And through the second operand.
  checkGrad(scalarized(
                [&](Value P) { return add(Value::constant(A), P); }, B, R),
            B);
}

TEST(GradCheck, AddBiasBroadcast) {
  Rng R(2);
  Tensor A = randomAwayFromKinks(3, 4, R);
  Tensor Bias = randomAwayFromKinks(4, 0, R);
  checkGrad(scalarized(
                [&](Value P) { return add(Value::constant(A), P); }, Bias, R),
            Bias);
}

TEST(GradCheck, SubAndMul) {
  Rng R(3);
  Tensor A = randomAwayFromKinks(2, 5, R);
  Tensor B = randomAwayFromKinks(2, 5, R);
  checkGrad(scalarized(
                [&](Value P) { return sub(P, Value::constant(B)); }, A, R),
            A);
  checkGrad(scalarized(
                [&](Value P) { return mul(P, Value::constant(B)); }, A, R),
            A);
  checkGrad(scalarized(
                [&](Value P) { return mul(Value::constant(A), P); }, B, R),
            B);
}

TEST(GradCheck, Scale) {
  Rng R(4);
  Tensor A = randomAwayFromKinks(3, 3, R);
  checkGrad(scalarized([](Value P) { return scale(P, -2.5f); }, A, R), A);
}

TEST(GradCheck, MatmulBothSides) {
  Rng R(5);
  Tensor A = randomAwayFromKinks(3, 4, R);
  Tensor B = randomAwayFromKinks(4, 2, R);
  checkGrad(scalarized(
                [&](Value P) { return matmul(P, Value::constant(B)); }, A, R),
            A);
  checkGrad(scalarized(
                [&](Value P) { return matmul(Value::constant(A), P); }, B, R),
            B);
}

TEST(GradCheck, MatmulNTBothSides) {
  Rng R(6);
  Tensor A = randomAwayFromKinks(3, 4, R);
  Tensor B = randomAwayFromKinks(5, 4, R); // used transposed
  checkGrad(scalarized(
                [&](Value P) { return matmulNT(P, Value::constant(B)); }, A,
                R),
            A);
  checkGrad(scalarized(
                [&](Value P) { return matmulNT(Value::constant(A), P); }, B,
                R),
            B);
}

TEST(GradCheck, Activations) {
  Rng R(7);
  Tensor A = randomAwayFromKinks(4, 3, R);
  checkGrad(scalarized([](Value P) { return sigmoid(P); }, A, R), A);
  checkGrad(scalarized([](Value P) { return tanhOp(P); }, A, R), A);
  checkGrad(scalarized([](Value P) { return relu(P); }, A, R), A);
}

TEST(GradCheck, ConcatCols) {
  Rng R(8);
  Tensor A = randomAwayFromKinks(3, 2, R);
  Tensor B = randomAwayFromKinks(3, 4, R);
  checkGrad(scalarized(
                [&](Value P) { return concatCols(P, Value::constant(B)); }, A,
                R),
            A);
  checkGrad(scalarized(
                [&](Value P) { return concatCols(Value::constant(A), P); }, B,
                R),
            B);
}

//===----------------------------------------------------------------------===//
// Gather / scatter ops
//===----------------------------------------------------------------------===//

TEST(GradCheck, GatherRowsWithRepeats) {
  Rng R(9);
  Tensor A = randomAwayFromKinks(4, 3, R);
  std::vector<int> Idx{2, 0, 2, 3, 2};
  checkGrad(scalarized([&](Value P) { return gatherRows(P, Idx); }, A, R), A);
}

TEST(GradCheck, ScatterMax) {
  Rng R(10);
  Tensor Msgs = randomAwayFromKinks(6, 3, R);
  std::vector<int> Dst{0, 1, 1, 2, 0, 2};
  checkGrad(scalarized(
                [&](Value P) { return scatterMax(P, Dst, 4); }, Msgs, R),
            Msgs);
}

TEST(GradCheck, ScatterMean) {
  Rng R(11);
  Tensor Msgs = randomAwayFromKinks(5, 2, R);
  std::vector<int> Dst{0, 0, 2, 2, 2};
  checkGrad(scalarized(
                [&](Value P) { return scatterMean(P, Dst, 3); }, Msgs, R),
            Msgs);
}

TEST(GradCheck, IndexAddRows) {
  Rng R(12);
  Tensor Base = randomAwayFromKinks(4, 3, R);
  Tensor Rows = randomAwayFromKinks(3, 3, R);
  std::vector<int> Idx{1, 3, 1};
  checkGrad(scalarized(
                [&](Value P) {
                  return indexAddRows(P, Idx, Value::constant(Rows));
                },
                Base, R),
            Base);
  checkGrad(scalarized(
                [&](Value P) {
                  return indexAddRows(Value::constant(Base), Idx, P);
                },
                Rows, R),
            Rows);
}

TEST(GradCheck, ReduceMaxRows) {
  Rng R(13);
  Tensor A = randomAwayFromKinks(5, 4, R);
  checkGrad(scalarized([](Value P) { return reduceMaxRows(P); }, A, R), A);
}

TEST(GradCheck, MeanAll) {
  Rng R(14);
  Tensor A = randomAwayFromKinks(3, 7, R);
  checkGrad([](Value P) { return meanAll(P); }, A);
}

//===----------------------------------------------------------------------===//
// Losses
//===----------------------------------------------------------------------===//

TEST(GradCheck, SoftmaxCrossEntropy) {
  Rng R(15);
  Tensor Logits = randomAwayFromKinks(4, 3, R);
  std::vector<int> Labels{0, 2, -1, 1}; // one ignored row
  checkGrad([&](Value P) { return softmaxCrossEntropy(P, Labels); }, Logits);
}

TEST(GradCheck, PairwiseL1) {
  Rng R(16);
  Tensor A = randomAwayFromKinks(4, 3, R);
  checkGrad(scalarized([](Value P) { return pairwiseL1(P); }, A, R), A,
            8e-2f);
}

TEST(GradCheck, SpaceLossThroughEmbeddings) {
  Rng R(17);
  Tensor A = randomAwayFromKinks(6, 3, R);
  std::vector<int> Types{0, 0, 1, 1, 2, 0};
  checkGrad(
      [&](Value P) { return spaceLoss(pairwiseL1(P), Types, 0.5f); }, A,
      8e-2f);
}

TEST(SpaceLossTest, ZeroWhenNoValidSamples) {
  // A single labeled point has no same-type partner: loss must be 0.
  Tensor A(2, 3);
  A.fill(1.f);
  A.at(1, 0) = 3.f;
  std::vector<int> Types{0, 1};
  Value L = spaceLoss(pairwiseL1(Value::param(A)), Types, 1.f);
  EXPECT_FLOAT_EQ(L.val()[0], 0.f);
}

TEST(SpaceLossTest, PullsSameTypePointsTogether) {
  // Two same-type points far apart, one different point nearby: the loss
  // must be positive (P+ non-empty with larger distance than d-min - m).
  Tensor A(3, 2);
  A.at(0, 0) = 0.f;
  A.at(1, 0) = 10.f; // same type as row 0, far away
  A.at(2, 0) = 1.f;  // different type, close to row 0
  std::vector<int> Types{0, 0, 1};
  Value L = spaceLoss(pairwiseL1(Value::constant(A)), Types, 1.f);
  EXPECT_GT(L.val()[0], 0.f);
}

TEST(SoftmaxTest, RowsSumToOne) {
  Rng R(18);
  Tensor Logits = randomAwayFromKinks(5, 7, R);
  Tensor P = softmaxRows(Logits);
  for (int64_t I = 0; I != P.rows(); ++I) {
    float Sum = 0;
    for (int64_t J = 0; J != P.cols(); ++J) {
      Sum += P.at(I, J);
      EXPECT_GE(P.at(I, J), 0.f);
    }
    EXPECT_NEAR(Sum, 1.f, 1e-5f);
  }
}

//===----------------------------------------------------------------------===//
// Layers
//===----------------------------------------------------------------------===//

TEST(GradCheck, GruCellStep) {
  Rng R(19);
  ParamSet PS;
  GruCell Cell(3, 4, PS, R);
  Tensor X0 = randomAwayFromKinks(2, 3, R);
  Tensor H0 = randomAwayFromKinks(2, 4, R);
  checkGrad(scalarized(
                [&](Value P) {
                  return Cell.step(P, Value::constant(H0));
                },
                X0, R),
            X0, 8e-2f);
  checkGrad(scalarized(
                [&](Value P) {
                  return Cell.step(Value::constant(X0), P);
                },
                H0, R),
            H0, 8e-2f);
}

TEST(LayersTest, LinearShapes) {
  Rng R(20);
  ParamSet PS;
  Linear L(5, 3, PS, R);
  Value Out = L.apply(Value::constant(Tensor(4, 5)));
  EXPECT_EQ(Out.val().rows(), 4);
  EXPECT_EQ(Out.val().cols(), 3);
  EXPECT_EQ(PS.params().size(), 2u);
}

TEST(LayersTest, EmbeddingLooksUpRows) {
  Rng R(21);
  ParamSet PS;
  Embedding E(10, 4, PS, R);
  Value Out = E.rows({3, 3, 7});
  EXPECT_EQ(Out.val().rows(), 3);
  for (int64_t J = 0; J != 4; ++J)
    EXPECT_FLOAT_EQ(Out.val().at(0, J), Out.val().at(1, J));
}

TEST(LayersTest, CharCnnEncodesWords) {
  Rng R(22);
  ParamSet PS;
  CharCnn C(8, 16, PS, R);
  Value A = C.encode("loss");
  Value B = C.encode("");
  EXPECT_EQ(A.val().rows(), 1);
  EXPECT_EQ(A.val().cols(), 16);
  EXPECT_EQ(B.val().cols(), 16);
  for (int64_t I = 0; I != A.val().numel(); ++I)
    EXPECT_TRUE(std::isfinite(A.val()[I]));
}

TEST(LayersTest, CharCnnGradientsFlow) {
  Rng R(23);
  ParamSet PS;
  CharCnn C(4, 6, PS, R);
  Value Loss = meanAll(C.encode("abc"));
  backward(Loss);
  // At least one parameter received gradient signal.
  double Total = 0;
  for (const Value &P : PS.params()) {
    const Tensor &G = P.grad();
    for (int64_t I = 0; I != G.numel(); ++I)
      Total += std::fabs(G[I]);
  }
  EXPECT_GT(Total, 0.0);
}

//===----------------------------------------------------------------------===//
// Optimizer
//===----------------------------------------------------------------------===//

TEST(AdamTest, SolvesLeastSquares) {
  Rng R(24);
  ParamSet PS;
  // Fit y = x * Wtrue with a linear model.
  Tensor WTrue = Tensor::randn(3, 2, R, 1.f);
  Tensor X = Tensor::randn(16, 3, R, 1.f);
  Tensor Y(16, 2);
  gemm(false, false, 16, 2, 3, 1.f, X.data(), WTrue.data(), 0.f, Y.data());

  Value W = PS.make(Tensor::randn(3, 2, R, 0.5f));
  Adam Opt(PS, 5e-2f);
  float FirstLoss = -1, LastLoss = -1;
  for (int Step = 0; Step != 300; ++Step) {
    Value Pred = matmul(Value::constant(X), W);
    Value Diff = sub(Pred, Value::constant(Y));
    Value Loss = meanAll(mul(Diff, Diff));
    if (Step == 0)
      FirstLoss = Loss.val()[0];
    LastLoss = Loss.val()[0];
    PS.zeroGrads();
    backward(Loss);
    Opt.step();
  }
  EXPECT_LT(LastLoss, FirstLoss * 0.01f);
}

TEST(AdamTest, GradientsAreZeroedAfterStep) {
  Rng R(25);
  ParamSet PS;
  Value W = PS.make(Tensor::randn(2, 2, R, 1.f));
  Adam Opt(PS, 1e-3f);
  Value Loss = meanAll(mul(W, W));
  backward(Loss);
  Opt.step();
  const Tensor &G = W.grad();
  for (int64_t I = 0; I != G.numel(); ++I)
    EXPECT_FLOAT_EQ(G[I], 0.f);
}

TEST(AdamTest, ClippingBoundsUpdateMagnitude) {
  Rng R(26);
  ParamSet PS;
  Value W = PS.make(Tensor::randn(4, 4, R, 1.f));
  Tensor Before = W.val();
  Adam Opt(PS, 1e-1f, /*ClipNorm=*/1e-3f);
  Value Loss = scale(meanAll(mul(W, W)), 1e6f); // huge gradients
  backward(Loss);
  Opt.step();
  // Adam's per-coordinate step is bounded by ~Lr regardless, but clipping
  // must additionally have kept things finite.
  for (int64_t I = 0; I != W.val().numel(); ++I) {
    EXPECT_TRUE(std::isfinite(W.val()[I]));
    EXPECT_NEAR(W.val()[I], Before[I], 0.2f);
  }
}

//===----------------------------------------------------------------------===//
// Backward-pass plumbing
//===----------------------------------------------------------------------===//

TEST(BackwardTest, DiamondDependencyAccumulates) {
  // L = mean((P + P) * P) — P participates through multiple paths.
  Tensor T(2, 2);
  T.at(0, 0) = 1;
  T.at(0, 1) = 2;
  T.at(1, 0) = 3;
  T.at(1, 1) = 4;
  checkGrad([](Value P) { return meanAll(mul(add(P, P), P)); }, T);
}

TEST(BackwardTest, ConstantsReceiveNoGradient) {
  Value C = Value::constant(Tensor(2, 2));
  Rng R(27);
  Value P = Value::param(Tensor::randn(2, 2, R, 1.f));
  Value L = meanAll(mul(add(C, P), P));
  backward(L);
  EXPECT_FALSE(C.needsGrad());
}

TEST(BackwardTest, DeepChainStaysFinite) {
  // A 200-step chain (like an unrolled RNN) must not blow the stack or
  // produce NaNs thanks to iterative topo sort.
  Rng R(28);
  Value X = Value::param(Tensor::randn(1, 8, R, 0.1f));
  Value H = X;
  for (int I = 0; I != 200; ++I)
    H = tanhOp(scale(H, 1.01f));
  Value L = meanAll(H);
  backward(L);
  const Tensor &G = X.grad();
  for (int64_t I = 0; I != G.numel(); ++I)
    EXPECT_TRUE(std::isfinite(G[I]));
}

TEST(GradCheck, ConcatRows) {
  Rng R(29);
  Tensor A = randomAwayFromKinks(2, 3, R);
  Tensor B = randomAwayFromKinks(3, 3, R);
  checkGrad(scalarized(
                [&](Value P) {
                  return concatRows({P, Value::constant(B)});
                },
                A, R),
            A);
  checkGrad(scalarized(
                [&](Value P) {
                  return concatRows({Value::constant(A), P});
                },
                B, R),
            B);
}

TEST(GradCheck, AttentionPoolBothInputs) {
  Rng R(30);
  Tensor S = randomAwayFromKinks(4, 1, R);
  Tensor Rows = randomAwayFromKinks(4, 3, R);
  checkGrad(scalarized(
                [&](Value P) {
                  return attentionPool(P, Value::constant(Rows));
                },
                S, R),
            S, 8e-2f);
  checkGrad(scalarized(
                [&](Value P) {
                  return attentionPool(Value::constant(S), P);
                },
                Rows, R),
            Rows, 8e-2f);
}

TEST(AttentionPoolTest, UniformScoresAverageRows) {
  Tensor S(3, 1); // all-equal scores -> plain mean
  Tensor Rows(3, 2);
  Rows.at(0, 0) = 3.f;
  Rows.at(1, 0) = 6.f;
  Rows.at(2, 0) = 9.f;
  Value Out = attentionPool(Value::constant(S), Value::constant(Rows));
  EXPECT_NEAR(Out.val().at(0, 0), 6.f, 1e-5f);
}

//===----------------------------------------------------------------------===//
// Kernel determinism: the blocked/parallel kernels must be bit-identical
// to naive references for every thread count (the execution layer's
// core guarantee; see docs/ARCHITECTURE.md).
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

namespace {

/// The seed's naive GEMM, kept verbatim as the bit-level reference.
void naiveGemm(bool TransA, bool TransB, int64_t M, int64_t N, int64_t K,
               float Alpha, const float *A, const float *B, float Beta,
               float *C) {
  if (Beta == 0.f)
    std::fill(C, C + M * N, 0.f);
  else if (Beta != 1.f)
    for (int64_t I = 0; I != M * N; ++I)
      C[I] *= Beta;
  const int64_t Lda = TransA ? M : K;
  const int64_t Ldb = TransB ? K : N;
  for (int64_t I = 0; I != M; ++I)
    for (int64_t J = 0; J != N; ++J) {
      // Per-element k-ascending accumulation in the i-k-j kernel's order.
      for (int64_t P = 0; P != K; ++P) {
        float AV = TransA ? A[P * Lda + I] : A[I * Lda + P];
        float BV = TransB ? B[J * Ldb + P] : B[P * Ldb + J];
        if (TransB)
          continue; // dot-product cases handled below
        float AIP = Alpha * AV;
        if (AIP == 0.f)
          continue;
        C[I * N + J] += AIP * BV;
      }
      if (TransB) {
        float Sum = 0.f;
        for (int64_t P = 0; P != K; ++P) {
          float AV = TransA ? A[P * Lda + I] : A[I * Lda + P];
          Sum += AV * B[J * Ldb + P];
        }
        C[I * N + J] += Alpha * Sum;
      }
    }
}

Tensor randomTensor(int64_t Rows, int64_t Cols, Rng &R) {
  Tensor T(Rows, Cols);
  for (int64_t I = 0; I != T.numel(); ++I)
    T[I] = static_cast<float>(R.normal());
  return T;
}

} // namespace

TEST(KernelTest, GemmBitIdenticalToNaiveAllTransposes) {
  // Bit-identity to the naive kernel is the *scalar reference's* contract
  // (the SIMD tables reassociate through FMA and are tolerance-tested by
  // SimdTest below); pin the scalar table for this test.
  SimdGuard Scalar(false);
  Rng R(41);
  const int64_t M = 37, N = 29, K = 53; // odd sizes stress the tiling
  for (bool TA : {false, true})
    for (bool TB : {false, true}) {
      Tensor A = TA ? randomTensor(K, M, R) : randomTensor(M, K, R);
      Tensor B = TB ? randomTensor(N, K, R) : randomTensor(K, N, R);
      Tensor Want(M, N), Got(M, N);
      for (int64_t I = 0; I != Want.numel(); ++I)
        Want[I] = Got[I] = static_cast<float>(R.normal());
      naiveGemm(TA, TB, M, N, K, 1.5f, A.data(), B.data(), 1.f, Want.data());
      for (int Threads : {1, 4}) {
        Tensor Out = Got;
        setGlobalNumThreads(Threads);
        gemm(TA, TB, M, N, K, 1.5f, A.data(), B.data(), 1.f, Out.data());
        for (int64_t I = 0; I != Out.numel(); ++I)
          EXPECT_EQ(Out[I], Want[I])
              << "TA=" << TA << " TB=" << TB << " threads=" << Threads
              << " elem " << I;
      }
    }
  setGlobalNumThreads(0);
}

TEST(KernelTest, MatmulForwardBackwardBitIdenticalAcrossThreads) {
  // Large enough to cross the parallel-dispatch thresholds.
  Rng R(42);
  Tensor A0 = randomTensor(96, 64, R);
  Tensor B0 = randomTensor(64, 80, R);
  Tensor BT0 = randomTensor(80, 64, R); // for matmulNT
  auto Run = [&](int Threads) {
    setGlobalNumThreads(Threads);
    Value A = Value::param(A0), B = Value::param(B0), BT = Value::param(BT0);
    Value Out = matmul(A, B);
    Value OutNT = matmulNT(A, BT);
    Value Loss = meanAll(add(mul(Out, Out), mul(OutNT, OutNT)));
    backward(Loss);
    return std::make_tuple(Out.val(), OutNT.val(), A.grad(), B.grad(),
                           BT.grad(), Loss.val()[0]);
  };
  auto Serial = Run(1);
  auto Parallel = Run(4);
  setGlobalNumThreads(0);
  EXPECT_EQ(std::get<5>(Serial), std::get<5>(Parallel)) << "loss diverged";
  auto ExpectSame = [](const Tensor &X, const Tensor &Y, const char *What) {
    ASSERT_EQ(X.numel(), Y.numel());
    for (int64_t I = 0; I != X.numel(); ++I)
      ASSERT_EQ(X[I], Y[I]) << What << " elem " << I;
  };
  ExpectSame(std::get<0>(Serial), std::get<0>(Parallel), "matmul fwd");
  ExpectSame(std::get<1>(Serial), std::get<1>(Parallel), "matmulNT fwd");
  ExpectSame(std::get<2>(Serial), std::get<2>(Parallel), "dA");
  ExpectSame(std::get<3>(Serial), std::get<3>(Parallel), "dB");
  ExpectSame(std::get<4>(Serial), std::get<4>(Parallel), "dBT");
}

TEST(KernelTest, ElementwiseAndLossOpsBitIdenticalAcrossThreads) {
  Rng R(43);
  Tensor X0 = randomTensor(128, 160, R); // > ElementwiseGrain elements
  std::vector<int> Types(128);
  for (size_t I = 0; I != Types.size(); ++I)
    Types[I] = static_cast<int>(I % 5);
  auto Run = [&](int Threads) {
    setGlobalNumThreads(Threads);
    Value X = Value::param(X0);
    Value H = tanhOp(sigmoid(relu(X)));
    Value Loss = add(spaceLoss(pairwiseL1(H), Types, 1.f),
                     meanAll(mul(H, H)));
    backward(Loss);
    return std::make_pair(Loss.val()[0], X.grad());
  };
  auto Serial = Run(1);
  auto Parallel = Run(4);
  setGlobalNumThreads(0);
  EXPECT_EQ(Serial.first, Parallel.first);
  ASSERT_EQ(Serial.second.numel(), Parallel.second.numel());
  for (int64_t I = 0; I != Serial.second.numel(); ++I)
    ASSERT_EQ(Serial.second[I], Parallel.second[I]) << "grad elem " << I;
}

TEST(KernelTest, CharCnnBatchMatchesPerWordEncode) {
  Rng R(44);
  ParamSet PS;
  CharCnn C(8, 16, PS, R);
  std::vector<std::string> Words{"loss", "x", "", "gradient", "loss2"};
  Value Batched = C.encodeBatch(Words);
  ASSERT_EQ(Batched.val().rows(), static_cast<int64_t>(Words.size()));
  for (size_t W = 0; W != Words.size(); ++W) {
    Value One = C.encode(Words[W]);
    for (int64_t J = 0; J != One.val().cols(); ++J)
      EXPECT_EQ(Batched.val().at(static_cast<int64_t>(W), J),
                One.val().at(0, J))
          << "word " << W << " dim " << J;
  }
}

//===----------------------------------------------------------------------===//
// SIMD-vs-scalar tolerance suite
//
// The scalar table is the reference (pinned bit-identical above); the
// SIMD table may reassociate reductions and use FMA / polynomial exp, so
// each kernel gets an explicit error budget: results must agree within
// MaxUlp units-in-the-last-place OR an absolute epsilon (the epsilon
// covers well-conditioned cancellation, e.g. tanh near zero). Sizes sweep
// through every dispatch width: sub-vector, exact multiples, and
// remainder lanes of both the 8-wide AVX2 and 4-wide NEON paths.
//===----------------------------------------------------------------------===//

namespace {

int64_t ulpDiff(float A, float B) {
  if (A == B)
    return 0;
  int32_t IA, IB;
  std::memcpy(&IA, &A, 4);
  std::memcpy(&IB, &B, 4);
  // Map the sign-magnitude float encoding onto a monotonic integer line.
  if (IA < 0)
    IA = std::numeric_limits<int32_t>::min() - IA;
  if (IB < 0)
    IB = std::numeric_limits<int32_t>::min() - IB;
  return std::llabs(static_cast<int64_t>(IA) - static_cast<int64_t>(IB));
}

void expectClose(float Got, float Want, int64_t MaxUlp, float Atol,
                 const char *What, int64_t N, int64_t I) {
  if (std::fabs(Got - Want) <= Atol)
    return;
  EXPECT_LE(ulpDiff(Got, Want), MaxUlp)
      << What << " N=" << N << " elem " << I << ": got " << Got << " want "
      << Want;
}

/// The dispatch widths under test: around the 4- and 8-lane boundaries,
/// plus chunk-sized runs.
const std::vector<int64_t> &simdSizes() {
  static const std::vector<int64_t> S{1,  2,  3,  4,  5,  7,   8,   9,
                                      15, 16, 17, 31, 32, 33,  63,  64,
                                      65, 100, 255, 1000};
  return S;
}

std::vector<float> randomVec(int64_t N, Rng &R, float Scale = 1.f) {
  std::vector<float> V(static_cast<size_t>(N));
  for (float &X : V)
    X = Scale * static_cast<float>(R.normal());
  return V;
}

class SimdTest : public ::testing::Test {
protected:
  void SetUp() override {
    if (!simd::simdAvailable())
      GTEST_SKIP() << "no SIMD table in this build/CPU";
  }
  const simd::KernelTable &S = simd::scalarTable();
  const simd::KernelTable &V = simd::active(); // probe-selected table
};

} // namespace

TEST_F(SimdTest, ElementwiseKernelsBitIdenticalToScalar) {
  // These kernels use the scalar per-element operation sequence inside
  // the vector lanes (mul then add, compare-and-mask), so the budget is
  // exactly zero ulp.
  Rng R(71);
  for (int64_t N : simdSizes()) {
    auto A = randomVec(N, R), B = randomVec(N, R);
    auto D1 = randomVec(N, R);
    auto D2 = D1;
    auto Check = [&](const char *What) {
      for (int64_t I = 0; I != N; ++I)
        EXPECT_EQ(D1[static_cast<size_t>(I)], D2[static_cast<size_t>(I)])
            << What << " N=" << N << " elem " << I;
    };
    S.Add(D1.data(), A.data(), N);
    V.Add(D2.data(), A.data(), N);
    Check("add");
    S.Sub(D1.data(), A.data(), N);
    V.Sub(D2.data(), A.data(), N);
    Check("sub");
    S.Mul(D1.data(), A.data(), N);
    V.Mul(D2.data(), A.data(), N);
    Check("mul");
    S.Scale(D1.data(), 1.25f, N);
    V.Scale(D2.data(), 1.25f, N);
    Check("scale");
    S.MulAcc(D1.data(), A.data(), B.data(), N);
    V.MulAcc(D2.data(), A.data(), B.data(), N);
    Check("mulAcc");
    S.Relu(D1.data(), N);
    V.Relu(D2.data(), N);
    Check("relu");
    S.ReluBwd(D1.data(), A.data(), B.data(), N);
    V.ReluBwd(D2.data(), A.data(), B.data(), N);
    Check("reluBwd");
    S.SigmoidBwd(D1.data(), A.data(), B.data(), N);
    V.SigmoidBwd(D2.data(), A.data(), B.data(), N);
    Check("sigmoidBwd");
    S.TanhBwd(D1.data(), A.data(), B.data(), N);
    V.TanhBwd(D2.data(), A.data(), B.data(), N);
    Check("tanhBwd");
  }
}

TEST_F(SimdTest, AxpyRowWithinOneFmaRounding) {
  // FMA skips one rounding of the product; near-cancelling dst + a*x can
  // turn that into many ulp of a tiny result, so the budget is one fused
  // rounding in absolute terms with a tight ulp bound elsewhere.
  Rng R(72);
  for (int64_t N : simdSizes()) {
    auto X = randomVec(N, R);
    auto D1 = randomVec(N, R);
    auto D2 = D1;
    S.AxpyRow(D1.data(), 0.7f, X.data(), N);
    V.AxpyRow(D2.data(), 0.7f, X.data(), N);
    for (int64_t I = 0; I != N; ++I)
      expectClose(D2[static_cast<size_t>(I)], D1[static_cast<size_t>(I)],
                  /*MaxUlp=*/4, /*Atol=*/1e-6f, "axpyRow", N, I);
  }
}

TEST_F(SimdTest, ReductionsWithinBudget) {
  Rng R(73);
  for (int64_t N : simdSizes()) {
    auto A = randomVec(N, R), B = randomVec(N, R);
    expectClose(V.Dot(A.data(), B.data(), N), S.Dot(A.data(), B.data(), N),
                /*MaxUlp=*/256, /*Atol=*/1e-3f, "dot", N, -1);
    expectClose(V.L1(A.data(), B.data(), N), S.L1(A.data(), B.data(), N),
                /*MaxUlp=*/64, /*Atol=*/1e-4f, "l1", N, -1);
  }
}

TEST_F(SimdTest, QuantizedRowDistancesMatchScalarDecode) {
  Rng R(74);
  for (int64_t N : simdSizes()) {
    auto Q = randomVec(N, R);
    auto Src = randomVec(N, R);
    std::vector<uint16_t> H(static_cast<size_t>(N));
    std::vector<int8_t> I8(static_cast<size_t>(N));
    float MaxAbs = 0.f;
    for (int64_t I = 0; I != N; ++I)
      MaxAbs = std::max(MaxAbs, std::fabs(Src[static_cast<size_t>(I)]));
    float Scale = MaxAbs / 127.f;
    for (int64_t I = 0; I != N; ++I) {
      H[static_cast<size_t>(I)] = f32ToF16Bits(Src[static_cast<size_t>(I)]);
      long Ticks = std::lround(Src[static_cast<size_t>(I)] / Scale);
      I8[static_cast<size_t>(I)] = static_cast<int8_t>(
          std::max(-127l, std::min(127l, Ticks)));
    }
    // Decode is exact on both sides, so only summation order differs.
    expectClose(V.L1F16(Q.data(), H.data(), N),
                S.L1F16(Q.data(), H.data(), N),
                /*MaxUlp=*/64, /*Atol=*/1e-4f, "l1f16", N, -1);
    expectClose(V.L1I8(Q.data(), I8.data(), Scale, N),
                S.L1I8(Q.data(), I8.data(), Scale, N),
                /*MaxUlp=*/64, /*Atol=*/1e-4f, "l1i8", N, -1);
  }
}

TEST_F(SimdTest, ActivationsWithinBudget) {
  Rng R(75);
  for (int64_t N : simdSizes()) {
    // 4x-scaled inputs reach the saturating tails of both activations.
    auto X = randomVec(N, R, 4.f);
    auto X1 = X, X2 = X;
    S.Sigmoid(X1.data(), N);
    V.Sigmoid(X2.data(), N);
    for (int64_t I = 0; I != N; ++I)
      expectClose(X2[static_cast<size_t>(I)], X1[static_cast<size_t>(I)],
                  /*MaxUlp=*/256, /*Atol=*/1e-5f, "sigmoid", N, I);
    X1 = X;
    X2 = X;
    S.Tanh(X1.data(), N);
    V.Tanh(X2.data(), N);
    for (int64_t I = 0; I != N; ++I)
      expectClose(X2[static_cast<size_t>(I)], X1[static_cast<size_t>(I)],
                  /*MaxUlp=*/512, /*Atol=*/1e-5f, "tanh", N, I);
  }
}

TEST_F(SimdTest, SoftmaxRowWithinBudgetAndNormalized) {
  Rng R(76);
  for (int64_t N : simdSizes()) {
    auto X = randomVec(N, R, 3.f);
    auto X1 = X, X2 = X;
    S.SoftmaxRow(X1.data(), N);
    V.SoftmaxRow(X2.data(), N);
    double Sum = 0;
    for (int64_t I = 0; I != N; ++I) {
      expectClose(X2[static_cast<size_t>(I)], X1[static_cast<size_t>(I)],
                  /*MaxUlp=*/256, /*Atol=*/1e-5f, "softmaxRow", N, I);
      Sum += X2[static_cast<size_t>(I)];
    }
    EXPECT_NEAR(Sum, 1.0, 1e-4) << "softmax row must stay normalized, N=" << N;
  }
}

TEST_F(SimdTest, SimdPathIsThreadCountDeterministic) {
  // The SIMD contract is weaker than the scalar one only in *which* bits:
  // for a fixed build+CPU the result must still not depend on the thread
  // count. Remainder lanes mirror the vector lanes' operation sequence,
  // so chunk boundaries (which move with the pool size) cannot show
  // through. Exercised at the public-kernel level where chunking lives.
  Rng R(77);
  const int64_t N = 64 * 1024; // several ElementwiseGrain chunks
  auto X = randomVec(N, R);
  auto Run = [&](int Threads) {
    auto Y = X;
    setGlobalNumThreads(Threads);
    kernels::sigmoidForward(Y.data(), N);
    kernels::scaleInPlace(Y.data(), 1.1f, N);
    kernels::tanhForward(Y.data(), N);
    return Y;
  };
  auto One = Run(1);
  auto Four = Run(4);
  setGlobalNumThreads(0);
  for (int64_t I = 0; I != N; ++I)
    ASSERT_EQ(One[static_cast<size_t>(I)], Four[static_cast<size_t>(I)])
        << "elem " << I;
}

//===----------------------------------------------------------------------===//
// Inference mode (NoGradGuard)
//
// Under a guard ops must produce the same bits and build no DAG; the mode
// is thread-local and scoped.
//===----------------------------------------------------------------------===//

#include <chrono>
#include <mutex>
#include <thread>

namespace {

bool sameBits(const Tensor &X, const Tensor &Y) {
  return X.sameShape(Y) &&
         std::memcmp(X.data(), Y.data(),
                     static_cast<size_t>(X.numel()) * sizeof(float)) == 0;
}

void expectNoDag(const Value &V, const char *What) {
  EXPECT_TRUE(V.node()->Prev.empty()) << What;
  EXPECT_FALSE(V.needsGrad()) << What;
  EXPECT_FALSE(static_cast<bool>(V.node()->BackwardFn)) << What;
}

/// Every op the encoders (GGNN, char-CNN, biGRU, path) run in embed(),
/// each over fresh parameters so it would record a DAG without a guard.
std::vector<std::pair<const char *, std::function<Value()>>>
encoderOps(Rng &R) {
  // Shared inputs; scatter destinations include an empty row (3) and a
  // repeated one, and one message carries a NaN and a -0.
  Tensor X = randomTensor(6, 8, R), Y = randomTensor(6, 8, R);
  Tensor W = randomTensor(8, 5, R), WT = randomTensor(5, 8, R);
  Tensor Bias(8);
  for (int64_t I = 0; I != Bias.numel(); ++I)
    Bias[I] = static_cast<float>(R.normal());
  Tensor Msgs = randomTensor(6, 8, R);
  Msgs.at(2, 1) = std::numeric_limits<float>::quiet_NaN();
  Msgs.at(4, 3) = -0.0f;
  Tensor Scores = randomTensor(6, 1, R);
  std::vector<int> Dst{0, 2, 2, 4, 0, 2}, Idx{5, 0, 0, 3};
  auto P = [](const Tensor &T) { return Value::param(T); };
  return {
      {"add", [=] { return add(P(X), P(Y)); }},
      {"addBias", [=] { return add(P(X), P(Bias)); }},
      {"sub", [=] { return sub(P(X), P(Y)); }},
      {"mul", [=] { return mul(P(X), P(Y)); }},
      {"scale", [=] { return scale(P(X), 0.5f); }},
      {"matmul", [=] { return matmul(P(X), P(W)); }},
      {"matmulNT", [=] { return matmulNT(P(X), P(WT)); }},
      {"sigmoid", [=] { return sigmoid(P(X)); }},
      {"tanh", [=] { return tanhOp(P(X)); }},
      {"relu", [=] { return relu(P(X)); }},
      {"concatCols", [=] { return concatCols(P(X), P(Y)); }},
      {"concatRows", [=] { return concatRows({P(X), P(Y)}); }},
      {"gatherRows", [=] { return gatherRows(P(X), Idx); }},
      {"scatterMax", [=] { return scatterMax(P(Msgs), Dst, 5); }},
      {"scatterMean", [=] { return scatterMean(P(Msgs), Dst, 5); }},
      {"indexAddRows",
       [=] { return indexAddRows(P(X), Idx, gatherRows(P(Y), Idx)); }},
      {"reduceMaxRows", [=] { return reduceMaxRows(P(Msgs)); }},
      {"attentionPool", [=] { return attentionPool(P(Scores), P(X)); }},
  };
}

} // namespace

TEST(NoGradTest, EncoderOpsAreBitIdenticalAndBuildNoDag) {
  Rng R(91);
  for (const auto &[Name, Op] : encoderOps(R)) {
    Value Taped = Op();
    EXPECT_TRUE(Taped.needsGrad()) << Name;
    EXPECT_FALSE(Taped.node()->Prev.empty()) << Name;
    Value Inference;
    {
      NoGradGuard NoGrad;
      Inference = Op();
    }
    EXPECT_TRUE(sameBits(Taped.val(), Inference.val())) << Name;
    expectNoDag(Inference, Name);
  }
}

TEST(NoGradTest, LayersAreBitIdenticalAndBuildNoDag) {
  Rng R(92);
  ParamSet PS;
  CharCnn Cnn(8, 16, PS, R);
  GruCell Gru(16, 16, PS, R);
  std::vector<std::string> Words{"loss", "x", "", "gradient", "loss"};
  Tensor H0 = randomTensor(5, 16, R);
  auto Run = [&] {
    Value Chars = Cnn.encodeBatch(Words);
    return std::make_pair(Chars, Gru.step(Chars, Value::constant(H0)));
  };
  auto [Chars, Step] = Run();
  NoGradGuard NoGrad;
  auto [NgChars, NgStep] = Run();
  EXPECT_TRUE(sameBits(Chars.val(), NgChars.val()));
  EXPECT_TRUE(sameBits(Step.val(), NgStep.val()));
  expectNoDag(NgChars, "char-CNN");
  expectNoDag(NgStep, "GRU step");
}

TEST(NoGradTest, GuardsNestAndRestore) {
  EXPECT_TRUE(gradEnabled());
  {
    NoGradGuard Outer;
    EXPECT_FALSE(gradEnabled());
    {
      NoGradGuard Inner;
      EXPECT_FALSE(gradEnabled());
    }
    EXPECT_FALSE(gradEnabled()) << "the inner guard must restore 'off'";
  }
  EXPECT_TRUE(gradEnabled());
  Value P = Value::param(Tensor::scalar(2.f));
  EXPECT_TRUE(scale(P, 3.f).needsGrad());
}

TEST(NoGradTest, GuardIsThreadLocal) {
  Rng R(93);
  Tensor X = randomTensor(4, 4, R);
  NoGradGuard NoGrad;
  bool OtherThreadTapes = false;
  std::thread T([&] {
    OtherThreadTapes =
        gradEnabled() && scale(Value::param(X), 2.f).needsGrad();
  });
  T.join();
  EXPECT_TRUE(OtherThreadTapes);

  // Pool workers keep their own mode; only the participating caller runs
  // its chunks under this guard.
  setGlobalNumThreads(4);
  const std::thread::id Caller = std::this_thread::get_id();
  std::mutex Mu;
  int WorkerChunks = 0, WrongMode = 0;
  parallelFor(0, 64, 1, [&](int64_t, int64_t) {
    bool Tapes = scale(Value::param(X), 2.f).needsGrad();
    bool OnCaller = std::this_thread::get_id() == Caller;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    std::lock_guard<std::mutex> Lock(Mu);
    WorkerChunks += !OnCaller;
    WrongMode += Tapes == OnCaller;
  });
  setGlobalNumThreads(0);
  EXPECT_EQ(WrongMode, 0);
  EXPECT_GT(WorkerChunks, 0) << "no chunk ran on a pool worker";
}

TEST(NoGradTest, BackwardAfterTheGuardMatchesTheTapedGradients) {
  Rng R(94);
  Tensor X0 = randomTensor(7, 8, R), W0 = randomTensor(8, 8, R);
  std::vector<int> Dst{0, 1, 1, 2, 0, 2, 1};
  auto Grads = [&] {
    Value X = Value::param(X0), W = Value::param(W0);
    Value H = scatterMax(tanhOp(matmul(X, W)), Dst, 3);
    backward(meanAll(mul(H, H)));
    return std::make_pair(X.grad(), W.grad());
  };
  auto Want = Grads();
  {
    NoGradGuard NoGrad;
    Value X = Value::param(X0), W = Value::param(W0);
    scatterMax(tanhOp(matmul(X, W)), Dst, 3);
  }
  auto Got = Grads();
  EXPECT_TRUE(sameBits(Want.first, Got.first));
  EXPECT_TRUE(sameBits(Want.second, Got.second));
}

//===----------------------------------------------------------------------===//
// GEMM small-N microkernel
//
// GemmSmallN must reproduce the AxpyRow loop bit for bit, whatever the
// table, the transpose of A, Alpha, Beta, zeros in A, -0 in C and the
// thread count; other shapes must keep the AxpyRow loop.
//===----------------------------------------------------------------------===//

namespace {

/// The non-transposed-B GEMM as one AxpyRow call per (i, p) through \p KT.
void axpyLoopGemm(const simd::KernelTable &KT, bool TransA, int64_t M,
                  int64_t N, int64_t K, float Alpha, const float *A,
                  const float *B, float Beta, float *C) {
  if (Beta == 0.f)
    std::fill(C, C + M * N, 0.f);
  else if (Beta != 1.f)
    for (int64_t I = 0; I != M * N; ++I)
      C[I] *= Beta;
  for (int64_t I = 0; I != M; ++I)
    for (int64_t P = 0; P != K; ++P) {
      float AIP = Alpha * (TransA ? A[P * M + I] : A[I * K + P]);
      if (AIP == 0.f)
        continue;
      KT.AxpyRow(C + I * N, AIP, B + P * N, N);
    }
}

/// Random matrix with every fifth entry an exact zero (the skip path).
Tensor withZeros(int64_t Rows, int64_t Cols, Rng &R) {
  Tensor T = randomTensor(Rows, Cols, R);
  for (int64_t I = 0; I < T.numel(); I += 5)
    T[I] = 0.f;
  return T;
}

void expectGemmMatchesAxpyLoop(bool Simd, int64_t M, int64_t N, int64_t K,
                               Rng &R) {
  SimdGuard Table(Simd);
  const simd::KernelTable &KT = simd::active();
  for (bool TA : {false, true}) {
    Tensor A = TA ? withZeros(K, M, R) : withZeros(M, K, R);
    Tensor B = randomTensor(K, N, R);
    Tensor C0 = randomTensor(M, N, R);
    for (int64_t I = 0; I < C0.numel(); I += 3)
      C0[I] = -0.0f;
    for (float Beta : {0.f, 1.f}) {
      Tensor Want = C0;
      axpyLoopGemm(KT, TA, M, N, K, 0.75f, A.data(), B.data(), Beta,
                   Want.data());
      for (int Threads : {1, 4}) {
        setGlobalNumThreads(Threads);
        Tensor Got = C0;
        gemm(TA, false, M, N, K, 0.75f, A.data(), B.data(), Beta, Got.data());
        ASSERT_TRUE(sameBits(Want, Got))
            << simd::isaName(KT.WhichIsa) << " M=" << M << " N=" << N
            << " K=" << K << " TA=" << TA << " Beta=" << Beta
            << " threads=" << Threads;
      }
      setGlobalNumThreads(0);
      if (KT.GemmSmallN && Beta == 1.f && N <= 32 && N % 8 == 0) {
        // The entry itself, over all rows in one call.
        Tensor Got = C0;
        KT.GemmSmallN(0, M, N, K, 0.75f, A.data(), TA ? 1 : K, TA ? M : 1,
                      B.data(), Got.data());
        ASSERT_TRUE(sameBits(Want, Got))
            << "direct M=" << M << " N=" << N << " K=" << K << " TA=" << TA;
      }
    }
  }
}

} // namespace

TEST(GemmSmallNTest, MatchesTheAxpyRowLoopBitForBit) {
  Rng R(95);
  for (bool Simd : {false, true})
    for (int64_t N : {8, 16, 24, 32})
      for (int64_t K : {1, 3, 32, 48, 96})
        for (int64_t M : {1, 7, 394})
          expectGemmMatchesAxpyLoop(Simd, M, N, K, R);
}

TEST(GemmSmallNTest, OtherShapesKeepTheAxpyRowLoop) {
  Rng R(96);
  for (bool Simd : {false, true}) {
    SimdGuard Table(Simd);
    const simd::KernelTable &KT = simd::active();
    for (int64_t N : {8, 16, 24, 32}) {
      EXPECT_EQ(kernels::usesGemmSmallN(KT, false, N), KT.GemmSmallN != nullptr)
          << N;
      EXPECT_FALSE(kernels::usesGemmSmallN(KT, true, N)) << N;
    }
    for (int64_t N : {1, 4, 12, 33, 40, 512})
      EXPECT_FALSE(kernels::usesGemmSmallN(KT, false, N)) << N;
  }
  EXPECT_FALSE(simd::scalarTable().GemmSmallN);
  for (int64_t N : {33, 40, 512})
    for (bool Simd : {false, true})
      expectGemmMatchesAxpyLoop(Simd, 7, N, 48, R);
}

namespace {

/// The historical branchy scatterMax loops, kept as the bit-identity
/// reference for the select-based ones: \p Out gets the pooled rows and,
/// with \p KeepArg, \p Arg the argmax message per (row, dim) (-1 = none).
void legacyScatterMax(const Tensor &Msgs, const std::vector<int> &Dst,
                      int64_t NumRows, bool KeepArg, Tensor &Out,
                      std::vector<int> &Arg) {
  const int64_t D = Msgs.cols();
  Out = Tensor(NumRows, D);
  Arg.assign(static_cast<size_t>(NumRows * D), -1);
  std::vector<char> Seen(static_cast<size_t>(NumRows), 0);
  for (size_t E = 0; E != Dst.size(); ++E) {
    const float *Msg = Msgs.data() + static_cast<int64_t>(E) * D;
    float *Row = Out.data() + Dst[E] * D;
    if (KeepArg) {
      int *Slot = Arg.data() + Dst[E] * D;
      for (int64_t J = 0; J != D; ++J)
        if (Slot[J] < 0 || Msg[J] > Row[J]) {
          Row[J] = Msg[J];
          Slot[J] = static_cast<int>(E);
        }
    } else if (!Seen[static_cast<size_t>(Dst[E])]) {
      Seen[static_cast<size_t>(Dst[E])] = 1;
      std::memcpy(Row, Msg, static_cast<size_t>(D) * sizeof(float));
    } else {
      for (int64_t J = 0; J != D; ++J)
        if (Msg[J] > Row[J])
          Row[J] = Msg[J];
    }
  }
}

} // namespace

TEST(ScatterMaxTest, MatchesTheBranchyLoopsBitForBit) {
  // Rows 0-3 receive messages, rows 4-7 none. Each case plants one
  // edge value the select must treat exactly like the branch did.
  const float NaN = std::numeric_limits<float>::quiet_NaN();
  const std::vector<int> Dst{0, 2, 0, 1, 2, 0, 3, 1, 2, 0};
  const int64_t NumRows = 8, D = 8;
  struct Case {
    const char *Name;
    std::function<void(Tensor &)> Plant;
  };
  const std::vector<Case> Cases = {
      {"random", [](Tensor &) {}},
      {"NaN in a row's first message",
       [&](Tensor &M) {
         M.at(0, 1) = NaN; // first into row 0
         M.at(3, 4) = NaN; // first into row 1
       }},
      {"NaN in a later message",
       [&](Tensor &M) {
         M.at(2, 1) = NaN; // row 0, second message
         M.at(9, 7) = NaN; // row 0, last message
         M.at(4, 0) = NaN; // row 2, second message
       }},
      {"+0 and -0",
       [](Tensor &M) {
         for (int64_t E = 0; E != M.rows(); ++E)
           for (int64_t J = 0; J != 4; ++J)
             M.at(E, J) = (E + J) % 2 ? -0.0f : 0.0f;
       }},
      {"exact ties keep the first message",
       [](Tensor &M) {
         for (int64_t E = 0; E != M.rows(); ++E)
           for (int64_t J = 0; J != D; ++J)
             M.at(E, J) = J % 3 == 0 ? 1.5f : M.at(E, J);
       }},
  };
  Rng R(97);
  for (const Case &C : Cases) {
    Tensor Msgs = randomTensor(static_cast<int64_t>(Dst.size()), D, R);
    C.Plant(Msgs);
    Tensor WantOut;
    std::vector<int> WantArg;
    // Inference mode.
    legacyScatterMax(Msgs, Dst, NumRows, /*KeepArg=*/false, WantOut, WantArg);
    {
      NoGradGuard NoGrad;
      EXPECT_TRUE(sameBits(WantOut,
                           scatterMax(Value::param(Msgs), Dst, NumRows).val()))
          << C.Name;
    }
    // Taped mode: values, then the gradient the argmax routes. The upstream
    // gradient is small integers over a power-of-two mean, so every
    // expected entry is exact.
    legacyScatterMax(Msgs, Dst, NumRows, /*KeepArg=*/true, WantOut, WantArg);
    Tensor Upstream(NumRows, D);
    for (int64_t I = 0; I != Upstream.numel(); ++I)
      Upstream[I] = static_cast<float>(I % 7 + 1);
    Value P = Value::param(Msgs);
    Value H = scatterMax(P, Dst, NumRows);
    EXPECT_TRUE(sameBits(WantOut, H.val())) << C.Name;
    backward(meanAll(mul(H, Value::constant(Upstream))));
    Tensor WantGrad(static_cast<int64_t>(Dst.size()), D);
    const float InvN = 1.f / static_cast<float>(NumRows * D);
    for (int64_t Row = 0; Row != NumRows; ++Row)
      for (int64_t J = 0; J != D; ++J)
        if (int E = WantArg[static_cast<size_t>(Row * D + J)]; E >= 0)
          WantGrad.at(E, J) += Upstream.at(Row, J) * InvN;
    EXPECT_TRUE(sameBits(WantGrad, P.grad())) << C.Name;
  }
}
