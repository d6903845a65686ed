//===- nn/Autograd.h - Reverse-mode automatic differentiation -----*- C++ -*-===//
//
// Part of the Typilus C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tape-free reverse-mode autograd over Tensor: each op allocates a Node
/// holding its result, its parents and a backward closure. `backward()`
/// topologically sorts the DAG from the loss and accumulates gradients.
/// This is the substrate for the GGNN, the biGRU baseline, the path encoder
/// and all three training losses of the paper (Eqs. 1, 3, 4).
///
/// Inference mode: while a `NoGradGuard` is live on the calling thread,
/// ops build no DAG. Their outputs keep no parents, never need a gradient
/// and carry no backward closure, and ops skip bookkeeping only backward
/// reads (scatterMax's argmax table). Output values are bit-identical
/// either way.
///
//===----------------------------------------------------------------------===//

#ifndef TYPILUS_NN_AUTOGRAD_H
#define TYPILUS_NN_AUTOGRAD_H

#include "nn/Tensor.h"

#include <functional>
#include <memory>
#include <vector>

namespace typilus {
namespace nn {

/// A node of the computation DAG.
class Node {
public:
  Tensor Val;
  Tensor Grad; ///< Allocated lazily by backward().
  /// True for parameters and for any node depending on one.
  bool NeedsGrad = false;
  std::vector<std::shared_ptr<Node>> Prev;
  /// Accumulates this node's Grad into its parents' Grads.
  std::function<void()> BackwardFn;

  void ensureGrad() {
    if (!Grad.sameShape(Val))
      Grad = Tensor::zerosLike(Val);
  }
};

/// Value handle; cheap to copy.
class Value {
public:
  Value() = default;
  explicit Value(std::shared_ptr<Node> N) : N(std::move(N)) {}

  /// A node that does not require gradients (inputs, masks...).
  static Value constant(Tensor T) {
    auto Nd = std::make_shared<Node>();
    Nd->Val = std::move(T);
    return Value(std::move(Nd));
  }
  /// A trainable parameter.
  static Value param(Tensor T) {
    auto Nd = std::make_shared<Node>();
    Nd->Val = std::move(T);
    Nd->NeedsGrad = true;
    return Value(std::move(Nd));
  }

  bool defined() const { return N != nullptr; }
  const Tensor &val() const { return N->Val; }
  Tensor &valMutable() { return N->Val; }
  Tensor &grad() const {
    N->ensureGrad();
    return N->Grad;
  }
  bool needsGrad() const { return N->NeedsGrad; }
  const std::shared_ptr<Node> &node() const { return N; }

private:
  std::shared_ptr<Node> N;
};

/// True unless a NoGradGuard is live on this thread.
bool gradEnabled();

/// Scoped inference mode for the calling thread (see the file comment).
/// Guards nest; each restores the mode it found. The mode is thread-local,
/// so a guard covers only ops run on its own thread: code that runs ops on
/// pool workers must hold a guard inside the worker body.
class NoGradGuard {
public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard &) = delete;
  NoGradGuard &operator=(const NoGradGuard &) = delete;

private:
  bool Saved;
};

//===----------------------------------------------------------------------===//
// Ops. Unless noted, tensors are rank-2 [rows, cols].
//===----------------------------------------------------------------------===//

/// A + B; B may be rank-1 (a bias broadcast over A's rows).
Value add(Value A, Value B);
/// A - B (same shape).
Value sub(Value A, Value B);
/// Elementwise product (same shape).
Value mul(Value A, Value B);
/// S * A.
Value scale(Value A, float S);
/// [M,K] x [K,N].
Value matmul(Value A, Value B);
/// A x B^T with B stored [N,K] -> [M,N]. (Classification head, Eq. 1.)
Value matmulNT(Value A, Value B);
Value sigmoid(Value A);
Value tanhOp(Value A);
Value relu(Value A);
/// [N,K1] ++ [N,K2] -> [N,K1+K2].
Value concatCols(Value A, Value B);
/// Vertically stacks matrices with equal column counts.
Value concatRows(const std::vector<Value> &Parts);
/// Softmax(Scores)-weighted sum of Rows: ([K,1], [K,D]) -> [1,D].
/// (The code2seq-style self-weighted path average, Sec. 6.1.)
Value attentionPool(Value Scores, Value Rows);
// The index-list ops below copy a list only into a backward closure, so
// callers can reuse one list across timesteps and inference copies none.
/// Out[i] = A[Idx[i]].
Value gatherRows(Value A, const std::vector<int> &Idx);
/// Out[n] = elementwise max over {Msgs[e] : Dst[e] == n}; 0 when empty.
/// The GGNN message aggregation (the paper uses max pooling, Sec. 4.3).
/// The backward keeps an argmax table instead of \p Dst.
Value scatterMax(Value Msgs, const std::vector<int> &Dst, int64_t NumRows);
/// Out[n] = mean over {Msgs[e] : Dst[e] == n}; 0 when empty.
Value scatterMean(Value Msgs, const std::vector<int> &Dst, int64_t NumRows);
/// Out = Base, then Out[Idx[m]] += Rows[m] for each m.
Value indexAddRows(Value Base, const std::vector<int> &Idx, Value Rows);
/// [N,D] -> [1,D] columnwise max.
Value reduceMaxRows(Value A);
/// Mean of all entries -> scalar [1].
Value meanAll(Value A);
/// Mean softmax cross-entropy over rows with Labels[i] >= 0 -> scalar [1].
Value softmaxCrossEntropy(Value Logits, std::vector<int> Labels);
/// Pairwise L1 distance matrix of the rows of A: [N,D] -> [N,N].
/// (The TypeSpace uses L1, Sec. 4.1.)
Value pairwiseL1(Value A);
/// The Typilus similarity loss L_SPACE (Eq. 3) over a precomputed distance
/// matrix. TypeIds[i] is the type label of row i (< 0 = unlabeled, skipped).
Value spaceLoss(Value Dists, const std::vector<int> &TypeIds, float Margin);

/// Runs reverse-mode accumulation from scalar \p Root.
void backward(Value Root);

/// Plain (non-differentiable) row-wise softmax helper for inference.
Tensor softmaxRows(const Tensor &Logits);

} // namespace nn
} // namespace typilus

#endif // TYPILUS_NN_AUTOGRAD_H
