//===- nn/Layers.h - Neural network layers ------------------------*- C++ -*-===//
//
// Part of the Typilus C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parameterised layers built from autograd ops: Linear, Embedding, the GRU
/// cell used both by the GGNN state updates and the DeepTyper biGRU
/// baseline (Sec. 4.3 / Sec. 6.1), and a character-level CNN encoder for
/// the Table 4 node-representation ablation.
///
//===----------------------------------------------------------------------===//

#ifndef TYPILUS_NN_LAYERS_H
#define TYPILUS_NN_LAYERS_H

#include "nn/Autograd.h"
#include "support/Rng.h"

#include <string>
#include <vector>

namespace typilus {
namespace nn {

/// Collects trainable parameters for the optimizer.
class ParamSet {
public:
  /// Registers a new parameter initialised to \p T.
  Value make(Tensor T) {
    Value V = Value::param(std::move(T));
    Params.push_back(V);
    return V;
  }

  const std::vector<Value> &params() const { return Params; }
  size_t numParams() const;
  void zeroGrads();

private:
  std::vector<Value> Params;
};

/// Fully connected layer: X W + b.
class Linear {
public:
  Linear() = default;
  Linear(int64_t In, int64_t Out, ParamSet &PS, Rng &R);

  Value apply(Value X) const { return add(matmul(X, W), B); }

  Value W, B;
};

/// Lookup table of row embeddings.
class Embedding {
public:
  Embedding() = default;
  Embedding(int64_t Vocab, int64_t Dim, ParamSet &PS, Rng &R);

  /// Rows for the given ids: [|Ids|, Dim].
  Value rows(const std::vector<int> &Ids) const { return gatherRows(W, Ids); }

  Value W;
};

/// A standard GRU cell; `step` maps (X:[N,In], H:[N,Hid]) -> H':[N,Hid].
class GruCell {
public:
  GruCell() = default;
  GruCell(int64_t In, int64_t Hid, ParamSet &PS, Rng &R);

  Value step(Value X, Value H) const;

  int64_t hiddenDim() const { return Hid; }

private:
  Value Wr, Ur, Br;
  Value Wz, Uz, Bz;
  Value Wn, Un, Bn;
  int64_t Hid = 0;
};

/// Character-level 1-D CNN word encoder (Kim et al. 2016 style): byte
/// embeddings, width-3 convolution, ReLU, max-over-time. Used by the
/// "Full Model - Character" row of Table 4.
class CharCnn {
public:
  CharCnn() = default;
  CharCnn(int64_t CharDim, int64_t OutDim, ParamSet &PS, Rng &R);

  /// Encodes \p Word into a [1, OutDim] vector.
  Value encode(const std::string &Word) const;

  /// Encodes all \p Words at once into a [|Words|, OutDim] matrix: every
  /// word's convolution windows are stacked and pushed through one
  /// embedding-gather + one GEMM, then max-pooled per word. Row i equals
  /// encode(Words[i]) bit-for-bit.
  Value encodeBatch(const std::vector<std::string> &Words) const;

private:
  Embedding CharEmb; ///< 128 ASCII codepoints + 1 pad row.
  Linear Conv;       ///< [3*CharDim -> OutDim].
  int64_t CharDim = 0;
};

} // namespace nn
} // namespace typilus

#endif // TYPILUS_NN_LAYERS_H
