//===- nn/Layers.cpp - Neural network layers ---------------------------------===//

#include "nn/Layers.h"

#include <cassert>
#include <cmath>

using namespace typilus;
using namespace typilus::nn;

size_t ParamSet::numParams() const {
  size_t N = 0;
  for (const Value &P : Params)
    N += static_cast<size_t>(P.val().numel());
  return N;
}

void ParamSet::zeroGrads() {
  for (Value &P : Params)
    P.grad().fill(0.f);
}

Linear::Linear(int64_t In, int64_t Out, ParamSet &PS, Rng &R) {
  float Scale = 1.f / std::sqrt(static_cast<float>(In));
  W = PS.make(Tensor::randn(In, Out, R, Scale));
  B = PS.make(Tensor(Out));
}

Embedding::Embedding(int64_t Vocab, int64_t Dim, ParamSet &PS, Rng &R) {
  W = PS.make(Tensor::randn(Vocab, Dim, R, 0.1f));
}

GruCell::GruCell(int64_t In, int64_t HidDim, ParamSet &PS, Rng &R)
    : Hid(HidDim) {
  float SIn = 1.f / std::sqrt(static_cast<float>(In));
  float SHid = 1.f / std::sqrt(static_cast<float>(HidDim));
  Wr = PS.make(Tensor::randn(In, HidDim, R, SIn));
  Ur = PS.make(Tensor::randn(HidDim, HidDim, R, SHid));
  Br = PS.make(Tensor(HidDim));
  Wz = PS.make(Tensor::randn(In, HidDim, R, SIn));
  Uz = PS.make(Tensor::randn(HidDim, HidDim, R, SHid));
  Bz = PS.make(Tensor(HidDim));
  Wn = PS.make(Tensor::randn(In, HidDim, R, SIn));
  Un = PS.make(Tensor::randn(HidDim, HidDim, R, SHid));
  Bn = PS.make(Tensor(HidDim));
}

Value GruCell::step(Value X, Value H) const {
  assert(X.val().rows() == H.val().rows() && "GRU batch mismatch");
  Value Rt = sigmoid(add(add(matmul(X, Wr), matmul(H, Ur)), Br));
  Value Zt = sigmoid(add(add(matmul(X, Wz), matmul(H, Uz)), Bz));
  Value Nt = tanhOp(add(add(matmul(X, Wn), mul(Rt, matmul(H, Un))), Bn));
  // h' = z*h + (1-z)*n.
  Tensor Ones(H.val().rows(), Hid);
  Ones.fill(1.f);
  Value OneMinusZ = sub(Value::constant(std::move(Ones)), Zt);
  return add(mul(Zt, H), mul(OneMinusZ, Nt));
}

CharCnn::CharCnn(int64_t CharDimIn, int64_t OutDim, ParamSet &PS, Rng &R)
    : CharDim(CharDimIn) {
  CharEmb = Embedding(129, CharDimIn, PS, R); // 0..127 ASCII; 128 = pad
  Conv = Linear(3 * CharDimIn, OutDim, PS, R);
}

Value CharCnn::encodeBatch(const std::vector<std::string> &Words) const {
  assert(!Words.empty() && "encodeBatch of nothing");
  // Stack every word's padded characters and width-3 windows into one
  // index set; Owner maps each window row back to its word.
  std::vector<int> Ids, Left, Mid, Right, Owner;
  for (size_t W = 0; W != Words.size(); ++W) {
    int Base = static_cast<int>(Ids.size());
    Ids.push_back(128);
    for (char C : Words[W])
      Ids.push_back(static_cast<unsigned char>(C) & 0x7F);
    Ids.push_back(128);
    int L = static_cast<int>(Ids.size()) - Base;
    bool Any = false;
    for (int I = 1; I + 1 < L; ++I) {
      Left.push_back(Base + I - 1);
      Mid.push_back(Base + I);
      Right.push_back(Base + I + 1);
      Owner.push_back(static_cast<int>(W));
      Any = true;
    }
    if (!Any) { // Empty word: a single pad-only window.
      Left.push_back(Base);
      Mid.push_back(Base);
      Right.push_back(Base + 1);
      Owner.push_back(static_cast<int>(W));
    }
  }
  Value Emb = CharEmb.rows(Ids);
  Value Win = concatCols(concatCols(gatherRows(Emb, Left), gatherRows(Emb, Mid)),
                         gatherRows(Emb, Right));
  // Per-word max-over-time == reduceMaxRows over each word's window block.
  return scatterMax(relu(Conv.apply(Win)), Owner,
                    static_cast<int64_t>(Words.size()));
}

Value CharCnn::encode(const std::string &Word) const {
  // Pad with one sentinel on each side so every character anchors a window.
  std::vector<int> Ids;
  Ids.push_back(128);
  for (char C : Word)
    Ids.push_back(static_cast<unsigned char>(C) & 0x7F);
  Ids.push_back(128);
  int L = static_cast<int>(Ids.size());
  Value Emb = CharEmb.rows(Ids); // [L, CharDim]
  // Windows of size 3 centred on positions 1..L-2.
  std::vector<int> Left, Mid, Right;
  for (int I = 1; I + 1 < L; ++I) {
    Left.push_back(I - 1);
    Mid.push_back(I);
    Right.push_back(I + 1);
  }
  if (Left.empty()) { // Empty word: a single pad-only window.
    Left = {0};
    Mid = {0};
    Right = {1};
  }
  Value Win = concatCols(concatCols(gatherRows(Emb, Left), gatherRows(Emb, Mid)),
                         gatherRows(Emb, Right));
  return reduceMaxRows(relu(Conv.apply(Win)));
}
