//===- models/Model.cpp - The Typilus model family ----------------------------===//

#include "models/Model.h"

#include "nn/Serialize.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace typilus;
using namespace typilus::nn;

const char *typilus::encoderKindName(EncoderKind K) {
  switch (K) {
  case EncoderKind::Graph: return "Graph";
  case EncoderKind::Seq: return "Seq";
  case EncoderKind::Path: return "Path";
  case EncoderKind::NamesOnly: return "NamesOnly";
  }
  return "?";
}

const char *typilus::lossKindName(LossKind K) {
  switch (K) {
  case LossKind::Class: return "Class";
  case LossKind::Space: return "Space";
  case LossKind::Typilus: return "Typilus";
  }
  return "?";
}

TypeModel::TypeModel(const ModelConfig &C, LabelVocab VocabIn, TypeVocabs TVIn)
    : Config(C), Vocab(std::move(VocabIn)), TV(std::move(TVIn)),
      ParamRng(C.Seed), PathRng(C.Seed ^ 0x9E3779B9ull) {
  const int64_t D = Config.HiddenDim;
  if (Config.NodeRep == NodeRepKind::Character)
    CharEnc = CharCnn(16, D, PS, ParamRng);
  else
    SubEmb = Embedding(static_cast<int64_t>(Vocab.size()), D, PS, ParamRng);

  switch (Config.Encoder) {
  case EncoderKind::Graph: {
    float Scale = 1.f / std::sqrt(static_cast<float>(D));
    for (size_t K = 0; K != 2 * NumEdgeLabels; ++K)
      EdgeTransforms.push_back(
          PS.make(Tensor::randn(D, D, ParamRng, Scale)));
    GraphGru = GruCell(D, D, PS, ParamRng);
    break;
  }
  case EncoderKind::Seq: {
    assert(D % 2 == 0 && "Seq encoder needs an even hidden dim");
    int64_t H = D / 2;
    SeqF1 = GruCell(D, H, PS, ParamRng);
    SeqB1 = GruCell(D, H, PS, ParamRng);
    SeqF2 = GruCell(D, H, PS, ParamRng);
    SeqB2 = GruCell(D, H, PS, ParamRng);
    SeqOut = Linear(D, D, PS, ParamRng);
    break;
  }
  case EncoderKind::Path: {
    PathGru = GruCell(D, D, PS, ParamRng);
    PathCombine = Linear(3 * D, D, PS, ParamRng);
    float Scale = 1.f / std::sqrt(static_cast<float>(D));
    AttnW = PS.make(Tensor::randn(D, D, ParamRng, Scale));
    AttnV = PS.make(Tensor::randn(D, 1, ParamRng, Scale));
    break;
  }
  case EncoderKind::NamesOnly:
    break;
  }
  NamesOut = Linear(D, D, PS, ParamRng);

  ClassHead = Linear(D, static_cast<int64_t>(std::max<size_t>(TV.Full.size(), 1)),
                     PS, ParamRng);
  ErasedProj = Linear(D, D, PS, ParamRng);
  ErasedHead =
      Linear(D, static_cast<int64_t>(std::max<size_t>(TV.Erased.size(), 1)),
             PS, ParamRng);
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

void typilus::writeModelConfig(ArchiveWriter &W, const ModelConfig &C) {
  W.writeU32(static_cast<uint32_t>(C.Encoder));
  W.writeU32(static_cast<uint32_t>(C.Loss));
  W.writeU32(static_cast<uint32_t>(C.NodeRep));
  W.writeI32(C.HiddenDim);
  W.writeI32(C.TimeSteps);
  W.writeF32(C.Margin);
  W.writeF32(C.Lambda);
  W.writeI32(C.MaxSeqLen);
  W.writeI32(C.MaxPathsPerSymbol);
  W.writeU64(C.Seed);
}

bool typilus::readModelConfig(ArchiveCursor &C, ModelConfig &Out,
                              std::string *Err) {
  ModelConfig MC;
  uint32_t Encoder = C.readU32();
  uint32_t Loss = C.readU32();
  uint32_t NodeRep = C.readU32();
  MC.HiddenDim = C.readI32();
  MC.TimeSteps = C.readI32();
  MC.Margin = C.readF32();
  MC.Lambda = C.readF32();
  MC.MaxSeqLen = C.readI32();
  MC.MaxPathsPerSymbol = C.readI32();
  MC.Seed = C.readU64();
  // Range-check everything that later sizes an allocation: a CRC-valid
  // but crafted config must fail here with a clean error, not reach a
  // multi-gigabyte Tensor constructor. The caps are far above any real
  // configuration (paper scale is D<=128, T=8).
  if (!C.ok() || Encoder > static_cast<uint32_t>(EncoderKind::NamesOnly) ||
      Loss > static_cast<uint32_t>(LossKind::Typilus) ||
      NodeRep > static_cast<uint32_t>(NodeRepKind::Character) ||
      MC.HiddenDim <= 0 || MC.HiddenDim > (1 << 14) || MC.TimeSteps < 0 ||
      MC.TimeSteps > (1 << 10) || MC.MaxSeqLen < 0 ||
      MC.MaxSeqLen > (1 << 24) || MC.MaxPathsPerSymbol < 0 ||
      MC.MaxPathsPerSymbol > (1 << 16)) {
    if (Err && Err->empty())
      *Err = "malformed model config";
    return false;
  }
  MC.Encoder = static_cast<EncoderKind>(Encoder);
  MC.Loss = static_cast<LossKind>(Loss);
  MC.NodeRep = static_cast<NodeRepKind>(NodeRep);
  Out = MC;
  return true;
}

void TypeModel::save(ArchiveWriter &W,
                     const std::map<TypeRef, int> &TypeIds) const {
  W.beginChunk("mcfg");
  writeModelConfig(W, Config);
  W.endChunk();

  W.beginChunk("lvoc");
  Vocab.save(W);
  W.endChunk();

  W.beginChunk("tvoc");
  TV.Full.save(W, TypeIds);
  TV.Erased.save(W, TypeIds);
  W.endChunk();

  saveWeights(W);
}

void TypeModel::saveWeights(ArchiveWriter &W) const {
  // The RNG stream positions. ParamRng is spent after construction, but
  // PathRng keeps advancing with every Path-encoder embed(): restoring it
  // is what makes a loaded Path model predict bit-identically to the
  // in-process one from this point on.
  W.beginChunk("rngs");
  W.writeU64(ParamRng.state());
  W.writeU64(PathRng.state());
  W.endChunk();

  W.beginChunk("parm");
  nn::writeParams(W, PS);
  W.endChunk();
}

bool TypeModel::loadWeights(const ArchiveReader &R, std::string *Err) {
  ArchiveCursor RngC = R.chunk("rngs", Err);
  uint64_t ParamState = RngC.readU64();
  uint64_t PathState = RngC.readU64();
  if (!RngC.ok()) {
    if (Err && Err->empty())
      *Err = "malformed RNG state chunk";
    return false;
  }
  ArchiveCursor ParmC = R.chunk("parm", Err);
  if (!nn::readParams(ParmC, PS, Err))
    return false;
  ParamRng.setState(ParamState);
  PathRng.setState(PathState);
  return true;
}

std::unique_ptr<TypeModel>
TypeModel::load(const ArchiveReader &R, const std::vector<TypeRef> &ById,
                std::string *Err) {
  ArchiveCursor CfgC = R.chunk("mcfg", Err);
  ModelConfig MC;
  if (!readModelConfig(CfgC, MC, Err))
    return nullptr;

  LabelVocab LV;
  ArchiveCursor LvC = R.chunk("lvoc", Err);
  if (!LV.load(LvC, Err))
    return nullptr;

  TypeVocabs TV;
  ArchiveCursor TvC = R.chunk("tvoc", Err);
  if (!TV.Full.load(TvC, ById, Err) || !TV.Erased.load(TvC, ById, Err))
    return nullptr;

  // Construction registers every parameter (in deterministic order) with
  // fresh random values; the parm chunk then overwrites them in place.
  auto Model = std::make_unique<TypeModel>(MC, std::move(LV), std::move(TV));
  if (!Model->loadWeights(R, Err))
    return nullptr;
  return Model;
}

//===----------------------------------------------------------------------===//
// Initial representations (Eq. 7 and the Table 4 variants)
//===----------------------------------------------------------------------===//

Value TypeModel::statesForLabels(const std::vector<std::string> &Labels) {
  const int64_t N = static_cast<int64_t>(Labels.size());
  assert(N > 0 && "no labels to embed");
  if (Config.NodeRep == NodeRepKind::Character) {
    // Encode all distinct labels in one batched kernel call, then gather
    // per node (a minibatch-wide graph hits this with thousands of nodes).
    std::map<std::string, int> UniqueRow;
    std::vector<std::string> Unique;
    std::vector<int> RowOf(Labels.size());
    for (size_t I = 0; I != Labels.size(); ++I) {
      auto [It, Inserted] =
          UniqueRow.emplace(Labels[I], static_cast<int>(Unique.size()));
      if (Inserted)
        Unique.push_back(Labels[I]);
      RowOf[I] = It->second;
    }
    return gatherRows(CharEnc.encodeBatch(Unique), RowOf);
  }
  // Subtoken / whole-token: mean of the (learned) id embeddings, Eq. 7.
  std::vector<int> FlatIds, Owner;
  for (size_t I = 0; I != Labels.size(); ++I)
    for (int Id : Vocab.idsOf(Labels[I])) {
      FlatIds.push_back(Id);
      Owner.push_back(static_cast<int>(I));
    }
  return scatterMean(SubEmb.rows(FlatIds), Owner, N);
}

//===----------------------------------------------------------------------===//
// GGNN encoder (Sec. 4.3)
//===----------------------------------------------------------------------===//

Value TypeModel::encodeGraphBatch(const std::vector<const FileExample *> &Files,
                                  std::vector<const Target *> *OutTargets) {
  // Merge the file graphs into one disjoint batch graph.
  std::vector<std::string> Labels;
  std::array<std::vector<std::pair<int, int>>, NumEdgeLabels> Edges;
  std::vector<int> SupIdx;
  for (const FileExample *F : Files) {
    int Offset = static_cast<int>(Labels.size());
    for (const GraphNode &Nd : F->Graph.Nodes)
      Labels.push_back(Nd.Label);
    for (const GraphEdge &E : F->Graph.Edges)
      Edges[static_cast<size_t>(E.Label)].emplace_back(E.Src + Offset,
                                                       E.Dst + Offset);
    for (const Target &T : F->Targets) {
      SupIdx.push_back(T.NodeIdx + Offset);
      if (OutTargets)
        OutTargets->push_back(&T);
    }
  }
  const int64_t N = static_cast<int64_t>(Labels.size());
  Value H = statesForLabels(Labels);

  // Build the per-edge-label index lists once; every timestep reuses them
  // instead of re-scanning the edge set. Forward direction gathers sources
  // and delivers to destinations (transform E_k); backward gathers
  // destinations and delivers to sources (transform E_{k+L}).
  std::vector<std::vector<int>> FwdSrcs(NumEdgeLabels), RevSrcs(NumEdgeLabels);
  std::vector<int> Dsts;
  for (size_t K = 0; K != NumEdgeLabels; ++K) {
    const auto &EK = Edges[K];
    if (EK.empty())
      continue;
    FwdSrcs[K].reserve(EK.size());
    RevSrcs[K].reserve(EK.size());
    for (auto [S, T] : EK) {
      FwdSrcs[K].push_back(S);
      Dsts.push_back(T);
    }
    for (auto [S, T] : EK) {
      RevSrcs[K].push_back(T);
      Dsts.push_back(S);
    }
  }

  for (int Step = 0; Step != Config.TimeSteps && !Dsts.empty(); ++Step) {
    std::vector<Value> Msgs;
    for (size_t K = 0; K != NumEdgeLabels; ++K) {
      if (FwdSrcs[K].empty())
        continue;
      Msgs.push_back(matmul(gatherRows(H, FwdSrcs[K]), EdgeTransforms[K]));
      Msgs.push_back(matmul(gatherRows(H, RevSrcs[K]),
                            EdgeTransforms[NumEdgeLabels + K]));
    }
    // Max-pooling aggregation (the paper's meet-like operator).
    Value A = scatterMax(concatRows(Msgs), Dsts, N);
    H = GraphGru.step(A, H);
  }
  return gatherRows(H, SupIdx);
}

//===----------------------------------------------------------------------===//
// biGRU encoder with consistency modules (DeepTyper baseline)
//===----------------------------------------------------------------------===//

Value TypeModel::runGruSequence(const GruCell &Cell, Value X, bool Reverse) {
  const int L = static_cast<int>(X.val().rows());
  Value State = Value::constant(Tensor(static_cast<int64_t>(1),
                                       Cell.hiddenDim()));
  std::vector<Value> Rows(static_cast<size_t>(L));
  for (int S = 0; S != L; ++S) {
    int I = Reverse ? L - 1 - S : S;
    State = Cell.step(gatherRows(X, {I}), State);
    Rows[static_cast<size_t>(I)] = State;
  }
  return concatRows(Rows);
}

Value TypeModel::nameFallback(const Target &T) {
  return tanhOp(NamesOut.apply(statesForLabels({T.Name})));
}

Value TypeModel::encodeSeqFile(const FileExample &F,
                               std::vector<const Target *> *OutTargets) {
  const TypilusGraph &G = F.Graph;
  // Token nodes, in original token order (they are created first and in
  // order by the builder).
  std::vector<int> TokNodes;
  std::vector<std::string> TokLabels;
  for (size_t I = 0; I != G.Nodes.size(); ++I) {
    if (G.Nodes[I].Category != NodeCategory::Token)
      continue;
    if (static_cast<int>(TokNodes.size()) >= Config.MaxSeqLen)
      break;
    TokNodes.push_back(static_cast<int>(I));
    TokLabels.push_back(G.Nodes[I].Label);
  }
  // Occurrence lists: token position -> dense symbol id.
  std::map<int, int> NodeToPos;
  for (size_t P = 0; P != TokNodes.size(); ++P)
    NodeToPos[TokNodes[P]] = static_cast<int>(P);
  std::map<int, int> SymDense; // symbol node idx -> dense id
  std::vector<int> OccPos, OccSym;
  for (const GraphEdge &E : G.Edges) {
    if (E.Label != EdgeLabel::OccurrenceOf)
      continue;
    auto It = NodeToPos.find(E.Src);
    if (It == NodeToPos.end())
      continue;
    auto [SIt, Ins] = SymDense.emplace(E.Dst, static_cast<int>(SymDense.size()));
    OccPos.push_back(It->second);
    OccSym.push_back(SIt->second);
    (void)Ins;
  }

  std::vector<Value> TargetRows;
  if (!TokLabels.empty() && !OccPos.empty()) {
    Value X = statesForLabels(TokLabels);
    Value H1 = concatCols(runGruSequence(SeqF1, X, false),
                          runGruSequence(SeqB1, X, true));
    // Consistency module: add each symbol's mean representation back to
    // every bound position.
    int64_t S = static_cast<int64_t>(SymDense.size());
    Value Mu = scatterMean(gatherRows(H1, OccPos), OccSym, S);
    Value H1C = indexAddRows(H1, OccPos, gatherRows(Mu, OccSym));
    Value H2 = concatCols(runGruSequence(SeqF2, H1C, false),
                          runGruSequence(SeqB2, H1C, true));
    // Output consistency: one representation per symbol.
    Value SymRep = scatterMean(gatherRows(H2, OccPos), OccSym, S);
    Value Out = tanhOp(SeqOut.apply(SymRep));
    for (const Target &T : F.Targets) {
      if (OutTargets)
        OutTargets->push_back(&T);
      auto It = SymDense.find(T.NodeIdx);
      if (It != SymDense.end())
        TargetRows.push_back(gatherRows(Out, {It->second}));
      else
        TargetRows.push_back(nameFallback(T)); // truncated away
    }
  } else {
    for (const Target &T : F.Targets) {
      if (OutTargets)
        OutTargets->push_back(&T);
      TargetRows.push_back(nameFallback(T));
    }
  }
  if (TargetRows.empty())
    return Value();
  return concatRows(TargetRows);
}

//===----------------------------------------------------------------------===//
// Path encoder (code2seq baseline)
//===----------------------------------------------------------------------===//

Value TypeModel::encodePathFile(const FileExample &F,
                                std::vector<const Target *> *OutTargets) {
  const TypilusGraph &G = F.Graph;
  const int N = static_cast<int>(G.Nodes.size());
  // Tree structure from CHILD edges (first parent wins).
  std::vector<int> Parent(static_cast<size_t>(N), -1);
  for (const GraphEdge &E : G.Edges)
    if (E.Label == EdgeLabel::Child && Parent[static_cast<size_t>(E.Dst)] < 0)
      Parent[static_cast<size_t>(E.Dst)] = E.Src;
  // Candidate far endpoints: identifier-ish token leaves in the tree.
  std::vector<int> Leaves;
  for (int I = 0; I != N; ++I)
    if (G.Nodes[static_cast<size_t>(I)].Category == NodeCategory::Token &&
        Parent[static_cast<size_t>(I)] >= 0)
      Leaves.push_back(I);
  // Occurrences per symbol node.
  std::map<int, std::vector<int>> OccOf;
  for (const GraphEdge &E : G.Edges)
    if (E.Label == EdgeLabel::OccurrenceOf &&
        G.Nodes[static_cast<size_t>(E.Src)].Category == NodeCategory::Token)
      OccOf[E.Dst].push_back(E.Src);

  auto AncestorChain = [&](int Node) {
    std::vector<int> Chain;
    for (int Cur = Node; Cur >= 0; Cur = Parent[static_cast<size_t>(Cur)])
      Chain.push_back(Cur);
    return Chain;
  };

  std::vector<Value> TargetRows;
  for (const Target &T : F.Targets) {
    if (OutTargets)
      OutTargets->push_back(&T);
    auto OccIt = OccOf.find(T.NodeIdx);
    if (OccIt == OccOf.end() || OccIt->second.empty() || Leaves.size() < 2) {
      TargetRows.push_back(nameFallback(T));
      continue;
    }
    Rng R = PathRng.fork(static_cast<uint64_t>(T.NodeIdx) * 7919u +
                         static_cast<uint64_t>(F.Targets.size()));
    std::vector<Value> PathVecs;
    for (int P = 0; P != Config.MaxPathsPerSymbol; ++P) {
      int A = OccIt->second[static_cast<size_t>(P) % OccIt->second.size()];
      int B = Leaves[R.uniformInt(Leaves.size())];
      if (B == A)
        continue;
      // Interior path A -> LCA -> B.
      std::vector<int> ChainA = AncestorChain(A), ChainB = AncestorChain(B);
      std::map<int, size_t> PosInB;
      for (size_t I = 0; I != ChainB.size(); ++I)
        PosInB[ChainB[I]] = I;
      size_t AIdx = 0;
      while (AIdx < ChainA.size() && !PosInB.count(ChainA[AIdx]))
        ++AIdx;
      if (AIdx == ChainA.size())
        continue; // different trees (should not happen)
      std::vector<std::string> PathLabels;
      for (size_t I = 1; I <= AIdx; ++I)
        PathLabels.push_back(G.Nodes[static_cast<size_t>(ChainA[I])].Label);
      for (size_t I = PosInB[ChainA[AIdx]]; I-- > 1;)
        PathLabels.push_back(G.Nodes[static_cast<size_t>(ChainB[I])].Label);
      if (PathLabels.empty())
        PathLabels.push_back(G.Nodes[static_cast<size_t>(ChainA[AIdx])].Label);

      Value PathStates = statesForLabels(PathLabels);
      Value State = Value::constant(Tensor(static_cast<int64_t>(1),
                                           Config.HiddenDim));
      for (int I = 0; I != static_cast<int>(PathLabels.size()); ++I)
        State = PathGru.step(gatherRows(PathStates, {I}), State);
      Value EndA = statesForLabels({G.Nodes[static_cast<size_t>(A)].Label});
      Value EndB = statesForLabels({G.Nodes[static_cast<size_t>(B)].Label});
      PathVecs.push_back(tanhOp(PathCombine.apply(
          concatCols(concatCols(EndA, State), EndB))));
    }
    if (PathVecs.empty()) {
      TargetRows.push_back(nameFallback(T));
      continue;
    }
    Value Stacked = concatRows(PathVecs);
    Value Scores = matmul(tanhOp(matmul(Stacked, AttnW)), AttnV);
    TargetRows.push_back(attentionPool(Scores, Stacked));
  }
  if (TargetRows.empty())
    return Value();
  return concatRows(TargetRows);
}

//===----------------------------------------------------------------------===//
// Names-only ablation
//===----------------------------------------------------------------------===//

Value TypeModel::encodeNamesFile(const FileExample &F,
                                 std::vector<const Target *> *OutTargets) {
  std::vector<std::string> Names;
  for (const Target &T : F.Targets) {
    if (OutTargets)
      OutTargets->push_back(&T);
    Names.push_back(T.Name);
  }
  if (Names.empty())
    return Value();
  return tanhOp(NamesOut.apply(statesForLabels(Names)));
}

//===----------------------------------------------------------------------===//
// Shared entry points
//===----------------------------------------------------------------------===//

bool TypeModel::supportsParallelEmbed() const {
  // Graph/Seq/NamesOnly forwards only read model state, so concurrent
  // embed() calls are safe (Graph additionally batches the files of one
  // call into a single graph and relies on the kernels for parallelism).
  // Path samples from the mutable PathRng stream, so concurrent calls
  // would race and break determinism.
  return Config.Encoder != EncoderKind::Path;
}

Value TypeModel::embed(const std::vector<const FileExample *> &Files,
                       std::vector<const Target *> *OutTargets) {
  if (Config.Encoder == EncoderKind::Graph)
    return encodeGraphBatch(Files, OutTargets);
  // Per-file encoders: forward graphs of distinct files are independent
  // (parameters are only read), so thread-safe encoders embed files
  // data-parallel. Parts and targets are merged in file order, making the
  // result identical to the serial loop.
  std::vector<Value> PerFilePart(Files.size());
  std::vector<std::vector<const Target *>> PerFileTargets(Files.size());
  auto EncodeOne = [&](size_t I) {
    std::vector<const Target *> *TP = OutTargets ? &PerFileTargets[I] : nullptr;
    switch (Config.Encoder) {
    case EncoderKind::Seq:
      PerFilePart[I] = encodeSeqFile(*Files[I], TP);
      break;
    case EncoderKind::Path:
      PerFilePart[I] = encodePathFile(*Files[I], TP);
      break;
    case EncoderKind::NamesOnly:
      PerFilePart[I] = encodeNamesFile(*Files[I], TP);
      break;
    case EncoderKind::Graph:
      break;
    }
  };
  if (supportsParallelEmbed()) {
    parallelFor(0, static_cast<int64_t>(Files.size()), 1,
                [&](int64_t Lo, int64_t Hi) {
                  for (int64_t I = Lo; I != Hi; ++I)
                    EncodeOne(static_cast<size_t>(I));
                });
  } else {
    for (size_t I = 0; I != Files.size(); ++I)
      EncodeOne(I);
  }
  std::vector<Value> Parts;
  for (size_t I = 0; I != Files.size(); ++I) {
    if (PerFilePart[I].defined())
      Parts.push_back(PerFilePart[I]);
    if (OutTargets)
      OutTargets->insert(OutTargets->end(), PerFileTargets[I].begin(),
                         PerFileTargets[I].end());
  }
  if (Parts.empty())
    return Value();
  return concatRows(Parts);
}

Value TypeModel::loss(Value Emb, const std::vector<const Target *> &Targets) {
  assert(Emb.defined() &&
         Emb.val().rows() == static_cast<int64_t>(Targets.size()) &&
         "embedding/target mismatch");
  auto FullLabels = [&] {
    std::vector<int> L;
    for (const Target *T : Targets)
      L.push_back(TV.Full.lookup(T->Type));
    return L;
  };
  switch (Config.Loss) {
  case LossKind::Class:
    return softmaxCrossEntropy(ClassHead.apply(Emb), FullLabels());
  case LossKind::Space:
    return spaceLoss(pairwiseL1(Emb), FullLabels(), Config.Margin);
  case LossKind::Typilus: {
    Value LSpace = spaceLoss(pairwiseL1(Emb), FullLabels(), Config.Margin);
    std::vector<int> Erased;
    for (const Target *T : Targets)
      Erased.push_back(TV.Erased.lookup(T->ErasedType));
    Value LClass =
        softmaxCrossEntropy(ErasedHead.apply(ErasedProj.apply(Emb)), Erased);
    return add(LSpace, scale(LClass, Config.Lambda));
  }
  }
  return Value();
}

Tensor TypeModel::classProbs(Value Emb) {
  return softmaxRows(ClassHead.apply(Emb).val());
}
