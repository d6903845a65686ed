//===- core/Predictor.cpp - Type prediction ------------------------------------===//

#include "core/Predictor.h"

#include "corpus/Dataset.h"
#include "support/Hash.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>

using namespace typilus;

/// Microseconds elapsed since \p T0 (stats counters; never affects
/// results).
static uint64_t microsSince(std::chrono::steady_clock::time_point T0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - T0)
          .count());
}

/// Hands \p Files to \p Fn one window of pinned examples at a time, in
/// order. Windowing changes no bits — every file still goes through the
/// single-file embed, and results and markers come out in file order —
/// while residency stays one window of decoded shards instead of the
/// whole corpus.
template <typename WindowFn>
static void forEachWindow(ExampleSource &Files, WindowFn &&Fn) {
  constexpr size_t WindowFiles = 32;
  const size_t N = Files.size();
  for (size_t Lo = 0; Lo < N; Lo += WindowFiles) {
    const size_t W = std::min(N, Lo + WindowFiles) - Lo;
    std::vector<ExamplePin> Pins(W);
    std::vector<const FileExample *> Window(W);
    for (size_t I = 0; I != W; ++I)
      Window[I] = &Files.get(Lo + I, Pins[I]);
    Fn(Window);
  }
}

Predictor Predictor::knn(TypeModel &Model, ExampleSource &MapFiles,
                         const KnnOptions &Opts) {
  Predictor P(Model);
  P.IsKnn = true;
  P.Knn = Opts;
  P.Map = std::make_unique<TypeMap>(Model.config().HiddenDim);

  // Pre-size from the stream's metadata (a shard set knows its target
  // totals without decoding anything), then fill window by window:
  // embed the window (data-parallel when the encoder is thread-safe) and
  // append its markers in file order.
  P.Map->reserve(MapFiles.numTargets());
  forEachWindow(MapFiles, [&P](const std::vector<const FileExample *> &W) {
    Embedded E = P.embed(W);
    for (size_t F = 0; F != W.size(); ++F)
      P.addFileMarkers(W[F]->Path, E.Embs[F], E.Targets[F]);
  });
  // τmap compaction, in order: bound the marker count over the exact f32
  // coordinates first, then (optionally) quantize the survivors, then
  // build the index over whatever representation will actually serve.
  if (Opts.MaxMarkers > 0)
    P.Map->subsampleCoreset(Opts.MaxMarkers);
  P.Map->quantize(Opts.Store);
  P.rebuildIndex();
  return P;
}

Predictor Predictor::knn(TypeModel &Model,
                         const std::vector<const FileExample *> &MapFiles,
                         const KnnOptions &Opts) {
  PtrExampleSource Src(MapFiles);
  return knn(Model, Src, Opts);
}

Predictor Predictor::classifier(TypeModel &Model) {
  Predictor P(Model);
  P.IsKnn = false;
  return P;
}

//===----------------------------------------------------------------------===//
// Artifact save / load (train-once, serve-many)
//===----------------------------------------------------------------------===//

void Predictor::writeArtifact(ArchiveWriter &W, const TypeUniverse &U) const {
  W.beginChunk("tuni");
  std::map<TypeRef, int> TypeIds = U.save(W);
  W.endChunk();

  Model->save(W, TypeIds);

  W.beginChunk("pred");
  W.writeU8(IsKnn ? 1 : 0);
  W.writeI32(Knn.K);
  W.writeF64(Knn.P);
  // Historically the UseAnnoy bool; the index-kind encoding keeps 0 =
  // exact and 1 = Annoy, so pre-HNSW artifacts are byte-identical.
  W.writeU8(static_cast<uint8_t>(Knn.Index));
  W.endChunk();

  if (IsKnn) {
    W.beginChunk(Map->chunkTag());
    Map->save(W, TypeIds);
    W.endChunk();
    // The built index ships with the markers, so serving processes skip
    // the rebuild entirely.
    if (const char *Tag = Index->chunkTag()) {
      W.beginChunk(Tag);
      Index->save(W);
      W.endChunk();
    }
  }
}

uint32_t Predictor::artifactVersion() const {
  if (!IsKnn)
    return 1;
  return std::max(Map->formatVersion(), Index->formatVersion());
}

bool Predictor::save(const std::string &Path, const TypeUniverse &U,
                     std::string *Err) const {
  ArchiveWriter W(artifactVersion());
  writeArtifact(W, U);
  return W.writeFile(Path, Err);
}

std::unique_ptr<Predictor> Predictor::load(const ArchiveReader &R,
                                           std::string *Err) {
  // Inner loaders never overwrite an already-set error, so the first —
  // most specific — failure is the one reported. Start from a clean slate.
  if (Err)
    Err->clear();
  if (R.formatVersion() < kModelArtifactVersionMin ||
      R.formatVersion() > kModelArtifactVersion) {
    if (Err)
      *Err = "artifact format version " + std::to_string(R.formatVersion()) +
             "; this build reads versions " +
             std::to_string(kModelArtifactVersionMin) + ".." +
             std::to_string(kModelArtifactVersion);
    return nullptr;
  }

  std::unique_ptr<Predictor> P(new Predictor());
  P->OwnedU = std::make_unique<TypeUniverse>();
  std::vector<TypeRef> ById;
  ArchiveCursor UC = R.chunk("tuni", Err);
  if (!P->OwnedU->load(UC, ById, Err))
    return nullptr;

  P->OwnedModel = TypeModel::load(R, ById, Err);
  if (!P->OwnedModel)
    return nullptr;
  P->Model = P->OwnedModel.get();

  ArchiveCursor MC = R.chunk("pred", Err);
  uint8_t Kind = MC.readU8();
  P->Knn.K = MC.readI32();
  P->Knn.P = MC.readF64();
  uint8_t IndexKind = MC.readU8();
  if (!MC.ok() || Kind > 1 || P->Knn.K <= 0 ||
      IndexKind > static_cast<uint8_t>(KnnIndexKind::Hnsw)) {
    if (Err && Err->empty())
      *Err = "malformed predictor chunk";
    return nullptr;
  }
  P->Knn.Index = static_cast<KnnIndexKind>(IndexKind);
  P->IsKnn = Kind == 1;
  if (!P->IsKnn)
    return P;

  P->Map = std::make_unique<TypeMap>(P->Model->config().HiddenDim);
  if (!P->Map->load(R, ById, Err))
    return nullptr;
  P->Knn.Store = P->Map->store();
  if (P->Map->dim() != P->Model->config().HiddenDim) {
    if (Err)
      *Err = "type-map dimensionality does not match the model";
    return nullptr;
  }
  P->Index = loadIndex(P->Knn.Index, R, *P->Map, Err);
  if (!P->Index)
    return nullptr;
  return P;
}

std::unique_ptr<Predictor> Predictor::load(const std::string &Path,
                                           std::string *Err) {
  ArchiveReader R;
  if (!R.openFile(Path, Err))
    return nullptr;
  return load(R, Err);
}

//===----------------------------------------------------------------------===//
// Index and τmap maintenance
//===----------------------------------------------------------------------===//

void Predictor::rebuildIndex() {
  assert(Map && "kNN predictor without a type map");
  Index = buildIndex(Knn.Index, *Map, Knn.NumThreads);
}

void Predictor::setKnnOptions(const KnnOptions &O) {
  // EfSearch is a query-time knob; only an index *kind* change forces a
  // rebuild. Store and MaxMarkers describe how the map was built and
  // cannot change here.
  bool NeedRebuild = O.Index != Knn.Index;
  KnnOptions Built = Knn;
  Knn = O;
  Knn.Store = Built.Store;
  Knn.MaxMarkers = Built.MaxMarkers;
  if (NeedRebuild && IsKnn)
    rebuildIndex();
}

bool Predictor::setMarkerStore(MarkerStore S, std::string *Err) {
  if (!IsKnn || !Map) {
    if (Err)
      *Err = "marker storage formats apply to kNN predictors only";
    return false;
  }
  if (Map->store() == S)
    return true;
  if (Map->store() != MarkerStore::F32) {
    if (Err)
      *Err = std::string("cannot requantize a ") +
             markerStoreName(Map->store()) + " type map to " +
             markerStoreName(S) +
             "; quantization is one-way (start from the f32 artifact)";
    return false;
  }
  Map->quantize(S);
  Knn.Store = S;
  rebuildIndex();
  return true;
}

void Predictor::addMarker(const float *Embedding, TypeRef T) {
  if (!IsKnn)
    throw std::runtime_error("addMarker needs a kNN predictor: a classifier "
                             "has no type map to update");
  // No index rebuild: rows appended after the index was built are
  // answered by its exact delta scan until the next compaction (or
  // explicit rebuild) folds them in.
  Map->add(Embedding, T);
}

//===----------------------------------------------------------------------===//
// The inference pipeline: buildExamples -> embed -> answer -> addFileMarkers
//===----------------------------------------------------------------------===//

std::vector<FileExample>
Predictor::buildExamples(const std::vector<CorpusFile> &Files) {
  TypeUniverse *U = universe();
  if (!U)
    throw std::runtime_error("predicting from source needs a type universe: "
                             "load an artifact or call setUniverse first");
  std::vector<FileExample> Examples;
  Examples.reserve(Files.size());
  for (const CorpusFile &F : Files)
    Examples.push_back(buildExample(F, *U, {}));
  return Examples;
}

Predictor::Embedded
Predictor::embed(const std::vector<const FileExample *> &Files) {
  // File-level data parallelism: each file goes through the exact
  // single-file embed call, in inference mode, so results are
  // bit-identical however the files are batched, and thread-safe encoders
  // (each forward pass only reads the trained parameters) embed files
  // concurrently through the pool. (A merged multi-file batch graph was
  // measured slower: the batched node matrix blows the cache while the
  // small per-request GEMMs were never parallel to begin with.) The other
  // encoders (Path) run in file order, because they consume their
  // sampling RNG sequentially — the order separate calls would use.
  auto T0 = std::chrono::steady_clock::now();
  const size_t N = Files.size();
  Embedded E;
  E.Embs.resize(N);
  E.Targets.resize(N);
  auto EmbedOne = [&](size_t I) {
    nn::NoGradGuard NoGrad; // thread-local: held on the embedding thread
    nn::Value Emb = Model->embed({Files[I]}, &E.Targets[I]);
    if (Emb.defined())
      E.Embs[I] = Emb.val();
  };
  if (Model->supportsParallelEmbed()) {
    parallelFor(
        0, static_cast<int64_t>(N), 1,
        [&](int64_t Lo, int64_t Hi) {
          for (int64_t I = Lo; I != Hi; ++I)
            EmbedOne(static_cast<size_t>(I));
        },
        Knn.NumThreads);
  } else {
    for (size_t I = 0; I != N; ++I)
      EmbedOne(I);
  }
  EmbedCalls += N;
  EmbedMicros += microsSince(T0);
  return E;
}

/// The classifier's candidates for row \p Row of \p Probs: the top ten
/// classes of the closed vocabulary \p Full, ties broken by class id.
static std::vector<ScoredType> topClasses(const Tensor &Probs, int64_t Row,
                                          const TypeIdMap &Full) {
  std::vector<std::pair<float, int>> Ranked;
  for (int64_t C = 0; C != Probs.cols(); ++C)
    Ranked.emplace_back(Probs.at(Row, C), static_cast<int>(C));
  size_t Keep = std::min<size_t>(10, Ranked.size());
  std::partial_sort(Ranked.begin(), Ranked.begin() + static_cast<long>(Keep),
                    Ranked.end(), [](const auto &A, const auto &B) {
                      if (A.first != B.first)
                        return A.first > B.first;
                      return A.second < B.second;
                    });
  std::vector<ScoredType> Out;
  for (size_t C = 0; C != Keep; ++C)
    Out.push_back(ScoredType{Full.type(Ranked[C].second), Ranked[C].first});
  return Out;
}

/// Copies the stable identity of target \p T (index \p I of \p File's
/// Targets) into \p R — everything downstream consumers need once the
/// dataset is gone. \p Owned is the universe a loaded predictor owns (else
/// null): the truth type is re-interned there, because \p File's types
/// may live in a caller's universe that dies before the results do.
static void fillIdentity(PredictionResult &R, const FileExample &File,
                         const Target &T, size_t I, TypeUniverse *Owned) {
  R.FilePath = File.Path;
  R.TargetIdx = static_cast<int>(I);
  R.NodeIdx = T.NodeIdx;
  R.SymbolId = T.NodeIdx >= 0 &&
                       static_cast<size_t>(T.NodeIdx) < File.Graph.Nodes.size()
                   ? File.Graph.Nodes[static_cast<size_t>(T.NodeIdx)].SymbolId
                   : -1;
  R.SymbolName = T.Name;
  R.Kind = T.Kind;
  R.Truth = Owned && T.Type ? Owned->intern(T.Type) : T.Type;
}

std::vector<std::vector<PredictionResult>>
Predictor::answer(const std::vector<const FileExample *> &Files,
                  const Embedded &E) {
  const size_t N = Files.size();
  std::vector<NeighborList> Neigh;
  if (IsKnn) {
    // One bulk index probe for every target of every file, answered
    // through the pool against the already-loaded τmap. A single file's
    // embedding is already the contiguous query block and is read in
    // place; several files' blocks are gathered into one.
    int64_t NumQ = 0;
    for (const std::vector<const Target *> &T : E.Targets)
      NumQ += static_cast<int64_t>(T.size());
    std::vector<float> Gathered;
    if (N != 1) {
      Gathered.reserve(static_cast<size_t>(NumQ * Map->dim()));
      for (const Tensor &Emb : E.Embs)
        Gathered.insert(Gathered.end(), Emb.data(), Emb.data() + Emb.numel());
    }
    const float *Queries = N == 1 ? E.Embs.front().data() : Gathered.data();
    auto T0 = std::chrono::steady_clock::now();
    Neigh = Index->queryBatch(Queries, NumQ, Knn.K, Knn.EfSearch,
                              Knn.NumThreads);
    KnnMicros += microsSince(T0);
  }

  // Rank every target: Eq. 5 over its neighbours, or the classifier's
  // softmax over the closed vocabulary (row results are independent, so
  // per-file equals one stacked pass).
  const TypeIdMap &Full = Model->typeVocabs().Full;
  std::vector<std::vector<PredictionResult>> Out(N);
  size_t Row = 0;
  for (size_t F = 0; F != N; ++F) {
    Tensor Probs;
    if (!IsKnn && E.Embs[F].numel() > 0) {
      nn::NoGradGuard NoGrad;
      Probs = Model->classProbs(nn::Value::constant(E.Embs[F]));
    }
    Out[F].reserve(E.Targets[F].size());
    for (size_t I = 0; I != E.Targets[F].size(); ++I) {
      PredictionResult R;
      fillIdentity(R, *Files[F], *E.Targets[F][I], I, OwnedU.get());
      if (IsKnn)
        R.Candidates = scoreNeighbors(*Map, Neigh[Row++], Knn.P);
      else
        R.Candidates = topClasses(Probs, static_cast<int64_t>(I), Full);
      Out[F].push_back(std::move(R));
    }
  }
  return Out;
}

void Predictor::addFileMarkers(const std::string &Path, const Tensor &Emb,
                               const std::vector<const Target *> &Targets) {
  // Each marker is tagged with its source file so the editor loop can
  // retire the file's rows later. Tags are sidecar state: the marker
  // bytes and layout are unchanged.
  for (size_t I = 0; I != Targets.size(); ++I)
    if (Targets[I]->Type)
      Map->add(Emb.data() + static_cast<int64_t>(I) * Emb.cols(),
               Targets[I]->Type, Path);
}

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

std::vector<std::vector<PredictionResult>>
Predictor::predictBatch(const std::vector<const FileExample *> &Files) {
  return answer(Files, embed(Files));
}

std::vector<PredictionResult> Predictor::predictFile(const FileExample &File) {
  return std::move(predictBatch({&File}).front());
}

std::vector<std::vector<PredictionResult>>
Predictor::predictSources(const std::vector<CorpusFile> &Files) {
  std::vector<FileExample> Examples = buildExamples(Files);
  std::vector<const FileExample *> Ptrs;
  Ptrs.reserve(Examples.size());
  for (const FileExample &E : Examples)
    Ptrs.push_back(&E);
  return predictBatch(Ptrs);
}

std::vector<PredictionResult>
Predictor::predictSource(const std::string &Path, const std::string &Source) {
  return std::move(predictSources({CorpusFile{Path, Source}}).front());
}

std::vector<PredictionResult> Predictor::predictAll(ExampleSource &Files) {
  // Windowed so a whole-corpus call does not hold every file's results
  // of one giant batch at once (and a streamed split never decodes more
  // than a window's worth of shards); results are identical for any
  // window size.
  std::vector<PredictionResult> All;
  forEachWindow(Files, [&](const std::vector<const FileExample *> &W) {
    for (std::vector<PredictionResult> &Part : predictBatch(W))
      All.insert(All.end(), std::make_move_iterator(Part.begin()),
                 std::make_move_iterator(Part.end()));
  });
  return All;
}

std::vector<PredictionResult>
Predictor::annotateIncremental(const std::string &Path,
                               const std::string &Source) {
  if (!IsKnn)
    throw std::runtime_error("annotateIncremental needs a kNN predictor: a "
                             "classifier has no type map to update");
  // 1. Retire the file's previous markers: its own stale rows must never
  //    answer its queries (and a single-file session's digest therefore
  //    matches predictSource over the untouched artifact).
  Map->removeMarkersForFile(Path);
  // 2. Parse and embed only this file — exactly one encoder pass, which
  //    embedCalls() lets tests pin.
  std::vector<FileExample> Ex = buildExamples({CorpusFile{Path, Source}});
  const std::vector<const FileExample *> Files{&Ex.front()};
  Embedded E = embed(Files);
  // 3. Answer against the updated index, through predictBatch's step.
  std::vector<PredictionResult> Out = std::move(answer(Files, E).front());
  // 4. Swap in the file's current markers so other files' queries see
  //    its content. Unchanged rows resurrect their tombstones in place
  //    — the τmap is bit-identical to the pre-edit state.
  addFileMarkers(Path, E.Embs.front(), E.Targets.front());
  // 5. Amortized compaction: only past the policy ratio do tombstones get
  //    dropped and the index rebuilt (over the live rows only).
  maybeCompact();
  return Out;
}

size_t Predictor::removeMarkersForFile(const std::string &Path) {
  if (!IsKnn || !Map)
    return 0;
  size_t Removed = Map->removeMarkersForFile(Path);
  if (Removed)
    maybeCompact();
  return Removed;
}

bool Predictor::compactMarkers() {
  if (!IsKnn || !Map || !Map->compact())
    return false;
  rebuildIndex();
  return true;
}

void Predictor::maybeCompact() {
  if (Knn.CompactRatio > 0 && Map->tombstoneRatio() > Knn.CompactRatio)
    compactMarkers();
}

std::vector<PredictionResult>
Predictor::predictAll(const std::vector<FileExample> &Files) {
  VectorExampleSource Src(Files);
  return predictAll(Src);
}

uint64_t typilus::predictionDigest(const std::vector<PredictionResult> &Preds) {
  Fnv1a H;
  for (const PredictionResult &P : Preds) {
    H.bytes(P.FilePath);
    H.bytes(&P.TargetIdx, sizeof(P.TargetIdx));
    for (const ScoredType &S : P.Candidates) {
      H.bytes(S.Type->str());
      H.bytes(&S.Prob, sizeof(S.Prob));
    }
  }
  return H.value();
}
