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

/// Embeds every file of \p Files through the single-file encoder pass, in
/// inference mode, into \p Embs and \p Targets (index-aligned with
/// \p Files; files without targets keep an empty tensor). Thread-safe
/// encoders run data-parallel over the pool, capped at \p MaxWays; the
/// others (Path) run in file order, because they consume their sampling
/// RNG sequentially — the order separate single-file calls would use.
static void embedFiles(TypeModel &Model,
                       const std::vector<const FileExample *> &Files,
                       int MaxWays, std::vector<Tensor> &Embs,
                       std::vector<std::vector<const Target *>> &Targets) {
  const size_t N = Files.size();
  Embs.assign(N, Tensor());
  Targets.assign(N, {});
  auto EmbedOne = [&](size_t I) {
    nn::NoGradGuard NoGrad; // thread-local: held on the embedding thread
    nn::Value Emb = Model.embed({Files[I]}, &Targets[I]);
    if (Emb.defined())
      Embs[I] = Emb.val();
  };
  if (!Model.supportsParallelEmbed()) {
    for (size_t I = 0; I != N; ++I)
      EmbedOne(I);
    return;
  }
  parallelFor(
      0, static_cast<int64_t>(N), 1,
      [&](int64_t Lo, int64_t Hi) {
        for (int64_t I = Lo; I != Hi; ++I)
          EmbedOne(static_cast<size_t>(I));
      },
      MaxWays);
}

Predictor Predictor::knn(TypeModel &Model, ExampleSource &MapFiles,
                         const KnnOptions &Opts) {
  Predictor P(Model);
  P.IsKnn = true;
  P.Knn = Opts;
  P.Map = std::make_unique<TypeMap>(Model.config().HiddenDim);

  // Pre-size from the stream's metadata (a shard set knows its target
  // totals without decoding anything), then fill window by window: pin a
  // window of files, embed it data-parallel when the encoder is
  // thread-safe (each file's forward pass only reads the trained
  // parameters), and append markers in file order. Windowing changes no
  // bits — every file goes through the same single-file embed, and the
  // marker layout is file order either way — while residency stays one
  // window of decoded shards instead of the whole corpus.
  P.Map->reserve(MapFiles.numTargets());
  constexpr size_t WindowFiles = 32;
  size_t N = MapFiles.size();
  for (size_t Lo = 0; Lo < N; Lo += WindowFiles) {
    size_t Hi = std::min(N, Lo + WindowFiles);
    size_t W = Hi - Lo;
    std::vector<ExamplePin> Pins(W);
    std::vector<const FileExample *> Window(W);
    for (size_t I = 0; I != W; ++I)
      Window[I] = &MapFiles.get(Lo + I, Pins[I]);

    std::vector<Tensor> Embs;
    std::vector<std::vector<const Target *>> Targets;
    embedFiles(Model, Window, Opts.NumThreads, Embs, Targets);
    P.EmbedCalls += W;
    for (size_t F = 0; F != W; ++F) {
      const Tensor &E = Embs[F];
      if (E.numel() == 0)
        continue;
      // Tag each marker with its source file so the editor loop can
      // retire a file's rows later. Tags are sidecar state: the marker
      // bytes and layout are unchanged.
      for (size_t I = 0; I != Targets[F].size(); ++I)
        P.Map->add(E.data() + static_cast<int64_t>(I) * E.cols(),
                   Targets[F][I]->Type, Window[F]->Path);
    }
  }
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
// Prediction
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
  assert(IsKnn && "markers only apply to kNN predictors");
  // No index rebuild: rows appended after the index was built are
  // answered by its exact delta scan until the next compaction (or
  // explicit rebuild) folds them in.
  Map->add(Embedding, T);
}

void Predictor::addMarkersFrom(const FileExample &File) {
  assert(IsKnn && "markers only apply to kNN predictors");
  std::vector<const Target *> Targets;
  nn::NoGradGuard NoGrad;
  nn::Value Emb = Model->embed({&File}, &Targets);
  ++EmbedCalls;
  if (!Emb.defined())
    return;
  const Tensor &E = Emb.val();
  Map->reserve(Map->size() + Targets.size()); // reserve() takes a total
  for (size_t I = 0; I != Targets.size(); ++I)
    Map->add(E.data() + static_cast<int64_t>(I) * E.cols(),
             Targets[I]->Type, File.Path);
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

std::vector<PredictionResult> Predictor::predictFile(const FileExample &File) {
  return std::move(predictBatch({&File}).front());
}

std::vector<std::vector<PredictionResult>>
Predictor::predictSources(const std::vector<CorpusFile> &Files) {
  TypeUniverse *U = universe();
  if (!U)
    throw std::runtime_error(
        "predictSource needs a type universe: load an artifact or call "
        "setUniverse first");
  std::vector<FileExample> Examples;
  Examples.reserve(Files.size());
  for (const CorpusFile &F : Files)
    Examples.push_back(buildExample(F, *U, {}));
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

std::vector<PredictionResult>
Predictor::annotateIncremental(const std::string &Path,
                               const std::string &Source) {
  assert(IsKnn && "the incremental loop is a kNN-predictor feature");
  TypeUniverse *U = universe();
  if (!U)
    throw std::runtime_error(
        "annotateIncremental needs a type universe: load an artifact or "
        "call setUniverse first");
  // 1. Retire the file's previous markers: its own stale rows must never
  //    answer its queries (and a single-file session's digest therefore
  //    matches predictSource over the untouched artifact — CI pins this).
  Map->removeMarkersForFile(Path);
  // 2. Parse and embed only this file — exactly one encoder pass, which
  //    embedCalls() lets tests pin.
  FileExample Ex = buildExample(CorpusFile{Path, Source}, *U, {});
  std::vector<const Target *> Targets;
  auto EmbedT0 = std::chrono::steady_clock::now();
  nn::NoGradGuard NoGrad;
  nn::Value Emb = Model->embed({&Ex}, &Targets);
  ++EmbedCalls;
  EmbedMicros += microsSince(EmbedT0);
  std::vector<PredictionResult> Out;
  if (Emb.defined() && !Targets.empty()) {
    const Tensor &E = Emb.val();
    // 3. kNN against the updated index, through the same merged query
    //    kernel predictBatch uses.
    auto KnnT0 = std::chrono::steady_clock::now();
    std::vector<NeighborList> Neigh =
        Index->queryBatch(E.data(), static_cast<int64_t>(Targets.size()),
                          Knn.K, Knn.EfSearch, Knn.NumThreads);
    KnnMicros += microsSince(KnnT0);
    Out.reserve(Targets.size());
    for (size_t I = 0; I != Targets.size(); ++I) {
      PredictionResult R;
      fillIdentity(R, Ex, *Targets[I], I, OwnedU.get());
      R.Candidates = scoreNeighbors(*Map, Neigh[I], Knn.P);
      Out.push_back(std::move(R));
    }
    // 4. Swap in the file's current markers so other files' queries see
    //    its content. Unchanged rows resurrect their tombstones in place
    //    — the τmap is bit-identical to the pre-edit state.
    for (size_t I = 0; I != Targets.size(); ++I)
      if (Targets[I]->Type)
        Map->add(E.data() + static_cast<int64_t>(I) * E.cols(),
                 Targets[I]->Type, Path);
  }
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

std::vector<std::vector<PredictionResult>>
Predictor::predictBatch(const std::vector<const FileExample *> &Files) {
  std::vector<std::vector<PredictionResult>> Out(Files.size());
  if (Files.empty())
    return Out;

  // File-level data parallelism: each file goes through the exact
  // single-file embed call predictFile would make — bit-identity with
  // single-shot prediction holds by construction — and thread-safe
  // encoders embed files concurrently through the pool. (A merged
  // multi-file batch graph was measured slower here: the batched node
  // matrix blows the cache while the small per-request GEMMs were never
  // parallel to begin with. File granularity scales with cores instead.)
  size_t N = Files.size();
  std::vector<Tensor> Embs;
  std::vector<std::vector<const Target *>> Targets;
  auto EmbedT0 = std::chrono::steady_clock::now();
  embedFiles(*Model, Files, Knn.NumThreads, Embs, Targets);
  EmbedCalls += N;
  EmbedMicros += microsSince(EmbedT0);

  if (IsKnn) {
    // One bulk index probe for every target of every file, answered
    // through the pool against the already-loaded τmap.
    int64_t D = Map->dim();
    std::vector<float> Queries;
    int64_t NumQ = 0;
    for (size_t I = 0; I != N; ++I)
      NumQ += static_cast<int64_t>(Targets[I].size());
    Queries.reserve(static_cast<size_t>(NumQ * D));
    for (size_t I = 0; I != N; ++I)
      if (Embs[I].numel() > 0)
        Queries.insert(Queries.end(), Embs[I].data(),
                       Embs[I].data() + Embs[I].numel());
    auto KnnT0 = std::chrono::steady_clock::now();
    std::vector<NeighborList> Neigh = Index->queryBatch(
        Queries.data(), NumQ, Knn.K, Knn.EfSearch, Knn.NumThreads);
    KnnMicros += microsSince(KnnT0);
    size_t Row = 0;
    for (size_t F = 0; F != N; ++F)
      for (size_t I = 0; I != Targets[F].size(); ++I) {
        PredictionResult R;
        fillIdentity(R, *Files[F], *Targets[F][I], I, OwnedU.get());
        R.Candidates = scoreNeighbors(*Map, Neigh[Row++], Knn.P);
        Out[F].push_back(std::move(R));
      }
    return Out;
  }

  // Classification path: per-file softmax over the closed vocabulary
  // (row results are independent, so per-file equals one stacked pass).
  const TypeIdMap &Full = Model->typeVocabs().Full;
  nn::NoGradGuard NoGrad;
  for (size_t F = 0; F != N; ++F) {
    if (Embs[F].numel() == 0)
      continue;
    Tensor Probs = Model->classProbs(nn::Value::constant(Embs[F]));
    for (size_t I = 0; I != Targets[F].size(); ++I) {
      PredictionResult R;
      fillIdentity(R, *Files[F], *Targets[F][I], I, OwnedU.get());
      // Keep the top few candidates for PR sweeps.
      std::vector<std::pair<float, int>> Ranked;
      for (int64_t C = 0; C != Probs.cols(); ++C)
        Ranked.emplace_back(Probs.at(static_cast<int64_t>(I), C),
                            static_cast<int>(C));
      size_t Keep = std::min<size_t>(10, Ranked.size());
      std::partial_sort(Ranked.begin(),
                        Ranked.begin() + static_cast<long>(Keep), Ranked.end(),
                        [](const auto &A, const auto &B) {
                          if (A.first != B.first)
                            return A.first > B.first;
                          return A.second < B.second;
                        });
      for (size_t C = 0; C != Keep; ++C)
        R.Candidates.push_back(
            ScoredType{Full.type(Ranked[C].second), Ranked[C].first});
      Out[F].push_back(std::move(R));
    }
  }
  return Out;
}

std::vector<PredictionResult> Predictor::predictAll(ExampleSource &Files) {
  // Chunked so a whole-corpus call does not materialize one giant batch
  // graph (and a streamed split never decodes more than a chunk's worth
  // of shards); results are identical for any chunk size.
  constexpr size_t ChunkFiles = 32;
  std::vector<PredictionResult> All;
  size_t N = Files.size();
  for (size_t Lo = 0; Lo < N; Lo += ChunkFiles) {
    size_t Hi = std::min(N, Lo + ChunkFiles);
    std::vector<ExamplePin> Pins(Hi - Lo);
    std::vector<const FileExample *> Chunk;
    Chunk.reserve(Hi - Lo);
    for (size_t I = Lo; I != Hi; ++I)
      Chunk.push_back(&Files.get(I, Pins[I - Lo]));
    for (std::vector<PredictionResult> &Part : predictBatch(Chunk))
      All.insert(All.end(), std::make_move_iterator(Part.begin()),
                 std::make_move_iterator(Part.end()));
  }
  return All;
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
