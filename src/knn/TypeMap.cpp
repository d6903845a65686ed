//===- knn/TypeMap.cpp - τmap, kNN indexes, Eq. 5 scoring --------------------===//

#include "knn/TypeMap.h"

#include "nn/Simd.h"
#include "support/Float16.h"
#include "support/Hash.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <queue>

using namespace typilus;

const char *typilus::markerStoreName(MarkerStore S) {
  switch (S) {
  case MarkerStore::F32:
    return "f32";
  case MarkerStore::F16:
    return "f16";
  case MarkerStore::Int8:
    return "int8";
  }
  return "f32";
}

bool typilus::parseMarkerStore(std::string_view Name, MarkerStore *Out) {
  if (Name == "f32")
    *Out = MarkerStore::F32;
  else if (Name == "f16")
    *Out = MarkerStore::F16;
  else if (Name == "int8")
    *Out = MarkerStore::Int8;
  else
    return false;
  return true;
}

std::vector<ScoredType> typilus::scoreNeighbors(const TypeMap &Map,
                                                const NeighborList &Neighbors,
                                                double P) {
  // One pass over the neighbours; the distinct types (a handful for k~10)
  // accumulate in a flat array scanned linearly — no tree map, no rescans.
  std::vector<ScoredType> Result;
  Result.reserve(Neighbors.size());
  double Z = 0;
  for (auto [Idx, Dist] : Neighbors) {
    double W = std::pow(std::max(static_cast<double>(Dist), 1e-6), -P);
    TypeRef T = Map.type(static_cast<size_t>(Idx));
    Z += W;
    auto It = std::find_if(Result.begin(), Result.end(),
                           [T](const ScoredType &S) { return S.Type == T; });
    if (It == Result.end())
      Result.push_back(ScoredType{T, W});
    else
      It->Prob += W;
  }
  for (ScoredType &S : Result)
    S.Prob = Z > 0 ? S.Prob / Z : 0;
  std::sort(Result.begin(), Result.end(),
            [](const ScoredType &A, const ScoredType &B) {
              if (A.Prob != B.Prob)
                return A.Prob > B.Prob;
              return A.Type->str() < B.Type->str(); // deterministic ties
            });
  return Result;
}

//===----------------------------------------------------------------------===//
// MarkerCodec: the row layouts
//===----------------------------------------------------------------------===//

MarkerCodec::MarkerCodec(MarkerStore Store, int Dim)
    : Store(Store), D(Dim),
      RowBytes(Store == MarkerStore::F32   ? static_cast<size_t>(Dim) * 4
               : Store == MarkerStore::F16 ? static_cast<size_t>(Dim) * 2
                                           : sizeof(float) +
                                                 static_cast<size_t>(Dim)) {}

float MarkerCodec::int8Scale(const unsigned char *Row) {
  float Scale = 0.f;
  std::memcpy(&Scale, Row, sizeof(Scale)); // rows of D + 4 bytes: unaligned
  return Scale;
}

void MarkerCodec::setInt8Scale(unsigned char *Row, float Scale) {
  std::memcpy(Row, &Scale, sizeof(Scale));
}

void MarkerCodec::encode(const float *Src, unsigned char *Row) const {
  switch (Store) {
  case MarkerStore::F32:
    std::memcpy(Row, Src, RowBytes);
    return;
  case MarkerStore::F16: {
    // Software RNE encode always (support/Float16.h), so the artifact
    // bytes do not depend on the host's F16C availability.
    uint16_t *Out = reinterpret_cast<uint16_t *>(Row);
    for (int K = 0; K != D; ++K)
      Out[K] = f32ToF16Bits(Src[K]);
    return;
  }
  case MarkerStore::Int8: {
    float MaxAbs = 0.f;
    for (int K = 0; K != D; ++K)
      MaxAbs = std::max(MaxAbs, std::fabs(Src[K]));
    // All-zero rows get scale 0 and all-zero codes; decode reproduces
    // them exactly.
    float Scale = MaxAbs == 0.f ? 0.f : MaxAbs / 127.f;
    setInt8Scale(Row, Scale);
    int8_t *Codes = int8Codes(Row);
    for (int K = 0; K != D; ++K) {
      long Q = Scale == 0.f ? 0 : std::lround(Src[K] / Scale);
      Codes[K] = static_cast<int8_t>(std::min(127l, std::max(-127l, Q)));
    }
    return;
  }
  }
}

float MarkerCodec::coord(const unsigned char *Row, int K) const {
  switch (Store) {
  case MarkerStore::F32:
    return reinterpret_cast<const float *>(Row)[K];
  case MarkerStore::F16:
    return f16BitsToF32(reinterpret_cast<const uint16_t *>(Row)[K]);
  case MarkerStore::Int8:
    return int8Scale(Row) * static_cast<float>(int8Codes(Row)[K]);
  }
  return 0.f;
}

void MarkerCodec::decode(const unsigned char *Row, float *Out) const {
  if (Store == MarkerStore::F32) {
    std::memcpy(Out, Row, RowBytes);
    return;
  }
  for (int K = 0; K != D; ++K)
    Out[K] = coord(Row, K);
}

float MarkerCodec::l1(const nn::simd::KernelTable &KT, const float *Q,
                      const unsigned char *Row) const {
  switch (Store) {
  case MarkerStore::F32:
    return KT.L1(Q, reinterpret_cast<const float *>(Row), D);
  case MarkerStore::F16:
    return KT.L1F16(Q, reinterpret_cast<const uint16_t *>(Row), D);
  case MarkerStore::Int8:
    return KT.L1I8(Q, int8Codes(Row), int8Scale(Row), D);
  }
  return 0.f;
}

bool MarkerCodec::finite(const unsigned char *Row) const {
  // A non-finite int8 scale decodes every code, 0 included, to Inf or NaN.
  for (int K = 0; K != D; ++K)
    if (!std::isfinite(coord(Row, K)))
      return false;
  return true;
}

//===----------------------------------------------------------------------===//
// TypeMap: storage, dedup, quantization
//===----------------------------------------------------------------------===//

float TypeMap::l1DistanceTo(const float *Q, size_t I) const {
  return Codec.l1(nn::simd::active(), Q, row(I));
}

uint64_t TypeMap::rowHash(const unsigned char *Row, TypeRef T) const {
  return Fnv1a()
      .bytes(Row, Codec.rowBytes())
      .word(reinterpret_cast<uintptr_t>(T))
      .value();
}

int TypeMap::findRow(const std::vector<int> &Bucket, const unsigned char *Row,
                     TypeRef T) const {
  for (int J : Bucket)
    if (Types[static_cast<size_t>(J)] == T &&
        std::memcmp(row(static_cast<size_t>(J)), Row, Codec.rowBytes()) == 0)
      return J;
  return -1;
}

void TypeMap::rebuildDedupIndex() {
  // Re-key over the current markers (which may include duplicates when a
  // pre-compaction artifact was loaded — first occurrences win, so later
  // adds dedupe against the loaded content without altering it).
  DedupIndex.clear();
  DedupIndexStale = false;
  for (size_t I = 0; I != Types.size(); ++I) {
    std::vector<int> &Bucket = DedupIndex[rowHash(row(I), Types[I])];
    if (findRow(Bucket, row(I), Types[I]) < 0)
      Bucket.push_back(static_cast<int>(I));
  }
}

int TypeMap::fileIdFor(std::string_view FileTag) {
  if (FileTag.empty())
    return -1;
  auto It = FileIdOf.find(std::string(FileTag));
  if (It != FileIdOf.end())
    return It->second;
  int Id = static_cast<int>(FileTags.size());
  FileTags.emplace_back(FileTag);
  FileIdOf.emplace(FileTags.back(), Id);
  return Id;
}

void TypeMap::tagRow(size_t I, int FileId) {
  FileOf[I] = FileId;
  if (FileId < 0)
    return;
  std::vector<int> &Rows = RowsOfFile[FileId];
  // Appends during a bulk fill are already ascending; resurrection can
  // land mid-list, so keep the list sorted with an ordered insert.
  auto At = std::lower_bound(Rows.begin(), Rows.end(), static_cast<int>(I));
  if (At == Rows.end() || *At != static_cast<int>(I))
    Rows.insert(At, static_cast<int>(I));
}

void TypeMap::reindexFiles() {
  RowsOfFile.clear();
  for (size_t I = 0; I != FileOf.size(); ++I)
    if (FileOf[I] >= 0)
      RowsOfFile[FileOf[I]].push_back(static_cast<int>(I));
}

std::string_view TypeMap::fileTag(size_t I) const {
  int Id = FileOf[I];
  return Id < 0 ? std::string_view() : std::string_view(FileTags[Id]);
}

std::vector<int> TypeMap::markersForFile(std::string_view FileTag) const {
  auto It = FileIdOf.find(std::string(FileTag));
  if (It == FileIdOf.end())
    return {};
  auto Rows = RowsOfFile.find(It->second);
  return Rows == RowsOfFile.end() ? std::vector<int>() : Rows->second;
}

size_t TypeMap::removeMarkersForFile(std::string_view FileTag) {
  auto It = FileIdOf.find(std::string(FileTag));
  if (It == FileIdOf.end())
    return 0;
  auto Rows = RowsOfFile.find(It->second);
  if (Rows == RowsOfFile.end())
    return 0;
  size_t Removed = 0;
  for (int I : Rows->second)
    if (!Dead[static_cast<size_t>(I)]) {
      Dead[static_cast<size_t>(I)] = 1;
      ++NumDead;
      ++Removed;
    }
  // The file no longer owns live rows; a dead row re-tags on resurrection.
  RowsOfFile.erase(Rows);
  return Removed;
}

bool TypeMap::compact() {
  if (NumDead == 0)
    return false;
  size_t Next = 0;
  for (size_t I = 0; I != Types.size(); ++I) {
    if (Dead[I])
      continue;
    if (Next != I) {
      std::memcpy(row(Next), row(I), Codec.rowBytes());
      Types[Next] = Types[I];
      FileOf[Next] = FileOf[I];
    }
    ++Next;
  }
  Coords.resize(Next * Codec.rowBytes());
  Types.resize(Next);
  FileOf.resize(Next);
  Dead.assign(Next, 0);
  NumDead = 0;
  reindexFiles();
  DedupIndex.clear();
  DedupIndexStale = true;
  return true;
}

bool TypeMap::add(const float *Embedding, TypeRef T) {
  return add(Embedding, T, std::string_view());
}

bool TypeMap::add(const float *Embedding, TypeRef T,
                  std::string_view FileTag) {
  if (DedupIndexStale)
    rebuildDedupIndex();
  // Encode the candidate in place as the next row; dedup compares encoded
  // rows, so post-rounding collisions also collapse. A duplicate hands the
  // row back.
  const size_t N = Types.size();
  Coords.resize((N + 1) * Codec.rowBytes());
  unsigned char *Row = row(N);
  Codec.encode(Embedding, Row);
  std::vector<int> &Bucket = DedupIndex[rowHash(Row, T)];
  if (int I = findRow(Bucket, Row, T); I >= 0) {
    Coords.resize(N * Codec.rowBytes());
    if (Dead[static_cast<size_t>(I)]) {
      // Resurrect the tombstoned row in place: the marker layout (row
      // index, bytes, order) is exactly what it was before the removal,
      // so every index over the map — and every prediction — is
      // bit-identical to the pre-removal state.
      Dead[static_cast<size_t>(I)] = 0;
      --NumDead;
      tagRow(static_cast<size_t>(I), fileIdFor(FileTag));
      return true;
    }
    ++Dropped;
    return false;
  }
  Bucket.push_back(static_cast<int>(N));
  Types.push_back(T);
  FileOf.push_back(-1);
  Dead.push_back(0);
  tagRow(N, fileIdFor(FileTag));
  return true;
}

void TypeMap::quantize(MarkerStore NewStore) {
  if (NewStore == store())
    return;
  assert(store() == MarkerStore::F32 &&
         "quantize converts a freshly built f32 map; re-quantization of an "
         "already-quantized store is lossy-on-lossy and unsupported");
  assert(NumDead == 0 && "compact() before quantize()");
  MarkerCodec To(NewStore, dim());
  std::vector<unsigned char> Encoded(Types.size() * To.rowBytes());
  for (size_t I = 0; I != Types.size(); ++I)
    To.encode(embedding(I), Encoded.data() + I * To.rowBytes());
  Coords = std::move(Encoded);
  Codec = To;
  // Rounding can merge rows that were distinct in f32; the index keys are
  // stale either way.
  DedupIndex.clear();
  DedupIndexStale = true;
}

size_t TypeMap::subsampleCoreset(size_t MaxMarkers) {
  assert(store() == MarkerStore::F32 &&
         "subsample before quantize: k-center needs the exact coordinates");
  assert(NumDead == 0 && "compact() before subsampling");
  if (MaxMarkers == 0 || Types.size() <= MaxMarkers)
    return Types.size();

  // Group marker indices by type, in first-occurrence order of the types
  // (NOT interned-pointer order, which varies run to run).
  std::vector<TypeRef> TypeOrder;
  std::unordered_map<TypeRef, std::vector<int>> Groups;
  for (size_t I = 0; I != Types.size(); ++I) {
    std::vector<int> &G = Groups[Types[I]];
    if (G.empty())
      TypeOrder.push_back(Types[I]);
    G.push_back(static_cast<int>(I));
  }

  // Budget: one marker per type while the budget lasts (first-occurrence
  // order decides who misses out when MaxMarkers < #types), then the
  // remainder proportionally to each type's excess markers, leftovers
  // round-robin in type order.
  size_t NumTypes = TypeOrder.size();
  std::vector<size_t> Alloc(NumTypes, 0);
  size_t SumExcess = 0;
  for (size_t G = 0; G != NumTypes; ++G) {
    if (G < MaxMarkers)
      Alloc[G] = 1;
    SumExcess += Groups[TypeOrder[G]].size() - 1;
  }
  if (MaxMarkers > NumTypes && SumExcess > 0) {
    size_t Extra = MaxMarkers - NumTypes;
    size_t Given = 0;
    for (size_t G = 0; G != NumTypes; ++G) {
      size_t Excess = Groups[TypeOrder[G]].size() - 1;
      size_t Share = std::min(Excess, Extra * Excess / SumExcess);
      Alloc[G] += Share;
      Given += Share;
    }
    // Flooring leaves a few slots; hand them out one at a time to groups
    // that can still grow.
    while (Given < Extra) {
      bool Any = false;
      for (size_t G = 0; G != NumTypes && Given < Extra; ++G)
        if (Alloc[G] < Groups[TypeOrder[G]].size()) {
          ++Alloc[G];
          ++Given;
          Any = true;
        }
      if (!Any)
        break;
    }
  }

  // Greedy k-center within each type: seed with the type's first marker,
  // then repeatedly take the marker farthest (L1) from the chosen set.
  std::vector<int> Kept;
  Kept.reserve(MaxMarkers);
  for (size_t G = 0; G != NumTypes; ++G) {
    const std::vector<int> &Items = Groups[TypeOrder[G]];
    size_t Want = std::min(Alloc[G], Items.size());
    if (Want == 0)
      continue;
    if (Want == Items.size()) {
      Kept.insert(Kept.end(), Items.begin(), Items.end());
      continue;
    }
    std::vector<float> MinDist(Items.size(),
                               std::numeric_limits<float>::max());
    std::vector<char> Chosen(Items.size(), 0);
    size_t Last = 0;
    Chosen[0] = 1;
    Kept.push_back(Items[0]);
    for (size_t Picked = 1; Picked != Want; ++Picked) {
      const float *C = embedding(static_cast<size_t>(Items[Last]));
      size_t Best = SIZE_MAX;
      float BestDist = -1.f;
      for (size_t I = 0; I != Items.size(); ++I) {
        if (Chosen[I])
          continue;
        float Dist = l1DistanceTo(C, static_cast<size_t>(Items[I]));
        if (Dist < MinDist[I])
          MinDist[I] = Dist;
        // Strict > keeps ties on the lowest index — deterministic.
        if (MinDist[I] > BestDist) {
          BestDist = MinDist[I];
          Best = I;
        }
      }
      if (Best == SIZE_MAX)
        break;
      Chosen[Best] = 1;
      Kept.push_back(Items[Best]);
      Last = Best;
    }
  }

  // Rebuild in original marker order so survivors keep their relative
  // layout (and the result is independent of the per-type pick order).
  std::sort(Kept.begin(), Kept.end());
  std::vector<unsigned char> NewCoords;
  NewCoords.reserve(Kept.size() * Codec.rowBytes());
  std::vector<TypeRef> NewTypes;
  NewTypes.reserve(Kept.size());
  std::vector<int32_t> NewFileOf;
  NewFileOf.reserve(Kept.size());
  for (int I : Kept) {
    const unsigned char *Row = row(static_cast<size_t>(I));
    NewCoords.insert(NewCoords.end(), Row, Row + Codec.rowBytes());
    NewTypes.push_back(Types[static_cast<size_t>(I)]);
    NewFileOf.push_back(FileOf[static_cast<size_t>(I)]);
  }
  Coords = std::move(NewCoords);
  Types = std::move(NewTypes);
  FileOf = std::move(NewFileOf);
  Dead.assign(Types.size(), 0);
  reindexFiles();
  DedupIndex.clear();
  DedupIndexStale = true;
  return Types.size();
}

/// The τmap chunk tag of each store; the store is the index.
static constexpr const char *kChunkTags[] = {"tmap", "tm16", "tmq8"};

const char *TypeMap::chunkTag() const {
  return kChunkTags[static_cast<size_t>(store())];
}

uint32_t TypeMap::formatVersion() const {
  return store() == MarkerStore::F32 ? 1 : 2;
}

void TypeMap::save(ArchiveWriter &W,
                   const std::map<TypeRef, int> &TypeIds) const {
  assert(NumDead == 0 &&
         "tombstones are in-memory session state: compact() before save()");
  const size_t N = Types.size(), Cells = N * static_cast<size_t>(dim());
  W.writeI32(dim());
  W.writeU64(N);
  switch (store()) {
  case MarkerStore::F32:
    W.writeF32Array(reinterpret_cast<const float *>(Coords.data()), Cells);
    break;
  case MarkerStore::F16:
    W.writeU16Array(reinterpret_cast<const uint16_t *>(Coords.data()), Cells);
    break;
  case MarkerStore::Int8:
    for (size_t I = 0; I != N; ++I)
      W.writeF32(MarkerCodec::int8Scale(row(I)));
    for (size_t I = 0; I != N; ++I)
      W.writeBytes(MarkerCodec::int8Codes(row(I)), static_cast<size_t>(dim()));
    break;
  }
  for (TypeRef T : Types)
    W.writeI32(TypeIds.at(T));
}

bool TypeMap::load(const ArchiveReader &R, const std::vector<TypeRef> &ById,
                   std::string *Err) {
  // Exactly one τmap chunk is present and its tag names the store.
  // Probing the quantized tags first makes the "missing chunk" error name
  // the canonical f32 tag.
  MarkerStore S = MarkerStore::F32;
  for (MarkerStore Q : {MarkerStore::F16, MarkerStore::Int8})
    if (R.hasChunk(kChunkTags[static_cast<size_t>(Q)])) {
      S = Q;
      break;
    }
  ArchiveCursor C = R.chunk(kChunkTags[static_cast<size_t>(S)], Err);
  auto Malformed = [Err] {
    if (Err && Err->empty())
      *Err = "malformed type-map snapshot";
    return false;
  };
  int32_t Dim = C.readI32();
  uint64_t Count = C.readU64();
  if (!C.ok() || Dim <= 0)
    return Malformed();
  // Bound the marker count against the payload before any allocation, so
  // no adversarial count/dim pair can overflow the byte-size comparison
  // (same policy as nn::readTensor). Every marker costs its row bytes plus
  // a 4-byte type id.
  MarkerCodec NewCodec(S, Dim);
  if (Count > C.remaining() / (NewCodec.rowBytes() + 4))
    return Malformed();
  const size_t N = static_cast<size_t>(Count);
  const size_t Cells = N * static_cast<size_t>(Dim);
  std::vector<unsigned char> NewCoords(N * NewCodec.rowBytes());
  auto Row = [&](size_t I) {
    return NewCoords.data() + I * NewCodec.rowBytes();
  };
  switch (S) {
  case MarkerStore::F32:
    C.readF32Array(reinterpret_cast<float *>(NewCoords.data()), Cells);
    break;
  case MarkerStore::F16:
    C.readU16Array(reinterpret_cast<uint16_t *>(NewCoords.data()), Cells);
    break;
  case MarkerStore::Int8:
    for (size_t I = 0; I != N; ++I)
      MarkerCodec::setInt8Scale(Row(I), C.readF32());
    for (size_t I = 0; I != N; ++I)
      C.readBytes(MarkerCodec::int8Codes(Row(I)), static_cast<size_t>(Dim));
    break;
  }
  // A NaN distance would break neighborLess's strict weak order, which
  // the index sorts and merges rely on.
  for (size_t I = 0; I != N; ++I)
    if (!NewCodec.finite(Row(I)))
      return Malformed();
  std::vector<TypeRef> NewTypes;
  NewTypes.reserve(N);
  for (size_t I = 0; I != N; ++I) {
    int Idx = C.readI32();
    if (!C.ok() || Idx < 0 || static_cast<size_t>(Idx) >= ById.size()) {
      if (Err && Err->empty())
        *Err = "type-map marker references a type outside the type table";
      return false;
    }
    NewTypes.push_back(ById[static_cast<size_t>(Idx)]);
  }
  Codec = NewCodec;
  Coords = std::move(NewCoords);
  Types = std::move(NewTypes);
  // Tags and tombstones are never serialized: a loaded snapshot starts
  // with every marker live and untagged.
  FileOf.assign(Types.size(), -1);
  Dead.assign(Types.size(), 0);
  NumDead = 0;
  FileTags.clear();
  FileIdOf.clear();
  RowsOfFile.clear();
  // Loading stays a byte copy: the dedup index is marked stale and
  // rebuilt by the first add() — serving processes, which never insert,
  // never pay the O(N·D) re-keying or hold the index at all.
  DedupIndex.clear();
  DedupIndexStale = true;
  Dropped = 0;
  return true;
}

//===----------------------------------------------------------------------===//
// kNN indexes
//===----------------------------------------------------------------------===//

const char *typilus::knnIndexName(KnnIndexKind K) {
  switch (K) {
  case KnnIndexKind::Exact:
    return "exact";
  case KnnIndexKind::Annoy:
    return "annoy";
  case KnnIndexKind::Hnsw:
    return "hnsw";
  }
  return "exact";
}

bool typilus::parseKnnIndexKind(std::string_view Name, KnnIndexKind *Out) {
  for (KnnIndexKind K :
       {KnnIndexKind::Exact, KnnIndexKind::Annoy, KnnIndexKind::Hnsw})
    if (Name == knnIndexName(K)) {
      *Out = K;
      return true;
    }
  return false;
}

//===----------------------------------------------------------------------===//
// The shared query path and the kind factory
//===----------------------------------------------------------------------===//

std::vector<NeighborList> KnnIndex::queryBatch(const float *Qs,
                                               int64_t NumQueries, int K,
                                               int Budget, int MaxWays) const {
  std::vector<NeighborList> Results =
      queryIndexed(Qs, NumQueries, K, Budget, MaxWays);
  // Rows appended after the build are invisible to the engine; an exact
  // scan over that delta merges into each answer under neighborLess, the
  // order every engine ranks by, so folding the delta into a rebuilt
  // index would change no bits.
  const size_t From = indexedMarkers();
  const size_t Keep = static_cast<size_t>(std::max(K, 0));
  const int64_t D = Map.dim();
  if (From < Map.size())
    for (int64_t Q = 0; Q != NumQueries; ++Q) {
      NeighborList &L = Results[static_cast<size_t>(Q)];
      for (size_t I = From; I != Map.size(); ++I)
        if (Map.isLive(I))
          L.emplace_back(static_cast<int>(I), Map.l1DistanceTo(Qs + Q * D, I));
      std::sort(L.begin(), L.end(), neighborLess);
      if (L.size() > Keep)
        L.resize(Keep);
    }
  return Results;
}

NeighborList KnnIndex::query(const float *Q, int K, int Budget) const {
  return std::move(queryBatch(Q, 1, K, Budget, /*MaxWays=*/1).front());
}

std::unique_ptr<KnnIndex> typilus::buildIndex(KnnIndexKind Kind,
                                              const TypeMap &Map,
                                              int MaxWays) {
  if (Map.size() == 0)
    return std::make_unique<ExactIndex>(Map);
  switch (Kind) {
  case KnnIndexKind::Exact:
    break;
  case KnnIndexKind::Annoy:
    return std::make_unique<AnnoyIndex>(Map, /*NumTrees=*/8, /*LeafSize=*/16,
                                        /*Seed=*/0xA220, MaxWays);
  case KnnIndexKind::Hnsw:
    return std::make_unique<HnswIndex>(Map, /*M=*/16, /*EfConstruction=*/128,
                                       /*Seed=*/0x45317, MaxWays);
  }
  return std::make_unique<ExactIndex>(Map);
}

std::unique_ptr<KnnIndex> typilus::loadIndex(KnnIndexKind Kind,
                                             const ArchiveReader &R,
                                             const TypeMap &Map,
                                             std::string *Err) {
  const char *Tag = Kind == KnnIndexKind::Annoy  ? AnnoyIndex::ChunkTag
                    : Kind == KnnIndexKind::Hnsw ? HnswIndex::ChunkTag
                                                 : nullptr;
  // Only the kind the pred chunk names may ship a snapshot: a stray chunk
  // of another kind would otherwise ride along into every re-save.
  for (const char *Other : {AnnoyIndex::ChunkTag, HnswIndex::ChunkTag})
    if (Other != Tag && R.hasChunk(Other)) {
      if (Err)
        *Err = std::string("invalid artifact: index chunk '") + Other +
               "' does not match the predictor's " + knnIndexName(Kind) +
               " index";
      return nullptr;
    }
  if (!Tag || (!R.hasChunk(Tag) && Map.size() == 0))
    return std::make_unique<ExactIndex>(Map);
  // A missing chunk is a failed cursor: the engine's loader then fails
  // with the archive's "missing chunk" error.
  ArchiveCursor C = R.chunk(Tag, Err);
  if (Kind == KnnIndexKind::Annoy)
    return AnnoyIndex::load(C, Map, Err);
  return HnswIndex::load(C, Map, Err);
}

//===----------------------------------------------------------------------===//
// ExactIndex
//===----------------------------------------------------------------------===//

namespace {

/// Marker rows per streamed tile: one tile's coordinates stay resident
/// while every query of the block scans it, so a query block reads the
/// marker array once from memory instead of once per query.
constexpr size_t kMarkerTile = 256;
/// Queries per block — also queryIndexed's parallelFor grain, so tiny
/// batches form a handful of tile-sized tasks instead of one per query.
constexpr int64_t kQueryTile = 16;

/// Bounded max-heap push: keeps the K smallest candidates under
/// neighborLess, worst on top.
inline void pushBounded(NeighborList &H, int K, std::pair<int, float> Cand) {
  if (static_cast<int>(H.size()) < K) {
    H.push_back(Cand);
    std::push_heap(H.begin(), H.end(), neighborLess);
  } else if (neighborLess(Cand, H.front())) {
    std::pop_heap(H.begin(), H.end(), neighborLess);
    H.back() = Cand;
    std::push_heap(H.begin(), H.end(), neighborLess);
  }
}

} // namespace

void ExactIndex::queryBlock(const float *Qs, int64_t QBegin, int64_t QEnd,
                            int K, std::vector<NeighborList> &Heaps,
                            std::vector<NeighborList> &Results) const {
  const nn::simd::KernelTable &KT = nn::simd::active();
  const int64_t D = Map.dim();
  const size_t N = Map.size();
  const size_t NumQ = static_cast<size_t>(QEnd - QBegin);
  if (K <= 0)
    return; // Results entries stay default-empty, like the legacy Keep=0.
  if (Heaps.size() < NumQ)
    Heaps.resize(NumQ);
  // A heap never holds more than the map, whatever K asks for.
  const size_t Bound = std::min(static_cast<size_t>(K), N);
  for (size_t Q = 0; Q != NumQ; ++Q) {
    Heaps[Q].clear();
    Heaps[Q].reserve(Bound);
  }
  const MarkerCodec &Codec = Map.codec();
  for (size_t MB = 0; MB < N; MB += kMarkerTile) {
    const size_t ME = std::min(N, MB + kMarkerTile);
    for (size_t Q = 0; Q != NumQ; ++Q) {
      const float *Query = Qs + (QBegin + static_cast<int64_t>(Q)) * D;
      NeighborList &H = Heaps[Q];
      for (size_t I = MB; I != ME; ++I)
        if (Map.isLive(I))
          pushBounded(H, K,
                      {static_cast<int>(I), Codec.l1(KT, Query, Map.row(I))});
    }
  }
  for (size_t Q = 0; Q != NumQ; ++Q) {
    NeighborList &H = Heaps[Q];
    std::sort_heap(H.begin(), H.end(), neighborLess);
    Results[static_cast<size_t>(QBegin) + Q] = H;
  }
}

std::vector<NeighborList> ExactIndex::queryIndexed(const float *Qs,
                                                   int64_t NumQueries, int K,
                                                   int /*Budget*/,
                                                   int MaxWays) const {
  std::vector<NeighborList> Results(static_cast<size_t>(NumQueries));
  parallelFor(
      0, NumQueries, kQueryTile,
      [&](int64_t Lo, int64_t Hi) {
        // Per-chunk scratch: the block heaps are reused across every
        // query tile of this chunk — no per-query allocation at all.
        std::vector<NeighborList> Heaps;
        for (int64_t QB = Lo; QB < Hi; QB += kQueryTile)
          queryBlock(Qs, QB, std::min(Hi, QB + kQueryTile), K, Heaps,
                     Results);
      },
      MaxWays);
  return Results;
}

//===----------------------------------------------------------------------===//
// AnnoyIndex
//===----------------------------------------------------------------------===//

AnnoyIndex::AnnoyIndex(const TypeMap &Map, int NumTrees, int LeafSize,
                       uint64_t Seed, int MaxWays)
    : KnnIndex(Map), LeafSize(LeafSize) {
  // Derive an independent stream per tree up front; tree T's shape is then
  // a function of (Map, Seed, T) alone, so building the forest one pool
  // task per tree yields exactly the serial forest.
  Rng Base(Seed);
  std::vector<Rng> TreeRngs;
  TreeRngs.reserve(static_cast<size_t>(NumTrees));
  for (int T = 0; T != NumTrees; ++T)
    TreeRngs.push_back(Base.fork(static_cast<uint64_t>(T)));

  std::vector<int> All(Map.size());
  for (size_t I = 0; I != Map.size(); ++I)
    All[I] = static_cast<int>(I);

  std::vector<std::vector<BuildNode>> TreeNodes(
      static_cast<size_t>(NumTrees));
  std::vector<int> TreeRoots(static_cast<size_t>(NumTrees), -1);
  parallelFor(
      0, NumTrees, 1,
      [&](int64_t Lo, int64_t Hi) {
        for (int64_t T = Lo; T != Hi; ++T)
          TreeRoots[static_cast<size_t>(T)] =
              buildTree(TreeNodes[static_cast<size_t>(T)], All,
                        TreeRngs[static_cast<size_t>(T)], 0);
      },
      MaxWays);

  // Merge the per-tree node arrays, rebasing child links.
  size_t Total = 0;
  for (const auto &TN : TreeNodes)
    Total += TN.size();
  Nodes.reserve(Total);
  Roots.reserve(static_cast<size_t>(NumTrees));
  for (int T = 0; T != NumTrees; ++T) {
    int Offset = static_cast<int>(Nodes.size());
    for (BuildNode &N : TreeNodes[static_cast<size_t>(T)]) {
      if (N.Left >= 0)
        N.Left += Offset;
      if (N.Right >= 0)
        N.Right += Offset;
      Nodes.push_back(std::move(N));
    }
    Roots.push_back(TreeRoots[static_cast<size_t>(T)] + Offset);
  }
}

static_assert(sizeof(int) == 4,
              "index snapshots store adjacency as raw i32 runs");

void AnnoyIndex::save(ArchiveWriter &W) const {
  W.writeI32(LeafSize);
  W.writeU64(Nodes.size());
  for (const BuildNode &N : Nodes) {
    W.writeI32(N.SplitDim);
    W.writeF32(N.Threshold);
    W.writeI32(N.Left);
    W.writeI32(N.Right);
    W.writeU64(N.Items.size());
    // The leaf-item runs are the bulk of a forest snapshot; the array
    // writer's LE fast path emits the same bytes as the historical
    // per-item writeI32 loop in one append.
    W.writeI32Array(reinterpret_cast<const int32_t *>(N.Items.data()),
                    N.Items.size());
  }
  W.writeU64(Roots.size());
  W.writeI32Array(reinterpret_cast<const int32_t *>(Roots.data()),
                  Roots.size());
}

std::unique_ptr<AnnoyIndex> AnnoyIndex::load(ArchiveCursor &C,
                                             const TypeMap &Map,
                                             std::string *Err) {
  auto Fail = [&](const char *Why) {
    if (Err && Err->empty())
      *Err = std::string("malformed kNN index snapshot: ") + Why;
    return nullptr;
  };
  std::unique_ptr<AnnoyIndex> Idx(new AnnoyIndex(Map, LoadShellTag{}));
  Idx->LeafSize = C.readI32();
  uint64_t NumNodes = C.readU64();
  if (!C.ok() || NumNodes > C.remaining())
    return Fail("node count");
  Idx->Nodes.reserve(static_cast<size_t>(NumNodes));
  for (uint64_t I = 0; I != NumNodes; ++I) {
    BuildNode N;
    N.SplitDim = C.readI32();
    N.Threshold = C.readF32();
    N.Left = C.readI32();
    N.Right = C.readI32();
    uint64_t NumItems = C.readU64();
    if (!C.ok() || NumItems > C.remaining())
      return Fail("leaf payload");
    bool IsLeaf = N.SplitDim < 0;
    // buildTree appends children after their parent, so valid links are
    // strictly increasing; enforcing that here also rules out cycles (a
    // crafted self-link would otherwise make query() loop forever).
    if (!IsLeaf &&
        (N.SplitDim >= Map.dim() || static_cast<uint64_t>(N.Left) <= I ||
         static_cast<uint64_t>(N.Right) <= I || N.Left < 0 || N.Right < 0 ||
         static_cast<uint64_t>(N.Left) >= NumNodes ||
         static_cast<uint64_t>(N.Right) >= NumNodes))
      return Fail("split node links");
    // A NaN margin would become a NaN priority in queryOne's heap, which
    // breaks its strict weak order.
    if (!std::isfinite(N.Threshold))
      return Fail("non-finite split threshold");
    N.Items.resize(static_cast<size_t>(NumItems));
    // Bulk read, then validate: same acceptance set as the historical
    // per-item loop, one bounds-checked copy instead of NumItems reads.
    C.readI32Array(reinterpret_cast<int32_t *>(N.Items.data()),
                   N.Items.size());
    if (!C.ok())
      return Fail("leaf payload");
    for (int It : N.Items)
      if (It < 0 || static_cast<size_t>(It) >= Map.size())
        return Fail("leaf item out of range");
    Idx->Nodes.push_back(std::move(N));
  }
  uint64_t NumRoots = C.readU64();
  if (!C.ok() || NumRoots > C.remaining())
    return Fail("root count");
  Idx->Roots.resize(static_cast<size_t>(NumRoots));
  C.readI32Array(reinterpret_cast<int32_t *>(Idx->Roots.data()),
                 Idx->Roots.size());
  if (!C.ok())
    return Fail("root count");
  for (int R : Idx->Roots)
    if (R < 0 || static_cast<uint64_t>(R) >= NumNodes)
      return Fail("root out of range");
  return Idx;
}

int AnnoyIndex::buildTree(std::vector<BuildNode> &Out, std::vector<int> Items,
                          Rng &R, int Depth) const {
  int Idx = static_cast<int>(Out.size());
  Out.emplace_back();
  if (static_cast<int>(Items.size()) <= LeafSize || Depth > 24) {
    Out[static_cast<size_t>(Idx)].Items = std::move(Items);
    return Idx;
  }
  // Annoy-style split: pick two random markers; split on the coordinate
  // where they are furthest apart, at their midpoint. Coordinates decode
  // through the store, so quantized maps grow the same kind of forest
  // (over their rounded coordinates).
  int D = Map.dim();
  size_t IA = static_cast<size_t>(Items[R.uniformInt(Items.size())]);
  size_t IB = static_cast<size_t>(Items[R.uniformInt(Items.size())]);
  int BestDim = 0;
  float BestSpread = -1;
  float ABest = 0, BBest = 0;
  for (int I = 0; I != D; ++I) {
    float AC = Map.coord(IA, I), BC = Map.coord(IB, I);
    float Spread = std::fabs(AC - BC);
    if (Spread > BestSpread) {
      BestSpread = Spread;
      BestDim = I;
      ABest = AC;
      BBest = BC;
    }
  }
  float Threshold = 0.5f * (ABest + BBest);
  std::vector<int> Left, Right;
  for (int It : Items) {
    if (Map.coord(static_cast<size_t>(It), BestDim) < Threshold)
      Left.push_back(It);
    else
      Right.push_back(It);
  }
  // Degenerate split (identical points): make a leaf.
  if (Left.empty() || Right.empty()) {
    Out[static_cast<size_t>(Idx)].Items = std::move(Items);
    return Idx;
  }
  int L = buildTree(Out, std::move(Left), R, Depth + 1);
  int Rt = buildTree(Out, std::move(Right), R, Depth + 1);
  Out[static_cast<size_t>(Idx)].SplitDim = BestDim;
  Out[static_cast<size_t>(Idx)].Threshold = Threshold;
  Out[static_cast<size_t>(Idx)].Left = L;
  Out[static_cast<size_t>(Idx)].Right = Rt;
  return Idx;
}

NeighborList AnnoyIndex::queryOne(const float *Q, int K,
                                  ProbeScratch &S) const {
  if (Map.size() == 0 || K <= 0)
    return {};
  // Taken in 64 bits and clamped: once every marker is a candidate a
  // larger bound collects nothing more.
  const size_t SearchK = static_cast<size_t>(
      std::min(static_cast<int64_t>(Roots.size()) * K * 4,
               static_cast<int64_t>(Map.size())));
  // Best-first traversal over all trees: priority = margin to the split
  // plane (0 within the chosen side), ties broken by node index. Each node
  // is pushed at most once, so this is a strict total order over the heap
  // and the pop sequence is fixed by it alone. Descending into the Near
  // child directly whenever it orders before the heap top (Far already
  // pushed) is exactly the pop that would come next, minus the push/pop.
  using Entry = std::pair<float, int>; // (priority, node)
  const std::greater<Entry> MinFirst;
  std::vector<Entry> &Heap = S.Heap;
  Heap.clear();
  for (int Root : Roots) {
    Heap.emplace_back(0.f, Root);
    std::push_heap(Heap.begin(), Heap.end(), MinFirst);
  }
  if (S.SeenAt.size() < Map.size())
    S.SeenAt.resize(Map.size(), 0);
  if (++S.Generation == 0) { // wrap: clear the stamps once per 2^32 probes
    std::fill(S.SeenAt.begin(), S.SeenAt.end(), 0u);
    S.Generation = 1;
  }
  // One spare slot: a leaf writes its item before deciding to keep it.
  if (S.Candidates.size() < Map.size() + 1)
    S.Candidates.resize(Map.size() + 1);
  int *Cand = S.Candidates.data();
  size_t Count = 0;
  while (!Heap.empty() && Count < SearchK) {
    std::pop_heap(Heap.begin(), Heap.end(), MinFirst);
    auto [Prio, NodeIdx] = Heap.back();
    Heap.pop_back();
    for (;;) {
      const BuildNode &N = Nodes[static_cast<size_t>(NodeIdx)];
      if (N.SplitDim < 0) {
        // Tombstoned rows stay in the leaves until compact(); skipping
        // them here (a no-op on a tombstone-free map) is what makes
        // removal effective without touching the forest.
        for (int It : N.Items) {
          const size_t I = static_cast<size_t>(It);
          const bool Fresh = S.SeenAt[I] != S.Generation;
          S.SeenAt[I] = S.Generation;
          Cand[Count] = It;
          Count += Fresh & Map.isLive(I);
        }
        break;
      }
      float Margin = Q[N.SplitDim] - N.Threshold;
      int Near = Margin < 0 ? N.Left : N.Right;
      int Far = Margin < 0 ? N.Right : N.Left;
      Heap.emplace_back(Prio + std::fabs(Margin), Far);
      std::push_heap(Heap.begin(), Heap.end(), MinFirst);
      if (Entry(Prio, Near) < Heap.front()) {
        NodeIdx = Near;
        continue;
      }
      Heap.emplace_back(Prio, Near);
      std::push_heap(Heap.begin(), Heap.end(), MinFirst);
      break;
    }
  }
  // Exact re-rank of the candidate union (over the stored representation).
  const nn::simd::KernelTable &KT = nn::simd::active();
  const MarkerCodec &Codec = Map.codec();
  NeighborList &Scored = S.Scored;
  Scored.resize(Count);
  for (size_t C = 0; C != Count; ++C)
    Scored[C] = {Cand[C],
                 Codec.l1(KT, Q, Map.row(static_cast<size_t>(Cand[C])))};
  const size_t Keep = std::min(static_cast<size_t>(K), Count);
  std::partial_sort(Scored.begin(), Scored.begin() + static_cast<long>(Keep),
                    Scored.end(), neighborLess);
  return NeighborList(Scored.begin(), Scored.begin() + static_cast<long>(Keep));
}

std::vector<NeighborList> AnnoyIndex::queryIndexed(const float *Qs,
                                                   int64_t NumQueries, int K,
                                                   int /*Budget*/,
                                                   int MaxWays) const {
  std::vector<NeighborList> Results(static_cast<size_t>(NumQueries));
  const int D = Map.dim();
  parallelFor(
      0, NumQueries, 1,
      [&](int64_t Lo, int64_t Hi) {
        ProbeScratch S; // reused across this chunk's queries
        for (int64_t I = Lo; I != Hi; ++I)
          Results[static_cast<size_t>(I)] = queryOne(Qs + I * D, K, S);
      },
      MaxWays);
  return Results;
}

//===----------------------------------------------------------------------===//
// HnswIndex
//===----------------------------------------------------------------------===//

int HnswIndex::levelFor(size_t I) const {
  // One derived stream per row: level_I depends on (Seed, I) alone, so
  // neither insertion order nor thread count can perturb the hierarchy.
  Rng R = Rng(Seed).fork(static_cast<uint64_t>(I));
  double U = R.uniformReal();
  if (U < 1e-12)
    U = 1e-12;
  double ML = 1.0 / std::log(std::max(2.0, static_cast<double>(M)));
  int L = static_cast<int>(-std::log(U) * ML);
  return std::min(L, 32);
}

void HnswIndex::distanceMany(const float *Q, const int *Ids, size_t N,
                             float *Out) const {
  // The parallel half of the build/search contract: distances fan out
  // through the pool while every *selection* over them stays sequential.
  // Each distance is bit-identical for any thread count, so the chosen
  // neighbours — and therefore the graph — do not depend on the split.
  parallelFor(
      0, static_cast<int64_t>(N), 32,
      [&](int64_t Lo, int64_t Hi) {
        for (int64_t I = Lo; I != Hi; ++I)
          Out[I] = Map.l1DistanceTo(
              Q, static_cast<size_t>(Ids[static_cast<size_t>(I)]));
      },
      MaxWays);
}

void HnswIndex::searchLayer(const float *Q, int Ep, float EpDist, int Ef,
                            int Layer, SearchScratch &S,
                            std::vector<std::pair<float, int>> &Out) const {
  // (distance, index) pairs compare lexicographically — exactly the
  // neighbour tie-break order — so every heap decision is deterministic.
  using DistIdx = std::pair<float, int>;
  std::priority_queue<DistIdx, std::vector<DistIdx>, std::greater<>> Cand;
  std::priority_queue<DistIdx> Best; // worst of the kept Ef on top
  if (S.VisitedAt.size() < Nodes.size())
    S.VisitedAt.resize(Nodes.size(), 0);
  if (++S.Epoch == 0) { // epoch wrap: reset the marks once per 2^32 queries
    std::fill(S.VisitedAt.begin(), S.VisitedAt.end(), 0u);
    S.Epoch = 1;
  }
  S.VisitedAt[static_cast<size_t>(Ep)] = S.Epoch;
  Cand.emplace(EpDist, Ep);
  Best.emplace(EpDist, Ep);
  while (!Cand.empty()) {
    DistIdx C = Cand.top();
    if (static_cast<int>(Best.size()) == Ef && Best.top() < C)
      break;
    Cand.pop();
    const std::vector<int> &Links =
        Nodes[static_cast<size_t>(C.second)].Links[static_cast<size_t>(Layer)];
    S.Frontier.clear();
    for (int E : Links)
      if (S.VisitedAt[static_cast<size_t>(E)] != S.Epoch) {
        S.VisitedAt[static_cast<size_t>(E)] = S.Epoch;
        S.Frontier.push_back(E);
      }
    S.FrontierD.resize(S.Frontier.size());
    distanceMany(Q, S.Frontier.data(), S.Frontier.size(), S.FrontierD.data());
    for (size_t I = 0; I != S.Frontier.size(); ++I) {
      DistIdx Next{S.FrontierD[I], S.Frontier[I]};
      if (static_cast<int>(Best.size()) < Ef || Next < Best.top()) {
        Cand.push(Next);
        Best.push(Next);
        if (static_cast<int>(Best.size()) > Ef)
          Best.pop();
      }
    }
  }
  Out.resize(Best.size());
  for (size_t I = Best.size(); I-- > 0;) {
    Out[I] = Best.top();
    Best.pop();
  }
}

void HnswIndex::descendLayer(const float *Q, int &Ep, float &EpDist,
                             int Layer) const {
  bool Improved = true;
  while (Improved) {
    Improved = false;
    // The range binds to the entry point the round started from; strict
    // (distance, index) improvement keeps the walk deterministic.
    for (int E : Nodes[static_cast<size_t>(Ep)]
                     .Links[static_cast<size_t>(Layer)]) {
      float Dist = Map.l1DistanceTo(Q, static_cast<size_t>(E));
      if (std::pair<float, int>(Dist, E) < std::pair<float, int>(EpDist, Ep)) {
        EpDist = Dist;
        Ep = E;
        Improved = true;
      }
    }
  }
}

void HnswIndex::shrinkLinks(int NodeId, int Layer, int MaxLinks,
                            std::vector<float> &Decode) {
  Decode.resize(static_cast<size_t>(Map.dim()));
  Map.decodeEmbedding(static_cast<size_t>(NodeId), Decode.data());
  std::vector<int> &Links =
      Nodes[static_cast<size_t>(NodeId)].Links[static_cast<size_t>(Layer)];
  std::vector<float> Ds(Links.size());
  distanceMany(Decode.data(), Links.data(), Links.size(), Ds.data());
  std::vector<std::pair<float, int>> Scored(Links.size());
  for (size_t I = 0; I != Links.size(); ++I)
    Scored[I] = {Ds[I], Links[I]};
  std::sort(Scored.begin(), Scored.end()); // (distance, index) ascending
  Links.resize(static_cast<size_t>(MaxLinks));
  for (int I = 0; I != MaxLinks; ++I)
    Links[static_cast<size_t>(I)] = Scored[static_cast<size_t>(I)].second;
}

void HnswIndex::insert(size_t I, const float *Coords, SearchScratch &S) {
  int L = Nodes[I].Level;
  Nodes[I].Links.assign(static_cast<size_t>(L) + 1, {});
  if (EntryPoint < 0) {
    EntryPoint = static_cast<int>(I);
    MaxLevel = L;
    return;
  }
  int Ep = EntryPoint;
  float EpDist = Map.l1DistanceTo(Coords, static_cast<size_t>(Ep));
  for (int Layer = MaxLevel; Layer > L; --Layer)
    descendLayer(Coords, Ep, EpDist, Layer);
  std::vector<std::pair<float, int>> Found;
  std::vector<float> Decode;
  for (int Layer = std::min(L, MaxLevel); Layer >= 0; --Layer) {
    searchLayer(Coords, Ep, EpDist, EfConstruction, Layer, S, Found);
    int MaxLinks = Layer == 0 ? 2 * M : M;
    size_t Take = std::min<size_t>(static_cast<size_t>(MaxLinks),
                                   Found.size());
    std::vector<int> &Mine = Nodes[I].Links[static_cast<size_t>(Layer)];
    for (size_t J = 0; J != Take; ++J) {
      int Nb = Found[J].second;
      Mine.push_back(Nb);
      std::vector<int> &Theirs =
          Nodes[static_cast<size_t>(Nb)].Links[static_cast<size_t>(Layer)];
      Theirs.push_back(static_cast<int>(I));
      if (static_cast<int>(Theirs.size()) > MaxLinks)
        shrinkLinks(Nb, Layer, MaxLinks, Decode);
    }
    Ep = Found.front().second;
    EpDist = Found.front().first;
  }
  if (L > MaxLevel) {
    MaxLevel = L;
    EntryPoint = static_cast<int>(I);
  }
}

HnswIndex::HnswIndex(const TypeMap &Map, int M, int EfConstruction,
                     uint64_t Seed, int MaxWays)
    : KnnIndex(Map), M(std::max(2, M)),
      EfConstruction(std::max(8, EfConstruction)), Seed(Seed),
      MaxWays(MaxWays) {
  size_t N = Map.size();
  Nodes.resize(N);
  // Levels first (a pure per-row function), then strict row-order
  // insertion: the graph is a function of (Map, Seed) alone. Tombstoned
  // rows enter the graph like Annoy keeps them in its leaves — they
  // route, and queries filter them from results.
  for (size_t I = 0; I != N; ++I)
    Nodes[I].Level = levelFor(I);
  SearchScratch S;
  std::vector<float> Coords(static_cast<size_t>(Map.dim()));
  for (size_t I = 0; I != N; ++I) {
    Map.decodeEmbedding(I, Coords.data());
    insert(I, Coords.data(), S);
  }
}

NeighborList HnswIndex::queryWithScratch(const float *Q, int K, int EfSearch,
                                         SearchScratch &S) const {
  if (EntryPoint < 0 || K <= 0)
    return {};
  // Taken in 64 bits and clamped to the graph: a beam at least as wide as
  // the node count never evicts, so any wider one explores the same nodes.
  int64_t Ef = EfSearch <= 0
                   ? std::max<int64_t>(4 * static_cast<int64_t>(K), 64)
                   : EfSearch;
  Ef = std::min(std::max<int64_t>(Ef, K), static_cast<int64_t>(Nodes.size()));
  int Ep = EntryPoint;
  float EpDist = Map.l1DistanceTo(Q, static_cast<size_t>(Ep));
  for (int Layer = MaxLevel; Layer > 0; --Layer)
    descendLayer(Q, Ep, EpDist, Layer);
  std::vector<std::pair<float, int>> Found;
  searchLayer(Q, Ep, EpDist, static_cast<int>(Ef), 0, S, Found);
  // Found is already ascending under (distance, index) with exact
  // distances; keep the first K live rows (tombstones route but never
  // surface — same contract as the other indexes).
  NeighborList Result;
  Result.reserve(std::min<size_t>(static_cast<size_t>(K), Found.size()));
  for (const auto &[Dist, Idx] : Found) {
    if (!Map.isLive(static_cast<size_t>(Idx)))
      continue;
    Result.emplace_back(Idx, Dist);
    if (static_cast<int>(Result.size()) == K)
      break;
  }
  return Result;
}

std::vector<NeighborList> HnswIndex::queryIndexed(const float *Qs,
                                                  int64_t NumQueries, int K,
                                                  int EfSearch,
                                                  int MaxWays) const {
  std::vector<NeighborList> Results(static_cast<size_t>(NumQueries));
  const int64_t D = Map.dim();
  parallelFor(
      0, NumQueries, 8,
      [&](int64_t Lo, int64_t Hi) {
        SearchScratch S; // reused across this chunk's queries
        for (int64_t I = Lo; I != Hi; ++I)
          Results[static_cast<size_t>(I)] =
              queryWithScratch(Qs + I * D, K, EfSearch, S);
      },
      MaxWays);
  return Results;
}

void HnswIndex::save(ArchiveWriter &W) const {
  W.writeI32(M);
  W.writeI32(EfConstruction);
  W.writeU64(Seed);
  W.writeI32(EntryPoint);
  W.writeI32(MaxLevel);
  W.writeU64(Nodes.size());
  for (const Node &N : Nodes) {
    W.writeI32(N.Level);
    for (const std::vector<int> &Links : N.Links) {
      W.writeU64(Links.size());
      W.writeI32Array(reinterpret_cast<const int32_t *>(Links.data()),
                      Links.size());
    }
  }
}

std::unique_ptr<HnswIndex> HnswIndex::load(ArchiveCursor &C,
                                           const TypeMap &Map,
                                           std::string *Err) {
  auto Fail = [&](const char *Why) {
    if (Err && Err->empty())
      *Err = std::string("malformed kNN index snapshot: ") + Why;
    return nullptr;
  };
  std::unique_ptr<HnswIndex> Idx(new HnswIndex(Map, LoadShellTag{}));
  Idx->M = C.readI32();
  Idx->EfConstruction = C.readI32();
  Idx->Seed = C.readU64();
  Idx->EntryPoint = C.readI32();
  Idx->MaxLevel = C.readI32();
  uint64_t NumNodes = C.readU64();
  if (!C.ok() || Idx->M < 2 || Idx->EfConstruction < 1)
    return Fail("graph params");
  // Node id == τmap row id: the graph must cover exactly the snapshot's
  // markers.
  if (NumNodes != Map.size())
    return Fail("node count");
  if (NumNodes == 0) {
    if (Idx->EntryPoint != -1 || Idx->MaxLevel != -1)
      return Fail("entry point");
    return Idx;
  }
  if (Idx->EntryPoint < 0 ||
      static_cast<uint64_t>(Idx->EntryPoint) >= NumNodes ||
      Idx->MaxLevel < 0 || Idx->MaxLevel > 32)
    return Fail("entry point");
  Idx->Nodes.resize(static_cast<size_t>(NumNodes));
  for (uint64_t I = 0; I != NumNodes; ++I) {
    Node &N = Idx->Nodes[static_cast<size_t>(I)];
    N.Level = C.readI32();
    if (!C.ok() || N.Level < 0 || N.Level > Idx->MaxLevel)
      return Fail("node level");
    N.Links.resize(static_cast<size_t>(N.Level) + 1);
    for (std::vector<int> &Links : N.Links) {
      uint64_t NumLinks = C.readU64();
      if (!C.ok() || NumLinks > C.remaining())
        return Fail("adjacency payload");
      Links.resize(static_cast<size_t>(NumLinks));
      C.readI32Array(reinterpret_cast<int32_t *>(Links.data()),
                     Links.size());
      if (!C.ok())
        return Fail("adjacency payload");
      for (int E : Links)
        if (E < 0 || static_cast<uint64_t>(E) >= NumNodes ||
            static_cast<uint64_t>(E) == I)
          return Fail("adjacency out of range");
    }
  }
  if (static_cast<size_t>(Idx->MaxLevel) !=
      static_cast<size_t>(
          Idx->Nodes[static_cast<size_t>(Idx->EntryPoint)].Level))
    return Fail("entry point");
  // Cross-node invariant (checkable only once every node is in): a link
  // at layer L must reach a node that *has* a layer L, or the search
  // would walk off the target's adjacency array.
  for (const Node &N : Idx->Nodes)
    for (size_t L = 0; L != N.Links.size(); ++L)
      for (int E : N.Links[L])
        if (static_cast<size_t>(
                Idx->Nodes[static_cast<size_t>(E)].Level) < L)
          return Fail("adjacency level");
  return Idx;
}
