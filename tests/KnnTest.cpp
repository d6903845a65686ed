//===- tests/KnnTest.cpp - knn/ unit & property tests --------------------------===//

#include "KnnReference.h"
#include "knn/TypeMap.h"
#include "support/Float16.h"
#include "support/Hash.h"
#include "support/Str.h"
#include "support/Rng.h"
#include "typesys/Type.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <vector>

using namespace typilus;

namespace {

/// A random map of N markers over T types in D dims.
struct MapFixture {
  TypeUniverse U;
  TypeMap Map;
  std::vector<std::vector<float>> Points;

  MapFixture(int N, int NumTypes, int D, uint64_t Seed) : Map(D) {
    Rng R(Seed);
    for (int I = 0; I != N; ++I) {
      std::vector<float> P(static_cast<size_t>(D));
      for (float &X : P)
        X = static_cast<float>(R.normal());
      TypeRef T = U.get(strformat("T%d", static_cast<int>(
                                             R.uniformInt(NumTypes))));
      Map.add(P.data(), T);
      Points.push_back(std::move(P));
    }
  }
};

} // namespace

TEST(ExactIndexTest, FindsSelfAtDistanceZero) {
  MapFixture F(50, 5, 8, 1);
  ExactIndex Idx(F.Map);
  for (size_t I = 0; I != 10; ++I) {
    auto N = Idx.query(F.Points[I].data(), 1);
    ASSERT_EQ(N.size(), 1u);
    EXPECT_EQ(N[0].first, static_cast<int>(I));
    EXPECT_FLOAT_EQ(N[0].second, 0.f);
  }
}

TEST(ExactIndexTest, DistancesAreSorted) {
  MapFixture F(100, 5, 8, 2);
  ExactIndex Idx(F.Map);
  auto N = Idx.query(F.Points[3].data(), 20);
  ASSERT_EQ(N.size(), 20u);
  for (size_t I = 1; I != N.size(); ++I)
    EXPECT_LE(N[I - 1].second, N[I].second);
}

TEST(ExactIndexTest, KLargerThanMapIsClamped) {
  MapFixture F(5, 2, 4, 3);
  ExactIndex Idx(F.Map);
  EXPECT_EQ(Idx.query(F.Points[0].data(), 50).size(), 5u);
}

TEST(AnnoyIndexTest, HighRecallVsExact) {
  MapFixture F(2000, 20, 16, 4);
  ExactIndex Exact(F.Map);
  AnnoyIndex Annoy(F.Map);
  Rng R(5);
  double Recall = 0;
  const int Queries = 50, K = 10;
  for (int Q = 0; Q != Queries; ++Q) {
    std::vector<float> P(16);
    for (float &X : P)
      X = static_cast<float>(R.normal());
    auto Truth = Exact.query(P.data(), K);
    auto Approx = Annoy.query(P.data(), K);
    std::set<int> TruthSet;
    for (auto [I, D] : Truth)
      TruthSet.insert(I);
    int Hits = 0;
    for (auto [I, D] : Approx)
      Hits += TruthSet.count(I);
    Recall += static_cast<double>(Hits) / K;
  }
  Recall /= Queries;
  EXPECT_GE(Recall, 0.8) << "Annoy-style forest recall too low";
}

TEST(AnnoyIndexTest, ReturnedDistancesAreTrueL1) {
  MapFixture F(300, 5, 8, 6);
  AnnoyIndex Annoy(F.Map);
  auto N = Annoy.query(F.Points[7].data(), 5);
  ASSERT_FALSE(N.empty());
  for (auto [Idx, Dist] : N) {
    float True = 0;
    for (int D = 0; D != 8; ++D)
      True += std::fabs(F.Points[7][static_cast<size_t>(D)] -
                        F.Map.embedding(static_cast<size_t>(Idx))[D]);
    EXPECT_NEAR(Dist, True, 1e-4f);
  }
}

TEST(AnnoyIndexTest, DeterministicForFixedSeed) {
  MapFixture F(500, 10, 8, 7);
  AnnoyIndex A(F.Map, 8, 16, 42), B(F.Map, 8, 16, 42);
  auto NA = A.query(F.Points[0].data(), 10);
  auto NB = B.query(F.Points[0].data(), 10);
  ASSERT_EQ(NA.size(), NB.size());
  for (size_t I = 0; I != NA.size(); ++I)
    EXPECT_EQ(NA[I].first, NB[I].first);
}

TEST(AnnoyIndexTest, EmptyMapYieldsNothing) {
  TypeUniverse U;
  TypeMap Map(4);
  AnnoyIndex Annoy(Map);
  std::vector<float> Q(4, 0.f);
  EXPECT_TRUE(Annoy.query(Q.data(), 5).empty());
}

//===----------------------------------------------------------------------===//
// Eq. 5 scoring
//===----------------------------------------------------------------------===//

TEST(ScoringTest, ProbabilitiesSumToOne) {
  TypeUniverse U;
  TypeMap Map(2);
  float A[2] = {0, 0}, B[2] = {1, 1}, C[2] = {2, 2};
  Map.add(A, U.parse("int"));
  Map.add(B, U.parse("str"));
  Map.add(C, U.parse("int"));
  NeighborList N{{0, 0.5f}, {1, 1.0f}, {2, 2.0f}};
  auto Scored = scoreNeighbors(Map, N, 1.0);
  double Sum = 0;
  for (const ScoredType &S : Scored)
    Sum += S.Prob;
  EXPECT_NEAR(Sum, 1.0, 1e-9);
}

TEST(ScoringTest, SameTypeNeighborsAggregate) {
  TypeUniverse U;
  TypeMap Map(1);
  // Distinct embeddings: identical (embedding, type) pairs would be
  // deduped on insert (crafted distances below are what the test pins).
  float X0[1] = {0}, X1[1] = {1}, X2[1] = {2};
  Map.add(X0, U.parse("int"));
  Map.add(X1, U.parse("int"));
  Map.add(X2, U.parse("str"));
  NeighborList N{{0, 1.0f}, {1, 1.0f}, {2, 1.0f}};
  auto Scored = scoreNeighbors(Map, N, 1.0);
  ASSERT_EQ(Scored.size(), 2u);
  EXPECT_EQ(Scored[0].Type, U.parse("int"));
  EXPECT_NEAR(Scored[0].Prob, 2.0 / 3.0, 1e-9);
}

TEST(ScoringTest, LargePSharpensTowardsNearest) {
  // p -> inf approaches 1-NN: the closest neighbour's type must win even
  // when outnumbered.
  TypeUniverse U;
  TypeMap Map(1);
  float X0[1] = {0}, X1[1] = {1}, X2[1] = {2}, X3[1] = {3};
  Map.add(X0, U.parse("int")); // closest
  Map.add(X1, U.parse("str"));
  Map.add(X2, U.parse("str"));
  Map.add(X3, U.parse("str"));
  NeighborList N{{0, 0.1f}, {1, 1.0f}, {2, 1.0f}, {3, 1.0f}};
  auto Sharp = scoreNeighbors(Map, N, 6.0);
  EXPECT_EQ(Sharp[0].Type, U.parse("int"));
  // With p ~ 0 it degenerates to majority voting.
  auto Flat = scoreNeighbors(Map, N, 0.001);
  EXPECT_EQ(Flat[0].Type, U.parse("str"));
}

TEST(ScoringTest, ZeroDistanceIsHandled) {
  TypeUniverse U;
  TypeMap Map(1);
  float X[1] = {0};
  Map.add(X, U.parse("int"));
  NeighborList N{{0, 0.0f}};
  auto Scored = scoreNeighbors(Map, N, 2.0);
  ASSERT_EQ(Scored.size(), 1u);
  EXPECT_NEAR(Scored[0].Prob, 1.0, 1e-9);
  EXPECT_TRUE(std::isfinite(Scored[0].Prob));
}

TEST(ScoringTest, DeterministicTieBreaking) {
  TypeUniverse U;
  TypeMap Map(1);
  float X[1] = {0};
  Map.add(X, U.parse("str"));
  Map.add(X, U.parse("int"));
  NeighborList N{{0, 1.0f}, {1, 1.0f}};
  auto S1 = scoreNeighbors(Map, N, 1.0);
  auto S2 = scoreNeighbors(Map, N, 1.0);
  EXPECT_EQ(S1[0].Type, S2[0].Type);
  EXPECT_EQ(S1[0].Type, U.parse("int")); // lexicographic tie-break
}

//===----------------------------------------------------------------------===//
// Parallel build / batch queries (the execution layer)
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

TEST(AnnoyIndexTest, ParallelBuildIsIdenticalToSerial) {
  MapFixture F(1200, 12, 8, 11);
  setGlobalNumThreads(1);
  AnnoyIndex Serial(F.Map, 8, 16, 42);
  setGlobalNumThreads(4);
  AnnoyIndex Parallel(F.Map, 8, 16, 42);
  setGlobalNumThreads(0);
  // Identical forests answer every query identically.
  for (size_t Q = 0; Q != 25; ++Q) {
    auto NA = Serial.query(F.Points[Q].data(), 10);
    auto NB = Parallel.query(F.Points[Q].data(), 10);
    ASSERT_EQ(NA.size(), NB.size());
    for (size_t I = 0; I != NA.size(); ++I) {
      EXPECT_EQ(NA[I].first, NB[I].first);
      EXPECT_EQ(NA[I].second, NB[I].second);
    }
  }
}

TEST(AnnoyIndexTest, QueryBatchMatchesIndividualQueries) {
  MapFixture F(800, 10, 8, 12);
  AnnoyIndex Annoy(F.Map, 8, 16, 7);
  // Pack the first 30 points as a contiguous query block.
  std::vector<float> Qs;
  const int NumQ = 30, D = 8;
  for (int Q = 0; Q != NumQ; ++Q)
    Qs.insert(Qs.end(), F.Points[static_cast<size_t>(Q)].begin(),
              F.Points[static_cast<size_t>(Q)].end());
  auto Batch = Annoy.queryBatch(Qs.data(), NumQ, 5);
  ASSERT_EQ(Batch.size(), static_cast<size_t>(NumQ));
  for (int Q = 0; Q != NumQ; ++Q) {
    auto One = Annoy.query(Qs.data() + Q * D, 5);
    ASSERT_EQ(Batch[static_cast<size_t>(Q)].size(), One.size());
    for (size_t I = 0; I != One.size(); ++I) {
      EXPECT_EQ(Batch[static_cast<size_t>(Q)][I].first, One[I].first);
      EXPECT_EQ(Batch[static_cast<size_t>(Q)][I].second, One[I].second);
    }
  }
}

TEST(ExactIndexTest, QueryBatchMatchesIndividualQueries) {
  MapFixture F(400, 6, 8, 13);
  ExactIndex Exact(F.Map);
  std::vector<float> Qs;
  const int NumQ = 20, D = 8;
  for (int Q = 0; Q != NumQ; ++Q)
    Qs.insert(Qs.end(), F.Points[static_cast<size_t>(Q)].begin(),
              F.Points[static_cast<size_t>(Q)].end());
  auto Batch = Exact.queryBatch(Qs.data(), NumQ, 7);
  ASSERT_EQ(Batch.size(), static_cast<size_t>(NumQ));
  for (int Q = 0; Q != NumQ; ++Q) {
    auto One = Exact.query(Qs.data() + Q * D, 7);
    ASSERT_EQ(Batch[static_cast<size_t>(Q)], One);
  }
}

TEST(TypeMapTest, IdenticalMarkersDedupeOnInsert) {
  TypeUniverse U;
  TypeMap Map(2);
  float A[2] = {1.f, 2.f}, B[2] = {1.f, 2.f}, C[2] = {3.f, 4.f};
  EXPECT_TRUE(Map.add(A, U.parse("int")));
  // Same embedding bytes + same type: dropped, count does not grow.
  EXPECT_FALSE(Map.add(B, U.parse("int")));
  EXPECT_EQ(Map.size(), 1u);
  EXPECT_EQ(Map.droppedDuplicates(), 1u);
  // Same embedding, different type: a real marker.
  EXPECT_TRUE(Map.add(A, U.parse("str")));
  // Different embedding, same type: a real marker.
  EXPECT_TRUE(Map.add(C, U.parse("int")));
  EXPECT_EQ(Map.size(), 3u);
  // Duplicates of the later inserts are dropped too.
  EXPECT_FALSE(Map.add(C, U.parse("int")));
  EXPECT_EQ(Map.size(), 3u);
  EXPECT_EQ(Map.droppedDuplicates(), 2u);
}

TEST(TypeMapTest, DedupSurvivesSnapshotRoundTrip) {
  TypeUniverse U;
  TypeMap Map(2);
  float A[2] = {1.f, 2.f};
  Map.add(A, U.parse("int"));

  std::map<TypeRef, int> TypeIds{{U.parse("int"), 0}};
  std::vector<TypeRef> ById{U.parse("int")};
  ArchiveWriter W(1);
  W.beginChunk(Map.chunkTag());
  Map.save(W, TypeIds);
  W.endChunk();
  ArchiveReader R;
  std::string Err;
  ASSERT_TRUE(R.openBytes(W.bytes(), &Err)) << Err;
  TypeMap Loaded(2);
  ASSERT_TRUE(Loaded.load(R, ById, &Err)) << Err;
  ASSERT_EQ(Loaded.size(), 1u);
  // The loaded map dedupes against its snapshotted markers.
  EXPECT_FALSE(Loaded.add(A, U.parse("int")));
  EXPECT_EQ(Loaded.size(), 1u);
}

TEST(TypeMapTest, ReserveKeepsContentsIntact) {
  TypeUniverse U;
  TypeMap Map(3);
  float A[3] = {1, 2, 3};
  Map.add(A, U.parse("int"));
  Map.reserve(1000);
  EXPECT_EQ(Map.size(), 1u);
  EXPECT_FLOAT_EQ(Map.embedding(0)[1], 2.f);
  float B[3] = {4, 5, 6};
  Map.add(B, U.parse("str"));
  EXPECT_EQ(Map.size(), 2u);
  EXPECT_FLOAT_EQ(Map.embedding(1)[2], 6.f);
}

TEST(TypeMapTest, ReserveIsTotalAndIdempotent) {
  TypeUniverse U;
  TypeMap Map(3);
  // reserve() takes a *total* marker bound, so repeating the same call
  // must not grow the reservation (the historical incremental semantics
  // doubled it on every call).
  Map.reserve(100);
  size_t Cap = Map.reservedMarkers();
  EXPECT_GE(Cap, 100u);
  Map.reserve(100);
  EXPECT_EQ(Map.reservedMarkers(), Cap);
  // A smaller bound never shrinks an existing reservation.
  Map.reserve(10);
  EXPECT_EQ(Map.reservedMarkers(), Cap);
}

//===----------------------------------------------------------------------===//
// Quantized marker stores (f16 / int8)
//===----------------------------------------------------------------------===//

namespace {

/// L1 between a query and the *decoded* coordinates of marker I — the
/// reference l1DistanceTo must agree with on every store.
float decodedL1(const TypeMap &Map, const float *Q, size_t I) {
  std::vector<float> Row(static_cast<size_t>(Map.dim()));
  Map.decodeEmbedding(I, Row.data());
  float Sum = 0;
  for (int D = 0; D != Map.dim(); ++D)
    Sum += std::fabs(Q[static_cast<size_t>(D)] - Row[static_cast<size_t>(D)]);
  return Sum;
}

} // namespace

TEST(QuantizedMapTest, F16CoordsAreRoundToNearestEven) {
  MapFixture F(64, 4, 8, 11);
  TypeMap Q = F.Map; // quantize a copy; keep the f32 original
  Q.quantize(MarkerStore::F16);
  EXPECT_EQ(Q.store(), MarkerStore::F16);
  ASSERT_EQ(Q.size(), F.Map.size());
  for (size_t I = 0; I != Q.size(); ++I)
    for (int D = 0; D != 8; ++D) {
      float Orig = F.Map.embedding(I)[D];
      // Exactly one binary16 rounding, nothing else.
      EXPECT_EQ(Q.coord(I, D), f16BitsToF32(f32ToF16Bits(Orig)));
      EXPECT_NEAR(Q.coord(I, D), Orig, 1e-3f * std::max(1.f, std::fabs(Orig)));
    }
}

TEST(QuantizedMapTest, Int8CoordsWithinHalfScaleStep) {
  MapFixture F(64, 4, 8, 12);
  TypeMap Q = F.Map;
  Q.quantize(MarkerStore::Int8);
  EXPECT_EQ(Q.store(), MarkerStore::Int8);
  for (size_t I = 0; I != Q.size(); ++I) {
    float MaxAbs = 0;
    for (int D = 0; D != 8; ++D)
      MaxAbs = std::max(MaxAbs, std::fabs(F.Map.embedding(I)[D]));
    float Scale = MaxAbs / 127.f;
    for (int D = 0; D != 8; ++D)
      // Round-to-nearest against a per-marker scale: the decode error is
      // at most half a quantization step.
      EXPECT_NEAR(Q.coord(I, D), F.Map.embedding(I)[D], 0.5f * Scale + 1e-6f);
  }
}

TEST(QuantizedMapTest, DistancesMatchDecodedCoordinates) {
  MapFixture F(128, 6, 16, 13);
  for (MarkerStore S : {MarkerStore::F16, MarkerStore::Int8}) {
    TypeMap Q = F.Map;
    Q.quantize(S);
    Rng R(14);
    std::vector<float> Query(16);
    for (int T = 0; T != 10; ++T) {
      for (float &X : Query)
        X = static_cast<float>(R.normal());
      for (size_t I = 0; I < Q.size(); I += 7)
        EXPECT_NEAR(Q.l1DistanceTo(Query.data(), I),
                    decodedL1(Q, Query.data(), I), 1e-3f)
            << markerStoreName(S) << " marker " << I;
    }
  }
}

TEST(QuantizedMapTest, SnapshotRoundTripIsExact) {
  MapFixture F(50, 5, 8, 15);
  for (MarkerStore S : {MarkerStore::F16, MarkerStore::Int8}) {
    TypeMap Q = F.Map;
    Q.quantize(S);

    std::map<TypeRef, int> TypeIds;
    std::vector<TypeRef> ById;
    for (size_t I = 0; I != Q.size(); ++I)
      TypeIds.emplace(Q.type(I), 0);
    int Next = 0;
    for (auto &[T, Id] : TypeIds) {
      Id = Next++;
      ById.push_back(T);
    }

    ArchiveWriter W(2);
    W.beginChunk(Q.chunkTag());
    Q.save(W, TypeIds);
    W.endChunk();
    ArchiveReader R;
    std::string Err;
    ASSERT_TRUE(R.openBytes(W.bytes(), &Err)) << Err;
    // dim, count, the rows and one type id per marker: nothing else.
    ASSERT_EQ(R.chunk(Q.chunkTag(), &Err).remaining(),
              12 + Q.storageBytes() + 4 * Q.size())
        << "trailing bytes in a " << markerStoreName(S) << " snapshot";
    TypeMap Loaded(8);
    ASSERT_TRUE(Loaded.load(R, ById, &Err)) << Err;
    ASSERT_EQ(Loaded.size(), Q.size());
    EXPECT_EQ(Loaded.store(), S);
    for (size_t I = 0; I != Q.size(); ++I) {
      EXPECT_EQ(Loaded.type(I), ById[static_cast<size_t>(TypeIds.at(Q.type(I)))]);
      for (int D = 0; D != 8; ++D)
        // Bit-exact: quantized coordinates serialize as their stored
        // encoding, never through a decode/re-encode.
        EXPECT_EQ(Loaded.coord(I, D), Q.coord(I, D))
            << markerStoreName(S) << " marker " << I << " dim " << D;
    }
  }
}

TEST(QuantizedMapTest, AddEncodesAndDedupesOnStoredBytes) {
  TypeUniverse U;
  TypeMap Map(2);
  float A[2] = {1.0f, 2.0f};
  Map.add(A, U.parse("int"));
  Map.quantize(MarkerStore::F16);

  // A fresh point inserts (encoded on the way in)...
  float B[2] = {3.0f, 4.0f};
  EXPECT_TRUE(Map.add(B, U.parse("int")));
  EXPECT_EQ(Map.store(), MarkerStore::F16);
  EXPECT_EQ(Map.size(), 2u);
  // ...an exact duplicate is dropped...
  EXPECT_FALSE(Map.add(B, U.parse("int")));
  // ...and so is a point that only collides after f16 rounding (1e-5 is
  // far below half a ulp of 3.0 in binary16, which is ~1e-3).
  float BNudged[2] = {3.00001f, 4.0f};
  ASSERT_EQ(f32ToF16Bits(BNudged[0]), f32ToF16Bits(B[0]));
  EXPECT_FALSE(Map.add(BNudged, U.parse("int")));
  EXPECT_EQ(Map.size(), 2u);
  EXPECT_EQ(Map.droppedDuplicates(), 2u);
}

TEST(QuantizedMapTest, QueryQualityCloseToF32) {
  // kNN answers over quantized stores must stay close to the exact-store
  // answers: the Fig. 6 accuracy-delta guarantee, in miniature.
  MapFixture F(1000, 10, 16, 16);
  ExactIndex Truth(F.Map);
  Rng R(17);
  const int Queries = 40, K = 10;
  for (MarkerStore S : {MarkerStore::F16, MarkerStore::Int8}) {
    TypeMap Q = F.Map;
    Q.quantize(S);
    ExactIndex Approx(Q);
    double Recall = 0;
    for (int T = 0; T != Queries; ++T) {
      std::vector<float> P(16);
      for (float &X : P)
        X = static_cast<float>(R.normal());
      auto Want = Truth.query(P.data(), K);
      auto Got = Approx.query(P.data(), K);
      std::set<int> WantSet;
      for (auto [I, D] : Want)
        WantSet.insert(I);
      int Hits = 0;
      for (auto [I, D] : Got)
        Hits += WantSet.count(I);
      Recall += static_cast<double>(Hits) / K;
    }
    Recall /= Queries;
    EXPECT_GE(Recall, S == MarkerStore::F16 ? 0.97 : 0.85)
        << markerStoreName(S) << " neighbour recall degraded too far";
  }
}

//===----------------------------------------------------------------------===//
// Coreset subsampling
//===----------------------------------------------------------------------===//

TEST(CoresetTest, BoundRespectedAndEveryTypeKept) {
  MapFixture F(500, 10, 8, 18);
  std::set<TypeRef> AllTypes;
  for (size_t I = 0; I != F.Map.size(); ++I)
    AllTypes.insert(F.Map.type(I));

  size_t NewSize = F.Map.subsampleCoreset(60);
  EXPECT_EQ(NewSize, F.Map.size());
  EXPECT_LE(F.Map.size(), 60u);
  EXPECT_GE(F.Map.size(), AllTypes.size());
  std::set<TypeRef> KeptTypes;
  for (size_t I = 0; I != F.Map.size(); ++I)
    KeptTypes.insert(F.Map.type(I));
  EXPECT_EQ(KeptTypes, AllTypes) << "subsampling lost a type entirely";
}

TEST(CoresetTest, DeterministicAcrossRuns) {
  MapFixture A(300, 8, 8, 19), B(300, 8, 8, 19);
  A.Map.subsampleCoreset(50);
  B.Map.subsampleCoreset(50);
  ASSERT_EQ(A.Map.size(), B.Map.size());
  for (size_t I = 0; I != A.Map.size(); ++I) {
    EXPECT_EQ(A.Map.type(I)->str(), B.Map.type(I)->str());
    for (int D = 0; D != 8; ++D)
      EXPECT_EQ(A.Map.embedding(I)[D], B.Map.embedding(I)[D]);
  }
}

TEST(CoresetTest, NoOpWithinBoundOrUnlimited) {
  MapFixture F(40, 4, 8, 20);
  EXPECT_EQ(F.Map.subsampleCoreset(0), 40u);   // 0 = unlimited
  EXPECT_EQ(F.Map.subsampleCoreset(100), 40u); // already within bound
  EXPECT_EQ(F.Map.size(), 40u);
  // Survivors after a real cut still dedupe correctly on insert.
  F.Map.subsampleCoreset(20);
  std::vector<float> Row(8);
  for (int D = 0; D != 8; ++D)
    Row[static_cast<size_t>(D)] = F.Map.embedding(0)[D];
  EXPECT_FALSE(F.Map.add(Row.data(), F.Map.type(0)));
}

//===----------------------------------------------------------------------===//
// τmap mutation (file tags, tombstones, compaction) — the editor loop
//===----------------------------------------------------------------------===//

namespace {

/// Random tagged markers in per-file blocks (block order makes the
/// compacted layout directly comparable to a fresh build).
struct TaggedMapFixture {
  TypeUniverse U;
  TypeMap Map;
  std::vector<std::string> Files;
  std::vector<std::vector<float>> Points;
  std::vector<TypeRef> MarkTypes;
  std::vector<std::string> Tags; ///< Owning file per marker.

  TaggedMapFixture(int NumFiles, int PerFile, int NumTypes, int D,
                   uint64_t Seed)
      : Map(D) {
    Rng R(Seed);
    for (int F = 0; F != NumFiles; ++F) {
      std::string Tag = strformat("proj/f%02d.py", F);
      Files.push_back(Tag);
      for (int I = 0; I != PerFile; ++I) {
        std::vector<float> P(static_cast<size_t>(D));
        for (float &X : P)
          X = static_cast<float>(R.normal());
        TypeRef T = U.get(
            strformat("T%d", static_cast<int>(R.uniformInt(NumTypes))));
        Map.add(P.data(), T, Tag);
        Points.push_back(std::move(P));
        MarkTypes.push_back(T);
        Tags.push_back(Tag);
      }
    }
  }
};

} // namespace

TEST(TypeMapMutationTest, FileTagsAndRangeBookkeeping) {
  TaggedMapFixture F(4, 10, 5, 8, 21);
  ASSERT_EQ(F.Map.size(), 40u);
  EXPECT_EQ(F.Map.liveSize(), 40u);
  EXPECT_EQ(F.Map.deadMarkers(), 0u);
  EXPECT_EQ(F.Map.tombstoneRatio(), 0.0);

  // Every row knows its owner; per-file ranges are ascending and exact.
  for (size_t I = 0; I != F.Map.size(); ++I)
    EXPECT_EQ(F.Map.fileTag(I), F.Tags[I]) << "row " << I;
  for (const std::string &File : F.Files) {
    std::vector<int> Rows = F.Map.markersForFile(File);
    ASSERT_EQ(Rows.size(), 10u);
    for (size_t I = 1; I != Rows.size(); ++I)
      EXPECT_LT(Rows[I - 1], Rows[I]);
    for (int Row : Rows)
      EXPECT_EQ(F.Map.fileTag(static_cast<size_t>(Row)), File);
  }

  // Untagged adds stay untagged and invisible to file queries.
  TypeUniverse U2;
  TypeMap Plain(2);
  float A[2] = {1, 2};
  Plain.add(A, U2.parse("int"));
  EXPECT_EQ(Plain.fileTag(0), "");
  EXPECT_TRUE(Plain.markersForFile("anything.py").empty());

  // Removal tombstones exactly the file's rows, in place.
  size_t Removed = F.Map.removeMarkersForFile(F.Files[1]);
  EXPECT_EQ(Removed, 10u);
  EXPECT_EQ(F.Map.size(), 40u) << "tombstoning must not move rows";
  EXPECT_EQ(F.Map.liveSize(), 30u);
  EXPECT_EQ(F.Map.deadMarkers(), 10u);
  EXPECT_NEAR(F.Map.tombstoneRatio(), 0.25, 1e-12);
  EXPECT_TRUE(F.Map.markersForFile(F.Files[1]).empty());
  for (size_t I = 0; I != F.Map.size(); ++I)
    EXPECT_EQ(F.Map.isLive(I), F.Tags[I] != F.Files[1]) << "row " << I;
  // Removing again is a no-op.
  EXPECT_EQ(F.Map.removeMarkersForFile(F.Files[1]), 0u);
}

TEST(TypeMapMutationTest, RemoveReAddResurrectsBitIdentically) {
  TaggedMapFixture F(3, 12, 4, 8, 22);
  // Snapshot the full marker layout.
  std::vector<TypeRef> TypesBefore;
  std::vector<float> CoordsBefore;
  for (size_t I = 0; I != F.Map.size(); ++I) {
    TypesBefore.push_back(F.Map.type(I));
    for (int D = 0; D != 8; ++D)
      CoordsBefore.push_back(F.Map.embedding(I)[D]);
  }

  ASSERT_EQ(F.Map.removeMarkersForFile(F.Files[1]), 12u);
  // Re-add the identical content: every add resurrects (returns true)
  // instead of appending.
  for (size_t I = 12; I != 24; ++I)
    EXPECT_TRUE(F.Map.add(F.Points[I].data(), F.MarkTypes[I], F.Files[1]))
        << "row " << I << " did not resurrect";

  ASSERT_EQ(F.Map.size(), 36u) << "resurrection must not append";
  EXPECT_EQ(F.Map.liveSize(), 36u);
  EXPECT_EQ(F.Map.deadMarkers(), 0u);
  for (size_t I = 0; I != F.Map.size(); ++I) {
    EXPECT_EQ(F.Map.type(I), TypesBefore[I]) << "row " << I;
    EXPECT_EQ(F.Map.fileTag(I), F.Tags[I]) << "row " << I;
    for (int D = 0; D != 8; ++D)
      EXPECT_EQ(F.Map.embedding(I)[D],
                CoordsBefore[I * 8 + static_cast<size_t>(D)])
          << "row " << I << " dim " << D;
  }
  std::vector<int> Rows = F.Map.markersForFile(F.Files[1]);
  ASSERT_EQ(Rows.size(), 12u);
  EXPECT_EQ(Rows.front(), 12);
  EXPECT_EQ(Rows.back(), 23);

  // A live duplicate still drops (first-writer ownership).
  EXPECT_FALSE(F.Map.add(F.Points[0].data(), F.MarkTypes[0], "elsewhere.py"));
  EXPECT_EQ(F.Map.fileTag(0), F.Files[0]);
}

TEST(TypeMapMutationTest, TombstoneThenCompactEqualsFreshBuild) {
  TaggedMapFixture F(4, 15, 6, 8, 23);
  ASSERT_EQ(F.Map.removeMarkersForFile(F.Files[2]), 15u);
  EXPECT_TRUE(F.Map.compact());
  EXPECT_FALSE(F.Map.compact()) << "compact without tombstones must no-op";
  EXPECT_EQ(F.Map.deadMarkers(), 0u);

  // Fresh build over the surviving files only, same order.
  TypeMap Fresh(8);
  for (size_t I = 0; I != F.Points.size(); ++I)
    if (F.Tags[I] != F.Files[2])
      Fresh.add(F.Points[I].data(), F.MarkTypes[I], F.Tags[I]);

  ASSERT_EQ(F.Map.size(), Fresh.size());
  for (size_t I = 0; I != Fresh.size(); ++I) {
    EXPECT_EQ(F.Map.type(I), Fresh.type(I)) << "row " << I;
    EXPECT_EQ(F.Map.fileTag(I), Fresh.fileTag(I)) << "row " << I;
    for (int D = 0; D != 8; ++D)
      EXPECT_EQ(F.Map.embedding(I)[D], Fresh.embedding(I)[D])
          << "row " << I << " dim " << D;
  }
  // Per-file bookkeeping matches the fresh build's.
  for (const std::string &File : F.Files)
    EXPECT_EQ(F.Map.markersForFile(File), Fresh.markersForFile(File)) << File;
  // Dedup state after compaction matches too: an existing row still drops.
  EXPECT_FALSE(F.Map.add(F.Points[0].data(), F.MarkTypes[0], F.Files[0]));

  // Identical maps build identical forests: every query agrees bit-wise.
  AnnoyIndex IdxA(F.Map, 8, 16, 42), IdxB(Fresh, 8, 16, 42);
  for (size_t Q = 0; Q != 20; ++Q) {
    auto NA = IdxA.query(F.Points[Q].data(), 10);
    auto NB = IdxB.query(F.Points[Q].data(), 10);
    ASSERT_EQ(NA.size(), NB.size());
    for (size_t I = 0; I != NA.size(); ++I) {
      EXPECT_EQ(NA[I].first, NB[I].first);
      EXPECT_EQ(NA[I].second, NB[I].second);
    }
  }
}

TEST(TypeMapMutationTest, CompactWorksOnQuantizedStores) {
  // The LSP mutates *loaded* artifacts, which may be f16/int8: compaction
  // must preserve the stored (encoded) bytes of the survivors.
  for (MarkerStore S : {MarkerStore::F16, MarkerStore::Int8}) {
    TaggedMapFixture F(3, 8, 4, 8, 24);
    TypeMap Q = F.Map;
    Q.quantize(S);
    // Re-tag rows (quantize keeps tags; this asserts it).
    for (size_t I = 0; I != Q.size(); ++I)
      EXPECT_EQ(Q.fileTag(I), F.Tags[I]);

    std::vector<float> Before;
    std::vector<TypeRef> TypesBefore;
    for (size_t I = 0; I != Q.size(); ++I)
      if (F.Tags[I] != F.Files[0]) {
        TypesBefore.push_back(Q.type(I));
        for (int D = 0; D != 8; ++D)
          Before.push_back(Q.coord(I, D));
      }

    ASSERT_EQ(Q.removeMarkersForFile(F.Files[0]), 8u);
    ASSERT_TRUE(Q.compact());
    ASSERT_EQ(Q.size(), 16u);
    EXPECT_EQ(Q.store(), S);
    size_t Pos = 0;
    for (size_t I = 0; I != Q.size(); ++I) {
      EXPECT_EQ(Q.type(I), TypesBefore[I]) << markerStoreName(S);
      for (int D = 0; D != 8; ++D)
        EXPECT_EQ(Q.coord(I, D), Before[Pos++])
            << markerStoreName(S) << " row " << I << " dim " << D;
    }
  }
}

TEST(TypeMapMutationTest, DeadRowsSkippedInQueries) {
  TaggedMapFixture F(4, 25, 6, 8, 25);
  ExactIndex Exact(F.Map);
  AnnoyIndex Annoy(F.Map, 8, 16, 42);

  // Self-queries resolve to the marker itself while it is live.
  auto Self = Exact.query(F.Points[30].data(), 1);
  ASSERT_EQ(Self.size(), 1u);
  ASSERT_EQ(Self[0].first, 30);
  std::string Victim = F.Tags[30];

  ASSERT_GT(F.Map.removeMarkersForFile(Victim), 0u);
  // Neither index returns a tombstoned row — including through indexes
  // built before the removal.
  for (size_t Q = 0; Q < F.Points.size(); Q += 9) {
    for (auto [I, D] : Exact.query(F.Points[Q].data(), 10)) {
      EXPECT_TRUE(F.Map.isLive(static_cast<size_t>(I)));
      EXPECT_NE(F.Map.fileTag(static_cast<size_t>(I)), Victim);
    }
    for (auto [I, D] : Annoy.query(F.Points[Q].data(), 10)) {
      EXPECT_TRUE(F.Map.isLive(static_cast<size_t>(I)));
      EXPECT_NE(F.Map.fileTag(static_cast<size_t>(I)), Victim);
    }
  }
  // The dead self-marker's slot is answered by some other live row.
  auto After = Exact.query(F.Points[30].data(), 1);
  ASSERT_EQ(After.size(), 1u);
  EXPECT_NE(After[0].first, 30);
}

TEST(TypeMapMutationTest, TagsSurviveCoresetEviction) {
  // Per-file bookkeeping must stay exact through subsampleCoreset's row
  // remapping (serving artifacts are subsampled before the LSP mutates
  // them).
  TaggedMapFixture F(2, 100, 6, 8, 26);
  F.Map.subsampleCoreset(40);
  ASSERT_LE(F.Map.size(), 40u);

  for (const std::string &File : F.Files) {
    std::vector<int> Rows = F.Map.markersForFile(File);
    std::vector<int> Expect;
    for (size_t I = 0; I != F.Map.size(); ++I)
      if (F.Map.fileTag(I) == File)
        Expect.push_back(static_cast<int>(I));
    EXPECT_EQ(Rows, Expect) << File;
  }
  // Removal after eviction retires exactly the surviving tagged rows.
  size_t TaggedA = F.Map.markersForFile(F.Files[0]).size();
  EXPECT_EQ(F.Map.removeMarkersForFile(F.Files[0]), TaggedA);
  EXPECT_EQ(F.Map.liveSize(), F.Map.size() - TaggedA);
}

//===----------------------------------------------------------------------===//
// Serialized τmap bytes: pinned per store
//===----------------------------------------------------------------------===//

namespace {

/// The map the byte pins are computed over, in store \p S: tagged rows of
/// two files plus untagged ones (one all-zero, so int8 meets a zero
/// scale), quantized up front, then one file tombstoned, one of its rows
/// resurrected under a new tag, a live duplicate dropped, the map
/// compacted, and rows appended after the compaction. Coordinates are
/// single products of small integers and 0.37f, so they are exact on
/// every host.
TypeMap pinnedMutatedMap(TypeUniverse &U, MarkerStore S) {
  constexpr int D = 6; // int8 rows of 4 + 6 bytes: unaligned scales
  auto Row = [](int I) {
    std::vector<float> R(static_cast<size_t>(D));
    for (int K = 0; K != D; ++K)
      R[static_cast<size_t>(K)] =
          I == 11 ? 0.f : static_cast<float>((I * 7 + K * 5) % 23 - 11) * 0.37f;
    return R;
  };
  const TypeRef Types[] = {U.parse("int"), U.parse("str"),
                           U.parse("List[int]"), U.parse("Optional[str]")};
  auto TypeOf = [&](int I) { return Types[I % 4]; };
  TypeMap Map(D);
  for (int I = 0; I != 12; ++I)
    Map.add(Row(I).data(), TypeOf(I),
            I < 6 ? "a.py" : I < 10 ? "b.py" : "");
  if (S != MarkerStore::F32)
    Map.quantize(S);
  EXPECT_EQ(Map.removeMarkersForFile("a.py"), 6u);
  EXPECT_TRUE(Map.add(Row(2).data(), TypeOf(2), "c.py")); // resurrected
  EXPECT_TRUE(Map.add(Row(20).data(), TypeOf(20), "a.py"));
  EXPECT_FALSE(Map.add(Row(7).data(), TypeOf(7), "b.py")); // live duplicate
  EXPECT_TRUE(Map.compact());
  EXPECT_TRUE(Map.add(Row(21).data(), TypeOf(21)));
  EXPECT_FALSE(Map.add(Row(21).data(), TypeOf(21)));
  EXPECT_EQ(Map.size(), 9u);
  return Map;
}

/// FNV-1a of the chunk payload save() writes for \p Map, with dense type
/// ids assigned in first-occurrence order.
uint64_t snapshotPayloadHash(const TypeMap &Map) {
  std::map<TypeRef, int> TypeIds;
  for (size_t I = 0; I != Map.size(); ++I)
    TypeIds.emplace(Map.type(I), static_cast<int>(TypeIds.size()));
  ArchiveWriter W(1);
  W.beginChunk(Map.chunkTag());
  Map.save(W, TypeIds);
  W.endChunk();
  ArchiveReader R;
  std::string Err;
  EXPECT_TRUE(R.openBytes(W.bytes(), &Err)) << Err;
  ArchiveCursor C = R.chunk(Map.chunkTag(), &Err);
  std::string Payload(C.remaining(), '\0');
  C.readBytes(Payload.data(), Payload.size());
  return fnv1a(Payload);
}

} // namespace

TEST(TypeMapBytesTest, SnapshotPayloadsArePinnedPerStore) {
  // Every store's payload is a historical byte stream that artifacts on
  // disk already carry; a change to any of them is a format change.
  struct Pin {
    MarkerStore Store;
    uint64_t Hash;
    size_t StorageBytes;
  };
  for (const Pin &P : {Pin{MarkerStore::F32, 0x10f4ba70d338a0b0ull, 216},
                       Pin{MarkerStore::F16, 0x4bef9bbf65abba67ull, 108},
                       Pin{MarkerStore::Int8, 0x92531b0fcba4a64full, 90}}) {
    TypeUniverse U;
    TypeMap Map = pinnedMutatedMap(U, P.Store);
    EXPECT_EQ(snapshotPayloadHash(Map), P.Hash) << markerStoreName(P.Store);
    EXPECT_EQ(Map.storageBytes(), P.StorageBytes) << markerStoreName(P.Store);
  }
}

//===----------------------------------------------------------------------===//
// Blocked exact top-k: bit-identical to the legacy full-sort scan
//===----------------------------------------------------------------------===//

TEST(ExactIndexTest, BlockedScanMatchesLegacyBitForBit) {
  // The blocked engine replaces materialize + partial_sort with a tiled
  // scan and a bounded heap; (distance, index) is a total order, so the
  // selected set — and its order — must be the legacy result exactly,
  // on every marker store and at any thread count.
  MapFixture F(1500, 12, 16, 31);
  Rng R(32);
  const int NumQ = 40, D = 16;
  std::vector<float> Qs;
  for (int Q = 0; Q != NumQ; ++Q) {
    if (Q < 10) { // self-queries exercise exact-zero distances
      Qs.insert(Qs.end(), F.Points[static_cast<size_t>(Q)].begin(),
                F.Points[static_cast<size_t>(Q)].end());
      continue;
    }
    for (int I = 0; I != D; ++I)
      Qs.push_back(static_cast<float>(R.normal()));
  }

  for (MarkerStore S :
       {MarkerStore::F32, MarkerStore::F16, MarkerStore::Int8}) {
    TypeMap Map = F.Map;
    if (S != MarkerStore::F32)
      Map.quantize(S);
    ExactIndex Idx(Map);
    for (int K : {1, 10, 64, 2000}) { // 2000 > N: clamped, full sort
      for (int Q = 0; Q != NumQ; ++Q) {
        auto Blocked = Idx.query(Qs.data() + Q * D, K);
        auto Legacy = referenceKnn(Map, Qs.data() + Q * D, K);
        ASSERT_EQ(Blocked, Legacy)
            << markerStoreName(S) << " query " << Q << " K=" << K;
      }
      for (int Threads : {1, 4}) {
        setGlobalNumThreads(Threads);
        auto Batch = Idx.queryBatch(Qs.data(), NumQ, K);
        setGlobalNumThreads(0);
        ASSERT_EQ(Batch.size(), static_cast<size_t>(NumQ));
        for (int Q = 0; Q != NumQ; ++Q)
          ASSERT_EQ(Batch[static_cast<size_t>(Q)],
                    referenceKnn(Map, Qs.data() + Q * D, K))
              << markerStoreName(S) << " batch query " << Q << " K=" << K
              << " threads=" << Threads;
      }
    }
  }
}

TEST(ExactIndexTest, BlockedScanHandlesDegenerateK) {
  MapFixture F(50, 5, 8, 34);
  ExactIndex Idx(F.Map);
  EXPECT_TRUE(Idx.query(F.Points[0].data(), 0).empty());
  auto Batch = Idx.queryBatch(F.Points[0].data(), 1, 0);
  ASSERT_EQ(Batch.size(), 1u);
  EXPECT_TRUE(Batch[0].empty());
}

//===----------------------------------------------------------------------===//
// HNSW graph index (deterministic build, budgeted query)
//===----------------------------------------------------------------------===//

TEST(HnswIndexTest, EmptyMapYieldsNothing) {
  TypeUniverse U;
  TypeMap Map(4);
  HnswIndex H(Map);
  std::vector<float> Q(4, 0.f);
  EXPECT_TRUE(H.query(Q.data(), 5).empty());
}

TEST(HnswIndexTest, HighRecallVsExactAndAtLeastAnnoy) {
  // The acceptance guardrail: at the default build parameters and a
  // bounded per-query budget, recall@10 against the exact scan must
  // clear 0.95 — and not trail the Annoy forest's at its defaults.
  MapFixture F(2000, 20, 16, 4);
  ExactIndex Exact(F.Map);
  AnnoyIndex Annoy(F.Map);
  HnswIndex Hnsw(F.Map);
  Rng R(5);
  double AnnoyRecall = 0, HnswRecall = 0;
  const int Queries = 50, K = 10;
  for (int Q = 0; Q != Queries; ++Q) {
    std::vector<float> P(16);
    for (float &X : P)
      X = static_cast<float>(R.normal());
    auto Truth = Exact.query(P.data(), K);
    std::set<int> TruthSet;
    for (auto [I, D] : Truth)
      TruthSet.insert(I);
    int AnnoyHits = 0, HnswHits = 0;
    for (auto [I, D] : Annoy.query(P.data(), K))
      AnnoyHits += TruthSet.count(I);
    for (auto [I, D] : Hnsw.query(P.data(), K, /*EfSearch=*/128))
      HnswHits += TruthSet.count(I);
    AnnoyRecall += static_cast<double>(AnnoyHits) / K;
    HnswRecall += static_cast<double>(HnswHits) / K;
  }
  AnnoyRecall /= Queries;
  HnswRecall /= Queries;
  EXPECT_GE(HnswRecall, 0.95) << "HNSW recall@10 below the guardrail";
  EXPECT_GE(HnswRecall, AnnoyRecall)
      << "HNSW must not trail the Annoy forest at default parameters";
}

TEST(HnswIndexTest, ReturnedDistancesAreTrueL1) {
  MapFixture F(300, 5, 8, 6);
  HnswIndex H(F.Map);
  auto N = H.query(F.Points[7].data(), 5);
  ASSERT_FALSE(N.empty());
  for (auto [Idx, Dist] : N) {
    float True = 0;
    for (int D = 0; D != 8; ++D)
      True += std::fabs(F.Points[7][static_cast<size_t>(D)] -
                        F.Map.embedding(static_cast<size_t>(Idx))[D]);
    EXPECT_NEAR(Dist, True, 1e-4f);
  }
}

TEST(HnswIndexTest, BuildIsDeterministicAcrossThreadCounts) {
  // The graph is a function of (Map, Seed) alone: insertion order is
  // sequential and only candidate distance evaluation fans out, so any
  // thread count builds byte-identical adjacency — asserted through
  // query identity, the observable that matters.
  MapFixture F(900, 10, 8, 35);
  setGlobalNumThreads(1);
  HnswIndex Serial(F.Map, 16, 128, 42);
  setGlobalNumThreads(4);
  HnswIndex Parallel(F.Map, 16, 128, 42);
  setGlobalNumThreads(0);
  for (size_t Q = 0; Q != 30; ++Q) {
    auto NA = Serial.query(F.Points[Q].data(), 10);
    auto NB = Parallel.query(F.Points[Q].data(), 10);
    ASSERT_EQ(NA, NB) << "query " << Q;
  }
}

TEST(HnswIndexTest, QueryBatchMatchesIndividualQueries) {
  MapFixture F(800, 10, 8, 36);
  HnswIndex H(F.Map, 16, 128, 7);
  std::vector<float> Qs;
  const int NumQ = 30, D = 8;
  for (int Q = 0; Q != NumQ; ++Q)
    Qs.insert(Qs.end(), F.Points[static_cast<size_t>(Q)].begin(),
              F.Points[static_cast<size_t>(Q)].end());
  for (int Threads : {1, 4}) {
    setGlobalNumThreads(Threads);
    auto Batch = H.queryBatch(Qs.data(), NumQ, 5);
    setGlobalNumThreads(0);
    ASSERT_EQ(Batch.size(), static_cast<size_t>(NumQ));
    for (int Q = 0; Q != NumQ; ++Q)
      ASSERT_EQ(Batch[static_cast<size_t>(Q)], H.query(Qs.data() + Q * D, 5))
          << "query " << Q << " threads=" << Threads;
  }
}

TEST(HnswIndexTest, EfSearchTradesRecallMonotonically) {
  // The per-request budget is a real knob: a clamped-to-K beam may miss,
  // a generous one must not do worse. (Weak monotonicity only — equal
  // recalls are fine on easy data.)
  MapFixture F(1500, 12, 16, 37);
  ExactIndex Exact(F.Map);
  HnswIndex H(F.Map);
  Rng R(38);
  const int Queries = 30, K = 10;
  double RecallAt[2] = {0, 0}; // EfSearch = K (floor) vs 256
  for (int Q = 0; Q != Queries; ++Q) {
    std::vector<float> P(16);
    for (float &X : P)
      X = static_cast<float>(R.normal());
    std::set<int> TruthSet;
    for (auto [I, D] : Exact.query(P.data(), K))
      TruthSet.insert(I);
    int E = 0;
    for (int Ef : {K, 256}) {
      int Hits = 0;
      for (auto [I, D] : H.query(P.data(), K, Ef))
        Hits += TruthSet.count(I);
      RecallAt[E++] += static_cast<double>(Hits) / K;
    }
  }
  EXPECT_GE(RecallAt[1], RecallAt[0]);
  EXPECT_GE(RecallAt[1] / Queries, 0.95);
}

TEST(HnswIndexTest, DeadRowsAreSkipped) {
  TaggedMapFixture F(4, 25, 6, 8, 27);
  HnswIndex H(F.Map, 16, 128, 42);
  std::string Victim = F.Tags[30];
  ASSERT_GT(F.Map.removeMarkersForFile(Victim), 0u);
  // An index built before the removal routes through dead rows but never
  // surfaces one.
  for (size_t Q = 0; Q < F.Points.size(); Q += 9) {
    auto N = H.query(F.Points[Q].data(), 10);
    ASSERT_FALSE(N.empty());
    for (auto [I, D] : N) {
      EXPECT_TRUE(F.Map.isLive(static_cast<size_t>(I)));
      EXPECT_NE(F.Map.fileTag(static_cast<size_t>(I)), Victim);
    }
  }
}

TEST(HnswIndexTest, SnapshotRoundTripIsQueryIdentical) {
  MapFixture F(600, 8, 8, 33);
  HnswIndex Built(F.Map, 16, 128, 42);
  ArchiveWriter W(3);
  W.beginChunk("hnsw");
  Built.save(W);
  W.endChunk();
  ArchiveReader R;
  std::string Err;
  ASSERT_TRUE(R.openBytes(W.bytes(), &Err)) << Err;
  ArchiveCursor C = R.chunk("hnsw", &Err);
  std::unique_ptr<HnswIndex> Loaded = HnswIndex::load(C, F.Map, &Err);
  ASSERT_NE(Loaded, nullptr) << Err;
  ASSERT_TRUE(C.atEnd()) << "trailing bytes in the hnsw snapshot";
  EXPECT_EQ(Loaded->indexedMarkers(), Built.indexedMarkers());
  EXPECT_EQ(Loaded->m(), Built.m());
  EXPECT_EQ(Loaded->efConstruction(), Built.efConstruction());
  for (size_t Q = 0; Q != 25; ++Q)
    for (int Ef : {-1, 32, 200})
      ASSERT_EQ(Loaded->query(F.Points[Q].data(), 10, Ef),
                Built.query(F.Points[Q].data(), 10, Ef))
          << "query " << Q << " ef " << Ef;
}

//===----------------------------------------------------------------------===//
// The KnnIndex interface: one factory, one query path with the delta scan
//===----------------------------------------------------------------------===//

TEST(KnnIndexTest, FactoryMapsKindsToEngines) {
  MapFixture F(200, 6, 8, 43);
  std::unique_ptr<KnnIndex> Exact = buildIndex(KnnIndexKind::Exact, F.Map);
  EXPECT_NE(dynamic_cast<const ExactIndex *>(Exact.get()), nullptr);
  EXPECT_EQ(Exact->chunkTag(), nullptr);
  EXPECT_EQ(Exact->formatVersion(), 1u);

  std::unique_ptr<KnnIndex> Annoy = buildIndex(KnnIndexKind::Annoy, F.Map);
  EXPECT_NE(dynamic_cast<const AnnoyIndex *>(Annoy.get()), nullptr);
  EXPECT_STREQ(Annoy->chunkTag(), "anny");
  EXPECT_EQ(Annoy->formatVersion(), 1u);

  std::unique_ptr<KnnIndex> Hnsw = buildIndex(KnnIndexKind::Hnsw, F.Map);
  const auto *H = dynamic_cast<const HnswIndex *>(Hnsw.get());
  ASSERT_NE(H, nullptr);
  EXPECT_STREQ(Hnsw->chunkTag(), "hnsw");
  EXPECT_EQ(Hnsw->formatVersion(), 3u);
  EXPECT_EQ(H->m(), 16);
  EXPECT_EQ(H->efConstruction(), 128);

  // The factory's build constants are the engines' defaults.
  AnnoyIndex DefaultAnnoy(F.Map);
  HnswIndex DefaultHnsw(F.Map);
  for (size_t Q = 0; Q != 10; ++Q) {
    EXPECT_EQ(Annoy->query(F.Points[Q].data(), 10),
              DefaultAnnoy.query(F.Points[Q].data(), 10));
    EXPECT_EQ(Hnsw->query(F.Points[Q].data(), 10),
              DefaultHnsw.query(F.Points[Q].data(), 10));
  }
}

TEST(KnnIndexTest, EmptyMapIsServedByTheExactScan) {
  // Nothing to index: every kind gets the exact scan (no snapshot chunk),
  // and rows added later are answered.
  for (KnnIndexKind Kind :
       {KnnIndexKind::Exact, KnnIndexKind::Annoy, KnnIndexKind::Hnsw}) {
    TypeUniverse U;
    TypeMap Map(4);
    std::unique_ptr<KnnIndex> Idx = buildIndex(Kind, Map);
    EXPECT_NE(dynamic_cast<const ExactIndex *>(Idx.get()), nullptr)
        << knnIndexName(Kind);
    EXPECT_EQ(Idx->chunkTag(), nullptr) << knnIndexName(Kind);
    float E[4] = {0.5f, -1.f, 2.f, 0.f};
    ASSERT_TRUE(Map.add(E, U.get("int")));
    NeighborList N = Idx->query(E, 3);
    ASSERT_EQ(N.size(), 1u) << knnIndexName(Kind);
    EXPECT_EQ(N[0], (std::pair<int, float>(0, 0.f))) << knnIndexName(Kind);
  }
}

TEST(KnnIndexTest, RowsAddedAfterTheBuildAreAnswered) {
  // Every engine answers over the rows it was built on and merges an
  // exact scan of the rows appended since, under neighborLess: each
  // appended point finds itself first at distance 0, no row is answered
  // twice, and the exact engine (which scans every row anyway) still
  // equals the reference scan over the whole map.
  MapFixture F(400, 8, 8, 44);
  const int NumAdded = 30, D = 8;
  Rng R(45);
  std::vector<float> Added;
  for (int I = 0; I != NumAdded * D; ++I)
    Added.push_back(static_cast<float>(R.normal()));
  for (KnnIndexKind Kind :
       {KnnIndexKind::Exact, KnnIndexKind::Annoy, KnnIndexKind::Hnsw}) {
    TypeMap Map = F.Map;
    std::unique_ptr<KnnIndex> Idx = buildIndex(Kind, Map);
    for (int Q = 0; Q != NumAdded; ++Q)
      ASSERT_TRUE(Map.add(Added.data() + Q * D, F.U.get("Added")));
    EXPECT_EQ(Idx->indexedMarkers(),
              Kind == KnnIndexKind::Exact ? Map.size() : F.Map.size());
    std::vector<NeighborList> Batch =
        Idx->queryBatch(Added.data(), NumAdded, 10);
    ASSERT_EQ(Batch.size(), static_cast<size_t>(NumAdded));
    for (int Q = 0; Q != NumAdded; ++Q) {
      const NeighborList &N = Batch[static_cast<size_t>(Q)];
      ASSERT_EQ(N.size(), 10u) << knnIndexName(Kind) << " query " << Q;
      EXPECT_EQ(N[0], (std::pair<int, float>(400 + Q, 0.f)))
          << knnIndexName(Kind) << " query " << Q;
      EXPECT_TRUE(std::is_sorted(N.begin(), N.end(), neighborLess));
      std::set<int> Rows;
      for (auto [I, Dist] : N)
        Rows.insert(I);
      EXPECT_EQ(Rows.size(), N.size()) << knnIndexName(Kind);
      if (Kind == KnnIndexKind::Exact) {
        EXPECT_EQ(N, referenceKnn(Map, Added.data() + Q * D, 10));
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Non-finite markers are rejected on load
//===----------------------------------------------------------------------===//

namespace {

/// Loads a hand-written one-marker snapshot of dimension 2 in store \p S:
/// \p WriteRows writes the row payload between the header and the type
/// id. \returns load()'s result; \p Err gets its message.
bool loadHandWritten(MarkerStore S,
                     const std::function<void(ArchiveWriter &)> &WriteRows,
                     std::string *Err) {
  TypeUniverse U;
  TypeMap Tagger(2);
  Tagger.quantize(S); // empty: only the chunk tag matters
  ArchiveWriter W(2);
  W.beginChunk(Tagger.chunkTag());
  W.writeI32(2);
  W.writeU64(1);
  WriteRows(W);
  W.writeI32(0);
  W.endChunk();
  ArchiveReader R;
  EXPECT_TRUE(R.openBytes(W.bytes(), Err)) << *Err;
  TypeMap Loaded(2);
  return Loaded.load(R, {U.parse("int")}, Err);
}

} // namespace

TEST(TypeMapLoadTest, RejectsNonFiniteF32Coordinates) {
  const float Inf = std::numeric_limits<float>::infinity();
  const float NaN = std::numeric_limits<float>::quiet_NaN();
  for (float Bad : {Inf, -Inf, NaN}) {
    std::string Err;
    EXPECT_FALSE(loadHandWritten(
        MarkerStore::F32,
        [Bad](ArchiveWriter &W) {
          const float Row[2] = {1.f, Bad};
          W.writeF32Array(Row, 2);
        },
        &Err));
    EXPECT_EQ(Err, "malformed type-map snapshot");
  }
  std::string Err;
  EXPECT_TRUE(loadHandWritten(
      MarkerStore::F32,
      [](ArchiveWriter &W) {
        const float Row[2] = {1.f, -2.f};
        W.writeF32Array(Row, 2);
      },
      &Err))
      << Err;
}

TEST(TypeMapLoadTest, RejectsNonFiniteF16Coordinates) {
  // +Inf, -Inf, a quiet and a signalling NaN: every all-ones exponent.
  for (uint16_t Bad : {0x7C00, 0xFC00, 0x7E00, 0x7C01}) {
    std::string Err;
    EXPECT_FALSE(loadHandWritten(
        MarkerStore::F16,
        [Bad](ArchiveWriter &W) {
          const uint16_t Row[2] = {Bad, 0x3C00};
          W.writeU16Array(Row, 2);
        },
        &Err))
        << std::hex << Bad;
    EXPECT_EQ(Err, "malformed type-map snapshot");
  }
  std::string Err;
  EXPECT_TRUE(loadHandWritten(
      MarkerStore::F16,
      [](ArchiveWriter &W) {
        const uint16_t Row[2] = {0x7BFF, 0x3C00}; // the largest finite half
        W.writeU16Array(Row, 2);
      },
      &Err))
      << Err;
}

TEST(TypeMapLoadTest, RejectsNonFiniteInt8Scales) {
  const float Inf = std::numeric_limits<float>::infinity();
  const float NaN = std::numeric_limits<float>::quiet_NaN();
  // A non-finite scale, and a finite one whose codes decode past FLT_MAX.
  for (float Bad : {Inf, NaN, 3e38f}) {
    std::string Err;
    EXPECT_FALSE(loadHandWritten(
        MarkerStore::Int8,
        [Bad](ArchiveWriter &W) {
          const int8_t Codes[2] = {0, 127};
          W.writeF32(Bad);
          W.writeBytes(Codes, 2);
        },
        &Err))
        << Bad;
    EXPECT_EQ(Err, "malformed type-map snapshot");
  }
  std::string Err;
  EXPECT_TRUE(loadHandWritten(
      MarkerStore::Int8,
      [](ArchiveWriter &W) {
        const int8_t Codes[2] = {0, 127};
        W.writeF32(0.5f);
        W.writeBytes(Codes, 2);
      },
      &Err))
      << Err;
}

TEST(AnnoyLoadTest, RejectsNonFiniteSplitThresholds) {
  // A hand-written forest over two markers: one split node whose two
  // leaves hold one marker each. A NaN or infinite threshold is rejected;
  // the finite control loads and answers.
  TypeUniverse U;
  TypeMap Map(2);
  const float A[2] = {-1.f, 0.f}, B[2] = {1.f, 0.f};
  ASSERT_TRUE(Map.add(A, U.get("int")));
  ASSERT_TRUE(Map.add(B, U.get("str")));
  auto Load = [&](float Threshold, std::string *Err) {
    ArchiveWriter W(1);
    W.beginChunk("anny");
    W.writeI32(1); // leaf size
    W.writeU64(3); // nodes
    W.writeI32(0); // node 0: split on dimension 0
    W.writeF32(Threshold);
    W.writeI32(1);
    W.writeI32(2);
    W.writeU64(0);
    for (int32_t Item : {0, 1}) { // nodes 1 and 2: leaves
      W.writeI32(-1);
      W.writeF32(0.f);
      W.writeI32(-1);
      W.writeI32(-1);
      W.writeU64(1);
      W.writeI32(Item);
    }
    W.writeU64(1); // roots
    W.writeI32(0);
    W.endChunk();
    ArchiveReader R;
    EXPECT_TRUE(R.openBytes(W.bytes(), Err)) << *Err;
    ArchiveCursor C = R.chunk("anny", Err);
    return AnnoyIndex::load(C, Map, Err);
  };
  for (float Bad : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity(),
                    -std::numeric_limits<float>::infinity()}) {
    std::string Err;
    EXPECT_EQ(Load(Bad, &Err), nullptr) << Bad;
    EXPECT_EQ(Err, "malformed kNN index snapshot: non-finite split threshold");
  }
  std::string Err;
  std::unique_ptr<AnnoyIndex> Good = Load(0.f, &Err);
  ASSERT_NE(Good, nullptr) << Err;
  NeighborList N = Good->query(B, 2);
  ASSERT_EQ(N.size(), 2u);
  EXPECT_EQ(N[0].first, 1);
  EXPECT_EQ(N[1].first, 0);
}

namespace {

/// Markers on a coarse grid (coordinates in {-1, -0.5, 0, 0.5, 1}), each
/// point stored under one to three types and tagged with one of ten
/// files: duplicated coordinates (degenerate splits), split thresholds
/// that grid queries hit exactly (zero margins) and tied priorities
/// everywhere.
struct GridMapFixture {
  TypeUniverse U;
  TypeMap Map;
  std::vector<std::vector<float>> Points;

  GridMapFixture(int NumPoints, int D, uint64_t Seed) : Map(D) {
    Rng R(Seed);
    for (int P = 0; P != NumPoints; ++P) {
      std::vector<float> X(static_cast<size_t>(D));
      for (float &V : X)
        V = 0.5f * static_cast<float>(static_cast<int>(R.uniformInt(5)) - 2);
      int Copies = 1 + static_cast<int>(R.uniformInt(3));
      for (int C = 0; C != Copies; ++C)
        Map.add(X.data(), U.get(strformat("T%d", C)),
                strformat("proj/f%d.py", P % 10));
      Points.push_back(std::move(X));
    }
  }
};

/// Every query of \p Qs at every K agrees with the priority-queue probe,
/// one at a time and as one batch.
void expectMatchesReferenceProbe(const TypeMap &Map, const AnnoyIndex &Idx,
                                 const std::vector<float> &Qs,
                                 const std::string &What) {
  ReferenceAnnoy Ref(Map, Idx);
  const int D = Map.dim();
  const int64_t NumQ = static_cast<int64_t>(Qs.size()) / D;
  for (int K : {1, 10, 64, static_cast<int>(Map.size()) + 7}) {
    std::vector<NeighborList> Batch = Idx.queryBatch(Qs.data(), NumQ, K);
    ASSERT_EQ(Batch.size(), static_cast<size_t>(NumQ));
    for (int64_t Q = 0; Q != NumQ; ++Q) {
      NeighborList Want = Ref.query(Qs.data() + Q * D, K);
      ASSERT_FALSE(Want.empty()) << What;
      EXPECT_EQ(Batch[static_cast<size_t>(Q)], Want)
          << What << " K=" << K << " query " << Q;
      EXPECT_EQ(Idx.query(Qs.data() + Q * D, K), Want)
          << What << " K=" << K << " query " << Q;
    }
  }
}

} // namespace

TEST(AnnoyProbeTest, MatchesThePriorityQueueProbe) {
  const int D = 6;
  for (MarkerStore S : {MarkerStore::F32, MarkerStore::F16, MarkerStore::Int8})
    for (uint64_t Seed : {61u, 62u}) {
      GridMapFixture F(200, D, Seed);
      F.Map.quantize(S);
      // Queries: the grid points themselves (zero margins), midpoints
      // between them, and off-grid normals.
      std::vector<float> Qs;
      Rng R(Seed + 100);
      for (size_t P = 0; P + 1 < F.Points.size(); P += 20) {
        Qs.insert(Qs.end(), F.Points[P].begin(), F.Points[P].end());
        for (int J = 0; J != D; ++J)
          Qs.push_back(0.5f * (F.Points[P][static_cast<size_t>(J)] +
                               F.Points[P + 1][static_cast<size_t>(J)]));
        for (int J = 0; J != D; ++J)
          Qs.push_back(static_cast<float>(R.normal()));
      }
      std::string What = std::string(markerStoreName(S)) + " seed " +
                         std::to_string(Seed);
      AnnoyIndex Idx(F.Map, 8, 16, Seed);
      expectMatchesReferenceProbe(F.Map, Idx, Qs, What + " fresh");

      // Tombstones: leaves keep the dead rows, the probe must skip them.
      ASSERT_GT(F.Map.removeMarkersForFile("proj/f0.py"), 0u);
      ASSERT_GT(F.Map.removeMarkersForFile("proj/f3.py"), 0u);
      expectMatchesReferenceProbe(F.Map, Idx, Qs, What + " tombstoned");

      // Appended delta rows, plus one resurrected tombstone.
      for (int P = 0; P != 12; ++P) {
        std::vector<float> X(static_cast<size_t>(D));
        for (float &V : X)
          V = static_cast<float>(R.normal());
        ASSERT_TRUE(F.Map.add(X.data(), F.U.get("Delta"), "proj/new.py"));
        Qs.insert(Qs.end(), X.begin(), X.end());
      }
      ASSERT_TRUE(F.Map.add(F.Points[0].data(), F.U.get("T0"), "proj/f0.py"));
      ASSERT_GT(F.Map.size(), Idx.indexedMarkers());
      expectMatchesReferenceProbe(F.Map, Idx, Qs, What + " with delta");
    }
}

TEST(KnnIndexTest, AKAboveTheMarkerCountRanksEveryLiveMarker) {
  // Search bounds derived from K (Annoy's NumTrees·K·4, HNSW's 4·K beam,
  // the exact scan's heap reservation) are taken in 64 bits and clamped
  // to the map, so a huge K answers with every live marker, ranked, and
  // allocates nothing K-sized.
  TaggedMapFixture F(4, 15, 5, 8, 71);
  ASSERT_GT(F.Map.removeMarkersForFile(F.Files[1]), 0u);
  for (KnnIndexKind Kind :
       {KnnIndexKind::Exact, KnnIndexKind::Annoy, KnnIndexKind::Hnsw}) {
    std::unique_ptr<KnnIndex> Idx = buildIndex(Kind, F.Map);
    for (int K : {1 << 26, std::numeric_limits<int>::max()})
      for (size_t Q = 0; Q < F.Points.size(); Q += 11) {
        NeighborList Got = Idx->query(F.Points[Q].data(), K);
        EXPECT_EQ(Got.size(), F.Map.liveSize()) << knnIndexName(Kind);
        EXPECT_EQ(Got, referenceKnn(F.Map, F.Points[Q].data(), K))
            << knnIndexName(Kind) << " K=" << K << " query " << Q;
      }
  }
}
