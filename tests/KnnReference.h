//===- tests/KnnReference.h - Reference exact kNN scan ----------*- C++ -*-===//
//
// Part of the Typilus C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Historical query paths kept outside the library as bit-identity
/// references (tests/KnnTest.cpp):
///   - the exact scan — materialize every live marker's distance, then
///     partial_sort — for ExactIndex's blocked engine, and the baseline of
///     bench/knn_query;
///   - the priority-queue Annoy probe, for AnnoyIndex's heap-light one.
///
//===----------------------------------------------------------------------===//

#ifndef TYPILUS_TESTS_KNNREFERENCE_H
#define TYPILUS_TESTS_KNNREFERENCE_H

#include "knn/TypeMap.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

namespace typilus {

/// The \p K nearest live markers of \p Map to \p Q under neighborLess.
inline NeighborList referenceKnn(const TypeMap &Map, const float *Q, int K) {
  NeighborList All;
  All.reserve(Map.size());
  for (size_t I = 0; I != Map.size(); ++I)
    if (Map.isLive(I))
      All.emplace_back(static_cast<int>(I), Map.l1DistanceTo(Q, I));
  size_t Keep = std::min<size_t>(static_cast<size_t>(K), All.size());
  std::partial_sort(All.begin(), All.begin() + static_cast<long>(Keep),
                    All.end(), neighborLess);
  All.resize(Keep);
  return All;
}

/// The historical Annoy probe over \p Idx's forest, which it reads back
/// from AnnoyIndex::save's bytes (so the library keeps one traversal):
/// best-first over all trees through a std::priority_queue ordered by
/// (priority, node), a fresh seen-array per query, leaves collected until
/// NumTrees·K·4 live candidates, then an exact re-rank; rows appended
/// after the build merge in from an exact scan, as in queryBatch.
class ReferenceAnnoy {
public:
  ReferenceAnnoy(const TypeMap &Map, const AnnoyIndex &Idx)
      : Map(Map), NumIndexed(Idx.indexedMarkers()) {
    ArchiveWriter W(1);
    W.beginChunk(AnnoyIndex::ChunkTag);
    Idx.save(W);
    W.endChunk();
    ArchiveReader R;
    std::string Err;
    if (!R.openBytes(W.bytes(), &Err))
      return; // Nodes stays empty; every query then comes back empty.
    ArchiveCursor C = R.chunk(AnnoyIndex::ChunkTag, &Err);
    C.readI32(); // leaf size
    Nodes.resize(static_cast<size_t>(C.readU64()));
    for (Node &N : Nodes) {
      N.SplitDim = C.readI32();
      N.Threshold = C.readF32();
      N.Left = C.readI32();
      N.Right = C.readI32();
      N.Items.resize(static_cast<size_t>(C.readU64()));
      C.readI32Array(N.Items.data(), N.Items.size());
    }
    Roots.resize(static_cast<size_t>(C.readU64()));
    C.readI32Array(Roots.data(), Roots.size());
  }

  NeighborList query(const float *Q, int K) const {
    const int64_t SearchK = static_cast<int64_t>(Roots.size()) * K * 4;
    using Entry = std::pair<float, int>; // (priority, node)
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> Queue;
    for (int Root : Roots)
      Queue.emplace(0.f, Root);
    std::vector<char> Seen(Map.size(), 0);
    std::vector<int> Candidates;
    while (!Queue.empty() &&
           static_cast<int64_t>(Candidates.size()) < SearchK) {
      auto [Prio, NodeIdx] = Queue.top();
      Queue.pop();
      const Node &N = Nodes[static_cast<size_t>(NodeIdx)];
      if (N.SplitDim < 0) {
        for (int It : N.Items)
          if (!Seen[static_cast<size_t>(It)]) {
            Seen[static_cast<size_t>(It)] = 1;
            if (Map.isLive(static_cast<size_t>(It)))
              Candidates.push_back(It);
          }
        continue;
      }
      float Margin = Q[N.SplitDim] - N.Threshold;
      int Near = Margin < 0 ? N.Left : N.Right;
      int Far = Margin < 0 ? N.Right : N.Left;
      Queue.emplace(Prio, Near);
      Queue.emplace(Prio + std::fabs(Margin), Far);
    }
    NeighborList Result;
    for (int It : Candidates)
      Result.emplace_back(It, Map.l1DistanceTo(Q, static_cast<size_t>(It)));
    for (size_t I = NumIndexed; I < Map.size(); ++I)
      if (Map.isLive(I))
        Result.emplace_back(static_cast<int>(I), Map.l1DistanceTo(Q, I));
    size_t Keep = std::min<size_t>(static_cast<size_t>(std::max(K, 0)),
                                   Result.size());
    std::partial_sort(Result.begin(), Result.begin() + static_cast<long>(Keep),
                      Result.end(), neighborLess);
    Result.resize(Keep);
    return Result;
  }

private:
  struct Node {
    int32_t SplitDim = -1;
    float Threshold = 0;
    int32_t Left = -1, Right = -1;
    std::vector<int32_t> Items;
  };
  const TypeMap &Map;
  size_t NumIndexed;
  std::vector<Node> Nodes;
  std::vector<int32_t> Roots;
};

} // namespace typilus

#endif // TYPILUS_TESTS_KNNREFERENCE_H
