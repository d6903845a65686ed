//===- tests/KnnReference.h - Reference exact kNN scan ----------*- C++ -*-===//
//
// Part of the Typilus C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The historical exact scan — materialize every live marker's distance,
/// then partial_sort — kept outside the library as the bit-identity
/// reference for ExactIndex's blocked engine (tests/KnnTest.cpp) and as
/// the baseline of bench/knn_query.
///
//===----------------------------------------------------------------------===//

#ifndef TYPILUS_TESTS_KNNREFERENCE_H
#define TYPILUS_TESTS_KNNREFERENCE_H

#include "knn/TypeMap.h"

#include <algorithm>

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

} // namespace typilus

#endif // TYPILUS_TESTS_KNNREFERENCE_H
