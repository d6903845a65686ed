//===- bench/knn_query.cpp - kNN index query latency and recall ----------------===//
//
// The crawl-scale query engine head-to-head: the legacy exact scan
// (materialize + partial_sort), the blocked exact scan (tiled, bounded
// heap) over f32, f16 and int8 marker stores, the Annoy-style forest and
// the deterministic HNSW graph, over growing marker counts. Reports
// per-query latency, build time and recall@10 against the exact answer —
// the trade surface behind KnnOptions::Index. Records via
// tools/record_bench.sh as BENCH_knn_query.json.
//
// Acceptance anchors: blocked >= 2x the legacy scan single-threaded at
// >= 10k markers; HNSW recall@10 >= 0.95 with per-query cost that grows
// sublinearly in the marker count.
//
//===----------------------------------------------------------------------===//

#include "../tests/KnnReference.h"
#include "BenchCommon.h"
#include "knn/TypeMap.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <cstdio>
#include <set>
#include <vector>

using namespace typilus;
using namespace typilus::bench;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// A synthetic τmap at a controlled marker count (benching the index
/// layer needs no trained model — markers are just points with types).
TypeMap makeMap(TypeUniverse &U, int N, int D, uint64_t Seed) {
  TypeMap Map(D);
  Rng R(Seed);
  std::vector<float> P(static_cast<size_t>(D));
  for (int I = 0; I != N; ++I) {
    for (float &X : P)
      X = static_cast<float>(R.normal());
    Map.add(P.data(), U.get(strformat("T%d", static_cast<int>(
                                                 R.uniformInt(64)))));
  }
  return Map;
}

double recallAt10(const std::vector<NeighborList> &Truth,
                  const std::vector<NeighborList> &Got) {
  double Sum = 0;
  for (size_t Q = 0; Q != Truth.size(); ++Q) {
    std::set<int> TruthSet;
    for (auto [I, D] : Truth[Q])
      TruthSet.insert(I);
    int Hits = 0;
    for (auto [I, D] : Got[Q])
      Hits += TruthSet.count(I);
    Sum += Truth[Q].empty()
               ? 1.0
               : static_cast<double>(Hits) / static_cast<double>(Truth[Q].size());
  }
  return Truth.empty() ? 1.0 : Sum / static_cast<double>(Truth.size());
}

} // namespace

int main() {
  banner("kNN query engines: exact (legacy vs blocked), Annoy, HNSW",
         "the Sec. 5 serving path at crawl scale");

  const int D = 32, K = 10, NumQ = 200;
  TextTable T;
  T.setHeader({"markers", "engine", "build (ms)", "query 1t (us)",
               "query mt (us)", "recall@10", "vs legacy 1t"});

  for (int N : {2000, 10000, 40000}) {
    TypeUniverse U;
    TypeMap Map = makeMap(U, N, D, /*Seed=*/77);
    Rng R(78);
    std::vector<float> Qs(static_cast<size_t>(NumQ) * D);
    for (float &X : Qs)
      X = static_cast<float>(R.normal());

    // Legacy exact: the pre-blocking scan, one query at a time (it had
    // no tiling to amortize), single-threaded — the baseline every
    // speedup column is against.
    ExactIndex Exact(Map);
    auto T0 = std::chrono::steady_clock::now();
    std::vector<NeighborList> Truth(static_cast<size_t>(NumQ));
    for (int Q = 0; Q != NumQ; ++Q)
      Truth[static_cast<size_t>(Q)] =
          referenceKnn(Map, Qs.data() + Q * D, K);
    double LegacyUs = secondsSince(T0) / NumQ * 1e6;
    T.addRow({strformat("%d", N), "exact legacy", "-",
              strformat("%.1f", LegacyUs), "-", "1.000", "1.00x"});

    // Blocked exact: same bits, tiled through the marker store.
    T0 = std::chrono::steady_clock::now();
    auto Blocked1 = Exact.queryBatch(Qs.data(), NumQ, K, /*Budget=*/0,
                                    /*MaxWays=*/1);
    double Blocked1Us = secondsSince(T0) / NumQ * 1e6;
    T0 = std::chrono::steady_clock::now();
    auto BlockedMt = Exact.queryBatch(Qs.data(), NumQ, K);
    double BlockedMtUs = secondsSince(T0) / NumQ * 1e6;
    if (Blocked1 != Truth || BlockedMt != Truth) {
      std::fprintf(stderr, "error: blocked scan diverged from legacy\n");
      return 1;
    }
    T.addRow({strformat("%d", N), "exact blocked",
              "-", strformat("%.1f", Blocked1Us),
              strformat("%.1f", BlockedMtUs), "1.000",
              strformat("%.2fx", LegacyUs / Blocked1Us)});

    // The blocked scan over quantized stores: one scan loop decodes
    // every store, so these rows time its f16 and int8 decode. Recall is
    // against the f32 answer (quantization moves some distances).
    for (MarkerStore S : {MarkerStore::F16, MarkerStore::Int8}) {
      TypeMap QMap = Map;
      QMap.quantize(S);
      ExactIndex QExact(QMap);
      T0 = std::chrono::steady_clock::now();
      auto Q1 = QExact.queryBatch(Qs.data(), NumQ, K, /*Budget=*/0,
                                  /*MaxWays=*/1);
      double Q1Us = secondsSince(T0) / NumQ * 1e6;
      T0 = std::chrono::steady_clock::now();
      QExact.queryBatch(Qs.data(), NumQ, K);
      double QMtUs = secondsSince(T0) / NumQ * 1e6;
      T.addRow({strformat("%d", N),
                strformat("exact blocked %s", markerStoreName(S)), "-",
                strformat("%.1f", Q1Us), strformat("%.1f", QMtUs),
                strformat("%.3f", recallAt10(Truth, Q1)),
                strformat("%.2fx", LegacyUs / Q1Us)});
    }

    // Annoy forest at the Predictor's build parameters.
    T0 = std::chrono::steady_clock::now();
    AnnoyIndex Annoy(Map, /*NumTrees=*/8, /*LeafSize=*/16, /*Seed=*/0xA220);
    double AnnoyBuildMs = secondsSince(T0) * 1e3;
    T0 = std::chrono::steady_clock::now();
    std::vector<NeighborList> AnnoyGot(static_cast<size_t>(NumQ));
    for (int Q = 0; Q != NumQ; ++Q)
      AnnoyGot[static_cast<size_t>(Q)] = Annoy.query(Qs.data() + Q * D, K);
    double Annoy1Us = secondsSince(T0) / NumQ * 1e6;
    T0 = std::chrono::steady_clock::now();
    auto AnnoyMt = Annoy.queryBatch(Qs.data(), NumQ, K);
    double AnnoyMtUs = secondsSince(T0) / NumQ * 1e6;
    T.addRow({strformat("%d", N), "annoy", strformat("%.1f", AnnoyBuildMs),
              strformat("%.1f", Annoy1Us), strformat("%.1f", AnnoyMtUs),
              strformat("%.3f", recallAt10(Truth, AnnoyGot)),
              strformat("%.2fx", LegacyUs / Annoy1Us)});

    // HNSW graph at the Predictor's build parameters, default query
    // budget (EfSearch = max(4k, 64)).
    T0 = std::chrono::steady_clock::now();
    HnswIndex Hnsw(Map, /*M=*/16, /*EfConstruction=*/128, /*Seed=*/0x45317);
    double HnswBuildMs = secondsSince(T0) * 1e3;
    T0 = std::chrono::steady_clock::now();
    std::vector<NeighborList> HnswGot(static_cast<size_t>(NumQ));
    for (int Q = 0; Q != NumQ; ++Q)
      HnswGot[static_cast<size_t>(Q)] = Hnsw.query(Qs.data() + Q * D, K);
    double Hnsw1Us = secondsSince(T0) / NumQ * 1e6;
    T0 = std::chrono::steady_clock::now();
    auto HnswMt = Hnsw.queryBatch(Qs.data(), NumQ, K);
    double HnswMtUs = secondsSince(T0) / NumQ * 1e6;
    T.addRow({strformat("%d", N), "hnsw", strformat("%.1f", HnswBuildMs),
              strformat("%.1f", Hnsw1Us), strformat("%.1f", HnswMtUs),
              strformat("%.3f", recallAt10(Truth, HnswGot)),
              strformat("%.2fx", LegacyUs / Hnsw1Us)});

    // The per-request budget knob: a 4x beam buys back the recall the
    // default trades away at larger marker counts, still sublinear.
    T0 = std::chrono::steady_clock::now();
    std::vector<NeighborList> HnswWide(static_cast<size_t>(NumQ));
    for (int Q = 0; Q != NumQ; ++Q)
      HnswWide[static_cast<size_t>(Q)] =
          Hnsw.query(Qs.data() + Q * D, K, /*EfSearch=*/256);
    double HnswWideUs = secondsSince(T0) / NumQ * 1e6;
    T.addRow({strformat("%d", N), "hnsw ef=256", "-",
              strformat("%.1f", HnswWideUs), "-",
              strformat("%.3f", recallAt10(Truth, HnswWide)),
              strformat("%.2fx", LegacyUs / HnswWideUs)});
  }

  std::printf("%s", T.renderAscii().c_str());
  std::printf(
      "\n(query 1t = per-query latency single-threaded; mt = queryBatch on\n"
      "the full pool. Exact engines are bit-identical by construction —\n"
      "the blocked row is verified against legacy in-run; the f16/int8\n"
      "rows scan quantized markers, so their recall is against f32. HNSW\n"
      "queries use the default per-request budget; KnnOptions::EfSearch\n"
      "raises recall at the cost of latency.)\n");
  return 0;
}
