//===- bench/fig6_knn_grid.cpp - Fig. 6: sensitivity to k and p ----------------===//
//
// Regenerates Fig. 6: the absolute difference in match-up-to-parametric
// w.r.t. the grid median, for the kNN size k and the distance temperature
// p of Eq. 5, on a single trained TypeSpace. Embeddings are computed once;
// only the lookup parameters vary.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <algorithm>

using namespace typilus;

int main() {
  bench::banner("Fig. 6: kNN hyper-parameter grid (Eq. 5)", "Figure 6");
  BenchScale S = BenchScale::fromEnv();
  Workbench WB = bench::makeBench(S);
  ModelConfig MC; // Typilus
  auto Model = makeModel(MC, WB.DS, *WB.U);
  TrainOptions TO = bench::makeTrainOptions(S);
  trainModel(*Model, WB.DS.Train, TO);
  // Every embedding below is inference: no autograd DAG, as in serving.
  nn::NoGradGuard NoGrad;

  // τmap over train+valid.
  TypeMap Map(MC.HiddenDim);
  for (const auto *Split : {&WB.DS.Train, &WB.DS.Valid})
    for (const FileExample &F : *Split) {
      std::vector<const Target *> Targets;
      nn::Value Emb = Model->embed({&F}, &Targets);
      if (!Emb.defined())
        continue;
      for (size_t I = 0; I != Targets.size(); ++I)
        Map.add(Emb.val().data() + static_cast<int64_t>(I) * Emb.val().cols(),
                Targets[I]->Type);
    }
  ExactIndex Index(Map);

  // Test embeddings, once.
  std::vector<std::vector<float>> Queries;
  std::vector<const Target *> QueryTargets;
  for (const FileExample &F : WB.DS.Test) {
    std::vector<const Target *> Targets;
    nn::Value Emb = Model->embed({&F}, &Targets);
    if (!Emb.defined())
      continue;
    for (size_t I = 0; I != Targets.size(); ++I) {
      const float *Row =
          Emb.val().data() + static_cast<int64_t>(I) * Emb.val().cols();
      Queries.emplace_back(Row, Row + MC.HiddenDim);
      QueryTargets.push_back(Targets[I]);
    }
  }

  const std::vector<int> Ks = {1, 2, 3, 5, 7, 9, 11, 13, 16, 19, 25};
  const std::vector<double> Ps = {0.01, 0.05, 0.1, 0.25, 0.5, 0.75,
                                  1.0,  1.5,  2.0, 3.0,  5.0};
  // Up-to-parametric score per (k, p).
  std::vector<std::vector<double>> Score(Ks.size(),
                                         std::vector<double>(Ps.size(), 0));
  for (size_t KI = 0; KI != Ks.size(); ++KI) {
    // Neighbours at max-k once per query, reused for smaller scoring.
    for (size_t Q = 0; Q != Queries.size(); ++Q) {
      NeighborList Neigh = Index.query(Queries[Q].data(), Ks[KI]);
      for (size_t PI = 0; PI != Ps.size(); ++PI) {
        auto Scored = scoreNeighbors(Map, Neigh, Ps[PI]);
        if (Scored.empty())
          continue;
        TypeRef Pred = Scored.front().Type;
        TypeRef Truth = QueryTargets[Q]->Type;
        Score[KI][PI] += WB.U->erase(Pred) == WB.U->erase(Truth) ? 1 : 0;
      }
    }
    for (size_t PI = 0; PI != Ps.size(); ++PI)
      Score[KI][PI] = 100.0 * Score[KI][PI] /
                      static_cast<double>(std::max<size_t>(Queries.size(), 1));
  }

  std::vector<double> AllVals;
  for (const auto &RowVals : Score)
    AllVals.insert(AllVals.end(), RowVals.begin(), RowVals.end());
  std::sort(AllVals.begin(), AllVals.end());
  double Median = AllVals[AllVals.size() / 2];

  TextTable T;
  std::vector<std::string> Header = {"k \\ p"};
  for (double P : Ps)
    Header.push_back(strformat("%.2f", P));
  T.setHeader(Header);
  for (size_t KI = 0; KI != Ks.size(); ++KI) {
    std::vector<std::string> RowCells = {strformat("%d", Ks[KI])};
    for (size_t PI = 0; PI != Ps.size(); ++PI)
      RowCells.push_back(strformat("%+.1f", Score[KI][PI] - Median));
    T.addRow(RowCells);
  }
  std::printf("Δ match-up-to-parametric vs grid median (%.1f%%), over %zu "
              "test symbols:\n%s",
              Median, Queries.size(), T.renderAscii().c_str());
  std::printf("\nPaper: small k hurts (top row strongly negative); larger k "
              "with moderate-to-large p gives the best cells.\n");

  // Quantized τmap stores at a fixed good cell (k=10, p=1.0): what does
  // shrinking the markers to f16/int8 cost in accuracy? The distance scan
  // decodes inside the kernel, so this measures the real serving path.
  const int QK = 10;
  const double QP = 1.0;
  TextTable QT;
  QT.setHeader({"τmap store", "match-up-to-parametric (%)", "Δ vs f32 (pp)",
                "marker bytes"});
  double F32Score = 0;
  for (MarkerStore S :
       {MarkerStore::F32, MarkerStore::F16, MarkerStore::Int8}) {
    TypeMap QMap = Map;
    if (S != MarkerStore::F32)
      QMap.quantize(S);
    ExactIndex QIndex(QMap);
    double Hits = 0;
    for (size_t Q = 0; Q != Queries.size(); ++Q) {
      auto Scored =
          scoreNeighbors(QMap, QIndex.query(Queries[Q].data(), QK), QP);
      if (Scored.empty())
        continue;
      Hits += WB.U->erase(Scored.front().Type) ==
                      WB.U->erase(QueryTargets[Q]->Type)
                  ? 1
                  : 0;
    }
    double Pct =
        100.0 * Hits / static_cast<double>(std::max<size_t>(Queries.size(), 1));
    if (S == MarkerStore::F32)
      F32Score = Pct;
    QT.addRow({markerStoreName(S), strformat("%.2f", Pct),
               strformat("%+.2f", Pct - F32Score),
               strformat("%zu", QMap.storageBytes())});
  }
  std::printf("\nQuantized τmap accuracy at k=%d, p=%.1f (paper-faithful "
              "lookup, smaller markers):\n%s",
              QK, QP, QT.renderAscii().c_str());
  return 0;
}
