//===- core/Experiments.cpp - Shared experiment harness -------------------------===//

#include "core/Experiments.h"

#include "pyfront/Parser.h"

#include <cstdlib>
#include <ctime>
#include <map>

using namespace typilus;

Workbench Workbench::make(const CorpusConfig &CC, const DatasetConfig &DC) {
  Workbench WB;
  WB.U = std::make_unique<TypeUniverse>();
  WB.H = std::make_unique<TypeHierarchy>(*WB.U);
  CorpusGenerator Gen(CC);
  WB.Files = Gen.generate();
  WB.Udts = Gen.udts();
  WB.DS = buildDataset(WB.Files, WB.Udts, *WB.U, WB.H.get(), DC);
  return WB;
}

BenchScale BenchScale::fromEnv() {
  BenchScale S;
  if (const char *E = std::getenv("TYPILUS_BENCH_FILES"))
    S.NumFiles = std::max(20, std::atoi(E));
  if (const char *E = std::getenv("TYPILUS_BENCH_EPOCHS"))
    S.Epochs = std::max(1, std::atoi(E));
  return S;
}

ModelRun typilus::trainAndEvaluate(Workbench &WB, const ModelConfig &MC,
                                   const TrainOptions &TO,
                                   const KnnOptions &KO) {
  // The whole harness runs on the streaming layer; the in-memory splits
  // are one-implicit-shard adapters, so results are bit-identical to the
  // historical vector-based path (and to a ShardedDataset of the same
  // corpus — tests/ShardTest.cpp pins that equivalence).
  VectorExampleSource TrainSrc(WB.DS.Train), ValidSrc(WB.DS.Valid),
      TestSrc(WB.DS.Test);

  ModelRun Run;
  Run.Model = makeModel(MC, TrainSrc, *WB.U);
  std::clock_t T0 = std::clock();
  trainModel(*Run.Model, TrainSrc, TO);
  Run.TrainSeconds =
      static_cast<double>(std::clock() - T0) / CLOCKS_PER_SEC;

  if (MC.Loss == LossKind::Class) {
    Predictor P = Predictor::classifier(*Run.Model);
    Run.Preds = P.predictAll(TestSrc);
  } else {
    // τmap over train + valid, as in the paper (Sec. 7: "we built the type
    // map over the training and the validation sets").
    ConcatExampleSource MapSrc({&TrainSrc, &ValidSrc});
    Predictor P = Predictor::knn(*Run.Model, MapSrc, KO);
    Run.Preds = P.predictAll(TestSrc);
  }
  Run.Js = judgePredictions(Run.Preds, WB.DS, *WB.H);
  Run.Summary = summarize(Run.Js);
  return Run;
}

std::vector<CheckOutcome>
typilus::runCheckerExperiment(Workbench &WB,
                              const std::vector<PredictionResult> &Preds,
                              bool InferLocals, double StripProb,
                              uint64_t Seed) {
  // Group predictions per file path; each result carries its symbol's
  // SymbolId, so re-parsing the source is all a file needs.
  std::map<std::string, std::vector<const PredictionResult *>> ByFile;
  for (const PredictionResult &P : Preds)
    ByFile[P.FilePath].push_back(&P);
  std::map<std::string, const CorpusFile *> SourceOf;
  for (const CorpusFile &F : WB.Files)
    SourceOf[F.Path] = &F;

  Checker Check(*WB.U, *WB.H, CheckerOptions{InferLocals});
  std::vector<CheckOutcome> Outcomes;

  for (const auto &[Path, FilePreds] : ByFile) {
    auto SrcIt = SourceOf.find(Path);
    if (SrcIt == SourceOf.end())
      continue;
    // Re-parse: symbol ids are deterministic, so graph SymbolIds align.
    ParsedFile PF = parseFile(Path, SrcIt->second->Source);
    SymbolTable ST;
    buildSymbolTable(PF, ST);

    // Strip a deterministic fraction of annotations (the ε→τ population).
    Rng R(Seed ^ std::hash<std::string>{}(Path));
    std::vector<std::string> Original(ST.size());
    for (size_t I = 0; I != ST.size(); ++I) {
      Original[I] = ST[I]->AnnotationText;
      if (!Original[I].empty() && R.flip(StripProb))
        ST[I]->AnnotationText.clear();
    }
    size_t Baseline = Check.check(PF, ST).size();
    if (Baseline != 0)
      continue; // paper: discard programs that fail before substitution

    for (const PredictionResult *P : FilePreds) {
      TypeRef Pred = P->top();
      if (!Pred || Pred == WB.U->any())
        continue; // paper: Any predictions are skipped
      int SymId = P->SymbolId;
      if (SymId < 0 || static_cast<size_t>(SymId) >= ST.size())
        continue;
      Symbol *Sym = ST[static_cast<size_t>(SymId)];

      CheckOutcome O;
      O.Confidence = P->confidence();
      O.Pred = P;
      const std::string &Cur = Sym->AnnotationText;
      if (Cur.empty())
        O.Kind = CheckOutcome::Case::EpsToTau;
      else if (WB.U->parse(Cur) == Pred)
        O.Kind = CheckOutcome::Case::TauToTau;
      else
        O.Kind = CheckOutcome::Case::TauToTauPrime;

      std::string Saved = Sym->AnnotationText;
      Sym->AnnotationText = Pred->str();
      O.CausesError = !Check.check(PF, ST).empty();
      Sym->AnnotationText = Saved;
      Outcomes.push_back(O);
    }
  }
  return Outcomes;
}
