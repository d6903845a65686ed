//===- perfbench/src/Edit.cpp - edit_loop -----------------------------------===//
//
// One editor user against typilus_lsp --stdio: a closed loop that sends
// a seeded didOpen/didChange/didClose sequence and waits for each edit's
// typilus/types notification. The in-process replay runs the same
// sequence through annotateIncremental/removeMarkersForFile and every
// published digest and top type must match it.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "checker/Checker.h"
#include "lsp/LspServer.h"
#include "lsp/Transport.h"
#include "pyfront/Parser.h"
#include "pyfront/SymbolTable.h"
#include "support/Json.h"
#include "support/Socket.h"
#include "support/Str.h"
#include "support/ThreadPool.h"
#include "typesys/Hierarchy.h"

#include <cinttypes>
#include <stdexcept>

using namespace typilus;

namespace perfbench {
namespace {

constexpr size_t kDocs = 32;   ///< Documents the user keeps editing.
constexpr size_t kDonors = 32; ///< Files whose functions edits paste in.
constexpr size_t kRoundEdits = 512; ///< Visits per round: each document 16.
constexpr size_t kTracedOps = 150;
/// The LSP's publish threshold (LspOptions::MinConfidence default).
constexpr double kMinConfidence = 0.5;

std::string uriOf(int Doc) {
  return "file:///workspace/doc" + std::to_string(Doc) + ".py";
}

std::string frameFor(const EditOp &Op, int Version) {
  std::string B = "{\"jsonrpc\":\"2.0\",\"method\":\"textDocument/";
  std::string Uri = json::quoted(uriOf(Op.Doc));
  switch (Op.K) {
  case EditOp::Open:
    B += "didOpen\",\"params\":{\"textDocument\":{\"uri\":" + Uri +
         ",\"languageId\":\"python\",\"version\":" + std::to_string(Version) +
         ",\"text\":" + json::quoted(Op.Text) + "}}}";
    break;
  case EditOp::Change:
    B += "didChange\",\"params\":{\"textDocument\":{\"uri\":" + Uri +
         ",\"version\":" + std::to_string(Version) +
         "},\"contentChanges\":[{\"text\":" + json::quoted(Op.Text) + "}]}}";
    break;
  case EditOp::Close:
    B += "didClose\",\"params\":{\"textDocument\":{\"uri\":" + Uri + "}}}";
    break;
  }
  return lsp::frameMessage(B);
}

/// The replay's view of one op: the digest and top types the LSP must
/// have published (nothing for a close).
struct Replayed {
  std::string Digest;
  std::vector<PredictionResult> Preds;
  bool Compacted = false; ///< The op crossed the compaction ratio.
};

/// Replays \p Ops through \p P layer by layer, with the compaction
/// policy applied explicitly (same rule as Predictor::maybeCompact) so
/// its cost gets a span of its own. Also runs the LSP's checker gate.
struct EditReplay {
  Predictor &P;
  Tracer &T;
  double Ratio;
  /// Built on the first gated edit, as the LSP builds its own.
  std::unique_ptr<TypeHierarchy> H;
  size_t Compactions = 0;
  double CompactMs = 0;
  size_t IndexedRows;
  double TombstoneSum = 0, DeltaSum = 0;
  size_t Steps = 0;
  size_t Resurrecting = 0; ///< Ops that brought tombstoned rows back.
  bool Gate; ///< Also run the checker gate (traced run only).

  EditReplay(Predictor &P, Tracer &T, bool Gate)
      : P(P), T(T), Ratio(P.knnOptions().CompactRatio),
        IndexedRows(P.typeMap().size()), Gate(Gate) {
    KnnOptions KO = P.knnOptions();
    KO.CompactRatio = 0;
    P.setKnnOptions(KO);
  }

  Replayed op(const EditOp &Op, int64_t Id) {
    Scope Root(T, "lsp.edit", Id);
    Replayed Out;
    std::string Path = lsp::uriToPath(uriOf(Op.Doc));
    if (Op.K == EditOp::Close) {
      Scope S(T, "knn.removeMarkersForFile", Id);
      P.removeMarkersForFile(Path);
    } else {
      // The op tombstones the file's live rows, then re-adds its markers:
      // every tombstone that does not remain was resurrected.
      size_t Dead0 = P.typeMap().deadMarkers() + P.typeMap().markersForFile(Path).size();
      {
        Scope S(T, "core.annotateIncremental", Id);
        uint64_t E0 = P.embedMicros(), K0 = P.knnMicros();
        Out.Preds = P.annotateIncremental(Path, Op.Text);
        T.derived("models.embed", static_cast<int64_t>(P.embedMicros() - E0) * 1000);
        T.derived("knn.query", static_cast<int64_t>(P.knnMicros() - K0) * 1000);
      }
      Resurrecting += P.typeMap().deadMarkers() < Dead0;
      Out.Digest = strformat("%016" PRIx64, predictionDigest(Out.Preds));
      if (Gate)
        gate(Path, Op.Text, Out.Preds, Id);
    }
    if (Ratio > 0 && P.typeMap().tombstoneRatio() > Ratio) {
      double T0 = nowUs();
      Scope S(T, "knn.compactMarkers", Id);
      P.compactMarkers();
      CompactMs += (nowUs() - T0) / 1000.0;
      ++Compactions;
      Out.Compacted = true;
      IndexedRows = P.typeMap().size();
    }
    TombstoneSum += P.typeMap().tombstoneRatio();
    DeltaSum += static_cast<double>(P.typeMap().size() - IndexedRows);
    ++Steps;
    return Out;
  }

  /// LspServer::annotate's Sec. 6.3 gate: re-parse, check the file, then
  /// re-check with each confident prediction substituted.
  void gate(const std::string &Path, const std::string &Text,
            const std::vector<PredictionResult> &Preds, int64_t Id) {
    ParsedFile PF;
    {
      Scope S(T, "pyfront.parseFile", Id);
      PF = parseFile(Path, Text);
    }
    SymbolTable ST;
    {
      Scope S(T, "pyfront.buildSymbolTable", Id);
      buildSymbolTable(PF, ST);
    }
    TypeUniverse &U = *P.universe();
    if (!H)
      H = std::make_unique<TypeHierarchy>(U);
    Checker C(U, *H, CheckerOptions{});
    bool Usable;
    {
      Scope S(T, "checker.check", Id);
      Usable = C.check(PF, ST).empty();
    }
    if (!Usable)
      return;
    for (const PredictionResult &R : Preds) {
      Symbol *Sym = R.SymbolId >= 0 && static_cast<size_t>(R.SymbolId) < ST.size()
                        ? ST[static_cast<size_t>(R.SymbolId)]
                        : nullptr;
      TypeRef Top = R.top();
      if (!Sym || !Top || Top == U.any() || R.confidence() < kMinConfidence)
        continue;
      std::string Saved = Sym->AnnotationText;
      Sym->AnnotationText = Top->str();
      {
        Scope S(T, "checker.check", Id);
        (void)C.check(PF, ST);
      }
      Sym->AnnotationText = Saved;
    }
  }
};

/// Compares a typilus/types notification body with the replay.
bool checkTypes(const std::string &Body, const Replayed &Want, std::string *Why) {
  json::Value V;
  std::string Err;
  if (!json::parse(Body, V, &Err) || !V.isObject() || !V.find("params")) {
    *Why = "unreadable notification";
    return false;
  }
  const json::Value &Params = *V.find("params");
  if (Params.getString("digest", "") != Want.Digest) {
    *Why = "digest mismatch";
    return false;
  }
  const json::Value *Ps = Params.find("predictions");
  if (!Ps || !Ps->isArray() || Ps->array().size() != Want.Preds.size()) {
    *Why = "content mismatch";
    return false;
  }
  for (size_t I = 0; I != Want.Preds.size(); ++I) {
    const json::Value &E = Ps->array()[I];
    TypeRef Top = Want.Preds[I].top();
    const json::Value *Ty = E.find("type");
    std::string Got = Ty && Ty->isString() ? Ty->asString() : "";
    if (E.getInt("target", -1) != Want.Preds[I].TargetIdx ||
        Got != (Top ? Top->str() : "")) {
      *Why = "content mismatch";
      return false;
    }
  }
  return true;
}

} // namespace

void runEdit(const Args &A, Result &Res) {
  setGlobalNumThreads(0);
  std::vector<double> SetupS, SaveMs, LoadMs;
  Stack St;
  std::unique_ptr<Child> Lsp;
  std::unique_ptr<lsp::FrameReader> Reader;
  uint64_t FirstDigest = 0;
  std::string Body;
  for (int Rep = 0; Rep != kSetupReps; ++Rep) {
    Reader.reset();
    Lsp.reset();
    double T0 = nowUs();
    St = buildStack(A);
    Lsp = std::make_unique<Child>(
        std::vector<std::string>{PERFBENCH_LSP_BIN, "--model", St.ArtifactPath,
                                 "--stdio", "--threads",
                                 std::to_string(kProgramThreads)},
        A.WorkDir + "/lsp.log");
    Reader = std::make_unique<lsp::FrameReader>(Lsp->out());
    std::string Init = lsp::frameMessage(
        "{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"initialize\",\"params\":{}}");
    if (!writeAll(Lsp->in(), Init) ||
        Reader->next(Body) != lsp::FrameReader::Status::Message ||
        Body.find("\"capabilities\"") == std::string::npos)
      throw std::runtime_error("typilus_lsp did not initialize (see lsp.log)");
    SetupS.push_back((nowUs() - T0) / 1e6);
    SaveMs.push_back(St.SaveMs);
    LoadMs.push_back(St.LoadMs);
    if (Rep == 0)
      FirstDigest = St.ArtifactDigest;
    else if (St.ArtifactDigest != FirstDigest)
      Res.fail("set-up " + std::to_string(Rep) + " trained a different artifact");
  }

  // The workspace (documents and the functions edits paste in) and each
  // document's texts are fixed; the seed drives how the documents' edits
  // interleave, so seeds compare like for like.
  std::vector<CorpusFile> Files =
      distinctSources(kProjectSeed, kTrainFiles, kDocs + kDonors, kProjectSeed, "edit");
  std::vector<CorpusFile> Docs(Files.begin(), Files.begin() + kDocs);
  std::vector<CorpusFile> Donors(Files.begin() + kDocs, Files.end());
  // One round: open every document, the seeded edits, close every
  // document. The window repeats the round; later rounds bring back texts
  // whose markers the earlier ones tombstoned.
  std::vector<EditOp> Ops = editScript(Docs, Donors, kRoundEdits, streamSeed(A, "edits"));
  std::vector<bool> Open(kDocs, false);
  for (const EditOp &Op : Ops)
    Open[static_cast<size_t>(Op.Doc)] = Op.K != EditOp::Close;
  for (size_t D = 0; D != kDocs; ++D)
    if (Open[D])
      Ops.push_back({EditOp::Close, static_cast<int>(D), {}});
  size_t RoundLen = Ops.size();

  // ---- The timed window: one op at a time, each waiting for its
  // ---- publication.
  std::vector<double> LatMs;
  std::vector<std::string> Published;
  std::vector<int> Versions(kDocs, 0);
  size_t Done = 0;
  double PeakMb = 0;
  double WinStart = nowUs(), WinEnd = WinStart + A.Seconds * 1e6;
  while (nowUs() < WinEnd) {
    const EditOp &Op = Ops[Done % RoundLen];
    std::string Frame = frameFor(Op, ++Versions[static_cast<size_t>(Op.Doc)]);
    const char *Want = Op.K == EditOp::Close ? "\"method\":\"textDocument/publishDiagnostics\""
                                             : "\"method\":\"typilus/types\"";
    double T0 = nowUs();
    if (!writeAll(Lsp->in(), Frame))
      throw std::runtime_error("typilus_lsp closed its input");
    for (;;) {
      if (Reader->next(Body) != lsp::FrameReader::Status::Message)
        throw std::runtime_error("typilus_lsp stopped publishing");
      if (Body.find(Want) != std::string::npos)
        break;
    }
    LatMs.push_back((nowUs() - T0) / 1000.0);
    Published.push_back(std::move(Body));
    // Peak memory over the first round: later rounds repeat its texts, and
    // how many of them fit in the window depends on speed.
    if (++Done == RoundLen)
      PeakMb = Lsp->peakRssMb();
  }
  double WindowS = (nowUs() - WinStart) / 1e6;
  if (Done < RoundLen)
    PeakMb = Lsp->peakRssMb();
  writeAll(Lsp->in(), lsp::frameMessage("{\"jsonrpc\":\"2.0\",\"id\":2,\"method\":\"shutdown\"}"));
  writeAll(Lsp->in(), lsp::frameMessage("{\"jsonrpc\":\"2.0\",\"method\":\"exit\"}"));
  Reader.reset();
  if (Lsp->stop(/*GraceMs=*/5000) != 0)
    Res.fail("typilus_lsp did not exit cleanly after shutdown");

  // ---- Correctness: the same op sequence in process.
  setGlobalNumThreads(kProgramThreads);
  Tracer Off(false);
  EditReplay Check(*St.Replay, Off, /*Gate=*/false);
  std::vector<Replayed> Expected(Done);
  std::vector<double> CompactLatMs;
  size_t Targets = 0, Exact = 0;
  for (size_t I = 0; I != Done; ++I) {
    Expected[I] = Check.op(Ops[I % RoundLen], static_cast<int64_t>(I));
    ++Res.Attempted;
    // The LSP applies the same compaction policy to the same op stream,
    // so it compacted on this op too.
    if (Expected[I].Compacted)
      CompactLatMs.push_back(LatMs[I]);
    if (Ops[I % RoundLen].K == EditOp::Close)
      continue;
    std::string Why;
    bool Ok = checkTypes(Published[I], Expected[I], &Why);
    if (!Ok)
      Res.fail("edit " + std::to_string(I) + ": " + Why);
    // Accuracy over the first round, which every run completes alike.
    if (I >= RoundLen)
      continue;
    for (const PredictionResult &PR : Expected[I].Preds)
      if (PR.Truth) {
        ++Targets;
        Exact += Ok && PR.top() == PR.Truth;
      }
  }

  // Contract figures over every op of the window.
  Summary Lat = summarize(LatMs);
  Summary CompactLat = summarize(CompactLatMs);
  auto Share = [&](size_t N) { return Done ? static_cast<double>(N) / static_cast<double>(Done) : 0; };
  Res.e2e("setup_s", median(SetupS), SetupS.size());
  Res.e2e("latency_p50_ms", Lat.P50Ms, Lat.Count);
  Res.e2e("latency_p90_ms", Lat.P90Ms, Lat.Count);
  Res.e2e("throughput_per_s", static_cast<double>(Done) / WindowS, Done);
  Res.e2e("peak_rss_mb", PeakMb, 1);
  Res.e2e("top1_exact_pct", Targets ? 100.0 * static_cast<double>(Exact) /
                                          static_cast<double>(Targets)
                                    : 0,
          Targets);
  Res.rec("rounds", static_cast<double>(Done) / static_cast<double>(RoundLen), "count", Done);
  Res.rec("latency_tail_pct", Lat.TailPct, "pct", Lat.Count);
  Res.rec("latency_tail_ms", Lat.TailMs, "ms", Lat.Count);
  // What the assumed edit mix exercises, and the compacting ops apart.
  Res.rec("resurrecting_op_share", Share(Check.Resurrecting), "ratio", Done);
  Res.rec("compacting_op_share", Share(CompactLatMs.size()), "ratio", Done);
  Res.rec("compacting_op.latency_p50_ms", CompactLat.P50Ms, "ms", CompactLat.Count);
  Res.rec("compacting_op.latency_max_ms", CompactLat.MaxMs, "ms", CompactLat.Count);
  Res.rec("fail_share", Share(Res.Failed), "ratio", Res.Attempted);
  double Steps = std::max<double>(1, static_cast<double>(Check.Steps));
  Res.layer("knn.tombstone_ratio", Check.TombstoneSum / Steps, Check.Steps);
  Res.layer("knn.compactions", static_cast<double>(Check.Compactions), Check.Steps);
  Res.layer("knn.compact_ms", Check.Compactions ? Check.CompactMs / static_cast<double>(Check.Compactions) : 0,
            Check.Compactions);
  Res.layer("knn.delta_rows", Check.DeltaSum / Steps, Check.Steps);
  Res.layer("knn.markers", static_cast<double>(St.Replay->typeMap().size()), 1);
  Res.layer("loadgen.sent", static_cast<double>(Res.Attempted), 1);
  Res.layer("loadgen.ok", static_cast<double>(Res.Attempted - Res.Failed), 1);
  Res.layer("loadgen.failed", static_cast<double>(Res.Failed), 1);
  Res.layer("artifact.save_ms", median(SaveMs), SaveMs.size());
  Res.layer("artifact.load_ms", median(LoadMs), LoadMs.size());

  if (!A.Trace)
    return;
  // ---- Traced run: the first ops again on two fresh loads of the
  // ---- artifact, with the LSP's checker gate, one untraced and one
  // ---- traced, in lockstep (alternating which goes first) so drift on
  // ---- the host cancels out of the overhead.
  size_t N = std::min(kTracedOps, Done);
  Tracer On(true);
  double OffUs = 0, OnUs = 0;
  std::unique_ptr<Predictor> Fresh[2];
  std::unique_ptr<EditReplay> Replays[2];
  for (int K = 0; K != 2; ++K) {
    std::string Err;
    Fresh[K] = Predictor::load(St.ArtifactPath, &Err);
    if (!Fresh[K])
      throw std::runtime_error("artifact reload failed: " + Err);
    KnnOptions KO = Fresh[K]->knnOptions();
    KO.NumThreads = kProgramThreads;
    Fresh[K]->setKnnOptions(KO);
    Replays[K] = std::make_unique<EditReplay>(*Fresh[K], K ? On : Off, /*Gate=*/true);
  }
  for (size_t I = 0; I != N; ++I)
    for (size_t K = 0; K != 2; ++K) {
      size_t Traced = (I + K) % 2;
      double T0 = nowUs();
      std::string Digest =
          Replays[Traced]->op(Ops[I % RoundLen], static_cast<int64_t>(I)).Digest;
      (Traced ? OnUs : OffUs) += nowUs() - T0;
      if (Digest != Expected[I].Digest)
        Res.fail("traced replay of edit " + std::to_string(I) +
                 (Traced ? " (tracing on)" : " (tracing off)") + " differs");
    }
  auto L = On.layerTimes();
  Res.layer("pyfront.parse_us", perCall(L, "pyfront.parseFile"), N);
  Res.layer("pyfront.symtab_us", perCall(L, "pyfront.buildSymbolTable"), N);
  Res.layer("models.embed_us", perCall(L, "models.embed"), N);
  Res.layer("knn.query_us", perCall(L, "knn.query"), N);
  Res.layer("core.score_us", perCall(L, "core.annotateIncremental"), N);
  // The gate checks a file once, then once per confident prediction:
  // report the checker's time per edit.
  auto Chk = L.find("checker.check");
  Res.layer("checker.check_us",
            Chk == L.end() ? 0 : Chk->second.SelfUs / static_cast<double>(N), N);
  Res.layer("trace.op_us", perCall(L, "lsp.edit", false), N);
  Res.layer("trace.remainder_us", perCall(L, "lsp.edit"), N);
  Res.layer("trace.overhead_pct", OffUs > 0 ? 100.0 * (OnUs - OffUs) / OffUs : 0, N);
  On.writeChromeTrace(A.WorkDir + "/trace.json");
}

} // namespace perfbench
