//===- tools/typilus_cli.cpp - Train-once / serve-many command line ------------===//
//
// The deployment workflow of Fig. 1 as a command line: `train` fits a
// model and writes a versioned artifact; `predict` loads that artifact in
// a fresh process — no training corpus, no retraining — and serves type
// predictions; `inspect` prints what an artifact contains; `save`
// rewrites an artifact (e.g. switching the kNN index between Annoy and
// exact). Both train and predict print a digest of the test-split
// predictions, so train-once/serve-many bit-identity is checkable from
// the shell:
//
//   typilus_cli train --files 40 --epochs 4 --out model.typilus
//   typilus_cli predict --model model.typilus
//
//===----------------------------------------------------------------------===//

#include "RuntimeOptions.h"

#include "core/Experiments.h"
#include "corpus/Ingest.h"
#include "corpus/ShardedDataset.h"
#include "serve/Protocol.h"
#include "support/Archive.h"
#include "support/Json.h"
#include "support/Socket.h"

#include <cerrno>
#include <cfloat>
#include <cinttypes>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sys/stat.h>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace typilus;

namespace {

//===----------------------------------------------------------------------===//
// Option parsing
//===----------------------------------------------------------------------===//

struct Options {
  std::string Out;        ///< --out: artifact to write.
  std::string ModelPath;  ///< --model: artifact to read.
  std::string Checkpoint; ///< --checkpoint: checkpoint file for train.
  bool Resume = false;    ///< --resume: continue from --checkpoint.
  int CheckpointEvery = 0; ///< --checkpoint-every: steps between saves.
  std::string ShardDir;   ///< --shards: shard-set directory to stream.
  std::string OutDir;     ///< shard: --out-dir to write the shard set.
  int ShardFiles = 32;    ///< shard: --shard-files per shard.
  std::string FromDir;    ///< shard: --from-dir, ingest a real .py tree.
  bool NoPrefetch = false; ///< --no-prefetch: disable shard read-ahead.
  std::vector<std::string> Sources; ///< --source: real .py files to predict.
  SplitKind Split = SplitKind::Test; ///< --split for predict.
  std::string Socket;               ///< client: daemon socket path.
  std::string TcpHost;              ///< client: --tcp HOST:PORT's host...
  int TcpPort = 0;                  ///< ...and port.
  int Repeat = 1;                   ///< client: concurrent sends per source.
  bool Ping = false;                ///< client: liveness probe only.
  bool Shutdown = false;            ///< client: ask the daemon to drain.
  bool Reload = false;              ///< client: hot-reload the artifact.
  int Files = 60;
  int Udts = 40;
  int Epochs = 8;
  int Hidden = 32;
  int Limit = 10;
  tools::RuntimeOptions Runtime; ///< --threads, --ef-search, --no-simd.
  std::optional<int> K;    ///< --k: neighbours (default: KnnOptions').
  std::optional<double> P; ///< --p: distance-weighting temperature.
  std::optional<KnnIndexKind> Index; ///< --index: exact | annoy | hnsw.
  std::optional<MarkerStore> TmapStore; ///< --tmap-store: f32|f16|int8.
  size_t TmapMaxMarkers = 0;   ///< --tmap-max-markers: coreset cap (0 = off).
  bool Verbose = false;
  std::string Encoder = "graph";
  std::string Loss = "typilus";
  uint64_t Seed = 20200613;
};

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s <command> [options]\n"
      "\n"
      "commands:\n"
      "  train    train on the synthetic corpus and write an artifact\n"
      "           --out PATH [--files N] [--udts N] [--epochs N]\n"
      "           [--hidden D] [--encoder graph|seq|path|names]\n"
      "           [--loss typilus|space|class] [--index exact|annoy|hnsw]\n"
      "           [--k N] [--p F] [--seed S] [--checkpoint PATH] [--resume]\n"
      "           [--checkpoint-every STEPS] [--shards DIR] [--verbose]\n"
      "           [--tmap-store f32|f16|int8] [--tmap-max-markers N]\n"
      "           [--no-prefetch]\n"
      "           (--shards streams a `typilus shard` set instead of\n"
      "           regenerating the corpus; RAM is bounded by shard\n"
      "           residency and digests match the in-memory path;\n"
      "           shards decode ahead of demand unless --no-prefetch —\n"
      "           digests are identical either way;\n"
      "           --tmap-store quantizes the τmap markers and\n"
      "           --tmap-max-markers caps them by coreset subsampling)\n"
      "  shard    preprocess a corpus into a shard set\n"
      "           --out-dir DIR [--files N] [--udts N] [--seed S]\n"
      "           [--shard-files N] [--from-dir TREE]\n"
      "           (--from-dir ingests a real .py tree instead of the\n"
      "           synthetic corpus: files the parser rejects are skipped\n"
      "           and reported with file:line context, never fatal;\n"
      "           --threads builds shard chunks in parallel with bytes\n"
      "           identical to the serial build)\n"
      "  predict  load an artifact and predict, no training data needed\n"
      "           --model PATH [--split train|valid|test] [--limit N]\n"
      "           [--source FILE.py]... [--shards DIR] [--no-prefetch]\n"
      "  inspect  print an artifact's chunks, config and vocabularies\n"
      "           --model PATH\n"
      "  save     rewrite an artifact, optionally changing kNN options\n"
      "           --model PATH --out PATH [--index exact|annoy|hnsw]\n"
      "           [--k N] [--p F]\n"
      "           [--tmap-store f16|int8]  (quantize an f32 τmap in place)\n"
      "  client   talk to a running typilus_serve daemon\n"
      "           (--socket PATH | --tcp HOST:PORT)\n"
      "           (--source FILE.py... [--repeat N] [--limit N]\n"
      "           | --ping | --reload | --shutdown)\n"
      "\n"
      "global options:\n%s",
      Argv0, tools::kRuntimeUsage);
  return 2;
}

/// Parses splitKindName()'s strings; \returns false on anything else.
bool parseSplitKind(std::string_view Name, SplitKind *Out) {
  for (SplitKind S : {SplitKind::Train, SplitKind::Valid, SplitKind::Test})
    if (Name == splitKindName(S)) {
      *Out = S;
      return true;
    }
  return false;
}

/// Splits the value of --tcp at the last ':' (plain IPv4 / hostnames)
/// into \p Host and a checked \p Port.
bool parseHostPort(const char *Spec, std::string &Host, int &Port) {
  const char *Colon = std::strrchr(Spec, ':');
  if (!Colon || Colon == Spec)
    return tools::badFlagValue("--tcp", "HOST:PORT", Spec);
  Host.assign(Spec, Colon);
  return tools::parseIntFlag("--tcp", Colon + 1, 1, 65535,
                             "HOST:PORT with a port in 1..65535", &Port);
}

bool parseOptions(int Argc, char **Argv, Options &O) {
  for (int I = 2; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&] { return tools::flagValue(Argc, Argv, I); };
    auto IntFlag = [&](long Min, long Max, const char *What, auto *Out) {
      const char *V = Next();
      return V && tools::parseIntFlag(A.c_str(), V, Min, Max, What, Out);
    };
    const char *V = nullptr;
    if (A == "--out") {
      if (!(V = Next())) return false;
      O.Out = V;
    } else if (A == "--model") {
      if (!(V = Next())) return false;
      O.ModelPath = V;
    } else if (A == "--checkpoint") {
      if (!(V = Next())) return false;
      O.Checkpoint = V;
    } else if (A == "--resume") {
      O.Resume = true;
    } else if (A == "--checkpoint-every") {
      if (!IntFlag(0, INT_MAX, "a non-negative step count",
                   &O.CheckpointEvery))
        return false;
    } else if (A == "--shards") {
      if (!(V = Next())) return false;
      O.ShardDir = V;
    } else if (A == "--out-dir") {
      if (!(V = Next())) return false;
      O.OutDir = V;
    } else if (A == "--shard-files") {
      if (!IntFlag(1, INT_MAX, "a positive file count", &O.ShardFiles))
        return false;
    } else if (A == "--from-dir") {
      if (!(V = Next())) return false;
      O.FromDir = V;
    } else if (A == "--no-prefetch") {
      O.NoPrefetch = true;
    } else if (A == "--source") {
      if (!(V = Next())) return false;
      O.Sources.push_back(V);
    } else if (A == "--split") {
      if (!(V = Next())) return false;
      if (!parseSplitKind(V, &O.Split))
        return tools::badFlagValue("--split", "train, valid or test", V);
    } else if (A == "--files") {
      if (!IntFlag(1, INT_MAX, "a positive file count", &O.Files))
        return false;
    } else if (A == "--udts") {
      if (!IntFlag(0, INT_MAX, "a non-negative class count", &O.Udts))
        return false;
    } else if (A == "--epochs") {
      if (!IntFlag(0, INT_MAX, "a non-negative epoch count", &O.Epochs))
        return false;
    } else if (A == "--hidden") {
      if (!IntFlag(1, 4096, "a hidden width in 1..4096", &O.Hidden))
        return false;
    } else if (A == "--limit") {
      if (!IntFlag(-1, INT_MAX, "a count (-1 = all)", &O.Limit))
        return false;
    } else if (A == "--k") {
      if (!IntFlag(1, INT_MAX, "a positive neighbour count", &O.K.emplace()))
        return false;
    } else if (A == "--p") {
      if (!(V = Next()) ||
          !tools::parseFloatFlag("--p", V, 0, DBL_MAX,
                                 "a finite non-negative exponent",
                                 &O.P.emplace()))
        return false;
    } else if (A == "--seed") {
      if (!(V = Next()) ||
          !tools::parseU64Flag("--seed", V, "an unsigned 64-bit integer",
                               &O.Seed))
        return false;
    } else if (A == "--encoder") {
      if (!(V = Next())) return false;
      O.Encoder = V;
    } else if (A == "--loss") {
      if (!(V = Next())) return false;
      O.Loss = V;
    } else if (A == "--socket") {
      if (!(V = Next())) return false;
      O.Socket = V;
    } else if (A == "--tcp") {
      if (!(V = Next()) || !parseHostPort(V, O.TcpHost, O.TcpPort))
        return false;
    } else if (A == "--repeat") {
      if (!IntFlag(1, 1024, "a repeat count in 1..1024", &O.Repeat))
        return false;
    } else if (A == "--ping") {
      O.Ping = true;
    } else if (A == "--shutdown") {
      O.Shutdown = true;
    } else if (A == "--reload") {
      O.Reload = true;
    } else if (A == "--index") {
      if (!(V = Next())) return false;
      if (!parseKnnIndexKind(V, &O.Index.emplace()))
        return tools::badFlagValue("--index", "exact, annoy or hnsw", V);
    } else if (A == "--tmap-store") {
      if (!(V = Next())) return false;
      if (!parseMarkerStore(V, &O.TmapStore.emplace()))
        return tools::badFlagValue("--tmap-store", "f32, f16 or int8", V);
    } else if (A == "--tmap-max-markers") {
      if (!IntFlag(0, LONG_MAX, "a non-negative count", &O.TmapMaxMarkers))
        return false;
    } else if (A == "--verbose") {
      O.Verbose = true;
    } else if (int R = O.Runtime.parse(Argc, Argv, I)) {
      if (R < 0)
        return false;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", A.c_str());
      return false;
    }
  }
  return true;
}

int fail(const std::string &Err) {
  std::fprintf(stderr, "error: %s\n", Err.c_str());
  return 1;
}

//===----------------------------------------------------------------------===//
// The corpus recipe chunk ("corp"): enough of the generation and split
// configuration for `predict` to rebuild the exact dataset the model was
// trained on, so accuracy is reportable without shipping the corpus.
//===----------------------------------------------------------------------===//

void writeCorpusRecipe(ArchiveWriter &W, const CorpusConfig &CC,
                       const DatasetConfig &DC) {
  W.beginChunk("corp");
  W.writeI32(CC.NumFiles);
  W.writeI32(CC.NumUdts);
  W.writeF64(CC.ZipfSkew);
  W.writeF64(CC.NameNoise);
  W.writeI32(CC.MinFuncsPerFile);
  W.writeI32(CC.MaxFuncsPerFile);
  W.writeF64(CC.DuplicateFraction);
  W.writeU64(CC.Seed);
  W.writeF64(DC.TrainFrac);
  W.writeF64(DC.ValidFrac);
  W.writeU8(DC.RunDedup ? 1 : 0);
  W.writeF64(DC.DedupThreshold);
  W.writeU64(DC.SplitSeed);
  W.writeI32(DC.CommonThreshold);
  W.endChunk();
}

bool readCorpusRecipe(const ArchiveReader &R, CorpusConfig &CC,
                      DatasetConfig &DC, std::string *Err) {
  ArchiveCursor C = R.chunk("corp", Err);
  CC.NumFiles = C.readI32();
  CC.NumUdts = C.readI32();
  CC.ZipfSkew = C.readF64();
  CC.NameNoise = C.readF64();
  CC.MinFuncsPerFile = C.readI32();
  CC.MaxFuncsPerFile = C.readI32();
  CC.DuplicateFraction = C.readF64();
  CC.Seed = C.readU64();
  DC.TrainFrac = C.readF64();
  DC.ValidFrac = C.readF64();
  DC.RunDedup = C.readU8() != 0;
  DC.DedupThreshold = C.readF64();
  DC.SplitSeed = C.readU64();
  DC.CommonThreshold = C.readI32();
  if (!C.atEnd()) {
    if (Err && Err->empty())
      *Err = "malformed corpus recipe chunk";
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Prediction digest + printing
//===----------------------------------------------------------------------===//

void printPredictions(const std::vector<PredictionResult> &Preds, int Limit) {
  int Shown = 0;
  for (const PredictionResult &P : Preds) {
    if (Limit >= 0 && Shown++ == Limit) {
      std::printf("  ... (%zu more)\n", Preds.size() - static_cast<size_t>(Limit));
      break;
    }
    std::printf("  %-18s %-20s %-10s -> %-20s (p=%.3f)%s%s\n",
                P.FilePath.c_str(), P.SymbolName.c_str(),
                symbolKindName(P.Kind),
                P.top() ? P.top()->str().c_str() : "?", P.confidence(),
                P.Truth ? "  truth " : "",
                P.Truth ? P.Truth->str().c_str() : "");
  }
}

void printSummary(const std::vector<PredictionResult> &Preds,
                  TypeUniverse &U) {
  size_t Exact = 0, Up = 0, Total = 0;
  for (const PredictionResult &P : Preds) {
    if (!P.Truth)
      continue;
    ++Total;
    TypeRef Top = P.top();
    Exact += Top == P.Truth;
    Up += Top && U.erase(Top) == U.erase(P.Truth);
  }
  if (Total > 0)
    std::printf("%zu predictions: %.1f%% exact, %.1f%% up-to-parametric\n",
                Total, 100.0 * static_cast<double>(Exact) / Total,
                100.0 * static_cast<double>(Up) / Total);
}

const std::vector<FileExample> &splitOf(const Dataset &DS, SplitKind S) {
  return S == SplitKind::Train ? DS.Train
         : S == SplitKind::Valid ? DS.Valid
                                 : DS.Test;
}

//===----------------------------------------------------------------------===//
// train
//===----------------------------------------------------------------------===//

int cmdTrain(const Options &O) {
  if (O.Out.empty() && O.Checkpoint.empty())
    return fail("train needs --out PATH (or at least --checkpoint PATH)");

  ModelConfig MC;
  if (O.Encoder == "graph")
    MC.Encoder = EncoderKind::Graph;
  else if (O.Encoder == "seq")
    MC.Encoder = EncoderKind::Seq;
  else if (O.Encoder == "path")
    MC.Encoder = EncoderKind::Path;
  else if (O.Encoder == "names")
    MC.Encoder = EncoderKind::NamesOnly;
  else
    return fail("unknown encoder '" + O.Encoder + "'");
  if (O.Loss == "typilus")
    MC.Loss = LossKind::Typilus;
  else if (O.Loss == "space")
    MC.Loss = LossKind::Space;
  else if (O.Loss == "class")
    MC.Loss = LossKind::Class;
  else
    return fail("unknown loss '" + O.Loss + "'");
  MC.HiddenDim = O.Hidden;

  // The data substrate: the in-memory workbench, or — with --shards — a
  // streamed shard set whose decoded residency is bounded by the LRU,
  // not the corpus. Both run through the same ExampleSource consumers,
  // so the printed digests are bit-identical between the two (CI holds
  // them equal).
  CorpusConfig CC;
  CC.NumFiles = O.Files;
  CC.NumUdts = O.Udts;
  CC.Seed = O.Seed;
  DatasetConfig DC;
  bool HaveRecipe = false;

  Workbench WB;
  TypeUniverse ShardU;
  std::unique_ptr<ShardedDataset> SD;
  std::unique_ptr<VectorExampleSource> VTrain, VValid, VTest;
  std::unique_ptr<ConcatExampleSource> VMap;
  ExampleSource *TrainSrc, *MapSrc, *TestSrc;
  TypeUniverse *U;
  std::string Err;
  if (O.ShardDir.empty()) {
    std::printf("generating %d synthetic files...\n", CC.NumFiles);
    WB = Workbench::make(CC, DC);
    std::printf(
        "dataset: %zu train / %zu valid / %zu test files, %zu targets\n",
        WB.DS.Train.size(), WB.DS.Valid.size(), WB.DS.Test.size(),
        WB.DS.numTargets());
    VTrain = std::make_unique<VectorExampleSource>(WB.DS.Train);
    VValid = std::make_unique<VectorExampleSource>(WB.DS.Valid);
    VTest = std::make_unique<VectorExampleSource>(WB.DS.Test);
    VMap = std::make_unique<ConcatExampleSource>(
        std::vector<ExampleSource *>{VTrain.get(), VValid.get()});
    TrainSrc = VTrain.get();
    MapSrc = VMap.get();
    TestSrc = VTest.get();
    U = WB.U.get();
    HaveRecipe = true;
  } else {
    ShardedDatasetOptions SDO;
    SDO.Prefetch = !O.NoPrefetch;
    SD = ShardedDataset::open(O.ShardDir, ShardU, SDO, &Err);
    if (!SD)
      return fail(Err);
    std::printf("shard set %s: %zu train / %zu valid / %zu test files, "
                "%zu targets\n",
                O.ShardDir.c_str(), SD->numFiles(SplitKind::Train),
                SD->numFiles(SplitKind::Valid), SD->numFiles(SplitKind::Test),
                SD->numTargets(SplitKind::Train) +
                    SD->numTargets(SplitKind::Valid) +
                    SD->numTargets(SplitKind::Test));
    TrainSrc = &SD->split(SplitKind::Train);
    MapSrc = &SD->trainValid();
    TestSrc = &SD->split(SplitKind::Test);
    U = &ShardU;
    // `typilus shard` stores the corpus recipe in the manifest, so the
    // trained artifact keeps it and `predict` works recipe-driven.
    ArchiveReader MR;
    if (MR.openFile(O.ShardDir + "/" + kShardManifestName, &Err,
                    kShardMagic) &&
        MR.hasChunk("corp"))
      HaveRecipe = readCorpusRecipe(MR, CC, DC, &Err);
    if (!HaveRecipe)
      std::fprintf(stderr, "warning: shard manifest has no corpus recipe; "
                           "the artifact will need --source or --shards "
                           "to predict\n");
  }

  TrainOptions TO;
  TO.Epochs = O.Epochs;
  TO.NumThreads = O.Runtime.Threads;
  TO.Verbose = O.Verbose;
  TO.CheckpointPath = O.Checkpoint;
  TO.CheckpointEverySteps = O.CheckpointEvery;

  std::unique_ptr<TypeModel> Model = makeModel(MC, *TrainSrc, *U);
  Trainer T(*Model, TO);
  if (O.Resume) {
    if (O.Checkpoint.empty())
      return fail("--resume needs --checkpoint PATH");
    if (!T.resumeFrom(O.Checkpoint, &Err))
      return fail(Err);
    std::printf("resumed from %s at epoch %d/%d\n", O.Checkpoint.c_str(),
                T.epochsDone(), TO.Epochs);
  }
  std::printf("training %s/%s for %d epochs...\n", encoderKindName(MC.Encoder),
              lossKindName(MC.Loss), TO.Epochs - T.epochsDone());
  double Loss = T.run(*TrainSrc);
  if (std::isnan(Loss))
    return fail("checkpoint does not match this corpus/split "
                "(regenerate with the original --files/--seed)");
  std::printf("final mean loss: %.4f\n", Loss);

  // Build the serving predictor: τmap over train+valid for Space/Typilus
  // models, plain classifier otherwise.
  KnnOptions KO;
  KO.K = O.K.value_or(KO.K);
  KO.P = O.P.value_or(KO.P);
  KO.Index = O.Index.value_or(KnnIndexKind::Annoy);
  KO.EfSearch = O.Runtime.EfSearch;
  KO.NumThreads = O.Runtime.Threads;
  KO.Store = O.TmapStore.value_or(MarkerStore::F32);
  KO.MaxMarkers = O.TmapMaxMarkers;
  Predictor P = MC.Loss == LossKind::Class
                    ? Predictor::classifier(*Model)
                    : Predictor::knn(*Model, *MapSrc, KO);
  if (P.isKnn())
    std::printf("τmap: %zu markers (%s store, %s index, %zu duplicates "
                "dropped)\n",
                P.typeMap().size(), markerStoreName(P.typeMap().store()),
                knnIndexName(KO.Index), P.typeMap().droppedDuplicates());

  if (!O.Out.empty()) {
    ArchiveWriter W(P.artifactVersion());
    P.writeArtifact(W, *U);
    if (HaveRecipe)
      writeCorpusRecipe(W, CC, DC);
    if (!W.writeFile(O.Out, &Err))
      return fail(Err);
    std::printf("artifact written: %s (%zu bytes)\n", O.Out.c_str(),
                W.bytes().size());
  }

  // The same-process predictions `predict` must reproduce bit-for-bit.
  auto Preds = P.predictAll(*TestSrc);
  printSummary(Preds, *U);
  if (SD)
    std::printf("prefetch: %s, %zu hits / %zu misses, wait %" PRIu64
                " us, decode stall %" PRIu64 " us (%zu shard decodes)\n",
                SD->prefetchEnabled() ? "on" : "off", SD->prefetchHits(),
                SD->prefetchMisses(), SD->prefetchWaitMicros(),
                SD->decodeStallMicros(), SD->decodeCount());
  std::printf("test-split digest: %016" PRIx64 "\n", predictionDigest(Preds));
  return 0;
}

//===----------------------------------------------------------------------===//
// shard
//===----------------------------------------------------------------------===//

/// Upfront `shard` argument validation: fail with a specific message
/// before any corpus work instead of mid-build. Creates \p Dir if
/// missing and proves it is writable with a probe file.
bool validateShardArgs(const Options &O, std::string *Err) {
  if (::mkdir(O.OutDir.c_str(), 0777) != 0 && errno != EEXIST) {
    *Err = "cannot create --out-dir '" + O.OutDir + "'";
    return false;
  }
  std::string Probe = O.OutDir + "/.typilus-writable";
  std::FILE *F = std::fopen(Probe.c_str(), "wb");
  if (!F) {
    *Err = "--out-dir '" + O.OutDir + "' is not writable";
    return false;
  }
  std::fclose(F);
  ::remove(Probe.c_str());
  return true;
}

int cmdShard(const Options &O) {
  if (O.OutDir.empty())
    return fail("shard needs --out-dir DIR");
  std::string Err;
  if (!validateShardArgs(O, &Err))
    return fail(Err);

  CorpusConfig CC;
  CC.NumFiles = O.Files;
  CC.NumUdts = O.Udts;
  CC.Seed = O.Seed;
  DatasetConfig DC;

  std::vector<CorpusFile> Files;
  std::vector<UdtSpec> Udts;
  bool HaveRecipe = O.FromDir.empty();
  if (HaveRecipe) {
    std::printf("generating %d synthetic files...\n", CC.NumFiles);
    CorpusGenerator Gen(CC);
    Files = Gen.generate();
    Udts = Gen.udts();
  } else {
    // Real-tree ingestion: walk --from-dir for .py files, keeping what
    // the parser accepts. Rejects are reported, never fatal — a crawl
    // always contains Python beyond the supported subset.
    IngestReport Rep;
    if (!collectPyTree(O.FromDir, Files, Rep, &Err))
      return fail(Err);
    for (const IngestReject &Rej : Rep.Rejects)
      std::fprintf(stderr, "skipped: %s\n", Rej.Reason.c_str());
    std::printf("ingested %s: %zu .py files seen, %zu accepted, %zu "
                "parser-rejected, %zu unreadable\n",
                O.FromDir.c_str(), Rep.FilesSeen, Rep.FilesAccepted,
                Rep.Rejects.size(), Rep.FilesUnreadable);
    if (Files.empty())
      return fail("no ingestible .py files under '" + O.FromDir + "'");
  }

  TypeUniverse U;
  ShardBuildOptions SO;
  SO.Dir = O.OutDir;
  SO.FilesPerShard = O.ShardFiles;
  SO.NumThreads = O.Runtime.Threads;
  // An ingested tree has no generation recipe; `train` then warns that
  // the artifact will need --source or --shards to predict.
  if (HaveRecipe)
    SO.ManifestExtra = [&](ArchiveWriter &W) { writeCorpusRecipe(W, CC, DC); };
  ShardBuildStats Stats;
  if (!buildShards(Files, Udts, U, /*Hierarchy=*/nullptr, DC, SO, &Err,
                   &Stats))
    return fail(Err);
  std::printf("dedup: %zu near-duplicate files dropped (%zu of %zu kept)\n",
              Stats.DedupDropped, Stats.FilesSharded, Stats.FilesIn);

  // Reopen through the reader: validates what was just written and gives
  // the user the manifest view of it.
  TypeUniverse CheckU;
  std::unique_ptr<ShardedDataset> SD =
      ShardedDataset::open(O.OutDir, CheckU, &Err);
  if (!SD)
    return fail("shard set written but does not read back: " + Err);
  std::printf("shard set written: %s (%zu shards, %d files/shard; %zu train "
              "/ %zu valid / %zu test files, %zu targets)\n",
              O.OutDir.c_str(), Stats.ShardsWritten, SO.FilesPerShard,
              SD->numFiles(SplitKind::Train), SD->numFiles(SplitKind::Valid),
              SD->numFiles(SplitKind::Test),
              SD->numTargets(SplitKind::Train) +
                  SD->numTargets(SplitKind::Valid) +
                  SD->numTargets(SplitKind::Test));
  return 0;
}

//===----------------------------------------------------------------------===//
// predict
//===----------------------------------------------------------------------===//

int cmdPredict(const Options &O) {
  if (O.ModelPath.empty())
    return fail("predict needs --model PATH");
  ArchiveReader R;
  std::string Err;
  if (!R.openFile(O.ModelPath, &Err))
    return fail(Err);
  std::unique_ptr<Predictor> P = Predictor::load(R, &Err);
  if (!P)
    return fail(Err);
  O.Runtime.apply(*P);
  TypeUniverse &U = *P->universe();
  const ModelConfig &MC = P->model().config();
  std::printf("loaded %s (%s/%s, D=%d%s)\n", O.ModelPath.c_str(),
              encoderKindName(MC.Encoder), lossKindName(MC.Loss), MC.HiddenDim,
              P->isKnn() ? ", kNN" : ", classifier");

  // Real source files given: serve them directly.
  if (!O.Sources.empty()) {
    for (const std::string &Src : O.Sources) {
      std::ifstream In(Src);
      if (!In)
        return fail("cannot read '" + Src + "'");
      std::ostringstream SS;
      SS << In.rdbuf();
      auto Preds = P->predictSource(Src, SS.str());
      std::printf("%s: %zu annotatable symbols\n", Src.c_str(), Preds.size());
      printPredictions(Preds, O.Limit);
      // The per-file digest a typilus_serve response for this source must
      // match bit for bit (CI's daemon smoke compares the two).
      std::printf("%s digest: %016" PRIx64 "\n", Src.c_str(),
                  predictionDigest(Preds));
    }
    return 0;
  }

  // A shard set given: stream the requested split through the artifact —
  // no corpus regeneration, residency bounded by the shard LRU. Types
  // intern into the artifact's universe, so truth and prediction
  // TypeRefs match and the digest equals the in-memory path's.
  if (!O.ShardDir.empty()) {
    ShardedDatasetOptions SDO;
    SDO.Prefetch = !O.NoPrefetch;
    std::unique_ptr<ShardedDataset> SD =
        ShardedDataset::open(O.ShardDir, U, SDO, &Err);
    if (!SD)
      return fail(Err);
    auto Preds = P->predictAll(SD->split(O.Split));
    std::printf("%s split: %zu files (streamed from %s)\n",
                splitKindName(O.Split), SD->numFiles(O.Split),
                O.ShardDir.c_str());
    printPredictions(Preds, O.Limit);
    printSummary(Preds, U);
    if (O.Split == SplitKind::Test)
      std::printf("test-split digest: %016" PRIx64 "\n",
                  predictionDigest(Preds));
    return 0;
  }

  // Otherwise rebuild the recipe split and report accuracy + digest.
  CorpusConfig CC;
  DatasetConfig DC;
  if (!readCorpusRecipe(R, CC, DC, &Err))
    return fail(Err + (R.hasChunk("corp")
                           ? ""
                           : " (artifact has no corpus recipe; use --source)"));
  CorpusGenerator Gen(CC);
  std::vector<CorpusFile> Files = Gen.generate();
  // Resolve the dataset's types inside the artifact's universe so truth
  // and prediction TypeRefs are the same interned pointers.
  Dataset DS = buildDataset(Files, Gen.udts(), U, /*Hierarchy=*/nullptr, DC);
  const std::vector<FileExample> &Split = splitOf(DS, O.Split);
  auto Preds = P->predictAll(Split);
  std::printf("%s split: %zu files\n", splitKindName(O.Split), Split.size());
  printPredictions(Preds, O.Limit);
  printSummary(Preds, U);
  if (O.Split == SplitKind::Test)
    std::printf("test-split digest: %016" PRIx64 "\n",
                predictionDigest(Preds));
  return 0;
}

//===----------------------------------------------------------------------===//
// inspect
//===----------------------------------------------------------------------===//

int cmdInspect(const Options &O) {
  if (O.ModelPath.empty())
    return fail("inspect needs --model PATH");
  ArchiveReader R;
  std::string Err;
  if (!R.openFile(O.ModelPath, &Err))
    return fail(Err);
  std::printf("%s: format version %u, %zu chunks\n", O.ModelPath.c_str(),
              R.formatVersion(), R.chunks().size());
  for (const ArchiveReader::ChunkInfo &C : R.chunks())
    std::printf("  %-6s %10zu bytes  (crc ok)\n", C.Tag.c_str(), C.Size);

  std::unique_ptr<Predictor> P = Predictor::load(R, &Err);
  if (!P)
    return fail(Err);
  const ModelConfig &MC = P->model().config();
  std::printf("model: encoder=%s loss=%s hidden=%d timesteps=%d seed=%" PRIu64
              "\n",
              encoderKindName(MC.Encoder), lossKindName(MC.Loss), MC.HiddenDim,
              MC.TimeSteps, MC.Seed);
  std::printf("vocabularies: %zu labels, %zu full types, %zu erased types, "
              "%zu interned types, %zu parameters\n",
              P->model().labelVocab().size(), P->model().typeVocabs().Full.size(),
              P->model().typeVocabs().Erased.size(), P->universe()->size(),
              P->model().params().numParams());
  if (P->isKnn()) {
    std::printf("τmap: %zu markers (%s store, %zu bytes), k=%d, p=%.2f, "
                "%s index\n",
                P->typeMap().size(), markerStoreName(P->typeMap().store()),
                P->typeMap().storageBytes(), P->knnOptions().K,
                P->knnOptions().P, knnIndexName(P->knnOptions().Index));
    if (auto *H = dynamic_cast<const HnswIndex *>(P->knnIndex()))
      std::printf("hnsw graph: %zu nodes, M=%d, efConstruction=%d, "
                  "efSearch=%s\n",
                  H->indexedMarkers(), H->m(), H->efConstruction(),
                  P->knnOptions().EfSearch > 0
                      ? std::to_string(P->knnOptions().EfSearch).c_str()
                      : "default");
  } else {
    std::printf("classifier over the closed type vocabulary\n");
  }
  if (R.hasChunk("corp")) {
    CorpusConfig CC;
    DatasetConfig DC;
    if (readCorpusRecipe(R, CC, DC, &Err))
      std::printf("corpus recipe: %d files, %d UDTs, seed %" PRIu64 "\n",
                  CC.NumFiles, CC.NumUdts, CC.Seed);
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// save (rewrite / re-index)
//===----------------------------------------------------------------------===//

int cmdSave(const Options &O) {
  if (O.ModelPath.empty() || O.Out.empty())
    return fail("save needs --model PATH and --out PATH");
  ArchiveReader R;
  std::string Err;
  if (!R.openFile(O.ModelPath, &Err))
    return fail(Err);
  std::unique_ptr<Predictor> P = Predictor::load(R, &Err);
  if (!P)
    return fail(Err);

  O.Runtime.apply(*P);
  KnnOptions KO = P->knnOptions();
  KO.K = O.K.value_or(KO.K);
  KO.P = O.P.value_or(KO.P);
  KO.Index = O.Index.value_or(KO.Index);
  P->setKnnOptions(KO); // rebuilds the index when the kind flips
  if (O.TmapStore && !P->setMarkerStore(*O.TmapStore, &Err))
    return fail(Err);

  ArchiveWriter W(P->artifactVersion());
  P->writeArtifact(W, *P->universe());
  if (R.hasChunk("corp")) {
    CorpusConfig CC;
    DatasetConfig DC;
    if (!readCorpusRecipe(R, CC, DC, &Err))
      return fail(Err);
    writeCorpusRecipe(W, CC, DC);
  }
  if (!W.writeFile(O.Out, &Err))
    return fail(Err);
  std::string IndexNote =
      P->isKnn() ? std::string(", ") + knnIndexName(KO.Index) + " index" : "";
  std::printf("rewritten: %s -> %s (%zu bytes%s)\n", O.ModelPath.c_str(),
              O.Out.c_str(), W.bytes().size(), IndexNote.c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// client (talk to a typilus_serve daemon)
//===----------------------------------------------------------------------===//

/// Sends one request line over its own connection (Unix socket or TCP,
/// whichever the options name) and reads one response.
bool roundTrip(const Options &O, const std::string &RequestLine,
               std::string &ResponseLine, std::string *Err) {
  FileDesc Fd;
  if (!O.TcpHost.empty()) {
    if (!connectTcp(O.TcpHost, static_cast<uint16_t>(O.TcpPort), Fd, Err))
      return false;
  } else if (!connectUnix(O.Socket, Fd, Err)) {
    return false;
  }
  if (!writeAll(Fd.fd(), RequestLine)) {
    if (Err)
      *Err = "write failed (daemon gone?)";
    return false;
  }
  // Responses dwarf requests (up to 10 candidates per symbol), so the
  // client-side line cap is far above the daemon's request cap.
  LineReader R(Fd.fd(), /*MaxLineBytes=*/256u << 20);
  LineReader::Status St;
  do
    St = R.next(ResponseLine);
  while (St == LineReader::Status::Interrupted);
  if (St != LineReader::Status::Line) {
    if (Err)
      *Err = "no response (daemon gone?)";
    return false;
  }
  return true;
}

int cmdClient(const Options &O) {
  if (O.Socket.empty() == O.TcpHost.empty())
    return fail("client needs exactly one of --socket PATH / --tcp HOST:PORT");

  if (O.Ping || O.Shutdown || O.Reload) {
    const char *Method = O.Ping ? "ping" : O.Reload ? "reload" : "shutdown";
    std::string Resp, Err;
    if (!roundTrip(O, std::string("{\"id\":0,\"method\":\"") + Method + "\"}\n",
                   Resp, &Err))
      return fail(Err);
    json::Value V;
    if (!json::parse(Resp, V, &Err))
      return fail("malformed response: " + Err);
    if (!V.getBool("ok", false))
      return fail("daemon error: " + V.getString("error", "unknown"));
    std::printf("%s ok%s\n", Method,
                O.Ping ? (" (protocol " +
                          std::to_string(V.getInt("protocol", 0)) + ")")
                             .c_str()
                       : "");
    return 0;
  }

  if (O.Sources.empty())
    return fail(
        "client needs --source FILE.py (or --ping / --reload / --shutdown)");

  // One job per (source × repeat), each over its own connection, all in
  // flight at once — the concurrent load the daemon's request queue
  // coalesces into batches.
  struct Job {
    std::string Path;
    std::string Request;
    std::string Response;
    std::string Error;
    bool Ok = false;
  };
  std::vector<Job> Jobs;
  for (const std::string &Src : O.Sources) {
    std::ifstream In(Src);
    if (!In)
      return fail("cannot read '" + Src + "'");
    std::ostringstream SS;
    SS << In.rdbuf();
    std::string Req = "{\"id\":" + std::to_string(Jobs.size()) +
                      ",\"method\":\"predict\",\"path\":" + json::quoted(Src) +
                      ",\"limit\":" + std::to_string(O.Limit) +
                      ",\"source\":" + json::quoted(SS.str()) + "}\n";
    for (int R = 0; R != O.Repeat; ++R)
      Jobs.push_back(Job{Src, Req, "", "", false});
  }

  std::vector<std::thread> Threads;
  Threads.reserve(Jobs.size());
  for (Job &J : Jobs)
    Threads.emplace_back([&J, &O] {
      J.Ok = roundTrip(O, J.Request, J.Response, &J.Error);
    });
  for (std::thread &T : Threads)
    T.join();

  int Failures = 0;
  for (Job &J : Jobs) {
    json::Value V;
    std::string Err;
    if (!J.Ok || !json::parse(J.Response, V, &Err)) {
      std::fprintf(stderr, "error: %s: %s\n", J.Path.c_str(),
                   J.Ok ? ("malformed response: " + Err).c_str()
                        : J.Error.c_str());
      ++Failures;
      continue;
    }
    if (!V.getBool("ok", false)) {
      std::fprintf(stderr, "error: %s: %s\n", J.Path.c_str(),
                   V.getString("error", "unknown").c_str());
      ++Failures;
      continue;
    }
    const json::Value *Preds = V.find("predictions");
    size_t N = Preds && Preds->isArray() ? Preds->array().size() : 0;
    // Same "<path> digest: <hex>" shape `predict --source` prints, so the
    // two serving paths diff cleanly.
    std::printf("%s digest: %s (%zu symbols)\n", J.Path.c_str(),
                V.getString("digest", "?").c_str(), N);
    if (O.Verbose && Preds)
      for (const json::Value &P : Preds->array()) {
        const json::Value *Cands = P.find("candidates");
        const json::Value *Top = Cands && Cands->isArray() &&
                                         !Cands->array().empty()
                                     ? &Cands->array().front()
                                     : nullptr;
        const json::Value *Prob = Top ? Top->find("prob") : nullptr;
        std::printf("  %-20s %-10s -> %-20s (p=%.3f)\n",
                    P.getString("symbol", "?").c_str(),
                    P.getString("kind", "?").c_str(),
                    Top ? Top->getString("type", "?").c_str() : "?",
                    Prob && Prob->isNumber() ? Prob->asNumber() : 0.0);
      }
  }
  return Failures ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage(Argv[0]);
  std::string Cmd = Argv[1];
  Options O;
  if (!parseOptions(Argc, Argv, O))
    return 2;
  O.Runtime.applyProcess();

  if (Cmd == "train")
    return cmdTrain(O);
  if (Cmd == "shard")
    return cmdShard(O);
  if (Cmd == "predict")
    return cmdPredict(O);
  if (Cmd == "inspect")
    return cmdInspect(O);
  if (Cmd == "save")
    return cmdSave(O);
  if (Cmd == "client")
    return cmdClient(O);
  return usage(Argv[0]);
}
