//===- corpus/ShardWriter.cpp - Corpus shard format & writer -------------------===//

#include "corpus/ShardWriter.h"

#include "support/ThreadPool.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <sys/stat.h>

using namespace typilus;

const char *typilus::splitKindName(SplitKind S) {
  switch (S) {
  case SplitKind::Train:
    return "train";
  case SplitKind::Valid:
    return "valid";
  case SplitKind::Test:
    return "test";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// FileExample serialization
//===----------------------------------------------------------------------===//

void typilus::writeFileExample(ArchiveWriter &W, const FileExample &Ex) {
  W.writeStr(Ex.Path);
  W.writeU64(Ex.Graph.Nodes.size());
  for (const GraphNode &N : Ex.Graph.Nodes) {
    W.writeU8(static_cast<uint8_t>(N.Category));
    W.writeStr(N.Label);
    W.writeI32(N.SymbolId);
    W.writeI32(N.TokenIdx);
  }
  W.writeU64(Ex.Graph.Edges.size());
  for (const GraphEdge &E : Ex.Graph.Edges) {
    W.writeI32(E.Src);
    W.writeI32(E.Dst);
    W.writeU8(static_cast<uint8_t>(E.Label));
  }
  W.writeU64(Ex.Graph.Supernodes.size());
  for (const Supernode &S : Ex.Graph.Supernodes) {
    W.writeI32(S.NodeIdx);
    W.writeI32(S.SymbolId);
    W.writeU8(static_cast<uint8_t>(S.Kind));
    W.writeStr(S.Name);
    W.writeStr(S.AnnotationText);
  }
}

bool typilus::readFileExampleGraph(ArchiveCursor &C, FileExample &Ex,
                                   std::string *Err) {
  auto Fail = [&](const char *Why) {
    if (Err && Err->empty())
      *Err = std::string("malformed shard example: ") + Why;
    return false;
  };
  Ex = FileExample();
  Ex.Path = C.readStr();

  uint64_t NumNodes = C.readU64();
  if (!C.ok() || NumNodes > C.remaining())
    return Fail("node count");
  Ex.Graph.Nodes.reserve(static_cast<size_t>(NumNodes));
  for (uint64_t I = 0; I != NumNodes; ++I) {
    GraphNode N;
    uint8_t Cat = C.readU8();
    N.Label = C.readStr();
    N.SymbolId = C.readI32();
    N.TokenIdx = C.readI32();
    if (!C.ok() || Cat > static_cast<uint8_t>(NodeCategory::SymbolNode))
      return Fail("node record");
    N.Category = static_cast<NodeCategory>(Cat);
    Ex.Graph.Nodes.push_back(std::move(N));
  }

  uint64_t NumEdges = C.readU64();
  if (!C.ok() || NumEdges > C.remaining())
    return Fail("edge count");
  Ex.Graph.Edges.reserve(static_cast<size_t>(NumEdges));
  for (uint64_t I = 0; I != NumEdges; ++I) {
    GraphEdge E;
    E.Src = C.readI32();
    E.Dst = C.readI32();
    uint8_t L = C.readU8();
    if (!C.ok() || L >= NumEdgeLabels || E.Src < 0 || E.Dst < 0 ||
        static_cast<uint64_t>(E.Src) >= NumNodes ||
        static_cast<uint64_t>(E.Dst) >= NumNodes)
      return Fail("edge record");
    E.Label = static_cast<EdgeLabel>(L);
    Ex.Graph.Edges.push_back(E);
  }

  uint64_t NumSuper = C.readU64();
  if (!C.ok() || NumSuper > C.remaining())
    return Fail("supernode count");
  Ex.Graph.Supernodes.reserve(static_cast<size_t>(NumSuper));
  for (uint64_t I = 0; I != NumSuper; ++I) {
    Supernode S;
    S.NodeIdx = C.readI32();
    S.SymbolId = C.readI32();
    uint8_t K = C.readU8();
    S.Name = C.readStr();
    S.AnnotationText = C.readStr();
    if (!C.ok() || K > static_cast<uint8_t>(SymbolKind::External) ||
        S.NodeIdx < 0 || static_cast<uint64_t>(S.NodeIdx) >= NumNodes)
      return Fail("supernode record");
    S.Kind = static_cast<SymbolKind>(K);
    Ex.Graph.Supernodes.push_back(std::move(S));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// ShardWriter
//===----------------------------------------------------------------------===//

EncodedShard::EncodedShard() : W(kShardFormatVersion, kShardMagic) {}

EncodedShard typilus::encodeShard(SplitKind Split,
                                  const std::vector<FileExample> &Examples) {
  EncodedShard E;
  E.Split = Split;
  E.Files = Examples.size();
  for (const FileExample &Ex : Examples)
    E.Targets += Ex.Targets.size();

  E.W.beginChunk("smet");
  E.W.writeU8(static_cast<uint8_t>(Split));
  E.W.writeU64(E.Files);
  E.W.writeU64(E.Targets);
  E.W.endChunk();

  E.W.beginChunk("exmp");
  E.W.writeU64(Examples.size());
  for (const FileExample &Ex : Examples)
    writeFileExample(E.W, Ex);
  E.W.endChunk();

  // The type-count sidecar: this shard's ground-truth histogram, merged
  // into the manifest's global TrainTypeCounts for train shards. Keyed by
  // canonical repr, so the bytes are independent of universe intern order
  // — the property that lets parallel builders use per-chunk universes.
  for (const FileExample &Ex : Examples)
    for (const Target &T : Ex.Targets)
      ++E.Counts[T.Type->str()];
  E.W.beginChunk("tcnt");
  E.W.writeU64(E.Counts.size());
  for (const auto &[Repr, N] : E.Counts)
    E.W.writeStr(Repr), E.W.writeI64(N);
  E.W.endChunk();
  return E;
}

ShardWriter::ShardWriter(std::string Dir) : Dir(std::move(Dir)) {}

bool ShardWriter::commit(const EncodedShard &E, std::string *Err) {
  char Name[32];
  std::snprintf(Name, sizeof(Name), "shard-%05zu.typs", Shards.size());
  if (!E.W.writeFile(Dir + "/" + Name, Err))
    return false;

  if (E.Split == SplitKind::Train)
    for (const auto &[Repr, N] : E.Counts)
      TrainTypeCounts[Repr] += N;
  Shards.push_back(ShardInfo{Name, E.Split, E.Files, E.Targets});
  return true;
}

bool ShardWriter::finish(int CommonThreshold,
                         const std::function<void(ArchiveWriter &)> &Extra,
                         std::string *Err) {
  uint64_t Files[kNumSplits] = {}, Targets[kNumSplits] = {};
  for (const ShardInfo &S : Shards) {
    Files[static_cast<int>(S.Split)] += S.Files;
    Targets[static_cast<int>(S.Split)] += S.Targets;
  }

  ArchiveWriter W(kShardFormatVersion, kShardMagic);
  W.beginChunk("mset");
  W.writeI32(CommonThreshold);
  W.writeU64(Shards.size());
  for (uint64_t F : Files)
    W.writeU64(F);
  for (uint64_t T : Targets)
    W.writeU64(T);
  W.endChunk();

  W.beginChunk("shrd");
  W.writeU64(Shards.size());
  for (const ShardInfo &S : Shards) {
    W.writeStr(S.Name);
    W.writeU8(static_cast<uint8_t>(S.Split));
    W.writeU64(S.Files);
    W.writeU64(S.Targets);
  }
  W.endChunk();

  W.beginChunk("tcnt");
  W.writeU64(TrainTypeCounts.size());
  for (const auto &[Repr, N] : TrainTypeCounts)
    W.writeStr(Repr), W.writeI64(N);
  W.endChunk();

  if (Extra)
    Extra(W);
  return W.writeFile(Dir + "/" + kShardManifestName, Err);
}

//===----------------------------------------------------------------------===//
// buildShards
//===----------------------------------------------------------------------===//

bool typilus::buildShards(const std::vector<CorpusFile> &Files,
                          const std::vector<UdtSpec> &Udts, TypeUniverse &U,
                          TypeHierarchy *Hierarchy, const DatasetConfig &Config,
                          const ShardBuildOptions &Opts, std::string *Err,
                          ShardBuildStats *Stats) {
  if (::mkdir(Opts.Dir.c_str(), 0777) != 0 && errno != EEXIST) {
    if (Err)
      *Err = "cannot create shard directory '" + Opts.Dir + "'";
    return false;
  }

  if (Hierarchy)
    registerUdts(Udts, *Hierarchy);

  // The same dedup + seeded shuffle + split-boundary computation
  // buildDataset uses — one shared implementation, so the file-to-split
  // assignment cannot drift between the in-memory and sharded paths.
  CorpusSplitPlan Plan = planCorpusSplit(Files, Config);
  const std::vector<const CorpusFile *> &Shuffled = Plan.Shuffled;

  // Shard bytes never depend on universe intern order (targets are not
  // serialized; sidecars key by canonical repr), so chunks build against
  // per-chunk universes below and the caller's universe is untouched.
  (void)U;

  // Chunk boundaries are a pure function of the plan: maximal runs of one
  // split, cut into PerShard-sized pieces — exactly where the serial
  // flush-on-boundary loop would cut them.
  size_t PerShard =
      Opts.FilesPerShard < 1 ? 1 : static_cast<size_t>(Opts.FilesPerShard);
  struct ChunkPlan {
    size_t Begin = 0, End = 0;
    SplitKind Split = SplitKind::Train;
  };
  std::vector<ChunkPlan> Chunks;
  for (size_t I = 0; I != Shuffled.size();) {
    ChunkPlan CP;
    CP.Begin = I;
    CP.Split = static_cast<SplitKind>(Plan.splitOf(I));
    size_t End = I + 1;
    while (End != Shuffled.size() && End - I < PerShard &&
           static_cast<SplitKind>(Plan.splitOf(End)) == CP.Split)
      ++End;
    CP.End = End;
    Chunks.push_back(CP);
    I = End;
  }

  // Parallelism: NumThreads > 0 temporarily sizes the process-wide pool
  // (restored on every exit path, as Trainer::run does); 0 uses it as-is.
  struct PoolSizeGuard {
    int Saved = globalNumThreads();
    ~PoolSizeGuard() { setGlobalNumThreads(Saved); }
  } Guard;
  if (Opts.NumThreads > 0)
    setGlobalNumThreads(Opts.NumThreads);
  size_t Ways = static_cast<size_t>(std::max(1, globalNumThreads()));

  // Waves of `Ways` chunks build data-parallel (parse + graph + encode),
  // then commit strictly in chunk order — shard numbering, manifest order
  // and every byte on disk are independent of scheduling. Peak residency
  // is one wave of encoded shards, not the corpus.
  ShardWriter Writer(Opts.Dir);
  for (size_t C0 = 0; C0 < Chunks.size(); C0 += Ways) {
    size_t C1 = std::min(Chunks.size(), C0 + Ways);
    std::vector<EncodedShard> Wave(C1 - C0);
    parallelFor(
        static_cast<int64_t>(C0), static_cast<int64_t>(C1), /*Grain=*/1,
        [&](int64_t B, int64_t E) {
          for (int64_t C = B; C != E; ++C) {
            const ChunkPlan &CP = Chunks[static_cast<size_t>(C)];
            TypeUniverse Local;
            std::vector<FileExample> Examples;
            Examples.reserve(CP.End - CP.Begin);
            for (size_t I = CP.Begin; I != CP.End; ++I)
              Examples.push_back(
                  buildExample(*Shuffled[I], Local, Config.GraphOpts));
            Wave[static_cast<size_t>(C) - C0] =
                encodeShard(CP.Split, Examples);
          }
        },
        /*MaxWays=*/static_cast<int>(Ways));
    for (const EncodedShard &E : Wave)
      if (!Writer.commit(E, Err))
        return false;
  }

  if (Stats) {
    Stats->FilesIn = Files.size();
    Stats->DedupDropped = Plan.DedupDropped;
    Stats->FilesSharded = Shuffled.size();
    Stats->ShardsWritten = Writer.numShards();
  }
  return Writer.finish(Config.CommonThreshold, Opts.ManifestExtra, Err);
}
