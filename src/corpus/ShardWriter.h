//===- corpus/ShardWriter.h - Corpus shard format & writer --------*- C++ -*-===//
//
// Part of the Typilus C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk corpus shard format and its writer. A shard set is a
/// directory of "TYPS" archives (the PR-3 chunked container under a
/// shard-specific magic):
///
///   manifest.typs      directory: shard table, per-split totals, the
///                      merged train-annotation type counts, and any
///                      caller chunks (the CLI stores its corpus recipe)
///   shard-NNNNN.typs   one deterministic chunk of preprocessed files
///
/// Each shard carries, per chunk with its own CRC32:
///
///   "smet"   split assignment + file/target counts (cross-checked
///            against the manifest and the decoded payload on read)
///   "exmp"   the serialized FileExamples: path + full program graph
///            (nodes, edges, supernodes incl. annotation text)
///   "tcnt"   this shard's ground-truth type histogram — the sidecar
///            the writer merges into the manifest's global
///            TrainTypeCounts for train shards
///
/// Prediction targets are deliberately NOT serialized: decoding re-runs
/// `resolveTargets` over the supernode annotations, the exact code path
/// `buildExample` uses, so a decoded example is bit-identical to a
/// freshly built one and types intern through the reader's universe.
///
//===----------------------------------------------------------------------===//

#ifndef TYPILUS_CORPUS_SHARDWRITER_H
#define TYPILUS_CORPUS_SHARDWRITER_H

#include "corpus/Dataset.h"

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace typilus {

/// Payload format version of corpus shards and their manifest. Bump when
/// the meaning of any chunk changes; readers reject other versions.
inline constexpr uint32_t kShardFormatVersion = 1;

/// The archive magic of shard-set files (model artifacts use "TYPA").
inline constexpr const char *kShardMagic = "TYPS";

/// File name of the shard-set directory's manifest.
inline constexpr const char *kShardManifestName = "manifest.typs";

/// Which dataset split a shard belongs to. Values are serialized.
enum class SplitKind : uint8_t { Train = 0, Valid = 1, Test = 2 };

inline constexpr int kNumSplits = 3;

/// Returns "train" / "valid" / "test".
const char *splitKindName(SplitKind S);

/// Serializes \p Ex (path + graph; targets are re-derived on read) into
/// the open chunk.
void writeFileExample(ArchiveWriter &W, const FileExample &Ex);

/// Reads one example's path + graph written by writeFileExample without
/// touching any type universe (`Ex.Targets` stays empty — run
/// `resolveTargets` to fill it). This is the half of decoding the
/// background prefetcher may run off-thread. \returns false and sets
/// \p Err on malformed input.
bool readFileExampleGraph(ArchiveCursor &C, FileExample &Ex,
                          std::string *Err);

/// Sharded-build knobs.
struct ShardBuildOptions {
  std::string Dir;        ///< Output directory (created if missing).
  int FilesPerShard = 32; ///< Files per shard; the residency granule.
  /// Ways of parallelism for chunk building: 0 leaves the process-wide
  /// pool at its current size, N > 0 sizes it to N for the build (and
  /// restores it). Output bytes are identical for every value.
  int NumThreads = 0;
  /// When set, appends caller chunks to the manifest (the CLI stores the
  /// corpus recipe here so `train --shards` artifacts keep the recipe).
  std::function<void(ArchiveWriter &)> ManifestExtra;
};

/// What a shard build did — dedup, rejects and output shape — for the
/// CLI's ingestion report and the corpus-stats bench.
struct ShardBuildStats {
  size_t FilesIn = 0;      ///< Corpus files offered to the builder.
  size_t DedupDropped = 0; ///< Near-duplicates removed before the split.
  size_t FilesSharded = 0; ///< Files written into shards.
  size_t ShardsWritten = 0;
};

/// One shard serialized in memory, ready to be committed to disk. Built
/// concurrently by the parallel shard builder; committing stays strictly
/// sequential so shard numbering and manifest order are scheduling-free.
struct EncodedShard {
  EncodedShard();
  ArchiveWriter W; ///< The finished "TYPS" archive.
  SplitKind Split = SplitKind::Train;
  uint64_t Files = 0;
  uint64_t Targets = 0;
  /// This shard's ground-truth histogram (the "tcnt" sidecar), keyed by
  /// canonical type repr — merged into the manifest on commit.
  std::map<std::string, int64_t> Counts;
};

/// Serializes \p Examples as one shard archive of \p Split. Pure: no
/// I/O, no shared state — safe to run on any thread, and the bytes
/// depend only on the examples (types are spelled canonically, never by
/// universe identity).
EncodedShard encodeShard(SplitKind Split,
                         const std::vector<FileExample> &Examples);

/// Writes one shard set: commit encoded shards split by split, then
/// finish() the manifest. Shards are numbered in commit order, which is
/// the stream order readers see.
class ShardWriter {
public:
  explicit ShardWriter(std::string Dir);

  /// Flushes an already-encoded shard as the next shard on disk and
  /// merges its sidecar. The commit order defines shard numbering, so
  /// parallel builders must call this in plan order.
  bool commit(const EncodedShard &E, std::string *Err);

  /// Writes manifest.typs. \p Extra, when non-null, may append caller
  /// chunks (e.g. the CLI's corpus recipe) before the file is flushed.
  bool finish(int CommonThreshold,
              const std::function<void(ArchiveWriter &)> &Extra,
              std::string *Err);

  size_t numShards() const { return Shards.size(); }

private:
  struct ShardInfo {
    std::string Name;
    SplitKind Split = SplitKind::Train;
    uint64_t Files = 0;
    uint64_t Targets = 0;
  };

  std::string Dir;
  std::vector<ShardInfo> Shards;
  /// Merged train-annotation histogram, keyed by canonical type repr
  /// (std::map: deterministic serialization order).
  std::map<std::string, int64_t> TrainTypeCounts;
};

/// The sharded twin of buildDataset: identical dedup, shuffle and
/// 70/10/20 split (same RNG consumption, so the file-to-split assignment
/// matches buildDataset bit for bit), but examples are built in
/// deterministic FilesPerShard-sized chunks and written to disk as they
/// are produced — peak residency is one wave of chunks, not the corpus.
/// Chunk boundaries are fixed up front from the split plan; waves of
/// chunks parse/graph-ize/encode data-parallel through the thread pool
/// and commit in shard order, so every file on disk is bit-identical to
/// the serial build for any `NumThreads`. \p Hierarchy (if non-null)
/// learns the UDT classes, as in buildDataset. \p Stats (if non-null)
/// receives the build report.
bool buildShards(const std::vector<CorpusFile> &Files,
                 const std::vector<UdtSpec> &Udts, TypeUniverse &U,
                 TypeHierarchy *Hierarchy, const DatasetConfig &Config,
                 const ShardBuildOptions &Opts, std::string *Err,
                 ShardBuildStats *Stats = nullptr);

} // namespace typilus

#endif // TYPILUS_CORPUS_SHARDWRITER_H
