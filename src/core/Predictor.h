//===- core/Predictor.h - Type prediction --------------------------*- C++ -*-===//
//
// Part of the Typilus C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Inference (Fig. 1, right): embed query symbols with the trained
/// encoder, then either (a) look up the k nearest type markers in the
/// τmap and score candidates with Eq. 5 (Space / Typilus models), or
/// (b) softmax over the closed type vocabulary (the *2Class baselines).
///
/// A predictor can be built from a live model (training process) or
/// loaded from a saved artifact (serving process): `save()` snapshots the
/// type universe, model, τmap and kNN index into one versioned archive
/// and `load()` reconstitutes a self-contained predictor from it — no
/// training `Dataset` in memory, predictions bit-identical to the
/// original's.
///
//===----------------------------------------------------------------------===//

#ifndef TYPILUS_CORE_PREDICTOR_H
#define TYPILUS_CORE_PREDICTOR_H

#include "corpus/ExampleStream.h"
#include "corpus/Generator.h"
#include "knn/TypeMap.h"
#include "models/Model.h"
#include "support/Archive.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace typilus {

/// Payload format version of model artifacts (the `typilus` CLI's
/// .typilus files). Bump when the meaning of any chunk changes; loaders
/// accept [kModelArtifactVersionMin, kModelArtifactVersion] and reject
/// anything else with a clear error (see docs/ARCHITECTURE.md
/// "Artifacts & versioning").
///
/// Version history:
///   1 — initial chunked format (tuni/parm-family/pred/tmap/anny).
///   2 — adds the quantized τmap chunks tm16/tmq8. Writers stamp 2 only
///       when such a chunk is present, so f32 artifacts remain
///       byte-identical to version-1 writers (Predictor::artifactVersion).
///   3 — adds the HNSW graph chunk hnsw (and index kind 2 in pred).
///       Stamped only when the chunk is present, so exact/Annoy artifacts
///       keep their version-1/2 bytes.
inline constexpr uint32_t kModelArtifactVersion = 3;
inline constexpr uint32_t kModelArtifactVersionMin = 1;

/// Candidate predictions for one target symbol. Self-contained: results
/// carry stable copies/ids (file path, target index, symbol facts)
/// rather than pointers into the dataset, so they remain valid after the
/// `FileExample`s they were predicted from are gone. The `TypeRef`s are
/// owned by the universe the model predicts into.
struct PredictionResult {
  std::string FilePath;  ///< Path of the predicted file.
  int TargetIdx = -1;    ///< Index into the file's `Targets` vector.
  int NodeIdx = -1;      ///< Graph node index of the symbol supernode.
  int SymbolId = -1;     ///< Symbol-table id of that supernode (-1 none);
                         ///< lets consumers (checker gating, the LSP) map
                         ///< a prediction to a re-parsed file's symbol
                         ///< without keeping the graph around. Not part
                         ///< of predictionDigest().
  std::string SymbolName;
  SymbolKind Kind = SymbolKind::Variable;
  TypeRef Truth = nullptr; ///< Ground-truth type (null when unknown).
  std::vector<ScoredType> Candidates; ///< Sorted by descending probability.

  TypeRef top() const {
    return Candidates.empty() ? nullptr : Candidates.front().Type;
  }
  double confidence() const {
    return Candidates.empty() ? 0 : Candidates.front().Prob;
  }
};

/// kNN settings for the type-map predictor (Eq. 5).
struct KnnOptions {
  int K = 10;
  double P = 1.0;      ///< Distance-weighting temperature.
  /// Index structure answering the kNN probes: the blocked exact scan,
  /// the Annoy-style kd-forest, or the deterministic HNSW graph (see the
  /// index matrix in docs/ARCHITECTURE.md "Index layer").
  KnnIndexKind Index = KnnIndexKind::Annoy;
  /// HNSW per-request query-time budget: layer-0 beam width, i.e. how
  /// many candidates one request may inspect (<= 0 = the index default,
  /// max(4·K, 64)). Larger = better recall, more latency. Ignored by the
  /// other index kinds.
  int EfSearch = 0;
  /// Caps the ways of parallelism used for τmap construction and query
  /// batches (0 = no cap, i.e. the full process-wide pool; 1 = fully
  /// serial). The pool itself is sized by setGlobalNumThreads /
  /// TrainOptions::NumThreads. Results are identical for any value.
  int NumThreads = 0;
  /// Marker storage format. Applied once by Predictor::knn after the map
  /// is filled (subsample, then quantize, then build the index); on a
  /// loaded predictor it reflects the artifact's actual store. Changing
  /// it through setKnnOptions has no effect — quantization is one-way
  /// (see Predictor::setMarkerStore).
  MarkerStore Store = MarkerStore::F32;
  /// Caps the τmap at this many markers via coreset subsampling before
  /// quantization (0 = keep every marker). Build-time only, like Store:
  /// setKnnOptions keeps the value the map was built with.
  size_t MaxMarkers = 0;
  /// Editor-loop compaction policy: once more than this fraction of the
  /// τmap's rows are tombstones (markers retired by annotateIncremental /
  /// removeMarkersForFile), the map is compacted and the index rebuilt
  /// over the live rows. Below the threshold mutation never touches the
  /// index — removals are tombstones the queries skip, additions are
  /// covered by an exact delta scan. <= 0 disables automatic compaction.
  double CompactRatio = 0.25;
};

/// Inference engine for one trained model.
class Predictor {
public:
  /// kNN predictor: seeds the τmap with the markers of \p MapFiles
  /// (the paper uses train+valid annotations). The stream form fills the
  /// τmap one residency-bounded window at a time — embedding each window
  /// data-parallel, appending markers in file order — so construction
  /// RAM is bounded by shard residency, not the corpus; the map is
  /// pre-sized from the stream's target metadata. Marker layout (and
  /// every downstream prediction) is bit-identical to the historical
  /// all-at-once fill for any window size and thread count.
  static Predictor knn(TypeModel &Model, ExampleSource &MapFiles,
                       const KnnOptions &Opts = {});
  static Predictor knn(TypeModel &Model,
                       const std::vector<const FileExample *> &MapFiles,
                       const KnnOptions &Opts = {});

  /// Closed-vocabulary classification predictor.
  static Predictor classifier(TypeModel &Model);

  /// Loads an artifact written by save() into a self-contained predictor
  /// that owns its own `TypeUniverse` and `TypeModel` — the serve-many
  /// path: any number of processes can load the same file and predict
  /// without the training corpus. \returns null and sets \p Err on
  /// corrupt, truncated or version-mismatched artifacts.
  static std::unique_ptr<Predictor> load(const std::string &Path,
                                         std::string *Err);
  /// Same, over an already-opened archive (lets callers read extra
  /// chunks of their own, as the CLI does with its corpus recipe).
  static std::unique_ptr<Predictor> load(const ArchiveReader &R,
                                         std::string *Err);

  /// The payload format version save() stamps for *this* predictor: 1
  /// unless a quantized τmap forces the new chunk kinds, so f32 artifacts
  /// stay byte-identical to what version-1 writers produced (the CI
  /// digest-equality checks pin exactly this).
  uint32_t artifactVersion() const;

  /// Writes the complete serving artifact to \p Path. \p U must be the
  /// universe the model's (and τmap's) types were interned in.
  bool save(const std::string &Path, const TypeUniverse &U,
            std::string *Err) const;
  /// Chunk-level variant of save() for callers composing an archive with
  /// extra chunks of their own.
  void writeArtifact(ArchiveWriter &W, const TypeUniverse &U) const;

  /// Predicts candidates for every target of \p File.
  std::vector<PredictionResult> predictFile(const FileExample &File);

  /// The in-memory-source entry point: parses \p Source through
  /// pyfront/, builds the graph against universe(), and predicts. The
  /// CLI's `predict --source` and the serve daemon (through
  /// predictSources) call it; the LSP calls annotateIncremental, which
  /// runs the same build, embed and answer steps — so all three digests
  /// agree by construction. Requires a universe (loaded predictors own
  /// one; live-model predictors get one via setUniverse). Propagates
  /// pyfront parse errors as exceptions, like buildExample does.
  std::vector<PredictionResult> predictSource(const std::string &Path,
                                              const std::string &Source);
  /// Batched predictSource: builds every example, then answers all of
  /// them through one predictBatch call (the daemon's coalesced path).
  /// \returns per-file results, index-aligned with \p Files.
  std::vector<std::vector<PredictionResult>>
  predictSources(const std::vector<CorpusFile> &Files);

  /// The editor loop (one didChange): tombstones \p Path's τmap markers,
  /// re-parses and re-embeds *only this file* (exactly one encoder pass —
  /// embedCalls() observability), answers its targets through the same
  /// answer step predictBatch uses against the updated index, then
  /// re-adds the file's markers tagged with \p Path. Re-adding unchanged
  /// content resurrects the tombstoned rows in place, so the τmap — and
  /// every subsequent prediction — is bit-identical to the pre-edit
  /// state. Applies the CompactRatio policy afterwards. Throws for a
  /// classifier predictor (it has no τmap) and without a universe.
  std::vector<PredictionResult>
  annotateIncremental(const std::string &Path, const std::string &Source);

  /// Tombstones \p Path's markers (the LSP's didClose) and applies the
  /// compaction policy. \returns the number of markers retired.
  size_t removeMarkersForFile(const std::string &Path);
  /// Drops tombstoned rows and rebuilds the index over the live markers;
  /// no-op without tombstones. \returns true when work was done.
  bool compactMarkers();

  /// The batched serving entry point: every file goes through the exact
  /// single-file encoder pass predictFile would make — data-parallel
  /// across files on the thread pool when the encoder allows it — and
  /// all targets of all files are answered through one bulk kNN probe
  /// against the already-loaded τmap, with no per-request setup.
  /// \returns per-file results, index-aligned with \p Files,
  /// bit-identical to calling predictFile on each file by construction
  /// (tests/ServeTest.cpp pins this, incl. the classifier path).
  std::vector<std::vector<PredictionResult>>
  predictBatch(const std::vector<const FileExample *> &Files);

  /// Convenience: predicts over a whole split (through predictBatch, in
  /// bounded chunks — a streamed split decodes at most a window of
  /// shards at a time).
  std::vector<PredictionResult> predictAll(ExampleSource &Files);
  std::vector<PredictionResult>
  predictAll(const std::vector<FileExample> &Files);

  /// Adds a marker to the τmap without retraining — the open-vocabulary
  /// adaptation of Sec. 4.2. The row is appended without rebuilding the
  /// index; queries cover it through the exact delta scan until the next
  /// compaction or rebuild. Throws std::runtime_error on a classifier,
  /// which has no τmap.
  void addMarker(const float *Embedding, TypeRef T);

  bool isKnn() const { return IsKnn; }
  TypeModel &model() { return *Model; }
  /// The universe predictions are interned in: the one a loaded predictor
  /// owns, else whatever setUniverse provided (null for a live-model
  /// predictor that was never given one).
  TypeUniverse *universe() { return OwnedU ? OwnedU.get() : ExternU; }
  /// Points a live-model predictor at the caller-owned universe its types
  /// were interned in, enabling predictSource/annotateIncremental.
  void setUniverse(TypeUniverse &U) { ExternU = &U; }
  /// Encoder passes made so far (one per embedded file) — lets tests pin
  /// that the incremental path re-embeds exactly one file per edit.
  uint64_t embedCalls() const { return EmbedCalls; }
  /// Cumulative wall time spent in the pipeline's embed step / kNN
  /// probe, wherever they run: predictBatch (and everything built on it),
  /// annotateIncremental and the τmap fill. Consumers diff them — the
  /// serve daemon around each batch for its stats breakdown.
  /// Observability only: timing never influences results.
  uint64_t embedMicros() const { return EmbedMicros; }
  uint64_t knnMicros() const { return KnnMicros; }
  const TypeMap &typeMap() const { return *Map; }
  /// The index answering τmap queries (null for classifiers). Its engine
  /// follows KnnOptions::Index, except that an empty map is always served
  /// by the exact scan (see buildIndex).
  const KnnIndex *knnIndex() const { return Index.get(); }
  const KnnOptions &knnOptions() const { return Knn; }
  /// Applies the query-time and policy fields of \p O, rebuilding the
  /// index when the kind changes. The build-time fields (Store,
  /// MaxMarkers) keep describing the map as built.
  void setKnnOptions(const KnnOptions &O);

  /// Quantizes the τmap to \p S and rebuilds the index — the CLI's
  /// `save --tmap-store` path: requantize an f32 artifact without
  /// retraining. No-op when already stored as \p S. \returns false and
  /// sets \p Err for non-kNN predictors or a map already quantized to a
  /// different store (quantization is one-way; start from the f32
  /// artifact).
  bool setMarkerStore(MarkerStore S, std::string *Err);

private:
  explicit Predictor(TypeModel &Model) : Model(&Model) {}
  Predictor() = default;
  void rebuildIndex();
  /// Applies KnnOptions::CompactRatio (compact + rebuild when exceeded).
  void maybeCompact();

  // The one inference pipeline: each step is written once, and every
  // entry point is a sequence of them (docs/ARCHITECTURE.md §5
  // "Prediction" lists which).

  /// Per-file embeddings ([targets, D]; empty for a file without
  /// targets) and the targets they embed, index-aligned with the files.
  struct Embedded {
    std::vector<Tensor> Embs;
    std::vector<std::vector<const Target *>> Targets;
  };
  /// Parses and builds each source against universe(); throws when there
  /// is none.
  std::vector<FileExample> buildExamples(const std::vector<CorpusFile> &Files);
  /// One single-file encoder pass per file, in inference mode; counts
  /// EmbedCalls and EmbedMicros.
  Embedded embed(const std::vector<const FileExample *> &Files);
  /// Candidates for every embedded target: one kNN probe (timed into
  /// KnnMicros) and Eq. 5, or the classifier's softmax top ten.
  std::vector<std::vector<PredictionResult>>
  answer(const std::vector<const FileExample *> &Files, const Embedded &E);
  /// Adds one file's embedded targets as τmap markers tagged with \p Path.
  void addFileMarkers(const std::string &Path, const Tensor &Emb,
                      const std::vector<const Target *> &Targets);

  // Declared first so loaded models/maps (whose TypeRefs point into it)
  // are destroyed before the universe goes away.
  std::unique_ptr<TypeUniverse> OwnedU;
  std::unique_ptr<TypeModel> OwnedModel;
  TypeUniverse *ExternU = nullptr;
  TypeModel *Model = nullptr;
  bool IsKnn = false;
  KnnOptions Knn;
  std::unique_ptr<TypeMap> Map;
  std::unique_ptr<KnnIndex> Index;
  uint64_t EmbedCalls = 0;
  uint64_t EmbedMicros = 0;
  uint64_t KnnMicros = 0;
};

/// FNV-1a over the full prediction set: file paths, target indexes, and
/// every candidate's type spelling + probability *bit pattern*.
/// Predictions are bit-identical across processes and thread counts, so
/// so is the digest — the CLI, the serving daemon and CI all compare
/// serving paths through this one function.
uint64_t predictionDigest(const std::vector<PredictionResult> &Preds);

} // namespace typilus

#endif // TYPILUS_CORE_PREDICTOR_H
