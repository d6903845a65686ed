//===- knn/TypeMap.h - The τmap: type markers in the TypeSpace ----*- C++ -*-===//
//
// Part of the Typilus C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The adaptive type map of Sec. 4.2: a store of (type embedding, type)
/// markers. Predictions are kNN lookups scored by Eq. 5. Because the map is
/// data, not model weights, previously unseen types can be added without
/// retraining — the key open-vocabulary property of Typilus.
///
/// Every marker is one fixed-size encoded row of a single coordinate
/// buffer. The store picks the row encoding: exact f32, IEEE binary16
/// (half the bytes, ~1e-3 relative rounding) or int8 codes behind one f32
/// scale per marker (about a quarter of the bytes). MarkerCodec is the
/// only code that knows those layouts: it encodes f32 rows, decodes a row
/// or one coordinate, and computes L1 distances through the runtime SIMD
/// kernel table (nn/Simd.h) without materialising a decoded copy. The rest
/// of the map hashes, compares and moves rows as plain bytes. Only the
/// snapshot (save/load) looks at the store again, because each store keeps
/// its historical byte stream and its own artifact chunk tag.
/// `quantize` converts a freshly built f32 map; `subsampleCoreset` bounds
/// the marker count first while keeping every type represented.
///
/// Queries go through one interface, KnnIndex, with three engines behind
/// it: the blocked exact scan, an Annoy-style kd-forest (the paper's
/// index) and a deterministic HNSW graph. All rank under one (distance,
/// index) order, skip tombstones, and cover rows appended after the build
/// with an exact delta scan; `buildIndex` / `loadIndex` alone map an index
/// kind to its engine, artifact chunk and build constants. Construction
/// and bulk queries dispatch through the process-wide ThreadPool, with
/// answers independent of the thread count.
///
/// The map is also *mutable* for the editor loop: markers may carry a file
/// tag, `removeMarkersForFile` tombstones a file's rows in place (queries
/// skip them), and re-adding an identical row resurrects the tombstone
/// rather than appending — so remove→re-add of unchanged content restores
/// the exact marker layout and every downstream prediction bit. `compact`
/// drops the dead rows (preserving live order) once the tombstone ratio
/// warrants paying for an index rebuild. Tags and tombstones are in-memory
/// session state only: they are never serialized, and `save` requires a
/// compacted map, so artifact bytes are unchanged by this machinery.
///
//===----------------------------------------------------------------------===//

#ifndef TYPILUS_KNN_TYPEMAP_H
#define TYPILUS_KNN_TYPEMAP_H

#include "support/Archive.h"
#include "support/Rng.h"
#include "typesys/Type.h"

#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace typilus {

namespace nn::simd {
struct KernelTable;
} // namespace nn::simd

/// How marker embeddings are stored. F32 is the exact representation the
/// trainer produces; F16 and Int8 (one f32 scale per marker) trade
/// per-coordinate precision for 2x/4x smaller artifacts and faster scans.
/// The numeric values are the serialized artifact encoding — append only.
enum class MarkerStore : uint8_t { F32 = 0, F16 = 1, Int8 = 2 };

/// "f32" | "f16" | "int8" (CLI flags, `inspect` output, bench labels).
const char *markerStoreName(MarkerStore S);
/// Parses markerStoreName()'s strings; \returns false on anything else.
bool parseMarkerStore(std::string_view Name, MarkerStore *Out);

/// The row layout of one store at dimension D:
///   f32  — D floats;
///   f16  — D binary16 bit patterns (software round-to-nearest-even
///          encode, so the bytes do not depend on the host);
///   int8 — one f32 scale, then D codes; coordinate k is scale · code k.
class MarkerCodec {
public:
  MarkerCodec(MarkerStore Store, int Dim);

  MarkerStore store() const { return Store; }
  int dim() const { return D; }
  size_t rowBytes() const { return RowBytes; }

  /// Encodes the f32 embedding \p Src (length dim()) into \p Row.
  void encode(const float *Src, unsigned char *Row) const;
  /// Decodes \p Row into \p Out (length dim()).
  void decode(const unsigned char *Row, float *Out) const;
  /// Coordinate \p K of \p Row, decoded.
  float coord(const unsigned char *Row, int K) const;
  /// L1 distance from the f32 query \p Q to \p Row, through \p KT's entry
  /// for the store.
  float l1(const nn::simd::KernelTable &KT, const float *Q,
           const unsigned char *Row) const;
  /// False when \p Row decodes to a NaN or an infinite coordinate.
  bool finite(const unsigned char *Row) const;

  /// An int8 row's scale and codes: the two runs an int8 snapshot stores
  /// apart.
  static float int8Scale(const unsigned char *Row);
  static void setInt8Scale(unsigned char *Row, float Scale);
  static int8_t *int8Codes(unsigned char *Row) {
    return reinterpret_cast<int8_t *>(Row + sizeof(float));
  }
  static const int8_t *int8Codes(const unsigned char *Row) {
    return reinterpret_cast<const int8_t *>(Row + sizeof(float));
  }

private:
  MarkerStore Store;
  int D;
  size_t RowBytes;
};

/// A store of D-dimensional type markers.
class TypeMap {
public:
  explicit TypeMap(int Dim) : Codec(MarkerStore::F32, Dim) {}

  /// Pre-allocates room for \p TotalMarkers markers *in total* (bulk
  /// fills). Total, not incremental: calling it twice with the same bound
  /// is idempotent instead of doubling the reservation.
  void reserve(size_t TotalMarkers) {
    Coords.reserve(TotalMarkers * Codec.rowBytes());
    Types.reserve(TotalMarkers);
    FileOf.reserve(TotalMarkers);
    Dead.reserve(TotalMarkers);
  }

  /// Markers the current reservation can hold (reserve() observability).
  size_t reservedMarkers() const { return Types.capacity(); }

  /// Adds a marker for \p T at \p Embedding (length D, f32; quantized
  /// stores encode it on the way in) — unless an identical stored
  /// (embedding, type) marker already exists, in which case the duplicate
  /// is dropped: it could never change a kNN answer's type mix, only
  /// crowd real neighbours out of the candidate list (the first step of
  /// τmap compaction; duplicates are common because generated and copied
  /// code embeds identically). On quantized stores the comparison is over
  /// the *encoded* row, so markers that collide after rounding also
  /// collapse. \returns true when the marker was actually added.
  bool add(const float *Embedding, TypeRef T);

  /// Like add(), but tags the marker as owned by \p FileTag so it can be
  /// tombstoned later via removeMarkersForFile(). Ownership is
  /// first-writer: a row deduplicated against an existing live marker
  /// keeps its original tag (or stays untagged). When the identical row
  /// exists but is *tombstoned*, the tombstone is cleared in place and the
  /// row re-tagged to \p FileTag — the marker layout, order and bytes are
  /// exactly what they were before the removal, which is what makes
  /// remove→re-add of unchanged content bit-identical end to end.
  bool add(const float *Embedding, TypeRef T, std::string_view FileTag);

  /// Duplicates dropped by add() so far (compaction observability).
  size_t droppedDuplicates() const { return Dropped; }

  /// Tombstones every live marker tagged \p FileTag. Tombstoned rows keep
  /// their storage (indices stay stable; queries skip them) until
  /// compact(). \returns the number of rows tombstoned.
  size_t removeMarkersForFile(std::string_view FileTag);

  /// Live marker rows tagged \p FileTag, ascending.
  std::vector<int> markersForFile(std::string_view FileTag) const;

  /// File tag of marker \p I; empty when untagged.
  std::string_view fileTag(size_t I) const;

  /// False iff marker \p I is tombstoned.
  bool isLive(size_t I) const { return !Dead[I]; }
  /// Markers that are not tombstoned (size() counts tombstones too).
  size_t liveSize() const { return Types.size() - NumDead; }
  /// Tombstoned rows currently held (compaction-policy observability).
  size_t deadMarkers() const { return NumDead; }
  /// Fraction of rows that are tombstones (0 for an empty map).
  double tombstoneRatio() const {
    return Types.empty()
               ? 0.0
               : static_cast<double>(NumDead) /
                     static_cast<double>(Types.size());
  }

  /// Drops tombstoned rows, preserving live-marker order. Indices shift,
  /// so any index built over the map must be rebuilt afterwards. \returns
  /// true when rows were actually dropped. A tombstone-free compacted map
  /// is byte-identical to one built fresh from the same live rows.
  bool compact();

  size_t size() const { return Types.size(); }
  int dim() const { return Codec.dim(); }
  MarkerStore store() const { return Codec.store(); }
  /// The row layout of store() (index inner loops scan rows through it).
  const MarkerCodec &codec() const { return Codec; }
  /// Bytes held by the marker coordinate buffer (artifact sizing).
  size_t storageBytes() const { return Coords.size(); }

  /// Encoded row \p I: codec().rowBytes() bytes.
  const unsigned char *row(size_t I) const {
    return Coords.data() + I * Codec.rowBytes();
  }
  /// Direct row access — F32 store only (the trainer-side fast path).
  const float *embedding(size_t I) const {
    assert(store() == MarkerStore::F32 && "embedding() reads f32 rows");
    return reinterpret_cast<const float *>(row(I));
  }
  /// Coordinate \p Dim of marker \p I, decoded from whatever store holds
  /// it (index construction probes single coordinates).
  float coord(size_t I, int Dim) const { return Codec.coord(row(I), Dim); }
  /// Decodes marker \p I into \p Out (length D).
  void decodeEmbedding(size_t I, float *Out) const {
    Codec.decode(row(I), Out);
  }
  /// L1 distance from f32 query \p Q to marker \p I, computed over the
  /// stored representation by the active SIMD kernel table — quantized
  /// rows are never materialised as f32.
  float l1DistanceTo(const float *Q, size_t I) const;
  TypeRef type(size_t I) const { return Types[I]; }

  /// Converts an F32 map to \p NewStore in place (no-op when already
  /// there). Quantization is a one-way, whole-map step taken after the
  /// map is filled and subsampled, before the index is built; the f16
  /// encoder is the software round-to-nearest-even path, so the encoded
  /// bytes are host-independent.
  void quantize(MarkerStore NewStore);

  /// Caps the map at \p MaxMarkers markers (F32 store only; a no-op when
  /// already within the bound or \p MaxMarkers is 0 = unlimited). Budget
  /// is split over the types present — every type keeps at least one
  /// marker while the budget allows, extra slots go proportionally to
  /// marker-rich types — and within a type markers are chosen by greedy
  /// k-center (farthest-point) under L1, so the survivors spread over the
  /// type's region of the TypeSpace instead of clumping. Deterministic:
  /// types are processed in first-occurrence order and survivors keep
  /// their relative order. \returns the new size.
  size_t subsampleCoreset(size_t MaxMarkers);

  /// Tag of the artifact chunk holding the snapshot. It names the store,
  /// so a reader knows the payload layout before parsing it: "tmap" (f32,
  /// the original stream), "tm16" (f16) or "tmq8" (int8).
  const char *chunkTag() const;
  /// The artifact format version that introduced chunkTag()'s chunk: 1
  /// for f32, 2 for the quantized stores.
  uint32_t formatVersion() const;
  /// Appends dim + every marker (stored-format coordinates, dense
  /// type-table index) to the open chunk, in store()'s historical layout:
  /// f32 and f16 write their rows as one array, int8 writes every scale
  /// and then every row's codes. File tags and tombstones are session
  /// state and are never written — compact() first; saving a map with
  /// tombstones is a programming error.
  void save(ArchiveWriter &W, const std::map<TypeRef, int> &TypeIds) const;
  /// Replaces *this with the snapshot in \p R's τmap chunk, whichever
  /// store's tag it carries; \p ById is the loaded type table. A snapshot
  /// with a NaN or infinite coordinate is rejected.
  bool load(const ArchiveReader &R, const std::vector<TypeRef> &ById,
            std::string *Err);

private:
  /// Marker indices by row-bytes+type hash; collisions resolved by full
  /// comparison (findRow). Built lazily: a loaded snapshot leaves it
  /// stale (serving processes never insert, so they never pay for it)
  /// and the first add() after load re-keys it over the loaded markers.
  std::unordered_map<uint64_t, std::vector<int>> DedupIndex;
  bool DedupIndexStale = false;

  unsigned char *row(size_t I) { return Coords.data() + I * Codec.rowBytes(); }
  /// FNV-1a over an encoded row's bytes mixed with the interned type
  /// pointer (stable within a process, which is all the index needs).
  uint64_t rowHash(const unsigned char *Row, TypeRef T) const;
  /// The first marker of \p Bucket whose type is \p T and whose row bytes
  /// equal \p Row; -1 when there is none.
  int findRow(const std::vector<int> &Bucket, const unsigned char *Row,
              TypeRef T) const;
  void rebuildDedupIndex();

  /// Interns \p FileTag into FileTags/FileIdOf; -1 for an empty tag.
  int fileIdFor(std::string_view FileTag);
  /// Registers live row \p I under file id \p FileId (sorted insert).
  void tagRow(size_t I, int FileId);
  /// Rebuilds RowsOfFile from FileOf after rows moved.
  void reindexFiles();

  MarkerCodec Codec;
  /// size() rows of Codec.rowBytes() bytes. The allocation is aligned for
  /// any scalar and f32/f16 rows are whole multiples of their cell, so a
  /// row is read through its store's cell type; everything else touches
  /// rows only as bytes (memcpy/memcmp), and int8 scales are memcpy'd.
  std::vector<unsigned char> Coords;
  std::vector<TypeRef> Types;
  std::vector<int32_t> FileOf;    ///< Owning file id per marker; -1 none.
  std::vector<char> Dead;         ///< 1 = tombstoned (queries skip it).
  size_t NumDead = 0;
  std::vector<std::string> FileTags;            ///< Interned tag strings.
  std::unordered_map<std::string, int> FileIdOf;
  /// Live rows per file id, ascending (removeMarkersForFile's worklist).
  std::unordered_map<int, std::vector<int>> RowsOfFile;
  size_t Dropped = 0;
};

/// (marker index, L1 distance) pairs, ascending by distance.
using NeighborList = std::vector<std::pair<int, float>>;

/// A scored candidate type.
struct ScoredType {
  TypeRef Type = nullptr;
  double Prob = 0;
};

/// Eq. 5: P(s : τ) = (1/Z) Σ_i I(τ_i = τ) d_i^{-p} over the neighbours.
/// Returns candidates sorted by descending probability. Single pass over
/// the neighbour list, accumulating into a small flat map (k is ~10, the
/// distinct-type count smaller still).
std::vector<ScoredType> scoreNeighbors(const TypeMap &Map,
                                       const NeighborList &Neighbors,
                                       double P);

/// Which index answers τmap queries. The numeric values are the
/// serialized pred-chunk encoding (the byte that historically held the
/// UseAnnoy bool, so exact/Annoy artifacts keep identical bytes) —
/// append only.
enum class KnnIndexKind : uint8_t { Exact = 0, Annoy = 1, Hnsw = 2 };

/// "exact" | "annoy" | "hnsw" (CLI flags, `inspect` output, bench labels).
const char *knnIndexName(KnnIndexKind K);
/// Parses knnIndexName()'s strings; \returns false on anything else.
bool parseKnnIndexKind(std::string_view Name, KnnIndexKind *Out);

/// The one neighbour order every index agrees on: (distance, index)
/// ascending — a *total* order (indices are distinct), so the top-k set
/// and its sorted layout are uniquely determined however they were
/// selected. That is what makes the blocked bounded-heap scan
/// bit-identical to a full sort, and the delta merge bit-identical to a
/// rebuilt index.
inline bool neighborLess(const std::pair<int, float> &A,
                         const std::pair<int, float> &B) {
  if (A.second != B.second)
    return A.second < B.second;
  return A.first < B.first;
}

/// A kNN index over one TypeMap (which must outlive it).
class KnnIndex {
public:
  virtual ~KnnIndex() = default;
  KnnIndex(const KnnIndex &) = delete;
  KnnIndex &operator=(const KnnIndex &) = delete;

  /// Answers \p NumQueries queries (rows of \p Qs, stride dim()): each
  /// result is the \p K nearest *live* markers of the whole map under
  /// neighborLess. The engine answers over the rows it was built on; rows
  /// appended since are covered by an exact scan merged under the same
  /// order, until the next rebuild. \p Budget is the per-request
  /// query-time budget (HNSW's layer-0 beam width; <= 0 = the index
  /// default; the other engines ignore it). \p MaxWays > 0 caps the
  /// parallelism. One virtual call per batch.
  std::vector<NeighborList> queryBatch(const float *Qs, int64_t NumQueries,
                                       int K, int Budget = 0,
                                       int MaxWays = 0) const;
  /// queryBatch for a single query, run serially.
  NeighborList query(const float *Q, int K, int Budget = 0) const;

  /// Markers the index was built (or loaded) over; queryBatch scans rows
  /// [indexedMarkers(), map size) exactly.
  virtual size_t indexedMarkers() const { return NumIndexed; }

  /// Tag of the artifact chunk holding this index's snapshot, so serving
  /// processes skip the rebuild; null when there is none to ship.
  virtual const char *chunkTag() const { return nullptr; }
  /// The artifact format version that introduced chunkTag()'s chunk (1 for
  /// chunks that predate versioning, and for no chunk).
  virtual uint32_t formatVersion() const { return 1; }
  /// Appends the snapshot to the open chunk (only called with a tag).
  virtual void save(ArchiveWriter &) const {}

protected:
  explicit KnnIndex(const TypeMap &Map) : Map(Map), NumIndexed(Map.size()) {}

  /// The engine: the \p K nearest live markers among the indexed rows.
  virtual std::vector<NeighborList> queryIndexed(const float *Qs,
                                                 int64_t NumQueries, int K,
                                                 int Budget,
                                                 int MaxWays) const = 0;

  const TypeMap &Map;
  size_t NumIndexed;
};

/// Builds the serving index of \p Kind over \p Map (Annoy: 8 trees, leaf
/// 16, seed 0xA220; HNSW: M=16, efConstruction=128, seed 0x45317). An
/// empty map gets the exact scan whatever the kind: there is nothing to
/// index, rows added later are scanned exactly, and artifacts carry no
/// index chunk. \p MaxWays > 0 caps the build parallelism.
std::unique_ptr<KnnIndex> buildIndex(KnnIndexKind Kind, const TypeMap &Map,
                                     int MaxWays = 0);

/// Loads the index of \p Kind saved alongside \p Map in \p R. Reads only
/// that kind's snapshot chunk and rejects an index chunk of another kind;
/// the chunk may be absent only when the map is empty (see buildIndex).
/// \returns null and sets \p Err on failure.
std::unique_ptr<KnnIndex> loadIndex(KnnIndexKind Kind, const ArchiveReader &R,
                                    const TypeMap &Map, std::string *Err);

/// Exact L1 k-nearest-neighbour scan (the reference the approximate
/// indexes are validated against). The engine is a cache-blocked
/// query×marker tiled scan: each marker tile is streamed once through
/// every query of a query block, each query keeps a fixed-size bounded
/// max-heap of the best k seen so far (no O(N) allocation per query),
/// and the tile bodies measure each encoded row through the map's codec
/// and the active SIMD kernel table, fetched once per block. Batches are
/// partitioned in tile-sized grains with per-chunk reusable scratch.
class ExactIndex : public KnnIndex {
public:
  explicit ExactIndex(const TypeMap &Map) : KnnIndex(Map) {}

  /// The scan covers every row of the map, so there is never a delta.
  size_t indexedMarkers() const override { return Map.size(); }

private:
  std::vector<NeighborList> queryIndexed(const float *Qs, int64_t NumQueries,
                                         int K, int Budget,
                                         int MaxWays) const override;
  /// Blocked engine over queries [QBegin, QEnd) of \p Qs. \p Heaps is
  /// caller-owned scratch (one bounded heap per query of the block),
  /// reused across blocks by queryIndexed.
  void queryBlock(const float *Qs, int64_t QBegin, int64_t QEnd, int K,
                  std::vector<NeighborList> &Heaps,
                  std::vector<NeighborList> &Results) const;
};

/// An Annoy-style randomised kd-forest for L1 distance: each tree splits on
/// the coordinate of largest spread between two random markers; queries
/// descend all trees best-first, inspect NumTrees·K·4 candidates (Annoy's
/// heuristic) and exactly re-rank them. Trees are seeded independently
/// (derived from \p Seed per tree) and built one pool task per tree, so
/// the forest does not depend on thread count.
class AnnoyIndex : public KnnIndex {
public:
  /// \p MaxWays > 0 caps the build parallelism (1 = fully serial).
  AnnoyIndex(const TypeMap &Map, int NumTrees = 8, int LeafSize = 16,
             uint64_t Seed = 0xA220, int MaxWays = 0);

  static constexpr const char *ChunkTag = "anny";
  const char *chunkTag() const override { return ChunkTag; }
  /// Appends the built forest (leaf size, nodes, roots).
  void save(ArchiveWriter &W) const override;
  /// Reconstructs a forest written by save() over \p Map (which must be
  /// the snapshot saved alongside it). Queries on the loaded forest are
  /// bit-identical to queries on the original.
  static std::unique_ptr<AnnoyIndex> load(ArchiveCursor &C,
                                          const TypeMap &Map,
                                          std::string *Err);

private:
  /// Deserialization shell; load() fills the trees in. (Tagged so it does
  /// not collide with the building constructor's defaulted arguments.)
  struct LoadShellTag {};
  AnnoyIndex(const TypeMap &Map, LoadShellTag) : KnnIndex(Map), LeafSize(0) {}

  struct BuildNode {
    int SplitDim = -1;
    float Threshold = 0;
    int Left = -1, Right = -1;
    std::vector<int> Items; ///< Leaf payload.
  };
  /// Builds one subtree into \p Out; returns its index therein.
  int buildTree(std::vector<BuildNode> &Out, std::vector<int> Items, Rng &R,
                int Depth) const;
  /// Reusable probe state, one per queryIndexed chunk: the traversal heap,
  /// the candidate buffer, a generation-stamped seen-array (no O(N) clear
  /// per query) and the re-rank buffer.
  struct ProbeScratch {
    std::vector<std::pair<float, int>> Heap;
    std::vector<int> Candidates;
    std::vector<uint32_t> SeenAt;
    uint32_t Generation = 0;
    NeighborList Scored;
  };

  std::vector<NeighborList> queryIndexed(const float *Qs, int64_t NumQueries,
                                         int K, int Budget,
                                         int MaxWays) const override;
  NeighborList queryOne(const float *Q, int K, ProbeScratch &S) const;

  int LeafSize;
  std::vector<BuildNode> Nodes;
  std::vector<int> Roots;
};

/// A deterministic HNSW (hierarchical navigable small-world) graph for L1
/// distance. Level assignment is a pure function of (Seed, row index),
/// rows are inserted in row order, and every selection step (beam
/// updates, neighbour pruning, tie-breaks) is sequential under the
/// (distance, index) order — candidate *distances* are evaluated in
/// parallel through the pool, but distances are bit-identical for any
/// thread count, so the built graph and every query answer are a
/// function of (Map, Seed) alone. Query cost is O(ef · M · log N)
/// distance evaluations — sublinear in marker count — with the query
/// Budget (EfSearch) as the per-request latency/recall knob: the
/// layer-0 beam width, defaulting to max(4·K, 64) and clamped to >= K.
/// Tombstoned rows keep routing through the graph but never surface as
/// results.
class HnswIndex : public KnnIndex {
public:
  /// \p M: max links per node per upper layer (layer 0 keeps 2M);
  /// \p EfConstruction: insertion beam width; \p MaxWays > 0 caps the
  /// build-time distance-evaluation parallelism (1 = fully serial).
  HnswIndex(const TypeMap &Map, int M = 16, int EfConstruction = 128,
            uint64_t Seed = 0x45317, int MaxWays = 0);

  int m() const { return M; }
  int efConstruction() const { return EfConstruction; }

  static constexpr const char *ChunkTag = "hnsw";
  const char *chunkTag() const override { return ChunkTag; }
  uint32_t formatVersion() const override { return 3; }
  /// Appends the built graph (params, entry point, per-node levels and
  /// adjacency).
  void save(ArchiveWriter &W) const override;
  /// Reconstructs a graph written by save() over \p Map (which must be
  /// the snapshot saved alongside it). Queries on the loaded graph are
  /// bit-identical to queries on the original.
  static std::unique_ptr<HnswIndex> load(ArchiveCursor &C, const TypeMap &Map,
                                         std::string *Err);

private:
  struct LoadShellTag {};
  HnswIndex(const TypeMap &Map, LoadShellTag) : KnnIndex(Map) {}

  struct Node {
    int Level = 0;
    /// Links[L]: neighbour row indices at layer L, 0 <= L <= Level.
    std::vector<std::vector<int>> Links;
  };

  /// Reusable per-query search state (epoch-marked visited array: no
  /// O(N) clear per query).
  struct SearchScratch {
    std::vector<uint32_t> VisitedAt;
    uint32_t Epoch = 0;
    std::vector<int> Frontier;    ///< Unvisited neighbours this round.
    std::vector<float> FrontierD; ///< Their distances (parallel eval).
  };

  std::vector<NeighborList> queryIndexed(const float *Qs, int64_t NumQueries,
                                         int K, int EfSearch,
                                         int MaxWays) const override;
  /// Beam search at \p Layer from entry point \p Ep: the best \p Ef
  /// (distance, index) pairs, ascending.
  void searchLayer(const float *Q, int Ep, float EpDist, int Ef, int Layer,
                   SearchScratch &S,
                   std::vector<std::pair<float, int>> &Out) const;
  /// Greedy descent at \p Layer (ef = 1).
  void descendLayer(const float *Q, int &Ep, float &EpDist, int Layer) const;
  /// Distances from \p Q to \p Ids through the pool (MaxWays-capped).
  void distanceMany(const float *Q, const int *Ids, size_t N,
                    float *Out) const;
  void insert(size_t I, const float *Coords, SearchScratch &S);
  /// Prunes node \p NodeId's layer-\p Layer links to the \p MaxLinks
  /// closest under (distance, index). \p Decode is reusable scratch for
  /// the node's own coordinates.
  void shrinkLinks(int NodeId, int Layer, int MaxLinks,
                   std::vector<float> &Decode);
  /// One query with caller-owned scratch (queryIndexed reuses it per
  /// chunk).
  NeighborList queryWithScratch(const float *Q, int K, int EfSearch,
                                SearchScratch &S) const;
  /// Seeded geometric level for row \p I — pure in (Seed, I).
  int levelFor(size_t I) const;

  int M = 16;
  int EfConstruction = 128;
  uint64_t Seed = 0x45317;
  int MaxWays = 0;
  int EntryPoint = -1;
  int MaxLevel = -1;
  std::vector<Node> Nodes;
};

} // namespace typilus

#endif // TYPILUS_KNN_TYPEMAP_H
