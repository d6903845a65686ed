//===- support/Archive.cpp - Versioned binary artifact format ----------------===//

#include "support/Archive.h"

#include <cassert>
#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

using namespace typilus;

/// Container framing version: bump only when the byte layout of the
/// header/chunk framing itself changes (payload meaning changes bump the
/// writer-supplied format version instead).
static constexpr uint32_t kContainerVersion = 1;

uint32_t typilus::crc32(const void *Data, size_t Size) {
  // Bitwise CRC32 (reflected, poly 0xEDB88320) with a lazily built table.
  static const auto Table = [] {
    std::vector<uint32_t> T(256);
    for (uint32_t I = 0; I != 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K != 8; ++K)
        C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
      T[I] = C;
    }
    return T;
  }();
  uint32_t Crc = 0xFFFFFFFFu;
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  for (size_t I = 0; I != Size; ++I)
    Crc = Table[(Crc ^ P[I]) & 0xFF] ^ (Crc >> 8);
  return Crc ^ 0xFFFFFFFFu;
}

//===----------------------------------------------------------------------===//
// Little-endian primitives
//===----------------------------------------------------------------------===//

static void putU32(std::string &Out, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
}

static void putU64(std::string &Out, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
}

/// The format is little-endian; on (the overwhelmingly common) LE hosts
/// float runs can be copied wholesale instead of element by element.
static bool hostIsLittleEndian() {
  uint32_t Probe = 1;
  unsigned char First;
  std::memcpy(&First, &Probe, 1);
  return First == 1;
}

//===----------------------------------------------------------------------===//
// ArchiveWriter
//===----------------------------------------------------------------------===//

ArchiveWriter::ArchiveWriter(uint32_t FormatVersion, const char *Magic) {
  assert(std::strlen(Magic) == 4 && "archive magic is exactly 4 characters");
  Buf.append(Magic, 4);
  putU32(Buf, kContainerVersion);
  putU32(Buf, FormatVersion);
}

void ArchiveWriter::beginChunk(const char *Tag) {
  assert(!InChunk && "chunks cannot nest");
  assert(std::strlen(Tag) == 4 && "chunk tags are exactly 4 characters");
  Buf.append(Tag, 4);
  InChunk = true;
  ChunkBuf.clear();
}

void ArchiveWriter::endChunk() {
  assert(InChunk && "endChunk without beginChunk");
  putU64(Buf, ChunkBuf.size());
  Buf.append(ChunkBuf);
  putU32(Buf, crc32(ChunkBuf.data(), ChunkBuf.size()));
  InChunk = false;
  ChunkBuf.clear();
}

void ArchiveWriter::writeU8(uint8_t V) {
  assert(InChunk && "writes go inside a chunk");
  ChunkBuf.push_back(static_cast<char>(V));
}

void ArchiveWriter::writeU32(uint32_t V) {
  assert(InChunk && "writes go inside a chunk");
  putU32(ChunkBuf, V);
}

void ArchiveWriter::writeU64(uint64_t V) {
  assert(InChunk && "writes go inside a chunk");
  putU64(ChunkBuf, V);
}

void ArchiveWriter::writeF32(float V) {
  uint32_t Bits;
  std::memcpy(&Bits, &V, 4);
  writeU32(Bits);
}

void ArchiveWriter::writeF64(double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, 8);
  writeU64(Bits);
}

void ArchiveWriter::writeStr(std::string_view S) {
  writeU64(S.size());
  assert(InChunk);
  ChunkBuf.append(S.data(), S.size());
}

void ArchiveWriter::writeF32Array(const float *Data, size_t N) {
  // The parm/tmap chunks are megabytes of raw f32 — the bulk of every
  // artifact — so this is the save-throughput hot path.
  if (hostIsLittleEndian()) {
    assert(InChunk && "writes go inside a chunk");
    ChunkBuf.append(reinterpret_cast<const char *>(Data), N * 4);
    return;
  }
  for (size_t I = 0; I != N; ++I)
    writeF32(Data[I]);
}

void ArchiveWriter::writeU16Array(const uint16_t *Data, size_t N) {
  // Same hot path as writeF32Array — the f16 marker store is half of a
  // quantized artifact's bytes.
  if (hostIsLittleEndian()) {
    assert(InChunk && "writes go inside a chunk");
    ChunkBuf.append(reinterpret_cast<const char *>(Data), N * 2);
    return;
  }
  assert(InChunk && "writes go inside a chunk");
  for (size_t I = 0; I != N; ++I) {
    ChunkBuf.push_back(static_cast<char>(Data[I] & 0xFF));
    ChunkBuf.push_back(static_cast<char>((Data[I] >> 8) & 0xFF));
  }
}

void ArchiveWriter::writeI32Array(const int32_t *Data, size_t N) {
  // The kNN index snapshots (Annoy leaf items, HNSW adjacency) are long
  // i32 runs; bulk-append on LE hosts like the f32/u16 marker arrays.
  if (hostIsLittleEndian()) {
    assert(InChunk && "writes go inside a chunk");
    ChunkBuf.append(reinterpret_cast<const char *>(Data), N * 4);
    return;
  }
  for (size_t I = 0; I != N; ++I)
    writeI32(Data[I]);
}

void ArchiveWriter::writeBytes(const void *Data, size_t N) {
  assert(InChunk && "writes go inside a chunk");
  ChunkBuf.append(static_cast<const char *>(Data), N);
}

const std::string &ArchiveWriter::bytes() const {
  assert(!InChunk && "finish the open chunk before reading bytes()");
  return Buf;
}

bool ArchiveWriter::writeFile(const std::string &Path,
                              std::string *Err) const {
  assert(!InChunk && "finish the open chunk before writeFile");
  // Write to a sibling temp file and rename over the target, so a crash
  // mid-write never destroys the previous good artifact — checkpoints
  // overwrite the same path after every epoch and must survive exactly
  // the interruptions they exist for.
  std::string Tmp = Path + ".tmp";
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F) {
    if (Err)
      *Err = "cannot open '" + Tmp + "' for writing";
    return false;
  }
  bool Ok = std::fwrite(Buf.data(), 1, Buf.size(), F) == Buf.size();
#if defined(__unix__) || defined(__APPLE__)
  // The rename only makes the replacement atomic if the temp file's data
  // reached disk first; without the fsync a power loss right after the
  // rename leaves the path pointing at garbage AND the old file gone.
  Ok = std::fflush(F) == 0 && fsync(fileno(F)) == 0 && Ok;
#endif
  Ok = std::fclose(F) == 0 && Ok;
  if (!Ok) {
    std::remove(Tmp.c_str());
    if (Err)
      *Err = "short write to '" + Tmp + "'";
    return false;
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    if (Err)
      *Err = "cannot replace '" + Path + "'";
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// ArchiveCursor
//===----------------------------------------------------------------------===//

bool ArchiveCursor::take(void *Out, size_t N) {
  // An empty run may come with a null Out (an empty vector's data()),
  // which memcpy/memset must never see.
  if (N == 0)
    return !Failed;
  if (Failed || End - Pos < N) {
    Failed = true;
    std::memset(Out, 0, N);
    return false;
  }
  std::memcpy(Out, Data + Pos, N);
  Pos += N;
  return true;
}

uint8_t ArchiveCursor::readU8() {
  uint8_t V = 0;
  take(&V, 1);
  return V;
}

uint32_t ArchiveCursor::readU32() {
  uint8_t B[4] = {};
  take(B, 4);
  return static_cast<uint32_t>(B[0]) | static_cast<uint32_t>(B[1]) << 8 |
         static_cast<uint32_t>(B[2]) << 16 | static_cast<uint32_t>(B[3]) << 24;
}

uint64_t ArchiveCursor::readU64() {
  uint64_t V = 0;
  uint8_t B[8] = {};
  take(B, 8);
  for (int I = 7; I >= 0; --I)
    V = (V << 8) | B[I];
  return V;
}

float ArchiveCursor::readF32() {
  uint32_t Bits = readU32();
  float V;
  std::memcpy(&V, &Bits, 4);
  return V;
}

double ArchiveCursor::readF64() {
  uint64_t Bits = readU64();
  double V;
  std::memcpy(&V, &Bits, 8);
  return V;
}

std::string ArchiveCursor::readStr() {
  uint64_t N = readU64();
  if (Failed || End - Pos < N) {
    Failed = true;
    return {};
  }
  std::string S(reinterpret_cast<const char *>(Data + Pos),
                static_cast<size_t>(N));
  Pos += static_cast<size_t>(N);
  return S;
}

void ArchiveCursor::readF32Array(float *Out, size_t N) {
  if (hostIsLittleEndian()) {
    take(Out, N * 4); // one bounds-checked bulk copy (load hot path)
    return;
  }
  for (size_t I = 0; I != N; ++I)
    Out[I] = readF32();
}

void ArchiveCursor::readU16Array(uint16_t *Out, size_t N) {
  if (hostIsLittleEndian()) {
    take(Out, N * 2); // one bounds-checked bulk copy (load hot path)
    return;
  }
  for (size_t I = 0; I != N; ++I) {
    uint8_t B[2] = {};
    take(B, 2);
    Out[I] = static_cast<uint16_t>(B[0] | (B[1] << 8));
  }
}

void ArchiveCursor::readI32Array(int32_t *Out, size_t N) {
  if (hostIsLittleEndian()) {
    take(Out, N * 4); // one bounds-checked bulk copy (load hot path)
    return;
  }
  for (size_t I = 0; I != N; ++I)
    Out[I] = readI32();
}

void ArchiveCursor::readBytes(void *Out, size_t N) { take(Out, N); }

//===----------------------------------------------------------------------===//
// ArchiveReader
//===----------------------------------------------------------------------===//

bool ArchiveReader::openFile(const std::string &Path, std::string *Err,
                             const char *Magic) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    if (Err)
      *Err = "cannot open '" + Path + "' for reading";
    return false;
  }
  std::string Bytes;
  char Tmp[1 << 16];
  size_t N;
  while ((N = std::fread(Tmp, 1, sizeof(Tmp), F)) > 0)
    Bytes.append(Tmp, N);
  bool ReadOk = !std::ferror(F);
  std::fclose(F);
  if (!ReadOk) {
    if (Err)
      *Err = "read error on '" + Path + "'";
    return false;
  }
  return openBytes(std::move(Bytes), Err, Magic);
}

bool ArchiveReader::openBytes(std::string Bytes, std::string *Err,
                              const char *Magic) {
  Buf = std::move(Bytes);
  Dir.clear();
  return parse(Err, Magic);
}

bool ArchiveReader::parse(std::string *Err, const char *Magic) {
  auto Fail = [&](const std::string &Why) {
    if (Err)
      *Err = "invalid artifact: " + Why;
    Dir.clear();
    return false;
  };
  assert(std::strlen(Magic) == 4 && "archive magic is exactly 4 characters");
  const uint8_t *P = reinterpret_cast<const uint8_t *>(Buf.data());
  if (Buf.size() < 12)
    return Fail("truncated header");
  if (std::memcmp(P, Magic, 4) != 0)
    return Fail(std::string("bad magic (not a Typilus '") + Magic +
                "' archive)");
  ArchiveCursor Head(P + 4, 8);
  uint32_t Container = Head.readU32();
  FormatVersion = Head.readU32();
  if (Container != kContainerVersion)
    return Fail("container version " + std::to_string(Container) +
                " (this build reads version " +
                std::to_string(kContainerVersion) + ")");
  size_t Pos = 12;
  while (Pos != Buf.size()) {
    if (Buf.size() - Pos < 4 + 8)
      return Fail("truncated chunk header");
    ChunkInfo CI;
    CI.Tag.assign(Buf.data() + Pos, 4);
    ArchiveCursor SizeCur(P + Pos + 4, 8);
    uint64_t Size = SizeCur.readU64();
    Pos += 12;
    // Two-step bound check so an adversarial 2^64-ish size cannot
    // overflow `Size + 4` past the real comparison.
    if (Size > Buf.size() - Pos || Buf.size() - Pos - Size < 4)
      return Fail("truncated chunk '" + CI.Tag + "'");
    CI.Offset = Pos;
    CI.Size = static_cast<size_t>(Size);
    ArchiveCursor CrcCur(P + Pos + Size, 4);
    uint32_t Stored = CrcCur.readU32();
    if (crc32(P + Pos, CI.Size) != Stored)
      return Fail("checksum mismatch in chunk '" + CI.Tag + "'");
    Dir.push_back(std::move(CI));
    Pos += static_cast<size_t>(Size) + 4;
  }
  return true;
}

bool ArchiveReader::hasChunk(std::string_view Tag) const {
  for (const ChunkInfo &C : Dir)
    if (C.Tag == Tag)
      return true;
  return false;
}

ArchiveCursor ArchiveReader::chunk(std::string_view Tag,
                                   std::string *Err) const {
  for (const ChunkInfo &C : Dir)
    if (C.Tag == Tag)
      return ArchiveCursor(
          reinterpret_cast<const uint8_t *>(Buf.data()) + C.Offset, C.Size);
  if (Err)
    *Err = "invalid artifact: missing chunk '" + std::string(Tag) + "'";
  ArchiveCursor Bad(nullptr, 0);
  Bad.readU8(); // poison: a missing chunk is a failed cursor
  return Bad;
}
