//===- support/Hash.h - FNV-1a ----------------------------------*- C++ -*-===//
//
// Part of the Typilus C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// 64-bit FNV-1a, the one hash behind the prediction digest, the serve
/// cache's source digest, corpus dedup's token hashes and the τmap's
/// dedup keys. Digests are compared across processes and pinned in
/// tests, so the constants and the byte order of mixing are fixed.
///
//===----------------------------------------------------------------------===//

#ifndef TYPILUS_SUPPORT_HASH_H
#define TYPILUS_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace typilus {

/// Incremental FNV-1a: mix bytes (and, for in-process keys, whole words)
/// in order, then read value().
class Fnv1a {
public:
  static constexpr uint64_t Offset = 0xCBF29CE484222325ull;
  static constexpr uint64_t Prime = 0x100000001B3ull;
  /// The basis corpus dedup and the serve source digest have always
  /// started from: the standard one with its last decimal digit dropped.
  /// Kept so their values (dedup decisions, cache keys) do not change.
  static constexpr uint64_t TruncatedOffset = 1469598103934665603ull;

  explicit Fnv1a(uint64_t Basis = Offset) : H(Basis) {}

  Fnv1a &bytes(const void *Data, size_t N) {
    const unsigned char *P = static_cast<const unsigned char *>(Data);
    for (size_t I = 0; I != N; ++I)
      H = (H ^ P[I]) * Prime;
    return *this;
  }
  Fnv1a &bytes(std::string_view S) { return bytes(S.data(), S.size()); }
  /// One FNV step over a whole word (not its bytes): cheaper, and fine
  /// for keys that never leave the process, like interned pointers.
  Fnv1a &word(uint64_t W) {
    H = (H ^ W) * Prime;
    return *this;
  }
  uint64_t value() const { return H; }

private:
  uint64_t H;
};

/// FNV-1a of \p S, from \p Basis.
inline uint64_t fnv1a(std::string_view S, uint64_t Basis = Fnv1a::Offset) {
  return Fnv1a(Basis).bytes(S).value();
}

} // namespace typilus

#endif // TYPILUS_SUPPORT_HASH_H
