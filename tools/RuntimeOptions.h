//===- tools/RuntimeOptions.h - Shared runtime flags ------------*- C++ -*-===//
//
// The runtime flags typilus_cli, typilus_serve and typilus_lsp share —
// `--threads N`, `--ef-search N` and `--no-simd` — parsed, documented and
// applied in one place, plus the flag-value helpers the three parsers use:
// every numeric flag goes through a checked integer, u64 or float parse.
//
//===----------------------------------------------------------------------===//

#ifndef TYPILUS_TOOLS_RUNTIMEOPTIONS_H
#define TYPILUS_TOOLS_RUNTIMEOPTIONS_H

#include "core/Predictor.h"
#include "nn/Simd.h"
#include "support/ThreadPool.h"

#include <cctype>
#include <cerrno>
#include <cfloat>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace typilus::tools {

/// The runtime flags' lines for each tool's usage text.
inline constexpr const char *kRuntimeUsage =
    "  --threads N            pool size and kNN ways (0 = hardware,\n"
    "                         1 = serial)\n"
    "  --ef-search N          HNSW per-request query budget (layer-0\n"
    "                         beam width; 0 = the index default,\n"
    "                         max(4k, 64); other indexes ignore it)\n"
    "  --no-simd              pin the scalar reference kernels\n"
    "                         (bit-reproducible across hosts; the SIMD\n"
    "                         default is deterministic per host)\n";

/// The value of flag Argv[I], advancing \p I; null (error printed) when
/// the flag is last.
inline const char *flagValue(int Argc, char **Argv, int &I) {
  if (I + 1 < Argc)
    return Argv[++I];
  std::fprintf(stderr, "error: %s expects a value\n", Argv[I]);
  return nullptr;
}

/// Prints "error: <Flag> expects <What>; got '<Text>'". \returns false.
inline bool badFlagValue(const char *Flag, const char *What,
                         const char *Text) {
  std::fprintf(stderr, "error: %s expects %s; got '%s'\n", Flag, What, Text);
  return false;
}

/// Parses \p Text, the value of \p Flag, as a base-10 integer in
/// [\p Min, \p Max]; anything else (empty, trailing characters, out of
/// range) is a badFlagValue.
template <typename IntT>
inline bool parseIntFlag(const char *Flag, const char *Text, long Min,
                         long Max, const char *What, IntT *Out) {
  char *End = nullptr;
  errno = 0;
  long V = std::strtol(Text, &End, 10);
  if (End == Text || *End != '\0' || errno == ERANGE || V < Min || V > Max)
    return badFlagValue(Flag, What, Text);
  *Out = static_cast<IntT>(V);
  return true;
}

/// parseIntFlag for the full unsigned 64-bit range (seeds): digits only,
/// so no sign or space.
inline bool parseU64Flag(const char *Flag, const char *Text, const char *What,
                         uint64_t *Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (!std::isdigit(static_cast<unsigned char>(Text[0])) || *End != '\0' ||
      errno == ERANGE)
    return badFlagValue(Flag, What, Text);
  *Out = V;
  return true;
}

/// Parses \p Text as a finite number in [\p Min, \p Max] (NaN and the
/// infinities are out of range).
inline bool parseFloatFlag(const char *Flag, const char *Text, double Min,
                           double Max, const char *What, double *Out) {
  char *End = nullptr;
  errno = 0;
  double V = std::strtod(Text, &End);
  if (End == Text || *End != '\0' || errno == ERANGE ||
      !(V >= Min && V <= Max))
    return badFlagValue(Flag, What, Text);
  *Out = V;
  return true;
}

struct RuntimeOptions {
  int Threads = 0;
  int EfSearch = 0;
  bool NoSimd = false;

  /// Consumes Argv[I] and its value when it is a runtime flag. \returns 1
  /// when consumed, 0 when it is not a runtime flag, and -1 on a missing
  /// or malformed value (the error is printed).
  int parse(int Argc, char **Argv, int &I) {
    std::string_view Flag = Argv[I];
    if (Flag == "--no-simd") {
      NoSimd = true;
      return 1;
    }
    if (Flag != "--threads" && Flag != "--ef-search")
      return 0;
    const char *V = flagValue(Argc, Argv, I);
    bool Ok = V && (Flag == "--threads"
                        ? parseIntFlag("--threads", V, 0, 1024,
                                       "a thread count in 0..1024", &Threads)
                        : parseIntFlag("--ef-search", V, 0, INT_MAX,
                                       "a non-negative beam width", &EfSearch));
    return Ok ? 1 : -1;
  }

  /// The process-wide half: --no-simd pins the scalar kernels, --threads
  /// sizes the global pool. Idempotent.
  void applyProcess() const {
    if (NoSimd)
      nn::simd::setSimdEnabled(false);
    setGlobalNumThreads(Threads);
  }

  /// applyProcess(), then caps \p P's kNN ways at --threads and sets its
  /// query budget from --ef-search (query-time only: no index rebuild).
  /// Idempotent, so the serve daemon's reload hook repeats it.
  void apply(Predictor &P) const {
    applyProcess();
    KnnOptions KO = P.knnOptions();
    KO.NumThreads = Threads;
    if (EfSearch > 0)
      KO.EfSearch = EfSearch;
    P.setKnnOptions(KO);
  }
};

} // namespace typilus::tools

#endif // TYPILUS_TOOLS_RUNTIMEOPTIONS_H
