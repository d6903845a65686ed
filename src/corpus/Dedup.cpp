//===- corpus/Dedup.cpp - Near-duplicate detection -----------------------------===//

#include "corpus/Dedup.h"

#include "pyfront/Lexer.h"
#include "support/Hash.h"

#include <algorithm>
#include <set>

using namespace typilus;

namespace {

/// Sorted unique 3-token shingle hashes of one file.
std::vector<uint64_t> shingleSet(const CorpusFile &F) {
  std::vector<Diagnostic> Diags;
  std::vector<Token> Toks = lexSource(F.Source, Diags);
  std::vector<uint64_t> Hashes;
  uint64_t H1 = 0, H2 = 0;
  auto HashText = [](const Token &T) {
    return fnv1a(T.Text, Fnv1a::TruncatedOffset) ^
           (static_cast<uint64_t>(T.Kind) << 56);
  };
  size_t Count = 0;
  for (const Token &T : Toks) {
    if (T.Kind == TokKind::Newline || T.Kind == TokKind::Indent ||
        T.Kind == TokKind::Dedent || T.Kind == TokKind::Eof)
      continue;
    uint64_t H0 = HashText(T);
    if (Count >= 2)
      Hashes.push_back(H2 * 0x9E3779B97F4A7C15ull + H1 * 31 + H0);
    H2 = H1;
    H1 = H0;
    ++Count;
  }
  std::sort(Hashes.begin(), Hashes.end());
  Hashes.erase(std::unique(Hashes.begin(), Hashes.end()), Hashes.end());
  return Hashes;
}

double jaccard(const std::vector<uint64_t> &A,
               const std::vector<uint64_t> &B) {
  if (A.empty() && B.empty())
    return 1.0;
  size_t Inter = 0, I = 0, J = 0;
  while (I < A.size() && J < B.size()) {
    if (A[I] == B[J]) {
      ++Inter;
      ++I;
      ++J;
    } else if (A[I] < B[J]) {
      ++I;
    } else {
      ++J;
    }
  }
  size_t Uni = A.size() + B.size() - Inter;
  return Uni == 0 ? 1.0 : static_cast<double>(Inter) / static_cast<double>(Uni);
}

} // namespace

std::vector<size_t>
typilus::findNearDuplicates(const std::vector<CorpusFile> &Files,
                            double Threshold) {
  std::vector<std::vector<uint64_t>> Shingles;
  Shingles.reserve(Files.size());
  for (const CorpusFile &F : Files)
    Shingles.push_back(shingleSet(F));

  std::vector<size_t> Drop;
  std::vector<char> Dropped(Files.size(), 0);
  for (size_t I = 0; I != Files.size(); ++I) {
    if (Dropped[I])
      continue;
    for (size_t J = I + 1; J != Files.size(); ++J) {
      if (Dropped[J])
        continue;
      // Size-ratio pruning: Jaccard is bounded by min/max set size.
      double SizeA = static_cast<double>(Shingles[I].size());
      double SizeB = static_cast<double>(Shingles[J].size());
      if (std::min(SizeA, SizeB) <
          Threshold * std::max(SizeA, SizeB))
        continue;
      if (jaccard(Shingles[I], Shingles[J]) >= Threshold) {
        Dropped[J] = 1;
        Drop.push_back(J);
      }
    }
  }
  std::sort(Drop.begin(), Drop.end());
  return Drop;
}
