//===- perfbench/src/Helpers.cpp - Benchmark helpers ------------------------===//

#include "Helpers.h"

#include "support/Rng.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

using namespace typilus;

namespace perfbench {

double percentile(const std::vector<double> &Sorted, double Pct) {
  if (Sorted.empty())
    return 0;
  size_t N = Sorted.size();
  auto Rank = static_cast<size_t>(std::ceil(Pct / 100.0 * static_cast<double>(N)));
  Rank = std::clamp<size_t>(Rank, 1, N);
  return Sorted[Rank - 1];
}

double supportedPercentile(size_t N, double Want) {
  static const double Ladder[] = {99.9, 99, 98, 97, 95, 90, 75, 50};
  for (double P : Ladder) {
    if (P > Want)
      continue;
    auto Rank = static_cast<size_t>(std::ceil(P / 100.0 * static_cast<double>(N)));
    if (Rank >= 1 && N - Rank >= kMinBeyond)
      return P;
  }
  return 0;
}

Summary summarize(std::vector<double> Ms) {
  Summary S;
  S.Count = Ms.size();
  if (Ms.empty())
    return S;
  std::sort(Ms.begin(), Ms.end());
  S.P50Ms = percentile(Ms, 50);
  S.P90Ms = percentile(Ms, 90);
  S.TailPct = supportedPercentile(Ms.size());
  S.TailMs = S.TailPct > 0 ? percentile(Ms, S.TailPct) : Ms.back();
  S.MaxMs = Ms.back();
  return S;
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  auto I = static_cast<size_t>(Pos);
  double F = Pos - static_cast<double>(I);
  return I + 1 < V.size() ? V[I] * (1 - F) + V[I + 1] * F : V[I];
}

double dueUs(double StartUs, double Rps, size_t I) {
  return StartUs + static_cast<double>(I) * 1e6 / Rps;
}

PhaseStats summarizePhase(const std::vector<Timeline> &Ts) {
  PhaseStats S;
  std::vector<double> Lat, Lag;
  for (const Timeline &T : Ts) {
    if (T.SentUs < 0)
      continue;
    ++S.Sent;
    Lag.push_back(lagMs(T));
    if (T.DoneUs < 0) {
      ++S.Failed;
      continue;
    }
    ++S.Answered;
    Lat.push_back(latencyFromDueMs(T));
    if (T.Ok)
      ++S.Ok;
    else
      ++S.Failed;
  }
  S.Latency = summarize(std::move(Lat));
  S.Lag = summarize(std::move(Lag));
  return S;
}

double completionRate(const std::vector<Timeline> &Ts, double StartUs,
                      double EndUs) {
  if (EndUs <= StartUs)
    return 0;
  size_t Done = 0;
  for (const Timeline &T : Ts)
    Done += T.DoneUs >= StartUs && T.DoneUs < EndUs;
  return static_cast<double>(Done) / ((EndUs - StartUs) / 1e6);
}

std::vector<CorpusFile> distinctSources(uint64_t ProjectSeed,
                                        size_t FirstIndex, size_t N,
                                        uint64_t SampleSeed,
                                        const std::string &PathPrefix) {
  CorpusConfig CC;
  CC.Seed = ProjectSeed;
  CC.DuplicateFraction = 0;
  CC.NumFiles = static_cast<int>(FirstIndex + kSourcePool);
  std::vector<CorpusFile> All = CorpusGenerator(CC).generate();
  std::vector<std::string> Pool;
  std::unordered_set<std::string> Seen;
  for (size_t I = FirstIndex; I < All.size(); ++I)
    if (Seen.insert(All[I].Source).second)
      Pool.push_back(std::move(All[I].Source));
  if (N > Pool.size())
    throw std::invalid_argument("source pool too small");
  // Partial Fisher-Yates: the first N slots are the sample.
  Rng R(SampleSeed);
  std::vector<CorpusFile> Out;
  for (size_t I = 0; I != N; ++I) {
    std::swap(Pool[I], Pool[I + R.uniformInt(Pool.size() - I)]);
    Out.push_back({PathPrefix + "/m" + std::to_string(I) + ".py", Pool[I]});
  }
  return Out;
}

std::vector<std::string> topLevelBlocks(const std::string &Source) {
  std::vector<std::string> Blocks;
  std::string Cur;
  bool PrevBlank = false;
  size_t Pos = 0;
  while (Pos < Source.size()) {
    size_t End = Source.find('\n', Pos);
    End = End == std::string::npos ? Source.size() : End + 1;
    std::string_view Line(Source.data() + Pos, End - Pos);
    bool Blank = Line.find_first_not_of(" \t\r\n") == std::string_view::npos;
    bool Col0 = !Blank && Line[0] != ' ' && Line[0] != '\t';
    if (Col0 && PrevBlank && !Cur.empty()) {
      Blocks.push_back(std::move(Cur));
      Cur.clear();
    }
    Cur.append(Line);
    PrevBlank = Blank;
    Pos = End;
  }
  if (!Cur.empty())
    Blocks.push_back(std::move(Cur));
  return Blocks;
}

namespace {

bool isDef(const std::string &Block) { return Block.rfind("def ", 0) == 0; }

/// A donated block, normalized to end in exactly one blank line so it
/// stays its own block wherever it is spliced in.
std::string asBlock(std::string B) {
  while (!B.empty() && (B.back() == '\n' || B.back() == ' '))
    B.pop_back();
  return B + "\n\n";
}

std::string join(const std::vector<std::string> &Blocks) {
  std::string S;
  for (const std::string &B : Blocks)
    S += B;
  return S;
}

} // namespace

std::vector<EditOp> editScript(const std::vector<CorpusFile> &Docs,
                               const std::vector<CorpusFile> &Donors,
                               size_t NumOps, uint64_t Seed) {
  std::vector<std::string> DonorDefs;
  for (const CorpusFile &F : Donors)
    for (std::string &B : topLevelBlocks(F.Source))
      if (isDef(B))
        DonorDefs.push_back(asBlock(std::move(B)));

  // The kinds a document's visits cycle through: 4 replaces, 4 inserts,
  // 3 deletes, 3 undos (one of them undoes an insert, so inserts and
  // deletes balance and documents keep their size), a close and the
  // reopen. Document D enters the cycle at its own offset, so every
  // visiting cycle of the workspace holds the same mix.
  enum Slot { Replace, Insert, Delete, Undo, CloseDoc, Reopen };
  static const Slot Pattern[] = {Replace, Undo,    Insert, Delete,   Replace, Insert,
                                 Undo,    Delete,  Replace, Undo,    Insert,  Delete,
                                 CloseDoc, Reopen, Replace, Insert};
  constexpr size_t PatternLen = sizeof(Pattern) / sizeof(Pattern[0]);

  Rng R(Seed);
  // Each document's own sequence of texts does not depend on the seed:
  // which function an edit replaces or deletes, where an insert goes and
  // what it pastes (the donors' functions, round-robin from the
  // document's own starting point) come from a stream of the document's
  // own. The seed orders the documents within each visiting cycle, so it
  // decides how the edits interleave and the τmap state each one sees.
  Rng Fixed;
  std::vector<Rng> DocR;
  std::vector<size_t> Pastes;
  for (size_t D = 0; D != Docs.size(); ++D) {
    DocR.push_back(Fixed.fork(D));
    Pastes.push_back(DonorDefs.empty() ? 0 : D * DonorDefs.size() / Docs.size());
  }
  std::vector<EditOp> Ops;
  std::vector<std::string> Cur, Prev;
  std::vector<bool> IsOpen(Docs.size(), true);
  std::vector<size_t> Visits(Docs.size(), 0);
  for (size_t D = 0; D != Docs.size(); ++D) {
    Cur.push_back(Docs[D].Source);
    Prev.push_back(Docs[D].Source);
    Ops.push_back({EditOp::Open, static_cast<int>(D), Docs[D].Source});
  }
  if (Docs.empty())
    return Ops;
  std::vector<size_t> Cycle;
  while (Ops.size() < Docs.size() + NumOps) {
    if (Cycle.empty()) {
      for (size_t I = 0; I != Docs.size(); ++I)
        Cycle.push_back(I);
      R.shuffle(Cycle);
    }
    size_t DI = Cycle.back();
    Cycle.pop_back();
    int D = static_cast<int>(DI);
    Slot S = Pattern[(DI * PatternLen / Docs.size() + Visits[DI]++) % PatternLen];
    if (!IsOpen[DI]) {
      IsOpen[DI] = true;
      Ops.push_back({EditOp::Open, D, Cur[DI]});
      continue;
    }
    if (S == CloseDoc) {
      IsOpen[DI] = false;
      Ops.push_back({EditOp::Close, D, {}});
      continue;
    }
    if (S == Undo && Prev[DI] != Cur[DI]) {
      // The previous text comes back, so its markers resurrect.
      std::swap(Prev[DI], Cur[DI]);
      Ops.push_back({EditOp::Change, D, Cur[DI]});
      continue;
    }
    // A reopen of an open document, or an undo with nothing to undo,
    // replaces a function instead.
    if (S == Undo || S == Reopen)
      S = Replace;
    std::vector<std::string> Blocks = topLevelBlocks(Cur[DI]);
    std::vector<size_t> Defs;
    for (size_t I = 0; I != Blocks.size(); ++I)
      if (isDef(Blocks[I]))
        Defs.push_back(I);
    if (S == Delete && Defs.size() < 2)
      S = Insert;
    if (S == Replace && Defs.empty())
      S = Insert;
    if (S == Delete) {
      Blocks.erase(Blocks.begin() + static_cast<long>(Defs[DocR[DI].uniformInt(Defs.size())]));
    } else {
      const std::string &Donor =
          DonorDefs.empty() ? Cur[DI] : DonorDefs[Pastes[DI]++ % DonorDefs.size()];
      if (S == Insert) {
        size_t At = 1 + DocR[DI].uniformInt(Blocks.size());
        Blocks.insert(Blocks.begin() + static_cast<long>(std::min(At, Blocks.size())), Donor);
      } else {
        Blocks[Defs[DocR[DI].uniformInt(Defs.size())]] = Donor;
      }
    }
    if (!Blocks.empty())
      Blocks.back() = asBlock(Blocks.back());
    Prev[DI] = Cur[DI];
    Cur[DI] = join(Blocks);
    Ops.push_back({EditOp::Change, D, Cur[DI]});
  }
  return Ops;
}

int64_t responseId(std::string_view Line) {
  static constexpr std::string_view Head = "{\"id\":";
  if (Line.substr(0, Head.size()) != Head)
    return -1;
  size_t I = Head.size();
  bool Neg = I < Line.size() && Line[I] == '-';
  if (Neg)
    ++I;
  int64_t V = 0;
  size_t Start = I;
  for (; I < Line.size() && Line[I] >= '0' && Line[I] <= '9'; ++I)
    V = V * 10 + (Line[I] - '0');
  if (I == Start)
    return -1;
  return Neg ? -V : V;
}

std::string digestField(std::string_view Line) {
  static constexpr std::string_view Key = "\"digest\":\"";
  size_t P = Line.find(Key);
  if (P == std::string_view::npos)
    return {};
  P += Key.size();
  size_t E = Line.find('"', P);
  return E == std::string_view::npos ? std::string()
                                     : std::string(Line.substr(P, E - P));
}

bool checkResponse(std::string_view Served, std::string_view Expected,
                   std::string *Why) {
  while (!Served.empty() && (Served.back() == '\n' || Served.back() == '\r'))
    Served.remove_suffix(1);
  while (!Expected.empty() && Expected.back() == '\n')
    Expected.remove_suffix(1);
  if (Served == Expected)
    return true;
  if (Why)
    *Why = digestField(Served) != digestField(Expected) ? "digest mismatch"
                                                        : "content mismatch";
  return false;
}

uint64_t fnv1a(std::string_view Bytes) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

} // namespace perfbench
