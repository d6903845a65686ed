//===- perfbench/src/Helpers.h - Benchmark helpers ------------------*- C++ -*-===//
//
// The pure, unit-tested parts of the benchmark: the percentile rule, the
// open-loop due-time ledger, the seeded input generators and the response
// checks. Nothing here touches a process, a socket or a clock.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HELPERS_H
#define PERFBENCH_HELPERS_H

#include "corpus/Generator.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

//===----------------------------------------------------------------------===//
// Percentiles
//===----------------------------------------------------------------------===//

/// Samples a percentile must have strictly beyond it before it is reported.
inline constexpr size_t kMinBeyond = 10;

/// Nearest-rank percentile of an ascending \p Sorted sample (0 when empty).
double percentile(const std::vector<double> &Sorted, double Pct);

/// The highest of 99.9, 99, 98, 97, 95, 90, 75, 50 with at least
/// kMinBeyond of \p N samples beyond its nearest rank; capped at \p Want.
/// \returns 0 when even the median has too few (N < 20).
double supportedPercentile(size_t N, double Want = 99.0);

/// A latency distribution in milliseconds under the percentile rule.
struct Summary {
  size_t Count = 0;
  double P50Ms = 0;
  double P90Ms = 0;
  double TailPct = 0; ///< The percentile TailMs reports (see above).
  double TailMs = 0;
  double MaxMs = 0;
};
Summary summarize(std::vector<double> Ms);

/// Linearly interpolated quantile \p Q in [0, 1] of \p V (0 when empty).
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

//===----------------------------------------------------------------------===//
// Open-loop accounting
//===----------------------------------------------------------------------===//

/// One open-loop request's timeline, in microseconds on one clock.
struct Timeline {
  double DueUs = 0;  ///< When the schedule said to send it.
  double SentUs = -1; ///< When the generator handed it to the socket.
  double DoneUs = -1; ///< When its response arrived (-1: never).
  bool Ok = false;    ///< Answered and checked correct.
};

/// Latency is measured from when a request was *due*, so a stalled
/// generator or server charges the wait to every request behind it; lag
/// is how late the generator itself sent.
inline double latencyFromDueMs(const Timeline &T) {
  return (T.DoneUs - T.DueUs) / 1000.0;
}
inline double lagMs(const Timeline &T) { return (T.SentUs - T.DueUs) / 1000.0; }

/// Uniformly spaced due times: request I of a phase at \p Rps starting at
/// \p StartUs is due at StartUs + I * 1e6 / Rps.
double dueUs(double StartUs, double Rps, size_t I);

/// A phase of the open loop, summarized.
struct PhaseStats {
  Summary Latency;  ///< Over answered requests, from due time.
  Summary Lag;      ///< Over sent requests.
  size_t Sent = 0, Answered = 0, Ok = 0, Failed = 0;
};
PhaseStats summarizePhase(const std::vector<Timeline> &Ts);

/// Responses per second that arrived within [\p StartUs, \p EndUs): the
/// throughput of a closed loop over that window. Requests still in flight
/// at its end do not count.
double completionRate(const std::vector<Timeline> &Ts, double StartUs,
                      double EndUs);

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

/// Files of the generated project \p ProjectSeed (same types, names and
/// idioms as its training corpus) that traffic draws from: the
/// kSourcePool files from index \p FirstIndex on, so none is a training
/// file.
inline constexpr size_t kSourcePool = 16384;

/// \p N files drawn without replacement from that pool by \p SampleSeed.
/// Sources are pairwise distinct and paths unique (prefixed by
/// \p PathPrefix).
std::vector<typilus::CorpusFile> distinctSources(uint64_t ProjectSeed,
                                                 size_t FirstIndex, size_t N,
                                                 uint64_t SampleSeed,
                                                 const std::string &PathPrefix);

/// One step of the editor session.
struct EditOp {
  enum Kind { Open, Change, Close } K = Open;
  int Doc = 0;      ///< Document index.
  std::string Text; ///< Full text (Open/Change).
};

/// A seeded editor session over \p Docs: opens each document, then
/// \p NumOps visits, the documents in a seeded order once per cycle. Each
/// document steps through a fixed cycle of 16 kinds from its own offset:
/// replace, insert or delete a top-level function (functions donated by
/// \p Donors), undo the previous edit (exercising τmap resurrection), or
/// close and later reopen the document. A document's own sequence of
/// texts is the same for every seed; the seed decides how the documents'
/// edits interleave. The mix (1/16 closes, 3/16 undos, the rest about
/// equal shares of replace, insert and delete) is an assumption, not a
/// measured editor trace; edit_loop reports the share of ops that
/// resurrect rows or compact the τmap.
std::vector<EditOp> editScript(const std::vector<typilus::CorpusFile> &Docs,
                               const std::vector<typilus::CorpusFile> &Donors,
                               size_t NumOps, uint64_t Seed);

/// Splits \p Source into top-level blocks: a block starts at a line in
/// column 0 that follows a blank line. Concatenating the blocks gives the
/// source back.
std::vector<std::string> topLevelBlocks(const std::string &Source);

//===----------------------------------------------------------------------===//
// Response checks
//===----------------------------------------------------------------------===//

/// The numeric `"id"` a daemon response line starts with, or -1.
int64_t responseId(std::string_view Line);

/// The `"digest"` string field of a JSON line ("" when absent).
std::string digestField(std::string_view Line);

/// Checks a served response line against the line the in-process replay
/// serializes for the same request. \returns true when they are byte
/// equal; otherwise sets \p Why to "digest mismatch" or "content
/// mismatch" — either counts as a failed operation.
bool checkResponse(std::string_view Served, std::string_view Expected,
                   std::string *Why);

/// FNV-1a over a byte string (used to digest artifacts across set-ups).
uint64_t fnv1a(std::string_view Bytes);

} // namespace perfbench

#endif // PERFBENCH_HELPERS_H
