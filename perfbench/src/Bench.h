//===- perfbench/src/Bench.h - Runner-wide declarations ------------*- C++ -*-===//
//
// What the workloads share: the run arguments, the result being built,
// the training-stack set-up and the child processes the runner spawns.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Helpers.h"
#include "Trace.h"

#include "core/Predictor.h"
#include "core/Trainer.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <sys/types.h>

namespace perfbench {

/// Threads the load generator may use (one) plus the program under test
/// (two) stay within a four-core host's nproc.
inline constexpr int kProgramThreads = 2;
/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupReps = 3;
/// Training corpus of every serving set-up: files and epochs.
inline constexpr int kTrainFiles = 60;
inline constexpr int kTrainEpochs = 2;

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir; ///< Scratch space inside the checkout.
  std::string Commit = "unknown";
  std::string SourceDigest = "unknown";
};

/// The generated project every workload serves, edits or trains on: its
/// corpus, type universe and the pool of unseen files traffic is drawn
/// from. It is fixed, so a seed varies the traffic (which files are
/// served, the edits) and not the project; runs with different seeds are
/// then comparable.
inline constexpr uint64_t kProjectSeed = 20200613;
/// An independent stream for one purpose ("miss", "edits", ...).
uint64_t streamSeed(const Args &A, const char *Purpose);

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  size_t Samples = 0;
};

/// Unit of a contract metric ("" when the name is not one).
std::string unitOf(const std::string &Name);

/// Everything one run reports. EndToEnd and Layers are the contract
/// metrics (printed with --trace 0 and 1 respectively, in the order of
/// endToEndNames / layerNames; a layer a workload does not exercise
/// reads 0); Record holds the rest of what the run measured, printed on
/// the line before the result.
struct Result {
  std::map<std::string, Metric> EndToEnd, Layers;
  std::vector<Metric> Record;
  size_t Attempted = 0, Failed = 0; ///< The run is correct when none failed.
  std::vector<std::string> Failures; ///< First few reasons.

  void e2e(const std::string &N, double V, size_t S) {
    EndToEnd[N] = {N, V, unitOf(N), S};
  }
  void layer(const std::string &N, double V, size_t S) {
    Layers[N] = {N, V, unitOf(N), S};
  }
  void rec(std::string N, double V, std::string U, size_t S) {
    Record.push_back({std::move(N), V, std::move(U), S});
  }
  /// Counts one failed operation (a refused, unanswered or wrong one).
  void fail(const std::string &Why) {
    ++Failed;
    if (Failures.size() < 8)
      Failures.push_back(Why);
  }
};

/// The contract metrics, in print order, with their units.
const std::vector<std::pair<std::string, std::string>> &endToEndNames();
const std::vector<std::pair<std::string, std::string>> &layerNames();

/// One set-up of the serving stack: corpus generation, training, τmap,
/// artifact save and a load of it back (the replay predictor).
struct Stack {
  std::string ArtifactPath;
  uint64_t ArtifactDigest = 0;
  double SaveMs = 0, LoadMs = 0;
  std::unique_ptr<typilus::Predictor> Replay;
};
Stack buildStack(const Args &A);

/// A spawned program. Its stdin/stdout are pipes; stderr goes to a log
/// file. The destructor stops and reaps it.
class Child {
public:
  Child(const std::vector<std::string> &Argv, const std::string &LogPath);
  ~Child();
  Child(const Child &) = delete;
  Child &operator=(const Child &) = delete;

  int in() const { return InFd; }
  int out() const { return OutFd; }
  /// VmHWM of the process in MiB (0 when it cannot be read).
  double peakRssMb() const;
  /// Closes stdin and waits \p GraceMs for the program to exit on its
  /// own, then asks it to (SIGTERM), then kills it after five seconds.
  /// \returns the exit status (-1 when killed or not reaped).
  int stop(int GraceMs);
  /// Reads one '\n' line from stdout, waiting at most \p TimeoutMs.
  bool readLine(std::string &Line, int TimeoutMs);

private:
  pid_t Pid = -1;
  int InFd = -1, OutFd = -1;
  std::string Pending;
};

/// Wall clock in microseconds (steady).
double nowUs();

void runServe(const Args &A, Result &R);
void runEdit(const Args &A, Result &R);
void runTrain(const Args &A, Result &R);
/// Prints the kernel tables' pinned train digests as C++ initializers.
void printTrainPins();

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
