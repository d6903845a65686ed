//===- perfbench/src/Main.cpp - Benchmark entry point ---------------------===//
//
//   perfbench_runner --workload W --seed N --seconds S --trace 0|1
//                    --work-dir DIR [--commit C] [--source-digest D]
//
// `--workload pin_train` instead prints the train workload's pinned
// test-split digests (src/TrainPins.inc) for this build and host.
//
// Runs one workload and prints two lines: a record (provenance plus every
// metric the run took, with units and sample counts) and, last, the
// result: {"correct","attempted","failed","metrics"} where metrics are the
// end-to-end set with --trace 0 and the per-layer set with --trace 1.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Json.h"

#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include <unistd.h>

using namespace typilus;
using namespace perfbench;

namespace perfbench {

const std::vector<std::pair<std::string, std::string>> &endToEndNames() {
  static const std::vector<std::pair<std::string, std::string>> Names = {
      {"setup_s", "s"},
      {"latency_p50_ms", "ms"},
      {"latency_p90_ms", "ms"},
      {"throughput_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
      {"top1_exact_pct", "%"},
  };
  return Names;
}

const std::vector<std::pair<std::string, std::string>> &layerNames() {
  static const std::vector<std::pair<std::string, std::string>> Names = {
      {"pyfront.parse_us", "us"},
      {"pyfront.symtab_us", "us"},
      {"graph.build_us", "us"},
      {"graph.nodes_per_file", "count"},
      {"graph.edges_per_file", "count"},
      {"models.embed_us", "us"},
      {"models.targets_per_file", "count"},
      {"knn.query_us", "us"},
      {"knn.markers", "count"},
      {"knn.tombstone_ratio", "ratio"},
      {"knn.compactions", "count"},
      {"knn.compact_ms", "ms"},
      {"knn.delta_rows", "count"},
      {"core.score_us", "us"},
      {"checker.check_us", "us"},
      {"protocol.parse_request_us", "us"},
      {"protocol.serialize_us", "us"},
      {"protocol.response_bytes", "bytes"},
      {"serve.queue_wait_mean_us", "us"},
      {"serve.queue_wait_max_us", "us"},
      {"serve.batch_mean", "count"},
      {"serve.batch_max", "count"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.collapsed", "count"},
      {"serve.overloaded", "count"},
      {"train.epoch_s", "s"},
      {"train.forward_ms", "ms"},
      {"train.backward_ms", "ms"},
      {"train.optim_ms", "ms"},
      {"corpus.decode_stall_us", "us"},
      {"corpus.prefetch_wait_us", "us"},
      {"corpus.prefetch_hits", "count"},
      {"artifact.save_ms", "ms"},
      {"artifact.load_ms", "ms"},
      {"loadgen.lag_tail_ms", "ms"},
      {"loadgen.sent", "count"},
      {"loadgen.ok", "count"},
      {"loadgen.failed", "count"},
      {"trace.op_us", "us"},
      {"trace.remainder_us", "us"},
      {"trace.overhead_pct", "%"},
  };
  return Names;
}

std::string unitOf(const std::string &Name) {
  for (const auto *List : {&endToEndNames(), &layerNames()})
    for (const auto &[N, U] : *List)
      if (N == Name)
        return U;
  return "";
}

} // namespace perfbench

namespace {

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::stoull(V);
    else if (K == "--seconds")
      A.Seconds = std::stod(V);
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--work-dir")
      A.WorkDir = V;
    else if (K == "--commit")
      A.Commit = V;
    else if (K == "--source-digest")
      A.SourceDigest = V;
    else
      return false;
  }
  return Argc % 2 == 1 && !A.Workload.empty() && !A.WorkDir.empty() &&
         A.Seconds > 0;
}

/// Appends \p Ms as a JSON object of name -> {value, unit[, samples]}.
void appendMetrics(std::string &J, const std::vector<Metric> &Ms, bool Samples) {
  J += "{";
  for (size_t I = 0; I != Ms.size(); ++I) {
    if (I)
      J += ",";
    json::appendQuoted(J, Ms[I].Name);
    J += ":{\"value\":";
    json::appendNumber(J, Ms[I].Value);
    J += ",\"unit\":";
    json::appendQuoted(J, Ms[I].Unit);
    if (Samples)
      J += ",\"samples\":" + std::to_string(Ms[I].Samples);
    J += "}";
  }
  J += "}";
}

/// The named contract metrics of \p Have, in list order; a name a
/// workload did not measure reads 0 with 0 samples.
std::vector<Metric> ordered(const std::vector<std::pair<std::string, std::string>> &Names,
                            const std::map<std::string, Metric> &Have) {
  std::vector<Metric> Out;
  for (const auto &[N, U] : Names) {
    auto It = Have.find(N);
    Out.push_back(It != Have.end() ? It->second : Metric{N, 0, U, 0});
  }
  return Out;
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0 && Line.find(':') != std::string::npos)
      return Line.substr(Line.find(':') + 2);
  return "unknown";
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr, "usage: %s --workload W --seed N --seconds S --trace 0|1 "
                         "--work-dir DIR [--commit C] [--source-digest D]\n",
                 Argv[0]);
    return 2;
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0) {
    std::fprintf(stderr, "error: this is a Debug build; refusing to time it "
                         "(configure with -DCMAKE_BUILD_TYPE=Release)\n");
    return 3;
  }
  if (A.Workload == "pin_train") {
    std::printf("// Generated by `perfbench_runner --workload pin_train`; see Train.cpp.\n");
    printTrainPins();
    return 0;
  }
  double Load0 = 0;
  std::ifstream("/proc/loadavg") >> Load0;
  Result R;
  try {
    if (A.Workload == "serve_miss")
      runServe(A, R);
    else if (A.Workload == "edit_loop")
      runEdit(A, R);
    else if (A.Workload == "train")
      runTrain(A, R);
    else {
      std::fprintf(stderr, "error: unknown workload '%s'\n", A.Workload.c_str());
      return 2;
    }
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 1;
  }
  double Load1 = 0;
  std::ifstream("/proc/loadavg") >> Load1;
  for (const auto &[N, U] : endToEndNames())
    if (!R.EndToEnd.count(N)) {
      std::fprintf(stderr, "error: %s did not measure %s\n", A.Workload.c_str(), N.c_str());
      return 1;
    }
  if (R.Attempted == 0) {
    std::fprintf(stderr, "error: no operation was attempted\n");
    return 1;
  }

  std::vector<Metric> E2E = ordered(endToEndNames(), R.EndToEnd);
  std::vector<Metric> Layers = ordered(layerNames(), R.Layers);

  // The record: provenance and everything measured.
  std::string Rec = "{\"record\":{\"workload\":";
  json::appendQuoted(Rec, A.Workload);
  Rec += ",\"seed\":" + std::to_string(A.Seed) + ",\"seconds\":";
  json::appendNumber(Rec, A.Seconds);
  Rec += std::string(",\"trace\":") + (A.Trace ? "true" : "false");
  Rec += ",\"commit\":";
  json::appendQuoted(Rec, A.Commit);
  Rec += ",\"source_digest\":";
  json::appendQuoted(Rec, A.SourceDigest);
  Rec += ",\"build_type\":";
  json::appendQuoted(Rec, PERFBENCH_BUILD_TYPE);
  Rec += ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  Rec += ",\"cpu\":";
  json::appendQuoted(Rec, cpuModel());
  Rec += ",\"loadavg_start\":";
  json::appendNumber(Rec, Load0);
  Rec += ",\"loadavg_end\":";
  json::appendNumber(Rec, Load1);
  Rec += ",\"correct\":" + std::string(R.Failed == 0 ? "true" : "false");
  Rec += ",\"attempted\":" + std::to_string(R.Attempted);
  Rec += ",\"failed\":" + std::to_string(R.Failed) + ",\"failures\":[";
  for (size_t I = 0; I != R.Failures.size(); ++I) {
    if (I)
      Rec += ",";
    json::appendQuoted(Rec, R.Failures[I]);
  }
  Rec += "],\"end_to_end\":";
  appendMetrics(Rec, E2E, true);
  Rec += ",\"workload_metrics\":";
  appendMetrics(Rec, R.Record, true);
  if (A.Trace) {
    Rec += ",\"per_layer\":";
    appendMetrics(Rec, Layers, true);
    Rec += ",\"trace_file\":";
    json::appendQuoted(Rec, A.WorkDir + "/trace.json");
  }
  Rec += "}}";
  std::ofstream(A.WorkDir + "/record.json") << Rec << "\n";

  // The result line.
  std::string Out = "{\"correct\":" + std::string(R.Failed == 0 ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(R.Attempted) +
                    ",\"failed\":" + std::to_string(R.Failed) + ",\"metrics\":";
  appendMetrics(Out, A.Trace ? Layers : E2E, false);
  Out += "}";
  std::printf("%s\n%s\n", Rec.c_str(), Out.c_str());
  return 0;
}
