//===- perfbench/src/Trace.h - In-memory spans ---------------------*- C++ -*-===//
//
// Spans the traced run records around each call into a layer's public
// functions: name, start, end, parent span and request id, kept in memory
// and written out as Chrome trace-event JSON when the run ends. A span
// with derived timing (an interval the program reports as a duration,
// e.g. Predictor::embedMicros deltas inside predictBatch) is placed back
// to back from its parent's start; only its length is measured.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char *Name = "";
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int32_t Parent = -1;
  int64_t Request = -1;
  bool Derived = false;
};

/// Per-name totals over a trace.
struct LayerTime {
  size_t Calls = 0;
  double TotalUs = 0; ///< Sum of span durations.
  double SelfUs = 0;  ///< Sum of durations minus the child-covered part.
};

class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  /// Opens a span under the innermost open one; \returns its index (-1
  /// when disabled).
  int32_t begin(const char *Name, int64_t Request);
  void end(int32_t Id);
  /// Records a child of the innermost open span lasting \p DurNs, placed
  /// after the parent's previous derived children.
  void derived(const char *Name, int64_t DurNs);

  /// Self and total time per span name.
  std::map<std::string, LayerTime> layerTimes() const;

  /// Writes the spans as Chrome trace-event JSON; \returns false on I/O
  /// failure.
  bool writeChromeTrace(const std::string &Path) const;

  static int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

private:
  bool Enabled;
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
  std::vector<int64_t> DerivedCursor; ///< Per open span: next derived start.
};

/// Mean self (or total) microseconds per span named \p Name in \p L.
double perCall(const std::map<std::string, LayerTime> &L, const char *Name,
               bool Self = true);

/// RAII span. Calls through a disabled tracer cost one branch.
class Scope {
public:
  Scope(Tracer &T, const char *Name, int64_t Request)
      : T(T), Id(T.enabled() ? T.begin(Name, Request) : -1) {}
  ~Scope() {
    if (Id >= 0)
      T.end(Id);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer &T;
  int32_t Id;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
