//===- perfbench/src/Serve.cpp - serve_miss ---------------------------------===//
//
// Drives typilus_serve over TCP with distinct, never-seen sources: an open
// loop at a light and a heavy fixed rate, and a saturating closed loop for
// the capacity. Every response is checked byte for byte against the line
// the in-process replay serializes for the same request.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "corpus/Dataset.h"
#include "pyfront/Parser.h"
#include "pyfront/SymbolTable.h"
#include "serve/Protocol.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/Socket.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

using namespace typilus;

namespace perfbench {
namespace {

/// Fixed arrival rates (requests/s), absolute so a faster program meets
/// the same offered load. On a four-core x86-64 host at the commit that
/// introduced the benchmark (--threads 2, ~10 ms of single-thread work
/// per miss) the daemon completes ~140-160 misses/s in the capacity
/// phase. Light is ~0.3x of that. Heavy is ~0.6x rather than 0.8x,
/// because on a shared host the daemon's speed swings by 15% or more for
/// seconds at a time and at 0.8x such a swing saturates it.
constexpr double kLightRps = 40, kHeavyRps = 90;

/// Requests the capacity phase keeps outstanding: two of the daemon's
/// default 16-request batches, so the next batch is queued while one runs.
constexpr size_t kCapacityDepth = 32;
/// The capacity phase's request pool is sized for this rate; the daemon
/// here completes well under a fifth of it.
constexpr double kCapacityPoolRps = 1000;

/// The light and capacity phases run in chunks spread over the window,
/// so one slow spell of the host cannot cover all of either.
constexpr size_t kLightChunks = 3, kCapacityChunks = 2;

/// Requests the traced run replays span by span.
constexpr size_t kTracedRequests = 200;

struct Req {
  int64_t Id = 0;
  size_t Entry = 0; ///< Index into the source pool.
  std::string Line;
  Timeline T;
  std::string Response;
  bool FixedRate = false; ///< Sent in the light or heavy phase.
};

/// The open-loop generator: one thread, up to two connections, due-time
/// scheduling with ppoll, responses matched by id and kept for checking.
class LoadGen {
public:
  void add(FileDesc Fd) {
    int Flags = ::fcntl(Fd.fd(), F_GETFL);
    ::fcntl(Fd.fd(), F_SETFL, Flags | O_NONBLOCK);
    setTcpNoDelay(Fd.fd());
    Conns.push_back(Conn{std::move(Fd), {}, 0, {}});
  }

  /// Sends \p Reqs at \p Rps from due times and waits until each is
  /// answered (or ten seconds after the last due time).
  void phase(const std::vector<Req *> &Reqs, double Rps) {
    double Start = nowUs() + 2000;
    size_t Next = 0, RR = 0;
    double LastDue = dueUs(Start, Rps, Reqs.empty() ? 0 : Reqs.size() - 1);
    for (;;) {
      double Now = nowUs();
      while (Next < Reqs.size() && dueUs(Start, Rps, Next) <= Now) {
        Req *R = Reqs[Next];
        R->T.DueUs = dueUs(Start, Rps, Next);
        send(*R, Now, Conns[RR++ % Conns.size()]);
        ++Next;
      }
      if (Next == Reqs.size() && (Pending.empty() || Now > LastDue + 10e6))
        break;
      double WaitUs = Next < Reqs.size() ? dueUs(Start, Rps, Next) - Now : 20000;
      pump(std::max(0.0, WaitUs));
    }
    Pending.clear();
  }

  /// A closed loop that keeps \p Depth of \p Reqs outstanding for
  /// \p ForUs, then waits (at most ten seconds) for those still in flight.
  /// A request is due when it is sent. \returns when the loop started.
  double closedLoop(const std::vector<Req *> &Reqs, size_t Depth, double ForUs) {
    double Start = nowUs(), End = Start + ForUs;
    size_t Next = 0, RR = 0;
    for (double Now = Start;; Now = nowUs()) {
      while (Now < End && Next < Reqs.size() && Pending.size() < Depth) {
        Req *R = Reqs[Next++];
        R->T.DueUs = Now;
        send(*R, Now, Conns[RR++ % Conns.size()]);
      }
      if (Now >= End + 10e6 || (Now >= End && Pending.empty()))
        break;
      pump(Now < End ? std::min(20000.0, End - Now) : 20000);
    }
    Pending.clear();
    return Start;
  }

  /// One request/response exchange on the first connection while no
  /// predict is in flight (ping, stats). \returns "" on timeout.
  std::string control(const std::string &Method, bool Reset = false) {
    int64_t Id = ++ControlIds;
    std::string Line = "{\"id\":" + std::to_string(Id) + ",\"method\":\"" +
                       Method + "\"" + (Reset ? ",\"reset\":true}\n" : "}\n");
    Conns[0].Out.append(Line);
    flush(Conns[0]);
    double Deadline = nowUs() + 30e6;
    while (nowUs() < Deadline) {
      auto It = Control.find(Id);
      if (It != Control.end()) {
        std::string R = std::move(It->second);
        Control.erase(It);
        return R;
      }
      pump(20000);
    }
    return {};
  }

private:
  struct Conn {
    FileDesc Fd;
    std::string Out;
    size_t OutPos = 0;
    std::string In;
  };

  void send(Req &R, double Now, Conn &C) {
    R.T.SentUs = Now;
    Pending[R.Id] = &R;
    C.Out.append(R.Line);
    flush(C);
  }

  void flush(Conn &C) {
    while (C.OutPos < C.Out.size()) {
      ssize_t N = ::write(C.Fd.fd(), C.Out.data() + C.OutPos, C.Out.size() - C.OutPos);
      if (N <= 0)
        break;
      C.OutPos += static_cast<size_t>(N);
    }
    if (C.OutPos == C.Out.size()) {
      C.Out.clear();
      C.OutPos = 0;
    }
  }

  void pump(double WaitUs) {
    pollfd Ps[2];
    size_t N = Conns.size();
    for (size_t I = 0; I != N; ++I)
      Ps[I] = {Conns[I].Fd.fd(),
               static_cast<short>(POLLIN | (Conns[I].Out.empty() ? 0 : POLLOUT)), 0};
    timespec Ts{static_cast<time_t>(WaitUs / 1e6),
                static_cast<long>(std::fmod(WaitUs, 1e6) * 1000)};
    if (::ppoll(Ps, N, &Ts, nullptr) <= 0)
      return;
    double Now = nowUs();
    for (size_t I = 0; I != N; ++I) {
      Conn &C = Conns[I];
      if (Ps[I].revents & POLLOUT)
        flush(C);
      if (!(Ps[I].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      char Buf[1 << 16];
      for (;;) {
        ssize_t Got = ::read(C.Fd.fd(), Buf, sizeof(Buf));
        if (Got <= 0)
          break;
        C.In.append(Buf, static_cast<size_t>(Got));
      }
      size_t Pos = 0, Nl;
      while ((Nl = C.In.find('\n', Pos)) != std::string::npos) {
        std::string Line = C.In.substr(Pos, Nl - Pos);
        Pos = Nl + 1;
        int64_t Id = responseId(Line);
        auto It = Pending.find(Id);
        if (It != Pending.end()) {
          It->second->T.DoneUs = Now;
          It->second->T.Ok = true; // until the replay check says otherwise
          It->second->Response = std::move(Line);
          Pending.erase(It);
        } else {
          Control[Id] = std::move(Line);
        }
      }
      C.In.erase(0, Pos);
    }
  }

  std::vector<Conn> Conns;
  std::unordered_map<int64_t, Req *> Pending;
  std::unordered_map<int64_t, std::string> Control;
  int64_t ControlIds = 1000000000;
};

PhaseStats phaseOf(const std::vector<Req *> &Rs) {
  std::vector<Timeline> Ts;
  for (const Req *R : Rs)
    Ts.push_back(R->T);
  return summarizePhase(Ts);
}

std::string requestLine(int64_t Id, const CorpusFile &F) {
  std::string L = "{\"id\":" + std::to_string(Id) + ",\"method\":\"predict\",\"path\":";
  json::appendQuoted(L, F.Path);
  L += ",\"source\":";
  json::appendQuoted(L, F.Source);
  L += "}\n";
  return L;
}

/// A stats response's counters (missing ones read 0).
struct Stats {
  json::Value V;
  double get(const char *K) const {
    const json::Value *X = V.find(K);
    return X && X->isNumber() ? X->asNumber() : 0;
  }
};
Stats parseStats(const std::string &Line) {
  Stats S;
  std::string Err;
  if (!json::parse(Line, S.V, &Err) || !S.V.isObject())
    throw std::runtime_error("unreadable stats response: " + Line);
  return S;
}

/// Graph and target sizes over the files a replay built.
struct FileCounts {
  double Nodes = 0, Edges = 0, Targets = 0;
  size_t Files = 0;
};

/// The daemon's per-request path, called layer by layer: request parse,
/// pyfront, graph, target resolution, predictBatch (its embed and kNN
/// parts from the predictor's own timers), response serialization.
std::string tracedRequest(Tracer &T, Predictor &P, const Req &R,
                          FileCounts *Counts) {
  Scope Root(T, "serve.request", R.Id);
  serve::Request Parsed;
  {
    Scope S(T, "serve.parseRequest", R.Id);
    std::string Err;
    if (!serve::parseRequest(std::string_view(R.Line).substr(0, R.Line.size() - 1),
                             Parsed, &Err))
      throw std::runtime_error("replayed request does not parse: " + Err);
  }
  FileExample Ex;
  Ex.Path = Parsed.Path;
  ParsedFile PF;
  {
    Scope S(T, "pyfront.parseFile", R.Id);
    PF = parseFile(Parsed.Path, Parsed.Source);
  }
  SymbolTable ST;
  {
    Scope S(T, "pyfront.buildSymbolTable", R.Id);
    buildSymbolTable(PF, ST);
  }
  {
    Scope S(T, "graph.buildGraph", R.Id);
    Ex.Graph = buildGraph(PF, ST, {});
  }
  resolveTargets(Ex, *P.universe());
  std::vector<std::vector<PredictionResult>> Preds;
  {
    Scope S(T, "core.predictBatch", R.Id);
    uint64_t E0 = P.embedMicros(), K0 = P.knnMicros();
    Preds = P.predictBatch({&Ex});
    T.derived("models.embed", static_cast<int64_t>(P.embedMicros() - E0) * 1000);
    T.derived("knn.query", static_cast<int64_t>(P.knnMicros() - K0) * 1000);
  }
  std::string Line;
  {
    Scope S(T, "serve.predictResponse", R.Id);
    Line = serve::predictResponse(Parsed.Id, Parsed.Path, Preds.front(), Parsed.Limit);
  }
  if (Counts) {
    Counts->Nodes += static_cast<double>(Ex.Graph.numNodes());
    Counts->Edges += static_cast<double>(Ex.Graph.numEdges());
    Counts->Targets += static_cast<double>(Ex.Targets.size());
    ++Counts->Files;
  }
  return Line;
}

} // namespace

void runServe(const Args &A, Result &Res) {
  setGlobalNumThreads(0);
  // ---- Set-up, repeated: corpus, training, artifact, daemon start, first
  // ---- answered request.
  std::vector<double> SetupS, SaveMs, LoadMs;
  Stack St;
  std::unique_ptr<Child> Daemon;
  LoadGen Gen;
  uint64_t FirstDigest = 0;
  for (int Rep = 0; Rep != kSetupReps; ++Rep) {
    Daemon.reset();
    double T0 = nowUs();
    St = buildStack(A);
    Daemon = std::make_unique<Child>(
        std::vector<std::string>{PERFBENCH_SERVE_BIN, "--model", St.ArtifactPath,
                                 "--port", "0", "--threads",
                                 std::to_string(kProgramThreads)},
        A.WorkDir + "/serve.log");
    int Port = -1;
    std::string Line;
    while (Port < 0 && Daemon->readLine(Line, 60000)) {
      size_t P = Line.find("listening on 127.0.0.1:");
      if (P != std::string::npos)
        Port = std::atoi(Line.c_str() + P + 23);
    }
    if (Port < 0)
      throw std::runtime_error("typilus_serve did not start (see serve.log)");
    Gen = LoadGen();
    for (int C = 0; C != 2; ++C) {
      FileDesc Fd;
      std::string Err;
      if (!connectTcp("127.0.0.1", static_cast<uint16_t>(Port), Fd, &Err))
        throw std::runtime_error("connect: " + Err);
      Gen.add(std::move(Fd));
    }
    if (Gen.control("ping").find("\"pong\":true") == std::string::npos)
      throw std::runtime_error("typilus_serve did not answer ping");
    SetupS.push_back((nowUs() - T0) / 1e6);
    SaveMs.push_back(St.SaveMs);
    LoadMs.push_back(St.LoadMs);
    if (Rep == 0)
      FirstDigest = St.ArtifactDigest;
    else if (St.ArtifactDigest != FirstDigest)
      Res.fail("set-up " + std::to_string(Rep) + " trained a different artifact");
  }
  Predictor &P = *St.Replay;

  // ---- Inputs: distinct sources the daemon has never seen. Each phase
  // ---- sends a fixed set of them; the seed orders each set. The
  // ---- fixed-rate phases take theirs first, so which sources they (and
  // ---- the accuracy figure) cover does not depend on how far the
  // ---- capacity phase got. The light and capacity phases, which the
  // ---- contract latencies and throughput come from, take most of the
  // ---- window.
  double ChunkS = 0.18 * A.Seconds, HeavyS = 0.1 * A.Seconds, CapChunkS = 0.15 * A.Seconds;
  auto NWarm = static_cast<size_t>(kLightRps / 2);
  auto NChunk = static_cast<size_t>(kLightRps * ChunkS);
  auto NHeavy = static_cast<size_t>(kHeavyRps * HeavyS);
  auto NCapChunk = static_cast<size_t>(kCapacityPoolRps * CapChunkS);
  size_t NTotal = NWarm + kLightChunks * NChunk + NHeavy + kCapacityChunks * NCapChunk;
  std::vector<CorpusFile> Pool =
      distinctSources(kProjectSeed, kTrainFiles, NTotal, kProjectSeed, "req");
  std::vector<Req> Reqs(NTotal);
  size_t Cursor = 0;
  auto Take = [&](size_t N, bool FixedRate) {
    std::vector<Req *> Out;
    for (size_t I = 0; I != N; ++I, ++Cursor) {
      Req &R = Reqs[Cursor];
      R.Id = static_cast<int64_t>(Cursor) + 1;
      R.Entry = Cursor;
      R.Line = requestLine(R.Id, Pool[Cursor]);
      R.FixedRate = FixedRate;
      Out.push_back(&R);
    }
    return Out;
  };
  Rng Order(streamSeed(A, "miss"));
  std::vector<Req *> Warm = Take(NWarm, false);
  std::vector<Req *> Light = Take(kLightChunks * NChunk, true);
  Order.shuffle(Light);
  std::vector<std::vector<Req *>> Chunks;
  for (size_t C = 0; C != kLightChunks; ++C)
    Chunks.emplace_back(Light.begin() + static_cast<long>(C * NChunk),
                        Light.begin() + static_cast<long>((C + 1) * NChunk));
  std::vector<Req *> HeavyReqs = Take(NHeavy, true);
  Order.shuffle(HeavyReqs);
  std::vector<std::vector<Req *>> CapChunks;
  for (size_t C = 0; C != kCapacityChunks; ++C) {
    CapChunks.push_back(Take(NCapChunk, false));
    Order.shuffle(CapChunks.back());
  }

  // ---- The timed window: warm-up, light, capacity, heavy, light,
  // ---- capacity, light.
  // ---- Each phase's daemon stats are read and reset after it.
  std::vector<Stats> Seen;
  Gen.phase(Warm, kLightRps);
  Seen.push_back(parseStats(Gen.control("stats", /*Reset=*/true)));
  auto LightChunk = [&](size_t C) {
    Gen.phase(Chunks[C], kLightRps);
    Seen.push_back(parseStats(Gen.control("stats", true)));
  };
  // The capacity phase's completion rate, over its chunks' windows.
  double CapDone = 0;
  auto CapacityChunk = [&](size_t C) {
    double Start = Gen.closedLoop(CapChunks[C], kCapacityDepth, CapChunkS * 1e6);
    Seen.push_back(parseStats(Gen.control("stats", true)));
    std::vector<Timeline> Ts;
    for (const Req *R : CapChunks[C])
      Ts.push_back(R->T);
    CapDone += completionRate(Ts, Start, Start + CapChunkS * 1e6) * CapChunkS;
  };
  LightChunk(0);
  CapacityChunk(0);
  Gen.phase(HeavyReqs, kHeavyRps);
  Stats HeavyStats = parseStats(Gen.control("stats", true));
  Seen.push_back(HeavyStats);
  LightChunk(1);
  CapacityChunk(1);
  LightChunk(2);
  double PeakMb = Daemon->peakRssMb();
  Daemon->stop(/*GraceMs=*/0);

  // ---- Correctness: replay every source the daemon was sent through the
  // ---- same artifact, in process, and compare each response.
  setGlobalNumThreads(0);
  std::vector<std::vector<PredictionResult>> Expected(Pool.size());
  for (size_t B = 0; B < Cursor; B += 64) {
    std::vector<CorpusFile> Batch;
    std::vector<size_t> At;
    for (size_t I = B; I < std::min(Cursor, B + 64); ++I)
      if (Reqs[I].T.SentUs >= 0) {
        Batch.push_back(Pool[I]);
        At.push_back(I);
      }
    auto Out = P.predictSources(Batch);
    for (size_t I = 0; I != Out.size(); ++I)
      Expected[At[I]] = std::move(Out[I]);
  }
  size_t Targets = 0, Exact = 0, Responses = 0;
  double ResponseBytes = 0;
  for (size_t I = 0; I != Cursor; ++I) {
    Req &R = Reqs[I];
    if (R.T.SentUs < 0)
      continue;
    ++Res.Attempted;
    if (R.T.DoneUs < 0) {
      Res.fail("request " + std::to_string(R.Id) + " unanswered");
      continue;
    }
    std::string Why;
    const auto &Preds = Expected[R.Entry];
    std::string Want = serve::predictResponse(R.Id, Pool[R.Entry].Path, Preds, -1);
    R.T.Ok = checkResponse(R.Response, Want, &Why);
    if (!R.T.Ok)
      Res.fail("request " + std::to_string(R.Id) + ": " + Why);
    // Accuracy and response sizes over the fixed-rate phases only.
    if (!R.FixedRate)
      continue;
    ResponseBytes += static_cast<double>(R.Response.size());
    ++Responses;
    for (const PredictionResult &PR : Preds)
      if (PR.Truth) {
        ++Targets;
        Exact += R.T.Ok && PR.top() == PR.Truth;
      }
  }
  double Hits = 0, Overloaded = 0;
  for (const Stats &S : Seen) {
    Hits += S.get("cache_hits");
    Overloaded += S.get("overloaded");
  }
  if (Hits != 0)
    Res.fail("serve_miss recorded " + std::to_string(Hits) + " cache hits");

  // ---- Metrics. Contract latencies: the whole light phase, from due
  // ---- time. Contract throughput: the capacity phase's completion rate.
  std::vector<Req *> LightReqs;
  for (const auto &C : Chunks)
    LightReqs.insert(LightReqs.end(), C.begin(), C.end());
  PhaseStats LightPS = phaseOf(LightReqs), HeavyPS = phaseOf(HeavyReqs);
  std::vector<Req *> CapacityReqs;
  for (const auto &C : CapChunks)
    CapacityReqs.insert(CapacityReqs.end(), C.begin(), C.end());
  PhaseStats CapPS = phaseOf(CapacityReqs);
  double Capacity = CapDone / (kCapacityChunks * CapChunkS);
  Res.e2e("setup_s", median(SetupS), SetupS.size());
  Res.e2e("latency_p50_ms", LightPS.Latency.P50Ms, LightPS.Latency.Count);
  Res.e2e("latency_p90_ms", LightPS.Latency.P90Ms, LightPS.Latency.Count);
  Res.e2e("throughput_per_s", Capacity, CapPS.Answered);
  Res.e2e("peak_rss_mb", PeakMb, 1);
  Res.e2e("top1_exact_pct", Targets ? 100.0 * static_cast<double>(Exact) /
                                          static_cast<double>(Targets)
                                    : 0,
          Targets);
  for (const char *K : {"predict_mean_us", "embed_mean_us", "knn_mean_us"})
    Res.rec(std::string("heavy.daemon.") + K, HeavyStats.get(K), "us", HeavyPS.Sent);
  for (auto [Name, PS, Rps] : {std::tuple{"light", &LightPS, kLightRps},
                              std::tuple{"heavy", &HeavyPS, kHeavyRps}}) {
    std::string N = Name;
    Res.rec(N + ".rate_rps", Rps, "1/s", PS->Sent);
    Res.rec(N + ".latency_p50_ms", PS->Latency.P50Ms, "ms", PS->Latency.Count);
    Res.rec(N + ".latency_p90_ms", PS->Latency.P90Ms, "ms", PS->Latency.Count);
    Res.rec(N + ".latency_tail_pct", PS->Latency.TailPct, "pct", PS->Latency.Count);
    Res.rec(N + ".latency_tail_ms", PS->Latency.TailMs, "ms", PS->Latency.Count);
    Res.rec(N + ".lag_tail_ms", PS->Lag.TailMs, "ms", PS->Lag.Count);
  }
  Res.rec("capacity_rps", Capacity, "1/s", CapPS.Answered);
  Res.rec("capacity.latency_p50_ms", CapPS.Latency.P50Ms, "ms", CapPS.Latency.Count);
  Res.rec("fail_share", Res.Attempted ? static_cast<double>(Res.Failed) /
                                            static_cast<double>(Res.Attempted)
                                      : 0,
          "ratio", Res.Attempted);

  double Batches = std::max(1.0, HeavyStats.get("batches"));
  double Requests = std::max(1.0, HeavyStats.get("requests"));
  double Lookups = HeavyStats.get("cache_hits") + HeavyStats.get("cache_misses");
  Res.layer("serve.queue_wait_mean_us", HeavyStats.get("queue_wait_mean_us"), HeavyPS.Sent);
  Res.layer("serve.queue_wait_max_us", HeavyStats.get("queue_wait_max_us"), HeavyPS.Sent);
  Res.layer("serve.batch_mean", Requests / Batches, static_cast<size_t>(Batches));
  Res.layer("serve.batch_max", HeavyStats.get("max_coalesced"), static_cast<size_t>(Batches));
  Res.layer("serve.cache_hit_ratio", Lookups ? HeavyStats.get("cache_hits") / Lookups : 0,
            static_cast<size_t>(Lookups));
  Res.layer("serve.collapsed", HeavyStats.get("collapsed"), HeavyPS.Sent);
  Res.layer("serve.overloaded", Overloaded, Res.Attempted);
  Res.layer("protocol.response_bytes",
            Responses ? ResponseBytes / static_cast<double>(Responses) : 0, Responses);
  Res.layer("loadgen.lag_tail_ms", HeavyPS.Lag.TailMs, HeavyPS.Lag.Count);
  Res.layer("loadgen.sent", static_cast<double>(Res.Attempted), 1);
  Res.layer("loadgen.ok", static_cast<double>(Res.Attempted - Res.Failed), 1);
  Res.layer("loadgen.failed", static_cast<double>(Res.Failed), 1);
  Res.layer("knn.markers", static_cast<double>(P.typeMap().size()), 1);
  Res.layer("artifact.save_ms", median(SaveMs), SaveMs.size());
  Res.layer("artifact.load_ms", median(LoadMs), LoadMs.size());

  if (!A.Trace)
    return;
  // ---- Traced run: the first heavy-phase requests, span by span, once
  // ---- with tracing off and once on; both must reproduce the served
  // ---- responses.
  setGlobalNumThreads(kProgramThreads);
  std::vector<Req *> Sample(HeavyReqs.begin(),
                            HeavyReqs.begin() + static_cast<long>(std::min(kTracedRequests, HeavyReqs.size())));
  // Each request runs untraced and traced back to back (alternating
  // which goes first), so drift on the host cancels out of the overhead.
  Tracer Off(false), On(true);
  FileCounts Counts;
  double OffUs = 0, OnUs = 0;
  for (size_t I = 0; I != Sample.size(); ++I) {
    for (int K = 0; K != 2; ++K) {
      bool Traced = (I + static_cast<size_t>(K)) % 2 == 1;
      double T0 = nowUs();
      std::string Line = tracedRequest(Traced ? On : Off, P, *Sample[I],
                                       Traced ? &Counts : nullptr);
      (Traced ? OnUs : OffUs) += nowUs() - T0;
      if (!checkResponse(Sample[I]->Response, Line, nullptr))
        Res.fail("traced replay of request " + std::to_string(Sample[I]->Id) +
                 (Traced ? " (tracing on)" : " (tracing off)") + " differs");
    }
  }
  auto L = On.layerTimes();
  size_t N = Sample.size();
  double Files = std::max<double>(1, static_cast<double>(Counts.Files));
  Res.layer("pyfront.parse_us", perCall(L, "pyfront.parseFile"), N);
  Res.layer("pyfront.symtab_us", perCall(L, "pyfront.buildSymbolTable"), N);
  Res.layer("graph.build_us", perCall(L, "graph.buildGraph"), N);
  Res.layer("graph.nodes_per_file", Counts.Nodes / Files, Counts.Files);
  Res.layer("graph.edges_per_file", Counts.Edges / Files, Counts.Files);
  Res.layer("models.embed_us", perCall(L, "models.embed"), N);
  Res.layer("models.targets_per_file", Counts.Targets / Files, Counts.Files);
  Res.layer("knn.query_us", perCall(L, "knn.query"), N);
  Res.layer("core.score_us", perCall(L, "core.predictBatch"), N);
  Res.layer("protocol.parse_request_us", perCall(L, "serve.parseRequest"), N);
  Res.layer("protocol.serialize_us", perCall(L, "serve.predictResponse"), N);
  Res.layer("trace.op_us", perCall(L, "serve.request", false), N);
  Res.layer("trace.remainder_us", perCall(L, "serve.request"), N);
  Res.layer("trace.overhead_pct", OffUs > 0 ? 100.0 * (OnUs - OffUs) / OffUs : 0, N);
  On.writeChromeTrace(A.WorkDir + "/trace.json");
}

} // namespace perfbench
