//===- tools/typilus_serve.cpp - The serving daemon ----------------------------===//
//
// The deployment story of Fig. 1 as a long-lived process: load one model
// artifact at startup (~ms thanks to the Annoy snapshot), then answer
// newline-delimited JSON predict requests over a Unix-domain socket, TCP
// (--port), or stdin/stdout with --stdio — until SIGTERM. Concurrent
// requests coalesce into batches served through Predictor::predictBatch,
// repeated (path, source) requests answer from an LRU response cache,
// and SIGHUP (or a `reload` request) hot-swaps a freshly loaded artifact
// without dropping queued requests. Responses are bit-identical to
// one-shot `typilus_cli predict` on every transport.
//
//   typilus_serve --model model.typilus --socket /tmp/typilus.sock
//   typilus_serve --model model.typilus --port 8401
//   typilus_cli client --tcp 127.0.0.1:8401 --source file.py
//
// Shutdown (SIGTERM/SIGINT or a `shutdown` request) drains: accepting
// stops, queued requests are answered, connections close, exit 0.
//
//===----------------------------------------------------------------------===//

#include "RuntimeOptions.h"

#include "corpus/Dataset.h"
#include "serve/Server.h"
#include "support/Socket.h"

#include <atomic>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

using namespace typilus;
using namespace typilus::serve;

namespace {

struct Options {
  std::string ModelPath;
  std::string SocketPath;
  std::string Host = "127.0.0.1";
  int Port = -1; ///< -1 = no TCP transport.
  bool Stdio = false;
  tools::RuntimeOptions Runtime; ///< --threads, --ef-search, --no-simd.
  int MaxBatch = 16;
  long MaxRequestBytes = static_cast<long>(kDefaultMaxRequestBytes);
  int Limit = -1;
  int CacheEntries = 1024;
  int MaxQueue = 0;
};

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s --model PATH (--socket PATH | --port N | --stdio) "
      "[options]\n"
      "\n"
      "Long-lived serving daemon: loads the artifact once and answers\n"
      "newline-delimited JSON predict requests (protocol grammar in\n"
      "docs/ARCHITECTURE.md). --socket and --port may be combined; both\n"
      "transports share one pipeline and one cache. SIGHUP reloads the\n"
      "artifact from --model without dropping queued requests. Options:\n"
      "  --host ADDR            TCP bind address (default 127.0.0.1)\n"
      "  --max-batch N          requests coalesced per dispatch (default 16)\n"
      "  --max-request-bytes N  per-line cap (default 4194304)\n"
      "  --limit N              default candidates per symbol (-1 = all)\n"
      "  --cache-entries N      response-cache capacity in distinct\n"
      "                         (path, source) entries (default 1024,\n"
      "                         0 = off)\n"
      "  --max-queue N          shed predicts with an `overloaded` error\n"
      "                         past this queue depth (default 0 = off)\n"
      "%s",
      Argv0, tools::kRuntimeUsage);
  return 2;
}

bool parseOptions(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&] { return tools::flagValue(Argc, Argv, I); };
    auto IntFlag = [&](long Min, long Max, const char *What, auto *Out) {
      const char *V = Next();
      return V && tools::parseIntFlag(A.c_str(), V, Min, Max, What, Out);
    };
    const char *V = nullptr;
    if (A == "--model") {
      if (!(V = Next()))
        return false;
      O.ModelPath = V;
    } else if (A == "--socket") {
      if (!(V = Next()))
        return false;
      O.SocketPath = V;
    } else if (A == "--port") {
      if (!IntFlag(0, 65535, "a port number in 0..65535", &O.Port))
        return false;
    } else if (A == "--host") {
      if (!(V = Next()))
        return false;
      O.Host = V;
    } else if (A == "--stdio") {
      O.Stdio = true;
    } else if (A == "--max-batch") {
      if (!IntFlag(1, INT_MAX, "a positive batch size", &O.MaxBatch))
        return false;
    } else if (A == "--max-request-bytes") {
      if (!IntFlag(1, LONG_MAX, "a positive byte count", &O.MaxRequestBytes))
        return false;
    } else if (A == "--limit") {
      if (!IntFlag(-1, INT_MAX, "a count (-1 = all)", &O.Limit))
        return false;
    } else if (A == "--cache-entries") {
      if (!IntFlag(0, INT_MAX, "a non-negative entry count", &O.CacheEntries))
        return false;
    } else if (A == "--max-queue") {
      if (!IntFlag(0, INT_MAX, "a non-negative queue depth", &O.MaxQueue))
        return false;
    } else if (int R = O.Runtime.parse(Argc, Argv, I)) {
      if (R < 0)
        return false;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", A.c_str());
      return false;
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Signal handling: one self-pipe wakes the accept loop (or the stdio
// LineReader) for both SIGTERM/SIGINT (drain + exit) and SIGHUP (hot
// reload), with nothing async-signal-unsafe in the handlers. The wake
// hooks drain the pipe and read these flags to decide which it was.
//===----------------------------------------------------------------------===//

int GWakePipe[2] = {-1, -1};
std::atomic<bool> GStop{false};
std::atomic<bool> GReload{false};

void pokePipe() {
  char B = 1;
  // The pipe outlives every writer; a full pipe still wakes the poller.
  (void)!write(GWakePipe[1], &B, 1);
}

void requestStop() {
  bool Expected = false;
  if (GStop.compare_exchange_strong(Expected, true))
    pokePipe();
}

void onTermSignal(int) { requestStop(); }

void onHupSignal(int) {
  bool Expected = false;
  if (GReload.compare_exchange_strong(Expected, true))
    pokePipe();
}

void drainWakePipe() {
  char Buf[64];
  (void)!read(GWakePipe[0], Buf, sizeof(Buf));
}

/// Submits a reload request on behalf of a SIGHUP (no client, no id);
/// the outcome is logged instead of answered.
void submitSignalReload(Server &S) {
  Request R;
  R.Id = -1;
  R.M = Method::Reload;
  S.submit(std::move(R), [](std::string Resp) {
    std::fprintf(stderr, "typilus_serve: SIGHUP reload: %s", Resp.c_str());
  });
}

/// Shared SIGTERM/SIGHUP dispatch for both transports' wake hooks.
/// \returns true when the daemon should begin its drain.
bool handleWake(Server &S) {
  drainWakePipe();
  if (GStop.load())
    return true;
  if (GReload.exchange(false))
    submitSignalReload(S);
  return false;
}

//===----------------------------------------------------------------------===//
// Modes (all drive serve::serveStream; only the transport differs)
//===----------------------------------------------------------------------===//

int runStdio(Server &S, const Options &O) {
  // stdout is borrowed, never closed; a write lock serializes the
  // reader's protocol errors with the dispatcher's responses.
  auto WriteMu = std::make_shared<std::mutex>();
  serveStream(
      STDIN_FILENO, static_cast<size_t>(O.MaxRequestBytes), S,
      [WriteMu](std::string Resp) {
        std::lock_guard<std::mutex> L(*WriteMu);
        (void)writeAll(STDOUT_FILENO, Resp);
      },
      &GStop, /*WakeFd=*/GWakePipe[0], /*OnWake=*/[&S] { return handleWake(S); });
  S.stop(); // drain: every submitted request is answered
  return 0;
}

int runListeners(Server &S, const Options &O) {
  UnixListener UL;
  TcpListener TL;
  std::vector<int> ListenFds;
  std::string Err;
  if (!O.SocketPath.empty()) {
    if (!UL.listenOn(O.SocketPath, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    ListenFds.push_back(UL.fd());
    std::printf("typilus_serve: listening on %s\n", O.SocketPath.c_str());
  }
  if (O.Port >= 0) {
    if (!TL.listenOn(O.Host, static_cast<uint16_t>(O.Port), &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    ListenFds.push_back(TL.fd());
    std::printf("typilus_serve: listening on %s:%u\n", O.Host.c_str(),
                static_cast<unsigned>(TL.port()));
  }
  std::fflush(stdout);

  AcceptLoopOptions AO;
  AO.MaxRequestBytes = static_cast<size_t>(O.MaxRequestBytes);
  AO.WakeFd = GWakePipe[0];
  AO.OnWake = [&S] { return handleWake(S); };
  AO.OnDrainStart = [&UL, &TL] {
    UL.close();
    TL.close();
  };
  acceptLoop(ListenFds, S, AO);
  std::printf("typilus_serve: drained, exiting\n");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseOptions(Argc, Argv, O))
    return 2;
  bool HaveListener = !O.SocketPath.empty() || O.Port >= 0;
  if (O.ModelPath.empty() || (!HaveListener && !O.Stdio) ||
      (HaveListener && O.Stdio))
    return usage(Argv[0]);

  if (::pipe(GWakePipe) != 0) {
    std::perror("pipe");
    return 1;
  }
  std::signal(SIGPIPE, SIG_IGN);
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onTermSignal;
  sigaction(SIGTERM, &SA, nullptr);
  sigaction(SIGINT, &SA, nullptr);
  SA.sa_handler = onHupSignal;
  sigaction(SIGHUP, &SA, nullptr);

  std::string Err;
  std::unique_ptr<Predictor> P = Predictor::load(O.ModelPath, &Err);
  if (!P) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  O.Runtime.apply(*P);
  const ModelConfig &MC = P->model().config();
  // In stdio mode stdout IS the response channel — NDJSON only; human
  // chatter goes to stderr there.
  std::fprintf(O.Stdio ? stderr : stdout,
               "typilus_serve: loaded %s (%s/%s, D=%d%s, max-batch %d, "
               "cache %d, max-queue %d)\n",
               O.ModelPath.c_str(), encoderKindName(MC.Encoder),
               lossKindName(MC.Loss), MC.HiddenDim,
               P->isKnn() ? ", kNN" : ", classifier", O.MaxBatch,
               O.CacheEntries, O.MaxQueue);
  std::fflush(O.Stdio ? stderr : stdout);

  ServerOptions SO;
  SO.MaxBatch = O.MaxBatch;
  SO.Limit = O.Limit;
  SO.CacheEntries = O.CacheEntries;
  SO.MaxQueue = O.MaxQueue;
  SO.OnShutdown = [] { requestStop(); };
  // Hot reload: re-read the artifact from the path given at startup.
  // Runs on the dispatcher thread; failure keeps the current artifact.
  SO.OnReload = [ModelPath = O.ModelPath, Runtime = O.Runtime,
                 Stdio = O.Stdio](std::string *Err) -> std::shared_ptr<Predictor> {
    std::shared_ptr<Predictor> NewP = Predictor::load(ModelPath, Err);
    if (!NewP)
      return nullptr;
    Runtime.apply(*NewP);
    std::fprintf(Stdio ? stderr : stdout, "typilus_serve: reloaded %s\n",
                 ModelPath.c_str());
    std::fflush(Stdio ? stderr : stdout);
    return NewP;
  };
  Server S(*P, *P->universe(), SO);

  int Rc = O.Stdio ? runStdio(S, O) : runListeners(S, O);
  S.stop();
  return Rc;
}
