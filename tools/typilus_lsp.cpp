//===- tools/typilus_lsp.cpp - The language-server daemon ----------------------===//
//
// Typilus as an editor language server: load one model artifact, then
// speak LSP (JSON-RPC 2.0 over Content-Length frames) on stdio or a
// Unix-domain socket. Every didOpen/didChange runs the incremental loop
// — tombstone the file's τmap markers, re-embed only that file, answer
// through the shared kNN kernel — and publishes predicted types as
// diagnostics plus a `typilus/types` notification whose digest matches
// `typilus_cli predict --source` on the same text.
//
//   typilus_lsp --model model.typilus --stdio
//   typilus_lsp --model model.typilus --socket /tmp/typilus-lsp.sock
//
// SIGTERM/SIGINT end the session cleanly (exit 0 after a client
// `shutdown`, 1 otherwise, per the LSP spec).
//
//===----------------------------------------------------------------------===//

#include "RuntimeOptions.h"

#include "lsp/LspServer.h"
#include "support/Socket.h"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include <poll.h>
#include <unistd.h>

using namespace typilus;
using namespace typilus::lsp;

namespace {

struct Options {
  std::string ModelPath;
  std::string SocketPath;
  bool Stdio = false;
  tools::RuntimeOptions Runtime; ///< --threads, --ef-search, --no-simd.
  double MinConfidence = 0.5;
  bool NoCheckerGate = false;
  bool InferLocals = false;
};

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s --model PATH (--stdio | --socket PATH) [options]\n"
      "\n"
      "LSP server over a saved artifact: didOpen/didChange re-embed only\n"
      "the edited file and publish predicted types as diagnostics (and a\n"
      "typilus/types notification carrying the prediction digest).\n"
      "Options:\n"
      "  --min-confidence X     publish threshold (default 0.5)\n"
      "  --no-checker-gate      publish without the Sec. 6.3 checker gate\n"
      "  --infer-locals         pytype-like inference inside the gate\n"
      "%s",
      Argv0, tools::kRuntimeUsage);
  return 2;
}

bool parseOptions(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&] { return tools::flagValue(Argc, Argv, I); };
    const char *V = nullptr;
    if (A == "--model") {
      if (!(V = Next()))
        return false;
      O.ModelPath = V;
    } else if (A == "--socket") {
      if (!(V = Next()))
        return false;
      O.SocketPath = V;
    } else if (A == "--stdio") {
      O.Stdio = true;
    } else if (A == "--min-confidence") {
      if (!(V = Next()) ||
          !tools::parseFloatFlag("--min-confidence", V, 0, 1,
                                 "a probability in [0, 1]", &O.MinConfidence))
        return false;
    } else if (A == "--no-checker-gate") {
      O.NoCheckerGate = true;
    } else if (A == "--infer-locals") {
      O.InferLocals = true;
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

// SIGTERM/SIGINT: one self-pipe wakes a blocked frame read (the same
// idiom typilus_serve uses for its line reads).
int GWakePipe[2] = {-1, -1};
std::atomic<bool> GStop{false};

void onTermSignal(int) {
  bool Expected = false;
  if (GStop.compare_exchange_strong(Expected, true)) {
    char B = 1;
    (void)!write(GWakePipe[1], &B, 1);
  }
}

int runStdio(Predictor &P, const LspOptions &LO) {
  LspServer S(P,
              [](std::string Frame) { (void)writeAll(STDOUT_FILENO, Frame); },
              LO);
  return S.run(STDIN_FILENO, &GStop, GWakePipe[0]);
}

int runSocket(Predictor &P, const LspOptions &LO, const std::string &Path) {
  UnixListener L;
  std::string Err;
  if (!L.listenOn(Path, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  std::fprintf(stderr, "typilus_lsp: listening on %s\n", Path.c_str());
  // One editor session at a time: LSP clients own their server process,
  // and the τmap mutation state is per-session by design.
  int Rc = 1;
  while (!GStop.load()) {
    struct pollfd Pfd[2];
    Pfd[0].fd = L.fd();
    Pfd[0].events = POLLIN;
    Pfd[0].revents = 0;
    Pfd[1].fd = GWakePipe[0];
    Pfd[1].events = POLLIN;
    Pfd[1].revents = 0;
    if (::poll(Pfd, 2, -1) < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (Pfd[1].revents != 0 || GStop.load())
      break;
    FileDesc Conn = L.acceptConn();
    if (!Conn.valid())
      continue;
    int Fd = Conn.fd();
    LspServer S(P,
                [Fd](std::string Frame) { (void)writeAll(Fd, Frame); }, LO);
    Rc = S.run(Fd, &GStop, GWakePipe[0]);
  }
  L.close();
  return Rc;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseOptions(Argc, Argv, O))
    return 2;
  if (O.ModelPath.empty() || (O.Stdio == !O.SocketPath.empty()))
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

  std::string Err;
  std::unique_ptr<Predictor> P = Predictor::load(O.ModelPath, &Err);
  if (!P) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  O.Runtime.apply(*P);
  const ModelConfig &MC = P->model().config();
  // stdout is the protocol channel; human chatter goes to stderr.
  std::fprintf(stderr, "typilus_lsp: loaded %s (%s/%s, D=%d%s)\n",
               O.ModelPath.c_str(), encoderKindName(MC.Encoder),
               lossKindName(MC.Loss), MC.HiddenDim,
               P->isKnn() ? ", kNN" : ", classifier");

  LspOptions LO;
  LO.MinConfidence = O.MinConfidence;
  LO.CheckerGate = !O.NoCheckerGate;
  LO.InferLocals = O.InferLocals;

  return O.Stdio ? runStdio(*P, LO) : runSocket(*P, LO, O.SocketPath);
}
