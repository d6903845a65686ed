//===- serve/Server.cpp - Batched request pipeline -----------------------------===//

#include "serve/Server.h"

#include "support/Hash.h"
#include "support/Socket.h"

#include <algorithm>
#include <cerrno>
#include <exception>
#include <map>
#include <string_view>
#include <utility>

#include <poll.h>
#include <sys/socket.h>

using namespace typilus;
using namespace typilus::serve;

uint64_t serve::sourceDigest(std::string_view Source) {
  return fnv1a(Source, Fnv1a::TruncatedOffset);
}

Server::Server(Predictor &P, TypeUniverse &U, ServerOptions O)
    : Pred(&P), U(&U), Opts(std::move(O)) {
  if (Opts.MaxBatch < 1)
    Opts.MaxBatch = 1;
  if (Opts.CacheEntries < 0)
    Opts.CacheEntries = 0;
  if (Opts.MaxQueue < 0)
    Opts.MaxQueue = 0;
  // predictSources resolves the universe through the predictor; a
  // live-model predictor needs to be pointed at the caller's.
  P.setUniverse(U);
  registerMethods();
  Dispatcher = std::thread([this] { dispatchLoop(); });
}

Server::~Server() { stop(); }

bool Server::submit(Request R, Respond Fn) {
  int64_t Id = R.Id;
  bool Shed = false;
  {
    std::lock_guard<std::mutex> L(Mu);
    if (Stopping)
      return false;
    if (Opts.MaxQueue > 0 && R.M == Method::Predict &&
        Queue.size() >= static_cast<size_t>(Opts.MaxQueue)) {
      // Load shedding: answering now (on the submit thread) keeps the
      // connection usable and the dispatcher untouched; control
      // requests always pass so an overloaded daemon stays observable
      // and drainable.
      Stats.Overloaded += 1;
      Shed = true;
    } else {
      Queue.push_back(Pending{std::move(R), std::move(Fn),
                              std::chrono::steady_clock::now()});
    }
  }
  if (Shed) {
    Fn(overloadedResponse(Id, Opts.MaxQueue));
    return true;
  }
  WakeCV.notify_one();
  return true;
}

void Server::stop() {
  // Exactly one caller claims the dispatcher thread; racing callers
  // return once Stopping is set (the claimant does the drain+join).
  std::thread ToJoin;
  {
    std::lock_guard<std::mutex> L(Mu);
    Stopping = true;
    if (Dispatcher.joinable())
      ToJoin = std::move(Dispatcher);
  }
  WakeCV.notify_all();
  if (ToJoin.joinable())
    ToJoin.join();
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> L(Mu);
  return Stats;
}

void Server::dispatchLoop() {
  for (;;) {
    std::vector<Pending> Popped;
    {
      std::unique_lock<std::mutex> L(Mu);
      WakeCV.wait(L, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty() && Stopping)
        return; // fully drained
      size_t Take =
          std::min(Queue.size(), static_cast<size_t>(Opts.MaxBatch));
      Popped.reserve(Take);
      for (size_t I = 0; I != Take; ++I) {
        Popped.push_back(std::move(Queue.front()));
        Queue.pop_front();
      }
    }

    // Preserve arrival order: coalesce runs of consecutive predict
    // requests, answer control requests at their position in between.
    std::vector<Pending> Run;
    for (Pending &P : Popped) {
      if (P.R.M == Method::Predict) {
        Run.push_back(std::move(P));
        continue;
      }
      if (!Run.empty()) {
        servePredicts(Run);
        Run.clear();
      }
      serveOne(P);
    }
    if (!Run.empty())
      servePredicts(Run);
  }
}

void Server::registerMethods() {
  Methods.add(methodName(Method::Ping),
              [this](Pending &P) { P.Fn(pongResponse(P.R.Id)); });
  Methods.add(methodName(Method::Stats), [this](Pending &P) {
    // Snapshot and (optionally) reset under one lock so a concurrent
    // submit-side Overloaded bump lands in exactly one window.
    ServerStats Snapshot;
    {
      std::lock_guard<std::mutex> L(Mu);
      Snapshot = Stats;
      if (P.R.Reset)
        Stats = ServerStats();
    }
    P.Fn(statsResponse(P.R.Id, Snapshot));
  });
  Methods.add(methodName(Method::Reload),
              [this](Pending &P) { serveReload(P); });
  Methods.add(methodName(Method::Shutdown), [this](Pending &P) {
    P.Fn(shutdownResponse(P.R.Id));
    // Copy: the callback may destroy transport state the Pending holds.
    std::function<void()> Hook = Opts.OnShutdown;
    if (Hook)
      Hook();
  });
}

void Server::serveOne(Pending &P) {
  if (P.R.M == Method::Predict)
    return; // batched through servePredicts, never dispatched here
  if (const auto *H = Methods.find(methodName(P.R.M))) {
    (*H)(P);
    return;
  }
  // Unreachable while parseRequest and the table agree on the method
  // set; answering uniformly (rather than asserting) keeps a future
  // mismatch a protocol error instead of a crash.
  P.Fn(errorResponse(P.R.Id, unknownMethodError(methodName(P.R.M))));
}

void Server::serveReload(Pending &P) {
  if (!Opts.OnReload) {
    P.Fn(errorResponse(P.R.Id, "reload is not enabled on this server"));
    return;
  }
  std::string Err;
  std::shared_ptr<Predictor> NewP = Opts.OnReload(&Err);
  if (!NewP) {
    P.Fn(errorResponse(P.R.Id, "reload failed: " +
                                   (Err.empty() ? "unknown error" : Err)));
    return;
  }
  if (!NewP->universe()) {
    P.Fn(errorResponse(
        P.R.Id, "reload failed: the new predictor does not own a universe"));
    return;
  }
  // The swap and the cache invalidation are one atomic step as far as
  // prediction is concerned: both happen here, between batches, on the
  // only thread that reads them. Requests queued behind this one are
  // answered from the new artifact; requests served before it were
  // answered (and cached) from the old one, and that cache is gone.
  Pred = NewP.get();
  U = NewP->universe();
  OwnedPred = std::move(NewP);
  CacheLru.clear();
  CacheIdx.clear();
  {
    std::lock_guard<std::mutex> L(Mu);
    Stats.Reloads += 1;
  }
  P.Fn(reloadResponse(P.R.Id));
}

//===----------------------------------------------------------------------===//
// Response cache (dispatcher-only, so lock-free)
//===----------------------------------------------------------------------===//

namespace {

std::string cacheKey(const std::string &Path, uint64_t SourceDigest) {
  std::string K = Path;
  K.push_back('\0');
  K.append(reinterpret_cast<const char *>(&SourceDigest),
           sizeof(SourceDigest));
  return K;
}

} // namespace

std::shared_ptr<const std::vector<PredictionResult>>
Server::cacheFind(const std::string &Path, uint64_t SourceDigest) {
  if (Opts.CacheEntries <= 0)
    return nullptr;
  auto It = CacheIdx.find(cacheKey(Path, SourceDigest));
  if (It == CacheIdx.end())
    return nullptr;
  CacheLru.splice(CacheLru.begin(), CacheLru, It->second);
  return It->second->Preds;
}

uint64_t Server::cacheInsert(
    const std::string &Path, uint64_t SourceDigest,
    std::shared_ptr<const std::vector<PredictionResult>> P) {
  if (Opts.CacheEntries <= 0)
    return 0;
  std::string K = cacheKey(Path, SourceDigest);
  auto It = CacheIdx.find(K);
  if (It != CacheIdx.end()) {
    // Same key predicted twice (only possible after a miss raced a
    // duplicate into the same batch run twice — harmless): refresh.
    CacheLru.splice(CacheLru.begin(), CacheLru, It->second);
    It->second->Preds = std::move(P);
    return 0;
  }
  CacheLru.push_front(CacheEntry{Path, SourceDigest, std::move(P)});
  CacheIdx.emplace(std::move(K), CacheLru.begin());
  uint64_t Evicted = 0;
  while (CacheLru.size() > static_cast<size_t>(Opts.CacheEntries)) {
    const CacheEntry &Old = CacheLru.back();
    CacheIdx.erase(cacheKey(Old.Path, Old.SourceDigest));
    CacheLru.pop_back();
    ++Evicted;
  }
  return Evicted;
}

void Server::servePredicts(std::vector<Pending> &Batch) {
  // Per-request timing: queue wait ends when the batch starts being
  // served; the prediction clock covers parse + embed + kNN for the
  // whole batch and is attributed to each request it answered (that IS
  // the latency each caller saw for the predict phase).
  auto Dispatched = std::chrono::steady_clock::now();
  uint64_t QueueTotalUs = 0, QueueMaxUs = 0;
  for (const Pending &P : Batch) {
    uint64_t WaitUs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Dispatched -
                                                              P.Enqueued)
            .count());
    QueueTotalUs += WaitUs;
    QueueMaxUs = std::max(QueueMaxUs, WaitUs);
  }

  // Collapse identical in-flight requests (same path + source): a fleet
  // of clients asking about the same file — the CI smoke's exact shape —
  // costs one prediction, not N. Each duplicate still gets its own
  // response under its own id, bit-identical to the representative's.
  std::vector<size_t> GroupOf(Batch.size());
  std::vector<size_t> Rep; // index of each group's first request
  std::map<std::pair<std::string_view, std::string_view>, size_t> Groups;
  for (size_t I = 0; I != Batch.size(); ++I) {
    auto Key = std::make_pair(std::string_view(Batch[I].R.Path),
                              std::string_view(Batch[I].R.Source));
    auto [It, New] = Groups.emplace(Key, Rep.size());
    if (New)
      Rep.push_back(I);
    GroupOf[I] = It->second;
  }

  // Cache probe: one lookup per distinct (path, source) group. Hits
  // skip embedding entirely; only the misses go to the predictor.
  bool CacheOn = Opts.CacheEntries > 0;
  std::vector<std::shared_ptr<const std::vector<PredictionResult>>> GroupPreds(
      Rep.size());
  std::vector<uint64_t> GroupDigest(Rep.size());
  std::vector<size_t> Miss;
  uint64_t Hits = 0, Evictions = 0;
  for (size_t G = 0; G != Rep.size(); ++G) {
    const Request &R = Batch[Rep[G]].R;
    GroupDigest[G] = sourceDigest(R.Source);
    GroupPreds[G] = cacheFind(R.Path, GroupDigest[G]);
    if (GroupPreds[G])
      ++Hits;
    else
      Miss.push_back(G);
  }

  // The dispatcher is the only thread interning into the universe
  // (predictSources' parse resolves annotation types) and running the
  // model, by construction — parallelism comes from inside predictBatch.
  // That also makes the predictor's embed/kNN clocks diffable here
  // without a race: nothing else advances them between these reads.
  uint64_t EmbedUs0 = Pred->embedMicros(), KnnUs0 = Pred->knnMicros();
  std::string Err;
  if (!Miss.empty()) {
    try {
      std::vector<CorpusFile> Sources;
      Sources.reserve(Miss.size());
      for (size_t G : Miss) {
        const Request &R = Batch[Rep[G]].R;
        Sources.push_back(CorpusFile{R.Path, R.Source});
      }
      // The shared in-memory-source entry point: the CLI's --source and
      // the LSP go through the same call, so their digests match the
      // daemon's by construction.
      std::vector<std::vector<PredictionResult>> Fresh =
          Pred->predictSources(Sources);
      for (size_t I = 0; I != Miss.size(); ++I) {
        size_t G = Miss[I];
        GroupPreds[G] = std::make_shared<const std::vector<PredictionResult>>(
            std::move(Fresh[I]));
        Evictions += cacheInsert(Batch[Rep[G]].R.Path, GroupDigest[G],
                                 GroupPreds[G]);
      }
    } catch (const std::exception &E) {
      Err = E.what();
    } catch (...) {
      Err = "unknown prediction failure";
    }
  }

  // Answer in arrival order. A poisoned batch must not take the daemon
  // down: requests whose group has no predictions (the failed misses)
  // get an error response, cache hits in the same batch still serve,
  // and serving continues.
  for (size_t I = 0; I != Batch.size(); ++I) {
    const auto &Preds = GroupPreds[GroupOf[I]];
    if (!Preds) {
      Batch[I].Fn(errorResponse(Batch[I].R.Id, "prediction failed: " + Err));
      continue;
    }
    int Limit = Batch[I].R.Limit >= 0 ? Batch[I].R.Limit : Opts.Limit;
    Batch[I].Fn(
        predictResponse(Batch[I].R.Id, Batch[I].R.Path, *Preds, Limit));
  }

  uint64_t PredictUs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - Dispatched)
          .count());
  uint64_t EmbedUs = Pred->embedMicros() - EmbedUs0;
  uint64_t KnnUs = Pred->knnMicros() - KnnUs0;

  std::lock_guard<std::mutex> L(Mu);
  Stats.Requests += Batch.size();
  Stats.Batches += 1;
  Stats.MaxCoalesced =
      std::max(Stats.MaxCoalesced, static_cast<uint64_t>(Batch.size()));
  Stats.Collapsed += Batch.size() - Rep.size();
  Stats.QueueWaitTotalUs += QueueTotalUs;
  Stats.QueueWaitMaxUs = std::max(Stats.QueueWaitMaxUs, QueueMaxUs);
  Stats.PredictTotalUs += PredictUs * Batch.size();
  Stats.PredictMaxUs = std::max(Stats.PredictMaxUs, PredictUs);
  Stats.EmbedTotalUs += EmbedUs * Batch.size();
  Stats.KnnTotalUs += KnnUs * Batch.size();
  if (CacheOn) {
    Stats.CacheHits += Hits;
    Stats.CacheMisses += Miss.size();
    Stats.CacheEvictions += Evictions;
  }
}

//===----------------------------------------------------------------------===//
// serveStream
//===----------------------------------------------------------------------===//

void serve::serveStream(int Fd, size_t MaxRequestBytes, Server &S,
                        std::function<void(std::string)> Send,
                        const std::atomic<bool> *Stop, int WakeFd,
                        const std::function<bool()> &OnWake) {
  LineReader R(Fd, MaxRequestBytes, WakeFd);
  std::string Line;
  for (;;) {
    LineReader::Status St = R.next(Line);
    if (St == LineReader::Status::Eof || St == LineReader::Status::Error)
      return;
    if (St == LineReader::Status::Interrupted) {
      if (Stop && Stop->load())
        return;
      // The wake hook drains whatever woke us (the daemon's self-pipe:
      // a SIGHUP reload lands here in stdio mode) — without it a
      // readable WakeFd would spin this loop.
      if (OnWake && OnWake())
        return;
      continue;
    }
    if (St == LineReader::Status::TooLong) {
      Send(errorResponse(-1, "request exceeds " +
                                 std::to_string(MaxRequestBytes) +
                                 " bytes and was discarded"));
      continue;
    }
    if (Line.empty())
      continue;
    Request Req;
    std::string Err;
    if (!parseRequest(Line, Req, &Err)) {
      Send(errorResponse(Req.Id, Err));
      continue;
    }
    int64_t Id = Req.Id;
    bool WasShutdown = Req.M == Method::Shutdown;
    if (!S.submit(std::move(Req), Send)) {
      Send(errorResponse(Id, "server is shutting down"));
      return;
    }
    // The drain (and this stream's teardown) starts once the dispatcher
    // reaches the shutdown request; reading further would race it.
    if (WasShutdown)
      return;
  }
}

//===----------------------------------------------------------------------===//
// acceptLoop (shared by the daemon's Unix and TCP transports and by the
// TCP-loopback tests/bench)
//===----------------------------------------------------------------------===//

namespace {

/// One client connection: the fd to answer on plus a write lock (the
/// reader thread answers protocol errors itself while the dispatcher
/// writes results).
struct Conn {
  FileDesc Owned;
  int Fd = -1;
  std::mutex WriteMu;
  std::atomic<bool> ReaderDone{false};
  std::atomic<bool> Dead{false};

  void send(const std::string &Line) {
    // A vanished (or SO_SNDTIMEO-expired) client is not an error worth
    // acting on: its requests still drain, their responses just go
    // nowhere. The Dead latch makes every response after the first
    // failed write drop instantly instead of re-waiting the timeout,
    // and EOFs the read side so a write-only client stops feeding the
    // queue it will never read answers from.
    if (Dead.load(std::memory_order_relaxed))
      return;
    std::lock_guard<std::mutex> L(WriteMu);
    if (Dead.load(std::memory_order_relaxed))
      return;
    if (!writeAll(Fd, Line)) {
      Dead = true;
      Owned.shutdownRead();
    }
  }
};

FileDesc acceptOn(int ListenFd) {
  for (;;) {
    int C = ::accept(ListenFd, nullptr, nullptr);
    if (C >= 0)
      return FileDesc(C);
    if (errno != EINTR)
      return FileDesc();
  }
}

} // namespace

void serve::acceptLoop(const std::vector<int> &ListenFds, Server &S,
                       const AcceptLoopOptions &O) {
  // Reader threads are detached; this counter (with its cv) is how the
  // drain waits for all of them, and dead connections are pruned on each
  // accept so a long-lived daemon's memory does not grow with its
  // connection history.
  std::mutex ConnsMu;
  std::condition_variable ReapCV;
  int ActiveReaders = 0;
  std::vector<std::shared_ptr<Conn>> Conns;

  std::vector<pollfd> Fds;
  Fds.reserve(ListenFds.size() + 1);
  for (int L : ListenFds)
    Fds.push_back(pollfd{L, POLLIN, 0});
  if (O.WakeFd >= 0)
    Fds.push_back(pollfd{O.WakeFd, POLLIN, 0});

  bool Accepting = true;
  while (Accepting) {
    for (pollfd &P : Fds)
      P.revents = 0;
    int N = ::poll(Fds.data(), static_cast<nfds_t>(Fds.size()), -1);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (O.WakeFd >= 0 && Fds.back().revents) {
      // The wake hook owns the pipe: it drains it and decides whether
      // this was a drain signal (true) or e.g. a reload (false).
      if (!O.OnWake || O.OnWake())
        break;
    }
    size_t Alive = 0;
    for (size_t I = 0; I != ListenFds.size(); ++I) {
      if (Fds[I].fd < 0)
        continue;
      ++Alive;
      if (!Fds[I].revents)
        continue;
      FileDesc C = acceptOn(Fds[I].fd);
      if (!C.valid()) {
        // Transient accept failures (aborted handshake, fd pressure)
        // retry on the next readiness; a dead listener is dropped from
        // the poll set so it cannot spin the loop.
        if (errno == ECONNABORTED || errno == EMFILE || errno == ENFILE ||
            errno == ENOMEM || errno == EAGAIN || errno == EWOULDBLOCK)
          continue;
        Fds[I].fd = -1;
        --Alive;
        continue;
      }
      auto Shared = std::make_shared<Conn>();
      Shared->Owned = std::move(C);
      Shared->Fd = Shared->Owned.fd();
      // A client that stops reading must not stall the dispatcher (or
      // the drain) behind a full socket buffer: after this much
      // back-pressure its response write fails and is dropped.
      if (O.SendTimeoutSeconds > 0)
        setSendTimeout(Shared->Fd, O.SendTimeoutSeconds);
      setTcpNoDelay(Shared->Fd); // no-op on Unix-domain connections
      {
        std::lock_guard<std::mutex> G(ConnsMu);
        // Prune connections whose reader finished and whose responses
        // all went out (ours is then the only reference left).
        Conns.erase(std::remove_if(Conns.begin(), Conns.end(),
                                   [](const std::shared_ptr<Conn> &P) {
                                     return P->ReaderDone.load() &&
                                            P.use_count() == 1;
                                   }),
                    Conns.end());
        Conns.push_back(Shared);
        ++ActiveReaders;
      }
      size_t MaxBytes = O.MaxRequestBytes;
      std::thread([Shared, &S, MaxBytes, &ConnsMu, &ReapCV, &ActiveReaders] {
        serveStream(Shared->Fd, MaxBytes, S,
                    [Shared](std::string Resp) { Shared->send(Resp); });
        Shared->ReaderDone = true;
        {
          // Notify under the lock: the drain destroys the cv right
          // after its wait returns, so the notify must complete before
          // this thread releases the mutex that wakes it.
          std::lock_guard<std::mutex> G(ConnsMu);
          --ActiveReaders;
          ReapCV.notify_all();
        }
      }).detach();
    }
    if (Alive == 0 && !ListenFds.empty())
      break; // every listener died; nothing left to accept
  }

  // Drain-first shutdown: the caller closes its listeners in
  // OnDrainStart (no new connections), we EOF the readers (write sides
  // stay open for in-flight responses), wait for them to finish
  // submitting, then finish the queue.
  if (O.OnDrainStart)
    O.OnDrainStart();
  {
    std::unique_lock<std::mutex> G(ConnsMu);
    for (auto &C : Conns)
      C->Owned.shutdownRead();
    ReapCV.wait(G, [&] { return ActiveReaders == 0; });
  }
  S.stop();
}
