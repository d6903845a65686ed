//===- perfbench/src/Stack.cpp - Set-up and child processes -----------------===//

#include "Bench.h"

#include "core/Experiments.h"

#include <chrono>
#include <csignal>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace typilus;

namespace perfbench {

uint64_t streamSeed(const Args &A, const char *Purpose) {
  return fnv1a(Purpose) ^ (A.Seed * 0x9E3779B97F4A7C15ull);
}

double nowUs() {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count()) /
         1000.0;
}

Stack buildStack(const Args &A) {
  CorpusConfig CC;
  CC.NumFiles = kTrainFiles;
  CC.Seed = kProjectSeed;
  Workbench WB = Workbench::make(CC, DatasetConfig{});
  VectorExampleSource Train(WB.DS.Train), Valid(WB.DS.Valid);
  ConcatExampleSource MapSrc({&Train, &Valid});

  std::unique_ptr<TypeModel> Model = makeModel(ModelConfig{}, Train, *WB.U);
  TrainOptions TO;
  TO.Epochs = kTrainEpochs;
  Trainer T(*Model, TO);
  T.run(Train);
  Predictor P = Predictor::knn(*Model, MapSrc, KnnOptions{});

  Stack S;
  S.ArtifactPath = A.WorkDir + "/model.typilus";
  std::string Err;
  double T0 = nowUs();
  if (!P.save(S.ArtifactPath, *WB.U, &Err))
    throw std::runtime_error("artifact save failed: " + Err);
  S.SaveMs = (nowUs() - T0) / 1000.0;
  std::ifstream In(S.ArtifactPath, std::ios::binary);
  std::stringstream Bytes;
  Bytes << In.rdbuf();
  S.ArtifactDigest = fnv1a(Bytes.str());

  T0 = nowUs();
  S.Replay = Predictor::load(S.ArtifactPath, &Err);
  if (!S.Replay)
    throw std::runtime_error("artifact load failed: " + Err);
  S.LoadMs = (nowUs() - T0) / 1000.0;
  // The daemon and the LSP cap kNN parallelism at their --threads.
  KnnOptions KO = S.Replay->knnOptions();
  KO.NumThreads = kProgramThreads;
  S.Replay->setKnnOptions(KO);
  return S;
}

//===----------------------------------------------------------------------===//
// Child
//===----------------------------------------------------------------------===//

Child::Child(const std::vector<std::string> &Argv, const std::string &LogPath) {
  int InPipe[2], OutPipe[2];
  if (::pipe2(InPipe, O_CLOEXEC) != 0 || ::pipe2(OutPipe, O_CLOEXEC) != 0)
    throw std::runtime_error("pipe failed");
  int Log = ::open(LogPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                   0644);
  std::vector<char *> CArgv;
  for (const std::string &S : Argv)
    CArgv.push_back(const_cast<char *>(S.c_str()));
  CArgv.push_back(nullptr);
  Pid = ::fork();
  if (Pid < 0)
    throw std::runtime_error("fork failed");
  if (Pid == 0) {
    // Only async-signal-safe calls until exec. The child dies with the
    // runner, so an aborted run leaves nothing behind.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(InPipe[0], STDIN_FILENO);
    ::dup2(OutPipe[1], STDOUT_FILENO);
    if (Log >= 0)
      ::dup2(Log, STDERR_FILENO);
    ::execv(CArgv[0], CArgv.data());
    ::_exit(127);
  }
  ::close(InPipe[0]);
  ::close(OutPipe[1]);
  if (Log >= 0)
    ::close(Log);
  InFd = InPipe[1];
  OutFd = OutPipe[0];
}

Child::~Child() { stop(0); }

double Child::peakRssMb() const {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0;
  return 0;
}

int Child::stop(int GraceMs) {
  if (Pid <= 0)
    return -1;
  if (InFd >= 0) {
    ::close(InFd);
    InFd = -1;
  }
  int Status = 0;
  pid_t Got = 0;
  auto WaitFor = [&](int Ms) {
    for (int Waited = 0; Got == 0; Waited += 5) {
      Got = ::waitpid(Pid, &Status, WNOHANG);
      if (Got != 0 || Waited >= Ms)
        break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  };
  WaitFor(GraceMs);
  if (Got == 0) {
    ::kill(Pid, SIGTERM);
    WaitFor(5000);
  }
  if (Got == 0) {
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, &Status, 0);
    Status = -1;
  }
  Pid = -1;
  if (OutFd >= 0) {
    ::close(OutFd);
    OutFd = -1;
  }
  return Got > 0 && WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

bool Child::readLine(std::string &Line, int TimeoutMs) {
  double Deadline = nowUs() + TimeoutMs * 1000.0;
  for (;;) {
    size_t Nl = Pending.find('\n');
    if (Nl != std::string::npos) {
      Line = Pending.substr(0, Nl);
      Pending.erase(0, Nl + 1);
      return true;
    }
    int Left = static_cast<int>((Deadline - nowUs()) / 1000.0);
    if (Left <= 0)
      return false;
    pollfd P{OutFd, POLLIN, 0};
    if (::poll(&P, 1, Left) <= 0)
      continue;
    char Buf[4096];
    ssize_t N = ::read(OutFd, Buf, sizeof(Buf));
    if (N <= 0)
      return false;
    Pending.append(Buf, static_cast<size_t>(N));
  }
}

} // namespace perfbench
