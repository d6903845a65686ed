//===- perfbench/src/Train.cpp - train --------------------------------------===//
//
// Trainer epochs over a ShardedDataset with the prefetcher on. The window
// runs whole training jobs (fresh model, fixed epochs, τmap, test-split
// prediction) back to back, timing every optimizer step; each job's
// test-split digest must equal the pinned one.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "corpus/Dataset.h"
#include "corpus/ShardedDataset.h"
#include "nn/Autograd.h"
#include "nn/Optim.h"
#include "nn/Simd.h"
#include "support/ThreadPool.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

using namespace typilus;

namespace perfbench {
namespace {

/// The shard set: 64 files in shards of 8, four resident at a time, so
/// every epoch streams and the prefetcher has work.
constexpr int kCorpusFiles = 64;
constexpr int kFilesPerShard = 8;
constexpr int kJobEpochs = 3;
constexpr size_t kTracedSteps = 16;
/// Set-ups are cheap here (no training, ~40 ms), so take the median of
/// more.
constexpr int kTrainSetupReps = 15;

/// A job's test-split digest per kernel table (the SIMD tables are not
/// bit-identical to the scalar one). Regenerate with `perfbench_runner
/// --workload pin_train ...` only when a change alters training numerics
/// on purpose.
struct Pinned {
  nn::simd::Isa Isa;
  uint64_t Digest;
};
constexpr Pinned kPinned[] = {
#include "TrainPins.inc"
};

struct Job {
  uint64_t Digest = 0;
  size_t Targets = 0, Exact = 0;
};

/// Trains a fresh model on \p Train for kJobEpochs and predicts \p Test
/// through the τmap over \p MapSrc — the CLI's `train` pipeline.
/// With \p Stepwise it drives the trainer one step at a time and tells
/// \p OnStep each step's start, duration and epoch.
template <typename StepFn>
Job trainJob(ExampleSource &Train, ExampleSource &MapSrc, ExampleSource &Test,
             TypeUniverse &U, StepFn OnStep, bool Stepwise) {
  std::unique_ptr<TypeModel> Model = makeModel(ModelConfig{}, Train, U);
  TrainOptions TO;
  TO.Epochs = kJobEpochs;
  TO.NumThreads = kProgramThreads;
  TO.StopAfterSteps = Stepwise ? 1 : 0;
  Trainer T(*Model, TO);
  if (Stepwise) {
    while (T.epochsDone() < kJobEpochs) {
      int Epoch = T.epochsDone();
      double T0 = nowUs();
      T.run(Train);
      OnStep(T0, (nowUs() - T0) / 1000.0, Epoch);
    }
  } else {
    T.run(Train);
  }
  KnnOptions KO;
  KO.NumThreads = kProgramThreads;
  Predictor P = Predictor::knn(*Model, MapSrc, KO);
  std::vector<PredictionResult> Preds = P.predictAll(Test);
  Job J;
  J.Digest = predictionDigest(Preds);
  for (const PredictionResult &R : Preds)
    if (R.Truth) {
      ++J.Targets;
      J.Exact += R.top() == R.Truth;
    }
  return J;
}

/// The job trained in memory in one call; by the shard set's determinism
/// contract its digest equals the sharded, stepwise job's.
Job referenceJob(const CorpusConfig &CC) {
  CorpusGenerator Gen(CC);
  std::vector<CorpusFile> Files = Gen.generate();
  TypeUniverse U;
  Dataset DS = buildDataset(Files, Gen.udts(), U, nullptr, DatasetConfig{});
  VectorExampleSource Train(DS.Train), Valid(DS.Valid), Test(DS.Test);
  ConcatExampleSource MapSrc({&Train, &Valid});
  return trainJob(Train, MapSrc, Test, U, [](double, double, int) {},
                  /*Stepwise=*/false);
}

CorpusConfig corpusConfig() {
  CorpusConfig CC;
  CC.NumFiles = kCorpusFiles;
  CC.Seed = kProjectSeed;
  return CC;
}

const Pinned *pinnedDigest() {
  for (const Pinned &P : kPinned)
    if (P.Isa == nn::simd::activeIsa())
      return &P;
  return nullptr;
}

double vmHwmMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0;
  return 0;
}

} // namespace

void printTrainPins() {
  setGlobalNumThreads(kProgramThreads);
  for (bool Simd : {true, false}) {
    nn::simd::setSimdEnabled(Simd);
    if (Simd && !nn::simd::simdAvailable())
      continue;
    std::printf("    {nn::simd::Isa::%s, 0x%016" PRIx64 "ull},\n", Simd ? "Avx2" : "Scalar",
                referenceJob(corpusConfig()).Digest);
  }
}

void runTrain(const Args &A, Result &Res) {
  setGlobalNumThreads(kProgramThreads);
  CorpusConfig CC = corpusConfig();
  std::string Dir = A.WorkDir + "/shards";
  // The job does not depend on the seed: its initialization and order
  // are the CLI's defaults. A seed-chosen initialization moved the
  // test-split accuracy by an interquartile range of 8% of its median
  // across 16 initializations, which would drown the changed-answer
  // guard; a fixed job has one pinned digest and one accuracy.

  // ---- Set-up, repeated: corpus generation, shard build, open.
  std::vector<double> SetupS;
  std::vector<CorpusFile> Files;
  std::vector<UdtSpec> Udts;
  TypeUniverse U;
  std::unique_ptr<ShardedDataset> SD;
  for (int Rep = 0; Rep != kTrainSetupReps; ++Rep) {
    SD.reset();
    double T0 = nowUs();
    CorpusGenerator Gen(CC);
    Files = Gen.generate();
    Udts = Gen.udts();
    TypeUniverse BuildU;
    ShardBuildOptions SO;
    SO.Dir = Dir;
    SO.FilesPerShard = kFilesPerShard;
    SO.NumThreads = kProgramThreads;
    std::string Err;
    if (!buildShards(Files, Udts, BuildU, nullptr, DatasetConfig{}, SO, &Err))
      throw std::runtime_error("shard build failed: " + Err);
    ShardedDatasetOptions SDO;
    SDO.Prefetch = true;
    SD = ShardedDataset::open(Dir, U, SDO, &Err);
    if (!SD)
      throw std::runtime_error("shard open failed: " + Err);
    SetupS.push_back((nowUs() - T0) / 1e6);
  }
  ExampleSource &Train = SD->split(SplitKind::Train);
  ExampleSource &Test = SD->split(SplitKind::Test);
  size_t TrainFiles = Train.size();

  // ---- The timed window: whole jobs, step by step.
  {
    // Peak RSS of the training window only, not of the set-ups.
    std::ofstream Clear("/proc/self/clear_refs");
    Clear << "5";
  }
  std::vector<double> StepMs;
  double WarmMs = 0; // steps of warm epochs: all but a job's first
  std::vector<Job> Jobs;
  uint64_t Stall0 = SD->decodeStallMicros(), Wait0 = SD->prefetchWaitMicros();
  size_t Hits0 = SD->prefetchHits();
  double WinStart = nowUs(), WinEnd = WinStart + A.Seconds * 1e6;
  // Jobs run whole; another starts only if one more fits in the window.
  for (double JobUs = 0; Jobs.empty() || nowUs() + JobUs <= WinEnd;) {
    double J0 = nowUs();
    Jobs.push_back(trainJob(
        Train, SD->trainValid(), Test, U,
        [&](double, double Ms, int Epoch) {
          StepMs.push_back(Ms);
          WarmMs += Epoch > 0 ? Ms : 0;
        },
        /*Stepwise=*/true));
    JobUs = nowUs() - J0;
  }
  double WindowS = (nowUs() - WinStart) / 1e6;
  size_t WarmEpochs = Jobs.size() * (kJobEpochs - 1);
  double PeakMb = vmHwmMb();
  double Epochs = static_cast<double>(Jobs.size() * kJobEpochs);
  double StallUs = static_cast<double>(SD->decodeStallMicros() - Stall0);
  double WaitUs = static_cast<double>(SD->prefetchWaitMicros() - Wait0);
  double Hits = static_cast<double>(SD->prefetchHits() - Hits0);

  // ---- Correctness: every job's test-split digest must be the pinned
  // ---- one. A kernel table without a pin (not an x86-64 host) falls back
  // ---- to the same job trained in memory.
  const Pinned *Pin = pinnedDigest();
  uint64_t Want = Pin ? Pin->Digest : referenceJob(CC).Digest;
  size_t Targets = 0, Exact = 0;
  for (size_t I = 0; I != Jobs.size(); ++I) {
    if (Jobs[I].Digest != Want)
      Res.fail("job " + std::to_string(I) + " test-split digest differs from the " +
               (Pin ? "pinned one" : "in-memory training"));
    Targets += Jobs[I].Targets;
    Exact += Jobs[I].Digest == Want ? Jobs[I].Exact : 0;
  }
  Res.Attempted = StepMs.size() + Jobs.size();

  Summary StepLat = summarize(StepMs);
  double WarmFiles = static_cast<double>(WarmEpochs * TrainFiles);
  double FilesPerS = WarmMs > 0 ? WarmFiles / (WarmMs / 1000.0) : 0;
  Res.e2e("setup_s", median(SetupS), SetupS.size());
  Res.e2e("latency_p50_ms", StepLat.P50Ms, StepLat.Count);
  Res.e2e("latency_p90_ms", StepLat.P90Ms, StepLat.Count);
  Res.e2e("throughput_per_s", FilesPerS, WarmEpochs);
  Res.rec("latency_tail_ms", StepLat.TailMs, "ms", StepLat.Count);
  Res.e2e("peak_rss_mb", PeakMb, 1);
  Res.e2e("top1_exact_pct", Targets ? 100.0 * static_cast<double>(Exact) /
                                          static_cast<double>(Targets)
                                    : 0,
          Targets);
  Res.rec("latency_tail_pct", StepLat.TailPct, "pct", StepLat.Count);
  Res.rec("train_files_per_s", FilesPerS, "1/s", Jobs.size());
  Res.rec("window_s", WindowS, "s", Jobs.size());
  Res.rec("pinned", Pin ? 1 : 0, "bool", 1);
  Res.rec("fail_share", Res.Attempted ? static_cast<double>(Res.Failed) /
                                            static_cast<double>(Res.Attempted)
                                      : 0,
          "ratio", Res.Attempted);
  Res.layer("train.epoch_s", WarmEpochs ? WarmMs / 1000.0 / static_cast<double>(WarmEpochs) : 0,
            WarmEpochs);
  Res.layer("corpus.decode_stall_us", StallUs / Epochs, static_cast<size_t>(Epochs));
  Res.layer("corpus.prefetch_wait_us", WaitUs / Epochs, static_cast<size_t>(Epochs));
  Res.layer("corpus.prefetch_hits", Hits / Epochs, static_cast<size_t>(Epochs));
  Res.layer("loadgen.sent", static_cast<double>(Res.Attempted), 1);
  Res.layer("loadgen.ok", static_cast<double>(Res.Attempted - Res.Failed), 1);
  Res.layer("loadgen.failed", static_cast<double>(Res.Failed), 1);

  if (!A.Trace)
    return;
  // ---- Traced run: training steps replayed call by call — batch fetch,
  // ---- TypeModel::embed and loss, nn::backward, Adam::step — on two
  // ---- fresh models in lockstep, one untraced and one traced (alternating
  // ---- which goes first); their losses must agree bit for bit.
  struct Replica {
    std::unique_ptr<TypeModel> Model;
    std::unique_ptr<nn::Adam> Opt;
    std::vector<uint64_t> LossBits;
  } Reps[2];
  for (Replica &R : Reps) {
    R.Model = makeModel(ModelConfig{}, Train, U);
    R.Opt = std::make_unique<nn::Adam>(R.Model->params());
  }
  Tracer Off(false), On(true);
  double OffUs = 0, OnUs = 0;
  auto Step = [&](Replica &R, Tracer &T, size_t S) {
    auto Id = static_cast<int64_t>(S);
    Scope Root(T, "train.step", Id);
    std::vector<ExamplePin> Pins(4);
    std::vector<const FileExample *> Batch;
    {
      Scope G(T, "corpus.get", Id);
      for (size_t I = 0; I != 4; ++I)
        Batch.push_back(&Train.get((S * 4 + I) % TrainFiles, Pins[I]));
    }
    std::vector<const Target *> Targets;
    nn::Value Emb, Loss;
    {
      Scope F(T, "models.embed", Id);
      Emb = R.Model->embed(Batch, &Targets);
    }
    if (!Emb.defined() || Targets.empty())
      return;
    {
      Scope F(T, "models.loss", Id);
      Loss = R.Model->loss(Emb, Targets);
    }
    {
      Scope B(T, "nn.backward", Id);
      R.Model->params().zeroGrads();
      nn::backward(Loss);
    }
    {
      Scope O(T, "nn.Adam.step", Id);
      R.Opt->step();
    }
    float L = Loss.val()[0];
    uint32_t Bits = 0;
    std::memcpy(&Bits, &L, sizeof(L));
    R.LossBits.push_back(Bits);
  };
  for (size_t S = 0; S != kTracedSteps; ++S)
    for (size_t K = 0; K != 2; ++K) {
      size_t Traced = (S + K) % 2;
      double T0 = nowUs();
      Step(Reps[Traced], Traced ? On : Off, S);
      (Traced ? OnUs : OffUs) += nowUs() - T0;
    }
  if (Reps[0].LossBits != Reps[1].LossBits)
    Res.fail("traced training steps computed different losses");
  auto L = On.layerTimes();
  double Fwd = perCall(L, "models.embed", false) + perCall(L, "models.loss", false);
  Res.layer("train.forward_ms", Fwd / 1000.0, kTracedSteps);
  Res.layer("train.backward_ms", perCall(L, "nn.backward", false) / 1000.0, kTracedSteps);
  Res.layer("train.optim_ms", perCall(L, "nn.Adam.step", false) / 1000.0, kTracedSteps);
  Res.layer("models.embed_us", perCall(L, "models.embed"), kTracedSteps);
  Res.layer("trace.op_us", perCall(L, "train.step", false), kTracedSteps);
  Res.layer("trace.remainder_us", perCall(L, "train.step"), kTracedSteps);
  Res.layer("trace.overhead_pct", OffUs > 0 ? 100.0 * (OnUs - OffUs) / OffUs : 0, kTracedSteps);
  On.writeChromeTrace(A.WorkDir + "/trace.json");
}

} // namespace perfbench
