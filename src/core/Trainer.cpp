//===- core/Trainer.cpp - Training loop ----------------------------------------===//

#include "core/Trainer.h"

#include "support/Archive.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <limits>

using namespace typilus;

std::unique_ptr<TypeModel> typilus::makeModel(const ModelConfig &Config,
                                              ExampleSource &Train,
                                              TypeUniverse &U) {
  // One pass feeds both vocabularies — the label vocabulary for the
  // configured node representation and the closed type vocabularies
  // (full + erased) of the *2Class baselines — so a sharded train split
  // decodes each shard once.
  LabelVocab::Builder B(Config.NodeRep == NodeRepKind::WholeToken
                            ? LabelVocab::Mode::WholeLabel
                            : LabelVocab::Mode::Subtoken);
  TypeVocabs TV;
  ExamplePin Pin;
  for (size_t I = 0, N = Train.size(); I != N; ++I) {
    const FileExample &F = Train.get(I, Pin);
    B.addGraph(F.Graph);
    for (const Target &T : F.Targets) {
      TV.Full.add(T.Type);
      TV.Erased.add(U.erase(T.Type));
    }
  }
  return std::make_unique<TypeModel>(Config, B.finish(), std::move(TV));
}

std::unique_ptr<TypeModel> typilus::makeModel(const ModelConfig &Config,
                                              const Dataset &DS,
                                              TypeUniverse &U) {
  VectorExampleSource Src(DS.Train);
  return makeModel(Config, Src, U);
}

Trainer::Trainer(TypeModel &Model, const TrainOptions &Opts)
    : Model(Model), Opts(Opts),
      Opt(Model.params(), Opts.LearningRate, Opts.ClipNorm), R(Opts.Seed) {}

double Trainer::run(ExampleSource &Train) {
  // Size the process-wide pool for the run and restore it afterwards (so
  // e.g. NumThreads=1 training does not leave later prediction serial).
  // Minibatch files embed data-parallel (for thread-safe encoders) and the
  // tensor kernels fan out below that, with gradients accumulated by the
  // single backward pass over the merged graph. All of it is
  // bit-reproducible for any NumThreads.
  struct PoolSizeGuard {
    int Prev = globalNumThreads();
    ~PoolSizeGuard() { setGlobalNumThreads(Prev); }
  } Guard;
  setGlobalNumThreads(Opts.NumThreads);

  if (Order.size() != Train.size()) {
    // A restored shuffle order sized for a different split means the
    // checkpoint belongs to other data: refuse to train rather than
    // silently void the resume-equals-uninterrupted contract. (A resumed
    // checkpoint written before any epoch has an empty order; fresh
    // initialization is exactly the uninterrupted behavior then.)
    if (Resumed && !Order.empty()) {
      std::fprintf(stderr,
                   "error: checkpoint shuffle order covers %zu files but the "
                   "training split has %zu; refusing to resume\n",
                   Order.size(), Train.size());
      return std::numeric_limits<double>::quiet_NaN();
    }
    Order.resize(Train.size());
    for (size_t I = 0; I != Train.size(); ++I)
      Order[I] = static_cast<int>(I);
  }

  auto WriteCheckpoint = [&] {
    if (Opts.CheckpointPath.empty())
      return;
    std::string Err;
    if (!saveCheckpoint(Opts.CheckpointPath, &Err))
      std::fprintf(stderr, "warning: checkpoint not written: %s\n",
                   Err.c_str());
  };

  int StepsThisRun = 0;
  for (int Epoch = EpochsDone; Epoch < Opts.Epochs; ++Epoch) {
    size_t StartPos = 0;
    double Sum = 0;
    int Steps = 0;
    if (MidEpoch) {
      // A mid-epoch checkpoint restored the shuffled order, the cursor
      // and the running loss accumulators: pick up exactly there.
      StartPos = static_cast<size_t>(CursorPos);
      Sum = EpochSum;
      Steps = EpochSteps;
      MidEpoch = false;
    } else {
      Train.shuffleEpochOrder(Order, R, Opts.ShardAwareShuffle);
    }
    // Advisory: lets a sharded source decode ahead of the epoch (from
    // the resume cursor when mid-epoch). No effect on any digest.
    Train.planPrefetch(Order, StartPos);
    int SinceCheckpoint = 0;
    for (size_t Start = StartPos; Start < Order.size();
         Start += static_cast<size_t>(Opts.BatchFiles)) {
      // Pins keep each minibatch's backing shards alive for the step;
      // residency beyond the batch is the stream's LRU bound.
      std::vector<ExamplePin> Pins;
      std::vector<const FileExample *> Batch;
      for (size_t I = Start;
           I < Order.size() && I < Start + static_cast<size_t>(Opts.BatchFiles);
           ++I) {
        Pins.emplace_back();
        Batch.push_back(
            &Train.get(static_cast<size_t>(Order[I]), Pins.back()));
      }
      std::vector<const Target *> Targets;
      nn::Value Emb = Model.embed(Batch, &Targets);
      if (!Emb.defined() || Targets.empty())
        continue;
      nn::Value Loss = Model.loss(Emb, Targets);
      Model.params().zeroGrads();
      nn::backward(Loss);
      Opt.step();
      Sum += Loss.val()[0];
      ++Steps;
      ++SinceCheckpoint;
      ++StepsThisRun;

      bool MoreInEpoch =
          Start + static_cast<size_t>(Opts.BatchFiles) < Order.size();
      bool StopNow =
          Opts.StopAfterSteps > 0 && StepsThisRun >= Opts.StopAfterSteps;
      if (MoreInEpoch &&
          (StopNow || (Opts.CheckpointEverySteps > 0 &&
                       SinceCheckpoint >= Opts.CheckpointEverySteps))) {
        // Record the cursor so the checkpoint resumes at the next batch;
        // the members also let a later run() on this trainer continue.
        MidEpoch = true;
        CursorPos = Start + static_cast<size_t>(Opts.BatchFiles);
        EpochSum = Sum;
        EpochSteps = Steps;
        WriteCheckpoint();
        SinceCheckpoint = 0;
        if (StopNow)
          return Steps > 0 ? Sum / Steps : LastEpochLoss;
        MidEpoch = false;
      }
    }
    LastEpochLoss = Steps > 0 ? Sum / Steps : 0;
    EpochsDone = Epoch + 1;
    CursorPos = 0;
    EpochSum = 0;
    EpochSteps = 0;
    if (Opts.Verbose)
      std::printf("  epoch %d/%d: mean loss %.4f\n", Epoch + 1, Opts.Epochs,
                  LastEpochLoss);
    WriteCheckpoint();
    if (Opts.StopAfterSteps > 0 && StepsThisRun >= Opts.StopAfterSteps)
      return LastEpochLoss;
  }
  return LastEpochLoss;
}

bool Trainer::saveCheckpoint(const std::string &Path, std::string *Err) const {
  ArchiveWriter W(kCheckpointVersion);
  W.beginChunk("tmet");
  W.writeI32(EpochsDone);
  W.writeF64(LastEpochLoss);
  W.writeU64(R.state());
  // v2: the mid-epoch cursor. MidEpoch unset means "between epochs" and
  // the cursor fields are ignored on resume.
  W.writeU8(MidEpoch ? 1 : 0);
  W.writeU64(CursorPos);
  W.writeF64(EpochSum);
  W.writeI32(EpochSteps);
  W.writeU64(Order.size());
  for (int I : Order)
    W.writeI32(I);
  W.endChunk();

  Model.saveWeights(W); // "rngs" + "parm"

  W.beginChunk("adam");
  Opt.save(W);
  W.endChunk();
  return W.writeFile(Path, Err);
}

bool Trainer::resumeFrom(const std::string &Path, std::string *Err) {
  if (Err)
    Err->clear(); // inner loaders preserve the first error set
  ArchiveReader Rd;
  if (!Rd.openFile(Path, Err))
    return false;
  if (Rd.formatVersion() != kCheckpointVersion) {
    if (Err)
      *Err = "checkpoint format version " +
             std::to_string(Rd.formatVersion()) +
             "; this build reads version " + std::to_string(kCheckpointVersion);
    return false;
  }

  ArchiveCursor MC = Rd.chunk("tmet", Err);
  int32_t NewEpochsDone = MC.readI32();
  double NewLoss = MC.readF64();
  uint64_t RngState = MC.readU64();
  uint8_t NewMidEpoch = MC.readU8();
  uint64_t NewCursorPos = MC.readU64();
  double NewEpochSum = MC.readF64();
  int32_t NewEpochSteps = MC.readI32();
  uint64_t OrderSize = MC.readU64();
  if (!MC.ok() || NewEpochsDone < 0 || NewMidEpoch > 1 ||
      NewCursorPos > OrderSize || NewEpochSteps < 0 ||
      OrderSize > MC.remaining()) {
    if (Err && Err->empty())
      *Err = "malformed trainer state chunk";
    return false;
  }
  std::vector<int> NewOrder;
  NewOrder.reserve(static_cast<size_t>(OrderSize));
  for (uint64_t I = 0; I != OrderSize; ++I) {
    int V = MC.readI32();
    if (!MC.ok() || V < 0 || static_cast<uint64_t>(V) >= OrderSize) {
      if (Err && Err->empty())
        *Err = "malformed shuffle order in checkpoint";
      return false;
    }
    NewOrder.push_back(V);
  }

  if (!Model.loadWeights(Rd, Err))
    return false;
  ArchiveCursor AC = Rd.chunk("adam", Err);
  if (!Opt.load(AC, Err))
    return false;

  EpochsDone = NewEpochsDone;
  LastEpochLoss = NewLoss;
  R.setState(RngState);
  MidEpoch = NewMidEpoch != 0;
  CursorPos = NewCursorPos;
  EpochSum = NewEpochSum;
  EpochSteps = NewEpochSteps;
  Order = std::move(NewOrder);
  Resumed = true;
  return true;
}

double typilus::trainModel(TypeModel &Model, ExampleSource &Train,
                           const TrainOptions &Opts) {
  Trainer T(Model, Opts);
  return T.run(Train);
}

double typilus::trainModel(TypeModel &Model,
                           const std::vector<FileExample> &Train,
                           const TrainOptions &Opts) {
  VectorExampleSource Src(Train);
  return trainModel(Model, Src, Opts);
}
