//===- core/Trainer.h - Training loop ------------------------------*- C++ -*-===//
//
// Part of the Typilus C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mini-batch training loop shared by all nine Table 2 variants:
/// shuffle files, embed each batch, apply the configured loss, Adam-step.
/// Also builds the model's type vocabularies from the training split.
///
/// The `Trainer` class adds durable checkpoints: `saveCheckpoint` writes
/// the mutable training state (weights, RNG streams, Adam moments, the
/// shuffle order and epoch counter) as a versioned archive, and
/// `resumeFrom` restores it so the continued run is bit-identical to one
/// that never stopped.
///
//===----------------------------------------------------------------------===//

#ifndef TYPILUS_CORE_TRAINER_H
#define TYPILUS_CORE_TRAINER_H

#include "corpus/Dataset.h"
#include "corpus/ExampleStream.h"
#include "models/Model.h"

#include <memory>
#include <string>

namespace typilus {

/// Payload format version of training checkpoints. Version 2 added the
/// mid-epoch cursor (position in the shuffled order plus the running
/// epoch-loss accumulators) for checkpoint-every-N-steps resume.
inline constexpr uint32_t kCheckpointVersion = 2;

/// Training-loop knobs.
struct TrainOptions {
  int Epochs = 8;
  int BatchFiles = 4; ///< Files per minibatch (symbols pool across files).
  float LearningRate = 1e-3f;
  float ClipNorm = 5.f;
  uint64_t Seed = 31337;
  bool Verbose = false; ///< Prints per-epoch mean loss to stdout.
  /// Ways of parallelism for embedding/kernel work (0 = all hardware
  /// threads). Every kernel is bit-reproducible across thread counts, so
  /// NumThreads=1 and NumThreads=N produce identical losses and weights;
  /// 1 additionally runs everything inline (today's serial behavior).
  int NumThreads = 0;
  /// When non-empty, a resumable checkpoint is written here after every
  /// epoch (failures are reported to stderr but do not abort training).
  std::string CheckpointPath;
  /// Additionally checkpoint every N optimizer steps (0 = per-epoch
  /// only). Mid-epoch checkpoints carry the position within the shuffled
  /// order, so resuming one is bit-identical to never having stopped.
  int CheckpointEverySteps = 0;
  /// Stop run() after N optimizer steps this invocation (0 = train to
  /// completion) — budgeted training, and the deterministic "interrupt"
  /// the mid-epoch resume tests use. A final checkpoint is written at
  /// the stop point when CheckpointPath is set.
  int StopAfterSteps = 0;
  /// Epoch order policy: false (default) is the global Fisher-Yates
  /// shuffle — identical visitation for in-memory and sharded sources,
  /// the bit-identity contract. true asks the source for a shard-aware
  /// order (shards shuffled, then within-shard) that streams each shard
  /// once per epoch; in-memory sources are one implicit shard, for which
  /// the two policies coincide. Resume with the same setting.
  bool ShardAwareShuffle = false;
};

/// Constructs a model wired to vocabularies derived from the training
/// stream (or, for the convenience overload, from \p DS's train split).
std::unique_ptr<TypeModel> makeModel(const ModelConfig &Config,
                                     ExampleSource &Train, TypeUniverse &U);
std::unique_ptr<TypeModel> makeModel(const ModelConfig &Config,
                                     const Dataset &DS, TypeUniverse &U);

/// The resumable training loop for one model.
class Trainer {
public:
  Trainer(TypeModel &Model, const TrainOptions &Opts);

  /// Trains the remaining epochs [epochsDone(), Opts.Epochs) — resuming
  /// mid-epoch at the checkpointed cursor when there is one — and
  /// returns the final-epoch mean loss (the last checkpointed loss when
  /// nothing is left to train). \p Train may be an in-memory adapter or
  /// a ShardedDataset split; minibatch examples are pinned for the step,
  /// so decoded-shard residency stays bounded. Returns NaN without
  /// training when a resumed checkpoint's shuffle order does not match
  /// \p Train's size — the checkpoint belongs to a different split.
  double run(ExampleSource &Train);
  double run(const std::vector<FileExample> &Train) {
    VectorExampleSource Src(Train);
    return run(Src);
  }

  /// Writes the mutable training state to \p Path.
  bool saveCheckpoint(const std::string &Path, std::string *Err) const;

  /// Restores state written by saveCheckpoint into this trainer and its
  /// model, which must have been constructed with the same configuration
  /// and data (shape drift is rejected). After resuming, run() continues
  /// exactly where the checkpointed run left off.
  bool resumeFrom(const std::string &Path, std::string *Err);

  int epochsDone() const { return EpochsDone; }

private:
  TypeModel &Model;
  TrainOptions Opts;
  nn::Adam Opt;
  Rng R;
  /// The file visitation order; shuffled in place every epoch, so it is
  /// part of the resumable state.
  std::vector<int> Order;
  bool Resumed = false;
  int EpochsDone = 0;
  double LastEpochLoss = 0;
  /// Mid-epoch cursor (checkpoint-every-N-steps): when MidEpoch is set,
  /// Order is already shuffled for the in-progress epoch and training
  /// continues at CursorPos with the epoch-loss accumulators restored.
  bool MidEpoch = false;
  uint64_t CursorPos = 0;
  double EpochSum = 0;
  int EpochSteps = 0;
};

/// Runs the training loop start to finish. Returns the final-epoch mean
/// loss. (Convenience wrapper over Trainer for callers that never resume.)
double trainModel(TypeModel &Model, ExampleSource &Train,
                  const TrainOptions &Opts);
double trainModel(TypeModel &Model, const std::vector<FileExample> &Train,
                  const TrainOptions &Opts);

} // namespace typilus

#endif // TYPILUS_CORE_TRAINER_H
