//===- nn/Optim.h - Adam optimizer ---------------------------------*- C++ -*-===//
//
// Part of the Typilus C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Adam with optional gradient clipping — the optimizer used for all model
/// variants. Deterministic: no internal randomness.
///
//===----------------------------------------------------------------------===//

#ifndef TYPILUS_NN_OPTIM_H
#define TYPILUS_NN_OPTIM_H

#include "nn/Layers.h"
#include "support/Archive.h"

#include <string>
#include <vector>

namespace typilus {
namespace nn {

/// Adam (Kingma & Ba 2015).
class Adam {
public:
  explicit Adam(ParamSet &PS, float Lr = 1e-3f, float ClipNorm = 5.f);

  /// Applies one update from the accumulated gradients, then zeroes them.
  void step();

  /// Appends the optimizer state (step count, hyper-parameters, both
  /// moment vectors) to the open chunk — together with the parameters
  /// this is everything a training checkpoint needs to resume exactly.
  void save(ArchiveWriter &W) const;
  /// Restores state written by save(). Fails with \p Err when the moment
  /// tensors do not match this optimizer's parameter shapes.
  bool load(ArchiveCursor &C, std::string *Err);

private:
  ParamSet &PS;
  std::vector<Tensor> M, V;
  float Lr;
  float ClipNorm;
  float Beta1 = 0.9f, Beta2 = 0.999f, Eps = 1e-8f;
  int T = 0;
};

} // namespace nn
} // namespace typilus

#endif // TYPILUS_NN_OPTIM_H
