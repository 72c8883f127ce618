// Base class for neural layers plus parameter (de)serialization.
#ifndef LITE_NN_MODULE_H_
#define LITE_NN_MODULE_H_

#include <iosfwd>
#include <vector>

#include "tensor/autodiff.h"

namespace lite {

/// A composable neural module; exposes its trainable parameters so
/// optimizers and serializers can reach them.
class Module {
 public:
  virtual ~Module() = default;
  virtual std::vector<VarPtr> Params() const = 0;

  /// Total trainable parameter count (for reporting / sanity tests).
  size_t NumParams() const {
    size_t n = 0;
    for (const auto& p : Params()) n += p->numel();
    return n;
  }
};

/// Parameter codec: a simple text format (shape + floats, 9 significant
/// digits — exact binary32 round-trip). Deserialize loads into existing
/// parameters whose shapes must match exactly. Both return false when the
/// stream goes bad; SerializeParams leaves partial output behind on
/// failure, so callers write to a buffer (lite/snapshot.cc does).
bool SerializeParams(const std::vector<VarPtr>& params, std::ostream* os);
bool DeserializeParams(std::istream* is, const std::vector<VarPtr>& params);

/// Deep copy of parameter values from `src` into `dst` (shapes must match).
/// Used by DDPG target networks and by model snapshotting.
void CopyParams(const std::vector<VarPtr>& src, const std::vector<VarPtr>& dst);

/// Polyak averaging: dst = tau * src + (1 - tau) * dst (DDPG soft updates).
void SoftUpdateParams(const std::vector<VarPtr>& src,
                      const std::vector<VarPtr>& dst, float tau);

}  // namespace lite

#endif  // LITE_NN_MODULE_H_
