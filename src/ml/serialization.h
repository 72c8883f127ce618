// Text (de)serialization for the classical models, enabling LiteSystem
// snapshots: a production deployment trains offline once and ships the
// artifacts; the online recommender loads them without re-running the
// corpus collection.
//
// Format: line-oriented, human-inspectable, versioned ("litemodel v1 <kind>"
// header). Readers are strict — any structural mismatch returns false and
// leaves the output object untouched.
#ifndef LITE_ML_SERIALIZATION_H_
#define LITE_ML_SERIALIZATION_H_

#include <iosfwd>

#include "ml/decision_tree.h"
#include "ml/random_forest.h"

namespace lite {

/// Writes/reads a single regression tree.
void SerializeTree(const DecisionTreeRegressor& tree, std::ostream* os);
bool DeserializeTree(std::istream* is, DecisionTreeRegressor* tree);

/// Writes/reads a random forest (options subset + trees).
void SerializeForest(const RandomForestRegressor& forest, std::ostream* os);
bool DeserializeForest(std::istream* is, RandomForestRegressor* forest);

}  // namespace lite

#endif  // LITE_ML_SERIALIZATION_H_
