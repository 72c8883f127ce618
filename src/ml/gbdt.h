// Least-squares gradient-boosted regression trees — the "LightGBM" baseline
// of Table VII. Boosting on the squared loss fits each tree to the current
// residuals, shrunk by a learning rate.
#ifndef LITE_ML_GBDT_H_
#define LITE_ML_GBDT_H_

#include <vector>

#include "ml/decision_tree.h"
#include "util/rng.h"

namespace lite {

struct GbdtOptions {
  size_t num_rounds = 80;
  double learning_rate = 0.1;
  TreeOptions tree{.max_depth = 5, .min_samples_leaf = 3, .min_samples_split = 6};
  /// Stochastic gradient boosting: row subsample per round.
  double subsample = 0.9;
};

class GbdtRegressor {
 public:
  explicit GbdtRegressor(GbdtOptions options = {}) : options_(options) {}

  void Fit(const std::vector<std::vector<double>>& x,
           const std::vector<double>& y, Rng* rng);

  double Predict(const std::vector<double>& features) const;

  /// Training-set RMSE after fitting (reported by tests).
  double train_rmse() const { return train_rmse_; }
  size_t NumTrees() const { return trees_.size(); }

 private:
  GbdtOptions options_;
  double base_prediction_ = 0.0;
  double train_rmse_ = 0.0;
  std::vector<DecisionTreeRegressor> trees_;
};

}  // namespace lite

#endif  // LITE_ML_GBDT_H_
