#include "ml/gbdt.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/timer.h"
#include "common/telemetry/trace.h"

namespace telco {

Gbdt::Gbdt(GbdtOptions options) : options_(options) {}

Status Gbdt::Fit(const Dataset& data) {
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("empty training set");
  }
  if (data.NumClasses() > 2) {
    return Status::InvalidArgument("Gbdt is binary-only");
  }
  if (options_.num_trees < 1) {
    return Status::InvalidArgument("num_trees must be >= 1");
  }
  TELCO_ASSIGN_OR_RETURN(const FeatureBinner binner,
                         FeatureBinner::Fit(data, 64));
  const BinnedDataset binned = EncodeBins(binner, data);

  // Base margin: weighted log-odds of the positive class.
  double pos_weight = 0.0;
  double total_weight = 0.0;
  for (size_t i = 0; i < data.num_rows(); ++i) {
    total_weight += data.weight(i);
    if (data.label(i) == 1) pos_weight += data.weight(i);
  }
  base_margin_ = Logit(pos_weight / std::max(total_weight, 1e-12));

  TreeOptions tree_options;
  tree_options.max_depth = options_.max_depth;
  tree_options.min_samples_split = options_.min_samples_split;
  tree_options.min_samples_leaf = options_.min_samples_leaf;
  tree_options.max_features = 0;  // GBDT uses all features per node.

  const size_t n = data.num_rows();
  std::vector<double> margin(n, base_margin_);
  std::vector<double> grad(n);
  std::vector<double> hess(n);
  Rng rng(options_.seed);

  static const Counter trees_fitted =
      MetricsRegistry::Global().GetCounter("ml.gbdt.trees_fitted");
  static const Counter nodes_total =
      MetricsRegistry::Global().GetCounter("ml.gbdt.nodes");
  static const Histogram tree_fit_seconds =
      MetricsRegistry::Global().GetHistogram("ml.gbdt.tree_fit_seconds");
  TraceSpan fit_span(StrFormat("ml.gbdt.fit:%d_trees", options_.num_trees));

  trees_.clear();
  trees_.reserve(options_.num_trees);
  for (int t = 0; t < options_.num_trees; ++t) {
    TraceSpan tree_span(StrFormat("ml.gbdt.tree:%d", t));
    Stopwatch tree_watch;
    for (size_t i = 0; i < n; ++i) {
      const double p = Sigmoid(margin[i]);
      const double y = data.label(i) == 1 ? 1.0 : 0.0;
      const double w = data.weight(i);
      grad[i] = w * (p - y);
      hess[i] = std::max(w * p * (1.0 - p), 1e-12);
    }
    std::vector<size_t> sample;
    if (options_.subsample < 1.0) {
      sample.reserve(static_cast<size_t>(options_.subsample * n) + 1);
      for (size_t i = 0; i < n; ++i) {
        if (rng.Bernoulli(options_.subsample)) sample.push_back(i);
      }
      if (sample.empty()) sample.push_back(rng.UniformInt(n));
    } else {
      sample.resize(n);
      for (size_t i = 0; i < n; ++i) sample[i] = i;
    }
    RegressionTree tree;
    TELCO_RETURN_NOT_OK(tree.Fit(binned, grad, hess, sample, tree_options,
                                 options_.lambda, &rng));
    for (size_t i = 0; i < n; ++i) {
      margin[i] += options_.learning_rate * tree.Predict(data.Row(i));
    }
    tree_fit_seconds.Observe(tree_watch.ElapsedSeconds());
    trees_fitted.Add();
    nodes_total.Add(tree.num_nodes());
    trees_.push_back(std::move(tree));
  }
  TELCO_ASSIGN_OR_RETURN(
      binned_, BinnedForest::CompileMargin(trees_, base_margin_,
                                           options_.learning_rate));
  return Status::OK();
}

std::vector<double> Gbdt::PredictProbaBatch(FeatureMatrix rows,
                                            ThreadPool* pool) const {
  if (binned_ == nullptr) return Classifier::PredictProbaBatch(rows, pool);
  return binned_->PredictProba(rows, pool);
}

double Gbdt::PredictMargin(std::span<const double> row) const {
  double margin = base_margin_;
  for (const auto& tree : trees_) {
    margin += options_.learning_rate * tree.Predict(row);
  }
  return margin;
}

double Gbdt::PredictProba(std::span<const double> row) const {
  return Sigmoid(PredictMargin(row));
}

}  // namespace telco
