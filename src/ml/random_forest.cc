#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/timer.h"
#include "common/telemetry/trace.h"
#include "common/thread_pool.h"

namespace telco {

RandomForest::RandomForest(RandomForestOptions options)
    : options_(options) {}

Status RandomForest::Fit(const Dataset& data) {
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("empty training set");
  }
  if (options_.num_trees < 1) {
    return Status::InvalidArgument("num_trees must be >= 1");
  }
  num_classes_ = data.NumClasses();

  static const Counter trees_fitted =
      MetricsRegistry::Global().GetCounter("ml.rf.trees_fitted");
  static const Counter nodes_total =
      MetricsRegistry::Global().GetCounter("ml.rf.nodes");
  static const Histogram tree_fit_seconds =
      MetricsRegistry::Global().GetHistogram("ml.rf.tree_fit_seconds");
  static const Histogram bin_seconds =
      MetricsRegistry::Global().GetHistogram("ml.rf.bin_seconds");
  TraceSpan fit_span(StrFormat("ml.rf.fit:%d_trees", options_.num_trees));

  // Binning runs on the fit's pool too: features in blocks, codes in row
  // chunks. Neither result depends on the pool.
  ThreadPool* pool = nullptr;
  if (options_.parallel) {
    pool = options_.pool != nullptr ? options_.pool : &ThreadPool::Default();
  }
  FeatureBinner binner;
  BinnedDataset binned;
  {
    TraceSpan bin_span("ml.rf.bin");
    Stopwatch bin_watch;
    TELCO_ASSIGN_OR_RETURN(binner, FeatureBinner::Fit(data, 64, pool));
    binned = EncodeBins(binner, data, pool);
    bin_seconds.Observe(bin_watch.ElapsedSeconds());
  }

  TreeOptions tree_options;
  tree_options.max_depth = options_.max_depth;
  tree_options.min_samples_split = options_.min_samples_split;
  tree_options.min_samples_leaf = options_.min_samples_leaf;
  tree_options.max_features =
      options_.max_features > 0
          ? options_.max_features
          : static_cast<size_t>(
                std::lround(std::sqrt(static_cast<double>(
                    data.num_features()))));
  const size_t bootstrap_n = std::max<size_t>(
      1, static_cast<size_t>(options_.bootstrap_fraction *
                             static_cast<double>(data.num_rows())));

  trees_.assign(options_.num_trees, ClassificationTree());
  std::vector<std::vector<double>> per_tree_importance(
      options_.num_trees,
      std::vector<double>(data.num_features(), 0.0));

  Status first_error;
  std::mutex error_mutex;
  auto fit_tree = [&](size_t t) {
    TraceSpan tree_span(StrFormat("ml.rf.tree:%zu", t));
    Stopwatch tree_watch;
    Rng rng(HashCombine64(options_.seed, t));
    std::vector<size_t> sample(bootstrap_n);
    for (auto& idx : sample) {
      idx = rng.UniformInt(static_cast<uint64_t>(data.num_rows()));
    }
    const Status st =
        trees_[t].Fit(binned, data, sample, num_classes_, tree_options, &rng,
                      &per_tree_importance[t]);
    if (!st.ok()) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (first_error.ok()) first_error = st;
      return;
    }
    tree_fit_seconds.Observe(tree_watch.ElapsedSeconds());
    trees_fitted.Add();
    nodes_total.Add(trees_[t].num_nodes());
  };

  // One task per tree: tree sizes vary, and a grid of multi-tree chunks
  // leaves workers idle behind the last large chunk.
  RunParallelChunks(pool, 0, trees_.size(), trees_.size(),
                    [&](size_t, size_t lo, size_t hi) {
                      for (size_t t = lo; t < hi; ++t) fit_tree(t);
                    });
  TELCO_RETURN_NOT_OK(first_error);
  TELCO_ASSIGN_OR_RETURN(binned_, BinnedForest::CompileAverage(trees_));

  // Aggregate Eq. (7) importance across trees and normalise to sum 1.
  importance_.assign(data.num_features(), 0.0);
  for (const auto& imp : per_tree_importance) {
    for (size_t j = 0; j < imp.size(); ++j) importance_[j] += imp[j];
  }
  double total = 0.0;
  for (double v : importance_) total += v;
  if (total > 0.0) {
    for (auto& v : importance_) v /= total;
  }
  return Status::OK();
}

double RandomForest::PredictProba(std::span<const double> row) const {
  TELCO_DCHECK(!trees_.empty());
  double total = 0.0;
  for (const auto& tree : trees_) {
    total += tree.PredictProba(row)[1];
  }
  return total / static_cast<double>(trees_.size());
}

std::vector<double> RandomForest::PredictProbaBatch(FeatureMatrix rows,
                                                    ThreadPool* pool) const {
  if (binned_ == nullptr) return Classifier::PredictProbaBatch(rows, pool);
  return binned_->PredictProba(rows, pool);
}

std::vector<double> RandomForest::PredictClassProba(
    std::span<const double> row) const {
  TELCO_DCHECK(!trees_.empty());
  std::vector<double> out(num_classes_, 0.0);
  for (const auto& tree : trees_) {
    const auto proba = tree.PredictProba(row);
    for (int c = 0; c < num_classes_; ++c) out[c] += proba[c];
  }
  for (auto& v : out) v /= static_cast<double>(trees_.size());
  return out;
}

Result<RandomForest> RandomForest::FromParts(
    RandomForestOptions options, int num_classes,
    std::vector<ClassificationTree> trees, std::vector<double> importance) {
  if (trees.empty()) {
    return Status::InvalidArgument("forest must contain at least one tree");
  }
  for (const auto& tree : trees) {
    if (tree.num_classes() != num_classes) {
      return Status::InvalidArgument("tree class count mismatch");
    }
  }
  RandomForest forest(options);
  forest.num_classes_ = num_classes;
  forest.trees_ = std::move(trees);
  forest.importance_ = std::move(importance);
  TELCO_ASSIGN_OR_RETURN(forest.binned_,
                         BinnedForest::CompileAverage(forest.trees_));
  return forest;
}

std::vector<std::pair<size_t, double>> RandomForest::RankedImportance()
    const {
  std::vector<std::pair<size_t, double>> ranked;
  ranked.reserve(importance_.size());
  for (size_t j = 0; j < importance_.size(); ++j) {
    ranked.emplace_back(j, importance_[j]);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  return ranked;
}

}  // namespace telco
