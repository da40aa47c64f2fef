#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/logging.h"

namespace telco {

namespace {

// Gini index of a weighted class histogram (paper Eq. 6 generalised to C
// classes): G = 1 - sum_c p_c^2.
double GiniIndex(const double* class_weights, int num_classes,
                 double total) {
  if (total <= 0.0) return 0.0;
  double sum_sq = 0.0;
  for (int c = 0; c < num_classes; ++c) {
    const double p = class_weights[c] / total;
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

// Samples `k` distinct feature indices out of `n` (all of them when k is
// 0 or >= n) into `out`.
void SampleFeatures(size_t n, size_t k, Rng* rng, std::vector<size_t>* out) {
  if (k == 0 || k >= n) {
    out->resize(n);
    std::iota(out->begin(), out->end(), 0);
    return;
  }
  rng->SampleWithoutReplacement(n, k, out);
}

// Features histogrammed per pass over a node's rows. Each feature's
// cells still add their rows in node order; the passes only overlap the
// features' read-modify-write chains, which bound a one-feature pass
// whenever consecutive rows land in the same cell.
constexpr size_t kHistBlock = 8;

}  // namespace

// ------------------------------------------------------- ClassificationTree

// Everything BuildNode needs besides the tree itself, sized once per
// fit. A node's rows are rows[begin, end); the per-node arrays (labels,
// weights) and the per-feature arrays (histograms, scan terms) are reused
// by every node, since a node is done with them before it recurses.
struct ClassificationTree::Scratch {
  Scratch(std::vector<size_t> sample, int classes, int bins)
      : num_classes(classes),
        max_bins(static_cast<size_t>(bins)),
        rows(std::move(sample)),
        spill(rows.size()),
        labels(rows.size()),
        weights(rows.size()),
        class_weights(num_classes),
        hist(kHistBlock * max_bins * num_classes),
        counts(kHistBlock * max_bins),
        left(max_bins * num_classes),
        left_counts(max_bins),
        left_weight(max_bins),
        left_sum_sq(max_bins),
        right_sum_sq(max_bins),
        improvement(max_bins) {}

  // Builds the (bin, class) weight histograms and per-bin row counts of
  // `block` features over the node's n rows; feature f's land at
  // Hist(f) and Counts(f).
  void Histogram(const BinnedDataset& binned, const size_t* features,
                 size_t block, const size_t* node_rows, size_t n);
  double* Hist(size_t f) { return hist.data() + f * max_bins * num_classes; }
  size_t* Counts(size_t f) { return counts.data() + f * max_bins; }

  // Scans every cut of one feature's histogram (cutting after bin b sends
  // bins [0, b] left); the first cut whose Gini improvement strictly
  // beats *best_improvement becomes the best split.
  void ScanCuts(int feature, int num_bins, const double* feature_hist,
                const size_t* feature_counts, size_t n, double node_weight,
                double parent_gini, const TreeOptions& options,
                double* best_improvement, int* best_feature, int* best_bin);

  const int num_classes;
  const size_t max_bins;
  std::vector<size_t> rows;      // node ranges, partitioned in place
  std::vector<size_t> spill;     // right-hand rows while partitioning
  std::vector<int> labels;       // the node's labels, in node order
  std::vector<double> weights;   // the node's weights, in node order
  std::vector<size_t> features;  // the node's sampled subspace
  std::vector<double> class_weights;
  std::vector<double> hist;
  std::vector<size_t> counts;
  // Per cut b: class-major prefix sums left[c * cuts + b], prefix row
  // counts, and the terms of the cut's improvement.
  std::vector<double> left;
  std::vector<size_t> left_counts;
  std::vector<double> left_weight;
  std::vector<double> left_sum_sq;
  std::vector<double> right_sum_sq;
  std::vector<double> improvement;
};

void ClassificationTree::Scratch::Histogram(const BinnedDataset& binned,
                                            const size_t* block_features,
                                            size_t block,
                                            const size_t* node_rows,
                                            size_t n) {
  const uint8_t* codes[kHistBlock];
  double* hists[kHistBlock];
  size_t* bin_counts[kHistBlock];
  for (size_t f = 0; f < block; ++f) {
    const size_t j = block_features[f];
    const size_t num_bins = static_cast<size_t>(binned.binner->NumBins(j));
    codes[f] = binned.Column(j);
    hists[f] = Hist(f);
    bin_counts[f] = Counts(f);
    std::fill(hists[f], hists[f] + num_bins * num_classes, 0.0);
    std::fill(bin_counts[f], bin_counts[f] + num_bins, 0);
  }
  for (size_t k = 0; k < n; ++k) {
    const size_t idx = node_rows[k];
    const size_t label = static_cast<size_t>(labels[k]);
    const double weight = weights[k];
    for (size_t f = 0; f < block; ++f) {
      const uint8_t code = codes[f][idx];
      hists[f][static_cast<size_t>(code) * num_classes + label] += weight;
      ++bin_counts[f][code];
    }
  }
}

void ClassificationTree::Scratch::ScanCuts(
    int feature, int num_bins, const double* feature_hist,
    const size_t* feature_counts, size_t n, double node_weight,
    double parent_gini, const TreeOptions& options, double* best_improvement,
    int* best_feature, int* best_bin) {
  // Three passes that keep a serial scan's expressions and summation
  // order. 1: prefix sums in bin order.
  const size_t cuts = static_cast<size_t>(num_bins) - 1;
  for (int c = 0; c < num_classes; ++c) {
    double sum = 0.0;
    for (size_t b = 0; b < cuts; ++b) {
      sum += feature_hist[b * num_classes + c];
      left[c * cuts + b] = sum;
    }
  }
  size_t count = 0;
  for (size_t b = 0; b < cuts; ++b) {
    count += feature_counts[b];
    left_counts[b] = count;
  }
  // 2: every cut's improvement, each independent of the others. The
  // class loops are outermost, so a cut's sums still add classes in
  // order: left weight (0 + l_0) + l_1 ..., Gini 1 - ((0 + p_0^2) +
  // p_1^2 ...). A cut that breaks min_samples_leaf or leaves the left
  // side weightless or whole gets NaN, which never compares greater.
  std::fill(left_weight.begin(), left_weight.begin() + cuts, 0.0);
  std::fill(left_sum_sq.begin(), left_sum_sq.begin() + cuts, 0.0);
  std::fill(right_sum_sq.begin(), right_sum_sq.begin() + cuts, 0.0);
  for (int c = 0; c < num_classes; ++c) {
    const double* const left_c = left.data() + c * cuts;
    for (size_t b = 0; b < cuts; ++b) left_weight[b] += left_c[b];
  }
  for (int c = 0; c < num_classes; ++c) {
    const double* const left_c = left.data() + c * cuts;
    const double class_weight = class_weights[c];
    for (size_t b = 0; b < cuts; ++b) {
      const double p_left = left_c[b] / left_weight[b];
      left_sum_sq[b] += p_left * p_left;
      const double p_right =
          (class_weight - left_c[b]) / (node_weight - left_weight[b]);
      right_sum_sq[b] += p_right * p_right;
    }
  }
  for (size_t b = 0; b < cuts; ++b) {
    const double q = left_weight[b] / node_weight;
    const double gain = parent_gini - q * (1.0 - left_sum_sq[b]) -
                        (1.0 - q) * (1.0 - right_sum_sq[b]);
    const bool skip = left_counts[b] < options.min_samples_leaf ||
                      n - left_counts[b] < options.min_samples_leaf ||
                      left_weight[b] <= 0.0 || left_weight[b] >= node_weight;
    improvement[b] = skip ? std::numeric_limits<double>::quiet_NaN() : gain;
  }
  // 3: the first strict maximum, bins ascending.
  for (size_t b = 0; b < cuts; ++b) {
    if (improvement[b] > *best_improvement) {
      *best_improvement = improvement[b];
      *best_feature = feature;
      *best_bin = static_cast<int>(b);
    }
  }
}

Status ClassificationTree::Fit(const BinnedDataset& binned,
                               const Dataset& data,
                               const std::vector<size_t>& indices,
                               int num_classes, const TreeOptions& options,
                               Rng* rng, std::vector<double>* importance) {
  if (num_classes < 2) {
    return Status::InvalidArgument("need at least 2 classes");
  }
  if (indices.empty()) {
    return Status::InvalidArgument("cannot fit a tree on zero rows");
  }
  if (binned.num_rows != data.num_rows()) {
    return Status::InvalidArgument("binned/raw row count mismatch");
  }
  num_classes_ = num_classes;
  nodes_.clear();
  leaf_proba_.clear();
  double total_weight = 0.0;
  for (size_t idx : indices) total_weight += data.weight(idx);
  if (total_weight <= 0.0) {
    return Status::InvalidArgument("total instance weight is zero");
  }
  int max_bins = 1;
  for (size_t j = 0; j < binned.num_features; ++j) {
    max_bins = std::max(max_bins, binned.binner->NumBins(j));
  }
  Scratch scratch(indices, num_classes, max_bins);
  BuildNode(binned, data, &scratch, 0, indices.size(), 0, options, rng,
            importance, total_weight);
  return Status::OK();
}

size_t ClassificationTree::BuildNode(
    const BinnedDataset& binned, const Dataset& data, Scratch* scratch,
    size_t begin, size_t end, int depth, const TreeOptions& options,
    Rng* rng, std::vector<double>* importance, double total_weight) {
  const size_t node_id = nodes_.size();
  nodes_.emplace_back();
  const size_t n = end - begin;
  size_t* const rows = scratch->rows.data() + begin;

  // Gather the node's labels and weights in node order; node class
  // histogram.
  double* const class_weights = scratch->class_weights.data();
  std::fill(class_weights, class_weights + num_classes_, 0.0);
  double node_weight = 0.0;
  for (size_t k = 0; k < n; ++k) {
    const int label = data.label(rows[k]);
    const double weight = data.weight(rows[k]);
    scratch->labels[k] = label;
    scratch->weights[k] = weight;
    class_weights[label] += weight;
    node_weight += weight;
  }
  const double parent_gini =
      GiniIndex(class_weights, num_classes_, node_weight);

  auto make_leaf = [&] {
    Node& node = nodes_[node_id];
    node.proba_offset = static_cast<int32_t>(leaf_proba_.size());
    for (int c = 0; c < num_classes_; ++c) {
      leaf_proba_.push_back(node_weight > 0.0
                                ? class_weights[c] / node_weight
                                : 1.0 / num_classes_);
    }
    return node_id;
  };

  const bool pure = parent_gini <= 0.0;
  if (pure || depth >= options.max_depth || n < options.min_samples_split) {
    return make_leaf();
  }

  // Split search over a random feature subspace, in sampled order;
  // single-bin features have no cut.
  std::vector<size_t>& features = scratch->features;
  SampleFeatures(binned.num_features, options.max_features, rng, &features);
  features.erase(std::remove_if(features.begin(), features.end(),
                                [&](size_t j) {
                                  return binned.binner->NumBins(j) < 2;
                                }),
                 features.end());

  double best_improvement = options.min_improvement;
  int best_feature = -1;
  int best_bin = -1;
  for (size_t first = 0; first < features.size(); first += kHistBlock) {
    const size_t block = std::min(kHistBlock, features.size() - first);
    scratch->Histogram(binned, features.data() + first, block, rows, n);
    for (size_t f = 0; f < block; ++f) {
      const size_t j = features[first + f];
      scratch->ScanCuts(static_cast<int>(j), binned.binner->NumBins(j),
                        scratch->Hist(f), scratch->Counts(f), n, node_weight,
                        parent_gini, options, &best_improvement,
                        &best_feature, &best_bin);
    }
  }

  if (best_feature < 0) return make_leaf();

  if (importance != nullptr) {
    TELCO_DCHECK(importance->size() == binned.num_features);
    // Eq. (7) summed with the standard node-weight fraction so shallow,
    // high-coverage splits dominate deep noise splits.
    (*importance)[best_feature] +=
        best_improvement * (node_weight / total_weight);
  }

  // Stable in-place partition: left rows compact to the front in order,
  // right rows go through the spill buffer and follow them in order.
  const uint8_t* const split_codes = binned.Column(best_feature);
  size_t* const spill = scratch->spill.data();
  size_t num_left = 0;
  size_t num_right = 0;
  for (size_t k = 0; k < n; ++k) {
    const size_t idx = rows[k];
    if (split_codes[idx] <= best_bin) {
      rows[num_left++] = idx;
    } else {
      spill[num_right++] = idx;
    }
  }
  std::copy(spill, spill + num_right, rows + num_left);

  const double threshold =
      binned.binner->UpperEdge(static_cast<size_t>(best_feature), best_bin);
  const size_t left_id =
      BuildNode(binned, data, scratch, begin, begin + num_left, depth + 1,
                options, rng, importance, total_weight);
  const size_t right_id =
      BuildNode(binned, data, scratch, begin + num_left, end, depth + 1,
                options, rng, importance, total_weight);
  Node& node = nodes_[node_id];
  node.feature = best_feature;
  node.threshold = threshold;
  node.left = static_cast<int32_t>(left_id);
  node.right = static_cast<int32_t>(right_id);
  return node_id;
}

std::span<const double> ClassificationTree::PredictProba(
    std::span<const double> row) const {
  TELCO_DCHECK(!nodes_.empty());
  size_t id = 0;
  while (nodes_[id].feature >= 0) {
    const Node& node = nodes_[id];
    id = row[node.feature] <= node.threshold
             ? static_cast<size_t>(node.left)
             : static_cast<size_t>(node.right);
  }
  return std::span<const double>(
      leaf_proba_.data() + nodes_[id].proba_offset, num_classes_);
}

void ClassificationTree::Export(std::vector<SerializedNode>* nodes,
                                std::vector<double>* leaf_proba) const {
  nodes->clear();
  nodes->reserve(nodes_.size());
  for (const Node& n : nodes_) {
    nodes->push_back(
        SerializedNode{n.feature, n.threshold, n.left, n.right,
                       n.proba_offset});
  }
  *leaf_proba = leaf_proba_;
}

Result<ClassificationTree> ClassificationTree::Import(
    const std::vector<SerializedNode>& nodes,
    std::vector<double> leaf_proba, int num_classes) {
  if (num_classes < 2) {
    return Status::InvalidArgument("need at least 2 classes");
  }
  if (nodes.empty()) {
    return Status::InvalidArgument("tree must have at least one node");
  }
  const auto n = static_cast<int64_t>(nodes.size());
  for (const SerializedNode& node : nodes) {
    if (node.feature < 0) {
      // Leaf: its class distribution must fit the probability array.
      if (node.proba_offset < 0 ||
          node.proba_offset + num_classes >
              static_cast<int64_t>(leaf_proba.size())) {
        return Status::InvalidArgument("leaf probability offset invalid");
      }
    } else {
      if (node.left < 0 || node.left >= n || node.right < 0 ||
          node.right >= n) {
        return Status::InvalidArgument("child index out of range");
      }
    }
  }
  ClassificationTree tree;
  tree.num_classes_ = num_classes;
  tree.leaf_proba_ = std::move(leaf_proba);
  tree.nodes_.reserve(nodes.size());
  for (const SerializedNode& node : nodes) {
    tree.nodes_.push_back(Node{node.feature, node.threshold, node.left,
                               node.right, node.proba_offset});
  }
  return tree;
}

// ----------------------------------------------------------- RegressionTree

Status RegressionTree::Fit(const BinnedDataset& binned,
                           std::span<const double> grad,
                           std::span<const double> hess,
                           const std::vector<size_t>& indices,
                           const TreeOptions& options, double lambda,
                           Rng* rng) {
  if (indices.empty()) {
    return Status::InvalidArgument("cannot fit a tree on zero rows");
  }
  if (grad.size() != binned.num_rows || hess.size() != binned.num_rows) {
    return Status::InvalidArgument("gradient size mismatch");
  }
  nodes_.clear();
  std::vector<size_t> work(indices);
  BuildNode(binned, grad, hess, work, 0, options, lambda, rng);
  return Status::OK();
}

size_t RegressionTree::BuildNode(const BinnedDataset& binned,
                                 std::span<const double> grad,
                                 std::span<const double> hess,
                                 std::vector<size_t>& node_indices, int depth,
                                 const TreeOptions& options, double lambda,
                                 Rng* rng) {
  const size_t node_id = nodes_.size();
  nodes_.emplace_back();

  double g_total = 0.0;
  double h_total = 0.0;
  for (size_t idx : node_indices) {
    g_total += grad[idx];
    h_total += hess[idx];
  }
  const double parent_score = g_total * g_total / (h_total + lambda);

  auto make_leaf = [&] {
    nodes_[node_id].value = -g_total / (h_total + lambda);
    return node_id;
  };

  if (depth >= options.max_depth ||
      node_indices.size() < options.min_samples_split) {
    return make_leaf();
  }

  std::vector<size_t> features;
  SampleFeatures(binned.num_features, options.max_features, rng, &features);

  double best_gain = options.min_improvement;
  int best_feature = -1;
  int best_bin = -1;

  std::vector<double> g_hist;
  std::vector<double> h_hist;
  std::vector<size_t> bin_counts;
  for (size_t j : features) {
    const int num_bins = binned.binner->NumBins(j);
    if (num_bins < 2) continue;
    g_hist.assign(num_bins, 0.0);
    h_hist.assign(num_bins, 0.0);
    bin_counts.assign(num_bins, 0);
    const uint8_t* const codes = binned.Column(j);
    for (size_t idx : node_indices) {
      const uint8_t code = codes[idx];
      g_hist[code] += grad[idx];
      h_hist[code] += hess[idx];
      ++bin_counts[code];
    }
    double g_left = 0.0;
    double h_left = 0.0;
    size_t left_count = 0;
    for (int b = 0; b + 1 < num_bins; ++b) {
      g_left += g_hist[b];
      h_left += h_hist[b];
      left_count += bin_counts[b];
      const size_t right_count = node_indices.size() - left_count;
      if (left_count < options.min_samples_leaf ||
          right_count < options.min_samples_leaf) {
        continue;
      }
      const double g_right = g_total - g_left;
      const double h_right = h_total - h_left;
      // Newton gain (the 1/2 factor is constant and omitted).
      const double gain = g_left * g_left / (h_left + lambda) +
                          g_right * g_right / (h_right + lambda) -
                          parent_score;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(j);
        best_bin = b;
      }
    }
  }

  if (best_feature < 0) return make_leaf();

  std::vector<size_t> left_rows;
  std::vector<size_t> right_rows;
  left_rows.reserve(node_indices.size());
  right_rows.reserve(node_indices.size());
  const uint8_t* const split_codes = binned.Column(best_feature);
  for (size_t idx : node_indices) {
    if (split_codes[idx] <= best_bin) {
      left_rows.push_back(idx);
    } else {
      right_rows.push_back(idx);
    }
  }
  node_indices.clear();
  node_indices.shrink_to_fit();

  const double threshold =
      binned.binner->UpperEdge(static_cast<size_t>(best_feature), best_bin);
  const size_t left_id = BuildNode(binned, grad, hess, left_rows, depth + 1,
                                   options, lambda, rng);
  const size_t right_id = BuildNode(binned, grad, hess, right_rows,
                                    depth + 1, options, lambda, rng);
  Node& node = nodes_[node_id];
  node.feature = best_feature;
  node.threshold = threshold;
  node.left = static_cast<int32_t>(left_id);
  node.right = static_cast<int32_t>(right_id);
  return node_id;
}

void RegressionTree::Export(std::vector<SerializedNode>* nodes) const {
  nodes->clear();
  nodes->reserve(nodes_.size());
  for (const Node& n : nodes_) {
    nodes->push_back(
        SerializedNode{n.feature, n.threshold, n.left, n.right, n.value});
  }
}

double RegressionTree::Predict(std::span<const double> row) const {
  TELCO_DCHECK(!nodes_.empty());
  size_t id = 0;
  while (nodes_[id].feature >= 0) {
    const Node& node = nodes_[id];
    id = row[node.feature] <= node.threshold
             ? static_cast<size_t>(node.left)
             : static_cast<size_t>(node.right);
  }
  return nodes_[id].value;
}

}  // namespace telco
