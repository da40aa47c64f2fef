// Quantile feature binning.
//
// Three consumers:
//  * the tree learners use BinnedDataset codes for fast histogram split
//    search (each feature quantised to <= max_bins levels, stored
//    feature-major so a histogram pass reads one contiguous column);
//  * the linear models use QuantileOneHotEncoder to produce the "discrete
//    binary features by preprocessing the original continuous feature
//    values" that the paper feeds LIBLINEAR and LIBFM (Section 5.8);
//  * the binned inference engine (ml/binned_forest.h) uses
//    ThresholdEdgeMap to turn a fitted ensemble's split thresholds into
//    per-feature integer codes whose compares reproduce the exact double
//    compares bit-for-bit.

#ifndef TELCO_ML_BINNING_H_
#define TELCO_ML_BINNING_H_

#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "ml/dataset.h"

namespace telco {

class ThreadPool;

/// \brief Per-feature quantile bin edges fitted on a training set.
class FeatureBinner {
 public:
  /// Fits up to `max_bins` quantile bins per feature (max 256), one
  /// feature per task on `pool` (null = inline); each feature's edges
  /// come from its column in row order, so they do not depend on the
  /// pool.
  static Result<FeatureBinner> Fit(const Dataset& data, int max_bins = 64,
                                   ThreadPool* pool = nullptr);

  size_t num_features() const { return edges_.size(); }

  /// Number of bins for feature j (edges + 1).
  int NumBins(size_t j) const { return static_cast<int>(edges_[j].size()) + 1; }

  /// Bin code of value v for feature j: the number of edges < v is the
  /// count of upper_bound over ascending edges; v <= edges[b] maps to b.
  uint8_t BinOf(size_t j, double v) const;

  /// Upper boundary value of bin b for feature j (the split threshold a
  /// tree stores when cutting after bin b). Precondition: b < NumBins-1.
  double UpperEdge(size_t j, int b) const { return edges_[j][b]; }

 private:
  // edges_[j] is the ascending list of bin upper boundaries (size bins-1).
  std::vector<std::vector<double>> edges_;
};

/// \brief A dataset's feature matrix quantised through a FeatureBinner.
///
/// Codes are feature-major: a split search that histograms a few sampled
/// features over a node's rows reads one num_rows-byte column per
/// feature instead of striding across every row's full code record.
struct BinnedDataset {
  const FeatureBinner* binner = nullptr;
  size_t num_rows = 0;
  size_t num_features = 0;
  std::vector<uint8_t> codes;  // feature-major: [feature * num_rows + row]

  /// The codes of one feature, indexed by row.
  const uint8_t* Column(size_t feature) const {
    return codes.data() + feature * num_rows;
  }

  uint8_t Code(size_t row, size_t feature) const {
    return Column(feature)[row];
  }
};

/// \brief Encodes a dataset through a fitted binner, in row chunks on
/// `pool` (null = inline); every code is independent of the pool.
BinnedDataset EncodeBins(const FeatureBinner& binner, const Dataset& data,
                         ThreadPool* pool = nullptr);

/// \brief Per-feature sorted split-threshold edges compiled from a fitted
/// ensemble — the code book of the binned inference engine.
///
/// Unlike FeatureBinner (quantile edges estimated from training data),
/// the edges here are exactly the distinct thresholds the ensemble tests,
/// so integer compares over codes reproduce every `v <= threshold` double
/// compare: with ascending distinct edges e_0 < ... < e_{k-1} and
/// code(v) = |{i : e_i < v}| (a lower_bound count), `v <= e_i` holds iff
/// `code(v) <= i` for every non-NaN v (including v exactly equal to an
/// edge, ±0.0, denormals and ±inf). NaN row values map to the sentinel
/// code k, above every edge code, so they compare false against every
/// split and fall right — the IEEE behaviour of the pointer walk.
class ThresholdEdgeMap {
 public:
  /// Builds the per-feature edge lists from raw threshold collections
  /// (one vector per feature; duplicates are deduped, NaN thresholds are
  /// dropped — a NaN split never compares true, so callers encode such
  /// nodes as unconditionally-right instead). Fails when any feature has
  /// more than 65535 distinct thresholds: codes are at most uint16 wide,
  /// and truncating would silently corrupt scores, so callers score
  /// through the pointer walk instead.
  static Result<ThresholdEdgeMap> Build(
      const std::vector<std::vector<double>>& thresholds);

  size_t num_features() const { return offsets_.size() - 1; }

  /// Distinct edges stored for feature j.
  size_t NumEdges(size_t j) const { return offsets_[j + 1] - offsets_[j]; }

  /// Largest code any feature can produce (= max per-feature edge count,
  /// the NaN sentinel of the widest feature).
  size_t max_code() const { return max_edges_; }

  /// True when every code fits a uint8 row-code buffer; features with
  /// more than 255 distinct thresholds force the uint16 buffer instead
  /// of truncating.
  bool fits_uint8() const { return max_edges_ <= 0xFF; }

  /// Code of a threshold that Build stored for feature j (bins exactly
  /// like the values <= it). Precondition: `threshold` is one of the
  /// feature's edges.
  uint16_t CodeOf(size_t j, double threshold) const;

  /// Code of a row value: the number of feature-j edges < v, or the
  /// sentinel NumEdges(j) when v is NaN.
  uint16_t BinOf(size_t j, double v) const;

  /// Encodes row[0 .. num_features) into out, one branchless lower_bound
  /// per feature (Code is uint8_t or uint16_t; see fits_uint8()).
  template <typename Code>
  void EncodeRow(const double* row, Code* out) const {
    const double* const all = edges_.data();
    for (size_t j = 0; j + 1 < offsets_.size(); ++j) {
      const double* const first = all + offsets_[j];
      const size_t len = offsets_[j + 1] - offsets_[j];
      const double v = row[j];
      // Branchless lower_bound: halve the candidate range with a
      // conditional-move step; NaN compares false everywhere, so it is
      // remapped to the sentinel afterwards.
      const double* base = first;
      size_t n = len;
      while (n > 1) {
        const size_t half = n / 2;
        base += (base[half - 1] < v) ? half : 0;
        n -= half;
      }
      const size_t code =
          static_cast<size_t>(base - first) + ((n == 1 && *base < v) ? 1 : 0);
      out[j] = static_cast<Code>(std::isnan(v) ? len : code);
    }
  }

 private:
  std::vector<double> edges_;      // all features concatenated, ascending
  std::vector<uint32_t> offsets_;  // feature j owns [offsets_[j], offsets_[j+1])
  uint32_t max_edges_ = 0;
};

/// \brief Expands continuous features into one-hot bin indicators.
class QuantileOneHotEncoder {
 public:
  /// Fits bins on `data` (typically fewer bins than tree binning).
  static Result<QuantileOneHotEncoder> Fit(const Dataset& data,
                                           int max_bins = 16);

  /// Width of the encoded feature space.
  size_t EncodedWidth() const { return total_width_; }

  /// Transforms a dataset into indicator space (labels/weights carried over).
  Dataset Transform(const Dataset& data) const;

  /// Transforms a single row.
  std::vector<double> TransformRow(std::span<const double> row) const;

 private:
  FeatureBinner binner_;
  std::vector<size_t> offsets_;  // cumulative bin offsets per feature
  size_t total_width_ = 0;
  std::vector<std::string> encoded_names_;
};

}  // namespace telco

#endif  // TELCO_ML_BINNING_H_
