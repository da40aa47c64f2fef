#include "ml/binning.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace telco {

namespace {

// Rows per EncodeBins task.
constexpr size_t kEncodeRows = 1024;

// Quantile edges of one feature from its values in row order (sorted
// in place).
std::vector<double> QuantileEdges(std::vector<double>& values,
                                  int max_bins) {
  std::sort(values.begin(), values.end());
  std::vector<double> edges;
  // Candidate edges at the quantile cut points; dedupe so constant or
  // few-valued features get fewer (possibly zero) edges.
  for (int b = 1; b < max_bins; ++b) {
    const double pos = static_cast<double>(b) /
                       static_cast<double>(max_bins) *
                       static_cast<double>(values.size() - 1);
    const double edge = values[static_cast<size_t>(pos)];
    if (edges.empty() || edge > edges.back()) edges.push_back(edge);
  }
  // Drop a trailing edge equal to the max so the last bin is non-empty.
  while (!edges.empty() && edges.back() >= values.back()) edges.pop_back();
  return edges;
}

}  // namespace

Result<FeatureBinner> FeatureBinner::Fit(const Dataset& data, int max_bins,
                                         ThreadPool* pool) {
  if (max_bins < 2 || max_bins > 256) {
    return Status::InvalidArgument("max_bins must be in [2, 256]");
  }
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("cannot fit binner on empty dataset");
  }
  const size_t n = data.num_rows();
  const size_t f = data.num_features();
  FeatureBinner binner;
  binner.edges_.resize(f);
  // One task per feature, each gathering its own column: a worker holds
  // one num_rows buffer, never a transposed copy of the matrix.
  RunParallelChunks(pool, 0, f, f, [&](size_t, size_t lo, size_t hi) {
    std::vector<double> values(n);
    for (size_t j = lo; j < hi; ++j) {
      for (size_t r = 0; r < n; ++r) values[r] = data.At(r, j);
      binner.edges_[j] = QuantileEdges(values, max_bins);
    }
  });
  return binner;
}

uint8_t FeatureBinner::BinOf(size_t j, double v) const {
  const auto& edges = edges_[j];
  // v <= edges[b] lands in bin b; above all edges lands in the last bin.
  const auto it = std::lower_bound(edges.begin(), edges.end(), v);
  return static_cast<uint8_t>(it - edges.begin());
}

BinnedDataset EncodeBins(const FeatureBinner& binner, const Dataset& data,
                         ThreadPool* pool) {
  TELCO_CHECK(binner.num_features() == data.num_features());
  BinnedDataset out;
  out.binner = &binner;
  out.num_rows = data.num_rows();
  out.num_features = data.num_features();
  out.codes.resize(out.num_rows * out.num_features);
  const size_t n = out.num_rows;
  const size_t chunks = (n + kEncodeRows - 1) / kEncodeRows;
  RunParallelChunks(pool, 0, n, chunks, [&](size_t, size_t lo, size_t hi) {
    for (size_t r = lo; r < hi; ++r) {
      const auto row = data.Row(r);
      uint8_t* dst = out.codes.data() + r;
      for (size_t j = 0; j < out.num_features; ++j) {
        dst[j * n] = binner.BinOf(j, row[j]);
      }
    }
  });
  return out;
}

Result<ThresholdEdgeMap> ThresholdEdgeMap::Build(
    const std::vector<std::vector<double>>& thresholds) {
  ThresholdEdgeMap map;
  map.offsets_.reserve(thresholds.size() + 1);
  map.offsets_.push_back(0);
  std::vector<double> edges;
  for (size_t j = 0; j < thresholds.size(); ++j) {
    edges.clear();
    edges.reserve(thresholds[j].size());
    for (const double t : thresholds[j]) {
      if (!std::isnan(t)) edges.push_back(t);
    }
    std::sort(edges.begin(), edges.end());
    // Dedupe with ==; -0.0 and 0.0 collapse into one edge, which is safe
    // because `v <= -0.0` and `v <= 0.0` agree for every v.
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    // Codes (and the NaN sentinel = edge count) must fit uint16; wider
    // features would truncate, so refuse and let the caller fall back to
    // the pointer walk.
    if (edges.size() > 0xFFFF) {
      return Status::InvalidArgument(StrFormat(
          "feature %zu has %zu distinct split thresholds; binned codes "
          "are limited to uint16",
          j, edges.size()));
    }
    map.max_edges_ =
        std::max(map.max_edges_, static_cast<uint32_t>(edges.size()));
    map.edges_.insert(map.edges_.end(), edges.begin(), edges.end());
    map.offsets_.push_back(static_cast<uint32_t>(map.edges_.size()));
  }
  return map;
}

uint16_t ThresholdEdgeMap::CodeOf(size_t j, double threshold) const {
  const auto first = edges_.begin() + offsets_[j];
  const auto last = edges_.begin() + offsets_[j + 1];
  const auto it = std::lower_bound(first, last, threshold);
  TELCO_DCHECK(it != last && *it == threshold);
  return static_cast<uint16_t>(it - first);
}

uint16_t ThresholdEdgeMap::BinOf(size_t j, double v) const {
  const auto first = edges_.begin() + offsets_[j];
  const auto last = edges_.begin() + offsets_[j + 1];
  if (std::isnan(v)) return static_cast<uint16_t>(last - first);
  return static_cast<uint16_t>(std::lower_bound(first, last, v) - first);
}

Result<QuantileOneHotEncoder> QuantileOneHotEncoder::Fit(const Dataset& data,
                                                         int max_bins) {
  QuantileOneHotEncoder enc;
  TELCO_ASSIGN_OR_RETURN(enc.binner_, FeatureBinner::Fit(data, max_bins));
  enc.offsets_.resize(data.num_features() + 1, 0);
  for (size_t j = 0; j < data.num_features(); ++j) {
    enc.offsets_[j + 1] =
        enc.offsets_[j] + static_cast<size_t>(enc.binner_.NumBins(j));
  }
  enc.total_width_ = enc.offsets_.back();
  enc.encoded_names_.reserve(enc.total_width_);
  for (size_t j = 0; j < data.num_features(); ++j) {
    for (int b = 0; b < enc.binner_.NumBins(j); ++b) {
      enc.encoded_names_.push_back(
          StrFormat("%s#bin%d", data.feature_names()[j].c_str(), b));
    }
  }
  return enc;
}

Dataset QuantileOneHotEncoder::Transform(const Dataset& data) const {
  Dataset out(encoded_names_);
  std::vector<double> row(total_width_);
  for (size_t r = 0; r < data.num_rows(); ++r) {
    std::fill(row.begin(), row.end(), 0.0);
    const auto src = data.Row(r);
    for (size_t j = 0; j < data.num_features(); ++j) {
      row[offsets_[j] + binner_.BinOf(j, src[j])] = 1.0;
    }
    out.AddRow(row, data.label(r), data.weight(r));
  }
  return out;
}

std::vector<double> QuantileOneHotEncoder::TransformRow(
    std::span<const double> row) const {
  std::vector<double> out(total_width_, 0.0);
  for (size_t j = 0; j < row.size() && j < binner_.num_features(); ++j) {
    out[offsets_[j] + binner_.BinOf(j, row[j])] = 1.0;
  }
  return out;
}

}  // namespace telco
