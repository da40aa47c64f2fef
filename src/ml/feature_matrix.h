// FeatureMatrix: the one batch-scoring currency of the ML layer.
//
// Every batch scoring surface (Classifier::PredictProbaBatch, the
// serving snapshot, the offline pipeline's prediction stage) consumes a
// FeatureMatrix — a non-owning rows x cols view over contiguous
// row-major doubles. A Dataset exposes its design matrix as one
// (Dataset::Matrix()); request batches pack their rows into a
// FeatureMatrixBuffer. Centralising on a view means a batch caller
// never copies feature rows into a labelled Dataset just to score them,
// and the binned-forest engine can walk raw row pointers block-at-a-time.

#ifndef TELCO_ML_FEATURE_MATRIX_H_
#define TELCO_ML_FEATURE_MATRIX_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/logging.h"

namespace telco {

/// \brief Non-owning view of a dense row-major rows x cols double matrix.
///
/// The viewed storage must outlive the view (a Dataset, a
/// FeatureMatrixBuffer, or any caller-owned contiguous buffer).
class FeatureMatrix {
 public:
  /// An empty 0 x 0 view.
  constexpr FeatureMatrix() = default;

  /// Views `num_rows` rows of `num_cols` doubles starting at `data`.
  FeatureMatrix(const double* data, size_t num_rows, size_t num_cols)
      : data_(data), num_rows_(num_rows), num_cols_(num_cols) {
    TELCO_DCHECK(data != nullptr || num_rows == 0);
  }

  size_t num_rows() const { return num_rows_; }
  size_t num_cols() const { return num_cols_; }
  bool empty() const { return num_rows_ == 0; }

  /// First element of row 0 (rows are contiguous with stride num_cols).
  const double* data() const { return data_; }

  std::span<const double> Row(size_t i) const {
    TELCO_DCHECK(i < num_rows_);
    return std::span<const double>(data_ + i * num_cols_, num_cols_);
  }

  double At(size_t row, size_t col) const {
    TELCO_DCHECK(row < num_rows_ && col < num_cols_);
    return data_[row * num_cols_ + col];
  }

 private:
  const double* data_ = nullptr;
  size_t num_rows_ = 0;
  size_t num_cols_ = 0;
};

/// \brief Owning row packer: appends fixed-width rows into one contiguous
/// buffer and hands out a FeatureMatrix view of it.
///
/// This is how a batch of scoring requests (each owning its own feature
/// vector) becomes a FeatureMatrix without a Dataset's label/weight
/// bookkeeping.
class FeatureMatrixBuffer {
 public:
  explicit FeatureMatrixBuffer(size_t num_cols) : num_cols_(num_cols) {}

  void Reserve(size_t num_rows) { data_.reserve(num_rows * num_cols_); }

  /// Appends one row; `row.size()` must equal num_cols().
  void AddRow(std::span<const double> row) {
    TELCO_DCHECK(row.size() == num_cols_);
    data_.insert(data_.end(), row.begin(), row.end());
  }

  size_t num_rows() const {
    return num_cols_ == 0 ? 0 : data_.size() / num_cols_;
  }
  size_t num_cols() const { return num_cols_; }

  /// View over the packed rows; valid until the next AddRow/destruction.
  FeatureMatrix matrix() const {
    return FeatureMatrix(data_.data(), num_rows(), num_cols_);
  }

 private:
  size_t num_cols_;
  std::vector<double> data_;
};

}  // namespace telco

#endif  // TELCO_ML_FEATURE_MATRIX_H_
