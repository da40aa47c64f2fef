// ModelSnapshot: an immutable, refcounted bundle of one trained churn
// model, the feature schema it expects, and a fingerprint identifying the
// exact model bytes.
//
// The deployed system retrains monthly and pushes scores for ~2.1M
// subscribers between retrains (paper §5); online scoring must therefore
// keep serving the current month's model while next month's loads. A
// snapshot never changes after construction — scoring threads hold it via
// shared_ptr<const ModelSnapshot>, so a snapshot stays alive for exactly
// as long as any in-flight batch references it (the refcount is the
// lifetime), and its scores are bit-identical to the offline pipeline's
// because both go through the same RandomForest prediction code.

#ifndef TELCO_SERVE_MODEL_SNAPSHOT_H_
#define TELCO_SERVE_MODEL_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "ml/dataset.h"
#include "ml/random_forest.h"

namespace telco {

class ThreadPool;

/// \brief One immutable serving model + schema + fingerprint.
class ModelSnapshot {
 public:
  /// Loads a snapshot from a model file written by SaveRandomForest (the
  /// PR-2 format: CRC32-trailer-verified, fail-closed on corruption) plus
  /// its `.features` sidecar naming the expected columns in order.
  static Result<std::shared_ptr<const ModelSnapshot>> LoadFromFile(
      const std::string& model_path);

  /// Wraps an already-fitted forest (e.g. the one a ChurnPipeline just
  /// trained) without touching disk. The fingerprint is the checksum of
  /// the forest's canonical serialised form, so it equals the file
  /// trailer the same forest would be saved with.
  static Result<std::shared_ptr<const ModelSnapshot>> FromForest(
      RandomForest forest, std::vector<std::string> feature_names,
      std::string label);

  /// Feature columns, in the exact order Score expects them.
  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }
  size_t num_features() const { return feature_names_.size(); }

  /// Human-readable origin (file path or caller-supplied label).
  const std::string& label() const { return label_; }

  /// CRC32 of the model's canonical serialised bytes.
  uint32_t fingerprint() const { return fingerprint_; }

  const RandomForest& forest() const { return forest_; }

  /// Churn likelihood of one feature row (row.size() == num_features()).
  double Score(std::span<const double> row) const;

  /// Batch scoring through the same entry point the offline pipeline
  /// uses (Classifier::PredictProbaBatch, i.e. the compiled binned-forest
  /// engine), so online scores are bit-identical to offline ones for any
  /// batch split or thread count.
  std::vector<double> ScoreBatch(FeatureMatrix rows, ThreadPool* pool) const;

  /// Thin wrapper over the FeatureMatrix overload.
  std::vector<double> ScoreBatch(const Dataset& rows,
                                 ThreadPool* pool) const;

 private:
  ModelSnapshot(RandomForest forest, std::vector<std::string> feature_names,
                std::string label, uint32_t fingerprint);

  RandomForest forest_;
  std::vector<std::string> feature_names_;
  std::string label_;
  uint32_t fingerprint_;
};

}  // namespace telco

#endif  // TELCO_SERVE_MODEL_SNAPSHOT_H_
