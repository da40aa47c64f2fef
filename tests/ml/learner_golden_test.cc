// Golden outputs of the tree learners.
//
// The determinism tests elsewhere compare a learner with itself (two
// fits, or a serial and a parallel fit), so a change that alters every
// tree the same way still passes them. These tests pin the exact bits
// instead: the serialized random forest (ForestChecksum), its Gini
// importance vector, and the GBDT and AdaBoost scores of a fixed probe
// set. The data is shaped like the churn wide table: Gaussian and
// zero-heavy count features, small integer codes, a constant column,
// class-weighted instances. Random forests are fitted with no pool and
// on pools of 1 and 4 threads; every run must give the same bits, which
// also covers the pool-parallel binning that runs before the trees.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "ml/adaboost.h"
#include "ml/gbdt.h"
#include "ml/imbalance.h"
#include "ml/random_forest.h"
#include "ml/serialize.h"

namespace telco {
namespace {

constexpr size_t kFeatures = 40;

// Feature j's value for one customer: a rotation of distribution shapes
// seen in the wide table (continuous, mostly-zero counts, small codes,
// a constant). `signal` shifts the informative columns.
double FeatureValue(size_t j, double signal, Rng* rng) {
  switch (j % 5) {
    case 0:
      return rng->Gaussian() + (j < 10 ? signal : 0.0);
    case 1:
      return rng->Bernoulli(0.7) ? 0.0 : rng->Exponential(0.2) + signal;
    case 2:
      return static_cast<double>(rng->UniformInt(5));
    case 3:
      return j == 3 ? 1.0 : rng->LogNormal(signal, 1.0);
    default:
      return static_cast<double>(rng->Poisson(2.0 + signal));
  }
}

// Rows whose class depends on a latent score; num_classes 2 gives a
// ~12% positive rate, 3 gives three bands of the score.
Dataset PaperShaped(size_t n, int num_classes, uint64_t seed) {
  std::vector<std::string> names;
  for (size_t j = 0; j < kFeatures; ++j) names.push_back(StrFormat("f%zu", j));
  Dataset data(names);
  Rng rng(seed);
  std::vector<double> row(kFeatures);
  for (size_t i = 0; i < n; ++i) {
    const double latent = rng.Gaussian();
    int label = 0;
    if (num_classes == 2) {
      label = latent > 1.2 ? 1 : 0;
    } else {
      label = latent > 0.8 ? 2 : (latent > -0.3 ? 1 : 0);
    }
    const double signal = 0.8 * latent + 0.5 * rng.Gaussian();
    for (size_t j = 0; j < kFeatures; ++j) {
      row[j] = FeatureValue(j, signal, &rng);
    }
    data.AddRow(row, label);
  }
  return data;
}

// Inverse class-frequency weights n / (C * n_c) for any class count.
Dataset ClassWeighted(const Dataset& data) {
  std::vector<size_t> all(data.num_rows());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  Dataset out = data.Select(all);
  const int classes = data.NumClasses();
  std::vector<double> counts(classes, 0.0);
  for (size_t i = 0; i < data.num_rows(); ++i) counts[data.label(i)] += 1.0;
  for (size_t i = 0; i < out.num_rows(); ++i) {
    out.set_weight(i, static_cast<double>(data.num_rows()) /
                          (classes * counts[out.label(i)]));
  }
  return out;
}

// Arbitrary positive per-row weights (AdaBoost-like reweighting).
Dataset RandomlyWeighted(const Dataset& data, uint64_t seed) {
  std::vector<size_t> all(data.num_rows());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  Dataset out = data.Select(all);
  Rng rng(seed);
  for (size_t i = 0; i < out.num_rows(); ++i) {
    out.set_weight(i, rng.Uniform(0.05, 4.0));
  }
  return out;
}

uint32_t BitsCrc(const std::vector<double>& values) {
  return Crc32(std::string_view(reinterpret_cast<const char*>(values.data()),
                                values.size() * sizeof(double)));
}

struct ForestBits {
  uint32_t checksum = 0;
  uint32_t importance = 0;
  size_t nodes = 0;
};

ForestBits FitForest(const Dataset& data, RandomForestOptions options,
                     ThreadPool* pool) {
  options.parallel = pool != nullptr;
  options.pool = pool;
  RandomForest forest(options);
  const Status st = forest.Fit(data);
  EXPECT_TRUE(st.ok()) << st.ToString();
  ForestBits bits;
  const auto checksum = ForestChecksum(forest);
  EXPECT_TRUE(checksum.ok());
  if (checksum.ok()) bits.checksum = checksum.ValueOrDie();
  bits.importance = BitsCrc(forest.FeatureImportance());
  for (const auto& tree : forest.trees()) bits.nodes += tree.num_nodes();
  return bits;
}

// Fits with no pool, then on pools of 1 and 4 threads; all three must
// reproduce the golden bits.
void ExpectForestGolden(const Dataset& data, const RandomForestOptions& options,
                        const ForestBits& golden) {
  ThreadPool one(1);
  ThreadPool four(4);
  const std::pair<const char*, ThreadPool*> runs[] = {
      {"no pool", nullptr}, {"1 thread", &one}, {"4 threads", &four}};
  for (const auto& [name, pool] : runs) {
    SCOPED_TRACE(name);
    const ForestBits bits = FitForest(data, options, pool);
    EXPECT_EQ(bits.checksum, golden.checksum)
        << "forest checksum " << Crc32Hex(bits.checksum);
    EXPECT_EQ(bits.importance, golden.importance)
        << "importance bits " << Crc32Hex(bits.importance);
    EXPECT_EQ(bits.nodes, golden.nodes);
  }
}

// Probe rows scored by the boosted models: a fresh draw of the same
// distribution, so most rows fall between training points.
std::vector<double> ProbeScores(const Classifier& model) {
  const Dataset probe = PaperShaped(300, 2, 977);
  std::vector<double> scores(probe.num_rows());
  for (size_t i = 0; i < probe.num_rows(); ++i) {
    scores[i] = model.PredictProba(probe.Row(i));
  }
  return scores;
}

uint64_t Bits(double v) {
  uint64_t out = 0;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

TEST(LearnerGoldenTest, RandomForestTwoClassWeightedInstance) {
  auto weighted = ApplyImbalanceStrategy(
      PaperShaped(3000, 2, 2015), ImbalanceStrategy::kWeightedInstance, 1);
  ASSERT_TRUE(weighted.ok());
  RandomForestOptions options;
  options.num_trees = 12;
  options.min_samples_split = 30;
  options.seed = 41;
  ExpectForestGolden(weighted.ValueOrDie(), options,
                     {0x941bb67cu, 0xd980023fu, 2244});
}

TEST(LearnerGoldenTest, RandomForestThreeClassWeighted) {
  const Dataset data = ClassWeighted(PaperShaped(2500, 3, 2016));
  ASSERT_EQ(data.NumClasses(), 3);
  RandomForestOptions options;
  options.num_trees = 10;
  options.min_samples_split = 20;
  options.seed = 43;
  ExpectForestGolden(data, options, {0x04e1b24eu, 0xa12c4feeu, 4434});
}

TEST(LearnerGoldenTest, RandomForestArbitraryRowWeights) {
  const Dataset data = RandomlyWeighted(PaperShaped(2500, 2, 2017), 5);
  RandomForestOptions options;
  options.num_trees = 10;
  options.min_samples_split = 16;
  options.min_samples_leaf = 4;
  options.max_depth = 9;
  options.bootstrap_fraction = 0.8;
  options.seed = 47;
  ExpectForestGolden(data, options, {0xba6f28bdu, 0x4b7758beu, 1324});
}

TEST(LearnerGoldenTest, GbdtProbeScores) {
  auto weighted = ApplyImbalanceStrategy(
      PaperShaped(2000, 2, 2018), ImbalanceStrategy::kWeightedInstance, 2);
  ASSERT_TRUE(weighted.ok());
  GbdtOptions options;
  options.num_trees = 25;
  options.max_depth = 4;
  options.min_samples_split = 20;
  options.subsample = 0.8;
  Gbdt model(options);
  ASSERT_TRUE(model.Fit(weighted.ValueOrDie()).ok());
  const std::vector<double> scores = ProbeScores(model);
  EXPECT_EQ(BitsCrc(scores), 0xe2e20ab2u)
      << "probe score bits " << Crc32Hex(BitsCrc(scores));
  EXPECT_EQ(Bits(scores[0]), 0x3fc74669959e8fa4ull)
      << std::hex << Bits(scores[0]);
}

TEST(LearnerGoldenTest, AdaBoostProbeScores) {
  auto weighted = ApplyImbalanceStrategy(
      PaperShaped(2000, 2, 2019), ImbalanceStrategy::kWeightedInstance, 3);
  ASSERT_TRUE(weighted.ok());
  AdaBoostOptions options;
  options.num_rounds = 30;
  AdaBoost model(options);
  ASSERT_TRUE(model.Fit(weighted.ValueOrDie()).ok());
  const std::vector<double> scores = ProbeScores(model);
  EXPECT_EQ(BitsCrc(scores), 0x2a14a287u)
      << "probe score bits " << Crc32Hex(BitsCrc(scores));
  EXPECT_EQ(Bits(scores[0]), 0x3fdcc235037cd1bcull)
      << std::hex << Bits(scores[0]);
}

}  // namespace
}  // namespace telco
