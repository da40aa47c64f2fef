// Binned-forest parity suite: the integer-compare engine must be
// bit-identical to the pointer walk (per-row PredictProba, the exact
// double-compare reference) — for fitted RF and GBDT ensembles, any
// batch size and thread count, rows landing exactly on split thresholds,
// adversarial values (NaN, +/-inf, denormals, -0.0), single-node trees,
// uint16 wide codes, forests too wide to bin (which fall back to the
// pointer walk), and the serialize round-trip. Equality is asserted on
// the double's bit pattern, not an epsilon: agreeing on the predicted
// class is implied by agreeing on every score bit.

#include "ml/binned_forest.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/telemetry/metrics.h"
#include "common/thread_pool.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"
#include "ml/serialize.h"
#include "ml_test_util.h"

namespace telco {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kDenormal = std::numeric_limits<double>::denorm_min();

void ExpectBitEqual(const std::vector<double>& batch,
                    const std::vector<double>& pointer) {
  ASSERT_EQ(batch.size(), pointer.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(batch[i]),
              std::bit_cast<uint64_t>(pointer[i]))
        << "row " << i << ": batch " << batch[i] << " vs pointer "
        << pointer[i];
  }
}

std::vector<double> PointerWalk(const Classifier& model,
                                const FeatureMatrix& rows) {
  std::vector<double> out;
  out.reserve(rows.num_rows());
  for (size_t i = 0; i < rows.num_rows(); ++i) {
    out.push_back(model.PredictProba(rows.Row(i)));
  }
  return out;
}

// Compares the binned engine, directly and through the model's batch
// entry point, against the pointer walk across thread counts for one
// row set.
void ExpectEngineParity(const BinnedForest& binned, const Classifier& model,
                        const FeatureMatrix& rows) {
  const std::vector<double> oracle = PointerWalk(model, rows);
  ThreadPool pool1(1);
  ThreadPool pool3(3);
  ExpectBitEqual(binned.PredictProba(rows, nullptr), oracle);
  ExpectBitEqual(binned.PredictProba(rows, &pool1), oracle);
  ExpectBitEqual(binned.PredictProba(rows, &pool3), oracle);
  ExpectBitEqual(model.PredictProbaBatch(rows, &pool3), oracle);
}

uint64_t CounterValue(const char* name) {
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const MetricValue* m = snapshot.Find(name);
  return m != nullptr ? m->counter : 0;
}

TEST(BinnedForestTest, RandomForestParityAcrossBatchSizesAndThreads) {
  const Dataset train = ml_testing::LinearlySeparable(600, 902);
  RandomForestOptions options;
  options.num_trees = 31;
  options.min_samples_split = 20;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Fit(train).ok());
  ASSERT_NE(forest.binned(), nullptr);
  EXPECT_EQ(forest.binned()->num_trees(), forest.num_trees());
  size_t tree_nodes = 0;
  for (const ClassificationTree& tree : forest.trees()) {
    tree_nodes += tree.num_nodes();
  }
  EXPECT_EQ(forest.binned()->num_nodes(), tree_nodes);
  // Trees train on 64-bin histograms, so every feature has few distinct
  // thresholds and the narrow uint8 code path is in play.
  EXPECT_FALSE(forest.binned()->wide_codes());

  for (const size_t n : {size_t{1}, size_t{7}, size_t{63}, size_t{64},
                         size_t{65}, size_t{200}, size_t{600}}) {
    const Dataset rows = ml_testing::LinearlySeparable(n, 903 + n);
    ExpectEngineParity(*forest.binned(), forest, rows.Matrix());
  }
}

TEST(BinnedForestTest, GbdtParityAcrossBatchSizesAndThreads) {
  const Dataset train = ml_testing::XorDataset(500, 904);
  GbdtOptions options;
  options.num_trees = 25;
  options.max_depth = 4;
  options.min_samples_split = 10;
  options.subsample = 0.8;
  Gbdt model(options);
  ASSERT_TRUE(model.Fit(train).ok());
  ASSERT_NE(model.binned(), nullptr);
  EXPECT_EQ(model.binned()->num_trees(), model.num_trees());

  for (const size_t n : {size_t{1}, size_t{64}, size_t{129}, size_t{400}}) {
    const Dataset rows = ml_testing::XorDataset(n, 905 + n);
    ExpectEngineParity(*model.binned(), model, rows.Matrix());
  }
}

// Hand-built forest with known thresholds so rows can be placed exactly
// on them: the bin-edge construction must make `code(v) < code(t)+1`
// agree with `v <= t` when v == t, one ulp either side, and at ±0.0.
RandomForest ThresholdForest() {
  using Node = ClassificationTree::SerializedNode;
  std::vector<ClassificationTree> trees;
  {
    // f0 thresholds 1.5 and -2.0 (duplicated across trees below), f1
    // threshold -0.0 (0.0 must still go left: -0.0 == 0.0).
    const std::vector<Node> nodes{
        {0, 1.5, 1, 4, -1},
        {0, -2.0, 2, 3, -1},
        {-1, 0.0, -1, -1, 0},
        {-1, 0.0, -1, -1, 2},
        {1, -0.0, 5, 6, -1},
        {-1, 0.0, -1, -1, 4},
        {-1, 0.0, -1, -1, 6},
    };
    auto tree = ClassificationTree::Import(
        nodes, {0.9, 0.1, 0.8, 0.2, 0.7, 0.3, 0.6, 0.4}, 2);
    EXPECT_TRUE(tree.ok());
    trees.push_back(std::move(*tree));
  }
  {
    // Duplicate threshold 1.5 on f0 (dedupe case) plus 1e300 on f1.
    const std::vector<Node> nodes{
        {0, 1.5, 1, 2, -1},
        {-1, 0.0, -1, -1, 0},
        {1, 1e300, 3, 4, -1},
        {-1, 0.0, -1, -1, 2},
        {-1, 0.0, -1, -1, 4},
    };
    auto tree = ClassificationTree::Import(
        nodes, {0.55, 0.45, 0.35, 0.65, 0.15, 0.85}, 2);
    EXPECT_TRUE(tree.ok());
    trees.push_back(std::move(*tree));
  }
  auto forest =
      RandomForest::FromParts(RandomForestOptions{}, 2, std::move(trees), {});
  EXPECT_TRUE(forest.ok()) << forest.status().ToString();
  return std::move(*forest);
}

TEST(BinnedForestTest, RowsExactlyOnSplitThresholdsBinIdentically) {
  const RandomForest forest = ThresholdForest();
  ASSERT_NE(forest.binned(), nullptr);

  Dataset rows({"f0", "f1"});
  const double below15 = std::nextafter(1.5, -kInf);
  const double above15 = std::nextafter(1.5, kInf);
  const std::vector<std::vector<double>> raw{
      {1.5, -0.0},      // exactly on both splits
      {1.5, 0.0},       // 0.0 <= -0.0 must hold (they compare equal)
      {below15, kDenormal},  // one ulp left of split; just right of -0.0
      {above15, -kDenormal},
      {-2.0, 1e300},    // exactly on the inner split and the huge split
      {std::nextafter(-2.0, kInf), std::nextafter(1e300, kInf)},
      {kNaN, 1.5},
      {1.5, kNaN},
  };
  for (const auto& r : raw) rows.AddRow(r, 0);
  ExpectEngineParity(*forest.binned(), forest, rows.Matrix());
}

// Every adversarial threshold and topology the traversal can meet: a
// single-node (root = leaf) tree, +/-inf and denormal thresholds, and
// asymmetric subtrees. Import gives exact control over every stored
// double.
RandomForest AdversarialForest() {
  using Node = ClassificationTree::SerializedNode;
  std::vector<ClassificationTree> trees;
  {
    const std::vector<Node> nodes{{-1, 0.0, -1, -1, 0}};
    auto tree = ClassificationTree::Import(nodes, {0.25, 0.75}, 2);
    EXPECT_TRUE(tree.ok());
    trees.push_back(std::move(*tree));
  }
  {
    const std::vector<Node> nodes{
        {0, kInf, 1, 4, -1},       // only NaN f0 falls right
        {1, kDenormal, 2, 3, -1},
        {-1, 0.0, -1, -1, 0},
        {-1, 0.0, -1, -1, 2},
        {-1, 0.0, -1, -1, 4},
    };
    auto tree = ClassificationTree::Import(
        nodes, {0.9, 0.1, 0.6, 0.4, 0.125, 0.875}, 2);
    EXPECT_TRUE(tree.ok());
    trees.push_back(std::move(*tree));
  }
  {
    const std::vector<Node> nodes{
        {2, -kInf, 1, 2, -1},      // only f2 == -inf goes left
        {-1, 0.0, -1, -1, 0},
        {1, -0.0, 3, 4, -1},
        {-1, 0.0, -1, -1, 2},
        {-1, 0.0, -1, -1, 4},
    };
    auto tree = ClassificationTree::Import(
        nodes, {1.0, 0.0, 0.3, 0.7, 0.5, 0.5}, 2);
    EXPECT_TRUE(tree.ok());
    trees.push_back(std::move(*tree));
  }
  auto forest =
      RandomForest::FromParts(RandomForestOptions{}, 2, std::move(trees), {});
  EXPECT_TRUE(forest.ok()) << forest.status().ToString();
  return std::move(*forest);
}

TEST(BinnedForestTest, AdversarialRowsBitIdenticalToExactEngine) {
  const RandomForest forest = AdversarialForest();
  ASSERT_NE(forest.binned(), nullptr);
  EXPECT_EQ(forest.binned()->num_nodes(), 11u);
  EXPECT_EQ(forest.binned()->num_trees(), 3u);

  Dataset rows({"f0", "f1", "f2"});
  const std::vector<std::vector<double>> raw{
      {0.0, 0.0, 0.0},
      {kNaN, kNaN, kNaN},
      {kInf, -kInf, -kInf},
      {-kInf, kInf, kInf},
      {kDenormal, kDenormal, -kDenormal},
      {-kDenormal, -kDenormal, kDenormal},
      {0.0, -0.0, -kInf},
      {-0.0, 0.0, kNaN},
      {std::numeric_limits<double>::max(),
       std::numeric_limits<double>::lowest(), kDenormal},
      {kNaN, 1.0, -kInf},
  };
  for (const auto& r : raw) rows.AddRow(r, 0);
  ExpectEngineParity(*forest.binned(), forest, rows.Matrix());
}

TEST(BinnedForestTest, SingleLeafGbdtAndAdversarialRowsMatch) {
  const Dataset train = ml_testing::LinearlySeparable(400, 907);
  GbdtOptions options;
  options.num_trees = 8;
  options.max_depth = 0;  // every tree is a single leaf
  Gbdt stub(options);
  ASSERT_TRUE(stub.Fit(train).ok());
  for (const RegressionTree& tree : stub.trees()) {
    EXPECT_EQ(tree.num_nodes(), 1u);
  }

  GbdtOptions deep = options;
  deep.max_depth = 5;
  deep.min_samples_split = 10;
  Gbdt model(deep);
  ASSERT_TRUE(model.Fit(train).ok());

  Dataset rows({"x0", "x1", "x2"});
  rows.AddRow(std::vector<double>{kNaN, kInf, -kInf}, 0);
  rows.AddRow(std::vector<double>{kDenormal, -kDenormal, kNaN}, 0);
  rows.AddRow(std::vector<double>{0.0, -0.0, 1e300}, 0);

  for (const Classifier* m :
       {static_cast<const Classifier*>(&stub),
        static_cast<const Classifier*>(&model)}) {
    ExpectBitEqual(m->PredictProbaBatch(rows.Matrix(), nullptr),
                   PointerWalk(*m, rows.Matrix()));
  }
}

TEST(BinnedForestTest, SingleNodeForestScoresConstant) {
  // Every tree is a bare leaf: the engine has zero features and zero
  // internal nodes, and the lock-step descent must terminate at once.
  using Node = ClassificationTree::SerializedNode;
  std::vector<ClassificationTree> trees;
  for (int t = 0; t < 3; ++t) {
    const std::vector<Node> nodes{{-1, 0.0, -1, -1, 0}};
    auto tree = ClassificationTree::Import(
        nodes, {0.5 - 0.1 * t, 0.5 + 0.1 * t}, 2);
    ASSERT_TRUE(tree.ok());
    trees.push_back(std::move(*tree));
  }
  auto forest =
      RandomForest::FromParts(RandomForestOptions{}, 2, std::move(trees), {});
  ASSERT_TRUE(forest.ok());
  ASSERT_NE(forest->binned(), nullptr);
  EXPECT_EQ(forest->binned()->num_features(), 0u);

  const Dataset rows = ml_testing::LinearlySeparable(70, 909);
  ExpectEngineParity(*forest->binned(), *forest, rows.Matrix());
}

// A right-descending chain splitting one feature at `count` ascending
// integer thresholds; forces the wide (uint16) code path when count >
// 255, and cannot be binned at all when count > 65535.
RandomForest ChainForest(int count) {
  using Node = ClassificationTree::SerializedNode;
  std::vector<Node> nodes;
  std::vector<double> proba;
  // Node 2i: split f0 <= i; left = leaf 2i+1; right = next split (or a
  // final leaf).
  for (int i = 0; i < count; ++i) {
    nodes.push_back({0, static_cast<double>(i), static_cast<int>(nodes.size()) + 1,
                     static_cast<int>(nodes.size()) + 2, -1});
    nodes.push_back({-1, 0.0, -1, -1, static_cast<int32_t>(proba.size())});
    const double p = static_cast<double>(i) / (count + 1);
    proba.push_back(1.0 - p);
    proba.push_back(p);
  }
  nodes.push_back({-1, 0.0, -1, -1, static_cast<int32_t>(proba.size())});
  proba.push_back(0.0);
  proba.push_back(1.0);
  auto tree = ClassificationTree::Import(nodes, std::move(proba), 2);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  std::vector<ClassificationTree> trees;
  trees.push_back(std::move(*tree));
  auto forest =
      RandomForest::FromParts(RandomForestOptions{}, 2, std::move(trees), {});
  EXPECT_TRUE(forest.ok()) << forest.status().ToString();
  return std::move(*forest);
}

TEST(BinnedForestTest, WideThresholdFeatureUsesUint16Codes) {
  const RandomForest forest = ChainForest(300);
  ASSERT_NE(forest.binned(), nullptr);
  EXPECT_TRUE(forest.binned()->wide_codes());

  Dataset rows({"f0"});
  for (int i = -1; i <= 301; ++i) {
    // On, below and above every threshold.
    rows.AddRow(std::vector<double>{static_cast<double>(i)}, 0);
    rows.AddRow(std::vector<double>{i + 0.5}, 0);
  }
  rows.AddRow(std::vector<double>{kNaN}, 0);
  ExpectEngineParity(*forest.binned(), forest, rows.Matrix());
}

TEST(BinnedForestTest, NarrowChainStaysUint8) {
  const RandomForest forest = ChainForest(255);
  ASSERT_NE(forest.binned(), nullptr);
  EXPECT_FALSE(forest.binned()->wide_codes());
  Dataset rows({"f0"});
  for (int i = 0; i < 256; ++i) {
    rows.AddRow(std::vector<double>{i - 0.25}, 0);
  }
  ExpectEngineParity(*forest.binned(), forest, rows.Matrix());
}

// 65536 distinct thresholds on one feature do not fit uint16 codes (the
// NaN sentinel needs one more), so the compile falls back instead of
// truncating: no binned engine, one counted fallback, and batch scoring
// walks the trees bit-identically for any pool.
TEST(BinnedForestTest, UnbinnableForestScoresThroughPointerWalk) {
  const uint64_t fallbacks_before =
      CounterValue("ml.binned_forest.compile_fallbacks");
  const RandomForest forest = ChainForest(0x10000);
  EXPECT_EQ(forest.binned(), nullptr);
  EXPECT_EQ(CounterValue("ml.binned_forest.compile_fallbacks"),
            fallbacks_before + 1);

  Dataset rows({"f0"});
  for (const double v : {-1.0, 0.0, 0.5, 255.0, 255.5, 256.0, 40000.0,
                         65534.5, 65535.0, 65535.5, 1e9, -kInf, kNaN}) {
    rows.AddRow(std::vector<double>{v}, 0);
  }
  const std::vector<double> oracle = PointerWalk(forest, rows.Matrix());
  ThreadPool pool4(4);
  ExpectBitEqual(forest.PredictProbaBatch(rows.Matrix(), nullptr), oracle);
  ExpectBitEqual(forest.PredictProbaBatch(rows.Matrix(), &pool4), oracle);
}

// Malformed topology is an error, not a fallback: a child pointing back
// at its ancestor would never terminate in the pointer walk either.
TEST(BinnedForestTest, CyclicTreeFailsToCompile) {
  using Node = ClassificationTree::SerializedNode;
  const std::vector<Node> nodes{
      {0, 0.5, 1, 0, -1},  // right child is the root itself
      {-1, 0.0, -1, -1, 0},
  };
  auto tree = ClassificationTree::Import(nodes, {0.5, 0.5}, 2);
  ASSERT_TRUE(tree.ok()) << "Import checks child ranges, not cycles";
  std::vector<ClassificationTree> trees;
  trees.push_back(std::move(*tree));
  const uint64_t fallbacks_before =
      CounterValue("ml.binned_forest.compile_fallbacks");
  auto forest =
      RandomForest::FromParts(RandomForestOptions{}, 2, std::move(trees), {});
  ASSERT_FALSE(forest.ok());
  EXPECT_TRUE(forest.status().IsInvalidArgument())
      << forest.status().ToString();
  EXPECT_EQ(CounterValue("ml.binned_forest.compile_fallbacks"),
            fallbacks_before);
}

TEST(BinnedForestTest, SerializeRoundTripKeepsBinnedEngine) {
  const Dataset train = ml_testing::LinearlySeparable(300, 910);
  RandomForestOptions options;
  options.num_trees = 9;
  options.min_samples_split = 20;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Fit(train).ok());
  ASSERT_NE(forest.binned(), nullptr);

  const std::string path =
      testing::TempDir() + "/binned_roundtrip.model";
  ASSERT_TRUE(SaveRandomForest(forest, path).ok());
  auto loaded = LoadRandomForest(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_NE(loaded->binned(), nullptr);

  const Dataset rows = ml_testing::LinearlySeparable(150, 911);
  ExpectBitEqual(loaded->binned()->PredictProba(rows.Matrix(), nullptr),
                 forest.binned()->PredictProba(rows.Matrix(), nullptr));
  ExpectEngineParity(*loaded->binned(), *loaded, rows.Matrix());
}

TEST(BinnedForestTest, EmptyBatchScoresNothing) {
  const RandomForest forest = ThresholdForest();
  ASSERT_NE(forest.binned(), nullptr);
  const FeatureMatrix empty(nullptr, 0, 2);
  EXPECT_TRUE(forest.binned()->PredictProba(empty, nullptr).empty());
  ThreadPool pool(2);
  EXPECT_TRUE(forest.binned()->PredictProba(empty, &pool).empty());
  EXPECT_TRUE(forest.PredictProbaBatch(empty, &pool).empty());
}

}  // namespace
}  // namespace telco
