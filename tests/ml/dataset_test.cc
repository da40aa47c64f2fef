#include "ml/dataset.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "ml/feature_matrix.h"
#include "ml_test_util.h"
#include "storage/table.h"

namespace telco {
namespace {

TEST(DatasetTest, AddRowAndAccessors) {
  Dataset data({"a", "b"});
  const double r1[2] = {1.0, 2.0};
  const double r2[2] = {3.0, 4.0};
  data.AddRow(std::span<const double>(r1, 2), 0);
  data.AddRow(std::span<const double>(r2, 2), 1, 2.5);
  EXPECT_EQ(data.num_rows(), 2u);
  EXPECT_EQ(data.num_features(), 2u);
  EXPECT_DOUBLE_EQ(data.At(1, 0), 3.0);
  EXPECT_EQ(data.label(1), 1);
  EXPECT_DOUBLE_EQ(data.weight(1), 2.5);
  EXPECT_DOUBLE_EQ(data.weight(0), 1.0);
  EXPECT_DOUBLE_EQ(data.TotalWeight(), 3.5);
  EXPECT_EQ(data.NumClasses(), 2);
}

TEST(DatasetTest, FromTable) {
  TableBuilder builder(Schema({{"f1", DataType::kDouble},
                               {"f2", DataType::kInt64},
                               {"label", DataType::kInt64},
                               {"name", DataType::kString}}));
  ASSERT_TRUE(
      builder.AppendRow({Value(1.5), Value(2), Value(1), Value("x")}).ok());
  ASSERT_TRUE(builder.AppendRow({Value::Null(), Value(4), Value(0),
                                 Value("y")}).ok());
  auto table = *builder.Finish();
  auto data = Dataset::FromTable(*table, {"f1", "f2"}, "label");
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(data->num_rows(), 2u);
  EXPECT_DOUBLE_EQ(data->At(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(data->At(0, 1), 2.0);   // int64 coerced
  EXPECT_DOUBLE_EQ(data->At(1, 0), 0.0);   // null becomes 0
  EXPECT_EQ(data->label(0), 1);
}

TEST(DatasetTest, FromTableRejectsStringFeature) {
  TableBuilder builder(Schema({{"s", DataType::kString},
                               {"label", DataType::kInt64}}));
  ASSERT_TRUE(builder.AppendRow({Value("x"), Value(0)}).ok());
  auto table = *builder.Finish();
  EXPECT_TRUE(
      Dataset::FromTable(*table, {"s"}, "label").status().IsTypeError());
}

TEST(DatasetTest, FromTableRejectsNonIntLabel) {
  TableBuilder builder(Schema({{"f", DataType::kDouble},
                               {"label", DataType::kDouble}}));
  ASSERT_TRUE(builder.AppendRow({Value(1.0), Value(0.0)}).ok());
  auto table = *builder.Finish();
  EXPECT_TRUE(
      Dataset::FromTable(*table, {"f"}, "label").status().IsTypeError());
}

TEST(DatasetTest, SelectPreservesWeightsAndLabels) {
  Dataset data = ml_testing::LinearlySeparable(10, 1);
  data.set_weight(3, 7.0);
  const Dataset subset = data.Select({3, 3, 0});
  EXPECT_EQ(subset.num_rows(), 3u);
  EXPECT_DOUBLE_EQ(subset.weight(0), 7.0);
  EXPECT_DOUBLE_EQ(subset.weight(1), 7.0);
  EXPECT_EQ(subset.label(2), data.label(0));
  EXPECT_DOUBLE_EQ(subset.At(0, 1), data.At(3, 1));
}

TEST(DatasetTest, AppendRequiresSameSchema) {
  Dataset a({"x"});
  Dataset b({"y"});
  EXPECT_TRUE(a.Append(b).IsInvalidArgument());
  Dataset c({"x"});
  const double row[1] = {1.0};
  c.AddRow(std::span<const double>(row, 1), 1);
  ASSERT_TRUE(a.Append(c).ok());
  EXPECT_EQ(a.num_rows(), 1u);
}

TEST(DatasetTest, StandardizationStats) {
  Dataset data({"x"});
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    data.AddRow(std::span<const double>(&v, 1), 0);
  }
  const auto st = data.ComputeStandardization();
  EXPECT_DOUBLE_EQ(st.mean[0], 2.5);
  EXPECT_NEAR(st.stddev[0], std::sqrt(1.25), 1e-12);
}

TEST(DatasetTest, StandardizationConstantFeatureSafe) {
  Dataset data({"x"});
  for (int i = 0; i < 3; ++i) {
    const double v = 5.0;
    data.AddRow(std::span<const double>(&v, 1), 0);
  }
  const auto st = data.ComputeStandardization();
  EXPECT_GT(st.stddev[0], 0.0);  // never zero (division safety)
}

TEST(DatasetTest, NumClassesMultiClass) {
  const Dataset data = ml_testing::ThreeClassBlobs(50, 3);
  EXPECT_EQ(data.NumClasses(), 3);
}

TEST(SplitTrainTestTest, PartitionsWithoutOverlap) {
  const Dataset data = ml_testing::LinearlySeparable(100, 5);
  const auto split = SplitTrainTest(data, 0.3, 42);
  EXPECT_EQ(split.test.num_rows(), 30u);
  EXPECT_EQ(split.train.num_rows(), 70u);
}

TEST(SplitTrainTestTest, Deterministic) {
  const Dataset data = ml_testing::LinearlySeparable(50, 7);
  const auto a = SplitTrainTest(data, 0.5, 1);
  const auto b = SplitTrainTest(data, 0.5, 1);
  for (size_t i = 0; i < a.test.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(a.test.At(i, 0), b.test.At(i, 0));
  }
}

TEST(FeatureMatrixTest, ViewsDatasetRowsInPlace) {
  const Dataset data = ml_testing::LinearlySeparable(17, 901);
  const FeatureMatrix m = data.Matrix();
  ASSERT_EQ(m.num_rows(), data.num_rows());
  ASSERT_EQ(m.num_cols(), data.num_features());
  for (size_t i = 0; i < data.num_rows(); ++i) {
    const auto row = data.Row(i);
    const auto view = m.Row(i);
    ASSERT_EQ(view.data(), row.data()) << "Matrix() must not copy";
    for (size_t j = 0; j < row.size(); ++j) {
      EXPECT_EQ(m.At(i, j), row[j]);
    }
  }
}

TEST(FeatureMatrixTest, BufferPacksRowsContiguously) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  FeatureMatrixBuffer buffer(3);
  buffer.Reserve(2);
  const std::vector<double> r0{1.0, 2.0, 3.0};
  const std::vector<double> r1{-0.0, kNaN, kInf};
  buffer.AddRow(r0);
  buffer.AddRow(r1);
  const FeatureMatrix m = buffer.matrix();
  ASSERT_EQ(m.num_rows(), 2u);
  ASSERT_EQ(m.num_cols(), 3u);
  EXPECT_EQ(m.Row(1).data(), m.Row(0).data() + 3);
  EXPECT_EQ(m.At(0, 1), 2.0);
  EXPECT_EQ(std::bit_cast<uint64_t>(m.At(1, 0)),
            std::bit_cast<uint64_t>(-0.0));
  EXPECT_TRUE(std::isnan(m.At(1, 1)));
  EXPECT_EQ(m.At(1, 2), kInf);
}

TEST(FeatureMatrixTest, EmptyMatrix) {
  const FeatureMatrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.num_rows(), 0u);
  FeatureMatrixBuffer buffer(4);
  EXPECT_EQ(buffer.matrix().num_rows(), 0u);
}

}  // namespace
}  // namespace telco
