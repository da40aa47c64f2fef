#include "ml/binning.h"

#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "ml_test_util.h"

namespace telco {
namespace {

TEST(FeatureBinnerTest, ConstantFeatureGetsOneBin) {
  Dataset data({"c"});
  for (int i = 0; i < 10; ++i) {
    const double v = 3.0;
    data.AddRow(std::span<const double>(&v, 1), 0);
  }
  auto binner = FeatureBinner::Fit(data, 16);
  ASSERT_TRUE(binner.ok());
  EXPECT_EQ(binner->NumBins(0), 1);
  EXPECT_EQ(binner->BinOf(0, 3.0), 0);
  EXPECT_EQ(binner->BinOf(0, 100.0), 0);
}

TEST(FeatureBinnerTest, BinaryFeatureGetsTwoBins) {
  Dataset data({"b"});
  for (int i = 0; i < 20; ++i) {
    const double v = (i % 2 == 0) ? 0.0 : 1.0;
    data.AddRow(std::span<const double>(&v, 1), 0);
  }
  auto binner = FeatureBinner::Fit(data, 16);
  ASSERT_TRUE(binner.ok());
  EXPECT_EQ(binner->NumBins(0), 2);
  EXPECT_EQ(binner->BinOf(0, 0.0), 0);
  EXPECT_EQ(binner->BinOf(0, 1.0), 1);
  EXPECT_EQ(binner->BinOf(0, 0.5), 1);  // above the 0.0 edge
}

TEST(FeatureBinnerTest, MonotoneBinCodes) {
  const Dataset data = ml_testing::LinearlySeparable(500, 11);
  auto binner = FeatureBinner::Fit(data, 32);
  ASSERT_TRUE(binner.ok());
  uint8_t prev = 0;
  for (double v = -3.0; v <= 3.0; v += 0.1) {
    const uint8_t code = binner->BinOf(0, v);
    EXPECT_GE(code, prev);
    prev = code;
  }
  EXPECT_GE(binner->NumBins(0), 16);
}

TEST(FeatureBinnerTest, UpperEdgeConsistentWithBinOf) {
  const Dataset data = ml_testing::LinearlySeparable(500, 13);
  auto binner = FeatureBinner::Fit(data, 16);
  ASSERT_TRUE(binner.ok());
  for (int b = 0; b + 1 < binner->NumBins(0); ++b) {
    const double edge = binner->UpperEdge(0, b);
    EXPECT_LE(binner->BinOf(0, edge), b);           // edge value goes left
    EXPECT_GT(binner->BinOf(0, edge + 1e-9), b);    // above goes right
  }
}

TEST(FeatureBinnerTest, InvalidArgs) {
  const Dataset data = ml_testing::LinearlySeparable(10, 17);
  EXPECT_TRUE(FeatureBinner::Fit(data, 1).status().IsInvalidArgument());
  EXPECT_TRUE(FeatureBinner::Fit(data, 257).status().IsInvalidArgument());
  Dataset empty({"x"});
  EXPECT_TRUE(FeatureBinner::Fit(empty, 16).status().IsInvalidArgument());
}

TEST(EncodeBinsTest, ShapeAndRange) {
  const Dataset data = ml_testing::LinearlySeparable(100, 19);
  auto binner = FeatureBinner::Fit(data, 8);
  ASSERT_TRUE(binner.ok());
  const BinnedDataset binned = EncodeBins(*binner, data);
  EXPECT_EQ(binned.num_rows, 100u);
  EXPECT_EQ(binned.num_features, 3u);
  for (size_t r = 0; r < binned.num_rows; ++r) {
    for (size_t j = 0; j < binned.num_features; ++j) {
      EXPECT_LT(binned.Code(r, j), binner->NumBins(j));
      EXPECT_EQ(binned.Code(r, j), binner->BinOf(j, data.At(r, j)));
    }
  }
}

// A wide matrix (more features than one gather block, rows spanning
// several encode chunks) with ties, a constant column and -0.0/0.0.
Dataset WideTestData() {
  std::vector<std::string> names;
  for (int j = 0; j < 21; ++j) names.push_back(StrFormat("f%d", j));
  Dataset data(names);
  Rng rng(29);
  std::vector<double> row(names.size());
  for (int i = 0; i < 2600; ++i) {
    for (size_t j = 0; j < row.size(); ++j) {
      switch (j % 4) {
        case 0: row[j] = rng.Gaussian(); break;
        case 1: row[j] = rng.Bernoulli(0.6) ? (i % 2 ? -0.0 : 0.0)
                                            : rng.Exponential(1.0);
          break;
        case 2: row[j] = static_cast<double>(rng.UniformInt(7)); break;
        default: row[j] = 5.0;
      }
    }
    data.AddRow(row, i % 3 == 0 ? 1 : 0);
  }
  return data;
}

TEST(FeatureBinnerTest, PoolSizeDoesNotChangeEdgesOrCodes) {
  const Dataset data = WideTestData();
  auto serial = FeatureBinner::Fit(data, 64);
  ASSERT_TRUE(serial.ok());
  const BinnedDataset serial_codes = EncodeBins(*serial, data);
  // Feature-major columns hold BinOf of every cell.
  for (size_t j = 0; j < data.num_features(); ++j) {
    const uint8_t* column = serial_codes.Column(j);
    for (size_t r = 0; r < data.num_rows(); ++r) {
      ASSERT_EQ(column[r], serial->BinOf(j, data.At(r, j)));
    }
  }
  for (const size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    auto pooled = FeatureBinner::Fit(data, 64, &pool);
    ASSERT_TRUE(pooled.ok());
    for (size_t j = 0; j < data.num_features(); ++j) {
      ASSERT_EQ(pooled->NumBins(j), serial->NumBins(j)) << "feature " << j;
      for (int b = 0; b + 1 < serial->NumBins(j); ++b) {
        EXPECT_EQ(std::bit_cast<uint64_t>(pooled->UpperEdge(j, b)),
                  std::bit_cast<uint64_t>(serial->UpperEdge(j, b)));
      }
    }
    EXPECT_EQ(EncodeBins(*pooled, data, &pool).codes, serial_codes.codes)
        << threads << " threads";
  }
}

TEST(QuantileOneHotEncoderTest, ProducesIndicators) {
  const Dataset data = ml_testing::LinearlySeparable(200, 23);
  auto encoder = QuantileOneHotEncoder::Fit(data, 4);
  ASSERT_TRUE(encoder.ok());
  const Dataset encoded = encoder->Transform(data);
  EXPECT_EQ(encoded.num_rows(), 200u);
  EXPECT_EQ(encoded.num_features(), encoder->EncodedWidth());
  // Each row has exactly one 1 per original feature block.
  for (size_t r = 0; r < 20; ++r) {
    double total = 0.0;
    for (size_t j = 0; j < encoded.num_features(); ++j) {
      const double v = encoded.At(r, j);
      EXPECT_TRUE(v == 0.0 || v == 1.0);
      total += v;
    }
    EXPECT_DOUBLE_EQ(total, 3.0);  // three original features
  }
  // Labels/weights carried over.
  EXPECT_EQ(encoded.label(0), data.label(0));
}

TEST(ThresholdEdgeMapTest, DedupesAndDropsNaNThresholds) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto map = ThresholdEdgeMap::Build({{3.0, 1.0, 3.0, nan, 2.0, 1.0, nan}});
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map->num_features(), 1u);
  EXPECT_EQ(map->NumEdges(0), 3u);  // {1, 2, 3}
  EXPECT_EQ(map->CodeOf(0, 1.0), 0);
  EXPECT_EQ(map->CodeOf(0, 3.0), 2);
  EXPECT_EQ(map->max_code(), 3u);  // the NaN sentinel
}

TEST(ThresholdEdgeMapTest, NegativeZeroCollapsesWithPositiveZero) {
  auto map = ThresholdEdgeMap::Build({{-0.0, 0.0}});
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map->NumEdges(0), 1u);
  // -0.0 and 0.0 compare equal, so both threshold spellings share the
  // code and both value spellings bin below it.
  EXPECT_EQ(map->CodeOf(0, -0.0), map->CodeOf(0, 0.0));
  EXPECT_EQ(map->BinOf(0, -0.0), 0);
  EXPECT_EQ(map->BinOf(0, 0.0), 0);
}

TEST(ThresholdEdgeMapTest, SingleAndZeroThresholdFeatures) {
  auto map = ThresholdEdgeMap::Build({{5.0}, {}});
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map->NumEdges(0), 1u);
  EXPECT_EQ(map->NumEdges(1), 0u);
  EXPECT_EQ(map->BinOf(0, 4.0), 0);
  EXPECT_EQ(map->BinOf(0, 5.0), 0);  // v == threshold stays <= it
  EXPECT_EQ(map->BinOf(0, 6.0), 1);
  EXPECT_EQ(map->BinOf(1, 123.0), 0);
  EXPECT_TRUE(map->fits_uint8());
}

// The compare-preservation property the binned engine relies on:
// `v <= t` iff `BinOf(v) <= CodeOf(t)` for every stored threshold and
// any probe value, including exact hits, ±0.0, denormals and ±inf; NaN
// probes exceed every code.
TEST(ThresholdEdgeMapTest, CodesPreserveDoubleCompares) {
  const double inf = std::numeric_limits<double>::infinity();
  const double den = std::numeric_limits<double>::denorm_min();
  const std::vector<double> thresholds{-inf, -2.5, -0.0, den, 1.5, 1e300,
                                       inf};
  auto map = ThresholdEdgeMap::Build({thresholds});
  ASSERT_TRUE(map.ok());
  std::vector<double> probes = thresholds;
  for (const double t : thresholds) {
    probes.push_back(std::nextafter(t, -inf));
    probes.push_back(std::nextafter(t, inf));
  }
  probes.insert(probes.end(), {0.0, -den, 7.25, -1e300});
  for (const double t : thresholds) {
    const uint16_t code = map->CodeOf(0, t);
    for (const double v : probes) {
      EXPECT_EQ(v <= t, map->BinOf(0, v) <= code)
          << "v=" << v << " t=" << t;
    }
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_GT(map->BinOf(0, nan), code) << "NaN must fall right of " << t;
  }
}

TEST(ThresholdEdgeMapTest, EncodeRowMatchesBinOf) {
  auto map = ThresholdEdgeMap::Build(
      {{1.0, 2.0, 3.0}, {}, {-5.0, 5.0}});
  ASSERT_TRUE(map.ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> rows{
      {0.5, 9.9, -5.0}, {2.0, nan, 5.0}, {nan, 0.0, 6.0}};
  for (const auto& row : rows) {
    uint8_t narrow[3];
    uint16_t wide[3];
    map->EncodeRow(row.data(), narrow);
    map->EncodeRow(row.data(), wide);
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(narrow[j], map->BinOf(j, row[j])) << "feature " << j;
      EXPECT_EQ(wide[j], map->BinOf(j, row[j])) << "feature " << j;
    }
  }
}

TEST(ThresholdEdgeMapTest, WideFeatureDropsOutOfUint8) {
  std::vector<double> t256(256);
  for (size_t i = 0; i < t256.size(); ++i) t256[i] = static_cast<double>(i);
  auto map = ThresholdEdgeMap::Build({t256});
  ASSERT_TRUE(map.ok());
  // 256 edges produce codes up to 255 plus the NaN sentinel 256: uint8
  // would truncate, so the map demands uint16 buffers.
  EXPECT_FALSE(map->fits_uint8());
  EXPECT_EQ(map->max_code(), 256u);
}

TEST(ThresholdEdgeMapTest, RefusesMoreThanUint16Thresholds) {
  std::vector<double> huge(0x10000);
  for (size_t i = 0; i < huge.size(); ++i) huge[i] = static_cast<double>(i);
  EXPECT_FALSE(ThresholdEdgeMap::Build({huge}).ok());
  huge.pop_back();  // 65535 distinct thresholds is the ceiling
  EXPECT_TRUE(ThresholdEdgeMap::Build({huge}).ok());
}

TEST(QuantileOneHotEncoderTest, TransformRowMatchesTransform) {
  const Dataset data = ml_testing::LinearlySeparable(50, 29);
  auto encoder = QuantileOneHotEncoder::Fit(data, 4);
  ASSERT_TRUE(encoder.ok());
  const Dataset encoded = encoder->Transform(data);
  const auto row = encoder->TransformRow(data.Row(7));
  for (size_t j = 0; j < row.size(); ++j) {
    EXPECT_DOUBLE_EQ(row[j], encoded.At(7, j));
  }
}

}  // namespace
}  // namespace telco
