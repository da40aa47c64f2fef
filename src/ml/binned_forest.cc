#include "ml/binned_forest.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/logging.h"
#include "common/math_util.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/timer.h"
#include "common/thread_pool.h"

namespace telco {

namespace {

struct BinnedForestMetrics {
  Histogram compile_seconds;
  Counter nodes;
  Counter batch_rows;
  Counter wide_code_forests;
  Counter compile_fallbacks;
};

const BinnedForestMetrics& Metrics() {
  static const BinnedForestMetrics* const m = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    return new BinnedForestMetrics{
        r.GetHistogram("ml.binned_forest.compile_seconds"),
        r.GetCounter("ml.binned_forest.nodes"),
        r.GetCounter("ml.binned_forest.batch_rows"),
        r.GetCounter("ml.binned_forest.wide_code_forests"),
        r.GetCounter("ml.binned_forest.compile_fallbacks"),
    };
  }();
  return *m;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TELCO_BINNED_AVX2 1

bool HasAvx2() {
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
}

// One lock-step descent iteration for eight rows. `arena_words` views the
// 8-byte node arena as 32-bit words: word 2i is {split | feature << 16}
// (little-endian field order of BinnedForest::Node), word 2i+1 is
// right_delta. `rowoff` holds the eight rows' code-buffer base offsets
// (row * num_features). The code gather reads 4 bytes per lane, so the
// caller pads the code buffer past its last element. Returns nonzero when
// any of the eight rows moved (leaves step by 0).
__attribute__((target("avx2"))) inline uint32_t DescendStep8U16(
    const int32_t* arena_words, const uint16_t* codes,
    const int32_t* rowoff, uint32_t* idx) {
  const __m256i vidx =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
  const __m256i packed = _mm256_i32gather_epi32(arena_words, vidx, 8);
  const __m256i vdelta = _mm256_i32gather_epi32(arena_words + 1, vidx, 8);
  const __m256i low16 = _mm256_set1_epi32(0xFFFF);
  const __m256i vsplit = _mm256_and_si256(packed, low16);
  const __m256i vfeat = _mm256_srli_epi32(packed, 16);
  const __m256i voff = _mm256_add_epi32(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rowoff)), vfeat);
  const __m256i vcode = _mm256_and_si256(
      _mm256_i32gather_epi32(reinterpret_cast<const int*>(codes), voff, 2),
      low16);
  // code < split, both in [0, 65535] so the signed compare is exact.
  const __m256i lt = _mm256_cmpgt_epi32(vsplit, vcode);
  const __m256i step =
      _mm256_blendv_epi8(vdelta, _mm256_set1_epi32(1), lt);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(idx),
                      _mm256_add_epi32(vidx, step));
  return static_cast<uint32_t>(_mm256_testz_si256(step, step) == 0);
}

// uint8 code-buffer variant: gather scale 1, mask 0xFF.
__attribute__((target("avx2"))) inline uint32_t DescendStep8U8(
    const int32_t* arena_words, const uint8_t* codes, const int32_t* rowoff,
    uint32_t* idx) {
  const __m256i vidx =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
  const __m256i packed = _mm256_i32gather_epi32(arena_words, vidx, 8);
  const __m256i vdelta = _mm256_i32gather_epi32(arena_words + 1, vidx, 8);
  const __m256i vsplit = _mm256_and_si256(packed, _mm256_set1_epi32(0xFFFF));
  const __m256i vfeat = _mm256_srli_epi32(packed, 16);
  const __m256i voff = _mm256_add_epi32(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rowoff)), vfeat);
  const __m256i vcode = _mm256_and_si256(
      _mm256_i32gather_epi32(reinterpret_cast<const int*>(codes), voff, 1),
      _mm256_set1_epi32(0xFF));
  const __m256i lt = _mm256_cmpgt_epi32(vsplit, vcode);
  const __m256i step =
      _mm256_blendv_epi8(vdelta, _mm256_set1_epi32(1), lt);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(idx),
                      _mm256_add_epi32(vidx, step));
  return static_cast<uint32_t>(_mm256_testz_si256(step, step) == 0);
}

inline uint32_t DescendStep8(const int32_t* arena_words,
                             const uint16_t* codes, const int32_t* rowoff,
                             uint32_t* idx) {
  return DescendStep8U16(arena_words, codes, rowoff, idx);
}
inline uint32_t DescendStep8(const int32_t* arena_words,
                             const uint8_t* codes, const int32_t* rowoff,
                             uint32_t* idx) {
  return DescendStep8U8(arena_words, codes, rowoff, idx);
}
#endif  // x86_64

}  // namespace

template <typename SrcNode, typename LeafValueFn>
Status BinnedForest::FlattenTree(const std::vector<SrcNode>& src,
                                 const LeafValueFn& leaf_value,
                                 std::vector<FlatNode>* flat) {
  if (src.empty()) {
    return Status::InvalidArgument("cannot compile an empty tree");
  }
  roots_.push_back(static_cast<uint32_t>(flat->size()));
  // Preorder DFS with an explicit stack: (source node, flat index of the
  // parent whose right_delta this node resolves; -1 = a left child or
  // the root, which is always adjacent to its parent).
  std::vector<std::pair<int32_t, int64_t>> stack;
  stack.emplace_back(0, -1);
  size_t emitted = 0;
  while (!stack.empty()) {
    const auto [src_id, patch] = stack.back();
    stack.pop_back();
    if (src_id < 0 || static_cast<size_t>(src_id) >= src.size()) {
      return Status::InvalidArgument("tree child index out of range");
    }
    if (++emitted > src.size()) {
      return Status::InvalidArgument("tree topology has a cycle");
    }
    const int64_t index = static_cast<int64_t>(flat->size());
    if (patch >= 0) {
      (*flat)[patch].right_delta = static_cast<int32_t>(index - patch);
    }
    const SrcNode& n = src[src_id];
    FlatNode out;
    if (n.feature < 0) {
      if (leaf_values_.size() >=
          static_cast<size_t>(std::numeric_limits<int32_t>::max())) {
        return Status::InvalidArgument("forest exceeds 2^31 leaves");
      }
      out.feature = -1;
      out.right_delta = static_cast<int32_t>(leaf_values_.size());
      leaf_values_.push_back(leaf_value(n));
    } else {
      out.threshold = n.threshold;
      out.feature = n.feature;
      // Right is pushed first so the left subtree pops (and is emitted
      // adjacent) first; right_delta is patched when the right pops.
      stack.emplace_back(n.right, index);
      stack.emplace_back(n.left, -1);
    }
    flat->push_back(out);
    if (flat->size() >=
        static_cast<size_t>(std::numeric_limits<int32_t>::max())) {
      return Status::InvalidArgument("forest exceeds 2^31 nodes");
    }
  }
  return Status::OK();
}

Status BinnedForest::Encode(const std::vector<FlatNode>& flat) {
  int64_t max_feature = -1;
  for (const FlatNode& n : flat) {
    max_feature = std::max<int64_t>(max_feature, n.feature);
  }
  if (max_feature >= 0xFFFF) {
    return Status::InvalidArgument(
        "binned nodes index features with uint16");
  }
  std::vector<std::vector<double>> thresholds(
      static_cast<size_t>(max_feature + 1));
  for (const FlatNode& n : flat) {
    if (n.feature >= 0) {
      thresholds[static_cast<size_t>(n.feature)].push_back(n.threshold);
    }
  }
  TELCO_ASSIGN_OR_RETURN(edges_, ThresholdEdgeMap::Build(thresholds));
  wide_codes_ = !edges_.fits_uint8();
  nodes_.resize(flat.size());
  leaf_slot_.assign(flat.size(), -1);
  for (size_t i = 0; i < flat.size(); ++i) {
    const FlatNode& src = flat[i];
    Node& dst = nodes_[i];
    if (src.feature < 0) {
      // Leaf: split 0 never compares true and right_delta 0 self-loops,
      // so finished rows hold still in the lock-step descent. The leaf
      // value index moves to the cold sidecar.
      leaf_slot_[i] = src.right_delta;
    } else {
      dst.feature = static_cast<uint16_t>(src.feature);
      dst.right_delta = src.right_delta;
      // `v <= t` <=> `code(v) < code(t) + 1` for finite and infinite t;
      // a NaN threshold compares false for every v, which split == 0
      // encodes (no code is < 0) while the real right_delta keeps the
      // node unconditionally-right rather than a leaf self-loop.
      dst.split = std::isnan(src.threshold)
                      ? 0
                      : static_cast<uint16_t>(
                            edges_.CodeOf(static_cast<size_t>(src.feature),
                                          src.threshold) +
                            1);
    }
  }
  return Status::OK();
}

std::shared_ptr<const BinnedForest> BinnedForest::Finish(
    BinnedForest forest, const std::vector<FlatNode>& flat,
    const Stopwatch& watch) {
  const Status encoded = forest.Encode(flat);
  Metrics().compile_seconds.Observe(watch.ElapsedSeconds());
  if (!encoded.ok()) {
    Metrics().compile_fallbacks.Add();
    TELCO_LOG(Warning) << "forest cannot be binned; batch scoring walks "
                          "the trees: "
                       << encoded.ToString();
    return nullptr;
  }
  Metrics().nodes.Add(forest.nodes_.size());
  if (forest.wide_codes_) Metrics().wide_code_forests.Add();
  return std::make_shared<const BinnedForest>(std::move(forest));
}

Result<std::shared_ptr<const BinnedForest>> BinnedForest::CompileAverage(
    const std::vector<ClassificationTree>& trees) {
  if (trees.empty()) {
    return Status::InvalidArgument("cannot compile an empty forest");
  }
  const Stopwatch watch;
  BinnedForest forest;
  std::vector<FlatNode> flat;
  std::vector<ClassificationTree::SerializedNode> src;
  std::vector<double> leaf_proba;
  for (const ClassificationTree& tree : trees) {
    tree.Export(&src, &leaf_proba);
    // A leaf's contribution is its class-1 probability — the exact
    // double PredictProba(row)[1] returns.
    TELCO_RETURN_NOT_OK(forest.FlattenTree(
        src,
        [&leaf_proba](const ClassificationTree::SerializedNode& n) {
          return leaf_proba[static_cast<size_t>(n.proba_offset) + 1];
        },
        &flat));
  }
  return Finish(std::move(forest), flat, watch);
}

Result<std::shared_ptr<const BinnedForest>> BinnedForest::CompileMargin(
    const std::vector<RegressionTree>& trees, double base_margin,
    double learning_rate) {
  if (trees.empty()) {
    return Status::InvalidArgument("cannot compile an empty forest");
  }
  const Stopwatch watch;
  BinnedForest forest;
  forest.margin_kind_ = true;
  forest.base_margin_ = base_margin;
  forest.learning_rate_ = learning_rate;
  std::vector<FlatNode> flat;
  std::vector<RegressionTree::SerializedNode> src;
  for (const RegressionTree& tree : trees) {
    tree.Export(&src);
    TELCO_RETURN_NOT_OK(forest.FlattenTree(
        src,
        [](const RegressionTree::SerializedNode& n) { return n.value; },
        &flat));
  }
  return Finish(std::move(forest), flat, watch);
}

template <typename Code>
void BinnedForest::ScoreBlock(FeatureMatrix rows, size_t lo, size_t hi,
                              Code* codes, double* out) const {
  const size_t cols = rows.num_cols();
  const size_t nf = edges_.num_features();
  const size_t n = hi - lo;

  // Bin the block's rows once; every tree reuses the integer codes.
  for (size_t r = 0; r < n; ++r) {
    edges_.EncodeRow(rows.data() + (lo + r) * cols, codes + r * nf);
  }

  double acc[kBlockRows];
  const double init = margin_kind_ ? base_margin_ : 0.0;
  for (size_t r = 0; r < n; ++r) acc[r] = init;

  alignas(32) uint32_t idx[kBlockRows];
#if TELCO_BINNED_AVX2
  const bool use_avx2 = HasAvx2();
  alignas(32) int32_t rowoff[kBlockRows];
  for (size_t r = 0; r < n; ++r) {
    rowoff[r] = static_cast<int32_t>(r * nf);
  }
  const int32_t* const arena_words =
      reinterpret_cast<const int32_t*>(nodes_.data());
#endif

  // Tree-major, lock-step descent: every row of the block takes one
  // conditional-move step per iteration; leaves self-loop, so the loop
  // ends after (max leaf depth among the block's rows) iterations when
  // a sweep moves nobody. One tree's nodes stay hot while every row of
  // the block walks it, and each row still accumulates in tree order
  // with the pointer walk's arithmetic, so the result is bit-identical
  // to it.
  const Node* const arena = nodes_.data();
  for (const uint32_t root : roots_) {
    for (size_t r = 0; r < n; ++r) idx[r] = root;
    for (;;) {
      uint32_t moved = 0;
      size_t r = 0;
#if TELCO_BINNED_AVX2
      if (use_avx2) {
        for (; r + 8 <= n; r += 8) {
          moved |= DescendStep8(arena_words, codes, rowoff + r, idx + r);
        }
      }
#endif
      for (; r < n; ++r) {
        const Node node = arena[idx[r]];
        const uint32_t code = codes[r * nf + node.feature];
        const int32_t step =
            code < node.split ? 1 : node.right_delta;
        idx[r] += static_cast<uint32_t>(step);
        moved |= static_cast<uint32_t>(step);
      }
      if (moved == 0) break;
    }
    for (size_t r = 0; r < n; ++r) {
      const double leaf = leaf_values_[static_cast<size_t>(
          leaf_slot_[idx[r]])];
      acc[r] += margin_kind_ ? learning_rate_ * leaf : leaf;
    }
  }

  if (!margin_kind_) {
    const double divisor = static_cast<double>(roots_.size());
    for (size_t r = 0; r < n; ++r) out[lo + r] = acc[r] / divisor;
  } else {
    for (size_t r = 0; r < n; ++r) out[lo + r] = Sigmoid(acc[r]);
  }
}

void BinnedForest::PredictProbaInto(FeatureMatrix rows,
                                    std::span<double> out,
                                    ThreadPool* pool) const {
  TELCO_CHECK(out.size() == rows.num_rows());
  TELCO_DCHECK(!roots_.empty());
  TELCO_DCHECK(rows.num_cols() >= edges_.num_features());
  if (rows.empty()) return;
  Metrics().batch_rows.Add(rows.num_rows());
  const size_t nf = edges_.num_features();
  // One chunk per block keeps the grid independent of the pool size;
  // rows are scored whole, so any grid gives bit-identical output.
  const size_t num_blocks = (rows.num_rows() + kBlockRows - 1) / kBlockRows;
  RunParallelChunks(
      pool, 0, rows.num_rows(), num_blocks,
      [&](size_t, size_t lo, size_t hi) {
        // Per-chunk code buffer, padded so the AVX2 4-byte code gather
        // of the last element stays in bounds.
        if (wide_codes_) {
          std::vector<uint16_t> codes(kBlockRows * nf + 2);
          for (size_t b = lo; b < hi; b += kBlockRows) {
            ScoreBlock(rows, b, std::min(b + kBlockRows, hi), codes.data(),
                       out.data());
          }
        } else {
          std::vector<uint8_t> codes(kBlockRows * nf + 4);
          for (size_t b = lo; b < hi; b += kBlockRows) {
            ScoreBlock(rows, b, std::min(b + kBlockRows, hi), codes.data(),
                       out.data());
          }
        }
      });
}

std::vector<double> BinnedForest::PredictProba(FeatureMatrix rows,
                                               ThreadPool* pool) const {
  std::vector<double> out(rows.num_rows(), 0.0);
  PredictProbaInto(rows, out, pool);
  return out;
}

}  // namespace telco
