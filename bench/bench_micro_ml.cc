// Micro-benchmarks of the learning kernels (google-benchmark): the
// classifier fits and the graph/topic feature extractors.

#include <benchmark/benchmark.h>

#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "graph/label_propagation.h"
#include "graph/pagerank.h"
#include "ml/gbdt.h"
#include "ml/imbalance.h"
#include "ml/random_forest.h"
#include "text/lda.h"

namespace telco {
namespace {

Dataset SyntheticData(size_t rows, size_t features, uint64_t seed) {
  std::vector<std::string> names;
  for (size_t j = 0; j < features; ++j) {
    names.push_back("f" + std::to_string(j));
  }
  Dataset data(names);
  Rng rng(seed);
  std::vector<double> row(features);
  for (size_t i = 0; i < rows; ++i) {
    double score = 0.0;
    for (size_t j = 0; j < features; ++j) {
      row[j] = rng.Gaussian();
      if (j < 5) score += row[j];
    }
    data.AddRow(row, score + rng.Gaussian() > 1.5 ? 1 : 0);
  }
  return data;
}

void BM_RandomForestFit(benchmark::State& state) {
  const Dataset data = SyntheticData(
      static_cast<size_t>(state.range(0)), 50, 1);
  RandomForestOptions options;
  options.num_trees = 50;
  options.min_samples_split = 50;
  for (auto _ : state) {
    RandomForest forest(options);
    benchmark::DoNotOptimize(forest.Fit(data));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RandomForestFit)->Arg(5000)->Arg(20000)
    ->Unit(benchmark::kMillisecond);

void BM_RandomForestPredict(benchmark::State& state) {
  const Dataset data = SyntheticData(5000, 50, 2);
  RandomForestOptions options;
  options.num_trees = 50;
  options.min_samples_split = 50;
  RandomForest forest(options);
  benchmark::DoNotOptimize(forest.Fit(data));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.PredictProba(data.Row(i)));
    i = (i + 1) % data.num_rows();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RandomForestPredict);

// Batch scoring across a pool; Arg = worker threads (results are
// bit-identical for every arg — this measures wall-clock only).
void BM_RandomForestPredictBatch(benchmark::State& state) {
  const Dataset data = SyntheticData(5000, 50, 2);
  RandomForestOptions options;
  options.num_trees = 50;
  options.min_samples_split = 50;
  RandomForest forest(options);
  benchmark::DoNotOptimize(forest.Fit(data));
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.PredictProbaBatch(data, &pool));
  }
  state.SetItemsProcessed(state.iterations() * data.num_rows());
}
BENCHMARK(BM_RandomForestPredictBatch)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// The ScoreBatch pairs measure one fitted paper-scale forest (500 trees,
// §4.2) whose binned arena (8-byte nodes, ~1.4 MB) fits the CI box's L2
// — the serving regime the binned engine targets. Fitting 500 trees is
// expensive on one core, so the model and rows are built once per
// process and shared by every engine/thread-count variant (scoring is
// const and the benchmarks run sequentially).
const Dataset& ScoreBatchData() {
  static const Dataset* const data = new Dataset(SyntheticData(5000, 50, 2));
  return *data;
}

const RandomForest& ScoreBatchForest() {
  static const RandomForest* const forest = [] {
    RandomForestOptions options;
    options.num_trees = 500;
    options.min_samples_split = 50;
    auto* f = new RandomForest(options);
    TELCO_CHECK(f->Fit(ScoreBatchData()).ok());
    return f;
  }();
  return *forest;
}

// Pointer-walk batch scoring (same fitted forest and FeatureMatrix as
// ScoreBatchBinned, bit-identical outputs); Arg = worker threads. The
// qualified Classifier:: call bypasses the compiled engine and runs the
// per-row pointer walk it replaced.
void BM_RandomForestScoreBatchPointer(benchmark::State& state) {
  const RandomForest& forest = ScoreBatchForest();
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  const FeatureMatrix rows = ScoreBatchData().Matrix();
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.Classifier::PredictProbaBatch(rows, &pool));
  }
  state.SetItemsProcessed(state.iterations() * rows.num_rows());
}
BENCHMARK(BM_RandomForestScoreBatchPointer)->Arg(1)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Binned integer-compare engine over the same fitted forest and rows —
// bit-identical scores, measured against ScoreBatchPointer above.
void BM_RandomForestScoreBatchBinned(benchmark::State& state) {
  const RandomForest& forest = ScoreBatchForest();
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  const FeatureMatrix rows = ScoreBatchData().Matrix();
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.binned()->PredictProba(rows, &pool));
  }
  state.SetItemsProcessed(state.iterations() * rows.num_rows());
}
BENCHMARK(BM_RandomForestScoreBatchBinned)->Arg(1)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

const Dataset& GbdtScoreBatchData() {
  static const Dataset* const data = new Dataset(SyntheticData(5000, 50, 3));
  return *data;
}

const Gbdt& ScoreBatchGbdt() {
  static const Gbdt* const model = [] {
    GbdtOptions options;
    options.num_trees = 50;
    options.max_depth = 5;
    auto* m = new Gbdt(options);
    TELCO_CHECK(m->Fit(GbdtScoreBatchData()).ok());
    return m;
  }();
  return *model;
}

void BM_GbdtScoreBatchPointer(benchmark::State& state) {
  const Gbdt& model = ScoreBatchGbdt();
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  const FeatureMatrix rows = GbdtScoreBatchData().Matrix();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Classifier::PredictProbaBatch(rows, &pool));
  }
  state.SetItemsProcessed(state.iterations() * rows.num_rows());
}
BENCHMARK(BM_GbdtScoreBatchPointer)->Arg(1)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_GbdtScoreBatchBinned(benchmark::State& state) {
  const Gbdt& model = ScoreBatchGbdt();
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  const FeatureMatrix rows = GbdtScoreBatchData().Matrix();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.binned()->PredictProba(rows, &pool));
  }
  state.SetItemsProcessed(state.iterations() * rows.num_rows());
}
BENCHMARK(BM_GbdtScoreBatchBinned)->Arg(1)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Rows shaped like the churn wide table: ~140 columns mixing Gaussian,
// mostly-zero count, small-integer and constant features, a ~10% churner
// rate, and the pipeline's class weights (kWeightedInstance).
Dataset PaperShapedData(size_t rows, size_t features, uint64_t seed) {
  std::vector<std::string> names;
  for (size_t j = 0; j < features; ++j) names.push_back(StrFormat("f%zu", j));
  Dataset data(names);
  Rng rng(seed);
  std::vector<double> row(features);
  for (size_t i = 0; i < rows; ++i) {
    const double latent = rng.Gaussian();
    const double signal = 0.8 * latent + 0.5 * rng.Gaussian();
    for (size_t j = 0; j < features; ++j) {
      const double shift = j < 20 ? signal : 0.0;
      switch (j % 5) {
        case 0: row[j] = rng.Gaussian() + shift; break;
        case 1:
          row[j] = rng.Bernoulli(0.7) ? 0.0 : rng.Exponential(0.2) + shift;
          break;
        case 2: row[j] = static_cast<double>(rng.UniformInt(5)); break;
        case 3: row[j] = j == 3 ? 1.0 : rng.LogNormal(shift, 1.0); break;
        default:
          row[j] = static_cast<double>(rng.Poisson(2.0 + std::abs(shift)));
      }
    }
    data.AddRow(row, latent > 1.28 ? 1 : 0);
  }
  auto weighted =
      ApplyImbalanceStrategy(data, ImbalanceStrategy::kWeightedInstance, 1);
  TELCO_CHECK(weighted.ok());
  return std::move(weighted).ValueOrDie();
}

// The paper-shaped fit (the pipeline's forest on ~140 class-weighted
// features, min split 50) on a pool of Arg threads; the per-commit gate
// in scripts/bench_check.sh compares it with the committed baseline.
// The gate reads the one-worker case only, whose rows/s do not depend
// on how many cores the box running it has, and keeps the best of its
// repetitions (one fit is a single sample of ~0.7 s). Registered after
// the ScoreBatch family, so in the gate's process the scoring cases run
// before the 22 MB matrix exists.
void BM_RandomForestFitPaperShaped(benchmark::State& state) {
  static const Dataset* const data =
      new Dataset(PaperShapedData(20000, 140, 5));
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  RandomForestOptions options;
  options.num_trees = 32;
  options.min_samples_split = 50;
  options.pool = &pool;
  for (auto _ : state) {
    RandomForest forest(options);
    benchmark::DoNotOptimize(forest.Fit(*data));
  }
  state.SetItemsProcessed(state.iterations() * data->num_rows());
}
BENCHMARK(BM_RandomForestFitPaperShaped)->Arg(1)->Arg(4)->Repetitions(3)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// Tree fitting across a pool; Arg = worker threads.
void BM_RandomForestFitParallel(benchmark::State& state) {
  const Dataset data = SyntheticData(5000, 50, 1);
  RandomForestOptions options;
  options.num_trees = 50;
  options.min_samples_split = 50;
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  options.pool = &pool;
  for (auto _ : state) {
    RandomForest forest(options);
    benchmark::DoNotOptimize(forest.Fit(data));
  }
  state.SetItemsProcessed(state.iterations() * data.num_rows());
}
BENCHMARK(BM_RandomForestFitParallel)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_GbdtFit(benchmark::State& state) {
  const Dataset data = SyntheticData(
      static_cast<size_t>(state.range(0)), 50, 3);
  GbdtOptions options;
  options.num_trees = 50;
  options.max_depth = 5;
  for (auto _ : state) {
    Gbdt model(options);
    benchmark::DoNotOptimize(model.Fit(data));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GbdtFit)->Arg(5000)->Arg(20000)->Unit(benchmark::kMillisecond);

Graph RandomGraph(size_t n, double mean_degree, uint64_t seed) {
  GraphBuilder builder(n);
  Rng rng(seed);
  const size_t edges = static_cast<size_t>(n * mean_degree / 2);
  for (size_t e = 0; e < edges; ++e) {
    const uint32_t a = static_cast<uint32_t>(rng.UniformInt(n));
    const uint32_t b = static_cast<uint32_t>(rng.UniformInt(n));
    if (a != b) {
      benchmark::DoNotOptimize(builder.AddEdge(a, b, 1.0 + rng.Uniform()));
    }
  }
  return std::move(builder).Build();
}

void BM_PageRank(benchmark::State& state) {
  const Graph g = RandomGraph(static_cast<size_t>(state.range(0)), 8.0, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PageRank(g));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PageRank)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

// Chunked PageRank sweeps; Args = {vertices, worker threads}.
void BM_PageRankParallel(benchmark::State& state) {
  const Graph g = RandomGraph(static_cast<size_t>(state.range(0)), 8.0, 4);
  ThreadPool pool(static_cast<size_t>(state.range(1)));
  PageRankOptions options;
  options.pool = &pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PageRank(g, options));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PageRankParallel)->Args({50000, 1})->Args({50000, 2})
    ->Args({50000, 4})->Unit(benchmark::kMillisecond);

void BM_LabelPropagation(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Graph g = RandomGraph(n, 8.0, 5);
  Rng rng(6);
  std::vector<LabeledVertex> seeds;
  for (size_t i = 0; i < n / 10; ++i) {
    seeds.push_back(LabeledVertex{
        static_cast<uint32_t>(rng.UniformInt(n)),
        static_cast<uint32_t>(rng.UniformInt(2))});
  }
  LabelPropagationOptions options;
  options.max_iterations = 30;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PropagateLabels(g, seeds, options));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LabelPropagation)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void BM_LdaTrain(benchmark::State& state) {
  const size_t docs = static_cast<size_t>(state.range(0));
  Corpus corpus(240);
  Rng rng(7);
  for (size_t d = 0; d < docs; ++d) {
    Document doc;
    const int topic = static_cast<int>(rng.UniformInt(8));
    for (int i = 0; i < 12; ++i) {
      doc.word_counts.emplace_back(
          static_cast<uint32_t>(topic * 30 + rng.UniformInt(30)), 1);
    }
    benchmark::DoNotOptimize(corpus.AddDocument(doc));
  }
  LdaOptions options;
  options.num_topics = 10;
  options.max_iterations = 30;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LdaModel::Train(corpus, options));
  }
  state.SetItemsProcessed(state.iterations() * docs);
}
BENCHMARK(BM_LdaTrain)->Arg(2000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace telco

BENCHMARK_MAIN();
