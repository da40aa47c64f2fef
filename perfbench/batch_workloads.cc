// The batch workloads: the paper's monthly job, warehouse -> F1-F9 wide
// table -> random forest -> ranked churner list, predicting month 6 from
// four labelled training months.
//
//   batch_month  the deployed monthly run from a cold warehouse on disk:
//                storage, query, graph, text and features do most of the
//                work.
//   model_refit  the same run with every wide table already built, at a
//                250-tree forest: dataset packing, forest fit and batch
//                scoring do all the work, so a feature-layer change must
//                leave it unchanged.
//
// Each unit's ranked list is fingerprinted; every unit of a run must
// agree, the pinned seed must match pins.json bit for bit, and the
// scoring service must return the same scores for the same customers.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <unordered_map>

#include "churn/pipeline.h"
#include "common/crc32.h"
#include "common/string_util.h"
#include "datagen/telco_simulator.h"
#include "ml/metrics.h"
#include "storage/streaming_writer.h"
#include "storage/warehouse_io.h"
#include "suite.h"

namespace telco {
namespace perfbench {

namespace {

constexpr int kMonths = 6;
constexpr int kTrainingMonths = 4;

double DirBytes(const std::string& dir) {
  double total = 0.0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) {
      total += static_cast<double>(entry.file_size());
    }
  }
  return total;
}

/// What the pinned-output check compares.
struct Quality {
  uint32_t fingerprint = 0;
  double auc = 0.0;
  double pr_auc = 0.0;
};

/// CRC32 over the ranked imsis and the bit patterns of their scores.
uint32_t Fingerprint(const ChurnPrediction& prediction) {
  uint32_t crc = 0;
  for (size_t i = 0; i < prediction.imsis.size(); ++i) {
    char bytes[16];
    const uint64_t bits = std::bit_cast<uint64_t>(prediction.scores[i]);
    std::memcpy(bytes, &prediction.imsis[i], 8);
    std::memcpy(bytes + 8, &bits, 8);
    crc = Crc32(std::string_view(bytes, sizeof(bytes)), crc);
  }
  return crc;
}

Quality Measure(const ChurnPrediction& prediction) {
  const std::vector<ScoredInstance> scored = prediction.ToScoredInstances();
  return Quality{Fingerprint(prediction), Auc(scored), PrAuc(scored)};
}

bool SameQuality(const Quality& a, const Quality& b) {
  return a.fingerprint == b.fingerprint &&
         std::bit_cast<uint64_t>(a.auc) == std::bit_cast<uint64_t>(b.auc) &&
         std::bit_cast<uint64_t>(a.pr_auc) ==
             std::bit_cast<uint64_t>(b.pr_auc);
}

/// Checks one unit's ranked list: sorted by descending score, a model
/// better than chance, and identical to the run's first unit.
void CheckUnit(const ChurnPrediction& prediction, const Quality& quality,
               const Quality& first, Report* report) {
  if (prediction.imsis.empty() ||
      !std::is_sorted(prediction.scores.begin(), prediction.scores.end(),
                      std::greater<double>())) {
    report->Fail("ranked list is empty or not sorted by descending score");
  }
  if (!(quality.auc > 0.6)) {
    report->Fail(StrFormat("AUC %.4f is no better than chance", quality.auc));
  }
  if (!SameQuality(quality, first)) {
    report->Fail("a repeated run produced a different ranked list");
  }
}

/// Compares the first unit's output with pins.json at the pinned seed.
void CheckPins(const RunConfig& config, const Quality& quality,
               Report* report) {
  std::printf("# output_fingerprint=%08x auc=%s pr_auc=%s\n",
              quality.fingerprint, JsonNumber(quality.auc).c_str(),
              JsonNumber(quality.pr_auc).c_str());
  const JsonValue* workload = config.pins.Find(config.workload);
  const std::string key =
      std::to_string(config.seed) + (config.quick ? "-quick" : "");
  const JsonValue* pinned =
      workload != nullptr ? workload->Find(key) : nullptr;
  if (pinned == nullptr) {
    std::printf("# no pinned output for seed %s\n", key.c_str());
    return;
  }
  Quality expected;
  expected.auc = pinned->NumberOr("auc", 0.0);
  expected.pr_auc = pinned->NumberOr("pr_auc", 0.0);
  if (!ParseCrc32Hex(pinned->StringOr("output_fingerprint", ""),
                     &expected.fingerprint) ||
      !SameQuality(quality, expected)) {
    report->Fail("output differs from the pinned output for seed " + key);
  } else {
    std::printf("# output matches the pinned output for seed %s\n",
                key.c_str());
  }
}

/// A loaded warehouse and a pipeline over it. Heap-held so the
/// pipeline's catalog pointer stays valid.
struct MonthlyRun {
  Catalog catalog;
  std::unique_ptr<ChurnPipeline> pipeline;
  ChurnPrediction prediction;

  Status Open(const std::string& dir, int trees, PhaseRecorder* phases) {
    TELCO_RETURN_NOT_OK(LoadWarehouseTimed(dir, &catalog, phases));
    PipelineOptions options;
    options.training_months = kTrainingMonths;
    options.model.rf.num_trees = trees;
    pipeline = std::make_unique<ChurnPipeline>(&catalog, options);
    return Status::OK();
  }

  Status TrainAndPredict(PhaseRecorder* phases) {
    TraceSpan span("churn.train_and_predict");
    TELCO_ASSIGN_OR_RETURN(prediction, pipeline->TrainAndPredict(kMonths));
    phases->AddStages(pipeline->timings());
    return Status::OK();
  }
};

/// The campaign side reads the same scores from the scoring service: the
/// month's rows go through the stdio server under a snapshot of the
/// model just trained, and each response must equal the ranked list's
/// score for that customer bit for bit.
Status CheckServeParity(const RunConfig& config, MonthlyRun* run,
                        PhaseRecorder* phases, Report* report) {
  ChurnPipeline& pipeline = *run->pipeline;
  TELCO_ASSIGN_OR_RETURN(const WideTable wide,
                         pipeline.wide_builder().Build(kMonths));
  TELCO_ASSIGN_OR_RETURN(
      const Dataset rows,
      Dataset::FromTableUnlabeled(*wide.table, pipeline.model_features()));
  TELCO_ASSIGN_OR_RETURN(const Column* imsi, wide.table->GetColumn("imsi"));
  TELCO_ASSIGN_OR_RETURN(
      auto snapshot,
      ModelSnapshot::FromForest(*pipeline.model()->forest(),
                                pipeline.model_features(), "batch"));
  std::unordered_map<int64_t, double> ranked;
  for (size_t i = 0; i < run->prediction.imsis.size(); ++i) {
    ranked[run->prediction.imsis[i]] = run->prediction.scores[i];
  }
  ReplayStream stream;
  size_t unrepresentable = 0;
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    const auto it = ranked.find(imsi->GetInt64(r));
    if (it == ranked.end()) continue;
    const auto row = rows.Row(r);
    // The wire carries non-finite features as 0; such rows cannot be
    // compared.
    if (!std::all_of(row.begin(), row.end(),
                     [](double v) { return std::isfinite(v); })) {
      ++unrepresentable;
      continue;
    }
    stream.order.push_back(static_cast<uint32_t>(stream.tails.size()));
    stream.tails.push_back(FrameTail(it->first, row, ""));
    stream.expected_before.push_back(it->second);
  }
  stream.swap_at = stream.order.size();
  if (stream.order.size() + unrepresentable != ranked.size()) {
    report->Fail("ranked list and wide table disagree on the customers");
  }

  phases->Begin(Phase::kCheck, config.trace);
  const Result<ReplayResult> replay = ReplayStdio(
      stream, std::move(snapshot), config.trace ? 100 : 0, report);
  phases->End();
  TELCO_RETURN_NOT_OK(replay.status());
  std::printf("# serve parity: %zu ranked customers re-scored through the "
              "stdio server (%zu with non-finite features skipped)\n",
              stream.order.size(), unrepresentable);
  return Status::OK();
}

/// Repeats the measured unit `run_unit` (each after an untimed `prepare`)
/// for the run's seconds, at least three times, recording its latency,
/// peak RSS and output. Every unit ranks the same customers, so the
/// throughput is taken at the median unit.
template <typename Prepare, typename Unit>
Status MeasureUnits(const RunConfig& config, PhaseRecorder* phases,
                    Report* report, Prepare&& prepare, Unit&& run_unit) {
  Stopwatch measured;
  Quality first;
  std::vector<double> walls_ms;
  size_t ranked = 0;
  while (walls_ms.size() < 3 ||
         measured.ElapsedSeconds() < config.seconds) {
    prepare();
    ResetPeakRss();
    phases->Begin(Phase::kUnit, phases->TraceNextUnit());
    const Result<const ChurnPrediction*> unit = run_unit();
    const double wall = phases->End();
    TELCO_RETURN_NOT_OK(unit.status());
    const ChurnPrediction& prediction = **unit;
    report->peak_rss_mb.push_back(PeakRssMb());
    walls_ms.push_back(wall * 1e3);
    ++report->attempted;
    const Quality quality = Measure(prediction);
    if (walls_ms.size() == 1) {
      first = quality;
      ranked = prediction.imsis.size();
      CheckPins(config, quality, report);
    }
    CheckUnit(prediction, quality, first, report);
  }
  report->p50_ms = Median(walls_ms);
  report->latency_samples = walls_ms.size();
  report->throughput = static_cast<double>(ranked) / report->p50_ms * 1e3;
  std::printf("# %zu units, %zu customers ranked per unit; wall ms:",
              walls_ms.size(), ranked);
  for (const double wall : walls_ms) std::printf(" %.0f", wall);
  std::printf("\n");
  return Status::OK();
}

}  // namespace

Status GenerateWarehouse(const RunConfig& config, double scale_factor,
                         int months, const std::string& dir,
                         PhaseRecorder* phases) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  SimConfig sim;
  sim.scale_factor = scale_factor;
  sim.num_months = months;
  sim.seed = config.seed;
  TelcoSimulator simulator(sim);
  simulator.set_record_truth(false);
  StreamingWarehouseSink sink(dir);
  TraceSpan span("datagen.generate");
  Stopwatch watch;
  TELCO_RETURN_NOT_OK(simulator.Run(&sink));
  phases->Add("datagen.s", watch.ElapsedSeconds());
  phases->Add("datagen.rows", static_cast<double>(sink.rows_written()));
  phases->Add("storage.warehouse_bytes", DirBytes(dir));
  return Status::OK();
}

Status LoadWarehouseTimed(const std::string& dir, Catalog* catalog,
                          PhaseRecorder* phases) {
  TraceSpan span("storage.load");
  Stopwatch watch;
  TELCO_RETURN_NOT_OK(LoadWarehouse(dir, catalog));
  phases->Add("storage.load_s", watch.ElapsedSeconds());
  phases->Add("storage.load_rss_mb", CurrentRssMb());
  return Status::OK();
}

Status RunBatchMonth(const RunConfig& config, PhaseRecorder* phases,
                     Report* report) {
  const std::string dir = config.work_dir + "/warehouse";
  const double sf = config.quick ? 0.0003 : 0.002;
  const int trees = config.quick ? 8 : 30;
  const int setups = config.quick ? 1 : 3;
  for (int i = 0; i < setups; ++i) {
    phases->Begin(Phase::kSetup, i + 1 == setups);
    TELCO_RETURN_NOT_OK(GenerateWarehouse(config, sf, kMonths, dir, phases));
    report->setup_s.push_back(phases->End());
  }

  std::unique_ptr<MonthlyRun> run;
  TELCO_RETURN_NOT_OK(MeasureUnits(
      config, phases, report,
      [&] { run.reset(); },  // free the previous month before measuring RSS
      [&]() -> Result<const ChurnPrediction*> {
        run = std::make_unique<MonthlyRun>();
        TELCO_RETURN_NOT_OK(run->Open(dir, trees, phases));
        TELCO_RETURN_NOT_OK(run->TrainAndPredict(phases));
        return &run->prediction;
      }));
  return CheckServeParity(config, run.get(), phases, report);
}

Status RunModelRefit(const RunConfig& config, PhaseRecorder* phases,
                     Report* report) {
  const std::string dir = config.work_dir + "/warehouse";
  const double sf = config.quick ? 0.0003 : 0.003;
  const int trees = config.quick ? 40 : 250;
  const int setups = config.quick ? 1 : 3;
  std::unique_ptr<MonthlyRun> run;
  for (int i = 0; i < setups; ++i) {
    run.reset();
    phases->Begin(Phase::kSetup, i + 1 == setups);
    TELCO_RETURN_NOT_OK(GenerateWarehouse(config, sf, kMonths, dir, phases));
    run = std::make_unique<MonthlyRun>();
    TELCO_RETURN_NOT_OK(run->Open(dir, trees, phases));
    // Every wide table the unit reads: training months 2-5 and month 6.
    for (int month = kMonths - kTrainingMonths; month <= kMonths; ++month) {
      TELCO_RETURN_NOT_OK(run->pipeline->wide_builder().Build(month).status());
    }
    report->setup_s.push_back(phases->End());
  }

  TELCO_RETURN_NOT_OK(MeasureUnits(
      config, phases, report, [] {},
      [&]() -> Result<const ChurnPrediction*> {
        TELCO_RETURN_NOT_OK(run->TrainAndPredict(phases));
        return &run->prediction;
      }));
  return CheckServeParity(config, run.get(), phases, report);
}

}  // namespace perfbench
}  // namespace telco
