// Shared world-building and formatting for the table/figure benches.
//
// Every bench binary reproduces one table or figure from the paper's
// evaluation. The world is the synthetic operator at 1/100+ scale; set
// TELCO_BENCH_CUSTOMERS / TELCO_BENCH_MONTHS / TELCO_BENCH_SEED /
// TELCO_BENCH_TREES to change the scale.

#ifndef TELCO_BENCH_BENCH_COMMON_H_
#define TELCO_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>

#include "churn/pipeline.h"
#include "common/telemetry/run_report.h"
#include "datagen/telco_simulator.h"

namespace telco {
namespace bench {

/// The paper's population scale (~2.1M active prepaid customers).
inline constexpr double kPaperPopulation = 2.1e6;

/// Bench-scale world: simulator + filled catalog.
struct World {
  SimConfig config;
  Catalog catalog;
  std::unique_ptr<TelcoSimulator> sim;

  size_t ActiveCustomers(int month) const {
    return sim->truth().months[month - 1].active_imsis.size();
  }
};

/// Reads env overrides and simulates the world (logs progress).
std::unique_ptr<World> BuildWorld();

/// Integer environment knob in [lo, hi], `fallback` when unset. A value
/// that is not wholly an in-range integer prints the error and exits 2:
/// a typo must not silently run a different experiment.
int64_t EnvInt(const char* name, int64_t fallback, int64_t lo, int64_t hi);

/// Scales one of the paper's top-U thresholds (e.g. 50000) to this run's
/// population.
size_t ScaledU(const World& world, double paper_u);

/// Default pipeline options at bench scale (number of RF trees comes from
/// TELCO_BENCH_TREES, default 120; the paper's production value is 500).
PipelineOptions DefaultPipelineOptions();

/// Prints the standard bench header naming the experiment.
void PrintHeader(const std::string& experiment, const World& world);

/// Averages metrics over several prediction months using one pipeline.
struct AveragedMetrics {
  double auc = 0.0;
  double pr_auc = 0.0;
  double recall_at_u = 0.0;
  double precision_at_u = 0.0;
  int runs = 0;
};
Result<AveragedMetrics> AverageOverMonths(ChurnPipeline& pipeline,
                                          const std::vector<int>& months,
                                          size_t u);

/// Writes a RunReport (kind == "bench") for a finished bench run to
/// BENCH_<name>.json in the current directory — the same schema the CLI's
/// --report-out uses, so `telcochurn metrics --report BENCH_<name>.json`
/// pretty-prints it. TELCO_BENCH_REPORT_DIR overrides the directory.
/// `timings` and `quality` may be null. Failures are reported to stderr,
/// never fatal: report-writing must not fail a bench.
void WriteBenchReport(const std::string& name, const World& world,
                      const StageTimings* timings,
                      const RunQuality* quality);

}  // namespace bench
}  // namespace telco

#endif  // TELCO_BENCH_BENCH_COMMON_H_
