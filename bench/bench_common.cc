#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/string_util.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/timer.h"
#include "storage/atomic_file.h"

namespace telco {
namespace bench {

namespace {

constexpr int64_t kIntMax = std::numeric_limits<int>::max();

}  // namespace

int64_t EnvInt(const char* name, int64_t fallback, int64_t lo, int64_t hi) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const Result<int64_t> parsed = ParseInt64(value, lo, hi, name);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    std::exit(2);
  }
  return parsed.ValueOrDie();
}

std::unique_ptr<World> BuildWorld() {
  Logger::InitFromEnv(LogLevel::kWarning);
  auto world = std::make_unique<World>();
  world->config.num_customers = static_cast<size_t>(EnvInt(
      "TELCO_BENCH_CUSTOMERS", 12000, 1, std::numeric_limits<int64_t>::max()));
  world->config.num_months =
      static_cast<int>(EnvInt("TELCO_BENCH_MONTHS", 9, 1, kIntMax));
  world->config.seed = static_cast<uint64_t>(
      EnvInt("TELCO_BENCH_SEED", 2015, std::numeric_limits<int64_t>::min(),
             std::numeric_limits<int64_t>::max()));
  Stopwatch sw;
  world->sim = std::make_unique<TelcoSimulator>(world->config);
  const Status st = world->sim->Run(&world->catalog);
  TELCO_CHECK(st.ok()) << st.ToString();
  std::printf("# world: %zu customers x %d months (seed %llu), "
              "%zu tables / %zu rows, simulated in %.1fs\n",
              world->config.num_customers, world->config.num_months,
              static_cast<unsigned long long>(world->config.seed),
              world->catalog.size(), world->catalog.TotalRows(),
              sw.ElapsedSeconds());
  return world;
}

size_t ScaledU(const World& world, double paper_u) {
  const double scale =
      static_cast<double>(world.config.num_customers) / kPaperPopulation;
  return std::max<size_t>(1, static_cast<size_t>(paper_u * scale + 0.5));
}

PipelineOptions DefaultPipelineOptions() {
  PipelineOptions options;
  const int trees =
      static_cast<int>(EnvInt("TELCO_BENCH_TREES", 120, 1, kIntMax));
  options.model.rf.num_trees = trees;
  options.model.gbdt.num_trees = trees;
  return options;
}

void PrintHeader(const std::string& experiment, const World& world) {
  std::printf("\n=== %s ===\n", experiment.c_str());
  std::printf("# scale: 1 bench customer ~ %.0f paper customers; paper "
              "top-50000 ~ top-%zu here\n",
              kPaperPopulation /
                  static_cast<double>(world.config.num_customers),
              ScaledU(world, 5e4));
}

Result<AveragedMetrics> AverageOverMonths(ChurnPipeline& pipeline,
                                          const std::vector<int>& months,
                                          size_t u) {
  AveragedMetrics avg;
  for (int month : months) {
    TELCO_ASSIGN_OR_RETURN(const RankingMetrics m,
                           pipeline.Evaluate(month, u));
    avg.auc += m.auc;
    avg.pr_auc += m.pr_auc;
    avg.recall_at_u += m.recall_at_u;
    avg.precision_at_u += m.precision_at_u;
    ++avg.runs;
  }
  if (avg.runs == 0) return Status::InvalidArgument("no months evaluated");
  avg.auc /= avg.runs;
  avg.pr_auc /= avg.runs;
  avg.recall_at_u /= avg.runs;
  avg.precision_at_u /= avg.runs;
  return avg;
}

void WriteBenchReport(const std::string& name, const World& world,
                      const StageTimings* timings,
                      const RunQuality* quality) {
  RunReport report;
  report.kind = "bench";
  report.command = name;
  report.AddConfig("customers",
                   StrFormat("%zu", world.config.num_customers));
  report.AddConfig("months", StrFormat("%d", world.config.num_months));
  report.AddConfig("seed", StrFormat("%llu", static_cast<unsigned long long>(
                                                 world.config.seed)));
  if (timings != nullptr) report.SetStages(*timings);
  if (quality != nullptr) report.SetQuality(*quality);
  report.metrics = MetricsRegistry::Global().Snapshot();

  const char* dir = std::getenv("TELCO_BENCH_REPORT_DIR");
  const std::string path = (dir != nullptr && *dir != '\0')
                               ? std::string(dir) + "/BENCH_" + name + ".json"
                               : "BENCH_" + name + ".json";
  const Status st = WriteFileAtomic(path, report.ToJson() + "\n");
  if (!st.ok()) {
    std::fprintf(stderr, "# bench report write failed: %s\n",
                 st.ToString().c_str());
    return;
  }
  std::printf("# report -> %s\n", path.c_str());
}

}  // namespace bench
}  // namespace telco
