// Scale-factor bench: how the streaming datagen -> warehouse -> train
// path behaves as the population grows toward the paper's ~2.1M
// customers (SF 1.0).
//
// For each requested scale factor the bench forks one child per phase
// so every phase's peak RSS (VmHWM from /proc/self/status) is measured
// in isolation:
//
//   gen       TelcoSimulator::Run(StreamingWarehouseSink*) straight to
//             disk — rows/s and peak RSS. The streamed path holds only
//             the population and O(chunk) of table data, so this RSS
//             must stay far below the on-disk warehouse size; pass
//             --assert-rss-mb to turn that into a hard failure.
//   pipeline  LoadWarehouse + ChurnPipeline::TrainOnly — warehouse load
//             wall, feature-build wall, fit wall, peak RSS. (This phase
//             *does* materialise the warehouse; it is reported, not
//             asserted.)
//
// Results land in BENCH_scale.json (RunReport kind "bench", config keys
// like `sf0.1.gen_rows_per_sec`); bench_check.sh gates the SF 0.1 gen
// throughput against bench/baselines/.
//
// Flags:
//   --sf 0.1,0.5,1.0    comma list of scale factors   (default 0.1)
//   --months N          simulated months              (default 3)
//   --trees N           forest size for the fit phase (default 30)
//   --seed N            simulator seed                (default 2015)
//   --gen-only          skip the pipeline phase
//   --assert-rss-mb N   fail if any gen phase's peak RSS exceeds N MiB
//
// The parent never starts a thread pool: children are forked first and
// create their own pools, so fork() never strands pool workers.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "churn/pipeline.h"
#include "common/logging.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/telemetry/run_report.h"
#include "common/telemetry/timer.h"
#include "datagen/telco_simulator.h"
#include "storage/atomic_file.h"
#include "storage/streaming_writer.h"
#include "storage/warehouse_io.h"

namespace telco {
namespace bench {
namespace {

struct ScaleBenchOptions {
  std::vector<double> scale_factors;
  int months = 3;
  int trees = 30;
  uint64_t seed = 2015;
  bool gen_only = false;
  double assert_rss_mb = 0.0;  // 0 = no assertion
};

/// Peak resident set of this process in MiB (VmHWM), 0.0 if unreadable.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

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

/// One key=value result line from a phase child to the parent.
void EmitResult(std::FILE* out, const std::string& key, double value) {
  std::fprintf(out, "%s=%.6f\n", key.c_str(), value);
}

/// gen phase (runs in a forked child): stream the simulated warehouse
/// to `dir` and report row counts, wall time and peak RSS.
int RunGenPhase(const ScaleBenchOptions& options, double sf,
                const std::string& dir, std::FILE* out) {
  SimConfig config;
  config.scale_factor = sf;
  config.num_months = options.months;
  config.seed = options.seed;

  TelcoSimulator simulator(config);
  simulator.set_record_truth(false);
  StreamingWarehouseSink sink(dir);
  Stopwatch watch;
  const Status st = simulator.Run(&sink);
  if (!st.ok()) {
    std::fprintf(stderr, "# gen failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const double wall = watch.ElapsedSeconds();
  const double rows = static_cast<double>(sink.rows_written());
  EmitResult(out, "gen_rows", rows);
  EmitResult(out, "gen_wall_s", wall);
  EmitResult(out, "gen_rows_per_sec", wall > 0.0 ? rows / wall : 0.0);
  EmitResult(out, "gen_peak_rss_mb", PeakRssMb());
  EmitResult(out, "warehouse_mb", DirBytes(dir) / (1024.0 * 1024.0));
  return 0;
}

/// pipeline phase (runs in a forked child): load the streamed warehouse
/// back and train one monthly model, reporting the stage walls.
int RunPipelinePhase(const ScaleBenchOptions& options,
                     const std::string& dir, std::FILE* out) {
  Catalog catalog;
  Stopwatch load_watch;
  const Status loaded = LoadWarehouse(dir, &catalog);
  if (!loaded.ok()) {
    std::fprintf(stderr, "# load failed: %s\n", loaded.ToString().c_str());
    return 1;
  }
  EmitResult(out, "load_wall_s", load_watch.ElapsedSeconds());

  PipelineOptions pipeline_options;
  pipeline_options.model.rf.num_trees = options.trees;
  pipeline_options.training_months = 1;
  ChurnPipeline pipeline(&catalog, pipeline_options);
  const Status trained = pipeline.TrainOnly(options.months - 1);
  if (!trained.ok()) {
    std::fprintf(stderr, "# train failed: %s\n", trained.ToString().c_str());
    return 1;
  }
  for (const StageEntry& stage : pipeline.timings().stages()) {
    if (stage.name == "features_train") {
      EmitResult(out, "feature_wall_s", stage.wall_seconds);
    } else if (stage.name == "train") {
      EmitResult(out, "fit_wall_s", stage.wall_seconds);
    }
  }
  EmitResult(out, "pipeline_peak_rss_mb", PeakRssMb());
  return 0;
}

/// Forks `phase`, collects its key=value lines, and merges them into
/// `results`. Returns false if the child failed.
bool RunPhaseInChild(const std::function<int(std::FILE*)>& phase,
                     std::map<std::string, double>* results) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("pipe");
    return false;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    std::FILE* out = fdopen(fds[1], "w");
    const int rc = (out != nullptr) ? phase(out) : 1;
    if (out != nullptr) std::fclose(out);
    // _exit: never run parent-side atexit handlers in the child.
    _exit(rc);
  }
  close(fds[1]);
  std::FILE* in = fdopen(fds[0], "r");
  char line[256];
  while (in != nullptr && std::fgets(line, sizeof(line), in) != nullptr) {
    const char* eq = std::strchr(line, '=');
    if (eq == nullptr) continue;
    (*results)[std::string(line, eq - line)] = std::strtod(eq + 1, nullptr);
  }
  if (in != nullptr) std::fclose(in);
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

Result<ScaleBenchOptions> ParseArgs(int argc, char** argv) {
  ScaleBenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> Result<std::string> {
      if (i + 1 >= argc) {
        return Status::InvalidArgument(arg + " expects a value");
      }
      return std::string(argv[++i]);
    };
    if (arg == "--sf") {
      TELCO_ASSIGN_OR_RETURN(const std::string list, next());
      std::stringstream stream(list);
      std::string item;
      while (std::getline(stream, item, ',')) {
        TELCO_ASSIGN_OR_RETURN(const double sf,
                               ParseDouble(item, 1e-4, 100.0, arg));
        options.scale_factors.push_back(sf);
      }
    } else if (arg == "--months") {
      // At least 2: the pipeline trains on a month labelled by the next.
      TELCO_ASSIGN_OR_RETURN(const std::string v, next());
      TELCO_ASSIGN_OR_RETURN(
          options.months,
          ParseInt64(v, 2, std::numeric_limits<int>::max(), arg));
    } else if (arg == "--trees") {
      TELCO_ASSIGN_OR_RETURN(const std::string v, next());
      TELCO_ASSIGN_OR_RETURN(
          options.trees,
          ParseInt64(v, 1, std::numeric_limits<int>::max(), arg));
    } else if (arg == "--seed") {
      TELCO_ASSIGN_OR_RETURN(const std::string v, next());
      TELCO_ASSIGN_OR_RETURN(
          options.seed,
          ParseInt64(v, 0, std::numeric_limits<int64_t>::max(), arg));
    } else if (arg == "--gen-only") {
      options.gen_only = true;
    } else if (arg == "--assert-rss-mb") {
      TELCO_ASSIGN_OR_RETURN(const std::string v, next());
      TELCO_ASSIGN_OR_RETURN(options.assert_rss_mb,
                             ParseDouble(v, 1.0, 1e9, arg));
    } else {
      return Status::InvalidArgument("unknown flag " + arg);
    }
  }
  if (options.scale_factors.empty()) options.scale_factors.push_back(0.1);
  return options;
}

int Run(int argc, char** argv) {
  Logger::InitFromEnv(LogLevel::kWarning);
  const Result<ScaleBenchOptions> parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const ScaleBenchOptions& options = *parsed;

  RunReport report;
  report.kind = "bench";
  report.command = "scale";
  report.AddConfig("months", StrFormat("%d", options.months));
  report.AddConfig("trees", StrFormat("%d", options.trees));
  report.AddConfig("seed", StrFormat("%llu",
                                     static_cast<unsigned long long>(
                                         options.seed)));

  const std::string base =
      std::filesystem::temp_directory_path().string() +
      StrFormat("/telco_bench_scale_%d", static_cast<int>(getpid()));
  bool failed = false;
  for (const double sf : options.scale_factors) {
    const std::string tag = StrFormat("sf%g", sf);
    const std::string dir = base + "_" + tag;
    std::filesystem::remove_all(dir);
    std::printf("=== %s (%zu customers x %d months) ===\n", tag.c_str(),
                static_cast<size_t>(sf * 2.1e6 + 0.5), options.months);

    std::map<std::string, double> results;
    if (!RunPhaseInChild(
            [&](std::FILE* out) {
              return RunGenPhase(options, sf, dir, out);
            },
            &results)) {
      std::fprintf(stderr, "# %s: gen phase failed\n", tag.c_str());
      failed = true;
      std::filesystem::remove_all(dir);
      continue;
    }
    std::printf("  gen: %.0f rows in %.1fs (%.0f rows/s), peak RSS "
                "%.0f MiB, warehouse %.0f MiB\n",
                results["gen_rows"], results["gen_wall_s"],
                results["gen_rows_per_sec"], results["gen_peak_rss_mb"],
                results["warehouse_mb"]);
    if (options.assert_rss_mb > 0.0 &&
        results["gen_peak_rss_mb"] > options.assert_rss_mb) {
      std::fprintf(stderr,
                   "# %s: gen peak RSS %.0f MiB exceeds ceiling %.0f MiB "
                   "(streaming path must stay O(chunk), not O(table))\n",
                   tag.c_str(), results["gen_peak_rss_mb"],
                   options.assert_rss_mb);
      failed = true;
    }

    if (!options.gen_only && !failed) {
      if (!RunPhaseInChild(
              [&](std::FILE* out) {
                return RunPipelinePhase(options, dir, out);
              },
              &results)) {
        std::fprintf(stderr, "# %s: pipeline phase failed\n", tag.c_str());
        failed = true;
      } else {
        std::printf("  pipeline: load %.1fs, features %.1fs, fit %.1fs, "
                    "peak RSS %.0f MiB\n",
                    results["load_wall_s"], results["feature_wall_s"],
                    results["fit_wall_s"], results["pipeline_peak_rss_mb"]);
      }
    }
    std::filesystem::remove_all(dir);
    for (const auto& [key, value] : results) {
      report.AddConfig(tag + "." + key, StrFormat("%.6f", value));
    }
  }

  const char* report_dir = std::getenv("TELCO_BENCH_REPORT_DIR");
  const std::string path =
      (report_dir != nullptr && *report_dir != '\0')
          ? std::string(report_dir) + "/BENCH_scale.json"
          : "BENCH_scale.json";
  const Status wrote = WriteFileAtomic(path, report.ToJson() + "\n");
  if (!wrote.ok()) {
    std::fprintf(stderr, "# bench report write failed: %s\n",
                 wrote.ToString().c_str());
    return 1;
  }
  std::printf("# report -> %s\n", path.c_str());
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace bench
}  // namespace telco

int main(int argc, char** argv) { return telco::bench::Run(argc, argv); }
