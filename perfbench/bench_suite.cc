// bench_suite: runs one benchmark workload and prints its metrics.
//
//   bench_suite --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--quick] [--pins <pins.json>]
//
// The last line of standard output is one JSON object: `correct`,
// `attempted`, `failed` and `metrics` — the end-to-end metrics, or with
// --trace 1 the per-layer metrics (README.md lists both). Lines before
// it, starting with '#', describe the run. A failed correctness check
// exits 1 after printing the result; a run that cannot complete exits 1
// without one. Scratch files go to .bench_work under the working
// directory. perfbench/run.py builds this binary and runs it.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <tuple>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "suite.h"

namespace telco {
namespace perfbench {
namespace {

constexpr const char* kUsage =
    "usage: bench_suite --workload <batch_month|model_refit|serve_tcp_open|"
    "serve_stdio_replay> --seed <n> --seconds <s> --trace <0|1> [--quick] "
    "[--pins <file>]";

using WorkloadFn = Status (*)(const RunConfig&, PhaseRecorder*, Report*);

/// The workload called `name`, or null.
WorkloadFn FindWorkload(const std::string& name) {
  static const std::pair<const char*, WorkloadFn> kWorkloads[] = {
      {"batch_month", RunBatchMonth},
      {"model_refit", RunModelRefit},
      {"serve_tcp_open", RunServeTcpOpen},
      {"serve_stdio_replay", RunServeStdioReplay},
  };
  for (const auto& [known, fn] : kWorkloads) {
    if (name == known) return fn;
  }
  return nullptr;
}

Result<RunConfig> ParseArgs(int argc, char** argv) {
  RunConfig config;
  std::string pins_path = "perfbench/pins.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      config.quick = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument(arg + " expects a value");
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      TELCO_ASSIGN_OR_RETURN(
          const int64_t seed,
          ParseInt(value, 0, std::numeric_limits<int64_t>::max(), "--seed"));
      config.seed = static_cast<uint64_t>(seed);
    } else if (arg == "--seconds") {
      TELCO_ASSIGN_OR_RETURN(const int64_t seconds,
                             ParseInt(value, 1, 3600, "--seconds"));
      config.seconds = static_cast<double>(seconds);
    } else if (arg == "--trace") {
      TELCO_ASSIGN_OR_RETURN(const int64_t trace,
                             ParseInt(value, 0, 1, "--trace"));
      config.trace = trace == 1;
    } else if (arg == "--pins") {
      pins_path = value;
    } else {
      return Status::InvalidArgument("unknown flag " + arg);
    }
  }
  if (FindWorkload(config.workload) == nullptr) {
    return Status::InvalidArgument("unknown workload '" + config.workload +
                                   "'");
  }
  std::ifstream pins_file(pins_path);
  if (!pins_file) {
    return Status::IoError("cannot read pins file " + pins_path);
  }
  std::stringstream text;
  text << pins_file.rdbuf();
  TELCO_ASSIGN_OR_RETURN(config.pins, ParseJson(text.str()));
  config.work_dir = StrFormat(".bench_work/%s-%d", config.workload.c_str(),
                              static_cast<int>(getpid()));
  return config;
}

/// One `"name":{"value":v,"unit":"u"}` member.
std::string MetricJson(const std::string& name, double value,
                       const std::string& unit) {
  return "\"" + JsonEscape(name) + "\":{\"value\":" + JsonNumber(value) +
         ",\"unit\":\"" + JsonEscape(unit) + "\"}";
}

/// The per-layer members of a traced run; also prints the tracing
/// overhead and coverage and writes the Chrome trace.
std::vector<std::string> TracedResult(const RunConfig& config,
                                      const PhaseRecorder& phases) {
  std::vector<std::string> members;
  for (const PhaseRecorder::LayerValue& layer : phases.LayerMetrics()) {
    members.push_back(MetricJson(layer.name, layer.value, layer.unit));
  }
  if (const std::optional<double> overhead = phases.TraceOverhead()) {
    std::printf("# tracing overhead on unit wall: %+.2f%%\n",
                *overhead * 100.0);
  }
  if (const std::optional<double> share = phases.AttributedShare()) {
    std::printf("# module self times cover %.1f%% of traced unit wall\n",
                *share * 100.0);
  }
  const std::string path =
      StrFormat(".bench_work/traces/%s-%llu.json", config.workload.c_str(),
                static_cast<unsigned long long>(config.seed));
  std::error_code ec;
  std::filesystem::create_directories(".bench_work/traces", ec);
  const Status exported = phases.ExportTrace(path);
  std::printf("# chrome trace -> %s%s\n", path.c_str(),
              exported.ok() ? "" : " (write failed)");
  return members;
}

int Run(int argc, char** argv) {
  Logger::InitFromEnv(LogLevel::kWarning);
  std::signal(SIGPIPE, SIG_IGN);
  Result<RunConfig> parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s\n", parsed.status().ToString().c_str(),
                 kUsage);
    return 2;
  }
  const RunConfig& config = *parsed;

  // The program's pool: min(nproc, 4) threads, fixed before anything
  // creates the process-wide default pool.
  const unsigned pool_threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  setenv("TELCO_THREADS", std::to_string(pool_threads).c_str(), 1);
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d quick=%d "
              "pool=%zu threads\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, config.quick ? 1 : 0,
              ThreadPool::Default().num_threads());

  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  PhaseRecorder phases(config.trace);
  Report report;
  const Status status =
      FindWorkload(config.workload)(config, &phases, &report);
  std::filesystem::remove_all(config.work_dir, ec);
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", config.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }

  std::vector<std::string> members;
  if (config.trace) {
    members = TracedResult(config, phases);
  } else {
    std::printf("# latency: %zu samples\n", report.latency_samples);
    const std::tuple<const char*, double, const char*> metrics[] = {
        {"setup_s", Median(report.setup_s), "s"},
        {"p50_ms", report.p50_ms, "ms"},
        {"throughput", report.throughput, "1/s"},
        {"peak_rss_mb", Median(report.peak_rss_mb), "MiB"},
    };
    for (const auto& [name, value, unit] : metrics) {
      if (!(value > 0.0) || !std::isfinite(value)) {
        report.Fail(std::string(name) + " was not measured");
      }
      members.push_back(MetricJson(name, value, unit));
    }
  }
  for (const std::string& error : report.errors) {
    std::printf("# CHECK FAILED: %s\n", error.c_str());
  }
  std::string json = StrFormat(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
      report.errors.empty() ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < members.size(); ++i) {
    json += (i > 0 ? "," : "") + members[i];
  }
  std::printf("%s}}\n", json.c_str());
  std::fflush(stdout);
  return report.errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace telco

int main(int argc, char** argv) { return telco::perfbench::Run(argc, argv); }
