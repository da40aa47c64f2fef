// Shared pieces of the benchmark program bench_suite: run configuration,
// the result a workload reports, per-phase accounting of registry deltas
// and trace spans, and the stdio replay both the serve and the batch
// workloads use.
//
// Every workload runs the same shape: set-up a few times (the median is
// `setup_s`), then repeat a unit of measured work for --seconds, then
// check outputs. The PhaseRecorder brackets the last set-up, every unit
// and the check, so each per-layer metric can be reported per unit of
// the phase that exercised the layer.

#ifndef TELCO_PERFBENCH_SUITE_H_
#define TELCO_PERFBENCH_SUITE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/telemetry/json.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/timer.h"
#include "common/telemetry/trace.h"
#include "serve/model_snapshot.h"
#include "storage/catalog.h"

namespace telco {
namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 2015;
  double seconds = 15.0;
  /// --trace 1: trace the last set-up, every other unit and the check,
  /// and print the per-layer metrics instead of the end-to-end ones.
  bool trace = false;
  /// Tiny populations and a single set-up, for smoke runs.
  bool quick = false;
  /// Scratch directory inside the checkout (warehouses, model files).
  std::string work_dir;
  /// perfbench/pins.json: frozen serve rates and pinned batch outputs.
  JsonValue pins;
};

/// \brief Checked integer parse: the whole of `text` must be a decimal
/// integer in [lo, hi]. Trailing garbage, overflow and out-of-range
/// values are InvalidArgument naming `what`.
Result<int64_t> ParseInt(std::string_view text, int64_t lo, int64_t hi,
                         const std::string& what);

/// Peak resident set (VmHWM) and current resident set (VmRSS) in MiB.
double PeakRssMb();
double CurrentRssMb();
/// Resets VmHWM to the current RSS (writes 5 to /proc/self/clear_refs).
void ResetPeakRss();

/// Nearest-rank quantile of an unsorted sample (0 when empty).
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// The median over non-empty windows of each window's q-quantile: a
/// request-latency quantile that one scheduler stall cannot move.
double MedianOfWindows(const std::vector<std::vector<double>>& windows,
                       double q);

/// \brief What a workload measured and checked.
struct Report {
  /// Wall seconds of each set-up.
  std::vector<double> setup_s;
  /// Median latency of the workload's unit of work — a monthly run, a
  /// refit, one request, or one replay pass — and how many were
  /// measured. Tails are printed on the lines before the result; on a
  /// shared box they move too much from run to run to carry a bound.
  double p50_ms = 0.0;
  size_t latency_samples = 0;
  /// Units of work per second at the median unit (customers ranked,
  /// frames scored), or TCP responses per second in the closed loop.
  double throughput = 0.0;
  /// Peak RSS of each measured unit (or of the whole measured phase).
  std::vector<double> peak_rss_mb;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Correctness failures; any entry fails the run.
  std::vector<std::string> errors;

  void Fail(std::string message) { errors.push_back(std::move(message)); }
};

enum class Phase : int { kSetup = 0, kUnit = 1, kCheck = 2 };

/// \brief Brackets phases of a run. For each phase kind it sums the
/// MetricsRegistry deltas, the values the workload measures from outside
/// (Add), and — for traced phases — the self time of every module's
/// spans.
class PhaseRecorder {
 public:
  explicit PhaseRecorder(bool trace) : trace_(trace) {}

  PhaseRecorder(const PhaseRecorder&) = delete;
  PhaseRecorder& operator=(const PhaseRecorder&) = delete;

  /// True when the next unit should be traced: a traced run alternates
  /// untraced and traced units so it can report its own overhead.
  bool TraceNextUnit() const { return trace_ && units_begun_ % 2 == 1; }

  /// Opens a phase on the calling thread: snapshots the registry and,
  /// when `traced`, records spans under a `bench.<phase>` root span.
  void Begin(Phase phase, bool traced);
  /// Closes the open phase; returns its wall seconds (bookkeeping
  /// excluded).
  double End();

  /// Adds a value measured from outside to the open phase.
  void Add(const std::string& name, double value);
  /// Adds the pipeline's stage timings as churn.<stage>_s.
  void AddStages(const StageTimings& timings);

  /// Every per-layer metric as (name, unit, value): per unit when the
  /// measured units exercised the layer, else per set-up, else from the
  /// check.
  struct LayerValue {
    std::string name;
    std::string unit;
    double value = 0.0;
  };
  std::vector<LayerValue> LayerMetrics() const;

  /// Median traced unit wall / median untraced unit wall - 1, leaving
  /// out the cold first unit; nullopt without both kinds of unit.
  std::optional<double> TraceOverhead() const;

  /// Share of the traced units' wall that the modules' spans account for
  /// (1 - bench self time / wall); nullopt without a traced unit.
  std::optional<double> AttributedShare() const;

  /// Writes every traced phase as one Chrome trace-event document.
  Status ExportTrace(const std::string& path) const;

  /// Sums over the phases of one kind.
  struct Totals {
    int phases = 0;
    int traced = 0;
    std::map<std::string, double> values;
    std::map<std::string, HistogramSnapshot> histograms;
    std::map<std::string, double> self_s;  // module -> seconds (traced)
  };

 private:
  struct Segment {
    double offset_us = 0.0;  // start relative to the first segment
    std::vector<TraceEvent> events;
  };

  bool trace_;
  int units_begun_ = 0;
  Totals totals_[3];
  std::vector<Segment> segments_;
  std::vector<std::pair<bool, double>> unit_walls_;  // (traced, seconds)
  std::optional<std::chrono::steady_clock::time_point> first_segment_;

  // The open phase.
  Phase phase_ = Phase::kSetup;
  bool traced_ = false;
  MetricsSnapshot before_;
  std::chrono::steady_clock::time_point segment_start_{};
  std::optional<TraceSpan> root_span_;
  Stopwatch watch_;
};

/// \brief A stream of score frames for the stdio server. Frame k scores
/// row order[k]; `tails[row]` is the frame text after `{"id":<k>`.
struct ReplayStream {
  std::vector<std::string> tails;
  std::vector<uint32_t> order;
  /// Expected score of each row before and after the swap frame.
  std::vector<double> expected_before;
  std::vector<double> expected_after;
  /// A swap frame to `swap_path` goes before frame `swap_at`
  /// (order.size() = no swap).
  size_t swap_at = 0;
  std::string swap_path;
};

struct ReplayResult {
  double wall_s = 0.0;
  /// Per frame: response read minus the frame's write into the pipe.
  std::vector<double> latencies_ms;
  uint64_t failed = 0;
};

/// Pushes `stream` through StdioScoringServer::Run over in-process pipes,
/// starting from `first` as snapshot v1. Checks that responses come back
/// in request order, that every score is bit-identical to the expected
/// score of the snapshot version that produced it, and that the swap
/// takes effect; violations go to `report`.
Result<ReplayResult> ReplayStdio(const ReplayStream& stream,
                                 std::shared_ptr<const ModelSnapshot> first,
                                 uint64_t trace_sample, Report* report);

/// Streams a simulated warehouse of `months` months at `scale_factor`
/// (seeded by the run) into `dir`, replacing it; records datagen.s,
/// datagen.rows and storage.warehouse_bytes.
Status GenerateWarehouse(const RunConfig& config, double scale_factor,
                         int months, const std::string& dir,
                         PhaseRecorder* phases);

/// LoadWarehouse under a `storage.load` span; records storage.load_s and
/// storage.load_rss_mb.
Status LoadWarehouseTimed(const std::string& dir, Catalog* catalog,
                          PhaseRecorder* phases);

/// `FormatScoreRequest` output for (imsi, features, model) with the
/// leading `{"id":0` cut off, so a frame is `{"id":<k>` + tail + "\n".
std::string FrameTail(int64_t imsi, std::span<const double> features,
                      const std::string& model);

/// Workload entry points.
Status RunBatchMonth(const RunConfig& config, PhaseRecorder* phases,
                     Report* report);
Status RunModelRefit(const RunConfig& config, PhaseRecorder* phases,
                     Report* report);
Status RunServeTcpOpen(const RunConfig& config, PhaseRecorder* phases,
                       Report* report);
Status RunServeStdioReplay(const RunConfig& config, PhaseRecorder* phases,
                           Report* report);

}  // namespace perfbench
}  // namespace telco

#endif  // TELCO_PERFBENCH_SUITE_H_
