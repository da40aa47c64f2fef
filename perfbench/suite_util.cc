#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <unordered_map>

#include "common/string_util.h"
#include "storage/atomic_file.h"
#include "suite.h"

namespace telco {
namespace perfbench {

Result<int64_t> ParseInt(std::string_view text, int64_t lo, int64_t hi,
                         const std::string& what) {
  int64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec == std::errc::invalid_argument || ptr != end) {
    return Status::InvalidArgument(what + " must be an integer, got '" +
                                   std::string(text) + "'");
  }
  if (ec == std::errc::result_out_of_range || value < lo || value > hi) {
    return Status::InvalidArgument(StrFormat(
        "%s must be in [%lld, %lld], got '%s'", what.c_str(),
        static_cast<long long>(lo), static_cast<long long>(hi),
        std::string(text).c_str()));
  }
  return value;
}

namespace {

double StatusFieldMb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const size_t length = std::char_traits<char>::length(field);
  while (std::getline(status, line)) {
    if (line.compare(0, length, field) == 0) {
      return std::strtod(line.c_str() + length, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double PeakRssMb() { return StatusFieldMb("VmHWM:"); }
double CurrentRssMb() { return StatusFieldMb("VmRSS:"); }

void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

double MedianOfWindows(const std::vector<std::vector<double>>& windows,
                       double q) {
  std::vector<double> per_window;
  for (const std::vector<double>& window : windows) {
    if (!window.empty()) per_window.push_back(Quantile(window, q));
  }
  return Median(std::move(per_window));
}

// ------------------------------------------------------------ phases

namespace {

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kSetup:
      return "setup";
    case Phase::kUnit:
      return "unit";
    case Phase::kCheck:
      return "check";
  }
  return "?";
}

/// The layer a span belongs to, from its name: `warehouse.*` is storage,
/// pipeline stages and checkpoints are churn, everything else is the
/// prefix before the first '.' or ':'.
std::string ModuleOf(const std::string& name) {
  const std::string prefix = name.substr(0, name.find_first_of(".:"));
  if (prefix == "warehouse") return "storage";
  if (prefix == "pipeline" || prefix == "checkpoint" ||
      prefix == "features_train" || prefix == "features_test" ||
      prefix == "train" || prefix == "score") {
    return "churn";
  }
  return prefix;
}

/// Adds each span's self time (its duration minus the union of its
/// children's intervals) to its module; the pipeline's feature stages'
/// own self time is also the dataset-packing time `ml.pack`.
void AddSelfTimes(const std::vector<TraceEvent>& events,
                  std::map<std::string, double>* self_s) {
  std::unordered_map<uint64_t, std::vector<const TraceEvent*>> children;
  for (const TraceEvent& event : events) {
    if (event.parent_id != 0) children[event.parent_id].push_back(&event);
  }
  for (const TraceEvent& event : events) {
    const double begin = event.begin_us;
    const double end = event.begin_us + event.duration_us;
    std::vector<std::pair<double, double>> spans;
    if (const auto it = children.find(event.id); it != children.end()) {
      for (const TraceEvent* child : it->second) {
        const double lo = std::max(begin, child->begin_us);
        const double hi =
            std::min(end, child->begin_us + child->duration_us);
        if (hi > lo) spans.emplace_back(lo, hi);
      }
    }
    std::sort(spans.begin(), spans.end());
    double covered = 0.0;
    double reach = begin;
    for (const auto& [lo, hi] : spans) {
      if (hi <= reach) continue;
      covered += hi - std::max(lo, reach);
      reach = hi;
    }
    const double self = std::max(0.0, event.duration_us - covered) / 1e6;
    (*self_s)[ModuleOf(event.name)] += self;
    if (event.name == "features_train" || event.name == "features_test") {
      (*self_s)["ml.pack"] += self;
    }
  }
}

/// Bucket-wise after - before of one histogram.
void AddHistogramDelta(const HistogramSnapshot& after,
                       const HistogramSnapshot* before,
                       HistogramSnapshot* total) {
  if (total->buckets.empty()) {
    total->bounds = after.bounds;
    total->buckets.assign(after.buckets.size(), 0);
    total->min = after.min;
  }
  for (size_t i = 0; i < after.buckets.size(); ++i) {
    const uint64_t prior = before != nullptr ? before->buckets[i] : 0;
    total->buckets[i] += after.buckets[i] - prior;
  }
  total->count += after.count - (before != nullptr ? before->count : 0);
  total->sum += after.sum - (before != nullptr ? before->sum : 0.0);
  total->min = std::min(total->min, after.min);
  total->max = std::max(total->max, after.max);
}

void AddDeltas(const MetricsSnapshot& before, const MetricsSnapshot& after,
               PhaseRecorder::Totals* totals) {
  std::unordered_map<std::string, const MetricValue*> prior;
  for (const MetricValue& metric : before.metrics) {
    prior[metric.name] = &metric;
  }
  for (const MetricValue& metric : after.metrics) {
    const auto it = prior.find(metric.name);
    const MetricValue* was = it != prior.end() ? it->second : nullptr;
    switch (metric.kind) {
      case MetricKind::kCounter:
        totals->values[metric.name] += static_cast<double>(
            metric.counter - (was != nullptr ? was->counter : 0));
        break;
      case MetricKind::kHistogram:
      case MetricKind::kLogHistogram: {
        const HistogramSnapshot* old =
            was != nullptr ? &was->histogram : nullptr;
        const uint64_t count =
            metric.histogram.count - (old != nullptr ? old->count : 0);
        if (count == 0) break;
        totals->values[metric.name + ".count"] += static_cast<double>(count);
        totals->values[metric.name + ".sum"] +=
            metric.histogram.sum - (old != nullptr ? old->sum : 0.0);
        AddHistogramDelta(metric.histogram, old,
                          &totals->histograms[metric.name]);
        break;
      }
      case MetricKind::kGauge:
        break;
    }
  }
}

}  // namespace

void PhaseRecorder::Begin(Phase phase, bool traced) {
  phase_ = phase;
  traced_ = traced && trace_;
  if (phase == Phase::kUnit) ++units_begun_;
  before_ = MetricsRegistry::Global().Snapshot();
  if (traced_) {
    segment_start_ = std::chrono::steady_clock::now();
    if (!first_segment_) first_segment_ = segment_start_;
    TraceRecorder::Global().Start();
    root_span_.emplace(std::string("bench.") + PhaseName(phase));
  }
  watch_.Reset();
}

double PhaseRecorder::End() {
  const double wall = watch_.ElapsedSeconds();
  Totals& totals = totals_[static_cast<int>(phase_)];
  ++totals.phases;
  if (traced_) {
    root_span_.reset();  // records the root span before recording stops
    TraceRecorder::Global().Stop();
    Segment segment;
    segment.offset_us = std::chrono::duration<double, std::micro>(
                            segment_start_ - *first_segment_)
                            .count();
    segment.events = TraceRecorder::Global().Collect();
    AddSelfTimes(segment.events, &totals.self_s);
    ++totals.traced;
    segments_.push_back(std::move(segment));
  }
  if (phase_ == Phase::kUnit) unit_walls_.emplace_back(traced_, wall);
  AddDeltas(before_, MetricsRegistry::Global().Snapshot(), &totals);
  return wall;
}

void PhaseRecorder::Add(const std::string& name, double value) {
  totals_[static_cast<int>(phase_)].values[name] += value;
}

void PhaseRecorder::AddStages(const StageTimings& timings) {
  for (const StageEntry& stage : timings.stages()) {
    Add("churn." + stage.name + "_s", stage.wall_seconds);
  }
}

std::optional<double> PhaseRecorder::TraceOverhead() const {
  std::vector<double> traced;
  std::vector<double> untraced;
  for (size_t i = 1; i < unit_walls_.size(); ++i) {
    (unit_walls_[i].first ? traced : untraced)
        .push_back(unit_walls_[i].second);
  }
  if (traced.empty() || untraced.empty()) return std::nullopt;
  return Median(traced) / Median(untraced) - 1.0;
}

std::optional<double> PhaseRecorder::AttributedShare() const {
  double traced_wall = 0.0;
  for (const auto& [is_traced, wall] : unit_walls_) {
    if (is_traced) traced_wall += wall;
  }
  const Totals& units = totals_[static_cast<int>(Phase::kUnit)];
  const auto bench = units.self_s.find("bench");
  if (traced_wall <= 0.0 || bench == units.self_s.end()) return std::nullopt;
  return 1.0 - bench->second / traced_wall;
}

namespace {

using Totals = PhaseRecorder::Totals;

double Value(const Totals& t, const std::string& key) {
  const auto it = t.values.find(key);
  return it != t.values.end() ? it->second : 0.0;
}

double Per(const Totals& t, const std::string& key) {
  return t.phases > 0 ? Value(t, key) / t.phases : 0.0;
}

double SelfPer(const Totals& t, const std::string& module) {
  const auto it = t.self_s.find(module);
  return t.traced > 0 && it != t.self_s.end() ? it->second / t.traced : 0.0;
}

double QuantileMs(const Totals& t, const std::string& histogram, double q) {
  const auto it = t.histograms.find(histogram);
  return it != t.histograms.end() ? it->second.Quantile(q) * 1e3 : 0.0;
}

struct LayerDef {
  std::string name;
  std::string unit;
  std::function<double(const Totals&)> value;
};

std::vector<LayerDef> LayerDefs() {
  std::vector<LayerDef> defs = {
      {"datagen.rows_per_s", "rows/s",
       [](const Totals& t) {
         const double s = Value(t, "datagen.s");
         return s > 0.0 ? Value(t, "datagen.rows") / s : 0.0;
       }},
      {"storage.bytes_per_row", "bytes",
       [](const Totals& t) {
         const double rows = Value(t, "datagen.rows");
         return rows > 0.0 ? Value(t, "storage.warehouse_bytes") / rows
                           : 0.0;
       }},
      {"storage.load_s", "s",
       [](const Totals& t) { return Per(t, "storage.load_s"); }},
      {"storage.load_rss_mb", "MiB",
       [](const Totals& t) { return Per(t, "storage.load_rss_mb"); }},
      {"storage.bytes_read", "bytes",
       [](const Totals& t) {
         return Per(t, "storage.warehouse.bytes_read");
       }},
      {"storage.scan.chunks_scanned", "count",
       [](const Totals& t) {
         return Per(t, "storage.scan.chunks_scanned");
       }},
      {"storage.scan.chunks_pruned", "count",
       [](const Totals& t) { return Per(t, "storage.scan.chunks_pruned"); }},
  };
  for (const char* stage :
       {"features_train", "train", "features_test", "score"}) {
    const std::string key = StrFormat("churn.%s_s", stage);
    defs.push_back({key, "s", [key](const Totals& t) { return Per(t, key); }});
  }
  for (int f = 1; f <= 9; ++f) {
    const std::string key = StrFormat("features.F%d.build_seconds.sum", f);
    defs.push_back({StrFormat("features.F%d_s", f), "s",
                    [key](const Totals& t) { return Per(t, key); }});
  }
  const auto sum_of = [](std::string name, std::string unit,
                         std::string key) {
    return LayerDef{std::move(name), std::move(unit),
                    [key](const Totals& t) { return Per(t, key); }};
  };
  defs.push_back(sum_of("graph.pagerank.sweep_s", "s",
                        "graph.pagerank.sweep_seconds.sum"));
  defs.push_back(sum_of("graph.pagerank.iterations", "count",
                        "graph.pagerank.iterations"));
  defs.push_back(sum_of("graph.label_propagation.sweep_s", "s",
                        "graph.label_propagation.sweep_seconds.sum"));
  defs.push_back(sum_of("graph.label_propagation.iterations", "count",
                        "graph.label_propagation.iterations"));
  defs.push_back(
      sum_of("text.lda.epoch_s", "s", "text.lda.epoch_seconds.sum"));
  defs.push_back(sum_of("text.lda.epochs", "count", "text.lda.epochs"));
  defs.push_back({"ml.pack_s", "s",
                  [](const Totals& t) { return SelfPer(t, "ml.pack"); }});
  defs.push_back(
      sum_of("ml.rf.tree_fit_s", "s", "ml.rf.tree_fit_seconds.sum"));
  defs.push_back(sum_of("ml.rf.nodes", "count", "ml.rf.nodes"));
  defs.push_back(sum_of("ml.binned_forest.compile_s", "s",
                        "ml.binned_forest.compile_seconds.sum"));
  for (const char* stage : {"parse", "queue_wait", "score", "write", "total"}) {
    const std::string histogram =
        StrFormat("serve.request.%s_seconds", stage);
    for (const auto& [label, q] : {std::pair{"p50", 0.5}, {"p99", 0.99}}) {
      defs.push_back({StrFormat("serve.%s_ms.%s", stage, label), "ms",
                      [histogram, q = q](const Totals& t) {
                        return QuantileMs(t, histogram, q);
                      }});
    }
  }
  defs.push_back({"serve.batch_size.mean", "rows", [](const Totals& t) {
                    const double n =
                        Value(t, "serve.executor.batch_size.count");
                    return n > 0.0
                               ? Value(t, "serve.executor.batch_size.sum") / n
                               : 0.0;
                  }});
  defs.push_back(sum_of("serve.executor.rejected", "count",
                        "serve.executor.rejected"));
  defs.push_back(sum_of("serve.tcp.shed", "count", "serve.tcp.shed"));
  for (const char* module : {"bench", "datagen", "storage", "features",
                             "graph", "text", "ml", "churn", "serve"}) {
    const std::string key = module;
    defs.push_back({key + ".self_s", "s",
                    [key](const Totals& t) { return SelfPer(t, key); }});
  }
  return defs;
}

}  // namespace

std::vector<PhaseRecorder::LayerValue> PhaseRecorder::LayerMetrics() const {
  std::vector<LayerValue> out;
  for (const LayerDef& def : LayerDefs()) {
    double value = 0.0;
    for (const Phase phase : {Phase::kUnit, Phase::kSetup, Phase::kCheck}) {
      value = def.value(totals_[static_cast<int>(phase)]);
      if (value != 0.0) break;
    }
    out.push_back({def.name, def.unit, value});
  }
  return out;
}

Status PhaseRecorder::ExportTrace(const std::string& path) const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Segment& segment : segments_) {
    for (const TraceEvent& event : segment.events) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "{\"name\":\"" + JsonEscape(event.name) + "\"";
      out += ",\"cat\":\"telco\",\"ph\":\"X\"";
      out += ",\"ts\":" + JsonNumber(segment.offset_us + event.begin_us);
      out += ",\"dur\":" + JsonNumber(event.duration_us);
      out += ",\"pid\":1,\"tid\":" +
             JsonNumber(static_cast<double>(event.tid));
      out += ",\"args\":{\"id\":" +
             JsonNumber(static_cast<double>(event.id));
      out += ",\"parent\":" +
             JsonNumber(static_cast<double>(event.parent_id)) + "}}";
    }
  }
  out += "\n]}\n";
  return WriteFileAtomic(path, out);
}

}  // namespace perfbench
}  // namespace telco
