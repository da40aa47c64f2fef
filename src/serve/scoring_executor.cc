#include "serve/scoring_executor.h"

#include <chrono>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/trace.h"
#include "common/thread_pool.h"

namespace telco {

namespace {

struct ExecutorMetrics {
  Counter requests;
  Counter rejected;
  Counter batches;
  Histogram batch_size;
  Histogram latency_seconds;
  Gauge queue_depth;
  // Per-stage request timing (DESIGN.md §13); log-bucketed so the tails
  // (p99/p999) interpolate within ~6%-wide buckets instead of decades.
  Histogram queue_wait_seconds;
  Histogram score_seconds;
};

const ExecutorMetrics& Metrics() {
  static const ExecutorMetrics* const m = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    static const std::vector<double> kBatchBounds{1,  2,  4,   8,   16,
                                                  32, 64, 128, 256, 512};
    return new ExecutorMetrics{
        r.GetCounter("serve.executor.requests"),
        r.GetCounter("serve.executor.rejected"),
        r.GetCounter("serve.executor.batches"),
        r.GetHistogram("serve.executor.batch_size", kBatchBounds),
        r.GetLogHistogram("serve.executor.latency_seconds"),
        r.GetGauge("serve.executor.queue_depth"),
        r.GetLogHistogram("serve.request.queue_wait_seconds"),
        r.GetLogHistogram("serve.request.score_seconds"),
    };
  }();
  return *m;
}

}  // namespace

ScoringExecutor::ScoringExecutor(SnapshotRegistry* registry,
                                 ScoringExecutorOptions options)
    : registry_(registry), options_(options) {
  TELCO_CHECK(registry_ != nullptr);
  if (options_.max_batch_size == 0) options_.max_batch_size = 1;
  if (options_.max_queue_depth == 0) options_.max_queue_depth = 1;
  if (options_.pool == nullptr) options_.pool = &ThreadPool::Default();
  if (!options_.route_name.empty()) {
    route_latency_ = MetricsRegistry::Global().GetLogHistogram(
        "serve.route." + options_.route_name + ".latency_seconds");
  }
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

ScoringExecutor::~ScoringExecutor() { Shutdown(); }

Result<std::future<ScoreOutcome>> ScoringExecutor::Submit(
    ScoreRequest request, RequestTelemetry telemetry) {
  // No schema validation here: checking the row width against the
  // *current* snapshot would race with a concurrent hot swap (the batch
  // may score against a different snapshot than Submit saw). The
  // authoritative width check happens at batch dispatch, against the
  // snapshot the batch actually acquired; a mismatch fails that
  // request's outcome, never the whole batch.
  Pending pending;
  pending.request = std::move(request);
  pending.enqueued = std::chrono::steady_clock::now();
  pending.telemetry = telemetry;
  std::future<ScoreOutcome> future = pending.promise.get_future();
  TELCO_RETURN_NOT_OK(Enqueue(std::move(pending)));
  return future;
}

Status ScoringExecutor::SubmitWithCallback(
    ScoreRequest request, std::function<void(ScoreOutcome)> done,
    RequestTelemetry telemetry) {
  TELCO_CHECK(done != nullptr);
  Pending pending;
  pending.request = std::move(request);
  pending.callback = std::move(done);
  pending.enqueued = std::chrono::steady_clock::now();
  pending.telemetry = telemetry;
  return Enqueue(std::move(pending));
}

Status ScoringExecutor::Enqueue(Pending pending) {
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) {
      return Status::Internal("executor is shut down");
    }
    if (queue_.size() >= options_.max_queue_depth) {
      Metrics().rejected.Add();
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable(StrFormat(
          "admission queue full (%zu requests); drain a response and retry",
          queue_.size()));
    }
    queue_.push_back(std::move(pending));
    depth = queue_.size();
  }
  Metrics().requests.Add();
  Metrics().queue_depth.Set(static_cast<double>(depth));
  queue_cv_.notify_one();
  return Status::OK();
}

void ScoringExecutor::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && !in_flight_; });
}

void ScoringExecutor::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;
    stop_ = true;
  }
  queue_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

size_t ScoringExecutor::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void ScoringExecutor::DispatchLoop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        // stop_ with an empty queue: everything accepted has completed.
        return;
      }
      const size_t take = std::min(options_.max_batch_size, queue_.size());
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      in_flight_ = true;
    }
    ScoreBatch(std::move(batch));
    {
      std::lock_guard<std::mutex> lock(mutex_);
      in_flight_ = false;
    }
    idle_cv_.notify_all();
  }
}

void ScoringExecutor::ScoreBatch(std::vector<Pending> batch) {
  TraceSpan span(StrFormat("serve.score_batch:%zu", batch.size()));
  // One snapshot per batch: every request in it scores against the same
  // model, whatever a concurrent Publish does.
  const SnapshotRef ref = registry_->Acquire();
  Metrics().batches.Add();
  Metrics().batch_size.Observe(static_cast<double>(batch.size()));

  // Stage attribution: queue_wait ends (and score begins) when the batch
  // starts scoring; both are batch-grained on the score side, which is
  // exact for the batch and within one batch-width per request.
  const auto dispatch_time = std::chrono::steady_clock::now();
  for (const Pending& pending : batch) {
    Metrics().queue_wait_seconds.Observe(
        std::chrono::duration<double>(dispatch_time - pending.enqueued)
            .count());
  }

  const auto finish = [&](Pending& pending, ScoreOutcome outcome) {
    const auto now = std::chrono::steady_clock::now();
    const double latency =
        std::chrono::duration<double>(now - pending.enqueued).count();
    Metrics().latency_seconds.Observe(latency);
    Metrics().score_seconds.Observe(
        std::chrono::duration<double>(now - dispatch_time).count());
    route_latency_.Observe(latency);
    if (pending.telemetry.trace_span != 0) {
      // Reader→executor parent propagation: stage spans hang off the
      // request span the reader thread allocated, reconstructed here
      // retroactively (the steady-clock stamps convert into the
      // recorder's timebase by offsetting from its current reading).
      TraceRecorder& recorder = TraceRecorder::Global();
      const double now_us = recorder.NowMicros();
      const auto micros_ago = [&](std::chrono::steady_clock::time_point t) {
        return now_us -
               std::chrono::duration<double, std::micro>(now - t).count();
      };
      const double enqueued_us = micros_ago(pending.enqueued);
      const double dispatch_us = micros_ago(dispatch_time);
      recorder.AppendCompleted("serve.request.queue_wait", 0,
                               pending.telemetry.trace_span, enqueued_us,
                               dispatch_us);
      recorder.AppendCompleted("serve.request.score", 0,
                               pending.telemetry.trace_span, dispatch_us,
                               now_us);
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
    if (pending.callback) {
      pending.callback(std::move(outcome));
    } else {
      pending.promise.set_value(std::move(outcome));
    }
  };

  if (ref.snapshot == nullptr) {
    for (Pending& pending : batch) {
      finish(pending,
             ScoreOutcome{Status::InvalidArgument(
                              "no model snapshot published; publish one "
                              "before scoring"),
                          0.0, 0, 0});
    }
    return;
  }

  // The authoritative schema check: rows whose width matches the batch
  // snapshot are packed into one contiguous FeatureMatrix; mismatches
  // (the request was built for a different snapshot than this batch
  // acquired) fail individually without poisoning the batch.
  FeatureMatrixBuffer rows(ref.snapshot->num_features());
  rows.Reserve(batch.size());
  std::vector<size_t> row_of_pending(batch.size(), SIZE_MAX);
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].request.features.size() == ref.snapshot->num_features()) {
      row_of_pending[i] = rows.num_rows();
      rows.AddRow(batch[i].request.features);
    }
  }
  const std::vector<double> scores =
      ref.snapshot->ScoreBatch(rows.matrix(), options_.pool);

  for (size_t i = 0; i < batch.size(); ++i) {
    if (row_of_pending[i] == SIZE_MAX) {
      finish(batch[i],
             ScoreOutcome{
                 Status::InvalidArgument(StrFormat(
                     "request %llu has %zu features; snapshot v%llu "
                     "expects %zu",
                     static_cast<unsigned long long>(batch[i].request.id),
                     batch[i].request.features.size(),
                     static_cast<unsigned long long>(ref.version),
                     ref.snapshot->num_features())),
                 0.0, ref.version, ref.snapshot->fingerprint()});
      continue;
    }
    finish(batch[i],
           ScoreOutcome{Status::OK(), scores[row_of_pending[i]], ref.version,
                        ref.snapshot->fingerprint()});
  }
}

}  // namespace telco
