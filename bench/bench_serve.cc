// Online-scoring bench: throughput and latency of the serving core.
//
// Phase 1 (in-process): trains two monthly models at bench scale,
// publishes the older one, then drives the ScoringExecutor with
// concurrent closed-loop clients replaying the prediction month's
// feature rows. Halfway through, the newer model is hot-swapped in while
// clients keep scoring — the bench asserts every response came from a
// published snapshot and reports throughput plus p50/p99 request latency.
//
// Phase 2 (TCP): starts the epoll TcpScoringServer on an ephemeral
// loopback port and replays the same rows over real sockets from
// TELCO_BENCH_SERVE_TCP_CLIENTS pipelined connections, hot-swapping at
// 50% again. Every response's score is checked bit-identical to the
// offline ScoreBatch of whichever snapshot version scored it; client-side
// p50/p99/p999 and scores/s land next to the phase-1 numbers in
// BENCH_serve.json.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/string_util.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/run_report.h"
#include "serve/model_router.h"
#include "serve/model_snapshot.h"
#include "serve/request_codec.h"
#include "serve/scoring_executor.h"
#include "serve/snapshot_registry.h"
#include "serve/tcp_server.h"
#include "storage/atomic_file.h"

namespace telco {
namespace bench {
namespace {

// Thread and connection counts a bench knob may ask for.
constexpr int64_t kMaxWorkers = 256;
constexpr int64_t kMaxCount = std::numeric_limits<int32_t>::max();

double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t index = std::min(
      sorted.size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted.size() - 1) + 0.5));
  return sorted[index];
}

struct TcpBenchStats {
  size_t clients = 0;
  size_t requests = 0;
  size_t v2_responses = 0;
  double throughput = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
};

// Drives the TCP front-end with pipelined loopback clients and verifies
// bit-parity of every response against the offline batch scores of the
// snapshot version that produced it.
Result<TcpBenchStats> RunTcpBench(
    const Dataset& data, std::shared_ptr<const ModelSnapshot> v1,
    std::shared_ptr<const ModelSnapshot> v2,
    const ScoringExecutorOptions& exec_options, ThreadPool* pool) {
  const std::vector<double> expected_v1 = v1->ScoreBatch(data, pool);
  const std::vector<double> expected_v2 = v2->ScoreBatch(data, pool);

  ModelRouterOptions router_options;
  router_options.executor = exec_options;
  ModelRouter router(router_options);
  router.Publish("", std::move(v1));

  TcpServerOptions tcp_options;
  tcp_options.readers =
      static_cast<size_t>(EnvInt("TELCO_BENCH_SERVE_READERS", 2, 1,
                                 kMaxWorkers));
  TcpScoringServer server(&router, tcp_options);
  TELCO_RETURN_NOT_OK(server.Start());
  const int port = server.port();

  TcpBenchStats stats;
  stats.clients = static_cast<size_t>(
      EnvInt("TELCO_BENCH_SERVE_TCP_CLIENTS", 4, 1, kMaxWorkers));
  const size_t rounds = static_cast<size_t>(
      EnvInt("TELCO_BENCH_SERVE_ROUNDS", 4, 1, kMaxCount));
  const size_t rows = data.num_rows();
  stats.requests = rows * rounds;

  // Pre-render every request frame once: the load generator should spend
  // its core time on the wire and the server, not on re-formatting the
  // same rows each round.
  std::vector<std::string> frames(rows);
  {
    ScoreRequest request;
    for (size_t r = 0; r < rows; ++r) {
      request.id = r + 1;
      request.imsi = static_cast<int64_t>(r);
      const auto row = data.Row(r);
      request.features.assign(row.begin(), row.end());
      frames[r] = FormatScoreRequest(request) + "\n";
    }
  }

  std::atomic<size_t> successes{0};
  std::atomic<size_t> errors{0};
  std::atomic<size_t> parity_failures{0};
  std::atomic<size_t> v2_responses{0};
  std::atomic<bool> swapped{false};
  std::vector<std::vector<double>> latencies(stats.clients);

  Stopwatch wall;
  std::vector<std::thread> workers;
  workers.reserve(stats.clients + 1);
  for (size_t c = 0; c < stats.clients; ++c) {
    workers.emplace_back([&, c] {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) {
        errors.fetch_add(1);
        return;
      }
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<uint16_t>(port));
      ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) != 0) {
        errors.fetch_add(1);
        ::close(fd);
        return;
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

      const auto send_all = [fd](const std::string& bytes) {
        size_t off = 0;
        while (off < bytes.size()) {
          const ssize_t n = ::send(fd, bytes.data() + off,
                                   bytes.size() - off, MSG_NOSIGNAL);
          if (n < 0) {
            if (errno == EINTR) continue;
            return false;
          }
          off += static_cast<size_t>(n);
        }
        return true;
      };
      std::string rbuf;
      size_t rpos = 0;
      const auto recv_line = [&](std::string* line) {
        for (;;) {
          const size_t nl = rbuf.find('\n', rpos);
          if (nl != std::string::npos) {
            line->assign(rbuf, rpos, nl - rpos);
            rpos = nl + 1;
            if (rpos > (64u << 10)) {
              rbuf.erase(0, rpos);
              rpos = 0;
            }
            return true;
          }
          char chunk[64 * 1024];
          const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
          if (n <= 0) {
            if (n < 0 && errno == EINTR) continue;
            return false;
          }
          rbuf.append(chunk, static_cast<size_t>(n));
        }
      };

      // This client's shard, `rounds` times over; rows re-queued on a
      // transient (retry:true) rejection go to the back.
      std::vector<size_t> sequence;
      for (size_t round = 0; round < rounds; ++round) {
        for (size_t r = c; r < rows; r += stats.clients) {
          sequence.push_back(r);
        }
      }
      std::deque<std::pair<std::chrono::steady_clock::time_point, size_t>>
          outstanding;
      constexpr size_t kWindow = 128;
      bool dead = false;
      std::string line;
      const auto read_one = [&] {
        if (!recv_line(&line)) {
          errors.fetch_add(1);
          dead = true;
          return;
        }
        const auto [sent_at, row] = outstanding.front();
        outstanding.pop_front();
        if (line.find("\"error\"") != std::string::npos) {
          if (line.find("\"retry\":true") != std::string::npos) {
            sequence.push_back(row);  // shed under overload: resubmit
          } else {
            errors.fetch_add(1);
          }
          return;
        }
        latencies[c].push_back(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - sent_at)
                .count());
        const char* score_at = std::strstr(line.c_str(), "\"score\":");
        const char* version_at = std::strstr(line.c_str(), "\"snapshot\":");
        if (score_at == nullptr || version_at == nullptr) {
          errors.fetch_add(1);
          return;
        }
        const double score = std::strtod(score_at + 8, nullptr);
        const unsigned long long version =
            std::strtoull(version_at + 11, nullptr, 10);
        const std::vector<double>& expected =
            version >= 2 ? expected_v2 : expected_v1;
        if (score != expected[row]) parity_failures.fetch_add(1);
        if (version >= 2) v2_responses.fetch_add(1);
        successes.fetch_add(1);
      };

      size_t next = 0;
      std::string burst;
      while (!dead && (next < sequence.size() || !outstanding.empty())) {
        // Refill in half-window bursts so many frames share one send()
        // and the server parses them from one recv() chunk.
        if (next < sequence.size() && outstanding.size() <= kWindow / 2) {
          burst.clear();
          const auto now = std::chrono::steady_clock::now();
          while (next < sequence.size() && outstanding.size() < kWindow) {
            const size_t r = sequence[next++];
            burst += frames[r];
            outstanding.emplace_back(now, r);
          }
          if (!send_all(burst)) {
            errors.fetch_add(1);
            break;
          }
          continue;
        }
        read_one();
      }
      ::close(fd);
    });
  }
  // Hot-swap v2 into the default route once half the stream is scored.
  workers.emplace_back([&] {
    const size_t half = stats.requests / 2;
    while (successes.load() < half && errors.load() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    router.Publish("", std::move(v2));
    swapped.store(true);
  });
  for (auto& t : workers) t.join();
  const double seconds = wall.ElapsedSeconds();
  server.Shutdown();

  if (errors.load() != 0) {
    return Status::Internal(
        StrFormat("%zu TCP client errors during the bench", errors.load()));
  }
  if (parity_failures.load() != 0) {
    return Status::Internal(StrFormat(
        "%zu TCP responses were not bit-identical to offline scores",
        parity_failures.load()));
  }
  if (successes.load() < stats.requests) {
    return Status::Internal(
        StrFormat("only %zu of %zu TCP requests completed",
                  successes.load(), stats.requests));
  }
  if (!swapped.load() || v2_responses.load() == 0) {
    return Status::Internal("TCP hot-swap never took effect mid-bench");
  }
  stats.v2_responses = v2_responses.load();
  stats.throughput =
      seconds > 0.0 ? static_cast<double>(successes.load()) / seconds : 0.0;

  std::vector<double> merged;
  for (const auto& per_client : latencies) {
    merged.insert(merged.end(), per_client.begin(), per_client.end());
  }
  std::sort(merged.begin(), merged.end());
  stats.p50_ms = SortedQuantile(merged, 0.5);
  stats.p99_ms = SortedQuantile(merged, 0.99);
  stats.p999_ms = SortedQuantile(merged, 0.999);
  return stats;
}

Status RunBench() {
  auto world = BuildWorld();
  PrintHeader("serve: online scoring throughput", *world);

  const int predict_month = world->config.num_months;
  ChurnPipeline pipeline(&world->catalog, DefaultPipelineOptions());

  // Two consecutive monthly models: v1 serves first, v2 swaps in live.
  TELCO_RETURN_NOT_OK(pipeline.TrainOnly(predict_month - 2));
  TELCO_ASSIGN_OR_RETURN(
      auto snapshot_v1,
      ModelSnapshot::FromForest(*pipeline.model()->forest(),
                                pipeline.model_features(), "bench-v1"));
  TELCO_RETURN_NOT_OK(pipeline.TrainOnly(predict_month - 1));
  TELCO_ASSIGN_OR_RETURN(
      auto snapshot_v2,
      ModelSnapshot::FromForest(*pipeline.model()->forest(),
                                pipeline.model_features(), "bench-v2"));

  TELCO_ASSIGN_OR_RETURN(const WideTable wide,
                         pipeline.wide_builder().Build(predict_month));
  TELCO_ASSIGN_OR_RETURN(
      const Dataset data,
      Dataset::FromTableUnlabeled(*wide.table, pipeline.model_features()));

  SnapshotRegistry registry;
  registry.Publish(snapshot_v1);  // keep a ref for the TCP parity phase

  ScoringExecutorOptions exec_options;
  exec_options.max_batch_size = static_cast<size_t>(
      EnvInt("TELCO_BENCH_SERVE_BATCH", 64, 0, kMaxCount));
  exec_options.pool = pipeline.pool();
  ScoringExecutor executor(&registry, exec_options);

  const size_t clients = static_cast<size_t>(
      EnvInt("TELCO_BENCH_SERVE_CLIENTS", 4, 1, kMaxWorkers));
  const size_t rounds = static_cast<size_t>(
      EnvInt("TELCO_BENCH_SERVE_ROUNDS", 4, 1, kMaxCount));
  const size_t rows = data.num_rows();
  const size_t total_requests = rows * rounds;

  std::atomic<size_t> completed{0};
  std::atomic<size_t> errors{0};
  std::atomic<bool> swapped{false};
  std::atomic<size_t> v2_responses{0};

  Stopwatch wall;
  std::vector<std::thread> workers;
  workers.reserve(clients + 1);
  for (size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      // Each client replays its shard of rows, `rounds` times, keeping a
      // bounded window of futures in flight so batches actually form.
      constexpr size_t kWindow = 128;
      std::vector<std::future<ScoreOutcome>> window;
      window.reserve(kWindow);
      auto drain = [&] {
        for (auto& f : window) {
          const ScoreOutcome outcome = f.get();
          if (!outcome.status.ok()) {
            errors.fetch_add(1);
          } else if (outcome.snapshot_version >= 2) {
            v2_responses.fetch_add(1);
          }
          completed.fetch_add(1);
        }
        window.clear();
      };
      ScoreRequest request;
      for (size_t round = 0; round < rounds; ++round) {
        for (size_t r = c; r < rows; r += clients) {
          request.id = round * rows + r + 1;
          request.imsi = static_cast<int64_t>(r);
          const auto row = data.Row(r);
          request.features.assign(row.begin(), row.end());
          while (true) {
            auto submitted = executor.Submit(request);
            if (submitted.ok()) {
              window.push_back(std::move(*submitted));
              break;
            }
            if (!submitted.status().IsUnavailable()) {
              errors.fetch_add(1);
              completed.fetch_add(1);
              break;
            }
            drain();  // backpressure: absorb our own in-flight window
          }
          if (window.size() >= kWindow) drain();
        }
      }
      drain();
    });
  }
  // Hot-swap v2 once half the stream has been scored.
  workers.emplace_back([&] {
    while (completed.load() < total_requests / 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    registry.Publish(snapshot_v2);  // keep a ref for the TCP parity phase
    swapped.store(true);
  });
  for (auto& t : workers) t.join();
  executor.Drain();
  const double seconds = wall.ElapsedSeconds();

  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const MetricValue* latency =
      snapshot.Find("serve.executor.latency_seconds");
  const double p50_ms =
      latency != nullptr ? latency->histogram.Quantile(0.5) * 1e3 : 0.0;
  const double p99_ms =
      latency != nullptr ? latency->histogram.Quantile(0.99) * 1e3 : 0.0;
  const double throughput =
      seconds > 0.0 ? static_cast<double>(total_requests) / seconds : 0.0;

  if (errors.load() != 0) {
    return Status::Internal(
        StrFormat("%zu scoring errors during the bench", errors.load()));
  }
  if (!swapped.load() || v2_responses.load() == 0) {
    return Status::Internal("hot-swap never took effect mid-bench");
  }

  std::printf("# %zu requests (%zu clients x %zu rounds x %zu rows), "
              "swap at ~50%%\n",
              total_requests, clients, rounds, rows);
  std::printf("throughput_per_sec,%0.1f\n", throughput);
  std::printf("p50_ms,%0.4f\np99_ms,%0.4f\n", p50_ms, p99_ms);
  std::printf("v2_responses,%zu\n", v2_responses.load());

  TELCO_ASSIGN_OR_RETURN(
      const TcpBenchStats tcp,
      RunTcpBench(data, snapshot_v1, snapshot_v2, exec_options,
                  pipeline.pool()));
  std::printf("# tcp: %zu requests over %zu connections, swap at ~50%%, "
              "bit-parity checked\n",
              tcp.requests, tcp.clients);
  std::printf("tcp_throughput_per_sec,%0.1f\n", tcp.throughput);
  std::printf("tcp_p50_ms,%0.4f\ntcp_p99_ms,%0.4f\ntcp_p999_ms,%0.4f\n",
              tcp.p50_ms, tcp.p99_ms, tcp.p999_ms);
  std::printf("tcp_v2_responses,%zu\n", tcp.v2_responses);

  RunReport report;
  // Re-snapshot so the report's metrics cover both phases (the TCP
  // phase runs its own router-owned executors).
  report.metrics = MetricsRegistry::Global().Snapshot();
  // Server-side end-to-end latency from the log-bucketed stage
  // histogram the TCP front-end records in FlushConnection: read-to-
  // flushed, so it gates the whole serve path, not just the executor.
  const MetricValue* request_total =
      report.metrics.Find("serve.request.total_seconds");
  const double request_total_p50_ms =
      request_total != nullptr
          ? request_total->histogram.Quantile(0.5) * 1e3
          : 0.0;
  const double request_total_p99_ms =
      request_total != nullptr
          ? request_total->histogram.Quantile(0.99) * 1e3
          : 0.0;
  std::printf("request_total_p50_ms,%0.4f\nrequest_total_p99_ms,%0.4f\n",
              request_total_p50_ms, request_total_p99_ms);
  report.kind = "bench";
  report.command = "serve";
  report.AddConfig("customers",
                   StrFormat("%zu", world->config.num_customers));
  report.AddConfig("requests", StrFormat("%zu", total_requests));
  report.AddConfig("clients", StrFormat("%zu", clients));
  report.AddConfig("batch", StrFormat("%zu", exec_options.max_batch_size));
  report.AddConfig("throughput_per_sec", StrFormat("%0.1f", throughput));
  report.AddConfig("p50_ms", StrFormat("%0.4f", p50_ms));
  report.AddConfig("p99_ms", StrFormat("%0.4f", p99_ms));
  report.AddConfig("tcp_clients", StrFormat("%zu", tcp.clients));
  report.AddConfig("tcp_throughput_per_sec",
                   StrFormat("%0.1f", tcp.throughput));
  report.AddConfig("tcp_p50_ms", StrFormat("%0.4f", tcp.p50_ms));
  report.AddConfig("tcp_p99_ms", StrFormat("%0.4f", tcp.p99_ms));
  report.AddConfig("tcp_p999_ms", StrFormat("%0.4f", tcp.p999_ms));
  report.AddConfig("request_total_p50_ms",
                   StrFormat("%0.4f", request_total_p50_ms));
  report.AddConfig("request_total_p99_ms",
                   StrFormat("%0.4f", request_total_p99_ms));
  report.total_wall_seconds = seconds;
  const char* dir = std::getenv("TELCO_BENCH_REPORT_DIR");
  const std::string path = (dir != nullptr && *dir != '\0')
                               ? std::string(dir) + "/BENCH_serve.json"
                               : "BENCH_serve.json";
  const Status st = WriteFileAtomic(path, report.ToJson() + "\n");
  if (!st.ok()) {
    std::fprintf(stderr, "# bench report write failed: %s\n",
                 st.ToString().c_str());
  } else {
    std::printf("# report -> %s\n", path.c_str());
  }
  return Status::OK();
}

}  // namespace
}  // namespace bench
}  // namespace telco

int main() {
  const telco::Status st = telco::bench::RunBench();
  if (!st.ok()) {
    std::fprintf(stderr, "bench_serve failed: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
