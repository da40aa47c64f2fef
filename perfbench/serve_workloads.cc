// The serve workloads: campaign callers scoring customers against the
// models the monthly job ships.
//
//   serve_tcp_open      campaign callers over TCP: seeded Poisson arrivals
//                       at two frozen rates (open loop, latency from each
//                       request's intended send time, so a stalled server
//                       is charged for the requests it delayed), then a
//                       closed loop with a fixed number of requests in
//                       flight, which gives the end-to-end numbers.
//   serve_stdio_replay  one ordered, throughput-bound stream through the
//                       stdio server (`telcochurn requests | telcochurn
//                       serve`), with a hot swap at the halfway frame.
//
// Both score month-6 rows against v1 (trained for month 5) and v2
// (trained for month 6), and check every response bit for bit against
// the offline ScoreBatch of the snapshot version that answered it.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <ext/stdio_filebuf.h>
#include <functional>
#include <istream>
#include <thread>

#include "churn/pipeline.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "serve/model_router.h"
#include "serve/request_codec.h"
#include "serve/snapshot_registry.h"
#include "serve/stdio_server.h"
#include "serve/tcp_server.h"
#include "suite.h"

namespace telco {
namespace perfbench {

using Clock = std::chrono::steady_clock;

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// The number after `"key":` in a response line (0 when absent).
double NumberAfter(const std::string& line, const char* key) {
  const size_t at = line.find(key);
  if (at == std::string::npos) return 0.0;
  return std::strtod(line.c_str() + at + std::strlen(key), nullptr);
}

uint64_t IntAfter(const std::string& line, const char* key) {
  const size_t at = line.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + std::strlen(key), nullptr, 10);
}

/// Writes all of `data` to a socket or pipe (SIGPIPE is ignored, so a
/// closed peer is a false return).
bool WriteAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

/// Models and request rows shared by both serve workloads.
struct ServeWorld {
  std::shared_ptr<const ModelSnapshot> v1;
  std::shared_ptr<const ModelSnapshot> v2;
  std::string v2_path;
  /// Month-6 rows as frame tails, for the default and challenger routes.
  std::vector<std::string> tails;
  std::vector<std::string> challenger_tails;
  std::vector<double> expected_v1;
  std::vector<double> expected_v2;
};

constexpr const char* kChallenger = "challenger";

/// Streams and loads a 6-month warehouse, trains v1 and v2 with
/// TrainAndPredict, saves v2 for the stdio swap frame, and scores the
/// month-6 rows offline with both.
Status BuildServeWorld(const RunConfig& config, PhaseRecorder* phases,
                       ServeWorld* world) {
  const int months = 6;
  const std::string dir = config.work_dir + "/warehouse";
  TELCO_RETURN_NOT_OK(GenerateWarehouse(
      config, config.quick ? 0.0003 : 0.002, months, dir, phases));
  Catalog catalog;
  TELCO_RETURN_NOT_OK(LoadWarehouseTimed(dir, &catalog, phases));

  PipelineOptions options;
  options.model.rf.num_trees = config.quick ? 8 : 120;
  ChurnPipeline pipeline(&catalog, options);
  TELCO_RETURN_NOT_OK(pipeline.TrainAndPredict(months - 1).status());
  phases->AddStages(pipeline.timings());
  TELCO_ASSIGN_OR_RETURN(
      world->v1, ModelSnapshot::FromForest(*pipeline.model()->forest(),
                                           pipeline.model_features(), "v1"));
  TELCO_RETURN_NOT_OK(pipeline.TrainAndPredict(months).status());
  phases->AddStages(pipeline.timings());
  TELCO_ASSIGN_OR_RETURN(
      world->v2, ModelSnapshot::FromForest(*pipeline.model()->forest(),
                                           pipeline.model_features(), "v2"));
  world->v2_path = config.work_dir + "/v2.rf";
  TELCO_RETURN_NOT_OK(pipeline.SaveModel(world->v2_path));

  TELCO_ASSIGN_OR_RETURN(const WideTable wide,
                         pipeline.wide_builder().Build(months));
  TELCO_ASSIGN_OR_RETURN(
      const Dataset rows,
      Dataset::FromTableUnlabeled(*wide.table, pipeline.model_features()));
  TELCO_ASSIGN_OR_RETURN(const Column* imsi, wide.table->GetColumn("imsi"));
  // The wire carries non-finite features as 0, so the offline reference
  // scores the rows the server will actually parse.
  std::vector<double> parsed;
  parsed.reserve(rows.num_rows() * rows.num_features());
  world->tails.clear();
  world->challenger_tails.clear();
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    const auto row = rows.Row(r);
    world->tails.push_back(FrameTail(imsi->GetInt64(r), row, ""));
    world->challenger_tails.push_back(
        FrameTail(imsi->GetInt64(r), row, kChallenger));
    for (const double v : row) parsed.push_back(std::isfinite(v) ? v : 0.0);
  }
  const FeatureMatrix matrix(parsed.data(), rows.num_rows(),
                             rows.num_features());
  world->expected_v1 = world->v1->ScoreBatch(matrix, pipeline.pool());
  world->expected_v2 = world->v2->ScoreBatch(matrix, pipeline.pool());
  return Status::OK();
}

/// Set-up shared by both serve workloads: build the world (several times
/// when not quick; the last one is kept).
Status SetUpServe(const RunConfig& config, PhaseRecorder* phases,
                  Report* report, ServeWorld* world) {
  const int setups = config.quick ? 1 : 3;
  for (int i = 0; i < setups; ++i) {
    *world = ServeWorld();
    phases->Begin(Phase::kSetup, i + 1 == setups);
    TELCO_RETURN_NOT_OK(BuildServeWorld(config, phases, world));
    report->setup_s.push_back(phases->End());
  }
  std::printf("# serve world: %zu rows x %zu features; v1 %08x, v2 %08x\n",
              world->tails.size(), world->v1->num_features(),
              world->v1->fingerprint(), world->v2->fingerprint());
  return Status::OK();
}

// ------------------------------------------------------------- TCP

/// Latencies and completions are grouped into windows of the phase, so a
/// phase is judged by its median window and one stall of the shared box
/// cannot decide it.
constexpr size_t kWindows = 8;

/// What one load phase measured.
struct LoadPhase {
  std::string label;
  double rate = 0.0;  // offered req/s; 0 for the closed loop
  size_t window = 0;  // requests kept in flight; 0 for the open loop
  double seconds = 0.0;
  uint64_t attempted = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;
  uint64_t mismatches = 0;
  uint64_t default_v2 = 0;  // default-route responses from v2
  /// Per window of intended send time: request latency, +inf for a
  /// failed request (a miss).
  std::vector<std::vector<double>> latency_ms =
      std::vector<std::vector<double>>(kWindows);
  /// Open loop, per window: how late the generator sent each request.
  std::vector<std::vector<double>> late_ms =
      std::vector<std::vector<double>>(kWindows);
  /// Per window of receive time: responses received before the end.
  std::vector<double> completed = std::vector<double>(kWindows, 0.0);

  uint64_t failed() const { return shed + errors; }
  size_t Window(int64_t since_start_ns) const {
    const double at = static_cast<double>(since_start_ns) / 1e9;
    return std::min(kWindows - 1,
                    static_cast<size_t>(std::max(0.0, at / seconds) *
                                        static_cast<double>(kWindows)));
  }
  size_t Samples() const {
    size_t n = 0;
    for (const std::vector<double>& w : latency_ms) n += w.size();
    return n;
  }
  /// Responses per second in the median window.
  double Throughput() const {
    return Median(completed) * static_cast<double>(kWindows) / seconds;
  }
};

/// The load generator: one thread driving one connection, so the
/// benchmark adds a single runnable thread to the server's own. The
/// server answers a connection in request order, so the requests in
/// flight form a queue.
class LoadClient {
 public:
  LoadClient(const ServeWorld& world, uint64_t seed)
      : world_(world), seed_(seed), rows_(HashCombine64(seed, 0)) {}
  ~LoadClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  Status Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return Status::IoError("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return Status::IoError(std::string("connect: ") + std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Wake on time for each arrival; the default slack is 50 us.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    return Status::OK();
  }

  /// Open loop: seeded Poisson arrivals at `rate` req/s for `seconds`,
  /// each timed from its intended send time. `on_half` runs halfway
  /// through (the hot swap).
  Result<LoadPhase> OpenLoop(const std::string& label, double rate,
                             double seconds,
                             const std::function<void()>& on_half = nullptr) {
    Rng rng(HashCombine64(seed_, ++phases_));
    std::vector<double> arrivals;
    for (double at = 0.0;;) {
      at += -std::log(1.0 - rng.Uniform()) / rate;
      if (at >= seconds) break;
      arrivals.push_back(at);
    }
    LoadPhase phase;
    phase.label = label;
    phase.rate = rate;
    phase.seconds = seconds;
    return Drive(std::move(phase), arrivals, on_half);
  }

  /// Closed loop: keeps `window` requests in flight for `seconds`.
  Result<LoadPhase> ClosedLoop(const std::string& label, size_t window,
                               double seconds) {
    LoadPhase phase;
    phase.label = label;
    phase.window = window;
    phase.seconds = seconds;
    return Drive(std::move(phase), {}, nullptr);
  }

 private:
  struct Request {
    uint64_t id = 0;
    int64_t due_ns = 0;
    uint32_t row = 0;
    bool challenger = false;
  };
  static constexpr size_t kMaxUnsent = 256u << 10;

  Result<LoadPhase> Drive(LoadPhase phase, const std::vector<double>& arrivals,
                          const std::function<void()>& on_half) {
    TraceSpan span("bench.load:" + phase.label);
    const bool open = phase.window == 0;
    const int64_t start_ns = NowNs() + (open ? 1'000'000 : 0);
    const int64_t end_ns = start_ns + static_cast<int64_t>(phase.seconds * 1e9);
    const int64_t give_up_ns = end_ns + 5'000'000'000;
    const auto due_of = [&](size_t i) {
      return start_ns + static_cast<int64_t>(arrivals[i] * 1e9);
    };
    bool halfway = on_half == nullptr;
    size_t next = 0;  // open loop: the next arrival
    std::string line;
    char chunk[1 << 16];
    for (;;) {
      const int64_t now = NowNs();
      if (now > give_up_ns) {
        return Status::Internal(phase.label +
                                ": timed out waiting for responses");
      }
      if (!halfway && now >= start_ns + (end_ns - start_ns) / 2) {
        on_half();
        swapped_at_ns_ = NowNs();
        halfway = true;
      }
      // Queue what is due. Unsent bytes are capped, so a server that
      // stops reading makes the requests late, and late counts.
      while (out_.size() < kMaxUnsent) {
        if (open) {
          if (next == arrivals.size() || due_of(next) > now) break;
          phase.late_ms[phase.Window(due_of(next) - start_ns)].push_back(
              static_cast<double>(now - due_of(next)) / 1e6);
          Enqueue(due_of(next++));
        } else {
          if (now >= end_ns || in_flight_.size() >= phase.window) break;
          Enqueue(now);
        }
        ++phase.attempted;
      }
      bool progressed = false;
      if (out_pos_ < out_.size()) {
        const ssize_t n = ::send(fd_, out_.data() + out_pos_,
                                 out_.size() - out_pos_,
                                 MSG_DONTWAIT | MSG_NOSIGNAL);
        if (n > 0) {
          out_pos_ += static_cast<size_t>(n);
          progressed = true;
        } else if (errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR) {
          return Status::IoError(std::string("send: ") +
                                 std::strerror(errno));
        }
        if (out_pos_ == out_.size()) {
          out_.clear();
          out_pos_ = 0;
        }
      }
      const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (got > 0) {
        progressed = true;
        const int64_t at = NowNs();
        in_.append(chunk, static_cast<size_t>(got));
        size_t pos = 0;
        for (size_t nl; (nl = in_.find('\n', pos)) != std::string::npos;
             pos = nl + 1) {
          line.assign(in_, pos, nl - pos);
          if (in_flight_.empty()) {
            ++phase.mismatches;  // a response to no request
            continue;
          }
          const Request request = in_flight_.front();
          in_flight_.pop_front();
          const bool ok = Check(line, request, &phase);
          phase.latency_ms[phase.Window(request.due_ns - start_ns)]
              .push_back(ok ? static_cast<double>(at - request.due_ns) / 1e6
                            : HUGE_VAL);
          if (at < end_ns) phase.completed[phase.Window(at - start_ns)] += 1;
        }
        in_.erase(0, pos);
      } else if (got == 0) {
        return Status::IoError(phase.label + ": server closed the connection");
      } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        return Status::IoError(std::string("recv: ") + std::strerror(errno));
      }
      const bool all_sent = open ? next == arrivals.size() : now >= end_ns;
      if (all_sent && in_flight_.empty() && out_.empty()) break;
      if (progressed) continue;
      // Sleep until the socket is ready, the next arrival is due, or the
      // closed loop ends.
      int64_t wait_ns = 100'000'000;
      if (open && next < arrivals.size()) {
        wait_ns = std::min(wait_ns, due_of(next) - now);
      } else if (!open && !all_sent) {
        wait_ns = std::min(wait_ns, end_ns - now);
      }
      if (wait_ns <= 0) continue;
      pollfd ready{fd_, static_cast<short>(POLLIN | (out_.empty() ? 0 : POLLOUT)),
                   0};
      const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                             static_cast<long>(wait_ns % 1'000'000'000)};
      ::ppoll(&ready, 1, &timeout, nullptr);
    }
    return phase;
  }

  void Enqueue(int64_t due_ns) {
    Request request;
    request.id = ++next_id_;
    request.due_ns = due_ns;
    request.row = static_cast<uint32_t>(rows_.UniformInt(world_.tails.size()));
    request.challenger = rows_.Uniform() < 0.25;
    out_ += "{\"id\":";
    out_ += std::to_string(request.id);
    out_ += request.challenger ? world_.challenger_tails[request.row]
                               : world_.tails[request.row];
    out_ += '\n';
    in_flight_.push_back(request);
  }

  /// Parity of one response against the offline scores of the snapshot
  /// version that produced it; false for an error response.
  bool Check(const std::string& line, const Request& request,
             LoadPhase* out) const {
    if (IntAfter(line, "{\"id\":") != request.id) {
      ++out->mismatches;  // out of order
      return true;
    }
    if (line.find("\"error\"") != std::string::npos) {
      if (line.find("\"retry\":true") != std::string::npos) {
        ++out->shed;
      } else {
        ++out->errors;
      }
      return false;
    }
    const uint64_t version = IntAfter(line, "\"snapshot\":");
    const double score = NumberAfter(line, "\"score\":");
    const std::vector<double>* expected = nullptr;
    if (request.challenger) {
      if (version == 1 &&
          line.find("\"model\":\"challenger\"") != std::string::npos) {
        expected = &world_.expected_v2;
      }
    } else if (version == 1) {
      // A request due after the swap returned must see v2.
      if (swapped_at_ns_ == 0 || request.due_ns <= swapped_at_ns_) {
        expected = &world_.expected_v1;
      }
    } else if (version == 2) {
      expected = &world_.expected_v2;
      ++out->default_v2;
    }
    if (expected == nullptr || !SameBits(score, (*expected)[request.row])) {
      ++out->mismatches;
    }
    return true;
  }

  const ServeWorld& world_;
  uint64_t seed_;
  Rng rows_;  // request rows and routes
  int fd_ = -1;
  uint64_t phases_ = 0;
  uint64_t next_id_ = 0;
  int64_t swapped_at_ns_ = 0;  // when the default route switched to v2
  std::deque<Request> in_flight_;
  std::string out_;  // queued request bytes; out_pos_ of them already sent
  size_t out_pos_ = 0;
  std::string in_;  // received bytes not yet consumed
};

/// The load plan frozen in pins.json: the two open-loop rates and the
/// closed loop's window.
struct LoadPlan {
  double rate_low = 0.0;
  double rate_high = 0.0;
  size_t window = 0;
};

Result<LoadPlan> PlanFromPins(const RunConfig& config) {
  const JsonValue* pins = config.pins.Find("serve_tcp_open");
  double window = 0.0;
  LoadPlan plan;
  for (const auto& [key, field] : {std::pair{"rate_low", &plan.rate_low},
                                   {"rate_high", &plan.rate_high},
                                   {"window", &window}}) {
    *field = pins != nullptr ? pins->NumberOr(key, 0.0) : 0.0;
    if (!(*field > 0.0)) {
      return Status::InvalidArgument(
          std::string("pins.json needs a positive serve_tcp_open.") + key);
    }
  }
  if (plan.rate_high <= plan.rate_low) {
    return Status::InvalidArgument("pins.json needs rate_low < rate_high");
  }
  plan.window = static_cast<size_t>(window);
  if (config.quick) {  // tiny world, short phases
    plan.rate_low /= 10.0;
    plan.rate_high /= 10.0;
  }
  return plan;
}

void PrintPhase(const LoadPhase& phase) {
  std::vector<double> all;
  for (const std::vector<double>& window : phase.latency_ms) {
    all.insert(all.end(), window.begin(), window.end());
  }
  const std::string load =
      phase.window == 0 ? StrFormat("%.0f req/s offered", phase.rate)
                        : StrFormat("%zu in flight", phase.window);
  std::printf(
      "# %-9s %s: %.0f req/s answered; n=%zu (%zu per window, %zu beyond "
      "p99) p50=%.4f ms p90=%.4f ms p99=%.4f ms (whole phase %.4f ms)",
      phase.label.c_str(), load.c_str(), phase.Throughput(), all.size(),
      all.size() / kWindows, all.size() / kWindows / 100,
      MedianOfWindows(phase.latency_ms, 0.5),
      MedianOfWindows(phase.latency_ms, 0.9),
      MedianOfWindows(phase.latency_ms, 0.99), Quantile(all, 0.99));
  if (phase.window == 0) {
    std::printf(" late.p99=%.4f ms", MedianOfWindows(phase.late_ms, 0.99));
  }
  std::printf(" failed=%llu\n",
              static_cast<unsigned long long>(phase.failed()));
}

}  // namespace

std::string FrameTail(int64_t imsi, std::span<const double> features,
                      const std::string& model) {
  ScoreRequest request;
  request.imsi = imsi;
  request.model = model;
  request.features.assign(features.begin(), features.end());
  const std::string frame = FormatScoreRequest(request);
  static constexpr std::string_view kHead = "{\"id\":0";
  TELCO_CHECK(frame.compare(0, kHead.size(), kHead) == 0) << frame;
  return frame.substr(kHead.size());
}

Status RunServeTcpOpen(const RunConfig& config, PhaseRecorder* phases,
                       Report* report) {
  TELCO_ASSIGN_OR_RETURN(const LoadPlan plan, PlanFromPins(config));
  ServeWorld world;
  TELCO_RETURN_NOT_OK(SetUpServe(config, phases, report, &world));

  ModelRouterOptions router_options;
  router_options.executor.pool = &ThreadPool::Default();
  // `serve --queue 4096`: a stall of the shared box at rate.high queues
  // requests instead of shedding them.
  router_options.executor.max_queue_depth = 4096;
  ModelRouter router(router_options);
  router.Publish("", world.v1);
  router.Publish(kChallenger, world.v2);
  TcpServerOptions tcp_options;
  if (config.trace) tcp_options.trace_sample = 100;
  TcpScoringServer server(&router, tcp_options);
  TELCO_RETURN_NOT_OK(server.Start());

  LoadClient client(world, config.seed);
  TELCO_RETURN_NOT_OK(client.Connect(server.port()));
  std::printf("# load: one generator thread on one connection\n");

  // The end-to-end numbers come from the closed loop, where queueing and
  // full batches dominate. The open-loop phases are printed: at these
  // rates a request costs tens of microseconds, mostly thread wake-ups,
  // and their latency moved by 15-20% between runs on a shared box.
  ResetPeakRss();
  phases->Begin(Phase::kUnit, config.trace);
  const double budget = config.seconds;
  TELCO_ASSIGN_OR_RETURN(
      const LoadPhase low,
      client.OpenLoop("rate.low", plan.rate_low, 0.2 * budget));
  TELCO_ASSIGN_OR_RETURN(
      const LoadPhase high,
      client.OpenLoop("rate.high", plan.rate_high, 0.2 * budget,
                      [&] { router.Publish("", world.v2); }));
  TELCO_ASSIGN_OR_RETURN(
      const LoadPhase saturated,
      client.ClosedLoop("saturated", plan.window, 0.6 * budget));
  phases->End();
  report->peak_rss_mb.push_back(PeakRssMb());
  server.Shutdown();

  for (const LoadPhase* phase : {&low, &high, &saturated}) {
    PrintPhase(*phase);
    report->attempted += phase->attempted;
    report->failed += phase->failed();
    if (phase->mismatches > 0) {
      report->Fail(StrFormat(
          "%s: %llu responses out of order or not bit-identical to offline "
          "scores",
          phase->label.c_str(),
          static_cast<unsigned long long>(phase->mismatches)));
    }
  }
  if (high.default_v2 == 0) {
    report->Fail("hot swap to v2 never reached the default route");
  }
  report->p50_ms = MedianOfWindows(saturated.latency_ms, 0.5);
  report->latency_samples = saturated.Samples();
  report->throughput = saturated.Throughput();
  return Status::OK();
}

// ----------------------------------------------------------- stdio

Result<ReplayResult> ReplayStdio(const ReplayStream& stream,
                                 std::shared_ptr<const ModelSnapshot> first,
                                 uint64_t trace_sample, Report* report) {
  SnapshotRegistry registry;
  registry.Publish(std::move(first));
  StdioServerOptions options;
  options.trace_sample = trace_sample;
  StdioScoringServer server(&registry, options);

  int to_server[2];
  int from_server[2];
  if (::pipe(to_server) != 0) return Status::IoError("pipe() failed");
  if (::pipe(from_server) != 0) {
    ::close(to_server[0]);
    ::close(to_server[1]);
    return Status::IoError("pipe() failed");
  }
  const size_t n = stream.order.size();
  std::vector<int64_t> sent_ns(n);
  std::vector<int64_t> received_ns(n);
  uint64_t out_of_order = 0;
  uint64_t mismatches = 0;
  uint64_t errors = 0;
  bool swap_acked = stream.swap_at >= n;

  Stopwatch wall;
  // Writer: frames go into the pipe in small writes; a frame counts as
  // sent when the write holding it starts.
  std::thread writer([&] {
    std::string buf;
    size_t unsent = 0;  // first frame not yet handed to the pipe
    for (size_t k = 0; k < n; ++k) {
      if (k == stream.swap_at) {
        buf += "{\"cmd\":\"swap\",\"model\":\"" +
               JsonEscape(stream.swap_path) + "\"}\n";
      }
      buf += "{\"id\":";
      buf += std::to_string(k + 1);
      buf += stream.tails[stream.order[k]];
      buf += '\n';
      if (buf.size() >= (16u << 10) || k + 1 == n) {
        const int64_t now = NowNs();
        for (; unsent <= k; ++unsent) sent_ns[unsent] = now;
        if (!WriteAll(to_server[1], buf.data(), buf.size())) break;
        buf.clear();
      }
    }
    ::close(to_server[1]);
  });
  // Reader: responses must come back in request order, with the swap
  // acknowledged exactly between the two halves.
  std::thread reader([&] {
    std::string pending;
    size_t k = 0;
    char chunk[1 << 16];
    for (;;) {
      const ssize_t got = ::read(from_server[0], chunk, sizeof(chunk));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) break;
      const int64_t now = NowNs();
      pending.append(chunk, static_cast<size_t>(got));
      size_t pos = 0;
      for (size_t nl; (nl = pending.find('\n', pos)) != std::string::npos;
           pos = nl + 1) {
        const std::string line = pending.substr(pos, nl - pos);
        if (line.rfind("{\"cmd\":\"swap\"", 0) == 0) {
          swap_acked = k == stream.swap_at &&
                       line.find("\"ok\":true") != std::string::npos;
          continue;
        }
        if (k >= n || IntAfter(line, "{\"id\":") != k + 1) {
          ++out_of_order;
          continue;
        }
        received_ns[k] = now;
        if (line.find("\"error\"") != std::string::npos) {
          ++errors;
        } else {
          const bool after = k >= stream.swap_at;
          const uint32_t row = stream.order[k];
          const double expected = after ? stream.expected_after[row]
                                        : stream.expected_before[row];
          if (IntAfter(line, "\"snapshot\":") != (after ? 2u : 1u) ||
              !SameBits(NumberAfter(line, "\"score\":"), expected)) {
            ++mismatches;
          }
        }
        ++k;
      }
      pending.erase(0, pos);
    }
    if (k != n) out_of_order += n - k;
  });

  Status served;
  {
    __gnu_cxx::stdio_filebuf<char> in_buf(to_server[0], std::ios::in,
                                          1 << 16);
    std::istream in(&in_buf);
    std::FILE* out = ::fdopen(from_server[1], "w");
    if (out == nullptr) {
      ::close(from_server[1]);
      served = Status::IoError("fdopen() failed");
    } else {
      TraceSpan span("serve.stdio_session");
      served = server.Run(in, out);
      std::fclose(out);  // EOF for the reader
    }
  }  // closes the read end, so a writer stuck on a full pipe gets EPIPE
  writer.join();
  reader.join();
  ::close(from_server[0]);
  TELCO_RETURN_NOT_OK(served);

  ReplayResult result;
  result.wall_s = wall.ElapsedSeconds();
  result.failed = errors;
  result.latencies_ms.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    if (received_ns[k] != 0) {
      result.latencies_ms.push_back(
          static_cast<double>(received_ns[k] - sent_ns[k]) / 1e6);
    }
  }
  if (out_of_order > 0) {
    report->Fail(StrFormat("stdio: %llu responses missing or out of order",
                           static_cast<unsigned long long>(out_of_order)));
  }
  if (mismatches > 0) {
    report->Fail(StrFormat(
        "stdio: %llu responses not bit-identical to the offline scores of "
        "their snapshot version",
        static_cast<unsigned long long>(mismatches)));
  }
  if (!swap_acked) {
    report->Fail("stdio: swap frame was not acknowledged between halves");
  }
  return result;
}

Status RunServeStdioReplay(const RunConfig& config, PhaseRecorder* phases,
                           Report* report) {
  ServeWorld world;
  TELCO_RETURN_NOT_OK(SetUpServe(config, phases, report, &world));

  // One pass is a seeded shuffle of the rows, repeated to the pass size,
  // with the swap to v2 before the middle frame.
  ReplayStream stream;
  stream.tails = world.tails;
  stream.expected_before = world.expected_v1;
  stream.expected_after = world.expected_v2;
  stream.swap_path = world.v2_path;
  const size_t frames = config.quick ? 4000 : 100000;
  Rng rng(config.seed);
  std::vector<uint32_t> rows(world.tails.size());
  for (uint32_t r = 0; r < rows.size(); ++r) rows[r] = r;
  while (stream.order.size() < frames) {
    for (size_t i = rows.size(); i > 1; --i) {
      std::swap(rows[i - 1], rows[rng.UniformInt(i)]);
    }
    const size_t take = std::min(rows.size(), frames - stream.order.size());
    stream.order.insert(stream.order.end(), rows.begin(),
                        rows.begin() + static_cast<std::ptrdiff_t>(take));
  }
  stream.swap_at = frames / 2;

  // The unit is one pass: the wall a `requests | serve` job of this size
  // waits for. Frame latency inside a saturated pipe is the pipe's fill
  // over the throughput, and flips with whichever side is the bottleneck,
  // so it is printed but is not the unit.
  Stopwatch measured;
  std::vector<double> walls_ms;
  std::vector<std::vector<double>> passes;  // frame latencies per pass
  while (walls_ms.size() < 3 ||
         measured.ElapsedSeconds() < config.seconds) {
    ResetPeakRss();
    phases->Begin(Phase::kUnit, phases->TraceNextUnit());
    TELCO_ASSIGN_OR_RETURN(
        ReplayResult pass,
        ReplayStdio(stream, world.v1, config.trace ? 100 : 0, report));
    phases->End();
    report->peak_rss_mb.push_back(PeakRssMb());
    walls_ms.push_back(pass.wall_s * 1e3);
    report->attempted += frames;
    report->failed += pass.failed;
    passes.push_back(std::move(pass.latencies_ms));
  }
  report->p50_ms = Median(walls_ms);
  report->latency_samples = walls_ms.size();
  report->throughput = static_cast<double>(frames) / report->p50_ms * 1e3;
  std::printf("# frame latency (median pass): p50=%.4f ms p90=%.4f ms "
              "p99=%.4f ms\n",
              MedianOfWindows(passes, 0.5), MedianOfWindows(passes, 0.9),
              MedianOfWindows(passes, 0.99));
  std::printf("# %zu passes of %zu frames, swap at frame %zu; wall ms:",
              walls_ms.size(), frames, stream.swap_at);
  for (const double wall : walls_ms) std::printf(" %.0f", wall);
  std::printf("\n");
  return Status::OK();
}

}  // namespace perfbench
}  // namespace telco
