#include "serve/model_router.h"

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../ml/ml_test_util.h"

namespace telco {
namespace {

std::shared_ptr<const ModelSnapshot> MakeSnapshot(uint64_t seed,
                                                  const std::string& label) {
  const Dataset data = ml_testing::LinearlySeparable(400, seed);
  RandomForestOptions options;
  options.num_trees = 8;
  options.min_samples_split = 20;
  RandomForest forest(options);
  EXPECT_TRUE(forest.Fit(data).ok());
  auto snapshot =
      ModelSnapshot::FromForest(std::move(forest), data.feature_names(), label);
  EXPECT_TRUE(snapshot.ok());
  return *snapshot;
}

ScoreRequest MakeRequest(uint64_t id, std::string model,
                         const std::vector<double>& features) {
  ScoreRequest request;
  request.id = id;
  request.imsi = static_cast<int64_t>(1000 + id);
  request.model = std::move(model);
  request.features = features;
  return request;
}

// Requests carrying a model name score against exactly that route's
// snapshot; the default route ("") keeps serving its own model.
TEST(ModelRouterTest, RoutesByNameWithBitExactScores) {
  auto snap_default = MakeSnapshot(6001, "default");
  auto snap_challenger = MakeSnapshot(6002, "challenger");
  ASSERT_NE(snap_default->fingerprint(), snap_challenger->fingerprint());

  ModelRouter router;
  EXPECT_EQ(router.Publish("", snap_default), 1u);
  EXPECT_EQ(router.Publish("challenger", snap_challenger), 1u);

  const Dataset data = ml_testing::LinearlySeparable(150, 6003);
  for (size_t r = 0; r < data.num_rows(); ++r) {
    const auto row = data.Row(r);
    const std::vector<double> features(row.begin(), row.end());

    auto via_default = router.Submit(MakeRequest(r, "", features));
    ASSERT_TRUE(via_default.ok()) << via_default.status().ToString();
    auto via_challenger =
        router.Submit(MakeRequest(r, "challenger", features));
    ASSERT_TRUE(via_challenger.ok()) << via_challenger.status().ToString();

    const ScoreOutcome d = via_default->get();
    const ScoreOutcome c = via_challenger->get();
    ASSERT_TRUE(d.status.ok()) << d.status.ToString();
    ASSERT_TRUE(c.status.ok()) << c.status.ToString();
    EXPECT_EQ(d.score, snap_default->Score(row)) << "row " << r;
    EXPECT_EQ(c.score, snap_challenger->Score(row)) << "row " << r;
    EXPECT_EQ(d.model_fingerprint, snap_default->fingerprint());
    EXPECT_EQ(c.model_fingerprint, snap_challenger->fingerprint());
    // Route-local version counters: each route is on its own v1.
    EXPECT_EQ(d.snapshot_version, 1u);
    EXPECT_EQ(c.snapshot_version, 1u);
  }
}

// A name that has never been published fails fast with NotFound — a
// typo'd segment must never silently score against the default model.
TEST(ModelRouterTest, UnknownModelIsNotFound) {
  ModelRouter router;
  // Before any publish even the default route does not exist.
  auto unrouted = router.Submit(MakeRequest(1, "", {0.1, 0.2}));
  ASSERT_FALSE(unrouted.ok());
  EXPECT_TRUE(unrouted.status().IsNotFound()) << unrouted.status().ToString();

  router.Publish("", MakeSnapshot(6101, "only-default"));
  auto typo = router.Submit(MakeRequest(2, "chalenger", {0.1, 0.2}));
  ASSERT_FALSE(typo.ok());
  EXPECT_TRUE(typo.status().IsNotFound()) << typo.status().ToString();

  std::promise<Status> called;
  const Status submitted = router.SubmitWithCallback(
      MakeRequest(3, "chalenger", {0.1, 0.2}),
      [&called](ScoreOutcome outcome) { called.set_value(outcome.status); });
  EXPECT_TRUE(submitted.IsNotFound()) << submitted.ToString();
  // A rejected submit must never invoke the callback.
  auto future = called.get_future();
  EXPECT_EQ(future.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);

  EXPECT_FALSE(router.HasRoute("chalenger"));
  EXPECT_TRUE(router.HasRoute(""));
}

TEST(ModelRouterTest, RouteNamesSortedDefaultFirst) {
  ModelRouter router;
  EXPECT_TRUE(router.RouteNames().empty());
  router.Publish("beta", MakeSnapshot(6201, "b"));
  router.Publish("", MakeSnapshot(6202, "d"));
  router.Publish("alpha", MakeSnapshot(6203, "a"));
  const std::vector<std::string> names = router.RouteNames();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "");
  EXPECT_EQ(names[1], "alpha");
  EXPECT_EQ(names[2], "beta");

  auto registry = router.RouteRegistry("alpha");
  ASSERT_TRUE(registry.ok());
  EXPECT_NE(*registry, nullptr);
  EXPECT_TRUE(router.RouteRegistry("gamma").status().IsNotFound());
}

// Stats reports each route's live snapshot and its own executor's
// counters — scoring one route must not move another route's numbers.
TEST(ModelRouterTest, StatsTracksPerRouteCountersAndVersions) {
  auto snap_default = MakeSnapshot(6401, "stats-default");
  auto snap_canary = MakeSnapshot(6402, "stats-canary");
  ModelRouterOptions options;
  options.executor.max_batch_size = 4;
  ModelRouter router(options);
  router.Publish("", snap_default);
  router.Publish("canary", snap_canary);
  router.Publish("canary", snap_canary);  // canary route advances to v2

  const Dataset data = ml_testing::LinearlySeparable(9, 6403);
  for (size_t r = 0; r < data.num_rows(); ++r) {
    const auto row = data.Row(r);
    auto future = router.Submit(
        MakeRequest(r, "canary", std::vector<double>(row.begin(), row.end())));
    ASSERT_TRUE(future.ok());
    EXPECT_TRUE(future->get().status.ok());
  }
  // One short row: fails inside the batch but still counts as scored
  // work the canary route handled.
  auto bad = router.Submit(MakeRequest(99, "canary", {1.0}));
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad->get().status.ok());

  const std::vector<ModelRouter::RouteStats> stats = router.Stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "");
  EXPECT_EQ(stats[0].snapshot_version, 1u);
  EXPECT_EQ(stats[0].label, "stats-default");
  EXPECT_EQ(stats[0].fingerprint, snap_default->fingerprint());
  EXPECT_EQ(stats[0].scored, 0u);
  EXPECT_EQ(stats[0].rejected, 0u);
  EXPECT_EQ(stats[1].name, "canary");
  EXPECT_EQ(stats[1].snapshot_version, 2u);
  EXPECT_EQ(stats[1].label, "stats-canary");
  EXPECT_EQ(stats[1].scored, data.num_rows() + 1);
  EXPECT_EQ(stats[1].queue_depth, 0u);
  EXPECT_EQ(stats[1].rejected, 0u);
}

// Two named routes hot-swap independently under concurrent submit load:
// every outcome's (version, fingerprint, score) triple stays internally
// consistent per route, and one route's swaps never advance the other
// route's version counter.
TEST(ModelRouterTest, IndependentHotSwapUnderConcurrentLoad) {
  // Per route: version 1 = X, then publish k >= 2 alternates Y (k even)
  // and X (k odd), so the version's parity names the exact model.
  auto alpha_x = MakeSnapshot(6301, "alpha-x");
  auto alpha_y = MakeSnapshot(6302, "alpha-y");
  auto beta_x = MakeSnapshot(6303, "beta-x");
  auto beta_y = MakeSnapshot(6304, "beta-y");
  ASSERT_NE(alpha_x->fingerprint(), alpha_y->fingerprint());
  ASSERT_NE(beta_x->fingerprint(), beta_y->fingerprint());

  const Dataset data = ml_testing::LinearlySeparable(300, 6305);
  auto expected = [&](const ModelSnapshot& snapshot) {
    std::vector<double> scores(data.num_rows());
    for (size_t r = 0; r < data.num_rows(); ++r) {
      scores[r] = snapshot.Score(data.Row(r));
    }
    return scores;
  };
  const std::vector<double> expect_ax = expected(*alpha_x);
  const std::vector<double> expect_ay = expected(*alpha_y);
  const std::vector<double> expect_bx = expected(*beta_x);
  const std::vector<double> expect_by = expected(*beta_y);

  ModelRouterOptions options;
  options.executor.max_batch_size = 17;
  ModelRouter router(options);
  router.Publish("alpha", alpha_x);
  router.Publish("beta", beta_x);

  std::atomic<bool> done{false};
  std::thread alpha_swapper([&] {
    for (int k = 2; !done.load(); ++k) {
      router.Publish("alpha", k % 2 == 0 ? alpha_y : alpha_x);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::thread beta_swapper([&] {
    for (int k = 2; !done.load(); ++k) {
      router.Publish("beta", k % 2 == 0 ? beta_y : beta_x);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  struct RouteCase {
    const char* name;
    const ModelSnapshot* x;
    const ModelSnapshot* y;
    const std::vector<double>* expect_x;
    const std::vector<double>* expect_y;
  };
  const RouteCase cases[] = {
      {"alpha", alpha_x.get(), alpha_y.get(), &expect_ax, &expect_ay},
      {"beta", beta_x.get(), beta_y.get(), &expect_bx, &expect_by},
  };

  constexpr size_t kRounds = 2;
  std::vector<std::thread> submitters;
  std::atomic<size_t> swapped_responses{0};
  for (const RouteCase& c : cases) {
    submitters.emplace_back([&, c] {
      for (size_t round = 0; round < kRounds; ++round) {
        std::vector<std::future<ScoreOutcome>> futures;
        std::vector<size_t> future_rows;
        for (size_t r = 0; r < data.num_rows(); ++r) {
          const auto row = data.Row(r);
          while (true) {
            auto submitted = router.Submit(MakeRequest(
                r, c.name, std::vector<double>(row.begin(), row.end())));
            if (submitted.ok()) {
              futures.push_back(std::move(*submitted));
              future_rows.push_back(r);
              break;
            }
            ASSERT_TRUE(submitted.status().IsUnavailable())
                << submitted.status().ToString();
          }
        }
        for (size_t i = 0; i < futures.size(); ++i) {
          const ScoreOutcome outcome = futures[i].get();
          const size_t r = future_rows[i];
          ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
          const bool is_x = outcome.snapshot_version % 2 == 1;
          const ModelSnapshot* model = is_x ? c.x : c.y;
          const std::vector<double>& expect =
              is_x ? *c.expect_x : *c.expect_y;
          ASSERT_EQ(outcome.model_fingerprint, model->fingerprint())
              << c.name << " row " << r << " v" << outcome.snapshot_version;
          ASSERT_EQ(outcome.score, expect[r])
              << c.name << " row " << r << " v" << outcome.snapshot_version;
          if (outcome.snapshot_version >= 2) swapped_responses.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  done.store(true);
  alpha_swapper.join();
  beta_swapper.join();
  router.DrainAll();
  // The swap storm actually landed mid-stream on at least one route.
  EXPECT_GT(swapped_responses.load(), 0u);

  // Independence: each route's registry advanced only through its own
  // publishes — republishing alpha must not disturb beta's counter.
  auto alpha_registry = router.RouteRegistry("alpha");
  auto beta_registry = router.RouteRegistry("beta");
  ASSERT_TRUE(alpha_registry.ok() && beta_registry.ok());
  const uint64_t beta_version = (*beta_registry)->current_version();
  router.Publish("alpha", alpha_x);
  EXPECT_EQ((*beta_registry)->current_version(), beta_version);
}

}  // namespace
}  // namespace telco
