#!/bin/sh
# Builds the TCP serving stack under ThreadSanitizer and soaks its
# concurrent surfaces: the epoll reader threads' connection ownership
# handoff (acceptor -> reader via the incoming queue + eventfd wake),
# executor completion callbacks racing reader-side flushes on the
# per-connection slot queue, the ModelRouter's route creation under
# concurrent Publish/Submit, and mid-stream named-model hot swaps while
# multiple clients stream requests, with batch scoring running
# BinnedForest::PredictProbaInto on the pool workers. A data race here
# corrupts response ordering or a served score; TSan fails it in CI
# instead.
#
# Usage: scripts/tsan_tcp_serve.sh [build-dir]   (default: build-tsan)
# The build dir is shared with tsan_serve.sh so CI pays for one
# sanitizer configure/build, not two.
set -e

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTELCO_SANITIZE=thread
cmake --build "$BUILD_DIR" \
    --target telco_serve_test telco_integration_test \
    -j "$(nproc)"
cd "$BUILD_DIR"

# The full TCP wire suite plus the router's concurrency tests, once.
# This includes the idle-reaper test (reader-thread sweep racing
# executor callbacks) and the binned-engine wire-parity test.
ctest -R 'TcpServe|ModelRouter' --output-on-failure -j "$(nproc)"

# Swap-storm soak: the two tests whose schedules matter most — named
# routes hot-swapped while clients stream (wire level) and while
# submitters hammer the router (executor level). Repeat so TSan sees
# the interleavings where a publish lands mid-batch or a callback races
# the reader's flush.
ctest -R 'TcpServeTest.ConcurrentNamedSwapStormKeepsBitParity|ModelRouterTest.IndependentHotSwapUnderConcurrentLoad' \
    --output-on-failure --repeat until-fail:5

# Observability soak: flight recorder ticking at millisecond cadence
# plus a metrics-port scraper hammering Snapshot()/ToPrometheusText
# while the same swap storm runs — registry shard merges, the stage
# histograms' concurrent Observe calls, and the HTTP endpoint thread
# all race the serving data plane here.
ctest -R 'TcpServeTest.ObservabilitySoakUnderSwapStorm' \
    --output-on-failure --repeat until-fail:5
