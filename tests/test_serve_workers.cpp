// QueryService worker pool (docs/serving.md, "Admission and execution").
//
// The service's workers pop the admission queue one request at a time, so
// a slow query occupies one worker and nothing else: a query submitted
// behind it is answered by another worker at once instead of waiting for
// a batch barrier. And stop() with several workers and several blocked
// submitters in flight must still resolve every admitted future.
//
// Runs under TSan in CI (the `serve` label).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "index/gs_index.hpp"
#include "serve/query_service.hpp"
#include "util/fault_point.hpp"

namespace ppscan {
namespace {

using serve::QueryResponse;
using serve::QueryService;
using serve::ServiceOptions;
using Clock = std::chrono::steady_clock;

class FaultArmed : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fault::compiled_in()) {
      GTEST_SKIP() << "fault points compiled out (PPSCAN_FAULTS=OFF)";
    }
    fault::reset();
  }
  void TearDown() override {
    if (fault::compiled_in()) fault::reset();
  }
};

// Head-of-line regression: with two workers, a query stalled 400 ms inside
// execute() must not delay a second query submitted 20 ms later. Under a
// batch barrier the second query waited for the first (~400 ms).
TEST_F(FaultArmed, SlowQueryDoesNotDelayTheNextOne) {
  const auto g = erdos_renyi(400, 3200, 71);
  const GsIndex index(g);
  ServiceOptions options;
  options.num_threads = 2;
  options.cache_results = false;
  QueryService service(index, options);

  fault::Spec slow;
  slow.action = fault::Action::Sleep;
  slow.sleep_ms = 400;
  slow.max_fires = 1;
  fault::arm("serve.execute", slow);

  const auto ms_since = [](Clock::time_point t) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
  };
  const auto first_sent = Clock::now();
  auto first = service.submit(ScanParams::make("0.5", 2));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto second_sent = Clock::now();
  const QueryResponse second =
      service.submit(ScanParams::make("0.6", 3)).get();
  const double second_ms = ms_since(second_sent);
  const QueryResponse slow_answer = first.get();
  const double first_ms = ms_since(first_sent);

  // The scenario really ran: the first query took the stall.
  EXPECT_EQ(fault::fire_count("serve.execute"), 1u);
  EXPECT_GE(first_ms, 400.0);
  ASSERT_NE(slow_answer.run, nullptr);
  EXPECT_EQ(slow_answer.classified_reason, AbortReason::None);

  ASSERT_NE(second.run, nullptr);
  EXPECT_EQ(second.classified_reason, AbortReason::None);
  EXPECT_LT(second_ms, 150.0);
}

// stop() racing four blocking submitters on four workers: each submission
// is either refused (ServiceStoppedError) or admitted, and every admitted
// future resolves with an answer — never a hang, never a broken promise.
TEST(QueryServiceWorkers, StopRacesBlockingSubmitters) {
  const auto g = erdos_renyi(2000, 16000, 73);
  const GsIndex index(g);
  ServiceOptions options;
  options.num_threads = 4;
  options.queue_capacity = 4;  // small, so submitters park on backpressure
  options.cache_results = false;
  QueryService service(index, options);

  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 50;
  std::atomic<int> delivered{0};
  std::atomic<int> refused{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      std::vector<std::future<QueryResponse>> futures;
      for (int i = 0; i < kPerSubmitter; ++i) {
        ScanParams p;
        p.eps = EpsRational{static_cast<std::uint64_t>((s * 7 + i) % 19) + 1,
                            20};
        p.mu = 2 + static_cast<std::uint32_t>(i % 3);
        try {
          futures.push_back(service.submit(p));
        } catch (const serve::ServiceStoppedError&) {
          refused.fetch_add(1);
        }
      }
      for (auto& f : futures) {
        const QueryResponse r = f.get();  // throws on a broken promise
        if (r.run != nullptr) delivered.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.stop();
  for (auto& t : submitters) t.join();

  EXPECT_GT(delivered.load(), 0);
  EXPECT_EQ(delivered.load() + refused.load(), kSubmitters * kPerSubmitter);
  EXPECT_EQ(service.snapshot().completed,
            static_cast<std::uint64_t>(delivered.load()));
}

}  // namespace
}  // namespace ppscan
