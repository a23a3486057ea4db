#include "common/profiler.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/status.h"
#include "common/telemetry.h"
#include "data/synthetic.h"
#include "market/curves.h"
#include "market/market_simulator.h"
#include "market/marketplace.h"
#include "one_shard_catalog.h"
#include "service/service.h"

namespace nimbus::prof {

// External linkage on purpose: -rdynamic only exports non-static
// symbols, and the sampled-frame test greps the folded output for this
// name. noinline keeps the frame from being folded into the caller.
__attribute__((noinline)) double BusySpinForProfilerTest(double cpu_seconds) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(cpu_seconds);
  volatile double sink = 1.0;
  while (std::chrono::steady_clock::now() < until) {
    for (int i = 0; i < 4096; ++i) {
      sink = sink * 1.0000001 + 0.5;
    }
  }
  return sink;
}

namespace {

TEST(CpuProfilerTest, StartStopStartLifecycleIsIdempotent) {
  CpuProfiler& profiler = CpuProfiler::Global();
  ASSERT_TRUE(profiler.Stop().ok());  // Clean slate; idempotent no-op.
  EXPECT_FALSE(profiler.running());

  ASSERT_TRUE(profiler.Start().ok());
  EXPECT_TRUE(profiler.running());
  // Double start is a typed error, not a second timer.
  EXPECT_EQ(profiler.Start().code(), StatusCode::kFailedPrecondition);

  EXPECT_TRUE(profiler.Stop().ok());
  EXPECT_FALSE(profiler.running());
  EXPECT_TRUE(profiler.Stop().ok());  // Stop of stopped: OK.

  // The pair never wedges: a fresh window starts fine.
  ASSERT_TRUE(profiler.Start().ok());
  EXPECT_TRUE(profiler.Stop().ok());
}

TEST(CpuProfilerTest, RejectsAbsurdSampleRates) {
  CpuProfiler& profiler = CpuProfiler::Global();
  EXPECT_EQ(profiler.Start(0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(profiler.Start(-7).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(profiler.Start(100000).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(profiler.running());
}

TEST(CpuProfilerTest, BusySpinThreadShowsUpInFoldedStacks) {
  CpuProfiler& profiler = CpuProfiler::Global();
  ASSERT_TRUE(profiler.Start().ok());
  BusySpinForProfilerTest(0.6);
  ASSERT_TRUE(profiler.Stop().ok());

  // 0.6 s of CPU at 199 Hz is ~120 samples; demand a loose floor so a
  // loaded CI machine (CPU-time clock, not wall) still passes.
  EXPECT_GT(profiler.SampleCount(), 10);
  const std::string folded = profiler.FoldedText();
  ASSERT_FALSE(folded.empty());
  EXPECT_NE(folded.find("BusySpinForProfilerTest"), std::string::npos)
      << folded.substr(0, 2000);
  // Folded lines end in a space-separated count.
  const size_t newline = folded.find('\n');
  ASSERT_NE(newline, std::string::npos);
  const std::string first = folded.substr(0, newline);
  const size_t space = first.rfind(' ');
  ASSERT_NE(space, std::string::npos);
  EXPECT_GT(std::atoll(first.c_str() + space + 1), 0);
}

TEST(CpuProfilerTest, OverheadStaysUnderTwoPercent) {
  CpuProfiler& profiler = CpuProfiler::Global();
  ASSERT_TRUE(profiler.Start().ok());
  BusySpinForProfilerTest(0.5);
  ASSERT_TRUE(profiler.Stop().ok());
  // The acceptance bound for the whole feature: sampling at the default
  // 199 Hz must cost well under 2% of the process's CPU time. The
  // handler is a slot claim + backtrace + two clock reads, so the
  // measured ratio lands around 0.1%; 2% is the contract.
  EXPECT_LT(profiler.last_overhead_ratio(), 0.02);
  EXPECT_GE(profiler.last_overhead_ratio(), 0.0);

  // Stop published the gauge.
  const auto snapshot = telemetry::Registry::Global().Snapshot();
  bool found = false;
  for (const auto& entry : snapshot) {
    if (entry.name == "profiler_overhead_ratio") {
      found = true;
      EXPECT_LT(entry.gauge_value, 0.02);
    }
  }
  EXPECT_TRUE(found);
}

market::Marketplace MakeMarket() {
  Rng rng(41);
  data::ClassificationSpec spec;
  spec.num_examples = 200;
  spec.num_features = 4;
  spec.positive_prob = 0.9;
  data::Dataset all = data::GenerateClassification(spec, rng);
  market::Broker::Options options;
  options.error_curve_points = 6;
  options.samples_per_curve_point = 40;
  options.min_inverse_ncp = 1.0;
  options.max_inverse_ncp = 50.0;
  market::Marketplace market(data::Split(all, 0.75, rng), options);
  auto points = market::MakeBuyerPoints(market::ValueShape::kConcave,
                                        market::DemandShape::kUniform, 10, 1.0,
                                        50.0, 80.0, 2.0);
  market::Seller seller = *market::Seller::Create(*points);
  EXPECT_TRUE(market
                  .AddOffering(ml::ModelKind::kLogisticRegression, 0.01,
                               *seller.NegotiatePricing())
                  .ok());
  return market;
}

// Serves one fixed request stream through a fresh one-shard catalog
// (journaled, four workers) and returns the drained ledger's CSV.
std::string ServeFixedStream() {
  constexpr int kRequests = 4000;
  testutil::OneShardCatalog store([] { return MakeMarket(); });
  service::ServiceOptions options;
  options.num_workers = 4;
  options.queue_capacity = kRequests;
  service::MarketService service(store.catalog(), options);
  EXPECT_TRUE(service.Start().ok());
  std::vector<std::future<service::PurchaseResult>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    service::PurchaseRequest request;
    request.buyer_id = "buyer-" + std::to_string(i % 7);
    request.model = ml::ModelKind::kLogisticRegression;
    request.inverse_ncp = 1.5 + static_cast<double>(i % 37);
    futures.push_back(service.Submit(std::move(request)));
  }
  for (auto& future : futures) {
    const service::PurchaseResult result = future.get();
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  }
  EXPECT_TRUE(service.Drain().ok());
  return store.market().ledger().ToCsv();
}

// Profiling is observation-only: SIGPROF landing on the serving threads
// (mid-quote, mid-journal-write) must not change a single booked byte.
TEST(CpuProfilerTest, ProfilingIsObservationOnly) {
  const std::string off = ServeFixedStream();
  CpuProfiler& profiler = CpuProfiler::Global();
  ASSERT_TRUE(profiler.Start(1000).ok());
  const std::string on = ServeFixedStream();
  ASSERT_TRUE(profiler.Stop().ok());
  EXPECT_GT(profiler.SampleCount(), 0);
  EXPECT_NE(off.find('\n'), std::string::npos);
  EXPECT_EQ(on, off);
}

TEST(CpuProfilerTest, ConcurrentStartScrapeStopIsSafe) {
  // Race certification (in a TSan tree, profiler_test runs under it): readers
  // fold mid-window while two control threads fight over Start/Stop and
  // a spinner keeps SIGPROF firing. No assertion beyond "no crash, no
  // race" — the interleaving is nondeterministic by design.
  CpuProfiler& profiler = CpuProfiler::Global();
  ASSERT_TRUE(profiler.Stop().ok());
  std::atomic<bool> done{false};
  std::thread spinner([&] {
    while (!done.load(std::memory_order_relaxed)) {
      BusySpinForProfilerTest(0.02);
    }
  });
  std::vector<std::thread> controllers;
  for (int t = 0; t < 2; ++t) {
    controllers.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        (void)profiler.Start();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        (void)profiler.Stop();
      }
    });
  }
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        (void)profiler.FoldedText();
        (void)profiler.SampleCount();
        (void)profiler.last_overhead_ratio();
        (void)profiler.running();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  for (auto& t : controllers) {
    t.join();
  }
  for (auto& t : readers) {
    t.join();
  }
  done.store(true, std::memory_order_relaxed);
  spinner.join();
  EXPECT_TRUE(profiler.Stop().ok());
}

TEST(CollectProfileTest, ParsesTypesAndRejectsGarbage) {
  EXPECT_EQ(*ParseProfileType("cpu"), ProfileType::kCpu);
  EXPECT_EQ(*ParseProfileType("contention"), ProfileType::kContention);
  EXPECT_EQ(*ParseProfileType("alloc"), ProfileType::kAlloc);
  EXPECT_EQ(ParseProfileType("heap").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseProfileType("").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CollectProfileTest, RejectsNonPositiveAndHugeWindows) {
  EXPECT_EQ(CollectProfile(ProfileType::kCpu, 0.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CollectProfile(ProfileType::kCpu, -1.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CollectProfile(ProfileType::kCpu, 1e6).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CollectProfileTest, SecondConcurrentWindowIsUnavailable) {
  std::atomic<bool> abort{false};
  auto first = std::async(std::launch::async, [&] {
    return CollectProfile(ProfileType::kCpu, 30.0, CpuProfiler::kDefaultHz,
                          &abort);
  });
  // Wait until the first window owns the single-flight slot (a cpu
  // window arms the global sampler, so running() is the signal — no
  // probing that could itself race for the slot).
  for (int i = 0; i < 1000 && !CpuProfiler::Global().running(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(CpuProfiler::Global().running());
  const StatusOr<std::string> second =
      CollectProfile(ProfileType::kContention, 0.05);
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
  abort.store(true, std::memory_order_release);
  const StatusOr<std::string> result = first.get();
  // The aborted window still returns whatever it captured.
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // The slot is free again.
  EXPECT_TRUE(CollectProfile(ProfileType::kContention, 0.05).ok());
}

TEST(CollectProfileTest, ContentionWindowReportsNamedMutexDeltas) {
  std::atomic<bool> done{false};
  ProfiledMutex mu("profiler_test_hammer");
  std::vector<std::thread> hammers;
  for (int t = 0; t < 3; ++t) {
    hammers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        std::lock_guard<ProfiledMutex> lock(mu);
        volatile int spin = 0;
        for (int i = 0; i < 2000; ++i) {
          spin = spin + i;
        }
      }
    });
  }
  const StatusOr<std::string> report =
      CollectProfile(ProfileType::kContention, 0.3);
  done.store(true, std::memory_order_relaxed);
  for (auto& t : hammers) {
    t.join();
  }
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("# nimbus contention profile"), std::string::npos);
  EXPECT_NE(report->find("mutex=profiler_test_hammer"), std::string::npos)
      << *report;
  // Three threads fighting over one lock for 300 ms must contend.
  const size_t line_start = report->find("mutex=profiler_test_hammer");
  const size_t line_end = report->find('\n', line_start);
  const std::string line = report->substr(line_start, line_end - line_start);
  EXPECT_EQ(line.find("contended=0 "), std::string::npos) << line;
}

TEST(ProfiledMutexTest, FeedsAcquisitionAndContentionCounters) {
  ProfiledMutex mu("profiler_test_counts");
  {
    std::lock_guard<ProfiledMutex> lock(mu);
  }
  EXPECT_TRUE(mu.try_lock());
  EXPECT_FALSE(mu.try_lock());
  mu.unlock();

  const auto snapshot = telemetry::Registry::Global().Snapshot();
  double acquisitions = 0.0;
  for (const auto& entry : snapshot) {
    if (entry.name != "mutex_acquisitions_total") {
      continue;
    }
    EXPECT_EQ(entry.label_key, "mutex");
    for (const auto& series : entry.series) {
      if (series.label == "profiler_test_counts") {
        acquisitions = series.counter_value;
      }
    }
  }
  // lock() + successful try_lock() — the failed try_lock counts nothing.
  EXPECT_GE(acquisitions, 2.0);
}

TEST(ProfiledMutexTest, WorksWithConditionVariableAny) {
  ProfiledMutex mu("profiler_test_cv");
  std::condition_variable_any cv;
  bool ready = false;
  std::thread waiter([&] {
    std::unique_lock<ProfiledMutex> lock(mu);
    cv.wait(lock, [&] { return ready; });
  });
  {
    std::lock_guard<ProfiledMutex> lock(mu);
    ready = true;
  }
  cv.notify_one();
  waiter.join();
}

TEST(AllocTrackingTest, TalliesGrowWhenCompiledIn) {
  if (!AllocTrackingEnabled()) {
    GTEST_SKIP() << "alloc tracking compiled out (sanitizer build)";
  }
  const AllocStats before = ThreadAllocStats();
  {
    std::vector<std::string> strings;
    for (int i = 0; i < 64; ++i) {
      strings.push_back(std::string(256, 'x'));
    }
  }
  const AllocStats after = ThreadAllocStats();
  EXPECT_GT(after.allocs, before.allocs);
  EXPECT_GE(after.alloc_bytes - before.alloc_bytes, 64 * 256);
  EXPECT_GT(after.frees, before.frees);

  const AllocStats global = GlobalAllocStats();
  EXPECT_GE(global.allocs, after.allocs);
}

TEST(AllocTrackingTest, ScopedSampleAttributesToSite) {
  if (!AllocTrackingEnabled()) {
    GTEST_SKIP() << "alloc tracking compiled out (sanitizer build)";
  }
  {
    ScopedAllocSample sample("profiler_test_site");
    std::vector<std::string> strings;
    for (int i = 0; i < 16; ++i) {
      strings.push_back(std::string(512, 'y'));
    }
  }
  const auto snapshot = telemetry::Registry::Global().Snapshot();
  double site_bytes = 0.0;
  for (const auto& entry : snapshot) {
    if (entry.name != "alloc_site_bytes_total") {
      continue;
    }
    for (const auto& series : entry.series) {
      if (series.label == "profiler_test_site") {
        site_bytes = series.counter_value;
      }
    }
  }
  EXPECT_GE(site_bytes, 16 * 512);
}

TEST(AllocTrackingTest, PublishMetricsMirrorsGaugesIntoRegistry) {
  PublishMetrics();
  const auto snapshot = telemetry::Registry::Global().Snapshot();
  bool saw_enabled_flag = false;
  bool saw_allocs = false;
  for (const auto& entry : snapshot) {
    if (entry.name == "alloc_tracking_enabled") {
      saw_enabled_flag = true;
      EXPECT_EQ(entry.gauge_value, AllocTrackingEnabled() ? 1.0 : 0.0);
    }
    if (entry.name == "alloc_allocs_total") {
      saw_allocs = true;
      if (AllocTrackingEnabled()) {
        EXPECT_GT(entry.gauge_value, 0.0);
      }
    }
  }
  EXPECT_TRUE(saw_enabled_flag);
  EXPECT_TRUE(saw_allocs);
}

}  // namespace
}  // namespace nimbus::prof
