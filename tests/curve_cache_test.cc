#include "market/curve_cache.h"

#include <atomic>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/math_util.h"
#include "common/random.h"
#include "data/synthetic.h"
#include "market/curves.h"
#include "market/market_simulator.h"
#include "market/marketplace.h"
#include "mechanism/noise_mechanism.h"
#include "pricing/error_curve.h"

namespace nimbus::market {
namespace {

CurveKey MakeKey(const std::string& loss = "squared", uint64_t seed = 7) {
  CurveKey key;
  key.dataset_fingerprint = 0xabcdef0123456789ull;
  key.model = "linear_regression";
  key.mechanism = "gaussian";
  key.loss = loss;
  key.seed = seed;
  key.min_inverse_ncp = 1.0;
  key.max_inverse_ncp = 50.0;
  key.grid_points = 8;
  key.samples_per_point = 50;
  return key;
}

pricing::ErrorCurve MakeCurve(double scale = 1.0) {
  return *pricing::ErrorCurve::FromSamples({{1.0, 10.0 * scale},
                                            {2.0, 6.0 * scale},
                                            {4.0, 3.0 * scale},
                                            {8.0, 1.0 * scale}});
}

// A builder whose completion the test controls: it blocks inside build()
// until Release() and counts its invocations.
class GatedBuilder {
 public:
  CurveCache::Builder MakeOk(double scale = 1.0) {
    return [this, scale]() -> StatusOr<pricing::ErrorCurve> {
      Enter();
      return MakeCurve(scale);
    };
  }

  CurveCache::Builder MakeFailing() {
    return [this]() -> StatusOr<pricing::ErrorCurve> {
      Enter();
      return InternalError("gated build failed");
    };
  }

  // Blocks until a builder thread is inside build().
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

  int calls() const { return calls_.load(); }

 private:
  void Enter() {
    std::unique_lock<std::mutex> lock(mu_);
    calls_.fetch_add(1);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
  std::atomic<int> calls_{0};
};

TEST(CurveCacheTest, MissBuildsThenHitsShareOneEntry) {
  CurveCache cache;
  const CurveKey key = MakeKey();
  EXPECT_EQ(cache.VersionOf(key), 0);

  int builds = 0;
  auto build = [&]() -> StatusOr<pricing::ErrorCurve> {
    ++builds;
    return MakeCurve();
  };
  StatusOr<std::shared_ptr<const pricing::ErrorCurve>> first =
      cache.GetOrBuild(key, build);
  ASSERT_TRUE(first.ok());
  StatusOr<std::shared_ptr<const pricing::ErrorCurve>> second =
      cache.GetOrBuild(key, build);
  ASSERT_TRUE(second.ok());

  EXPECT_EQ(builds, 1);
  EXPECT_EQ(first->get(), second->get());  // Same immutable object.
  EXPECT_EQ(cache.VersionOf(key), 1);
  EXPECT_EQ(cache.size(), 1u);
  const CurveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.builds, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.build_failures, 0);
}

TEST(CurveCacheTest, DistinctKeysGetDistinctEntries) {
  CurveCache cache;
  auto build_a = []() -> StatusOr<pricing::ErrorCurve> {
    return MakeCurve(1.0);
  };
  auto build_b = []() -> StatusOr<pricing::ErrorCurve> {
    return MakeCurve(2.0);
  };
  // Same key except the seed — e.g. two offerings of one marketplace.
  ASSERT_TRUE(cache.GetOrBuild(MakeKey("squared", 7), build_a).ok());
  ASSERT_TRUE(cache.GetOrBuild(MakeKey("squared", 8), build_b).ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(MakeKey("squared", 7).ToString(), MakeKey("squared", 8).ToString());
  EXPECT_EQ(cache.stats().builds, 2);
}

TEST(CurveCacheTest, SingleFlightUnderConcurrentColdRequests) {
  CurveCache cache;
  const CurveKey key = MakeKey();
  GatedBuilder gate;

  constexpr int kThreads = 8;
  std::vector<std::future<StatusOr<std::shared_ptr<const pricing::ErrorCurve>>>>
      results;
  for (int i = 0; i < kThreads; ++i) {
    results.push_back(std::async(std::launch::async, [&] {
      return cache.GetOrBuild(key, gate.MakeOk());
    }));
  }
  // One thread is inside the (blocked) build; every other requester is
  // parked on the in-flight wait. Releasing the gate commits exactly one
  // curve that all of them share.
  gate.AwaitEntered();
  gate.Release();

  const pricing::ErrorCurve* shared = nullptr;
  for (auto& result : results) {
    StatusOr<std::shared_ptr<const pricing::ErrorCurve>> curve = result.get();
    ASSERT_TRUE(curve.ok());
    if (shared == nullptr) {
      shared = curve->get();
    }
    EXPECT_EQ(curve->get(), shared);
  }
  EXPECT_EQ(gate.calls(), 1);
  const CurveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.builds, 1);
  EXPECT_EQ(stats.misses, 1);
  // Every non-builder eventually returns through the hit branch, whether
  // it parked on the in-flight build first or arrived after the commit.
  EXPECT_EQ(stats.hits, kThreads - 1);
  EXPECT_EQ(cache.VersionOf(key), 1);
}

TEST(CurveCacheTest, WaitersSeeFailedBuildStatusAndNextCallerRetries) {
  CurveCache cache;
  const CurveKey key = MakeKey();
  GatedBuilder gate;

  auto builder_future = std::async(std::launch::async, [&] {
    return cache.GetOrBuild(key, gate.MakeFailing());
  });
  gate.AwaitEntered();
  auto waiter_future = std::async(std::launch::async, [&] {
    return cache.GetOrBuild(key, gate.MakeFailing());
  });
  // Give the waiter time to park on the in-flight build, then fail it.
  while (cache.stats().inflight_waits == 0) {
    std::this_thread::yield();
  }
  gate.Release();

  StatusOr<std::shared_ptr<const pricing::ErrorCurve>> built =
      builder_future.get();
  StatusOr<std::shared_ptr<const pricing::ErrorCurve>> waited =
      waiter_future.get();
  EXPECT_EQ(built.status().code(), StatusCode::kInternal);
  // The waiter gets the failed build's status — it never becomes a
  // silent second builder.
  EXPECT_EQ(waited.status().code(), StatusCode::kInternal);
  EXPECT_EQ(gate.calls(), 1);
  EXPECT_EQ(cache.stats().build_failures, 1);
  EXPECT_EQ(cache.VersionOf(key), 0);  // Nothing committed.

  // A fresh caller retries the build and succeeds.
  StatusOr<std::shared_ptr<const pricing::ErrorCurve>> retried =
      cache.GetOrBuild(key, []() -> StatusOr<pricing::ErrorCurve> {
        return MakeCurve();
      });
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(cache.VersionOf(key), 1);
}

TEST(CurveCacheTest, CancelledWaiterUnwindsWithoutDisturbingBuild) {
  CurveCache cache;
  const CurveKey key = MakeKey();
  GatedBuilder gate;

  auto builder_future = std::async(std::launch::async, [&] {
    return cache.GetOrBuild(key, gate.MakeOk());
  });
  gate.AwaitEntered();

  CancelToken cancelled;
  cancelled.Cancel();
  StatusOr<std::shared_ptr<const pricing::ErrorCurve>> waited =
      cache.GetOrBuild(key, gate.MakeOk(), StalePolicy::kWait, &cancelled);
  EXPECT_EQ(waited.status().code(), StatusCode::kUnavailable);

  gate.Release();
  ASSERT_TRUE(builder_future.get().ok());
  EXPECT_EQ(gate.calls(), 1);
  EXPECT_EQ(cache.VersionOf(key), 1);
}

TEST(CurveCacheTest, InvalidateBumpsVersionOncePerRebuild) {
  CurveCache cache;
  const CurveKey key = MakeKey();
  auto build = []() -> StatusOr<pricing::ErrorCurve> { return MakeCurve(); };

  ASSERT_TRUE(cache.GetOrBuild(key, build).ok());
  EXPECT_EQ(cache.VersionOf(key), 1);

  // Repeated invalidations before the rebuild coalesce: one rebuild
  // satisfies them all.
  cache.Invalidate(key);
  cache.Invalidate(key);
  EXPECT_EQ(cache.VersionOf(key), 1);  // Committed version unchanged.

  ASSERT_TRUE(cache.GetOrBuild(key, build).ok());
  EXPECT_EQ(cache.VersionOf(key), 2);
  const CurveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.builds, 2);
  EXPECT_EQ(stats.invalidations, 2);

  // Invalidating a key never requested is a no-op.
  cache.Invalidate(MakeKey("hinge"));
  EXPECT_EQ(cache.VersionOf(MakeKey("hinge")), 0);
}

TEST(CurveCacheTest, ServeStaleReturnsPriorVersionDuringRebuild) {
  CurveCache cache;
  const CurveKey key = MakeKey();
  ASSERT_TRUE(cache.GetOrBuild(key, []() -> StatusOr<pricing::ErrorCurve> {
                     return MakeCurve(1.0);
                   })
                  .ok());
  const std::shared_ptr<const pricing::ErrorCurve> v1 =
      *cache.GetOrBuild(key, []() -> StatusOr<pricing::ErrorCurve> {
        return MakeCurve(1.0);
      });

  cache.Invalidate(key);
  GatedBuilder gate;
  auto rebuild_future = std::async(std::launch::async, [&] {
    return cache.GetOrBuild(key, gate.MakeOk(2.0));
  });
  gate.AwaitEntered();

  // While the rebuild is in flight, a kServeStale requester takes the
  // prior committed version immediately instead of blocking.
  StatusOr<std::shared_ptr<const pricing::ErrorCurve>> stale =
      cache.GetOrBuild(key, gate.MakeOk(2.0), StalePolicy::kServeStale);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->get(), v1.get());
  EXPECT_GE(cache.stats().stale_served, 1);

  gate.Release();
  StatusOr<std::shared_ptr<const pricing::ErrorCurve>> rebuilt =
      rebuild_future.get();
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_NE(rebuilt->get(), v1.get());
  EXPECT_EQ(cache.VersionOf(key), 2);
  // The handed-out stale curve stays alive through its shared_ptr even
  // though the cache has moved on.
  EXPECT_DOUBLE_EQ(v1->ErrorAtInverseNcp(1.0), 10.0);
  EXPECT_DOUBLE_EQ((*rebuilt)->ErrorAtInverseNcp(1.0), 20.0);
}

// ---------------------------------------------------------------------
// Broker / marketplace integration.
// ---------------------------------------------------------------------

data::TrainTestSplit ClassificationSplit(uint64_t seed) {
  Rng rng(seed);
  data::ClassificationSpec spec;
  spec.num_examples = 260;
  spec.num_features = 4;
  spec.positive_prob = 0.92;
  data::Dataset all = data::GenerateClassification(spec, rng);
  return data::Split(all, 0.75, rng);
}

Broker::Options FastOptions() {
  Broker::Options options;
  options.error_curve_points = 6;
  options.samples_per_curve_point = 40;
  options.min_inverse_ncp = 1.0;
  options.max_inverse_ncp = 50.0;
  return options;
}

std::shared_ptr<const pricing::PricingFunction> SomeMbpPricing() {
  auto points = MakeBuyerPoints(ValueShape::kConcave, DemandShape::kUniform, 10,
                                1.0, 50.0, 80.0, 2.0);
  Seller seller = *Seller::Create(*points);
  return *seller.NegotiatePricing();
}

Marketplace MakeMarket(uint64_t seed) {
  Marketplace market(ClassificationSplit(seed), FastOptions());
  EXPECT_TRUE(market
                  .AddOffering(ml::ModelKind::kLogisticRegression, 0.01,
                               SomeMbpPricing())
                  .ok());
  return market;
}

TEST(CurveCacheBrokerTest, MarketplaceOfferingsShareOneCache) {
  Marketplace market = MakeMarket(11);
  ASSERT_TRUE(
      market.AddOffering(ml::ModelKind::kLinearSvm, 0.05, SomeMbpPricing())
          .ok());
  ASSERT_TRUE(market.Catalog().ok());  // Builds every offering's curve.

  const CurveCache* cache = market.curve_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->size(), 2u);  // Per-offering seeds keep keys disjoint.
  for (ml::ModelKind kind : market.Offerings()) {
    Broker* broker = *market.BrokerFor(kind);
    EXPECT_EQ(broker->curve_cache(), cache);
  }
}

// The cache must hand back exactly the curve an uncached Monte-Carlo
// build produces: same grid, same samples, same noise stream (the
// broker's seed), bit for bit.
TEST(CurveCacheBrokerTest, CachedCurveMatchesDirectEstimateBitForBit) {
  Marketplace market = MakeMarket(11);
  Broker* broker = *market.BrokerFor(ml::ModelKind::kLogisticRegression);
  const std::string loss = broker->model().report_losses().front()->name();
  StatusOr<std::shared_ptr<const pricing::ErrorCurve>> cached =
      broker->GetErrorCurve(loss);
  ASSERT_TRUE(cached.ok());

  const Broker::Options& options = broker->options();
  Rng rng(options.seed);
  StatusOr<pricing::ErrorCurve> direct = pricing::ErrorCurve::Estimate(
      broker->noise_mechanism(), broker->optimal_model(),
      **broker->model().FindReportLoss(loss), ClassificationSplit(11).test,
      Linspace(options.min_inverse_ncp, options.max_inverse_ncp,
               options.error_curve_points),
      options.samples_per_curve_point, rng);
  ASSERT_TRUE(direct.ok());
  const auto& pa = (*cached)->points();
  const auto& pb = direct->points();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].inverse_ncp, pb[i].inverse_ncp);
    EXPECT_EQ(pa[i].expected_error, pb[i].expected_error);  // Exact bits.
  }
}

TEST(CurveCacheBrokerTest, QuoteBatchMatchesSingleQuotesBitForBit) {
  Marketplace market = MakeMarket(11);
  Broker* broker = *market.BrokerFor(ml::ModelKind::kLogisticRegression);
  const std::string loss = broker->model().report_losses().front()->name();
  StatusOr<std::shared_ptr<const pricing::ErrorCurve>> curve =
      broker->GetErrorCurve(loss);
  ASSERT_TRUE(curve.ok());

  constexpr int kQuotes = 24;
  const Rng base(20190642);

  // Single path: one quote per ticket from its pure per-ticket stream.
  std::vector<StatusOr<Broker::Purchase>> singles;
  for (int i = 0; i < kQuotes; ++i) {
    Rng rng = base.Fork(4 * static_cast<uint64_t>(i));
    const double x = 1.5 + (i % 11) * 3.7;
    singles.push_back(broker->QuoteAtInverseNcp(x, **curve, rng));
  }

  // Batched path with identically-seeded streams.
  std::vector<Rng> rngs;
  rngs.reserve(kQuotes);
  std::vector<Broker::QuoteBatchItem> items(kQuotes);
  for (int i = 0; i < kQuotes; ++i) {
    rngs.push_back(base.Fork(4 * static_cast<uint64_t>(i)));
  }
  for (int i = 0; i < kQuotes; ++i) {
    items[i].inverse_ncp = 1.5 + (i % 11) * 3.7;
    items[i].rng = &rngs[i];
  }
  std::vector<StatusOr<Broker::Purchase>> batched(
      kQuotes, StatusOr<Broker::Purchase>(InternalError("unset")));
  broker->QuoteBatch(**curve, items, batched);

  for (int i = 0; i < kQuotes; ++i) {
    ASSERT_TRUE(singles[i].ok()) << i;
    ASSERT_TRUE(batched[i].ok()) << i;
    EXPECT_EQ(singles[i]->price, batched[i]->price) << i;
    EXPECT_EQ(singles[i]->ncp, batched[i]->ncp) << i;
    EXPECT_EQ(singles[i]->inverse_ncp, batched[i]->inverse_ncp) << i;
    EXPECT_EQ(singles[i]->expected_error, batched[i]->expected_error) << i;
    EXPECT_EQ(singles[i]->degraded, batched[i]->degraded) << i;
    EXPECT_EQ(singles[i]->model, batched[i]->model) << i;  // Exact bits.
  }

  // Out-of-range items fail item-wise without disturbing neighbors.
  std::vector<Rng> bad_rngs;
  bad_rngs.push_back(base.Fork(0));
  bad_rngs.push_back(base.Fork(4));
  std::vector<Broker::QuoteBatchItem> mixed(2);
  mixed[0].inverse_ncp = 1e9;  // Beyond max_inverse_ncp.
  mixed[0].rng = &bad_rngs[0];
  mixed[1].inverse_ncp = 2.0;
  mixed[1].rng = &bad_rngs[1];
  std::vector<StatusOr<Broker::Purchase>> mixed_results(
      2, StatusOr<Broker::Purchase>(InternalError("unset")));
  broker->QuoteBatch(**curve, mixed, mixed_results);
  EXPECT_EQ(mixed_results[0].status().code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(mixed_results[1].ok());
}

}  // namespace
}  // namespace nimbus::market
