#include "service/service.h"

#include <future>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/fault.h"
#include "common/random.h"
#include "data/synthetic.h"
#include "market/curves.h"
#include "market/market_simulator.h"
#include "market/marketplace.h"
#include "one_shard_catalog.h"
#include "service/admission_queue.h"

namespace nimbus::service {
namespace {

using market::Marketplace;
using testutil::OneShardCatalog;

data::TrainTestSplit ClassificationSplit(uint64_t seed) {
  Rng rng(seed);
  data::ClassificationSpec spec;
  spec.num_examples = 260;
  spec.num_features = 4;
  spec.positive_prob = 0.92;
  data::Dataset all = data::GenerateClassification(spec, rng);
  return data::Split(all, 0.75, rng);
}

market::Broker::Options FastOptions() {
  market::Broker::Options options;
  options.error_curve_points = 6;
  options.samples_per_curve_point = 40;
  options.min_inverse_ncp = 1.0;
  options.max_inverse_ncp = 50.0;
  return options;
}

std::shared_ptr<const pricing::PricingFunction> SomeMbpPricing() {
  auto points = market::MakeBuyerPoints(market::ValueShape::kConcave,
                                        market::DemandShape::kUniform, 10, 1.0,
                                        50.0, 80.0, 2.0);
  market::Seller seller = *market::Seller::Create(*points);
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

PurchaseRequest MakeRequest(int i) {
  PurchaseRequest request;
  request.buyer_id = "buyer-" + std::to_string(i % 5);
  request.model = ml::ModelKind::kLogisticRegression;
  request.inverse_ncp = 2.0 + static_cast<double>(i % 10);
  return request;
}

// Every test drives the global fault registry; keep it clean on both
// sides so order does not matter.
class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Reset(); }
  void TearDown() override { fault::Reset(); }
};

TEST_F(ServiceTest, BasicPurchaseFlow) {
  OneShardCatalog store([] { return MakeMarket(21); });
  ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 64;
  MarketService service(store.catalog(), options);
  ASSERT_TRUE(service.Start().ok());

  std::vector<std::future<PurchaseResult>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(service.Submit(MakeRequest(i)));
  }
  for (int i = 0; i < 6; ++i) {
    PurchaseResult result = futures[i].get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.ticket, i);
    EXPECT_EQ(result.sequence, i);  // Commits land in ticket order.
    EXPECT_GT(result.purchase.price, 0.0);
    EXPECT_EQ(result.quote_attempts, 1);
    EXPECT_EQ(result.journal_attempts, 1);
  }
  EXPECT_EQ(store.market().ledger().size(), 6);

  const MarketService::Stats stats = service.stats();
  EXPECT_EQ(stats.submitted, 6);
  EXPECT_EQ(stats.admitted, 6);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(stats.succeeded, 6);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.retries, 0);
  EXPECT_TRUE(service.Drain().ok());
}

TEST_F(ServiceTest, SubmitValidation) {
  OneShardCatalog store([] { return MakeMarket(22); });
  MarketService unstarted(store.catalog(), ServiceOptions{});
  PurchaseResult result = unstarted.Submit(MakeRequest(0)).get();
  EXPECT_EQ(result.status.code(), StatusCode::kFailedPrecondition);

  MarketService service(store.catalog(), ServiceOptions{});
  ASSERT_TRUE(service.Start().ok());
  PurchaseRequest anonymous = MakeRequest(0);
  anonymous.buyer_id.clear();
  result = service.Submit(std::move(anonymous)).get();
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);

  PurchaseRequest unknown = MakeRequest(0);
  unknown.model = ml::ModelKind::kLinearSvm;  // Not offered.
  result = service.Submit(std::move(unknown)).get();
  EXPECT_EQ(result.status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(service.Drain().ok());
}

TEST_F(ServiceTest, BoundedQueueShedsWithTypedStatus) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1).ok());
  EXPECT_TRUE(queue.TryPush(2).ok());
  const Status full = queue.TryPush(3);
  EXPECT_EQ(full.code(), StatusCode::kUnavailable);
  EXPECT_NE(full.message().find("load shed"), std::string::npos);

  EXPECT_EQ(queue.Pop(), 1);  // FIFO.
  queue.Close();
  const Status closed = queue.TryPush(4);
  EXPECT_EQ(closed.code(), StatusCode::kUnavailable);
  EXPECT_NE(closed.message().find("draining"), std::string::npos);
  EXPECT_EQ(queue.Pop(), 2);  // Queued items still drain after Close.
  EXPECT_EQ(queue.Pop(), std::nullopt);
}

TEST_F(ServiceTest, EnqueueFaultShedsTyped) {
  OneShardCatalog store([] { return MakeMarket(23); });
  MarketService service(store.catalog(), ServiceOptions{});
  ASSERT_TRUE(service.Start().ok());
  ASSERT_TRUE(fault::Configure("service.enqueue:1:1").ok());
  PurchaseResult shed = service.Submit(MakeRequest(0)).get();
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(shed.status.message().find("fault injected"), std::string::npos);
  EXPECT_EQ(shed.ticket, -1);
  // The next submission goes through: the fault was a counted one-shot.
  PurchaseResult ok = service.Submit(MakeRequest(1)).get();
  EXPECT_TRUE(ok.status.ok()) << ok.status.ToString();
  const MarketService::Stats stats = service.stats();
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.succeeded, 1);
  EXPECT_TRUE(service.Drain().ok());
}

TEST_F(ServiceTest, DrainStopsAdmissionsAndIsIdempotent) {
  OneShardCatalog store([] { return MakeMarket(24); });
  MarketService service(store.catalog(), ServiceOptions{});
  ASSERT_TRUE(service.Start().ok());
  ASSERT_TRUE(service.Submit(MakeRequest(0)).get().status.ok());
  EXPECT_TRUE(service.Drain().ok());
  EXPECT_TRUE(service.draining());
  PurchaseResult late = service.Submit(MakeRequest(1)).get();
  EXPECT_EQ(late.status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(service.Drain().ok());  // Second drain reports, not redoes.
  EXPECT_EQ(store.market().ledger().size(), 1);
}

TEST_F(ServiceTest, RetryAbsorbsExecuteFaultsWithoutChangingTheLedger) {
  // Reference run: same seeds, no faults.
  OneShardCatalog reference([] { return MakeMarket(25); });
  {
    ServiceOptions options;
    options.num_workers = 1;
    MarketService service(reference.catalog(), options);
    ASSERT_TRUE(service.Start().ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(service.Submit(MakeRequest(i)).get().status.ok());
    }
    ASSERT_TRUE(service.Drain().ok());
  }

  OneShardCatalog store([] { return MakeMarket(25); });
  ServiceOptions options;
  options.num_workers = 1;
  options.quote_retry.max_attempts = 4;
  options.quote_retry.initial_delay_seconds = 1e-6;
  MarketService service(store.catalog(), options);
  ASSERT_TRUE(service.Start().ok());
  // Fail the 2nd and 3rd execute attempts: request 1 retries twice and
  // must still produce the exact same purchase bytes.
  ASSERT_TRUE(fault::Configure("service.execute:2:2").ok());
  std::vector<std::future<PurchaseResult>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(service.Submit(MakeRequest(i)));
  }
  int total_quote_attempts = 0;
  for (auto& future : futures) {
    PurchaseResult result = future.get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    total_quote_attempts += result.quote_attempts;
  }
  EXPECT_EQ(total_quote_attempts, 6);  // 4 firsts + 2 absorbed retries.
  EXPECT_GE(service.stats().retries, 2);
  ASSERT_TRUE(service.Drain().ok());
  EXPECT_EQ(store.market().ledger().ToCsv(),
            reference.market().ledger().ToCsv());
}

TEST_F(ServiceTest, DeadlineExceededWhenBackoffCannotFinish) {
  OneShardCatalog store([] { return MakeMarket(26); });
  ManualClock clock;
  ServiceOptions options;
  options.num_workers = 1;
  options.clock = &clock;
  options.default_deadline_seconds = 0.5;
  options.quote_retry.max_attempts = 4;
  options.quote_retry.initial_delay_seconds = 1.0;  // > deadline budget.
  options.quote_retry.max_delay_seconds = 10.0;
  options.quote_retry.jitter = 0.0;
  MarketService service(store.catalog(), options);
  ASSERT_TRUE(service.Start().ok());
  ASSERT_TRUE(fault::Configure("service.execute:1:1").ok());
  PurchaseResult result = service.Submit(MakeRequest(0)).get();
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(result.quote_attempts, 1);
  const MarketService::Stats stats = service.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1);
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(store.market().ledger().size(), 0);  // Nothing half-committed.
  EXPECT_TRUE(service.Drain().ok());
}

TEST_F(ServiceTest, QuoteBreakerTripsThenRecovers) {
  OneShardCatalog store([] { return MakeMarket(27); });
  ManualClock clock;
  ServiceOptions options;
  options.num_workers = 1;
  options.clock = &clock;
  options.quote_retry.max_attempts = 1;  // Isolate the breaker behavior.
  options.quote_breaker.failure_threshold = 2;
  options.quote_breaker.open_seconds = 1e6;
  options.quote_breaker.half_open_successes = 1;
  MarketService service(store.catalog(), options);
  ASSERT_TRUE(service.Start().ok());

  ASSERT_TRUE(fault::Configure("broker.quote:1:*").ok());
  EXPECT_EQ(service.Submit(MakeRequest(0)).get().status.code(),
            StatusCode::kInternal);
  EXPECT_EQ(service.Submit(MakeRequest(1)).get().status.code(),
            StatusCode::kInternal);
  EXPECT_EQ(service.quote_breaker().state(), CircuitBreaker::State::kOpen);

  // Open breaker sheds without touching the (still sick) broker.
  PurchaseResult rejected = service.Submit(MakeRequest(2)).get();
  EXPECT_EQ(rejected.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(rejected.status.message().find("breaker"), std::string::npos);

  // Downstream heals, cooldown elapses: the half-open probe closes it.
  fault::Reset();
  clock.AdvanceSeconds(2e6);
  PurchaseResult recovered = service.Submit(MakeRequest(3)).get();
  EXPECT_TRUE(recovered.status.ok()) << recovered.status.ToString();
  EXPECT_EQ(service.quote_breaker().state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(service.quote_breaker().opened_count(), 1);
  EXPECT_EQ(store.market().ledger().size(), 1);
  EXPECT_TRUE(service.Drain().ok());
}

TEST_F(ServiceTest, CommitRetryAbsorbsJournalFaultAndRestores) {
  OneShardCatalog store([] { return MakeMarket(28); });
  ServiceOptions options;
  options.num_workers = 1;
  options.journal_retry.max_attempts = 3;
  options.journal_retry.initial_delay_seconds = 1e-6;
  MarketService service(store.catalog(), options);
  ASSERT_TRUE(service.Start().ok());
  ASSERT_TRUE(fault::Configure("journal.append:1:1").ok());
  PurchaseResult result = service.Submit(MakeRequest(0)).get();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.journal_attempts, 2);  // One absorbed journal fault.
  ASSERT_TRUE(service.Drain().ok());
  ASSERT_EQ(store.market().ledger().size(), 1);

  // The retried append left exactly one record behind.
  Marketplace restored = MakeMarket(28);
  ASSERT_TRUE(
      restored.RestoreFromCheckpoint(store.shard().journal_path()).ok());
  EXPECT_EQ(restored.ledger().ToCsv(), store.market().ledger().ToCsv());
}

TEST_F(ServiceTest, LedgerBytesIdenticalAcrossWorkerCountsUnderFaults) {
  // The chaos-soak headline property, miniature edition: same seed and
  // submission order, counted faults armed, worker count swept — the
  // final ledger must be byte-identical because quotes are per-ticket
  // pure and commits are sequenced.
  const int kRequests = 12;
  std::vector<std::string> csvs;
  for (int workers : {1, 3, 8}) {
    OneShardCatalog store([] { return MakeMarket(29); });
    ServiceOptions options;
    options.num_workers = workers;
    options.queue_capacity = kRequests;
    options.quote_retry.max_attempts = 6;
    options.quote_retry.initial_delay_seconds = 1e-6;
    options.journal_retry.initial_delay_seconds = 1e-6;
    MarketService service(store.catalog(), options);
    ASSERT_TRUE(service.Start().ok());
    ASSERT_TRUE(
        fault::Configure("service.execute:2:3,broker.quote:4:2").ok());
    std::vector<std::future<PurchaseResult>> futures;
    for (int i = 0; i < kRequests; ++i) {
      futures.push_back(service.Submit(MakeRequest(i)));
    }
    for (auto& future : futures) {
      PurchaseResult result = future.get();
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    }
    ASSERT_TRUE(service.Drain().ok());
    fault::Reset();
    csvs.push_back(store.market().ledger().ToCsv());
  }
  EXPECT_EQ(csvs[0], csvs[1]);
  EXPECT_EQ(csvs[0], csvs[2]);
}

TEST_F(ServiceTest, ErrorCurveBuildHonorsCancellation) {
  Marketplace market = MakeMarket(30);
  market::Broker* broker =
      *market.BrokerFor(ml::ModelKind::kLogisticRegression);
  const std::string loss = broker->model().report_losses().front()->name();

  // Cold cache + already-cancelled token: the build unwinds typed.
  CancelToken cancelled;
  cancelled.Cancel();
  EXPECT_EQ(broker->GetErrorCurve(loss, &cancelled).status().code(),
            StatusCode::kUnavailable);

  // Cold cache + expired deadline: typed as a deadline.
  ManualClock clock;
  CancelToken expired(&clock, 0.5);
  clock.AdvanceSeconds(1.0);
  EXPECT_EQ(broker->GetErrorCurve(loss, &expired).status().code(),
            StatusCode::kDeadlineExceeded);

  // A cancelled build is not cached: a live caller still gets the curve.
  ASSERT_TRUE(broker->GetErrorCurve(loss).ok());
  // Cache hits never consult the token.
  EXPECT_TRUE(broker->GetErrorCurve(loss, &cancelled).ok());
}

}  // namespace
}  // namespace nimbus::service
