#include "market/catalog.h"

#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/random.h"
#include "data/synthetic.h"
#include "market/curves.h"
#include "market/market_simulator.h"
#include "market/marketplace.h"
#include "service/admin_server.h"
#include "service/service.h"

namespace nimbus::market {
namespace {

std::string FreshRoot(const std::string& name) {
  static int counter = 0;
  return ::testing::TempDir() + "/" + name + "_" + std::to_string(counter++) +
         "_" + std::to_string(static_cast<long>(::getpid()));
}

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
  auto points = MakeBuyerPoints(ValueShape::kConcave, DemandShape::kUniform,
                                10, 1.0, 50.0, 80.0, 2.0);
  Seller seller = *Seller::Create(*points);
  return *seller.NegotiatePricing();
}

MarketplaceFactory MakeFactory(uint64_t seed) {
  return [seed]() -> StatusOr<Marketplace> {
    Marketplace market(ClassificationSplit(seed), FastOptions());
    NIMBUS_RETURN_IF_ERROR(market.AddOffering(
        ml::ModelKind::kLogisticRegression, 0.01, SomeMbpPricing()));
    return market;
  };
}

std::string FirstLossName(Marketplace& market) {
  Broker* broker = *market.BrokerFor(ml::ModelKind::kLogisticRegression);
  return broker->model().report_losses().front()->name();
}

Status BuyOne(Marketplace& market, const std::string& buyer) {
  return market
      .Buy(buyer, ml::ModelKind::kLogisticRegression, 2.0,
           FirstLossName(market))
      .status();
}

class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Reset(); }
  void TearDown() override { fault::Reset(); }
};

TEST_F(CatalogTest, AddProductValidationAndRouting) {
  CatalogOptions options;
  options.root_dir = FreshRoot("catalog_routing");
  Catalog catalog(options);
  EXPECT_EQ(catalog.Route("anything"), nullptr);  // Empty catalog.

  ASSERT_TRUE(catalog.AddProduct("wine", MakeFactory(41)).ok());
  ASSERT_TRUE(catalog.AddProduct("cheese", MakeFactory(42)).ok());
  ASSERT_TRUE(catalog.AddProduct("bread", MakeFactory(43)).ok());
  EXPECT_EQ(catalog.num_shards(), 3);

  // Duplicates and path-unsafe ids are rejected.
  EXPECT_EQ(catalog.AddProduct("wine", MakeFactory(41)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(catalog.AddProduct("a/b", MakeFactory(41)).code(),
            StatusCode::kInvalidArgument);

  // Exact product ids route to their own shard.
  EXPECT_EQ(catalog.Route("wine"), catalog.Find("wine"));
  EXPECT_EQ(catalog.Route("cheese"), catalog.Find("cheese"));
  EXPECT_NE(catalog.Find("wine"), catalog.Find("cheese"));
  EXPECT_EQ(catalog.Find("nope"), nullptr);

  // Arbitrary keys hash to a stable shard: same key, same shard, every
  // time — and removals/additions elsewhere on the ring do not apply
  // here (the catalog is add-only within a process).
  for (int i = 0; i < 16; ++i) {
    const std::string key = "buyer-key-" + std::to_string(i);
    Shard* first = catalog.Route(key);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(catalog.Route(key), first) << key;
  }

  // Every shard opened under its own bulkhead directory.
  std::set<std::string> dirs;
  for (const std::unique_ptr<Shard>& shard : catalog.shards()) {
    dirs.insert(shard->journal_path());
    EXPECT_EQ(shard->state(), ShardState::kServing);
  }
  EXPECT_EQ(dirs.size(), 3u);
  EXPECT_NE(catalog.Find("wine")->journal_path().find("/shards/wine/"),
            std::string::npos);
}

TEST_F(CatalogTest, RollupAndSynchronousRecovery) {
  CatalogOptions options;
  options.root_dir = FreshRoot("catalog_rollup");
  Catalog catalog(options);
  ASSERT_TRUE(catalog.AddProduct("wine", MakeFactory(44)).ok());
  ASSERT_TRUE(catalog.AddProduct("cheese", MakeFactory(45)).ok());

  ASSERT_TRUE(BuyOne(*catalog.Find("wine")->market(), "alice").ok());
  ASSERT_TRUE(BuyOne(*catalog.Find("cheese")->market(), "bob").ok());
  // Direct feeds bypass the serving layer's commit triage, so re-cache
  // the booked totals the rollup reads (GetRollup never touches the
  // live ledger — it may run on the recovery-loop thread).
  catalog.Find("wine")->RefreshBookedTotals();
  catalog.Find("cheese")->RefreshBookedTotals();
  Catalog::Rollup rollup = catalog.GetRollup();
  EXPECT_EQ(rollup.serving, 2);
  EXPECT_EQ(rollup.quarantined, 0);
  EXPECT_EQ(rollup.total_sales, 2);
  EXPECT_GT(rollup.total_revenue, 0.0);

  catalog.Find("wine")->Quarantine("drill");
  rollup = catalog.GetRollup();
  EXPECT_EQ(rollup.serving, 1);
  EXPECT_EQ(rollup.quarantined, 1);
  // Rollups still read the quarantined shard's books.
  EXPECT_EQ(rollup.total_sales, 2);

  EXPECT_EQ(catalog.RecoverQuarantined(/*force=*/true), 1);
  rollup = catalog.GetRollup();
  EXPECT_EQ(rollup.serving, 2);
  EXPECT_EQ(rollup.quarantined, 0);
  // The recovered shard replayed its journal: the sale survived.
  EXPECT_EQ(catalog.Find("wine")->market()->ledger().SaleCount(), 1);
}

TEST_F(CatalogTest, BackgroundRecoveryLoopReadmits) {
  CatalogOptions options;
  options.root_dir = FreshRoot("catalog_loop");
  options.recovery_interval_seconds = 0.005;
  options.recovery_backoff_base_seconds = 0.005;
  Catalog catalog(options);
  ASSERT_TRUE(catalog.AddProduct("wine", MakeFactory(46)).ok());
  ASSERT_TRUE(catalog.AddProduct("cheese", MakeFactory(47)).ok());

  catalog.Find("wine")->Quarantine("drill");
  catalog.StartRecoveryLoop();
  EXPECT_TRUE(catalog.recovery_loop_running());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (catalog.Find("wine")->state() != ShardState::kServing &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  catalog.StopRecoveryLoop();
  EXPECT_FALSE(catalog.recovery_loop_running());
  EXPECT_EQ(catalog.Find("wine")->state(), ShardState::kServing);
  EXPECT_EQ(catalog.Find("wine")->stats().recoveries, 1);
  // The healthy shard was never touched.
  EXPECT_EQ(catalog.Find("cheese")->stats().quarantines, 0);
}

// End-to-end blast radius through the serving layer: a sharded
// MarketService keeps every other lane byte-for-byte healthy while one
// shard quarantines and recovers.
TEST_F(CatalogTest, ShardedServiceIsolatesFaultedShard) {
  CatalogOptions options;
  options.root_dir = FreshRoot("catalog_service");
  Catalog catalog(options);
  ASSERT_TRUE(catalog.AddProduct("wine", MakeFactory(48)).ok());
  ASSERT_TRUE(catalog.AddProduct("cheese", MakeFactory(49)).ok());

  service::ServiceOptions service_options;
  service_options.num_workers = 3;
  service_options.queue_capacity = 128;
  service::MarketService service(&catalog, service_options);
  ASSERT_TRUE(service.Start().ok());

  auto request = [](const std::string& product, int i) {
    service::PurchaseRequest request;
    request.buyer_id = "buyer-" + std::to_string(i % 5);
    request.product_id = product;
    request.model = ml::ModelKind::kLogisticRegression;
    request.inverse_ncp = 2.0 + static_cast<double>(i % 10);
    return request;
  };

  // Healthy wave across both lanes: per-lane tickets are dense and
  // commits land in per-lane ticket order.
  std::vector<std::future<service::PurchaseResult>> wine;
  std::vector<std::future<service::PurchaseResult>> cheese;
  for (int i = 0; i < 8; ++i) {
    wine.push_back(service.Submit(request("wine", i)));
    cheese.push_back(service.Submit(request("cheese", i)));
  }
  for (int i = 0; i < 8; ++i) {
    service::PurchaseResult wine_result = wine[i].get();
    ASSERT_TRUE(wine_result.status.ok()) << wine_result.status.ToString();
    EXPECT_EQ(wine_result.ticket, i);
    EXPECT_EQ(wine_result.sequence, i);
    EXPECT_EQ(wine_result.product_id, "wine");
    service::PurchaseResult cheese_result = cheese[i].get();
    ASSERT_TRUE(cheese_result.status.ok()) << cheese_result.status.ToString();
    EXPECT_EQ(cheese_result.ticket, i);
    EXPECT_EQ(cheese_result.sequence, i);
  }
  EXPECT_EQ(catalog.Find("wine")->market()->ledger().SaleCount(), 8);
  EXPECT_EQ(catalog.Find("cheese")->market()->ledger().SaleCount(), 8);

  // Disk-full scoped to the wine shard: its next commit tears, the
  // shard quarantines, and subsequent wine requests shed typed — while
  // cheese requests never notice.
  ASSERT_TRUE(fault::Configure("journal.append@wine:1:enospc").ok());
  service::PurchaseResult torn = service.Submit(request("wine", 100)).get();
  ASSERT_FALSE(torn.status.ok());
  EXPECT_EQ(catalog.Find("wine")->state(), ShardState::kQuarantined);
  EXPECT_EQ(catalog.Find("cheese")->state(), ShardState::kServing);

  service::PurchaseResult shed = service.Submit(request("wine", 101)).get();
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(shed.status.message().find("wine"), std::string::npos);
  EXPECT_EQ(shed.ticket, -1);

  for (int i = 8; i < 12; ++i) {
    service::PurchaseResult result = service.Submit(request("cheese", i)).get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.ticket, i);  // Cheese lane tickets stayed dense.
  }
  EXPECT_EQ(catalog.Find("cheese")->market()->ledger().SaleCount(), 12);

  // Health report names exactly the tripped bulkhead.
  const service::MarketService::HealthReport health = service.GetHealthReport();
  EXPECT_FALSE(health.healthy);
  ASSERT_EQ(health.problems.size(), 1u);
  EXPECT_NE(health.problems[0].find("shard wine: quarantined"),
            std::string::npos);

  // Recovery re-admits the shard and the service serves it again — with
  // the torn record dropped and every committed wine sale intact.
  fault::Reset();
  EXPECT_EQ(catalog.RecoverQuarantined(/*force=*/true), 1);
  EXPECT_TRUE(service.GetHealthReport().healthy);
  service::PurchaseResult after = service.Submit(request("wine", 102)).get();
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  EXPECT_EQ(catalog.Find("wine")->market()->ledger().SaleCount(), 9);

  const std::vector<service::MarketService::ShardView> views =
      service.ShardViews();
  ASSERT_EQ(views.size(), 2u);
  EXPECT_EQ(views[0].product_id, "wine");
  EXPECT_EQ(views[0].shard_stats.quarantines, 1);
  EXPECT_EQ(views[0].shard_stats.recoveries, 1);
  EXPECT_EQ(views[0].shed, 1);
  EXPECT_EQ(views[1].product_id, "cheese");
  EXPECT_EQ(views[1].shard_stats.quarantines, 0);
  EXPECT_EQ(views[1].failed, 0);
  EXPECT_TRUE(service.Drain().ok());
}

}  // namespace
}  // namespace nimbus::market
