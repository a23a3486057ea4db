#include "market/marketplace.h"

#include <map>
#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/telemetry.h"
#include "data/synthetic.h"
#include "market/curves.h"
#include "market/market_simulator.h"

namespace nimbus::market {
namespace {

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

TEST(LedgerTest, RecordAndQueries) {
  telemetry::Registry::Global().ResetForTest();
  Ledger ledger;
  ASSERT_TRUE(ledger.Record("alice", ml::ModelKind::kLogisticRegression, 2.0,
                            10.0, 0.1)
                  .ok());
  ASSERT_TRUE(ledger.Record("bob", ml::ModelKind::kLinearSvm, 4.0, 30.0, 0.05)
                  .ok());
  ASSERT_TRUE(ledger.Record("alice", ml::ModelKind::kLinearSvm, 1.0, 5.0, 0.2)
                  .ok());
  ASSERT_TRUE(ledger.Record("carol", ml::ModelKind::kLinearSvm, 4.0, 30.0,
                            0.05)
                  .ok());
  EXPECT_EQ(ledger.size(), 4);
  EXPECT_EQ(ledger.SaleCount(), 4);
  EXPECT_DOUBLE_EQ(ledger.TotalRevenue(), 75.0);

  const std::map<double, int64_t> per_point = ledger.SalesPerPricePoint();
  ASSERT_EQ(per_point.size(), 3u);
  EXPECT_EQ(per_point.at(1.0), 1);
  EXPECT_EQ(per_point.at(2.0), 1);
  EXPECT_EQ(per_point.at(4.0), 2);

  // Every Record is mirrored into the telemetry registry for audit,
  // labeled by offering (the entry's model kind).
  auto& registry = telemetry::Registry::Global();
  const std::string svm(ml::ModelKindToString(ml::ModelKind::kLinearSvm));
  const std::string logistic(
      ml::ModelKindToString(ml::ModelKind::kLogisticRegression));
  auto& sales_vec = registry.GetCounterVec("ledger_sales_total", "offering");
  EXPECT_EQ(sales_vec.WithLabel(svm).Value(), 3);
  EXPECT_EQ(sales_vec.WithLabel(logistic).Value(), 1);
  auto& revenue_vec = registry.GetGaugeVec("ledger_revenue_total", "offering");
  EXPECT_DOUBLE_EQ(revenue_vec.WithLabel(svm).Value(), 65.0);
  EXPECT_DOUBLE_EQ(revenue_vec.WithLabel(logistic).Value(), 10.0);
  EXPECT_EQ(registry.GetCounterVec("ledger_point_sales_total", "inverse_ncp")
                .WithLabel("4")
                .Value(),
            2);
  EXPECT_DOUBLE_EQ(ledger.RevenueForModel(ml::ModelKind::kLinearSvm), 65.0);
  EXPECT_DOUBLE_EQ(
      ledger.RevenueForModel(ml::ModelKind::kLinearRegression), 0.0);

  const auto top = ledger.TopBuyers(10);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].first, "bob");  // Ties broken by buyer id.
  EXPECT_DOUBLE_EQ(top[0].second, 30.0);
  EXPECT_EQ(top[1].first, "carol");
  EXPECT_EQ(top[2].first, "alice");
  EXPECT_DOUBLE_EQ(top[2].second, 15.0);
  EXPECT_EQ(ledger.TopBuyers(1).size(), 1u);

  const auto alice = ledger.EntriesForBuyer("alice");
  ASSERT_EQ(alice.size(), 2u);
  EXPECT_EQ(alice[0].sequence, 0);
  EXPECT_EQ(alice[1].sequence, 2);

  const std::string csv = ledger.ToCsv();
  EXPECT_NE(csv.find("alice,logistic_regression,2,10,0.1"),
            std::string::npos);
}

// Buyers choose any version in range, so per-price-point sales must not
// mint a metric per distinct inverse-NCP: the registry (and every
// /metrics scrape) stays bounded however many versions are sold.
TEST(LedgerTest, DistinctPricePointsDoNotGrowTheRegistry) {
  auto& registry = telemetry::Registry::Global();
  // Total series across the snapshot, and the sales the per-point family
  // has counted.
  const auto tally = [](const auto& snapshot) {
    size_t series = 0;
    int64_t point_sales = 0;
    for (const auto& entry : snapshot) {
      series += entry.series.empty() ? 1 : entry.series.size();
      if (entry.name == "ledger_point_sales_total") {
        for (const auto& labeled : entry.series) {
          point_sales += labeled.counter_value;
        }
      }
    }
    return std::make_pair(series, point_sales);
  };
  Ledger ledger;
  // One sale first, so the ledger's families are registered before the
  // baseline is taken.
  ASSERT_TRUE(ledger.Record("alice", ml::ModelKind::kLinearSvm, 1.0, 1.0, 0.1)
                  .ok());
  const auto before = registry.Snapshot();
  for (int i = 1; i <= 1000; ++i) {
    ASSERT_TRUE(ledger.Record("alice", ml::ModelKind::kLinearSvm,
                              1.0 + 0.001 * i, 1.0, 0.1)
                    .ok());
  }
  const auto after = registry.Snapshot();
  EXPECT_EQ(after.size(), before.size());
  EXPECT_LE(tally(after).first,
            tally(before).first + telemetry::CounterVec::kMaxSeries + 1);
  // Every sale is still counted: the overflow series absorbs the rest.
  EXPECT_EQ(tally(after).second - tally(before).second, 1000);
}

TEST(LedgerTest, Validation) {
  Ledger ledger;
  EXPECT_FALSE(
      ledger.Record("", ml::ModelKind::kLinearSvm, 1.0, 1.0, 0.0).ok());
  EXPECT_FALSE(
      ledger.Record("a", ml::ModelKind::kLinearSvm, 0.0, 1.0, 0.0).ok());
  EXPECT_FALSE(
      ledger.Record("a", ml::ModelKind::kLinearSvm, 1.0, -1.0, 0.0).ok());
  EXPECT_EQ(ledger.size(), 0);
}

TEST(MarketplaceTest, AddOfferingValidation) {
  Marketplace market(ClassificationSplit(1), FastOptions());
  EXPECT_FALSE(market
                   .AddOffering(ml::ModelKind::kLogisticRegression, 0.01,
                                nullptr)
                   .ok());
  // Regression model on a classification dataset.
  EXPECT_FALSE(market
                   .AddOffering(ml::ModelKind::kLinearRegression, 0.0,
                                SomeMbpPricing())
                   .ok());
  ASSERT_TRUE(market
                  .AddOffering(ml::ModelKind::kLogisticRegression, 0.01,
                               SomeMbpPricing())
                  .ok());
  // Duplicate offering.
  EXPECT_FALSE(market
                   .AddOffering(ml::ModelKind::kLogisticRegression, 0.01,
                                SomeMbpPricing())
                   .ok());
  EXPECT_EQ(market.Offerings().size(), 1u);
}

TEST(MarketplaceTest, CatalogAndAttributedPurchases) {
  Marketplace market(ClassificationSplit(2), FastOptions());
  ASSERT_TRUE(market
                  .AddOffering(ml::ModelKind::kLogisticRegression, 0.01,
                               SomeMbpPricing())
                  .ok());
  ASSERT_TRUE(
      market.AddOffering(ml::ModelKind::kLinearSvm, 0.05, SomeMbpPricing())
          .ok());

  StatusOr<std::vector<Marketplace::CatalogRow>> catalog = market.Catalog();
  ASSERT_TRUE(catalog.ok());
  ASSERT_EQ(catalog->size(), 2u);
  for (const Marketplace::CatalogRow& row : *catalog) {
    EXPECT_LE(row.best_expected_error, row.worst_expected_error);
    EXPECT_LE(row.min_price, row.max_price);
  }

  // Attributed purchases land in the ledger.
  StatusOr<Broker::Purchase> purchase = market.Buy(
      "carol", ml::ModelKind::kLogisticRegression, 10.0, "zero_one");
  ASSERT_TRUE(purchase.ok());
  ASSERT_TRUE(market
                  .Buy("carol", ml::ModelKind::kLinearSvm, 10.0, "zero_one")
                  .ok());
  EXPECT_EQ(market.ledger().size(), 2);
  EXPECT_NEAR(market.total_revenue(),
              market.ledger().TotalRevenue(), 1e-12);
  EXPECT_EQ(market.ledger().TopBuyers(1)[0].first, "carol");

  // Unknown model and unknown buyer errors.
  EXPECT_EQ(market.Buy("carol", ml::ModelKind::kLinearRegression, 10.0,
                       "squared")
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(market.Buy("", ml::ModelKind::kLinearSvm, 10.0, "zero_one")
                   .ok());
}

TEST(MarketplaceTest, MbpPricingKeepsMonitorsQuiet) {
  Marketplace market(ClassificationSplit(3), FastOptions());
  ASSERT_TRUE(market
                  .AddOffering(ml::ModelKind::kLogisticRegression, 0.01,
                               SomeMbpPricing())
                  .ok());
  // A buyer accumulating many cheap versions cannot beat the list price
  // under an arbitrage-free curve.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(market
                    .Buy("hoarder", ml::ModelKind::kLogisticRegression, 2.0,
                         "zero_one")
                    .ok());
  }
  EXPECT_TRUE(market.SuspiciousBuyers().empty());
  StatusOr<const CollusionMonitor*> monitor =
      market.MonitorFor(ml::ModelKind::kLogisticRegression);
  ASSERT_TRUE(monitor.ok());
  StatusOr<CollusionMonitor::Assessment> assessment =
      (*monitor)->Assess("hoarder");
  ASSERT_TRUE(assessment.ok());
  EXPECT_EQ(assessment->purchases, 8);
  EXPECT_FALSE(assessment->suspicious);
  EXPECT_EQ(market.MonitorFor(ml::ModelKind::kLinearSvm).status().code(),
            StatusCode::kNotFound);
}

// The shard layer moves marketplaces around (StatusOr unwrap, recovery
// swap). The defaulted move operations are only sound because no member
// stores a pointer back into the owning Marketplace: brokers copy the
// split by value, the checkpointer keeps only the journal path, the
// curve cache is shared, and builder callbacks are call-local (never
// stored). This test pins that invariant — if someone adds a
// self-referential member, the moved-to instance breaks here first.
TEST(MarketplaceTest, DefaultedMoveKeepsJournalingAndQuotingIntact) {
  const std::string path = ::testing::TempDir() + "/nimbus_marketplace_move_" +
                           std::to_string(static_cast<long>(::getpid())) +
                           ".waj";
  std::remove(path.c_str());

  Marketplace original(ClassificationSplit(21), FastOptions());
  ASSERT_TRUE(original
                  .AddOffering(ml::ModelKind::kLogisticRegression, 0.01,
                               SomeMbpPricing())
                  .ok());
  ASSERT_TRUE(original.EnableJournal(path, Journal::Options{}).ok());
  Broker* broker = *original.BrokerFor(ml::ModelKind::kLogisticRegression);
  const std::string loss = broker->model().report_losses().front()->name();
  ASSERT_TRUE(
      original.Buy("alice", ml::ModelKind::kLogisticRegression, 2.0, loss)
          .ok());
  const double revenue_before = original.total_revenue();
  ASSERT_GT(revenue_before, 0.0);

  // Move-construct mid-life and keep transacting on the new home.
  Marketplace moved(std::move(original));
  EXPECT_DOUBLE_EQ(moved.total_revenue(), revenue_before);
  ASSERT_TRUE(
      moved.Buy("bob", ml::ModelKind::kLogisticRegression, 4.0, loss).ok());

  // Move-assign into yet another home; quoting and journaling follow.
  Marketplace assigned(ClassificationSplit(22), FastOptions());
  assigned = std::move(moved);
  ASSERT_TRUE(
      assigned.Buy("carol", ml::ModelKind::kLogisticRegression, 1.0, loss)
          .ok());
  EXPECT_EQ(assigned.ledger().SaleCount(), 3);
  EXPECT_GT(assigned.total_revenue(), revenue_before);
  ASSERT_TRUE(assigned.FlushJournal().ok());

  // Every sale — before and after both moves — reached the one journal.
  StatusOr<std::vector<LedgerEntry>> replayed = Journal::Replay(path);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  ASSERT_EQ(replayed->size(), 3u);
  EXPECT_EQ((*replayed)[0].buyer_id, "alice");
  EXPECT_EQ((*replayed)[1].buyer_id, "bob");
  EXPECT_EQ((*replayed)[2].buyer_id, "carol");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nimbus::market
