#include "market/market_simulator.h"

#include <memory>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/synthetic.h"
#include "market/curves.h"
#include "mechanism/noise_mechanism.h"

namespace nimbus::market {
namespace {

StatusOr<Broker> MakeBroker() {
  Rng rng(11);
  data::RegressionSpec spec;
  spec.num_examples = 200;
  spec.num_features = 4;
  spec.noise_stddev = 0.3;
  data::Dataset all = data::GenerateRegression(spec, rng);
  data::TrainTestSplit split = data::Split(all, 0.75, rng);
  NIMBUS_ASSIGN_OR_RETURN(
      ml::ModelSpec model,
      ml::ModelSpec::Create(ml::ModelKind::kLinearRegression, 0.0));
  Broker::Options options;
  options.error_curve_points = 8;
  options.samples_per_curve_point = 50;
  options.min_inverse_ncp = 1.0;
  options.max_inverse_ncp = 100.0;
  return Broker::Create(std::move(split), std::move(model),
                        std::make_unique<mechanism::GaussianMechanism>(),
                        options);
}

TEST(SellerTest, ValidatesMarketResearch) {
  EXPECT_FALSE(Seller::Create({}).ok());
  EXPECT_FALSE(Seller::Create({{1, 1, 10}, {2, 1, 5}}).ok());
  EXPECT_TRUE(Seller::Create({{1, 1, 5}, {2, 1, 10}}).ok());
}

TEST(SellerTest, NegotiatedPricingMatchesDpRevenue) {
  auto points = MakeBuyerPoints(ValueShape::kConcave, DemandShape::kUniform,
                                12, 1.0, 100.0, 100.0);
  ASSERT_TRUE(points.ok());
  StatusOr<Seller> seller = Seller::Create(*points);
  ASSERT_TRUE(seller.ok());
  auto pricing = seller->NegotiatePricing();
  ASSERT_TRUE(pricing.ok());
  // The pricing function evaluated at the research points must earn the
  // predicted revenue.
  EXPECT_NEAR(revenue::RevenueForPricing(*points, **pricing),
              seller->predicted_revenue(), 1e-6);
}

TEST(SimulateMarketTest, EndToEndAccounting) {
  StatusOr<Broker> broker = MakeBroker();
  ASSERT_TRUE(broker.ok());
  auto points = MakeBuyerPoints(ValueShape::kConcave, DemandShape::kUniform,
                                10, 1.0, 100.0, 100.0);
  ASSERT_TRUE(points.ok());
  StatusOr<Seller> seller = Seller::Create(*points);
  ASSERT_TRUE(seller.ok());
  auto pricing = seller->NegotiatePricing();
  ASSERT_TRUE(pricing.ok());
  broker->SetPricingFunction(*pricing);

  StatusOr<SimulationResult> result =
      SimulateMarket(*broker, *points, "squared");
  ASSERT_TRUE(result.ok());
  // Simulated revenue must equal the analytic TBV of the pricing curve.
  EXPECT_NEAR(result->revenue,
              revenue::RevenueForPricing(*points, **pricing), 1e-9);
  EXPECT_NEAR(result->affordability,
              revenue::AffordabilityForPricing(*points, **pricing), 1e-9);
  EXPECT_GT(result->transactions, 0);
  EXPECT_GT(result->mean_delivered_error, 0.0);
}

TEST(SimulateMarketTest, UnaffordablePricingSellsNothing) {
  StatusOr<Broker> broker = MakeBroker();
  ASSERT_TRUE(broker.ok());
  broker->SetPricingFunction(
      std::make_shared<pricing::ConstantPricing>(1e9, "absurd"));
  auto points = MakeBuyerPoints(ValueShape::kLinear, DemandShape::kUniform,
                                5, 1.0, 100.0, 100.0);
  ASSERT_TRUE(points.ok());
  StatusOr<SimulationResult> result =
      SimulateMarket(*broker, *points, "squared");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->transactions, 0);
  EXPECT_DOUBLE_EQ(result->revenue, 0.0);
  EXPECT_DOUBLE_EQ(result->affordability, 0.0);
}

TEST(SimulateMarketTest, FreePricingSellsToEveryone) {
  StatusOr<Broker> broker = MakeBroker();
  ASSERT_TRUE(broker.ok());
  broker->SetPricingFunction(
      std::make_shared<pricing::ConstantPricing>(0.0, "free"));
  auto points = MakeBuyerPoints(ValueShape::kLinear, DemandShape::kBimodal,
                                7, 1.0, 100.0, 100.0);
  ASSERT_TRUE(points.ok());
  StatusOr<SimulationResult> result =
      SimulateMarket(*broker, *points, "squared");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->transactions, 7);
  EXPECT_DOUBLE_EQ(result->affordability, 1.0);
  EXPECT_DOUBLE_EQ(result->revenue, 0.0);
}

}  // namespace
}  // namespace nimbus::market
