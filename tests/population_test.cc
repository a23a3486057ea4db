#include "market/population.h"

#include <memory>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/synthetic.h"
#include "market/market_simulator.h"
#include "mechanism/noise_mechanism.h"

namespace nimbus::market {
namespace {

StatusOr<Broker> MakeBroker() {
  Rng rng(3);
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
  options.samples_per_curve_point = 40;
  options.min_inverse_ncp = 1.0;
  options.max_inverse_ncp = 100.0;
  return Broker::Create(std::move(split), std::move(model),
                        std::make_unique<mechanism::GaussianMechanism>(),
                        options);
}

void InstallMbpPricing(Broker& broker) {
  auto points = MakeBuyerPoints(ValueShape::kConcave, DemandShape::kUniform,
                                15, 1.0, 100.0, 100.0, 2.0);
  Seller seller = *Seller::Create(*points);
  broker.SetPricingFunction(*seller.NegotiatePricing());
}

TEST(SampleDemandPositionTest, StaysInUnitIntervalAndTracksDensity) {
  Rng rng(5);
  int low = 0;
  int mid = 0;
  int high = 0;
  const int draws = 30000;
  for (int i = 0; i < draws; ++i) {
    const double t = SampleDemandPosition(DemandShape::kUnimodal, rng);
    ASSERT_GE(t, 0.0);
    ASSERT_LE(t, 1.0);
    if (t < 1.0 / 3.0) {
      ++low;
    } else if (t < 2.0 / 3.0) {
      ++mid;
    } else {
      ++high;
    }
  }
  // Unimodal demand concentrates in the middle third.
  EXPECT_GT(mid, low * 2);
  EXPECT_GT(mid, high * 2);
}

TEST(SampleDemandPositionTest, UniformIsRoughlyFlat) {
  Rng rng(6);
  double sum = 0.0;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    sum += SampleDemandPosition(DemandShape::kUniform, rng);
  }
  EXPECT_NEAR(sum / draws, 0.5, 0.02);
}

TEST(RunPopulationTest, EndToEndAccounting) {
  StatusOr<Broker> broker = MakeBroker();
  ASSERT_TRUE(broker.ok());
  InstallMbpPricing(*broker);
  PopulationSpec spec;
  spec.num_buyers = 150;
  Rng rng(7);
  StatusOr<PopulationOutcome> outcome =
      RunPopulation(*broker, spec, "squared", rng);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->buyers, 150);
  EXPECT_GT(outcome->served, 0);
  EXPECT_LE(outcome->served, 150);
  EXPECT_NEAR(outcome->affordability,
              static_cast<double>(outcome->served) / 150.0, 1e-12);
  EXPECT_GT(outcome->revenue, 0.0);
  EXPECT_GE(outcome->total_surplus, 0.0);
  EXPECT_EQ(outcome->served, outcome->point_purchases +
                                 outcome->error_budget_purchases +
                                 outcome->price_budget_purchases);
}

TEST(RunPopulationTest, StrategyMixIsRespected) {
  StatusOr<Broker> broker = MakeBroker();
  ASSERT_TRUE(broker.ok());
  InstallMbpPricing(*broker);
  PopulationSpec spec;
  spec.num_buyers = 100;
  spec.weight_point_purchase = 0.0;
  spec.weight_error_budget = 0.0;
  spec.weight_price_budget = 1.0;
  Rng rng(8);
  StatusOr<PopulationOutcome> outcome =
      RunPopulation(*broker, spec, "squared", rng);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->point_purchases, 0);
  EXPECT_EQ(outcome->error_budget_purchases, 0);
  EXPECT_EQ(outcome->served, outcome->price_budget_purchases);
}

TEST(RunPopulationTest, PriceBudgetBuyersNeverOverpay) {
  // With only price-budget buyers, surplus is non-negative by
  // construction and every sale price is at most the valuation; the
  // aggregate check is revenue <= sum of valuations <= buyers * v_max.
  StatusOr<Broker> broker = MakeBroker();
  ASSERT_TRUE(broker.ok());
  InstallMbpPricing(*broker);
  PopulationSpec spec;
  spec.num_buyers = 80;
  spec.weight_point_purchase = 0.0;
  spec.weight_error_budget = 0.0;
  spec.v_max = 30.0;
  spec.valuation_noise = 0.0;
  Rng rng(9);
  StatusOr<PopulationOutcome> outcome =
      RunPopulation(*broker, spec, "squared", rng);
  ASSERT_TRUE(outcome.ok());
  EXPECT_LE(outcome->revenue, 80 * 30.0 + 1e-9);
}

TEST(RunPopulationTest, UnaffordableMarketServesNobody) {
  StatusOr<Broker> broker = MakeBroker();
  ASSERT_TRUE(broker.ok());
  broker->SetPricingFunction(
      std::make_shared<pricing::ConstantPricing>(1e9, "absurd"));
  PopulationSpec spec;
  spec.num_buyers = 50;
  Rng rng(10);
  StatusOr<PopulationOutcome> outcome =
      RunPopulation(*broker, spec, "squared", rng);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->served, 0);
  EXPECT_DOUBLE_EQ(outcome->revenue, 0.0);
}

TEST(RunPopulationTest, Validation) {
  StatusOr<Broker> broker = MakeBroker();
  ASSERT_TRUE(broker.ok());
  Rng rng(11);
  PopulationSpec spec;
  spec.num_buyers = 0;
  EXPECT_FALSE(RunPopulation(*broker, spec, "squared", rng).ok());
  spec = PopulationSpec();
  spec.weight_point_purchase = 0.0;
  spec.weight_error_budget = 0.0;
  spec.weight_price_budget = 0.0;
  EXPECT_FALSE(RunPopulation(*broker, spec, "squared", rng).ok());
  spec = PopulationSpec();
  spec.valuation_noise = -0.1;
  EXPECT_FALSE(RunPopulation(*broker, spec, "squared", rng).ok());
  // Unknown loss surfaces as NOT_FOUND before any sale.
  spec = PopulationSpec();
  EXPECT_EQ(RunPopulation(*broker, spec, "zero_one", rng).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace nimbus::market
