#include "market/broker.h"

#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include <atomic>

#include "common/clock.h"
#include "common/math_util.h"
#include "common/random.h"
#include "data/synthetic.h"
#include "mechanism/noise_mechanism.h"

namespace nimbus::market {
namespace {

data::TrainTestSplit MakeRegressionSplit(uint64_t seed) {
  Rng rng(seed);
  data::RegressionSpec spec;
  spec.num_examples = 240;
  spec.num_features = 5;
  spec.noise_stddev = 0.4;
  data::Dataset all = data::GenerateRegression(spec, rng);
  return data::Split(all, 0.75, rng);
}

Broker::Options FastOptions() {
  Broker::Options options;
  options.error_curve_points = 10;
  options.samples_per_curve_point = 100;
  options.min_inverse_ncp = 1.0;
  options.max_inverse_ncp = 50.0;
  return options;
}

StatusOr<Broker> MakeBroker(uint64_t seed = 101) {
  StatusOr<ml::ModelSpec> spec =
      ml::ModelSpec::Create(ml::ModelKind::kLinearRegression, 0.0);
  if (!spec.ok()) {
    return spec.status();
  }
  return Broker::Create(MakeRegressionSplit(seed), *std::move(spec),
                        std::make_unique<mechanism::GaussianMechanism>(),
                        FastOptions());
}

TEST(BrokerTest, CreateValidatesOptions) {
  StatusOr<ml::ModelSpec> spec =
      ml::ModelSpec::Create(ml::ModelKind::kLinearRegression, 0.0);
  ASSERT_TRUE(spec.ok());
  Broker::Options bad = FastOptions();
  bad.min_inverse_ncp = -1.0;
  EXPECT_FALSE(Broker::Create(MakeRegressionSplit(1), *spec,
                              std::make_unique<mechanism::GaussianMechanism>(),
                              bad)
                   .ok());
  EXPECT_FALSE(
      Broker::Create(MakeRegressionSplit(1), *spec, nullptr, FastOptions())
          .ok());
}

TEST(BrokerTest, TrainsOptimalModelOnce) {
  StatusOr<Broker> broker = MakeBroker();
  ASSERT_TRUE(broker.ok());
  EXPECT_EQ(broker->optimal_model().size(), 5u);
}

TEST(BrokerTest, ErrorCurveIsMonotoneAndCached) {
  StatusOr<Broker> broker = MakeBroker();
  ASSERT_TRUE(broker.ok());
  StatusOr<std::shared_ptr<const pricing::ErrorCurve>> curve =
      broker->GetErrorCurve("squared");
  ASSERT_TRUE(curve.ok());
  std::vector<double> errors;
  for (const pricing::ErrorCurvePoint& p : (*curve)->points()) {
    errors.push_back(p.expected_error);
  }
  EXPECT_TRUE(IsNonIncreasing(errors, 1e-12));
  // Second call returns the same cached object.
  StatusOr<std::shared_ptr<const pricing::ErrorCurve>> again =
      broker->GetErrorCurve("squared");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*curve, *again);
}

TEST(BrokerTest, UnknownReportLossIsNotFound) {
  StatusOr<Broker> broker = MakeBroker();
  ASSERT_TRUE(broker.ok());
  EXPECT_EQ(broker->GetErrorCurve("zero_one").status().code(),
            StatusCode::kNotFound);
}

TEST(BrokerTest, PriceErrorCurveReflectsPricingFunction) {
  StatusOr<Broker> broker = MakeBroker();
  ASSERT_TRUE(broker.ok());
  broker->SetPricingFunction(
      std::make_shared<pricing::ConstantPricing>(9.0, "flat"));
  StatusOr<std::vector<Broker::PriceErrorPoint>> curve =
      broker->PriceErrorCurve("squared");
  ASSERT_TRUE(curve.ok());
  for (const Broker::PriceErrorPoint& p : *curve) {
    EXPECT_DOUBLE_EQ(p.price, 9.0);
  }
}

TEST(BrokerTest, BuyAtInverseNcpPricesTheVersion) {
  StatusOr<Broker> broker = MakeBroker();
  ASSERT_TRUE(broker.ok());
  broker->SetPricingFunction(std::make_shared<pricing::LinearPricing>(
      2.0, std::numeric_limits<double>::infinity(), "lin"));
  StatusOr<Broker::Purchase> purchase =
      broker->BuyAtInverseNcp(10.0, "squared");
  ASSERT_TRUE(purchase.ok());
  EXPECT_DOUBLE_EQ(purchase->price, 20.0);
  EXPECT_DOUBLE_EQ(purchase->ncp, 0.1);
  EXPECT_EQ(purchase->model.size(), 5u);
  // Out-of-range versions are rejected.
  EXPECT_EQ(broker->BuyAtInverseNcp(1000.0, "squared").status().code(),
            StatusCode::kOutOfRange);
}

TEST(BrokerTest, PurchasedModelQualityTracksPricePaid) {
  StatusOr<Broker> broker = MakeBroker();
  ASSERT_TRUE(broker.ok());
  // Buy many cheap (noisy) and many expensive (precise) models; the
  // expensive ones must be closer to the optimum on average.
  double cheap_err = 0.0;
  double dear_err = 0.0;
  const int reps = 200;
  for (int i = 0; i < reps; ++i) {
    StatusOr<Broker::Purchase> cheap = broker->BuyAtInverseNcp(1.0, "squared");
    StatusOr<Broker::Purchase> dear = broker->BuyAtInverseNcp(50.0, "squared");
    ASSERT_TRUE(cheap.ok());
    ASSERT_TRUE(dear.ok());
    cheap_err += linalg::SquaredDistance(cheap->model,
                                         broker->optimal_model());
    dear_err += linalg::SquaredDistance(dear->model, broker->optimal_model());
  }
  EXPECT_GT(cheap_err / reps, dear_err / reps);
  // Squared distances concentrate near δ (Lemma 3).
  EXPECT_NEAR(cheap_err / reps, 1.0, 0.2);
  EXPECT_NEAR(dear_err / reps, 0.02, 0.01);
}

TEST(BrokerTest, BuyWithErrorBudget) {
  StatusOr<Broker> broker = MakeBroker();
  ASSERT_TRUE(broker.ok());
  StatusOr<std::shared_ptr<const pricing::ErrorCurve>> curve =
      broker->GetErrorCurve("squared");
  ASSERT_TRUE(curve.ok());
  const double mid_error = (*curve)->ErrorAtInverseNcp(10.0);
  StatusOr<Broker::Purchase> purchase =
      broker->BuyWithErrorBudget(mid_error, "squared");
  ASSERT_TRUE(purchase.ok());
  EXPECT_LE(purchase->expected_error, mid_error + 1e-9);
  // Impossible budget: tighter than the best supported version.
  EXPECT_EQ(broker->BuyWithErrorBudget(0.0, "squared").status().code(),
            StatusCode::kInfeasible);
}

TEST(BrokerTest, BuyWithPriceBudgetMaximizesQuality) {
  StatusOr<Broker> broker = MakeBroker();
  ASSERT_TRUE(broker.ok());
  broker->SetPricingFunction(std::make_shared<pricing::LinearPricing>(
      1.0, std::numeric_limits<double>::infinity(), "lin"));
  StatusOr<Broker::Purchase> purchase =
      broker->BuyWithPriceBudget(25.0, "squared");
  ASSERT_TRUE(purchase.ok());
  // With p(x) = x the best affordable version is x = 25.
  EXPECT_NEAR(purchase->inverse_ncp, 25.0, 1e-6);
  EXPECT_NEAR(purchase->price, 25.0, 1e-6);
  // A budget below the cheapest version is infeasible.
  EXPECT_EQ(broker->BuyWithPriceBudget(0.5, "squared").status().code(),
            StatusCode::kInfeasible);
  // A huge budget buys the best version.
  StatusOr<Broker::Purchase> best =
      broker->BuyWithPriceBudget(1e9, "squared");
  ASSERT_TRUE(best.ok());
  EXPECT_DOUBLE_EQ(best->inverse_ncp, 50.0);
}

TEST(BrokerTest, PoissonBrokerErrorCurveIsMonotone) {
  // The Poisson GLM extension rides the same pipeline: strictly convex
  // loss -> Theorem 4 applies -> monotone error transformation.
  Rng rng(17);
  data::PoissonSpec spec;
  spec.num_examples = 300;
  spec.num_features = 4;
  data::Dataset all = data::GeneratePoissonRegression(spec, rng);
  data::TrainTestSplit split = data::Split(all, 0.75, rng);
  StatusOr<ml::ModelSpec> model =
      ml::ModelSpec::Create(ml::ModelKind::kPoissonRegression, 0.001);
  ASSERT_TRUE(model.ok());
  Broker::Options options = FastOptions();
  options.max_inverse_ncp = 200.0;  // Poisson losses need gentler noise.
  options.min_inverse_ncp = 20.0;
  StatusOr<Broker> broker =
      Broker::Create(std::move(split), *std::move(model),
                     std::make_unique<mechanism::GaussianMechanism>(),
                     options);
  ASSERT_TRUE(broker.ok());
  StatusOr<std::shared_ptr<const pricing::ErrorCurve>> curve =
      broker->GetErrorCurve("poisson");
  ASSERT_TRUE(curve.ok());
  std::vector<double> errors;
  for (const pricing::ErrorCurvePoint& p : (*curve)->points()) {
    errors.push_back(p.expected_error);
  }
  EXPECT_TRUE(IsNonIncreasing(errors, 1e-12));
  StatusOr<Broker::Purchase> purchase =
      broker->BuyAtInverseNcp(100.0, "poisson");
  ASSERT_TRUE(purchase.ok());
  EXPECT_EQ(purchase->model.size(), 4u);
}

TEST(BrokerTest, ClassificationBrokerSupportsZeroOneCurve) {
  Rng rng(7);
  data::ClassificationSpec spec;
  spec.num_examples = 300;
  spec.num_features = 4;
  spec.positive_prob = 0.95;
  data::Dataset all = data::GenerateClassification(spec, rng);
  data::TrainTestSplit split = data::Split(all, 0.75, rng);
  StatusOr<ml::ModelSpec> model =
      ml::ModelSpec::Create(ml::ModelKind::kLogisticRegression, 0.01);
  ASSERT_TRUE(model.ok());
  StatusOr<Broker> broker =
      Broker::Create(std::move(split), *std::move(model),
                     std::make_unique<mechanism::GaussianMechanism>(),
                     FastOptions());
  ASSERT_TRUE(broker.ok());
  StatusOr<std::shared_ptr<const pricing::ErrorCurve>> curve =
      broker->GetErrorCurve("zero_one");
  ASSERT_TRUE(curve.ok());
  std::vector<double> errors;
  for (const pricing::ErrorCurvePoint& p : (*curve)->points()) {
    errors.push_back(p.expected_error);
  }
  // §6.1's observation: even the (non-convex) 0/1 error behaves
  // monotonically w.r.t. 1/NCP.
  EXPECT_TRUE(IsNonIncreasing(errors, 1e-12));
}

TEST(BrokerTest, DrawBudgetDegradesCurveInsteadOfStalling) {
  // A budget below grid x samples forces the per-point sample count down
  // to budget / grid points; the curve and every quote served from it
  // carry the degraded flag.
  Broker::Options options = FastOptions();
  options.curve_draw_budget =
      static_cast<int64_t>(options.error_curve_points) * 10;
  StatusOr<ml::ModelSpec> spec =
      ml::ModelSpec::Create(ml::ModelKind::kLinearRegression, 0.0);
  ASSERT_TRUE(spec.ok());
  StatusOr<Broker> broker =
      Broker::Create(MakeRegressionSplit(303), *std::move(spec),
                     std::make_unique<mechanism::GaussianMechanism>(),
                     options);
  ASSERT_TRUE(broker.ok());
  StatusOr<std::shared_ptr<const pricing::ErrorCurve>> curve =
      broker->GetErrorCurve("squared");
  ASSERT_TRUE(curve.ok());
  EXPECT_TRUE((*curve)->degraded());
  StatusOr<Broker::Purchase> purchase =
      broker->BuyAtInverseNcp(10.0, "squared");
  ASSERT_TRUE(purchase.ok());
  EXPECT_TRUE(purchase->degraded);
}

// Advances by one step on every read, so a deadline expires after a
// deterministic number of CancelToken checks instead of a wall-clock
// race.
class SteppingClock : public Clock {
 public:
  explicit SteppingClock(int64_t step_ns) : step_ns_(step_ns) {}
  int64_t NowNanos() const override {
    return now_ns_.fetch_add(step_ns_, std::memory_order_relaxed) + step_ns_;
  }
  void SleepSeconds(double) override {}

 private:
  const int64_t step_ns_;
  mutable std::atomic<int64_t> now_ns_{0};
};

TEST(BrokerTest, CancelledCurveBuildDoesNotPerturbRngStream) {
  // A deadline firing in the middle of a cold curve build must not
  // consume the broker's rng stream: the retried build has to produce
  // the same curve — and later sales the same noise draws — as a broker
  // that was never cancelled, or the serving layer's byte-identical
  // ledger contract breaks whenever a deadline hits a cold cache.
  StatusOr<Broker> control = MakeBroker(505);
  StatusOr<Broker> cancelled = MakeBroker(505);
  ASSERT_TRUE(control.ok());
  ASSERT_TRUE(cancelled.ok());

  // Token construction reads the clock once (t = 1 step) and the
  // deadline is 1.5 steps, so Estimate's entry check (t = 2 steps)
  // passes and the first grid-point check (t >= 3 steps) expires —
  // cancellation lands inside the build, after the old code had already
  // forked the broker rng.
  SteppingClock clock(/*step_ns=*/1000000);
  CancelToken token(&clock, /*deadline_seconds=*/0.0015);
  StatusOr<std::shared_ptr<const pricing::ErrorCurve>> interrupted =
      cancelled->GetErrorCurve("squared", &token);
  ASSERT_EQ(interrupted.status().code(), StatusCode::kDeadlineExceeded)
      << interrupted.status();

  StatusOr<std::shared_ptr<const pricing::ErrorCurve>> want = control->GetErrorCurve("squared");
  StatusOr<std::shared_ptr<const pricing::ErrorCurve>> got =
      cancelled->GetErrorCurve("squared");
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  ASSERT_EQ((*want)->points().size(), (*got)->points().size());
  for (size_t i = 0; i < (*want)->points().size(); ++i) {
    EXPECT_EQ((*want)->points()[i].inverse_ncp,
              (*got)->points()[i].inverse_ncp);
    EXPECT_EQ((*want)->points()[i].expected_error,
              (*got)->points()[i].expected_error);
  }
  // The post-build stream position matches too: the next sale draws
  // bit-identical noise on both brokers.
  StatusOr<Broker::Purchase> want_sale =
      control->BuyAtInverseNcp(10.0, "squared");
  StatusOr<Broker::Purchase> got_sale =
      cancelled->BuyAtInverseNcp(10.0, "squared");
  ASSERT_TRUE(want_sale.ok());
  ASSERT_TRUE(got_sale.ok());
  EXPECT_EQ(linalg::SquaredDistance(want_sale->model, got_sale->model), 0.0);
}

TEST(BrokerTest, UnlimitedBudgetLeavesQuotesUndegraded) {
  StatusOr<Broker> broker = MakeBroker(304);
  ASSERT_TRUE(broker.ok());
  StatusOr<Broker::Purchase> purchase =
      broker->BuyAtInverseNcp(10.0, "squared");
  ASSERT_TRUE(purchase.ok());
  EXPECT_FALSE(purchase->degraded);
}

}  // namespace
}  // namespace nimbus::market
