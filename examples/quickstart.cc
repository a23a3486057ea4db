// Quickstart: the smallest end-to-end Nimbus session.
//
// A seller lists a regression dataset; the broker trains the optimal
// model once; the seller's market research is turned into an
// arbitrage-free pricing curve with the revenue DP; and one buyer
// purchases a mid-accuracy model instance.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build &&
//               ./build/examples/quickstart

#include <cstdio>
#include <memory>

#include "common/random.h"
#include "data/synthetic.h"
#include "market/broker.h"
#include "market/curves.h"
#include "market/market_simulator.h"
#include "mechanism/noise_mechanism.h"

int main() {
  using namespace nimbus;  // NOLINT: example brevity.

  // 1. The seller's dataset: 1000 rows, 8 features, a linear target.
  Rng rng(42);
  data::RegressionSpec spec;
  spec.num_examples = 1000;
  spec.num_features = 8;
  spec.noise_stddev = 0.3;
  data::Dataset dataset = data::GenerateRegression(spec, rng);
  data::TrainTestSplit split = data::Split(dataset, 0.8, rng);

  // 2. The broker trains the optimal least-squares model (one-time cost)
  //    and prepares Gaussian-mechanism versioning.
  auto model = ml::ModelSpec::Create(ml::ModelKind::kLinearRegression, 0.0);
  market::Broker::Options options;
  options.min_inverse_ncp = 1.0;
  options.max_inverse_ncp = 100.0;
  auto broker = market::Broker::Create(
      std::move(split), *std::move(model),
      std::make_unique<mechanism::GaussianMechanism>(), options);
  if (!broker.ok()) {
    std::fprintf(stderr, "broker setup failed: %s\n",
                 broker.status().ToString().c_str());
    return 1;
  }

  // 3. Market research: concave value curve, uniform demand over 20
  //    versions; the seller negotiates the revenue-optimal
  //    arbitrage-free pricing function (Algorithm 1).
  auto research = market::MakeBuyerPoints(
      market::ValueShape::kConcave, market::DemandShape::kUniform, 20, 1.0,
      100.0, 50.0);
  auto seller = market::Seller::Create(*research);
  auto pricing = seller->NegotiatePricing();
  broker->SetPricingFunction(*pricing);
  std::printf("Seller expects revenue %.2f from the research population.\n",
              seller->predicted_revenue());

  // 4. A buyer asks for the price-error menu and buys with an error
  //    budget.
  auto menu = broker->PriceErrorCurve("squared");
  std::printf("\n%8s %14s %10s\n", "1/NCP", "expected error", "price");
  for (const auto& row : *menu) {
    std::printf("%8.1f %14.4f %10.2f\n", row.inverse_ncp, row.expected_error,
                row.price);
  }

  const double budget = (*menu)[menu->size() / 2].expected_error;
  auto purchase = broker->BuyWithErrorBudget(budget, "squared");
  if (!purchase.ok()) {
    std::fprintf(stderr, "purchase failed: %s\n",
                 purchase.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "\nBuyer purchased a model with expected error %.4f for %.2f "
      "(NCP delta = %.4f).\n",
      purchase->expected_error, purchase->price, purchase->ncp);
  std::printf("Revenue so far: %.2f across 1 sale.\n", purchase->price);
  return 0;
}
