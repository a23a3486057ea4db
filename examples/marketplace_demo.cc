// The Nimbus demonstration scenario: a full marketplace session with one
// seller, one broker, and three buyer personas exercising all three
// purchase options of §3.2 on a classification model priced by the 0/1
// misclassification rate.
//
//   * "startup"   — tight price budget, takes the best model it affords;
//   * "lab"       — strict error budget, pays whatever that costs;
//   * "hobbyist"  — picks a cheap point straight off the menu.

#include <cstdio>
#include <memory>

#include "common/random.h"
#include "data/synthetic.h"
#include "market/broker.h"
#include "market/curves.h"
#include "market/market_simulator.h"
#include "mechanism/noise_mechanism.h"
#include "ml/loss.h"

namespace {

// What the personas paid, summed as they buy.
struct Till {
  double revenue = 0.0;
  int sales = 0;
};

void ReportPurchase(const char* persona,
                    const nimbus::StatusOr<nimbus::market::Broker::Purchase>&
                        purchase,
                    Till& till) {
  if (!purchase.ok()) {
    std::printf("%-10s could not buy: %s\n", persona,
                purchase.status().ToString().c_str());
    return;
  }
  std::printf(
      "%-10s bought 1/NCP=%6.2f  expected 0/1 error=%.4f  paid %7.2f\n",
      persona, purchase->inverse_ncp, purchase->expected_error,
      purchase->price);
  till.revenue += purchase->price;
  ++till.sales;
}

}  // namespace

int main() {
  using namespace nimbus;  // NOLINT: example brevity.

  // Seller's dataset: a noisy linearly separable classification problem
  // (a miniature SUSY stand-in).
  Rng rng(2019);
  data::ClassificationSpec spec;
  spec.num_examples = 2000;
  spec.num_features = 12;
  spec.positive_prob = 0.92;
  data::Dataset dataset = data::GenerateClassification(spec, rng);
  data::TrainTestSplit split = data::Split(dataset, 0.75, rng);

  std::printf("=== Nimbus marketplace demo ===\n");
  std::printf("Dataset: %d train / %d test rows, %d features.\n\n",
              split.train.num_examples(), split.test.num_examples(),
              split.train.num_features());

  // Broker setup: logistic regression menu, Gaussian mechanism.
  auto model = ml::ModelSpec::Create(ml::ModelKind::kLogisticRegression, 1e-3);
  market::Broker::Options options;
  options.min_inverse_ncp = 1.0;
  options.max_inverse_ncp = 100.0;
  options.error_curve_points = 20;
  options.samples_per_curve_point = 300;
  auto broker = market::Broker::Create(
      std::move(split), *std::move(model),
      std::make_unique<mechanism::GaussianMechanism>(), options);
  if (!broker.ok()) {
    std::fprintf(stderr, "broker setup failed: %s\n",
                 broker.status().ToString().c_str());
    return 1;
  }
  std::printf("Broker trained the optimal logistic model (one-time cost).\n");

  // Seller market research and pricing negotiation.
  auto research = market::MakeBuyerPoints(
      market::ValueShape::kSigmoid, market::DemandShape::kBimodal, 25, 1.0,
      100.0, 200.0);
  auto seller = market::Seller::Create(*research);
  auto pricing = seller->NegotiatePricing();
  broker->SetPricingFunction(*pricing);
  std::printf(
      "Seller installed the MBP pricing curve (predicted revenue %.2f).\n\n",
      seller->predicted_revenue());

  // Show the buyer-facing price-error menu (Figure 2d).
  auto menu = broker->PriceErrorCurve("zero_one");
  std::printf("Price-error menu (0/1 misclassification rate):\n");
  std::printf("%8s %16s %10s\n", "1/NCP", "expected error", "price");
  for (size_t i = 0; i < menu->size(); i += 4) {
    const auto& row = (*menu)[i];
    std::printf("%8.1f %16.4f %10.2f\n", row.inverse_ncp, row.expected_error,
                row.price);
  }
  std::printf("\n");

  Till till;
  // Persona 1: price budget.
  ReportPurchase("startup", broker->BuyWithPriceBudget(40.0, "zero_one"),
                 till);
  // Persona 2: error budget, slightly looser than the best version.
  const double best_error = menu->back().expected_error;
  ReportPurchase("lab", broker->BuyWithErrorBudget(best_error * 1.1, "zero_one"),
                 till);
  // Persona 3: a point straight off the menu.
  ReportPurchase("hobbyist", broker->BuyAtInverseNcp(5.0, "zero_one"), till);
  // Persona 4: an impossible ask, to show graceful failure.
  ReportPurchase("dreamer", broker->BuyWithErrorBudget(0.0, "zero_one"), till);

  // Finally, replay the research population through the market.
  auto sim = market::SimulateMarket(*broker, *research, "zero_one");
  std::printf(
      "\nPopulation replay: revenue %.2f, affordability %.1f%%, %d "
      "transactions, mean delivered error %.4f.\n",
      sim->revenue, 100.0 * sim->affordability, sim->transactions,
      sim->mean_delivered_error);
  std::printf("Persona till: %.2f across %d sales.\n", till.revenue,
              till.sales);
  return 0;
}
