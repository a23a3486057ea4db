// Adaptive pricing loop: the seller starts without market research,
// learns the demand and value curves from observed transactions, and
// re-optimizes prices each round — the ledger-driven version of the
// Figure 1 interaction. Over a few rounds the estimated-research DP
// approaches the revenue of a seller with oracle research.
//
// Round structure:
//   1. run a stochastic buyer population against the current prices,
//   2. estimate research from the round's transactions,
//   3. install the margin-robust DP prices computed from the estimate.

#include <cstdio>
#include <limits>
#include <memory>

#include "common/math_util.h"
#include "common/random.h"
#include "data/synthetic.h"
#include "market/broker.h"
#include "market/curves.h"
#include "market/ledger.h"
#include "market/population.h"
#include "market/research_estimation.h"
#include "mechanism/noise_mechanism.h"
#include "revenue/dp_optimizer.h"

int main() {
  using namespace nimbus;  // NOLINT: example brevity.

  Rng rng(321);
  data::RegressionSpec spec;
  spec.num_examples = 600;
  spec.num_features = 6;
  spec.noise_stddev = 0.3;
  data::Dataset all = data::GenerateRegression(spec, rng);
  data::TrainTestSplit split = data::Split(all, 0.8, rng);

  market::Broker::Options options;
  options.min_inverse_ncp = 1.0;
  options.max_inverse_ncp = 100.0;
  options.error_curve_points = 10;
  options.samples_per_curve_point = 100;
  auto model = ml::ModelSpec::Create(ml::ModelKind::kLinearRegression, 0.0);
  auto broker = market::Broker::Create(
      std::move(split), *std::move(model),
      std::make_unique<mechanism::GaussianMechanism>(), options);
  if (!broker.ok()) {
    std::fprintf(stderr, "%s\n", broker.status().ToString().c_str());
    return 1;
  }

  // The TRUE population (unknown to the seller): concave value curve.
  market::PopulationSpec population;
  population.num_buyers = 400;
  population.value_shape = market::ValueShape::kConcave;
  population.demand_shape = market::DemandShape::kUnimodal;
  population.v_max = 80.0;
  population.value_floor = 2.0;
  population.valuation_noise = 0.1;

  // Oracle benchmark: DP on the true curves.
  auto oracle_points = market::MakeBuyerPoints(
      population.value_shape, population.demand_shape, 20, 1.0, 100.0,
      population.v_max, population.value_floor);
  auto oracle_dp = revenue::OptimizeRevenueDpWithMargin(*oracle_points, 0.1);
  std::printf("oracle research DP (10%% margin) expects %.2f per unit "
              "demand mass\n\n",
              oracle_dp->revenue);

  // Round 0: no research — a cautious cheap linear price to gather data.
  broker->SetPricingFunction(std::make_shared<pricing::LinearPricing>(
      0.1, std::numeric_limits<double>::infinity(), "bootstrap"));

  market::Ledger ledger;
  const std::vector<double> grid = Linspace(1.0, 100.0, 20);
  for (int round = 0; round < 6; ++round) {
    Rng round_rng(1000 + static_cast<uint64_t>(round));
    auto outcome =
        market::RunPopulation(*broker, population, "squared", round_rng);
    if (!outcome.ok()) {
      std::fprintf(stderr, "%s\n", outcome.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "round %d: pricing '%s' served %3d/%3d buyers, revenue %8.2f\n",
        round, broker->pricing_function().name().c_str(), outcome->served,
        outcome->buyers, outcome->revenue);

    // Probe population with PRICE EXPLORATION: transactions only reveal
    // a lower bound on willingness to pay, so a learner that never
    // offers above its current price can never raise its estimate.
    // Randomly marking some offers up (rejected offers are simply not
    // recorded) lets the ledger discover the real value curve.
    market::PopulationSpec probe = population;
    probe.num_buyers = 120;
    Rng probe_rng(5000 + static_cast<uint64_t>(round));
    for (int i = 0; i < probe.num_buyers; ++i) {
      const double t =
          market::SampleDemandPosition(probe.demand_shape, probe_rng);
      const double x = 1.0 + t * 99.0;
      const double value =
          (probe.value_floor +
           (probe.v_max - probe.value_floor) *
               market::NormalizedValueAt(probe.value_shape, t)) *
          std::max(0.0, 1.0 + probe.valuation_noise * probe_rng.Gaussian());
      const double list_price =
          broker->pricing_function().PriceAtInverseNcp(x);
      const double offered =
          list_price * probe_rng.Uniform(1.0, 3.0) + probe_rng.Uniform(0, 2);
      if (offered <= value) {
        (void)ledger.Record("probe", ml::ModelKind::kLinearRegression, x,
                            offered, 0.0);
      }
    }

    // Re-estimate research and reprice with a 10% robustness margin.
    auto estimated = market::EstimateResearchFromLedger(
        ledger, ml::ModelKind::kLinearRegression, grid);
    if (!estimated.ok()) {
      std::printf("  (no transactions yet; keeping bootstrap prices)\n");
      continue;
    }
    auto dp = revenue::OptimizeRevenueDpWithMargin(*estimated, 0.1);
    auto curve = revenue::MakeDpPricingFunction(*estimated, *dp);
    if (curve.ok()) {
      broker->SetPricingFunction(
          std::make_shared<pricing::PiecewiseLinearPricing>(*curve));
    }
  }
  std::printf(
      "\nfinal prices were learned purely from transactions; compare the "
      "last rounds' revenue against the oracle above.\n");
  return 0;
}
