#ifndef NIMBUS_AGGREGATE_AGGREGATE_MARKET_H_
#define NIMBUS_AGGREGATE_AGGREGATE_MARKET_H_

#include <memory>
#include <vector>

#include "common/random.h"
#include "common/statusor.h"
#include "data/dataset.h"
#include "mechanism/noise_mechanism.h"
#include "pricing/pricing_function.h"

namespace nimbus::aggregate {

// The paper's Example 1: the buyer "learns" a SQL-style aggregate of one
// feature column instead of a full model. The hypothesis space is R (a
// single number), the error is the squared distance to the true
// statistic, and the same NCP-controlled mechanisms and arbitrage-free
// pricing functions apply unchanged. This module is the minimal
// instantiation of the MBP framework on that setting.

enum class Statistic {
  kMean,      // Column average (the statistic used in Example 1).
  kSum,       // Column sum.
  kVariance,  // Population variance of the column.
};

// Computes the exact statistic of feature column `column`. Fails on an
// empty dataset or a column out of range.
StatusOr<double> ComputeStatistic(const data::Dataset& dataset, int column,
                                  Statistic statistic);

// A marketplace for one aggregate value: versions are NCPs, prices come
// from an arbitrage-free pricing function over x = 1/δ, and purchases
// return a noisy scalar produced by a mechanism (Example 1's K1 additive
// uniform and K2 multiplicative uniform both work, as does Gaussian).
//
// This is Example 1's toy market, not a second serving path. Its till
// (revenue_collected / sales_count) is deliberately a pair of counters,
// not a market::Ledger: it keeps no journal, snapshots or audit taps,
// and nothing serves or restores it. Model sales go through
// market::Marketplace and its Ledger.
class AggregateMarket {
 public:
  struct Options {
    double min_inverse_ncp = 1.0;
    double max_inverse_ncp = 1000.0;
    uint64_t seed = 1;
  };

  static StatusOr<AggregateMarket> Create(
      const data::Dataset& dataset, int column, Statistic statistic,
      std::unique_ptr<mechanism::NoiseMechanism> mechanism, Options options);

  AggregateMarket(AggregateMarket&&) = default;
  AggregateMarket& operator=(AggregateMarket&&) = default;

  double true_value() const { return truth_; }

  void SetPricingFunction(
      std::shared_ptr<const pricing::PricingFunction> pricing);

  // Expected squared error of the version at inverse NCP x (analytic,
  // via the mechanism's closed form).
  StatusOr<double> ExpectedSquaredErrorAt(double inverse_ncp) const;

  struct Sale {
    double value = 0.0;  // The noisy aggregate delivered.
    double price = 0.0;
    double ncp = 0.0;
    double expected_squared_error = 0.0;
  };

  // Buys the version at inverse NCP x (options-one purchase).
  StatusOr<Sale> BuyAtInverseNcp(double inverse_ncp);

  // Cheapest version with expected squared error <= budget (option two);
  // solved by bisection on the monotone error curve.
  StatusOr<Sale> BuyWithErrorBudget(double error_budget);

  double revenue_collected() const { return revenue_collected_; }
  int sales_count() const { return sales_count_; }

 private:
  AggregateMarket(double truth,
                  std::unique_ptr<mechanism::NoiseMechanism> mechanism,
                  Options options);

  double truth_;
  std::unique_ptr<mechanism::NoiseMechanism> mechanism_;
  Options options_;
  std::shared_ptr<const pricing::PricingFunction> pricing_;
  Rng rng_;
  double revenue_collected_ = 0.0;
  int sales_count_ = 0;
};

}  // namespace nimbus::aggregate

#endif  // NIMBUS_AGGREGATE_AGGREGATE_MARKET_H_
