#include "market/market_simulator.h"

#include <memory>

#include "common/parallel.h"
#include "common/telemetry.h"
#include "revenue/dp_optimizer.h"

namespace nimbus::market {
namespace {

telemetry::Counter& BuyersEvaluatedCounter() {
  static telemetry::Counter& counter =
      telemetry::Registry::Global().GetCounter("market_buyers_evaluated_total");
  return counter;
}

telemetry::Counter& TransactionsCounter() {
  static telemetry::Counter& counter =
      telemetry::Registry::Global().GetCounter("market_transactions_total");
  return counter;
}

telemetry::Histogram& SimulateLatency() {
  static telemetry::Histogram& histogram =
      telemetry::Registry::Global().GetHistogram("market_simulate_latency_us");
  return histogram;
}

}  // namespace

StatusOr<Seller> Seller::Create(
    std::vector<revenue::BuyerPoint> market_research) {
  NIMBUS_RETURN_IF_ERROR(revenue::ValidateBuyerPoints(
      market_research, /*require_monotone_valuations=*/true));
  return Seller(std::move(market_research));
}

StatusOr<std::shared_ptr<const pricing::PricingFunction>>
Seller::NegotiatePricing() const {
  NIMBUS_ASSIGN_OR_RETURN(revenue::DpResult dp,
                          revenue::OptimizeRevenueDp(market_research_));
  NIMBUS_ASSIGN_OR_RETURN(
      pricing::PiecewiseLinearPricing pricing,
      revenue::MakeDpPricingFunction(market_research_, dp));
  predicted_revenue_ = dp.revenue;
  return std::shared_ptr<const pricing::PricingFunction>(
      std::make_shared<pricing::PiecewiseLinearPricing>(std::move(pricing)));
}

StatusOr<SimulationResult> SimulateMarket(
    Broker& broker, const std::vector<revenue::BuyerPoint>& buyers,
    const std::string& report_loss_name) {
  telemetry::TraceSpan span("market.simulate");
  telemetry::ScopedTimer timer(SimulateLatency());
  NIMBUS_RETURN_IF_ERROR(revenue::ValidateBuyerPoints(
      buyers, /*require_monotone_valuations=*/false));
  NIMBUS_ASSIGN_OR_RETURN(std::shared_ptr<const ml::Loss> loss,
                          broker.model().FindReportLoss(report_loss_name));

  // Force the error curve once up front so the parallel quotes below hit
  // a read-only broker.
  NIMBUS_ASSIGN_OR_RETURN(std::shared_ptr<const pricing::ErrorCurve> curve,
                          broker.GetErrorCurve(report_loss_name));

  // Phase 1 (parallel): price every buyer point and quote the affordable
  // ones. Buyer i draws noise from the child stream base.Fork(i), so the
  // replay is bit-identical at every NIMBUS_THREADS setting.
  struct BuyerOutcome {
    bool bought = false;
    Status status;
    Broker::Purchase purchase;
  };
  const Rng base = broker.ForkRng();
  const int64_t n = static_cast<int64_t>(buyers.size());
  std::vector<BuyerOutcome> outcomes(buyers.size());
  ParallelFor(0, n, [&](int64_t i) {
    telemetry::TraceSpan buyer_span("market.buyer_eval");
    BuyersEvaluatedCounter().Increment();
    const revenue::BuyerPoint& buyer = buyers[static_cast<size_t>(i)];
    BuyerOutcome& outcome = outcomes[static_cast<size_t>(i)];
    const double price =
        broker.pricing_function().PriceAtInverseNcp(buyer.a);
    if (price > buyer.v * (1.0 + 1e-9) + 1e-9) {
      return;  // Buyer cannot afford this version.
    }
    Rng buyer_rng = base.Fork(static_cast<uint64_t>(i));
    StatusOr<Broker::Purchase> purchase =
        broker.QuoteAtInverseNcp(buyer.a, *curve, buyer_rng);
    outcome.status = purchase.status();
    if (purchase.ok()) {
      outcome.bought = true;
      outcome.purchase = *std::move(purchase);
    }
  });

  // Phase 2 (serial, in buyer order): book the sales and reduce the
  // accounting deterministically.
  telemetry::TraceSpan booking_span("market.record_sales");
  SimulationResult result;
  double total_mass = 0.0;
  double affordable_mass = 0.0;
  double error_sum = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const BuyerOutcome& outcome = outcomes[static_cast<size_t>(i)];
    NIMBUS_RETURN_IF_ERROR(outcome.status);
    total_mass += buyers[static_cast<size_t>(i)].b;
    if (!outcome.bought) {
      continue;
    }
    TransactionsCounter().Increment();
    affordable_mass += buyers[static_cast<size_t>(i)].b;
    ++result.transactions;
    // Weight revenue by the buyer mass this point represents, mirroring
    // TBV = Σ b_j z_j 1[z_j <= v_j].
    result.revenue += buyers[static_cast<size_t>(i)].b * outcome.purchase.price;
    error_sum += outcome.purchase.expected_error;
  }
  result.affordability = total_mass > 0.0 ? affordable_mass / total_mass : 0.0;
  result.mean_delivered_error =
      result.transactions > 0 ? error_sum / result.transactions : 0.0;
  return result;
}

}  // namespace nimbus::market
