#include "market/broker.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/fault.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "common/telemetry.h"

namespace nimbus::market {
namespace {

// Request-path telemetry (see DESIGN.md, "Observability"): quote volume
// and latency, each a labeled family keyed by offering (the broker's
// model kind) — the rollup surface a sharded catalog reports into. Sales
// and revenue are the ledger's (ledger_sales_total, ledger_revenue_total).
// Brokers cache their offering's series references at construction so
// the hot path still pays only relaxed atomic updates.
telemetry::CounterVec& QuotesVec() {
  static telemetry::CounterVec& vec =
      telemetry::Registry::Global().GetCounterVec("broker_quotes_total",
                                                  "offering");
  return vec;
}

telemetry::HistogramVec& QuoteLatencyVec() {
  static telemetry::HistogramVec& vec =
      telemetry::Registry::Global().GetHistogramVec("broker_quote_latency_us",
                                                    "offering");
  return vec;
}

telemetry::Counter& BudgetCutCounter() {
  static telemetry::Counter& counter =
      telemetry::Registry::Global().GetCounter("broker_curve_budget_cuts_total");
  return counter;
}

telemetry::Counter& BatchesCounter() {
  static telemetry::Counter& counter =
      telemetry::Registry::Global().GetCounter("quote_batch_batches_total");
  return counter;
}

telemetry::Counter& BatchItemsCounter() {
  static telemetry::Counter& counter =
      telemetry::Registry::Global().GetCounter("quote_batch_items_total");
  return counter;
}

telemetry::Histogram& BatchLatency() {
  static telemetry::Histogram& histogram =
      telemetry::Registry::Global().GetHistogram("quote_batch_latency_us");
  return histogram;
}

}  // namespace

StatusOr<Broker> Broker::Create(
    data::TrainTestSplit split, ml::ModelSpec model,
    std::unique_ptr<mechanism::NoiseMechanism> mechanism, Options options) {
  if (mechanism == nullptr) {
    return InvalidArgumentError("broker needs a noise mechanism");
  }
  if (!(options.min_inverse_ncp > 0.0) ||
      !(options.max_inverse_ncp > options.min_inverse_ncp)) {
    return InvalidArgumentError("need 0 < min_inverse_ncp < max_inverse_ncp");
  }
  if (options.error_curve_points < 2) {
    return InvalidArgumentError("need at least two error-curve points");
  }
  if (options.samples_per_curve_point < 1) {
    return InvalidArgumentError("need at least one sample per curve point");
  }
  if (split.train.empty() || split.test.empty()) {
    return InvalidArgumentError("train and test sets must be non-empty");
  }
  // One-time training of the optimal model instance h*_λ(D) — the key
  // runtime property of the noise-injection approach (§1): later sales
  // only add noise, they never retrain.
  NIMBUS_ASSIGN_OR_RETURN(linalg::Vector optimal,
                          model.FitOptimal(split.train));
  return Broker(std::move(split), std::move(model), std::move(mechanism),
                options, std::move(optimal));
}

Broker::Broker(data::TrainTestSplit split, ml::ModelSpec model,
               std::unique_ptr<mechanism::NoiseMechanism> mechanism,
               Options options, linalg::Vector optimal_model)
    : split_(std::move(split)),
      model_(std::move(model)),
      mechanism_(std::move(mechanism)),
      options_(options),
      optimal_model_(std::move(optimal_model)),
      pricing_(std::make_shared<pricing::LinearPricing>(
          1.0, std::numeric_limits<double>::infinity(), "placeholder")),
      curve_cache_(std::make_shared<CurveCache>()),
      eval_fingerprint_(FingerprintDataset(split_.test)),
      build_mu_(std::make_unique<std::mutex>()),
      rng_(options.seed) {
  const std::string offering(ml::ModelKindToString(model_.kind()));
  quotes_counter_ = &QuotesVec().WithLabel(offering);
  quote_latency_ = &QuoteLatencyVec().WithLabel(offering);
}

void Broker::SetPricingFunction(
    std::shared_ptr<const pricing::PricingFunction> pricing) {
  NIMBUS_CHECK(pricing != nullptr);
  pricing_ = std::move(pricing);
}

void Broker::AttachCurveCache(std::shared_ptr<CurveCache> cache) {
  NIMBUS_CHECK(cache != nullptr);
  curve_cache_ = std::move(cache);
}

int Broker::EffectiveSamplesPerPoint() const {
  int samples = options_.samples_per_curve_point;
  if (options_.curve_draw_budget > 0) {
    const int64_t grid_points =
        static_cast<int64_t>(options_.error_curve_points);
    const int64_t total = grid_points * static_cast<int64_t>(samples);
    if (total > options_.curve_draw_budget) {
      samples = static_cast<int>(
          std::max<int64_t>(1, options_.curve_draw_budget / grid_points));
    }
  }
  return samples;
}

CurveKey Broker::CurveKeyFor(const std::string& report_loss_name) const {
  CurveKey key;
  key.dataset_fingerprint = eval_fingerprint_;
  key.model = std::string(ml::ModelKindToString(model_.kind()));
  key.mechanism = mechanism_->name();
  key.loss = report_loss_name;
  key.seed = options_.seed;
  key.min_inverse_ncp = options_.min_inverse_ncp;
  key.max_inverse_ncp = options_.max_inverse_ncp;
  key.grid_points = options_.error_curve_points;
  // The budget-reduced count, not the configured one: two brokers whose
  // budgets imply different sampling must never share a curve.
  key.samples_per_point = EffectiveSamplesPerPoint();
  return key;
}

StatusOr<pricing::ErrorCurve> Broker::BuildErrorCurve(
    const ml::Loss& loss, const CancelToken* cancel,
    const telemetry::TraceContext* trace) {
  telemetry::TraceSpan span("broker.build_error_curve", trace);
  const std::vector<double> grid =
      Linspace(options_.min_inverse_ncp, options_.max_inverse_ncp,
               options_.error_curve_points);
  // Honor the draw budget by shrinking the per-point sample count — the
  // deterministic analogue of a wall-clock deadline on curve builds.
  const int samples = EffectiveSamplesPerPoint();
  const bool budget_cut = samples != options_.samples_per_curve_point;
  if (budget_cut) {
    BudgetCutCounter().Increment();
    NIMBUS_LOG(kWarning)
        << "broker: error-curve build for '" << loss.name()
        << "' degraded to " << samples << " samples/point to fit a budget of "
        << options_.curve_draw_budget << " draws";
  }
  // Estimate advances the rng it is handed (one Fork per build). Run it
  // on a copy and commit the advance only on success: a deadline-
  // cancelled build must leave rng_ untouched so the retried build draws
  // the same noise — otherwise the byte-identical-ledger determinism
  // contract breaks whenever a deadline fires during a cold build.
  // build_mu_ extends the same discipline to concurrent builds of
  // different losses: copy, estimate, and commit are one critical
  // section, so the stream advances once per successful build in a
  // well-defined order.
  std::lock_guard<std::mutex> lock(*build_mu_);
  Rng build_rng = rng_;
  NIMBUS_ASSIGN_OR_RETURN(
      pricing::ErrorCurve curve,
      pricing::ErrorCurve::Estimate(*mechanism_, optimal_model_, loss,
                                    split_.test, grid, samples, build_rng,
                                    cancel, &span.context()));
  rng_ = build_rng;
  if (budget_cut) {
    curve.MarkDegraded();
    span.Annotate("budget-cut");
  }
  return curve;
}

StatusOr<std::shared_ptr<const pricing::ErrorCurve>> Broker::GetErrorCurve(
    const std::string& report_loss_name, const CancelToken* cancel,
    const telemetry::TraceContext* trace) {
  // Resolve the loss before touching the cache: unknown names fail fast
  // with kNotFound and never occupy a cache slot.
  NIMBUS_ASSIGN_OR_RETURN(std::shared_ptr<const ml::Loss> loss,
                          model_.FindReportLoss(report_loss_name));
  return curve_cache_->GetOrBuild(
      CurveKeyFor(report_loss_name),
      [&] { return BuildErrorCurve(*loss, cancel, trace); },
      StalePolicy::kWait, cancel);
}

StatusOr<std::vector<Broker::PriceErrorPoint>> Broker::PriceErrorCurve(
    const std::string& report_loss_name) {
  NIMBUS_ASSIGN_OR_RETURN(std::shared_ptr<const pricing::ErrorCurve> curve,
                          GetErrorCurve(report_loss_name));
  std::vector<PriceErrorPoint> out;
  out.reserve(curve->points().size());
  for (const pricing::ErrorCurvePoint& p : curve->points()) {
    out.push_back(PriceErrorPoint{p.inverse_ncp, p.expected_error,
                                  pricing_->PriceAtInverseNcp(p.inverse_ncp)});
  }
  return out;
}

StatusOr<Broker::Purchase> Broker::QuoteAtInverseNcp(
    double inverse_ncp, const pricing::ErrorCurve& curve, Rng& rng,
    const telemetry::TraceContext* trace) const {
  telemetry::TraceSpan span("broker.quote", trace);
  telemetry::ScopedTimer timer(*quote_latency_);
  quotes_counter_->Increment();
  StatusOr<Purchase> purchase =
      QuoteOne(inverse_ncp, curve.ErrorAtInverseNcp(inverse_ncp),
               curve.degraded(), rng);
  if (purchase.ok() && purchase->degraded) {
    span.Annotate("degraded");
  }
  return purchase;
}

StatusOr<Broker::Purchase> Broker::QuoteOne(double inverse_ncp,
                                            double expected_error,
                                            bool degraded, Rng& rng) const {
  FAULT_POINT("broker.quote");
  if (inverse_ncp < options_.min_inverse_ncp ||
      inverse_ncp > options_.max_inverse_ncp) {
    return OutOfRangeError("requested version is outside the supported "
                           "inverse-NCP range");
  }
  Purchase purchase;
  purchase.degraded = degraded;
  purchase.inverse_ncp = inverse_ncp;
  purchase.ncp = 1.0 / inverse_ncp;
  purchase.price = pricing_->PriceAtInverseNcp(inverse_ncp);
  purchase.expected_error = expected_error;
  purchase.model = mechanism_->Perturb(optimal_model_, purchase.ncp, rng);
  return purchase;
}

void Broker::QuoteBatch(const pricing::ErrorCurve& curve,
                        std::span<const QuoteBatchItem> items,
                        std::span<StatusOr<Purchase>> results,
                        const telemetry::TraceContext* trace) const {
  NIMBUS_CHECK(items.size() == results.size());
  if (items.empty()) {
    return;
  }
  telemetry::TraceSpan span("broker.quote_batch", trace);
  telemetry::ScopedTimer timer(BatchLatency());
  BatchesCounter().Increment();
  BatchItemsCounter().Increment(static_cast<int64_t>(items.size()));
  quotes_counter_->Increment(static_cast<int64_t>(items.size()));
  const bool degraded = curve.degraded();
  if (degraded) {
    span.Annotate("degraded");
  }
  // One pass over the piecewise-linear tables for the whole batch; the
  // per-item bits are identical to a lone ErrorAtInverseNcp call.
  std::vector<double> xs(items.size());
  std::vector<double> errors(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    xs[i] = items[i].inverse_ncp;
  }
  curve.ErrorAtInverseNcpBatch(xs, errors);
  for (size_t i = 0; i < items.size(); ++i) {
    results[i] = QuoteOne(xs[i], errors[i], degraded, *items[i].rng);
  }
}

StatusOr<Broker::Purchase> Broker::BuyAtInverseNcp(
    double inverse_ncp, const std::string& report_loss_name) {
  if (inverse_ncp < options_.min_inverse_ncp ||
      inverse_ncp > options_.max_inverse_ncp) {
    return OutOfRangeError("requested version is outside the supported "
                           "inverse-NCP range");
  }
  NIMBUS_ASSIGN_OR_RETURN(std::shared_ptr<const pricing::ErrorCurve> curve,
                          GetErrorCurve(report_loss_name));
  return QuoteAtInverseNcp(inverse_ncp, *curve, rng_);
}

StatusOr<Broker::Purchase> Broker::BuyWithErrorBudget(
    double error_budget, const std::string& report_loss_name) {
  NIMBUS_ASSIGN_OR_RETURN(std::shared_ptr<const pricing::ErrorCurve> curve,
                          GetErrorCurve(report_loss_name));
  // Price is monotone in x, so the cheapest qualifying version is the
  // smallest x meeting the budget — exactly the broker's optimization
  // problem in §3.2 (option two).
  NIMBUS_ASSIGN_OR_RETURN(double x,
                          curve->MinInverseNcpForErrorBudget(error_budget));
  return QuoteAtInverseNcp(x, *curve, rng_);
}

StatusOr<Broker::Purchase> Broker::BuyWithPriceBudget(
    double price_budget, const std::string& report_loss_name) {
  if (price_budget < 0.0) {
    return InvalidArgumentError("price budget must be non-negative");
  }
  NIMBUS_ASSIGN_OR_RETURN(std::shared_ptr<const pricing::ErrorCurve> curve,
                          GetErrorCurve(report_loss_name));
  // Expected error decreases with x while price increases, so the best
  // affordable version is the largest x with price <= budget (option
  // three of §3.2). Binary search on the monotone price curve.
  double lo = options_.min_inverse_ncp;
  double hi = options_.max_inverse_ncp;
  if (pricing_->PriceAtInverseNcp(lo) > price_budget) {
    return InfeasibleError("price budget below the cheapest version");
  }
  if (pricing_->PriceAtInverseNcp(hi) <= price_budget) {
    return QuoteAtInverseNcp(hi, *curve, rng_);
  }
  for (int iter = 0; iter < 100; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (pricing_->PriceAtInverseNcp(mid) <= price_budget) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return QuoteAtInverseNcp(lo, *curve, rng_);
}

}  // namespace nimbus::market
