#ifndef NIMBUS_MARKET_BROKER_H_
#define NIMBUS_MARKET_BROKER_H_

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/statusor.h"
#include "data/dataset.h"
#include "linalg/vector_ops.h"
#include "market/curve_cache.h"
#include "mechanism/noise_mechanism.h"
#include "ml/model.h"
#include "pricing/error_curve.h"
#include "pricing/pricing_function.h"

namespace nimbus::market {

// The broker agent of Figure 1(B): holds the seller's dataset, trains the
// optimal model instance once, builds error-transformation curves per
// report loss, and serves buyers noisy model versions priced by an
// arbitrage-free pricing function. Implements the full broker-buyer
// protocol of §3.2:
//   1. the buyer picks the model and error functions λ, ε;
//   2. the broker shows the price-error curve;
//   3. the buyer picks a point / error budget / price budget and pays;
//   4. the broker returns the noisy model instance.
class Broker {
 public:
  struct Options {
    // Grid of supported versions x = 1/δ.
    double min_inverse_ncp = 1.0;
    double max_inverse_ncp = 100.0;
    int error_curve_points = 25;
    // Monte-Carlo draws per error-curve point (paper uses 2000).
    int samples_per_curve_point = 200;
    // Deadline-style budget on curve construction, expressed as a cap on
    // total Monte-Carlo draws (grid points x samples) so it stays
    // deterministic. When a curve would exceed the cap, the per-point
    // sample count is reduced to fit (floor 1) and the curve — and every
    // quote served from it — is marked degraded instead of stalling the
    // quote path. 0 = unlimited.
    int64_t curve_draw_budget = 0;
    uint64_t seed = 20190642;
  };

  // Trains the optimal model on `split.train` and prepares the broker.
  // The pricing function starts as a unit-slope linear placeholder; call
  // SetPricingFunction after the seller runs revenue optimization.
  // (Pass Options{} for the defaults.)
  static StatusOr<Broker> Create(data::TrainTestSplit split,
                                 ml::ModelSpec model,
                                 std::unique_ptr<mechanism::NoiseMechanism>
                                     mechanism,
                                 Options options);

  Broker(Broker&&) = default;
  Broker& operator=(Broker&&) = default;
  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  const ml::ModelSpec& model() const { return model_; }
  const linalg::Vector& optimal_model() const { return optimal_model_; }
  const mechanism::NoiseMechanism& noise_mechanism() const {
    return *mechanism_;
  }
  const Options& options() const { return options_; }

  // Installs the pricing function agreed with the seller.
  void SetPricingFunction(
      std::shared_ptr<const pricing::PricingFunction> pricing);
  const pricing::PricingFunction& pricing_function() const {
    return *pricing_;
  }

  // Error-transformation curve for one of the model's report losses
  // (ε name as in ml::Loss::name()); computed lazily and cached. The
  // returned curve is immutable and shared — callers may quote against
  // it from any thread, and it stays alive across cache invalidations.
  // Lookups go through the CurveCache: hits are a shared_ptr copy under
  // a shared lock, cold builds are single-flight, and concurrent callers
  // for the same curve wait on the one in-flight build instead of
  // racing their own.
  // `cancel` (optional) aborts a cold-cache Monte-Carlo build at the
  // next grid-point boundary when the requesting caller's deadline
  // expires; cache hits never consult it. A cancelled build is not
  // cached, so the next caller retries it. `trace` (optional) nests a
  // cold build's spans under the requesting operation.
  StatusOr<std::shared_ptr<const pricing::ErrorCurve>> GetErrorCurve(
      const std::string& report_loss_name, const CancelToken* cancel = nullptr,
      const telemetry::TraceContext* trace = nullptr);

  // Replaces the broker's (default, private) curve cache with a shared
  // one, so every offering of a marketplace shares one cache instance.
  // Keys embed the per-offering seed / model / dataset fingerprint, so
  // sharing never aliases distinct curves. Call before the first
  // GetErrorCurve.
  void AttachCurveCache(std::shared_ptr<CurveCache> cache);

  // The cache serving this broker.
  const CurveCache* curve_cache() const { return curve_cache_.get(); }

  // Cache identity of one report loss's curve: everything the build
  // depends on, including the budget-reduced effective sample count.
  CurveKey CurveKeyFor(const std::string& report_loss_name) const;

  // One row of the price-error curve shown to buyers (Figure 2d).
  struct PriceErrorPoint {
    double inverse_ncp = 0.0;
    double expected_error = 0.0;
    double price = 0.0;
  };
  StatusOr<std::vector<PriceErrorPoint>> PriceErrorCurve(
      const std::string& report_loss_name);

  // A completed sale.
  struct Purchase {
    linalg::Vector model;
    double price = 0.0;
    double ncp = 0.0;
    double inverse_ncp = 0.0;
    double expected_error = 0.0;
    // True when the quote was served from a degraded error curve
    // (budget-reduced sampling or patched non-finite points).
    bool degraded = false;
  };

  // The three buyer options of §3.2. Each picks a version and quotes it
  // with noise drawn from the broker's own stream; the broker books
  // nothing — the marketplace ledger is the only record of sales.
  // Option 1: buy the version at a specific point x = 1/δ of the curve.
  StatusOr<Purchase> BuyAtInverseNcp(double inverse_ncp,
                                     const std::string& report_loss_name);

  // Option 2: cheapest version whose expected error is <= `error_budget`
  // (kInfeasible when no supported version qualifies).
  StatusOr<Purchase> BuyWithErrorBudget(double error_budget,
                                        const std::string& report_loss_name);

  // Option 3: most accurate version whose price is <= `price_budget`
  // (kInfeasible when even the cheapest version costs more).
  StatusOr<Purchase> BuyWithPriceBudget(double price_budget,
                                        const std::string& report_loss_name);

  // Concurrent quoting for the serving layer. Quote builds the same
  // purchase as BuyAtInverseNcp against an already-computed error curve,
  // drawing noise from the caller-supplied `rng` — safe to call from many
  // threads at once. The caller books accepted quotes in its ledger.
  // `trace` (optional) nests the quote span under the caller's request.
  StatusOr<Purchase> QuoteAtInverseNcp(
      double inverse_ncp, const pricing::ErrorCurve& curve, Rng& rng,
      const telemetry::TraceContext* trace = nullptr) const;

  // One request of a batched quote: the version to price and the
  // caller-owned noise stream to draw it from (per-ticket streams keep
  // batched output bit-identical to the single-quote path).
  struct QuoteBatchItem {
    double inverse_ncp = 0.0;
    Rng* rng = nullptr;
  };

  // Batched QuoteAtInverseNcp against one shared curve: amortizes the
  // span/telemetry overhead across the batch and evaluates the
  // piecewise-linear curve in one pass (ErrorAtInverseNcpBatch). Each
  // item gets exactly the purchase — same bits — that a lone
  // QuoteAtInverseNcp with the same rng would produce, including the
  // per-item 'broker.quote' fault check, so the serving layer can mix
  // batched and single quoting freely. results[i] carries item i's
  // outcome; requires results.size() == items.size() and non-null rngs.
  void QuoteBatch(const pricing::ErrorCurve& curve,
                  std::span<const QuoteBatchItem> items,
                  std::span<StatusOr<Purchase>> results,
                  const telemetry::TraceContext* trace = nullptr) const;

  // Derives an independent child stream from the broker's master RNG
  // (advancing it once); used to seed deterministic per-buyer streams.
  Rng ForkRng() { return rng_.Fork(); }

 private:
  Broker(data::TrainTestSplit split, ml::ModelSpec model,
         std::unique_ptr<mechanism::NoiseMechanism> mechanism,
         Options options, linalg::Vector optimal_model);

  // The per-item quote both QuoteAtInverseNcp and QuoteBatch run: the
  // 'broker.quote' fault point, then the range check, then the purchase
  // at `expected_error` with noise drawn from `rng`. A faulted or
  // rejected item leaves `rng` untouched.
  StatusOr<Purchase> QuoteOne(double inverse_ncp, double expected_error,
                              bool degraded, Rng& rng) const;

  // Budget-reduced per-point sample count (Options::curve_draw_budget);
  // part of the curve's cache identity.
  int EffectiveSamplesPerPoint() const;

  // One Monte-Carlo curve build with the RNG commit discipline: copies
  // rng_, runs Estimate, and commits the advance only on success, under
  // build_mu_ so concurrent builds of different losses never race the
  // stream. This is the CurveCache builder callback.
  StatusOr<pricing::ErrorCurve> BuildErrorCurve(
      const ml::Loss& loss, const CancelToken* cancel,
      const telemetry::TraceContext* trace);

  data::TrainTestSplit split_;
  ml::ModelSpec model_;
  std::unique_ptr<mechanism::NoiseMechanism> mechanism_;
  Options options_;
  linalg::Vector optimal_model_;
  std::shared_ptr<const pricing::PricingFunction> pricing_;
  std::shared_ptr<CurveCache> curve_cache_;
  uint64_t eval_fingerprint_ = 0;
  // Heap-held so the broker stays movable (std::mutex is not).
  std::unique_ptr<std::mutex> build_mu_;
  // This offering's series in the per-offering labeled families
  // (broker_*{offering=<model kind>}), interned once at construction —
  // registry-owned, so plain pointers keep the broker movable.
  telemetry::Counter* quotes_counter_ = nullptr;
  telemetry::Histogram* quote_latency_ = nullptr;
  Rng rng_;
};

}  // namespace nimbus::market

#endif  // NIMBUS_MARKET_BROKER_H_
