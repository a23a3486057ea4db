// Warm-quote smoke: how fast does the broker answer once the error
// curve exists? Each call is a curve-cache hit plus QuoteAtInverseNcp,
// the steady-state single-quote path, timed individually (steady_clock
// around each call) so the p50 is an honest per-quote number. Serving
// throughput and latency are perfbench's to measure; this binary only
// guards the quote path against regressing onto a per-request curve
// build or an exclusive lock. Flags:
//   --quotes=N               calls to time (default 200000)
//   --seed=N                 master seed (default 20190642)
//   --fast                   ctest-sized run: 20000 quotes
//   --check-warm-p50-us=X    exit non-zero when the warm-quote p50
//                            exceeds X microseconds.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "data/synthetic.h"
#include "market/curves.h"
#include "market/market_simulator.h"
#include "market/marketplace.h"

namespace {

using nimbus::Rng;
using nimbus::StatusOr;
using nimbus::market::Broker;
using nimbus::market::Marketplace;

int IntFlag(int argc, char** argv, const char* name, int fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atoi(argv[i] + prefix.size());
    }
  }
  return fallback;
}

double DoubleFlag(int argc, char** argv, const char* name, double fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atof(argv[i] + prefix.size());
    }
  }
  return fallback;
}

bool BoolFlag(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) {
      return true;
    }
  }
  return false;
}

// Same market geometry as bench_soak.
Marketplace MakeMarket(uint64_t seed) {
  Rng rng(seed);
  nimbus::data::ClassificationSpec spec;
  spec.num_examples = 300;
  spec.num_features = 5;
  spec.positive_prob = 0.9;
  nimbus::data::Dataset all = nimbus::data::GenerateClassification(spec, rng);
  Broker::Options options;
  options.error_curve_points = 8;
  options.samples_per_curve_point = 50;
  options.min_inverse_ncp = 1.0;
  options.max_inverse_ncp = 50.0;
  Marketplace market(nimbus::data::Split(all, 0.75, rng), options);
  auto points = nimbus::market::MakeBuyerPoints(
      nimbus::market::ValueShape::kConcave,
      nimbus::market::DemandShape::kUniform, 10, 1.0, 50.0, 80.0, 2.0);
  nimbus::market::Seller seller = *nimbus::market::Seller::Create(*points);
  auto pricing = *seller.NegotiatePricing();
  if (!market
           .AddOffering(nimbus::ml::ModelKind::kLogisticRegression, 0.01,
                        pricing)
           .ok()) {
    std::fprintf(stderr, "market setup failed\n");
    std::exit(2);
  }
  return market;
}

double ElapsedUs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = BoolFlag(argc, argv, "fast");
  const int quotes = std::max(1, IntFlag(argc, argv, "quotes",
                                         fast ? 20000 : 200000));
  const uint64_t seed =
      static_cast<uint64_t>(IntFlag(argc, argv, "seed", 20190642));
  const double warm_p50_gate =
      DoubleFlag(argc, argv, "check-warm-p50-us", 0.0);

  // The curve is built once here; every timed call is a cache hit.
  Marketplace market = MakeMarket(seed);
  Broker* broker =
      *market.BrokerFor(nimbus::ml::ModelKind::kLogisticRegression);
  const std::string loss = broker->model().report_losses().front()->name();
  if (!broker->GetErrorCurve(loss).ok()) {
    std::fprintf(stderr, "warm-up build failed\n");
    return 2;
  }
  const Rng base(seed);

  double checksum = 0.0;  // Defeats dead-code elimination.
  std::vector<double> samples_us;
  samples_us.reserve(quotes);
  for (int i = 0; i < quotes; ++i) {
    Rng rng = base.Fork(4 * static_cast<uint64_t>(i));
    const auto start = std::chrono::steady_clock::now();
    StatusOr<std::shared_ptr<const nimbus::pricing::ErrorCurve>> hit =
        broker->GetErrorCurve(loss);
    StatusOr<Broker::Purchase> purchase = broker->QuoteAtInverseNcp(
        1.5 + static_cast<double>(i % 37), **hit, rng);
    samples_us.push_back(ElapsedUs(start));
    if (!purchase.ok()) {
      std::fprintf(stderr, "warm quote %d failed\n", i);
      return 2;
    }
    checksum += purchase->price;
  }
  std::nth_element(samples_us.begin(),
                   samples_us.begin() + samples_us.size() / 2,
                   samples_us.end());
  const double p50_us = samples_us[samples_us.size() / 2];
  std::printf("bench_quote (quotes=%d, checksum=%.3f): warm p50 %.2f us\n",
              quotes, checksum, p50_us);

  if (warm_p50_gate > 0.0) {
    if (p50_us > warm_p50_gate) {
      std::printf("FAIL: warm-quote p50 %.2f us exceeds the %.2f us gate\n",
                  p50_us, warm_p50_gate);
      return 1;
    }
    std::printf("PASS: warm-quote p50 within the %.2f us gate\n",
                warm_p50_gate);
  }
  return 0;
}
