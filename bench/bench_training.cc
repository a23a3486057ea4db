// Micro-benchmarks for the broker's one-time training cost (§1: the
// broker trains the optimal instance once; every later sale is just
// noise injection). Compares closed-form least squares, gradient
// descent, and Newton logistic training across dataset sizes, plus the
// revenue DP across instance sizes (its O(n²) scaling is the Figure 9
// claim).

// Threaded variants: benchmarks taking a trailing thread-count argument
// pin NIMBUS_THREADS for the run, so ->Args({n, d, 1}) vs ->Args({n, d, 8})
// shows the ParallelFor scaling of the hot path. Results are bit-identical
// across thread counts (deterministic chunked reductions + per-index RNG
// streams).

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "data/synthetic.h"
#include "market/curves.h"
#include "mechanism/noise_mechanism.h"
#include "ml/cross_validation.h"
#include "ml/loss.h"
#include "ml/trainer.h"
#include "pricing/error_curve.h"
#include "revenue/dp_optimizer.h"

namespace {

void SetThreads(int threads) {
  setenv("NIMBUS_THREADS", std::to_string(threads).c_str(), /*overwrite=*/1);
}

nimbus::data::Dataset MakeRegression(int n, int d, uint64_t seed) {
  nimbus::Rng rng(seed);
  nimbus::data::RegressionSpec spec;
  spec.num_examples = n;
  spec.num_features = d;
  spec.noise_stddev = 0.5;
  return nimbus::data::GenerateRegression(spec, rng);
}

nimbus::data::Dataset MakeClassification(int n, int d, uint64_t seed) {
  nimbus::Rng rng(seed);
  nimbus::data::ClassificationSpec spec;
  spec.num_examples = n;
  spec.num_features = d;
  return nimbus::data::GenerateClassification(spec, rng);
}

void BM_ClosedFormLeastSquares(benchmark::State& state) {
  const nimbus::data::Dataset data = MakeRegression(
      static_cast<int>(state.range(0)), static_cast<int>(state.range(1)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        nimbus::ml::FitLinearRegressionClosedForm(data, 0.01));
  }
}
BENCHMARK(BM_ClosedFormLeastSquares)
    ->Args({500, 10})
    ->Args({2000, 10})
    ->Args({2000, 50});

// Threaded closed-form ridge: large enough that the fused Gram kernel
// crosses its parallel threshold.
void BM_ClosedFormLeastSquaresThreaded(benchmark::State& state) {
  SetThreads(static_cast<int>(state.range(2)));
  const nimbus::data::Dataset data = MakeRegression(
      static_cast<int>(state.range(0)), static_cast<int>(state.range(1)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        nimbus::ml::FitLinearRegressionClosedForm(data, 0.01));
  }
}
BENCHMARK(BM_ClosedFormLeastSquaresThreaded)
    ->Args({20000, 50, 1})
    ->Args({20000, 50, 8});

// Threaded Monte-Carlo error-curve estimation — the §4.2 hot path (the
// paper's grid is 100 points x 2000 samples; kept smaller here so the
// micro-benchmark stays seconds-scale; bench_error_transform runs the
// paper-scale grid).
void BM_ErrorCurveEstimateThreaded(benchmark::State& state) {
  SetThreads(static_cast<int>(state.range(2)));
  const nimbus::data::Dataset data = MakeRegression(500, 10, 5);
  const auto weights = nimbus::ml::FitLinearRegressionClosedForm(data, 0.0);
  const nimbus::mechanism::GaussianMechanism mechanism;
  const nimbus::ml::SquaredLoss loss;
  std::vector<double> grid;
  for (int i = 0; i < state.range(0); ++i) {
    grid.push_back(1.0 + 99.0 * i / (state.range(0) - 1.0));
  }
  for (auto _ : state) {
    nimbus::Rng rng(17);
    benchmark::DoNotOptimize(nimbus::pricing::ErrorCurve::Estimate(
        mechanism, *weights, loss, data, grid,
        static_cast<int>(state.range(1)), rng));
  }
}
BENCHMARK(BM_ErrorCurveEstimateThreaded)
    ->Args({100, 200, 1})
    ->Args({100, 200, 8})
    ->Unit(benchmark::kMillisecond);

// Threaded k-fold cross-validation over the ridge-µ sweep.
void BM_CrossValidationThreaded(benchmark::State& state) {
  SetThreads(static_cast<int>(state.range(1)));
  const nimbus::data::Dataset data = MakeRegression(
      static_cast<int>(state.range(0)), 20, 7);
  const std::vector<double> mus = {0.0, 0.001, 0.01, 0.1, 1.0, 10.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(nimbus::ml::CrossValidateRidge(
        data, nimbus::ml::ModelKind::kLinearRegression, mus, 5, 42));
  }
}
BENCHMARK(BM_CrossValidationThreaded)
    ->Args({4000, 1})
    ->Args({4000, 8})
    ->Unit(benchmark::kMillisecond);

void BM_GradientDescentLeastSquares(benchmark::State& state) {
  const nimbus::data::Dataset data = MakeRegression(
      static_cast<int>(state.range(0)), static_cast<int>(state.range(1)), 2);
  const nimbus::ml::RegularizedLoss loss(
      std::make_shared<nimbus::ml::SquaredLoss>(), 0.01);
  nimbus::ml::GradientDescentOptions options;
  options.max_iterations = 200;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        nimbus::ml::MinimizeWithGradientDescent(loss, data, options));
  }
}
BENCHMARK(BM_GradientDescentLeastSquares)->Args({500, 10})->Args({2000, 10});

void BM_NewtonLogistic(benchmark::State& state) {
  const nimbus::data::Dataset data = MakeClassification(
      static_cast<int>(state.range(0)), static_cast<int>(state.range(1)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        nimbus::ml::FitLogisticRegressionNewton(data, 0.01));
  }
}
BENCHMARK(BM_NewtonLogistic)->Args({500, 10})->Args({2000, 10});

void BM_RevenueDp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto points = nimbus::market::MakeBuyerPoints(
      nimbus::market::ValueShape::kConcave,
      nimbus::market::DemandShape::kUniform, n, 1.0, 100.0, 100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nimbus::revenue::OptimizeRevenueDp(*points));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_RevenueDp)
    ->Arg(10)
    ->Arg(40)
    ->Arg(160)
    ->Arg(640)
    ->Complexity(benchmark::oNSquared);

}  // namespace
