// Reproduces Table 3 (dataset statistics) and Figure 6 (the error
// transformation curves): for each of the six datasets, trains the
// optimal model and prints the expected test error as a function of
// 1/NCP under the Gaussian mechanism — the square loss for the
// regression datasets, and both the logistic and 0/1 losses for the
// classification datasets, exactly the 3x3 grid of Figure 6.
//
// Flags:
//   --scale=N     divide the Table 3 row counts by N (default 1000; use
//                 1 for paper-scale data, which is slow but supported).
//   --samples=N   Monte-Carlo models per NCP point (paper: 2000;
//                 default here 400 to stay CI-friendly).
//   --points=N    number of 1/NCP grid points in [1, 100] (default 12).
//   --threads=N   set NIMBUS_THREADS for the run (0 = leave unset). The
//                 Figure 6 block is wall-clock timed, so comparing
//                 --threads=1 vs --threads=8 measures the ParallelFor
//                 speedup of ErrorCurve::Estimate; the curves themselves
//                 are bit-identical at every thread count.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "common/random.h"
#include "data/synthetic.h"
#include "mechanism/noise_mechanism.h"
#include "ml/model.h"
#include "pricing/error_curve.h"

namespace {

int FlagValue(int argc, char** argv, const char* name, int fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atoi(argv[i] + prefix.size());
    }
  }
  return fallback;
}

void PrintCurve(const char* dataset, const char* loss,
                const nimbus::pricing::ErrorCurve& curve) {
  std::printf("%-12s %-10s", dataset, loss);
  for (const nimbus::pricing::ErrorCurvePoint& p : curve.points()) {
    std::printf(" %8.4f", p.expected_error);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const int scale = FlagValue(argc, argv, "scale", 1000);
  const int samples = FlagValue(argc, argv, "samples", 400);
  const int points = FlagValue(argc, argv, "points", 12);
  const int threads = FlagValue(argc, argv, "threads", 0);
  if (threads > 0) {
    setenv("NIMBUS_THREADS", std::to_string(threads).c_str(),
           /*overwrite=*/1);
  }

  std::printf("Table 3: dataset statistics (sizes scaled by 1/%d)\n", scale);
  std::vector<nimbus::data::NamedDataset> suite =
      nimbus::data::MakePaperDatasets(scale, /*seed=*/20190642);
  nimbus::data::PrintTable3(suite);

  std::printf(
      "\nFigure 6: expected test error vs 1/NCP (Gaussian mechanism, %d "
      "models per point)\n",
      samples);
  const std::vector<double> grid = nimbus::Linspace(1.0, 100.0, points);
  std::printf("%-12s %-10s", "DataSet", "Loss");
  for (double x : grid) {
    std::printf(" %8.1f", x);
  }
  std::printf("\n");

  const auto figure6_start = std::chrono::steady_clock::now();
  nimbus::Rng rng(7);
  for (const nimbus::data::NamedDataset& ds : suite) {
    const bool regression = ds.task == nimbus::data::Task::kRegression;
    auto model = nimbus::ml::ModelSpec::Create(
        regression ? nimbus::ml::ModelKind::kLinearRegression
                   : nimbus::ml::ModelKind::kLogisticRegression,
        regression ? 0.0 : 1e-4);
    NIMBUS_CHECK(model.ok());
    auto optimal = model->FitOptimal(ds.split.train);
    NIMBUS_CHECK(optimal.ok()) << optimal.status();
    const nimbus::mechanism::GaussianMechanism mechanism;
    for (const auto& loss : model->report_losses()) {
      auto curve = nimbus::pricing::ErrorCurve::Estimate(
          mechanism, *optimal, *loss, ds.split.test, grid, samples, rng);
      NIMBUS_CHECK(curve.ok()) << curve.status();
      PrintCurve(ds.name.c_str(), loss->name().c_str(), *curve);
      // The headline claim of §6.1: the curve is monotone decreasing.
      std::vector<double> errors;
      for (const auto& p : curve->points()) {
        errors.push_back(p.expected_error);
      }
      NIMBUS_CHECK(nimbus::IsNonIncreasing(errors, 1e-9));
    }
  }
  const double figure6_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - figure6_start)
          .count();
  std::printf(
      "\nAll curves are monotone non-increasing in 1/NCP, matching "
      "Figure 6.\n");
  std::printf("Figure 6 block: %.1f ms (threads=%s)\n", figure6_ms,
              threads > 0 ? std::to_string(threads).c_str() : "auto");
  nimbus::bench::MaybeDumpMetrics(argc, argv);
  return 0;
}
