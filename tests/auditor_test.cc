#include "market/auditor.h"

#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/flight_recorder.h"
#include "common/random.h"
#include "common/telemetry.h"
#include "data/synthetic.h"
#include "market/catalog.h"
#include "market/curves.h"
#include "market/market_simulator.h"
#include "market/marketplace.h"
#include "one_shard_catalog.h"
#include "service/service.h"

namespace nimbus::market {
namespace {

using service::MarketService;
using service::PurchaseRequest;
using service::PurchaseResult;
using service::ServiceOptions;
using testutil::OneShardCatalog;

data::TrainTestSplit ClassificationSplit(uint64_t seed) {
  Rng rng(seed);
  data::ClassificationSpec spec;
  spec.num_examples = 260;
  spec.num_features = 4;
  spec.positive_prob = 0.92;
  data::Dataset all = data::GenerateClassification(spec, rng);
  return data::Split(all, 0.75, rng);
}

Broker::Options FastOptions() {
  Broker::Options options;
  options.error_curve_points = 6;
  options.samples_per_curve_point = 40;
  options.min_inverse_ncp = 1.0;
  options.max_inverse_ncp = 50.0;
  return options;
}

std::shared_ptr<const pricing::PricingFunction> SomeMbpPricing() {
  auto points = MakeBuyerPoints(ValueShape::kConcave, DemandShape::kUniform,
                                10, 1.0, 50.0, 80.0, 2.0);
  Seller seller = *Seller::Create(*points);
  return *seller.NegotiatePricing();
}

Marketplace MakeMarket(uint64_t seed) {
  Marketplace market(ClassificationSplit(seed), FastOptions());
  EXPECT_TRUE(market
                  .AddOffering(ml::ModelKind::kLogisticRegression, 0.01,
                               SomeMbpPricing())
                  .ok());
  return market;
}

PurchaseRequest MakeRequest(int i) {
  PurchaseRequest request;
  request.buyer_id = "buyer-" + std::to_string(i % 5);
  request.model = ml::ModelKind::kLogisticRegression;
  request.inverse_ncp = 2.0 + static_cast<double>(i % 10);
  return request;
}

// Monotone but superadditive: p(x+y) = (x+y)^2 > x^2 + y^2 — violates
// the subadditivity half of Theorem 5's arbitrage-freeness condition.
class QuadraticPricing final : public pricing::PricingFunction {
 public:
  double PriceAtInverseNcp(double x) const override { return x * x; }
  std::string name() const override { return "quadratic"; }
};

// Dips after x = 2 — violates the monotonicity half.
class DippingPricing final : public pricing::PricingFunction {
 public:
  double PriceAtInverseNcp(double x) const override {
    return x <= 2.0 ? 10.0 * x : 20.0 / x;
  }
  std::string name() const override { return "dipping"; }
};

int64_t DumpsTotal() {
  return telemetry::Registry::Global().GetCounter("flight_dumps_total").Value();
}

class AuditorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Reset();
    telemetry::FlightRecorder::Global().ClearForTest();
  }
  void TearDown() override {
    fault::Reset();
    ::unsetenv("NIMBUS_FLIGHT_RECORDER");
  }
};

// Runs `n` requests through a one-shard service with `auditor`
// tapped in, waits for every terminal outcome, and returns the ok
// count. The submission order is deterministic (single submitter).
int RunTraffic(MarketService& service, int n, int start = 0) {
  std::vector<std::future<PurchaseResult>> futures;
  futures.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    futures.push_back(service.Submit(MakeRequest(start + i)));
  }
  int ok = 0;
  for (auto& future : futures) {
    if (future.get().status.ok()) {
      ++ok;
    }
  }
  return ok;
}

TEST_F(AuditorTest, CleanTrafficCertifiesEveryInvariant) {
  OneShardCatalog store([] { return MakeMarket(101); });
  AuditorOptions audit_options;
  Auditor auditor(audit_options);
  ServiceOptions options;
  options.num_workers = 2;
  options.auditor = &auditor;
  MarketService service(store.catalog(), options);
  ASSERT_TRUE(service.Start().ok());

  const int ok = RunTraffic(service, 60);
  EXPECT_EQ(ok, 60);
  auditor.RunPass();

  const Auditor::Status status = auditor.GetStatus();
  EXPECT_EQ(status.violations, 0) << (status.recent.empty()
                                          ? std::string("no detail")
                                          : status.recent.front().detail);
  EXPECT_EQ(status.commits_observed, ok);
  EXPECT_EQ(status.samples_audited, ok);  // sample_rate = 1.0
  EXPECT_EQ(status.samples_dropped, 0);
  EXPECT_GE(status.passes, 1);
  EXPECT_GT(status.last_pass_t_ns, 0);
  EXPECT_EQ(status.first_violation_t_ns, 0);
  EXPECT_TRUE(service.Healthy());
  EXPECT_TRUE(service.Drain().ok());
}

TEST_F(AuditorTest, BackgroundLoopAuditsWithoutPerturbingTheLedger) {
  // Two identical workloads — auditor running vs absent — must produce
  // byte-identical ledgers (the detection-only contract).
  auto run = [](bool with_auditor, std::string* csv, Auditor::Status* status) {
    OneShardCatalog store([] { return MakeMarket(77); });
    AuditorOptions audit_options;
    audit_options.pass_interval_seconds = 0.001;
    Auditor auditor(audit_options);
    ServiceOptions options;
    options.num_workers = 4;
    if (with_auditor) {
      options.auditor = &auditor;
      auditor.Start();
      EXPECT_TRUE(auditor.running());
    }
    MarketService service(store.catalog(), options);
    ASSERT_TRUE(service.Start().ok());
    EXPECT_EQ(RunTraffic(service, 40), 40);
    EXPECT_TRUE(service.Drain().ok());
    auditor.Stop();
    EXPECT_FALSE(auditor.running());
    auditor.RunPass();  // Mop up anything the loop had not drained.
    *status = auditor.GetStatus();
    ASSERT_TRUE(store.market().HydrateLedger().ok());
    *csv = store.market().ledger().ToCsv();
  };
  std::string with_csv, without_csv;
  Auditor::Status with_status, without_status;
  run(true, &with_csv, &with_status);
  run(false, &without_csv, &without_status);

  EXPECT_EQ(with_csv, without_csv);
  EXPECT_EQ(with_status.violations, 0);
  EXPECT_EQ(with_status.commits_observed, 40);
  EXPECT_EQ(with_status.samples_audited, 40);
  EXPECT_EQ(without_status.commits_observed, 0);  // Never registered.
}

TEST_F(AuditorTest, MispricingDrillFlagsExactlyTheCorruptedSample) {
  const std::string dump_path =
      ::testing::TempDir() + "/auditor_drill_dump.json";
  ::setenv("NIMBUS_FLIGHT_RECORDER", dump_path.c_str(), 1);
  const int64_t dumps_before = DumpsTotal();

  OneShardCatalog store([] { return MakeMarket(55); });
  Auditor auditor(AuditorOptions{});
  ServiceOptions options;
  options.num_workers = 1;
  options.auditor = &auditor;
  MarketService service(store.catalog(), options);
  ASSERT_TRUE(service.Start().ok());

  // Corrupt the 3rd sampled COPY (ledger untouched). With sample_rate
  // 1.0 and one lane, that is deterministically ticket 2.
  ASSERT_TRUE(fault::Configure("audit.verify:3:1").ok());
  EXPECT_EQ(RunTraffic(service, 20), 20);
  fault::Reset();
  auditor.RunPass();

  const Auditor::Status status = auditor.GetStatus();
  EXPECT_EQ(status.violations, 1);
  ASSERT_EQ(status.recent.size(), 1u);
  const Auditor::Violation& v = status.recent.front();
  EXPECT_EQ(v.invariant, AuditInvariant::kMispricing);
  EXPECT_EQ(v.ticket, 2);
  EXPECT_EQ(v.offering, "logistic_regression");
  EXPECT_NE(v.trace_id, 0u);
  EXPECT_GT(status.first_violation_t_ns, 0);

  // The violation files an audit-flagged flight carrying the sampled
  // trace id, and the ring auto-dumped exactly once for the invariant.
  bool flagged = false;
  for (const telemetry::FlightRecord& record :
       telemetry::FlightRecorder::Global().Snapshot()) {
    if (record.audit_violation && record.trace_id == v.trace_id) {
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged);
  EXPECT_EQ(DumpsTotal() - dumps_before, 1);

  // Detection is sticky in the health report but never blocks serving.
  const MarketService::HealthReport report = service.GetHealthReport();
  EXPECT_FALSE(report.healthy);
  ASSERT_FALSE(report.problems.empty());
  EXPECT_NE(report.problems.front().find("audit violation"),
            std::string::npos);
  EXPECT_NE(report.problems.front().find("mispricing"), std::string::npos);
  EXPECT_EQ(RunTraffic(service, 5, /*start=*/20), 5);

  // A second mispricing on the same invariant must not dump again.
  ASSERT_TRUE(fault::Configure("audit.verify:2:1").ok());
  EXPECT_EQ(RunTraffic(service, 5, /*start=*/25), 5);
  fault::Reset();
  auditor.RunPass();
  EXPECT_EQ(auditor.GetStatus().violations, 2);
  EXPECT_EQ(DumpsTotal() - dumps_before, 1);
  EXPECT_TRUE(service.Drain().ok());
}

TEST_F(AuditorTest, CurveSwapTripsMonotonicityThenSubadditivity) {
  // Drives the tap directly (no service): commits are synthesized
  // against the broker's CURRENT pricing function, so the re-price
  // check stays green and only the memoized curve audit can fire.
  Marketplace market = MakeMarket(31);
  Broker* broker = *market.BrokerFor(ml::ModelKind::kLogisticRegression);
  Auditor auditor(AuditorOptions{});
  AuditTap* tap = auditor.RegisterLane("", nullptr, &market);
  ASSERT_NE(tap, nullptr);

  double booked = 0.0;
  int64_t ticket = 0;
  auto commit = [&](double inverse_ncp) {
    Auditor::CommitView view;
    view.model = ml::ModelKind::kLogisticRegression;
    view.inverse_ncp = inverse_ncp;
    view.price = broker->pricing_function().PriceAtInverseNcp(inverse_ncp);
    booked += view.price;
    view.booked_revenue_after = booked;
    view.sales_after = ticket + 1;
    view.trace_id = 9000 + static_cast<uint64_t>(ticket);
    view.ticket = ticket++;
    auditor.OnCommit(tap, view);
  };

  // The negotiated MBP curve certifies clean.
  commit(2.0);
  commit(5.0);
  EXPECT_EQ(auditor.RunPass(), 0);

  // Swap in a non-monotone curve: the memo sees a new pricing-function
  // instance and re-certifies — exactly one violation per bad curve,
  // not one per sampled commit.
  broker->SetPricingFunction(std::make_shared<DippingPricing>());
  commit(3.0);
  commit(4.0);
  EXPECT_EQ(auditor.RunPass(), 1);
  Auditor::Status status = auditor.GetStatus();
  ASSERT_EQ(status.recent.size(), 1u);
  EXPECT_EQ(status.recent.back().invariant, AuditInvariant::kMonotonicity);
  EXPECT_EQ(status.recent.back().offering, "logistic_regression");
  EXPECT_NE(status.recent.back().detail.find("monotonicity"),
            std::string::npos);

  // Swap in a monotone but superadditive curve.
  broker->SetPricingFunction(std::make_shared<QuadraticPricing>());
  commit(6.0);
  EXPECT_EQ(auditor.RunPass(), 1);
  status = auditor.GetStatus();
  ASSERT_EQ(status.recent.size(), 2u);
  EXPECT_EQ(status.recent.back().invariant, AuditInvariant::kSubadditivity);
  EXPECT_NE(status.recent.back().detail.find("subadditivity"),
            std::string::npos);
  EXPECT_EQ(status.violations, 2);
}

TEST_F(AuditorTest, ConservationTamperIsDetectedAndAttributed) {
  OneShardCatalog store([] { return MakeMarket(63); });
  Auditor auditor(AuditorOptions{});
  ServiceOptions options;
  options.num_workers = 1;
  options.auditor = &auditor;
  MarketService service(store.catalog(), options);
  ASSERT_TRUE(service.Start().ok());
  EXPECT_EQ(RunTraffic(service, 10), 10);
  auditor.RunPass();
  EXPECT_EQ(auditor.GetStatus().violations, 0);

  // Skew the lane's fingerprint (the ledger is untouched): the next
  // pass must flag conservation against the booked total.
  auditor.TamperForTest("solo", 0.5);
  EXPECT_GE(auditor.RunPass(), 1);
  const Auditor::Status status = auditor.GetStatus();
  ASSERT_FALSE(status.recent.empty());
  const Auditor::Violation& v = status.recent.back();
  EXPECT_EQ(v.invariant, AuditInvariant::kConservation);
  EXPECT_EQ(v.product, "solo");
  EXPECT_EQ(v.offering, "");
  EXPECT_NE(v.detail.find("booked revenue"), std::string::npos);

  const MarketService::HealthReport report = service.GetHealthReport();
  EXPECT_FALSE(report.healthy);
  ASSERT_FALSE(report.problems.empty());
  EXPECT_NE(report.problems.front().find("shard solo: audit violation"),
            std::string::npos)
      << report.problems.front();
  EXPECT_NE(report.problems.front().find("conservation"), std::string::npos);
  EXPECT_TRUE(service.Drain().ok());
}

TEST_F(AuditorTest, ShardedTamperNamesTheOwningShardOnly) {
  static int counter = 0;
  CatalogOptions catalog_options;
  catalog_options.root_dir = ::testing::TempDir() + "/auditor_shards_" +
                             std::to_string(::getpid()) + "_" +
                             std::to_string(counter++);
  Catalog catalog(catalog_options);
  auto factory = []() -> StatusOr<Marketplace> { return MakeMarket(47); };
  ASSERT_TRUE(catalog.AddProduct("wine", factory).ok());
  ASSERT_TRUE(catalog.AddProduct("cheese", factory).ok());

  Auditor auditor(AuditorOptions{});
  ServiceOptions options;
  options.num_workers = 2;
  options.auditor = &auditor;
  MarketService service(&catalog, options);
  ASSERT_TRUE(service.Start().ok());

  std::vector<std::future<PurchaseResult>> futures;
  for (int i = 0; i < 24; ++i) {
    PurchaseRequest request = MakeRequest(i);
    request.product_id = (i % 2 == 0) ? "wine" : "cheese";
    futures.push_back(service.Submit(std::move(request)));
  }
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().status.ok());
  }
  auditor.RunPass();
  EXPECT_EQ(auditor.GetStatus().violations, 0);
  EXPECT_EQ(auditor.GetStatus().commits_observed, 24);

  auditor.TamperForTest("wine", 3.0);
  EXPECT_GE(auditor.RunPass(), 1);
  const Auditor::Status status = auditor.GetStatus();
  ASSERT_FALSE(status.recent.empty());
  EXPECT_EQ(status.recent.back().invariant, AuditInvariant::kConservation);
  EXPECT_EQ(status.recent.back().product, "wine");

  // Blast radius: health names the wine shard; cheese stays clean.
  const MarketService::HealthReport report = service.GetHealthReport();
  EXPECT_FALSE(report.healthy);
  bool named_wine = false;
  for (const std::string& problem : report.problems) {
    EXPECT_EQ(problem.find("cheese"), std::string::npos) << problem;
    if (problem.find("shard wine: audit violation") != std::string::npos) {
      named_wine = true;
    }
  }
  EXPECT_TRUE(named_wine);
  EXPECT_TRUE(service.Drain().ok());
}

TEST_F(AuditorTest, SamplingIsDeterministicAcrossWorkerCounts) {
  auto run = [](int workers, Auditor::Status* status, std::string* csv) {
    OneShardCatalog store([] { return MakeMarket(91); });
    AuditorOptions audit_options;
    audit_options.sample_rate = 0.5;
    Auditor auditor(audit_options);
    ServiceOptions options;
    options.num_workers = workers;
    options.auditor = &auditor;
    MarketService service(store.catalog(), options);
    ASSERT_TRUE(service.Start().ok());
    EXPECT_EQ(RunTraffic(service, 80), 80);
    EXPECT_TRUE(service.Drain().ok());
    auditor.RunPass();
    *status = auditor.GetStatus();
    ASSERT_TRUE(store.market().HydrateLedger().ok());
    *csv = store.market().ledger().ToCsv();
  };
  Auditor::Status narrow, wide;
  std::string narrow_csv, wide_csv;
  run(1, &narrow, &narrow_csv);
  run(4, &wide, &wide_csv);

  // The sampled SET is a pure function of (seed, product, ticket), so
  // worker scheduling cannot change it — and the rate actually bites.
  EXPECT_EQ(narrow.commits_observed, 80);
  EXPECT_EQ(wide.commits_observed, 80);
  EXPECT_EQ(narrow.samples_audited, wide.samples_audited);
  EXPECT_GT(narrow.samples_audited, 0);
  EXPECT_LT(narrow.samples_audited, 80);
  EXPECT_EQ(narrow.violations, 0);
  EXPECT_EQ(wide.violations, 0);
  EXPECT_EQ(narrow_csv, wide_csv);
}

TEST_F(AuditorTest, ToJsonCarriesVerdictsAndFirstFailureTimestamp) {
  OneShardCatalog store([] { return MakeMarket(13); });
  Auditor auditor(AuditorOptions{});
  ServiceOptions options;
  options.num_workers = 1;
  options.auditor = &auditor;
  MarketService service(store.catalog(), options);
  ASSERT_TRUE(service.Start().ok());
  ASSERT_TRUE(fault::Configure("audit.verify:2:1").ok());
  EXPECT_EQ(RunTraffic(service, 8), 8);
  fault::Reset();
  auditor.RunPass();

  const std::string json = auditor.ToJson();
  EXPECT_NE(json.find("\"running\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"violations\":"), std::string::npos);
  EXPECT_NE(json.find("\"mispricing\""), std::string::npos);
  EXPECT_NE(json.find("\"offering\":\"logistic_regression\""),
            std::string::npos);
  EXPECT_NE(json.find("first_failure_t_seconds"), std::string::npos);
  EXPECT_TRUE(service.Drain().ok());
}

}  // namespace
}  // namespace nimbus::market
