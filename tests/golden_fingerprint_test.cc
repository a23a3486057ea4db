// Golden fingerprints of the serving path. Every workload below is a
// pure function of its seed, so the bytes it leaves behind are pinned as
// committed CRCs (Journal::Crc32) instead of being re-proved against a
// second implementation on every run:
//   - ledger: the ToCsv export of each shard's ledger;
//   - models: the bits of every delivered Purchase::model, per lane in
//     ticket order. LedgerEntry stores no model vector, so ledger bytes
//     alone cannot see a change to the noise streams.
// Each (seed, workload) must hit its constants at every worker count.
// A restore of a run must reproduce the run's ledger CRC.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/random.h"
#include "data/synthetic.h"
#include "market/catalog.h"
#include "market/curves.h"
#include "market/journal.h"
#include "market/market_simulator.h"
#include "market/marketplace.h"
#include "service/service.h"

namespace nimbus {
namespace {

using market::Broker;
using market::Catalog;
using market::Marketplace;

struct Fingerprint {
  uint32_t ledger = 0;
  uint32_t models = 0;
  bool operator==(const Fingerprint&) const = default;
};

// One frozen row: the fingerprint of one shard ("" for the direct
// marketplace) of one (seed, workload).
struct Golden {
  uint64_t seed;
  const char* workload;
  const char* shard;
  uint32_t ledger;
  uint32_t models;
};

constexpr Golden kGolden[] = {
    {91, "catalog1", "solo", 0x1dd2af6bu, 0xabee347cu},
    {91, "catalog3", "bread", 0x3587b73au, 0xecd9a225u},
    {91, "catalog3", "cheese", 0x3118d291u, 0x8a4c6b93u},
    {91, "catalog3", "wine", 0x3955d123u, 0x1457f942u},
    {91, "direct", "", 0x368cd65fu, 0x99aab1d6u},
    {20190642, "catalog1", "solo", 0x510b594bu, 0x66726132u},
    {20190642, "catalog3", "bread", 0x45b3b464u, 0xfb9717cfu},
    {20190642, "catalog3", "cheese", 0xa9fe4bb5u, 0xd79ab06au},
    {20190642, "catalog3", "wine", 0xe74dab1bu, 0xc9f8406eu},
    {20190642, "direct", "", 0x36a775d3u, 0x525b83d5u},
};

constexpr uint64_t kSeeds[] = {91, 20190642};
constexpr int kWorkers[] = {1, 4, 8};

std::map<std::string, Fingerprint> GoldenFor(uint64_t seed,
                                             const std::string& workload) {
  std::map<std::string, Fingerprint> out;
  for (const Golden& row : kGolden) {
    if (row.seed == seed && workload == row.workload) {
      out[row.shard] = Fingerprint{row.ledger, row.models};
    }
  }
  return out;
}

// Prints a run in kGolden's row format, so a deliberate re-freeze is a
// copy-paste and an accidental drift shows exactly which CRC moved.
std::string Describe(uint64_t seed, const std::string& workload,
                     const std::map<std::string, Fingerprint>& prints) {
  std::string out;
  for (const auto& [shard, print] : prints) {
    char row[160];
    std::snprintf(row, sizeof(row),
                  "    {%llu, \"%s\", \"%s\", 0x%08xu, 0x%08xu},\n",
                  static_cast<unsigned long long>(seed), workload.c_str(),
                  shard.c_str(), print.ledger, print.models);
    out += row;
  }
  return out;
}

uint32_t Crc(const std::string& bytes) {
  return market::Journal::Crc32(bytes.data(), bytes.size());
}

void AppendModelBits(const linalg::Vector& model, std::string* out) {
  out->append(reinterpret_cast<const char*>(model.data()),
              model.size() * sizeof(double));
}

std::string FreshDir(const std::string& name) {
  static int counter = 0;
  const std::string dir = ::testing::TempDir() + "/golden_" + name + "_" +
                          std::to_string(counter++) + "_" +
                          std::to_string(static_cast<long>(::getpid()));
  std::filesystem::remove_all(dir);
  return dir;
}

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
  auto points = market::MakeBuyerPoints(market::ValueShape::kConcave,
                                        market::DemandShape::kUniform, 10, 1.0,
                                        50.0, 80.0, 2.0);
  market::Seller seller = *market::Seller::Create(*points);
  return *seller.NegotiatePricing();
}

StatusOr<Marketplace> MakeMarket(uint64_t data_seed) {
  Marketplace market(ClassificationSplit(data_seed), FastOptions());
  NIMBUS_RETURN_IF_ERROR(market.AddOffering(ml::ModelKind::kLogisticRegression,
                                            0.01, SomeMbpPricing()));
  NIMBUS_RETURN_IF_ERROR(
      market.AddOffering(ml::ModelKind::kLinearSvm, 0.05, SomeMbpPricing()));
  return market;
}

std::unique_ptr<Catalog> OpenCatalog(const std::string& root, uint64_t seed,
                                     const std::vector<std::string>& products) {
  market::CatalogOptions options;
  options.root_dir = root;
  options.shard_defaults.enable_checkpoints = true;
  options.shard_defaults.checkpoint_policy.every_records = 16;
  auto catalog = std::make_unique<Catalog>(options);
  for (size_t i = 0; i < products.size(); ++i) {
    const uint64_t data_seed = seed + i;
    EXPECT_TRUE(catalog
                    ->AddProduct(products[i],
                                 [data_seed] { return MakeMarket(data_seed); })
                    .ok());
  }
  return catalog;
}

std::map<std::string, Fingerprint> LedgerPrints(Catalog& catalog) {
  std::map<std::string, Fingerprint> out;
  for (const std::unique_ptr<market::Shard>& shard : catalog.shards()) {
    out[shard->product_id()].ledger = Crc(shard->market()->ledger().ToCsv());
  }
  return out;
}

struct CatalogRun {
  std::map<std::string, Fingerprint> live;
  // Ledger CRCs of the run restored from a crash image (journals flushed,
  // no drain snapshot: newest snapshot plus a journal tail) and from the
  // drained directory (drain snapshot, empty tail).
  std::map<std::string, Fingerprint> crash_restore;
  std::map<std::string, Fingerprint> drain_restore;
};

// The catalog workload: requests round-robin over the products (an empty
// product id on the one-shard catalog, which routes to its only shard),
// counted faults armed on both downstreams and the journal, every one
// absorbed by a retry.
CatalogRun RunCatalog(uint64_t seed, const std::vector<std::string>& products,
                      int workers) {
  const int requests = 60 * static_cast<int>(products.size());
  const std::string root = FreshDir("catalog");
  CatalogRun run;
  {
    std::unique_ptr<Catalog> catalog = OpenCatalog(root, seed, products);
    EXPECT_TRUE(fault::Configure(
                    "service.execute:7:3,broker.quote:23:3,journal.append:11:2")
                    .ok());
    service::ServiceOptions options;
    options.num_workers = workers;
    options.queue_capacity = requests;
    options.quote_retry.max_attempts = 6;
    options.journal_retry.max_attempts = 4;
    options.seed = seed;
    service::MarketService service(catalog.get(), options);
    EXPECT_TRUE(service.Start().ok());
    std::vector<std::future<service::PurchaseResult>> futures;
    for (int i = 0; i < requests; ++i) {
      service::PurchaseRequest request;
      request.buyer_id = "buyer-" + std::to_string(i % 7);
      request.model = i % 4 == 3 ? ml::ModelKind::kLinearSvm
                                 : ml::ModelKind::kLogisticRegression;
      request.inverse_ncp = 1.5 + (i % 37);
      if (products.size() > 1) {
        request.product_id = products[i % products.size()];
      }
      futures.push_back(service.Submit(std::move(request)));
    }
    std::map<std::string, std::map<int64_t, linalg::Vector>> models;
    for (auto& future : futures) {
      service::PurchaseResult result = future.get();
      EXPECT_TRUE(result.status.ok()) << result.status.ToString();
      models[result.product_id][result.ticket] =
          std::move(result.purchase.model);
    }
    // Every request has resolved, so the workers are idle and the
    // ledgers quiescent: flush the journals and copy the directory as
    // it would be after a kill -9 here.
    for (const std::unique_ptr<market::Shard>& shard : catalog->shards()) {
      EXPECT_TRUE(shard->market()->FlushJournal().ok());
    }
    std::filesystem::copy(root, root + "_crash",
                          std::filesystem::copy_options::recursive);
    EXPECT_TRUE(service.Drain().ok());
    fault::Reset();
    run.live = LedgerPrints(*catalog);
    for (const auto& [product, by_ticket] : models) {
      std::string bits;
      for (const auto& [ticket, model] : by_ticket) {
        AppendModelBits(model, &bits);
      }
      run.live[product].models = Crc(bits);
    }
  }
  {
    std::unique_ptr<Catalog> crashed =
        OpenCatalog(root + "_crash", seed, products);
    for (const std::unique_ptr<market::Shard>& shard : crashed->shards()) {
      const Marketplace::RestoreReport report = shard->last_restore_report();
      EXPECT_EQ(report.source, Marketplace::RestoreReport::Source::kSnapshot);
      EXPECT_GT(report.tail_records, 0) << shard->product_id();
    }
    run.crash_restore = LedgerPrints(*crashed);
  }
  run.drain_restore = LedgerPrints(*OpenCatalog(root, seed, products));
  for (const std::string& dir : {root, root + "_crash"}) {
    std::filesystem::remove_all(dir);
  }
  return run;
}

struct DirectRun {
  Fingerprint live;
  uint32_t restored_ledger = 0;  // Full-replay restore of the journal.
};

// The direct workload: Marketplace::Buy / BuyWithPriceBudget on a
// journaled marketplace, no service. Counted faults make some calls
// fail; a failed call delivers no model but its quote still drew noise.
DirectRun RunDirect(uint64_t seed) {
  const std::string dir = FreshDir("direct");
  std::filesystem::create_directories(dir);
  const std::string journal = dir + "/journal";
  DirectRun run;
  StatusOr<Marketplace> market = MakeMarket(seed);
  EXPECT_TRUE(market.ok());
  EXPECT_TRUE(market->EnableJournal(journal).ok());
  EXPECT_TRUE(fault::Configure("broker.quote:5:2,journal.append:9:2").ok());
  std::string bits;
  int delivered = 0;
  for (int i = 0; i < 48; ++i) {
    const ml::ModelKind kind = i % 2 == 1 ? ml::ModelKind::kLinearSvm
                                          : ml::ModelKind::kLogisticRegression;
    Broker* broker = *market->BrokerFor(kind);
    const std::string loss = broker->model().report_losses().front()->name();
    const std::string buyer = "buyer-" + std::to_string(i % 5);
    StatusOr<Broker::Purchase> purchase =
        i % 3 == 2
            ? market->BuyWithPriceBudget(buyer, kind, 10.0 + 3.0 * (i % 11),
                                         loss)
            : market->Buy(buyer, kind, 1.5 + (i % 37), loss);
    if (purchase.ok()) {
      AppendModelBits(purchase->model, &bits);
      ++delivered;
    }
  }
  fault::Reset();
  EXPECT_GT(delivered, 30);
  EXPECT_LT(delivered, 48);
  EXPECT_TRUE(market->FlushJournal().ok());
  run.live.ledger = Crc(market->ledger().ToCsv());
  run.live.models = Crc(bits);

  StatusOr<Marketplace> restored = MakeMarket(seed);
  EXPECT_TRUE(restored.ok());
  Marketplace::RestoreReport report;
  EXPECT_TRUE(restored
                  ->RestoreFromCheckpoint(journal,
                                          Marketplace::RestoreOptions{},
                                          &report)
                  .ok());
  EXPECT_EQ(report.source, Marketplace::RestoreReport::Source::kFullReplay);
  run.restored_ledger = Crc(restored->ledger().ToCsv());
  std::filesystem::remove_all(dir);
  return run;
}

// Restores both ways must reproduce the live run's ledger bytes.
void ExpectRestoresMatch(const CatalogRun& run, const std::string& what) {
  ASSERT_EQ(run.crash_restore.size(), run.live.size()) << what;
  for (const auto& [product, print] : run.live) {
    EXPECT_EQ(run.crash_restore.at(product).ledger, print.ledger)
        << what << " crash-image restore of " << product;
    EXPECT_EQ(run.drain_restore.at(product).ledger, print.ledger)
        << what << " drained restore of " << product;
  }
}

class GoldenFingerprintTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Reset(); }
  void TearDown() override {
    fault::Reset();
    ::unsetenv("NIMBUS_THREADS");
  }

  void CheckCatalog(const std::string& workload,
                    const std::vector<std::string>& products) {
    for (uint64_t seed : kSeeds) {
      const std::map<std::string, Fingerprint> golden =
          GoldenFor(seed, workload);
      for (int workers : kWorkers) {
        const CatalogRun run = RunCatalog(seed, products, workers);
        EXPECT_EQ(run.live, golden)
            << workload << " workers=" << workers << " ran:\n"
            << Describe(seed, workload, run.live);
        ExpectRestoresMatch(run, workload + " workers=" +
                                     std::to_string(workers));
      }
    }
  }
};

TEST_F(GoldenFingerprintTest, OneShardCatalogThroughService) {
  CheckCatalog("catalog1", {"solo"});
}

TEST_F(GoldenFingerprintTest, ThreeShardCatalogThroughService) {
  CheckCatalog("catalog3", {"wine", "cheese", "bread"});
}

TEST_F(GoldenFingerprintTest, DirectBuySequence) {
  for (uint64_t seed : kSeeds) {
    const std::map<std::string, Fingerprint> golden = GoldenFor(seed, "direct");
    // The marketplace is single-threaded; the worker count sets the
    // curve builds' ParallelFor width instead.
    for (int workers : kWorkers) {
      ::setenv("NIMBUS_THREADS", std::to_string(workers).c_str(), 1);
      const DirectRun run = RunDirect(seed);
      const std::map<std::string, Fingerprint> live = {{"", run.live}};
      EXPECT_EQ(live, golden) << "direct threads=" << workers << " ran:\n"
                              << Describe(seed, "direct", live);
      EXPECT_EQ(run.restored_ledger, run.live.ledger)
          << "direct full-replay restore, threads=" << workers;
    }
  }
}

}  // namespace
}  // namespace nimbus
