#include "market/checkpointer.h"

#include <unistd.h>

#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/random.h"
#include "data/synthetic.h"
#include "market/curves.h"
#include "market/journal.h"
#include "market/market_simulator.h"
#include "market/marketplace.h"
#include "market/snapshot.h"
#include "one_shard_catalog.h"
#include "service/service.h"

namespace nimbus::market {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

void RemoveCheckpointFiles(const std::string& journal_path) {
  for (const std::string& file : RecoveryFiles(journal_path)) {
    std::remove(file.c_str());
  }
}

data::TrainTestSplit ClassificationSplit(uint64_t seed) {
  Rng rng(seed);
  data::ClassificationSpec spec;
  spec.num_examples = 120;
  spec.num_features = 3;
  spec.positive_prob = 0.9;
  data::Dataset all = data::GenerateClassification(spec, rng);
  return data::Split(all, 0.75, rng);
}

Broker::Options FastOptions() {
  Broker::Options options;
  options.error_curve_points = 5;
  options.samples_per_curve_point = 25;
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
  EXPECT_TRUE(
      market.AddOffering(ml::ModelKind::kLinearSvm, 0.05, SomeMbpPricing())
          .ok());
  return market;
}

void BuyOne(Marketplace& market, const std::string& buyer, double x) {
  StatusOr<Broker::Purchase> purchase =
      market.Buy(buyer, ml::ModelKind::kLogisticRegression, x, "zero_one");
  ASSERT_TRUE(purchase.ok()) << purchase.status();
}

class CheckpointerTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Reset(); }
  void TearDown() override { fault::Reset(); }
};

TEST_F(CheckpointerTest, DueFollowsRecordCadence) {
  CheckpointPolicy policy;
  policy.every_records = 10;
  Checkpointer checkpointer("/dev/null/none.waj", policy);
  EXPECT_FALSE(checkpointer.Due(9));
  EXPECT_TRUE(checkpointer.Due(10));

  CheckpointPolicy on_demand;  // Zero cadence: never due.
  Checkpointer manual("/dev/null/none.waj", on_demand);
  EXPECT_FALSE(manual.Due(1 << 20));
}

// Pruning keeps exactly the two newest generations: the ladder's newest
// rung and its fallback. Corrupting the newest must still leave a
// snapshot to restore from.
TEST_F(CheckpointerTest, PruningKeepsTheNewestTwoGenerations) {
  const std::string path = TempPath("nimbus_ckpt_retain.waj");
  RemoveCheckpointFiles(path);
  Marketplace market = MakeMarket(36);
  ASSERT_TRUE(market.EnableJournal(path).ok());
  CheckpointPolicy policy;
  policy.every_records = 2;
  ASSERT_TRUE(market.EnableCheckpoints(policy).ok());
  for (int i = 0; i < 9; ++i) {
    BuyOne(market, "erin", 2.0 + i % 4);
  }
  ASSERT_EQ(market.CheckpointStats()->last_generation, 4);
  for (int64_t generation = 1; generation <= 4; ++generation) {
    std::FILE* f = std::fopen(
        snapshot::SnapshotPath(path, generation).c_str(), "rb");
    EXPECT_EQ(f != nullptr, generation >= 3) << "generation " << generation;
    if (f != nullptr) {
      std::fclose(f);
    }
  }

  ASSERT_TRUE(market.FlushJournal().ok());
  std::FILE* newest =
      std::fopen(snapshot::SnapshotPath(path, 4).c_str(), "r+b");
  ASSERT_NE(newest, nullptr);
  std::fseek(newest, 10, SEEK_SET);
  const int byte = std::fgetc(newest);
  std::fseek(newest, 10, SEEK_SET);
  std::fputc(byte ^ 0x20, newest);
  std::fclose(newest);
  Marketplace restored = MakeMarket(36);
  Marketplace::RestoreReport report;
  ASSERT_TRUE(restored
                  .RestoreFromCheckpoint(path, Marketplace::RestoreOptions{},
                                         &report)
                  .ok());
  EXPECT_EQ(report.source,
            Marketplace::RestoreReport::Source::kPreviousSnapshot);
  EXPECT_EQ(report.generation, 3);
  EXPECT_EQ(restored.ledger().ToCsv(), market.ledger().ToCsv());
  RemoveCheckpointFiles(path);
}

TEST_F(CheckpointerTest, RecordCadenceCheckpointsAndSealsDuringTrading) {
  const std::string path = TempPath("nimbus_ckpt_cadence.waj");
  RemoveCheckpointFiles(path);
  Marketplace market = MakeMarket(31);
  ASSERT_TRUE(market.EnableJournal(path).ok());
  CheckpointPolicy policy;
  policy.every_records = 3;
  ASSERT_TRUE(market.EnableCheckpoints(policy).ok());

  for (int i = 0; i < 7; ++i) {
    BuyOne(market, "buyer-" + std::to_string(i % 3), 2.0 + i % 4);
  }
  StatusOr<Checkpointer::Stats> stats = market.CheckpointStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->checkpoints, 2);  // After sales 3 and 6.
  EXPECT_EQ(stats->last_generation, 2);
  EXPECT_EQ(stats->last_sequence, 6);
  EXPECT_EQ(stats->prev_sequence, 3);

  // Each checkpoint sealed the live segment at its own sequence: the
  // live segment holds only the rows past the newest generation.
  ASSERT_TRUE(market.FlushJournal().ok());
  EXPECT_EQ(Journal::SealedSegments(path), (std::vector<int64_t>{0, 3}));
  Journal::RecoveryReport report;
  StatusOr<std::vector<LedgerEntry>> live = Journal::Replay(path, &report);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(report.base_sequence, 6);
  ASSERT_EQ(live->size(), 1u);
  EXPECT_EQ(live->front().sequence, 6);

  // A restart restores from generation 2 + the single tail record.
  const std::string csv = market.ledger().ToCsv();
  Marketplace restored = MakeMarket(31);
  Marketplace::RestoreReport restore_report;
  ASSERT_TRUE(restored
                  .RestoreFromCheckpoint(path, Marketplace::RestoreOptions{},
                                         &restore_report)
                  .ok());
  EXPECT_EQ(restore_report.source,
            Marketplace::RestoreReport::Source::kSnapshot);
  EXPECT_EQ(restore_report.snapshot_records, 6);
  EXPECT_EQ(restore_report.tail_records, 1);
  EXPECT_EQ(restored.ledger().ToCsv(), csv);
  RemoveCheckpointFiles(path);
}

TEST_F(CheckpointerTest, ManifestResumesGenerationNumberingAcrossRestart) {
  const std::string path = TempPath("nimbus_ckpt_resume.waj");
  RemoveCheckpointFiles(path);
  Marketplace market = MakeMarket(32);
  ASSERT_TRUE(market.EnableJournal(path).ok());
  ASSERT_TRUE(market.EnableCheckpoints(CheckpointPolicy{}).ok());
  BuyOne(market, "alice", 4.0);
  ASSERT_EQ(*market.CheckpointNow(), 1);
  // Re-checkpointing an unchanged ledger re-reports the generation
  // instead of burning a new one.
  ASSERT_EQ(*market.CheckpointNow(), 1);
  EXPECT_EQ(market.CheckpointStats()->checkpoints, 1);

  Marketplace restarted = MakeMarket(32);
  ASSERT_TRUE(restarted.RestoreFromCheckpoint(path).ok());
  ASSERT_TRUE(restarted.EnableCheckpoints(CheckpointPolicy{}).ok());
  BuyOne(restarted, "bob", 6.0);
  ASSERT_EQ(*restarted.CheckpointNow(), 2);  // Resumed, not restarted at 1.
  RemoveCheckpointFiles(path);
}

TEST_F(CheckpointerTest, SnapshotWriteFaultIsAbsorbedAndTradingContinues) {
  const std::string path = TempPath("nimbus_ckpt_fault.waj");
  RemoveCheckpointFiles(path);
  Marketplace market = MakeMarket(33);
  ASSERT_TRUE(market.EnableJournal(path).ok());
  CheckpointPolicy policy;
  policy.every_records = 2;
  ASSERT_TRUE(market.EnableCheckpoints(policy).ok());

  // Every snapshot write fails: cadence checkpoints are attempted and
  // absorbed; sales keep committing.
  ASSERT_TRUE(fault::Configure("snapshot.write:1:*").ok());
  for (int i = 0; i < 5; ++i) {
    BuyOne(market, "carol", 2.0 + i);
  }
  fault::Reset();
  StatusOr<Checkpointer::Stats> stats = market.CheckpointStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->checkpoints, 0);
  EXPECT_GE(stats->failures, 2);
  EXPECT_EQ(market.ledger().size(), 5);
  EXPECT_TRUE(snapshot::ListGenerations(path).empty());

  // With the fault cleared the next cadence point commits generation 1,
  // and recovery prefers it over the full journal.
  BuyOne(market, "carol", 9.0);
  EXPECT_EQ(market.CheckpointStats()->checkpoints, 1);
  ASSERT_TRUE(market.FlushJournal().ok());
  Marketplace restored = MakeMarket(33);
  Marketplace::RestoreReport report;
  ASSERT_TRUE(restored
                  .RestoreFromCheckpoint(path, Marketplace::RestoreOptions{},
                                         &report)
                  .ok());
  EXPECT_EQ(report.source, Marketplace::RestoreReport::Source::kSnapshot);
  EXPECT_EQ(restored.ledger().ToCsv(), market.ledger().ToCsv());
  RemoveCheckpointFiles(path);
}

TEST_F(CheckpointerTest, SealFaultIsAbsorbedAndTheNextSealCatchesUp) {
  const std::string path = TempPath("nimbus_ckpt_seal_fault.waj");
  RemoveCheckpointFiles(path);
  Marketplace market = MakeMarket(34);
  ASSERT_TRUE(market.EnableJournal(path).ok());
  ASSERT_TRUE(market.EnableCheckpoints(CheckpointPolicy{}).ok());
  for (int i = 0; i < 3; ++i) {
    BuyOne(market, "dora", 2.0 + i);
  }
  ASSERT_EQ(*market.CheckpointNow(), 1);
  for (int i = 0; i < 2; ++i) {
    BuyOne(market, "dora", 6.0 + i);
  }
  // Generation 2's snapshot commits but its seal fails: absorbed,
  // reported in stats, and the live segment keeps rows [3, 5).
  ASSERT_TRUE(fault::Configure("journal.rotate:1:*").ok());
  ASSERT_EQ(*market.CheckpointNow(), 2);
  fault::Reset();
  EXPECT_EQ(market.CheckpointStats()->rotation_failures, 1);
  EXPECT_EQ(Journal::SealedSegments(path), std::vector<int64_t>{0});

  ASSERT_TRUE(market.FlushJournal().ok());
  Marketplace restored = MakeMarket(34);
  Marketplace::RestoreReport report;
  ASSERT_TRUE(restored
                  .RestoreFromCheckpoint(path, Marketplace::RestoreOptions{},
                                         &report)
                  .ok());
  EXPECT_EQ(report.source, Marketplace::RestoreReport::Source::kSnapshot);
  EXPECT_EQ(report.generation, 2);
  EXPECT_EQ(report.tail_records, 0);
  EXPECT_EQ(restored.ledger().ToCsv(), market.ledger().ToCsv());

  // The next checkpoint seals the longer segment in one piece.
  BuyOne(market, "dora", 9.0);
  ASSERT_EQ(*market.CheckpointNow(), 3);
  EXPECT_EQ(Journal::SealedSegments(path), (std::vector<int64_t>{0, 3}));
  StatusOr<std::vector<LedgerEntry>> rows = Journal::ReadRange(path, 0);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->size(), 6u);
  RemoveCheckpointFiles(path);
}

// ---------------------------------------------------------------------------
// Service-level drills: checkpoint-on-drain and checkpoint-while-quoting
// (the latter is this binary's TSan headline — commits run checkpoints
// on the sequencer while quotes fly on the worker pool).

service::PurchaseRequest MakeRequest(int i) {
  service::PurchaseRequest request;
  request.buyer_id = "buyer-" + std::to_string(i % 5);
  request.model = i % 3 == 0 ? ml::ModelKind::kLinearSvm
                             : ml::ModelKind::kLogisticRegression;
  request.inverse_ncp = 2.0 + static_cast<double>(i % 10);
  return request;
}

// Runs `n` requests through a MarketService over a fresh one-shard
// catalog with checkpointing armed, drains, and returns the final ledger
// CSV. `journal_path` receives the shard's journal path.
std::string RunServiceWorkload(int num_workers, int n, int64_t every_records,
                               std::string* journal_path) {
  ShardOptions shard;
  shard.enable_checkpoints = true;
  shard.checkpoint_policy.every_records = every_records;
  testutil::OneShardCatalog store([] { return MakeMarket(35); }, shard);

  service::ServiceOptions options;
  options.num_workers = num_workers;
  options.queue_capacity = 2 * n;
  service::MarketService service(store.catalog(), options);
  EXPECT_TRUE(service.Start().ok());
  std::vector<std::future<service::PurchaseResult>> futures;
  futures.reserve(n);
  for (int i = 0; i < n; ++i) {
    futures.push_back(service.Submit(MakeRequest(i)));
  }
  for (auto& future : futures) {
    const service::PurchaseResult result = future.get();
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  }
  EXPECT_TRUE(service.Drain().ok());
  EXPECT_GE(store.market().CheckpointStats()->checkpoints, 1);
  *journal_path = store.shard().journal_path();
  return store.market().ledger().ToCsv();
}

TEST_F(CheckpointerTest, CheckpointOnDrainLeavesFreshSnapshot) {
  ShardOptions shard;
  shard.enable_checkpoints = true;
  testutil::OneShardCatalog store([] { return MakeMarket(36); }, shard);
  Marketplace& market = store.market();

  service::ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 32;
  service::MarketService service(store.catalog(), options);
  ASSERT_TRUE(service.Start().ok());
  std::vector<std::future<service::PurchaseResult>> futures;
  for (int i = 0; i < 9; ++i) {
    futures.push_back(service.Submit(MakeRequest(i)));
  }
  for (auto& future : futures) {
    ASSERT_TRUE(future.get().status.ok());
  }
  ASSERT_TRUE(service.Drain().ok());

  // Drain committed a snapshot covering every sale; a restart replays
  // an empty tail.
  EXPECT_EQ(market.CheckpointStats()->checkpoints, 1);
  Marketplace restored = MakeMarket(36);
  Marketplace::RestoreReport report;
  ASSERT_TRUE(restored
                  .RestoreFromCheckpoint(store.shard().journal_path(),
                                         Marketplace::RestoreOptions{},
                                         &report)
                  .ok());
  EXPECT_EQ(report.source, Marketplace::RestoreReport::Source::kSnapshot);
  EXPECT_EQ(report.snapshot_records, 9);
  EXPECT_EQ(report.tail_records, 0);
  EXPECT_EQ(restored.ledger().ToCsv(), market.ledger().ToCsv());
}

TEST_F(CheckpointerTest, ConcurrentCheckpointWhileQuotingStaysDeterministic) {
  // Cadence checkpoints fire mid-traffic while other workers are
  // quoting. The ledger must be byte-identical across worker counts,
  // and a crash-restart must restore it bit-for-bit.
  std::string base_path;
  std::string wide_path;
  const int n = 48;
  const std::string csv_one = RunServiceWorkload(1, n, 8, &base_path);
  const std::string csv_four = RunServiceWorkload(4, n, 8, &wide_path);
  EXPECT_EQ(csv_one, csv_four);

  // Both trees restore bit-identically from their checkpoint chains.
  for (const std::string& path : {base_path, wide_path}) {
    Marketplace restored = MakeMarket(35);
    Marketplace::RestoreReport report;
    ASSERT_TRUE(restored
                    .RestoreFromCheckpoint(path,
                                           Marketplace::RestoreOptions{},
                                           &report)
                    .ok());
    EXPECT_EQ(restored.ledger().ToCsv(), csv_one);
    EXPECT_GT(report.snapshot_records, 0);
  }
}

}  // namespace
}  // namespace nimbus::market
