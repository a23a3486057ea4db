#include "market/shard.h"

#include <cstdio>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/random.h"
#include "data/synthetic.h"
#include "market/checkpointer.h"
#include "market/curves.h"
#include "market/market_simulator.h"
#include "market/marketplace.h"

namespace nimbus::market {
namespace {

std::string TempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  // Fresh per test run: stale journals, segments and snapshots from a
  // previous invocation must not leak into this one's restore path.
  for (const std::string& file : RecoveryFiles(dir + "/journal")) {
    std::remove(file.c_str());
  }
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
  auto points = MakeBuyerPoints(ValueShape::kConcave, DemandShape::kUniform,
                                10, 1.0, 50.0, 80.0, 2.0);
  Seller seller = *Seller::Create(*points);
  return *seller.NegotiatePricing();
}

// The factory every shard test uses: same AddOffering sequence on every
// call, which is the RestoreFromCheckpoint precondition.
MarketplaceFactory MakeFactory(uint64_t seed) {
  return [seed]() -> StatusOr<Marketplace> {
    Marketplace market(ClassificationSplit(seed), FastOptions());
    NIMBUS_RETURN_IF_ERROR(market.AddOffering(
        ml::ModelKind::kLogisticRegression, 0.01, SomeMbpPricing()));
    return market;
  };
}

std::string FirstLossName(Marketplace& market) {
  Broker* broker = *market.BrokerFor(ml::ModelKind::kLogisticRegression);
  return broker->model().report_losses().front()->name();
}

// Books one sale through the full Buy path (quote + journaled commit).
Status BuyOne(Marketplace& market, const std::string& buyer) {
  return market
      .Buy(buyer, ml::ModelKind::kLogisticRegression, 2.0,
           FirstLossName(market))
      .status();
}

class ShardTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Reset(); }
  void TearDown() override { fault::Reset(); }
};

TEST_F(ShardTest, OpenFreshServesAndPersists) {
  const std::string dir = TempDir("shard_open_fresh");
  ShardOptions options;
  options.dir = dir;
  StatusOr<std::unique_ptr<Shard>> shard =
      Shard::Open("wine", MakeFactory(31), options);
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  EXPECT_EQ((*shard)->state(), ShardState::kServing);
  EXPECT_EQ((*shard)->product_id(), "wine");
  EXPECT_EQ((*shard)->journal_path(), dir + "/journal");

  StatusOr<std::shared_ptr<Marketplace>> market = (*shard)->Serve();
  ASSERT_TRUE(market.ok());
  ASSERT_TRUE(BuyOne(**market, "alice").ok());
  ASSERT_TRUE(BuyOne(**market, "bob").ok());
  ASSERT_TRUE((*market)->FlushJournal().ok());

  // A second Open over the same directory replays the journal.
  shard->reset();
  StatusOr<std::unique_ptr<Shard>> reopened =
      Shard::Open("wine", MakeFactory(31), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->state(), ShardState::kServing);
  EXPECT_EQ((*reopened)->market()->ledger().SaleCount(), 2);
  EXPECT_EQ((*reopened)->last_restore_report().tail_records, 2);
}

TEST_F(ShardTest, OpenRejectsBadConfiguration) {
  EXPECT_EQ(Shard::Open("", MakeFactory(1), ShardOptions{}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Shard::Open("x", MakeFactory(1), ShardOptions{}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ShardTest, EnospcCommitQuarantinesAndRecoveryReadmits) {
  const std::string dir = TempDir("shard_enospc");
  ShardOptions options;
  options.dir = dir;
  StatusOr<std::unique_ptr<Shard>> opened =
      Shard::Open("cheese", MakeFactory(32), options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Shard& shard = **opened;

  std::shared_ptr<Marketplace> market = *shard.Serve();
  ASSERT_TRUE(BuyOne(*market, "alice").ok());
  shard.ReportCommitOutcome(OkStatus());
  EXPECT_EQ(shard.state(), ShardState::kServing);

  // Disk-full on the next append, scoped to this shard's product: the
  // write tears mid-record and poisons the journal.
  ASSERT_TRUE(fault::Configure("journal.append@cheese:1:enospc").ok());
  Status torn;
  {
    fault::ScopedFaultScope scope("cheese");
    torn = BuyOne(*market, "bob");
  }
  ASSERT_FALSE(torn.ok());
  EXPECT_NE(torn.message().find("No space left on device"), std::string::npos);
  EXPECT_EQ(shard.ReportCommitOutcome(torn), ShardState::kQuarantined);
  EXPECT_EQ(shard.Serve().status().code(), StatusCode::kUnavailable);
  EXPECT_NE(shard.Serve().status().message().find("cheese"),
            std::string::npos);
  EXPECT_EQ(shard.stats().quarantines, 1);

  // The recovery ladder drops the torn tail byte-exactly: only the one
  // committed sale survives, and the shard re-admits.
  fault::Reset();
  ASSERT_TRUE(shard.TryRecover().ok());
  EXPECT_EQ(shard.state(), ShardState::kServing);
  EXPECT_EQ(shard.stats().recoveries, 1);
  std::shared_ptr<Marketplace> recovered = *shard.Serve();
  EXPECT_NE(recovered.get(), market.get());  // Fresh instance swapped in.
  EXPECT_EQ(recovered->ledger().SaleCount(), 1);
  ASSERT_TRUE(BuyOne(*recovered, "carol").ok());
  EXPECT_EQ(recovered->ledger().SaleCount(), 2);

  // The retired instance's journal was abandoned: late commits on it
  // fail typed instead of corrupting the recovered file.
  EXPECT_EQ(BuyOne(*market, "mallory").code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ShardTest, ScopedFaultDoesNotLeakAcrossShards) {
  const std::string dir_a = TempDir("shard_scope_a");
  const std::string dir_b = TempDir("shard_scope_b");
  ShardOptions options_a;
  options_a.dir = dir_a;
  ShardOptions options_b;
  options_b.dir = dir_b;
  std::unique_ptr<Shard> a = *Shard::Open("aaa", MakeFactory(33), options_a);
  std::unique_ptr<Shard> b = *Shard::Open("bbb", MakeFactory(34), options_b);

  ASSERT_TRUE(fault::Configure("journal.append@aaa:1:*:enospc").ok());
  {
    fault::ScopedFaultScope scope("bbb");
    // The clause is scoped to shard aaa; shard bbb's commits never fire.
    EXPECT_TRUE(BuyOne(**b->Serve(), "alice").ok());
  }
  {
    fault::ScopedFaultScope scope("aaa");
    const Status torn = BuyOne(**a->Serve(), "alice");
    ASSERT_FALSE(torn.ok());
    EXPECT_EQ(a->ReportCommitOutcome(torn), ShardState::kQuarantined);
  }
  EXPECT_EQ(a->state(), ShardState::kQuarantined);
  EXPECT_EQ(b->state(), ShardState::kServing);
  EXPECT_EQ(b->stats().quarantines, 0);
}

TEST_F(ShardTest, OpenQuarantinesOnDamagedJournalAndLadderRecovers) {
  const std::string dir = TempDir("shard_damaged");
  ShardOptions options;
  options.dir = dir;
  {
    std::unique_ptr<Shard> shard =
        *Shard::Open("bread", MakeFactory(35), options);
    ASSERT_TRUE(BuyOne(**shard->Serve(), "alice").ok());
    ASSERT_TRUE((*shard->Serve())->FlushJournal().ok());
  }
  // Smash the journal header: the restore must fail.
  {
    FILE* f = std::fopen((dir + "/journal").c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fputs("XXXX", f);
    std::fclose(f);
  }
  StatusOr<std::unique_ptr<Shard>> opened =
      Shard::Open("bread", MakeFactory(35), options);
  // Damaged durable state quarantines the shard instead of failing the
  // open — the rest of a catalog must keep booting around it.
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Shard& shard = **opened;
  EXPECT_EQ(shard.state(), ShardState::kQuarantined);
  EXPECT_EQ(shard.Serve().status().code(), StatusCode::kUnavailable);

  // Recovery keeps failing while the file is damaged...
  EXPECT_FALSE(shard.TryRecover().ok());
  EXPECT_EQ(shard.state(), ShardState::kQuarantined);
  EXPECT_EQ(shard.stats().recovery_failures, 1);
  EXPECT_NE(shard.state_detail().find("recovery failed"), std::string::npos);

  // ...until an operator clears it; then the ladder re-admits fresh.
  ASSERT_EQ(std::remove((dir + "/journal").c_str()), 0);
  ASSERT_TRUE(shard.TryRecover().ok());
  EXPECT_EQ(shard.state(), ShardState::kServing);
  EXPECT_TRUE(BuyOne(**shard.Serve(), "bob").ok());
}

TEST_F(ShardTest, TryRecoverRequiresQuarantine) {
  const std::string dir = TempDir("shard_not_quarantined");
  ShardOptions options;
  options.dir = dir;
  std::unique_ptr<Shard> shard = *Shard::Open("tea", MakeFactory(36), options);
  EXPECT_EQ(shard->TryRecover().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ShardTest, CleanFailuresDoNotQuarantine) {
  const std::string dir = TempDir("shard_clean_failures");
  ShardOptions options;
  options.dir = dir;
  std::unique_ptr<Shard> shard = *Shard::Open("oat", MakeFactory(37), options);
  // Deadlines, sheds, and clean injected faults are not evidence of
  // damaged durable state.
  EXPECT_EQ(shard->ReportCommitOutcome(DeadlineExceededError("too slow")),
            ShardState::kServing);
  EXPECT_EQ(shard->ReportCommitOutcome(UnavailableError("breaker open")),
            ShardState::kServing);
  EXPECT_EQ(
      shard->ReportCommitOutcome(InternalError("fault injected at 'x'")),
      ShardState::kServing);
  EXPECT_EQ(shard->stats().commit_failures, 3);
  EXPECT_EQ(shard->stats().quarantines, 0);
}

TEST_F(ShardTest, CheckpointedShardRecoversFromSnapshotPlusTail) {
  const std::string dir = TempDir("shard_checkpointed");
  ShardOptions options;
  options.dir = dir;
  options.enable_checkpoints = true;
  options.checkpoint_policy.every_records = 2;
  std::unique_ptr<Shard> shard = *Shard::Open("jam", MakeFactory(38), options);
  std::shared_ptr<Marketplace> market = *shard->Serve();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(BuyOne(*market, "buyer-" + std::to_string(i)).ok());
    shard->ReportCommitOutcome(OkStatus());
  }
  ASSERT_TRUE(market->FlushJournal().ok());
  shard->Quarantine("drill");
  ASSERT_TRUE(shard->TryRecover().ok());
  const Marketplace::RestoreReport report = shard->last_restore_report();
  // O(delta) recovery: the bulk arrives from the newest snapshot, only
  // the post-checkpoint tail replays.
  EXPECT_EQ(report.source, Marketplace::RestoreReport::Source::kSnapshot);
  EXPECT_GT(report.snapshot_records, 0);
  EXPECT_LT(report.tail_records, 5);
  EXPECT_EQ((*shard->Serve())->ledger().SaleCount(), 5);
}

// A crash inside a rename window leaves history but no live journal:
// the format-2 rotation's (only `.prev`) and the seal's (only a sealed
// segment). Either way the reopened shard restores every acknowledged
// sale instead of booting empty over it.
TEST_F(ShardTest, ReopenInRenameCrashWindowRestoresEverySale) {
  for (const bool sealed : {false, true}) {
    const std::string dir = TempDir(sealed ? "shard_seal_window"
                                           : "shard_rotate_window");
    ShardOptions options;
    options.dir = dir;
    const std::string journal = dir + "/journal";
    {
      std::unique_ptr<Shard> shard =
          *Shard::Open("tea", MakeFactory(39), options);
      std::shared_ptr<Marketplace> market = *shard->Serve();
      for (int i = 0; i < 7; ++i) {
        ASSERT_TRUE(BuyOne(*market, "buyer-" + std::to_string(i)).ok());
      }
      ASSERT_TRUE(market->FlushJournal().ok());
    }
    const std::string moved =
        sealed ? Journal::SealedSegmentPath(journal, 0) : journal + ".prev";
    ASSERT_EQ(std::rename(journal.c_str(), moved.c_str()), 0);

    StatusOr<std::unique_ptr<Shard>> reopened =
        Shard::Open("tea", MakeFactory(39), options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ((*reopened)->state(), ShardState::kServing) << sealed;
    EXPECT_EQ((*reopened)->market()->ledger().SaleCount(), 7) << sealed;
    EXPECT_EQ((*reopened)->last_restore_report().source,
              Marketplace::RestoreReport::Source::kFullReplay);
  }
}

}  // namespace
}  // namespace nimbus::market
