#include "market/snapshot.h"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/random.h"
#include "data/synthetic.h"
#include "market/checkpointer.h"
#include "market/curves.h"
#include "market/journal.h"
#include "market/market_simulator.h"
#include "market/marketplace.h"

namespace nimbus::market {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.good()) << path;
  std::ostringstream content;
  content << file.rdbuf();
  return content.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(file.good()) << path;
}

// A state exercising every section: multiple models, buyers with
// hostile ids, non-trivial doubles.
snapshot::State SampleState() {
  snapshot::State state;
  state.generation = 3;
  state.sequence = 4;
  state.total_revenue = 57.75;
  state.spend_by_buyer = {{"alice", 22.0}, {"bob,\"evil\"\nid", 35.75}};
  state.sales_per_price_point = {{2.0, 2}, {4.0, 2}};
  state.revenue_by_model = {{ml::ModelKind::kLogisticRegression, 22.0},
                            {ml::ModelKind::kLinearSvm, 35.75}};
  state.sales_by_model = {{ml::ModelKind::kLogisticRegression, 2},
                          {ml::ModelKind::kLinearSvm, 2}};
  snapshot::MonitorState& monitor =
      state.monitors[ml::ModelKind::kLogisticRegression];
  monitor.buyers["alice"] = snapshot::BuyerHistoryState{2, 4.0, 22.0};
  monitor.buyers["bob,\"evil\"\nid"] =
      snapshot::BuyerHistoryState{2, 8.0, 35.75};
  return state;
}

void ExpectSameAggregates(const snapshot::State& a, const snapshot::State& b) {
  EXPECT_EQ(a.generation, b.generation);
  EXPECT_EQ(a.sequence, b.sequence);
  EXPECT_EQ(a.total_revenue, b.total_revenue);  // Bit-identical doubles.
  EXPECT_EQ(a.spend_by_buyer, b.spend_by_buyer);
  EXPECT_EQ(a.sales_per_price_point, b.sales_per_price_point);
  EXPECT_EQ(a.revenue_by_model, b.revenue_by_model);
  EXPECT_EQ(a.sales_by_model, b.sales_by_model);
  ASSERT_EQ(a.monitors.size(), b.monitors.size());
  for (const auto& [kind, monitor] : a.monitors) {
    const auto it = b.monitors.find(kind);
    ASSERT_NE(it, b.monitors.end());
    ASSERT_EQ(monitor.buyers.size(), it->second.buyers.size());
    for (const auto& [buyer, history] : monitor.buyers) {
      const auto buyer_it = it->second.buyers.find(buyer);
      ASSERT_NE(buyer_it, it->second.buyers.end());
      EXPECT_EQ(history.purchases, buyer_it->second.purchases);
      EXPECT_EQ(history.combined_inverse_ncp,
                buyer_it->second.combined_inverse_ncp);
      EXPECT_EQ(history.total_paid, buyer_it->second.total_paid);
    }
  }
}

TEST(SnapshotTest, WriteReadRoundTripIsBitIdentical) {
  const std::string path = TempPath("nimbus_snapshot_roundtrip.snap");
  const snapshot::State state = SampleState();
  StatusOr<int64_t> bytes = snapshot::Write(path, state);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  const std::string image = ReadFileBytes(path);
  EXPECT_EQ(*bytes, static_cast<int64_t>(image.size()));
  // Live state only: no entry log rides along.
  EXPECT_EQ(image.find("LEDG"), std::string::npos);

  StatusOr<snapshot::State> back = snapshot::Read(path);
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectSameAggregates(state, *back);
  std::remove(path.c_str());
}

// Property: a snapshot truncated at ANY byte offset is rejected. No
// prefix of a valid snapshot is a valid snapshot.
TEST(SnapshotTest, TruncationAtEveryByteOffsetIsRejected) {
  const std::string path = TempPath("nimbus_snapshot_trunc.snap");
  ASSERT_TRUE(snapshot::Write(path, SampleState()).ok());
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 100u);
  for (size_t length = 0; length < bytes.size(); ++length) {
    WriteFileBytes(path, bytes.substr(0, length));
    EXPECT_FALSE(snapshot::Read(path).ok())
        << "read accepted a snapshot truncated to " << length << " of "
        << bytes.size() << " bytes";
  }
  std::remove(path.c_str());
}

// Property: flipping one bit anywhere in the image is rejected — section
// payloads and headers are all CRC-covered, and the footer cross-checks
// the headers.
TEST(SnapshotTest, BitFlipAtEveryByteIsRejected) {
  const std::string path = TempPath("nimbus_snapshot_flip.snap");
  ASSERT_TRUE(snapshot::Write(path, SampleState()).ok());
  const std::string bytes = ReadFileBytes(path);
  for (size_t offset = 0; offset < bytes.size(); ++offset) {
    std::string corrupted = bytes;
    corrupted[offset] = static_cast<char>(corrupted[offset] ^ 0x40);
    WriteFileBytes(path, corrupted);
    EXPECT_FALSE(snapshot::Read(path).ok())
        << "read accepted a bit flip at byte " << offset << " of "
        << bytes.size();
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, ManifestRoundTripAndCorruptionRejected) {
  const std::string journal_path = TempPath("nimbus_snapshot_manifest.waj");
  snapshot::Manifest manifest;
  manifest.generation = 7;
  manifest.sequence = 120;
  manifest.prev_generation = 6;
  manifest.prev_sequence = 90;
  ASSERT_TRUE(snapshot::WriteManifest(journal_path, manifest).ok());

  StatusOr<snapshot::Manifest> back = snapshot::ReadManifest(journal_path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->generation, 7);
  EXPECT_EQ(back->sequence, 120);
  EXPECT_EQ(back->prev_generation, 6);
  EXPECT_EQ(back->prev_sequence, 90);

  const std::string manifest_path = snapshot::ManifestPath(journal_path);
  std::string bytes = ReadFileBytes(manifest_path);
  bytes[bytes.size() / 2] ^= 0x04;
  WriteFileBytes(manifest_path, bytes);
  EXPECT_FALSE(snapshot::ReadManifest(journal_path).ok());
  std::remove(manifest_path.c_str());
  EXPECT_EQ(snapshot::ReadManifest(journal_path).status().code(),
            StatusCode::kNotFound);
}

TEST(SnapshotTest, ListGenerationsUnionsManifestAndDirectoryScan) {
  const std::string journal_path = TempPath("nimbus_snapshot_list.waj");
  const snapshot::State state = SampleState();
  ASSERT_TRUE(
      snapshot::Write(snapshot::SnapshotPath(journal_path, 1), state).ok());
  ASSERT_TRUE(
      snapshot::Write(snapshot::SnapshotPath(journal_path, 2), state).ok());
  // Manifest is stale (crash between snapshot rename and manifest
  // update): it only knows generation 1.
  snapshot::Manifest manifest;
  manifest.generation = 1;
  manifest.sequence = 4;
  ASSERT_TRUE(snapshot::WriteManifest(journal_path, manifest).ok());

  const std::vector<int64_t> generations =
      snapshot::ListGenerations(journal_path);
  ASSERT_EQ(generations.size(), 2u);
  EXPECT_EQ(generations[0], 2);  // Newest first.
  EXPECT_EQ(generations[1], 1);

  std::remove(snapshot::SnapshotPath(journal_path, 1).c_str());
  std::remove(snapshot::SnapshotPath(journal_path, 2).c_str());
  std::remove(snapshot::ManifestPath(journal_path).c_str());
}

TEST(SnapshotTest, WriteFaultsLeaveNoCommittedFile) {
  const std::string path = TempPath("nimbus_snapshot_fault.snap");
  const snapshot::State state = SampleState();

  // Crash mid-write: only a torn .tmp remains, never a committed file.
  ASSERT_TRUE(fault::Configure("snapshot.write:1:*").ok());
  EXPECT_FALSE(snapshot::Write(path, state).ok());
  fault::Reset();
  EXPECT_FALSE(snapshot::Read(path).ok());
  {
    std::ifstream tmp(path + ".tmp", std::ios::binary);
    EXPECT_TRUE(tmp.good()) << "half-written temp file should remain";
  }

  ASSERT_TRUE(fault::Configure("snapshot.fsync:1:*").ok());
  EXPECT_FALSE(snapshot::Write(path, state).ok());
  fault::Reset();
  EXPECT_FALSE(snapshot::Read(path).ok());

  ASSERT_TRUE(fault::Configure("snapshot.rename:1:*").ok());
  EXPECT_FALSE(snapshot::Write(path, state).ok());
  fault::Reset();
  EXPECT_FALSE(snapshot::Read(path).ok());

  // With faults disarmed the same Write commits (overwriting the torn
  // temp file) and validates.
  ASSERT_TRUE(snapshot::Write(path, state).ok());
  EXPECT_TRUE(snapshot::Read(path).ok());
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// The disk-full drill: `snapshot.write:1:enospc` shapes the failure like
// a real full disk (errno text, half-written temp file). Commit-by-
// rename means the damage never reaches the committed snapshot path.
TEST(SnapshotTest, EnospcWriteFailsErrnoShapedAndLeavesNoCommittedFile) {
  const std::string path = TempPath("nimbus_snapshot_enospc.snap");
  const snapshot::State state = SampleState();

  ASSERT_TRUE(fault::Configure("snapshot.write:1:enospc").ok());
  const Status full = snapshot::Write(path, state).status();
  fault::Reset();
  ASSERT_FALSE(full.ok());
  EXPECT_NE(full.message().find("No space left on device"), std::string::npos)
      << full;
  EXPECT_FALSE(snapshot::Read(path).ok());

  // Once space is back, the same Write commits over the torn temp file.
  ASSERT_TRUE(snapshot::Write(path, state).ok());
  EXPECT_TRUE(snapshot::Read(path).ok());
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// ---------------------------------------------------------------------------
// Marketplace-level recovery-ladder drills: corruption of the newest
// generation falls back to the previous one (or to full replay) with
// bit-identical restored state.

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

void RemoveRecoveryFilesOf(const std::string& journal_path) {
  for (const std::string& file : RecoveryFiles(journal_path)) {
    std::remove(file.c_str());
  }
}

// Ladder fixtures outlive their tests (a test may fail midway); this
// removes every one of them once the whole binary is done.
class LadderFileCleanup : public ::testing::Environment {
 public:
  static std::vector<std::string>& Paths() {
    static std::vector<std::string> paths;
    return paths;
  }
  void TearDown() override {
    for (const std::string& path : Paths()) {
      RemoveRecoveryFilesOf(path);
    }
  }
};
const ::testing::Environment* const kLadderFileCleanup =
    ::testing::AddGlobalTestEnvironment(new LadderFileCleanup);

// One marketplace history with `checkpoints` committed generations and a
// journal tail past the newest, plus the reference state a restore must
// match.
struct LadderFixture {
  std::string journal_path;
  std::string newest_snapshot;    // The newest generation's file.
  std::string pristine_newest;    // Its uncorrupted bytes.
  double total_revenue = 0.0;
  std::string csv;
  std::map<double, int64_t> sales_per_price_point;
  std::vector<std::string> suspicious;
};

LadderFixture BuildLadderFixture(const std::string& tag,
                                 int64_t checkpoints = 2) {
  LadderFixture fixture;
  fixture.journal_path = TempPath(tag);
  RemoveRecoveryFilesOf(fixture.journal_path);
  LadderFileCleanup::Paths().push_back(fixture.journal_path);

  Marketplace market = MakeMarket(17);
  EXPECT_TRUE(market.EnableJournal(fixture.journal_path).ok());
  EXPECT_TRUE(market.EnableCheckpoints(CheckpointPolicy{}).ok());

  const auto buy = [&](const std::string& buyer, ml::ModelKind kind,
                       double x) {
    StatusOr<Broker::Purchase> purchase = market.Buy(buyer, kind, x,
                                                     "zero_one");
    EXPECT_TRUE(purchase.ok()) << purchase.status();
  };
  // Generation 1 covers 4 records (the journal is sealed at 4).
  buy("alice", ml::ModelKind::kLogisticRegression, 10.0);
  buy("alice", ml::ModelKind::kLogisticRegression, 10.0);
  buy("bob,\"evil\"\nid", ml::ModelKind::kLinearSvm, 5.0);
  buy("carol", ml::ModelKind::kLinearSvm, 25.0);
  EXPECT_EQ(*market.CheckpointNow(), 1);
  // Generation 2 covers 7 (sealed again at 7).
  buy("alice", ml::ModelKind::kLinearSvm, 5.0);
  buy("dave", ml::ModelKind::kLogisticRegression, 2.0);
  buy("carol", ml::ModelKind::kLinearSvm, 25.0);
  EXPECT_EQ(*market.CheckpointNow(), 2);
  // Each further generation covers two more records.
  for (int64_t generation = 3; generation <= checkpoints; ++generation) {
    buy("frank", ml::ModelKind::kLinearSvm, 5.0 + generation);
    buy("dave", ml::ModelKind::kLogisticRegression, 2.0 * generation);
    EXPECT_EQ(*market.CheckpointNow(), generation);
  }
  // Two tail records past the newest generation.
  buy("erin", ml::ModelKind::kLogisticRegression, 10.0);
  buy("alice", ml::ModelKind::kLogisticRegression, 10.0);
  EXPECT_TRUE(market.FlushJournal().ok());

  fixture.newest_snapshot =
      snapshot::SnapshotPath(fixture.journal_path, checkpoints);
  fixture.pristine_newest = ReadFileBytes(fixture.newest_snapshot);
  fixture.total_revenue = market.total_revenue();
  fixture.csv = market.ledger().ToCsv();
  fixture.sales_per_price_point = market.ledger().SalesPerPricePoint();
  fixture.suspicious = market.SuspiciousBuyers();
  return fixture;
}

void ExpectBitIdenticalRestore(const LadderFixture& fixture,
                               Marketplace& restored) {
  EXPECT_EQ(restored.total_revenue(), fixture.total_revenue);
  EXPECT_EQ(restored.ledger().ToCsv(), fixture.csv);
  EXPECT_EQ(restored.ledger().SalesPerPricePoint(),
            fixture.sales_per_price_point);
  EXPECT_EQ(restored.SuspiciousBuyers(), fixture.suspicious);
}

TEST(SnapshotLadderTest, CleanRestoreUsesNewestGenerationAndOnlyTheTail) {
  const LadderFixture fixture =
      BuildLadderFixture("nimbus_ladder_clean.waj");
  Marketplace restored = MakeMarket(17);
  Marketplace::RestoreReport report;
  Status status = restored.RestoreFromCheckpoint(
      fixture.journal_path, Marketplace::RestoreOptions{}, &report);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(report.source, Marketplace::RestoreReport::Source::kSnapshot);
  EXPECT_EQ(report.generation, 2);
  EXPECT_EQ(report.snapshot_records, 7);
  EXPECT_EQ(report.tail_records, 2);  // O(delta), not O(history).
  EXPECT_EQ(report.snapshots_rejected, 0);
  ExpectBitIdenticalRestore(fixture, restored);

  // The restored marketplace keeps trading and checkpointing.
  ASSERT_TRUE(restored.EnableCheckpoints(CheckpointPolicy{}).ok());
  ASSERT_TRUE(restored
                  .Buy("frank", ml::ModelKind::kLinearSvm, 5.0, "zero_one")
                  .ok());
  EXPECT_EQ(*restored.CheckpointNow(), 3);  // Generation numbering resumes.
}

// The satellite property, marketplace-level: truncating the newest
// snapshot at section boundaries (and a spread of interior offsets)
// falls back to generation 1 and restores bit-identically.
TEST(SnapshotLadderTest, TruncatedNewestGenerationFallsBackBitIdentically) {
  const LadderFixture fixture =
      BuildLadderFixture("nimbus_ladder_trunc.waj");
  const size_t size = fixture.pristine_newest.size();
  std::set<size_t> offsets = {0, 1, 7, 8, size / 4, size / 2,
                              3 * size / 4, size - 20, size - 1};
  for (size_t offset : offsets) {
    ASSERT_LT(offset, size);
    WriteFileBytes(fixture.newest_snapshot,
                   fixture.pristine_newest.substr(0, offset));
    Marketplace restored = MakeMarket(17);
    Marketplace::RestoreReport report;
    Status status = restored.RestoreFromCheckpoint(
        fixture.journal_path, Marketplace::RestoreOptions{}, &report);
    ASSERT_TRUE(status.ok()) << status << " (truncated to " << offset << ")";
    EXPECT_EQ(report.source,
              Marketplace::RestoreReport::Source::kPreviousSnapshot);
    EXPECT_EQ(report.generation, 1);
    EXPECT_EQ(report.snapshot_records, 4);
    EXPECT_EQ(report.tail_records, 5);  // Records 4..8 from the journal.
    EXPECT_EQ(report.snapshots_rejected, 1);
    ExpectBitIdenticalRestore(fixture, restored);
  }
  // Restore the pristine file so the temp dir is reusable.
  WriteFileBytes(fixture.newest_snapshot, fixture.pristine_newest);
}

// Companion property: flipping a byte ANYWHERE in the newest snapshot
// (every offset — headers, payloads, footer) falls back to generation 1
// and restores bit-identically.
TEST(SnapshotLadderTest, ByteFlipAnywhereFallsBackBitIdentically) {
  const LadderFixture fixture = BuildLadderFixture("nimbus_ladder_flip.waj");
  const size_t size = fixture.pristine_newest.size();
  // Full marketplace restores at every offset would be minutes of work;
  // do the full drill on a deterministic stride and at the boundaries.
  std::set<size_t> offsets = {0, 7, 8, size - 1};
  for (size_t offset = 0; offset < size; offset += 13) {
    offsets.insert(offset);
  }
  for (size_t offset : offsets) {
    std::string corrupted = fixture.pristine_newest;
    corrupted[offset] = static_cast<char>(corrupted[offset] ^ 0x10);
    WriteFileBytes(fixture.newest_snapshot, corrupted);
    Marketplace restored = MakeMarket(17);
    Marketplace::RestoreReport report;
    Status status = restored.RestoreFromCheckpoint(
        fixture.journal_path, Marketplace::RestoreOptions{}, &report);
    ASSERT_TRUE(status.ok()) << status << " (flip at " << offset << ")";
    EXPECT_EQ(report.source,
              Marketplace::RestoreReport::Source::kPreviousSnapshot)
        << "flip at " << offset;
    EXPECT_EQ(report.generation, 1);
    EXPECT_EQ(report.snapshots_rejected, 1);
    ExpectBitIdenticalRestore(fixture, restored);
  }
  WriteFileBytes(fixture.newest_snapshot, fixture.pristine_newest);
}

TEST(SnapshotLadderTest, BothGenerationsCorruptFallsBackToFullReplay) {
  const LadderFixture fixture = BuildLadderFixture("nimbus_ladder_full.waj");
  const std::string gen1 =
      snapshot::SnapshotPath(fixture.journal_path, 1);
  std::string gen1_bytes = ReadFileBytes(gen1);
  gen1_bytes[gen1_bytes.size() / 3] ^= 0x20;
  WriteFileBytes(gen1, gen1_bytes);
  std::string gen2_bytes = fixture.pristine_newest;
  gen2_bytes[10] ^= 0x20;
  WriteFileBytes(fixture.newest_snapshot, gen2_bytes);

  Marketplace restored = MakeMarket(17);
  Marketplace::RestoreReport report;
  Status status = restored.RestoreFromCheckpoint(
      fixture.journal_path, Marketplace::RestoreOptions{}, &report);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(report.source, Marketplace::RestoreReport::Source::kFullReplay);
  EXPECT_EQ(report.generation, 0);
  // Full replay stitches the sealed segments [0,4) and [4,7) to the live
  // segment's [7,9) — the chain covers history even with no snapshot.
  EXPECT_EQ(report.tail_records, 9);
  EXPECT_EQ(report.snapshots_rejected, 2);
  ExpectBitIdenticalRestore(fixture, restored);
}

// The last rung stays reachable however many checkpoints pruned the
// early generations: sealed segments are never pruned.
TEST(SnapshotLadderTest, BothGenerationsCorruptAfterManyCheckpointsFullReplays) {
  const LadderFixture fixture =
      BuildLadderFixture("nimbus_ladder_full_many.waj", /*checkpoints=*/5);
  ASSERT_EQ(snapshot::ListGenerations(fixture.journal_path),
            (std::vector<int64_t>{5, 4}));
  for (const int64_t generation : {4, 5}) {
    const std::string file =
        snapshot::SnapshotPath(fixture.journal_path, generation);
    std::string bytes = ReadFileBytes(file);
    bytes[bytes.size() / 2] ^= 0x20;
    WriteFileBytes(file, bytes);
  }

  Marketplace restored = MakeMarket(17);
  Marketplace::RestoreReport report;
  Status status = restored.RestoreFromCheckpoint(
      fixture.journal_path, Marketplace::RestoreOptions{}, &report);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(report.source, Marketplace::RestoreReport::Source::kFullReplay);
  EXPECT_EQ(report.snapshots_rejected, 2);
  EXPECT_EQ(report.tail_records, 15);
  ExpectBitIdenticalRestore(fixture, restored);
}

TEST(SnapshotLadderTest, DeferredHydrationRestoresAggregatesThenRows) {
  const LadderFixture fixture =
      BuildLadderFixture("nimbus_ladder_deferred.waj");
  Marketplace restored = MakeMarket(17);
  Marketplace::RestoreOptions options;
  options.hydrate = false;
  Marketplace::RestoreReport report;
  Status status = restored.RestoreFromCheckpoint(fixture.journal_path,
                                                 options, &report);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(report.source, Marketplace::RestoreReport::Source::kSnapshot);
  EXPECT_FALSE(restored.ledger().hydrated());
  // Aggregate queries work without touching the sealed segments.
  EXPECT_EQ(restored.total_revenue(), fixture.total_revenue);
  EXPECT_EQ(restored.ledger().SalesPerPricePoint(),
            fixture.sales_per_price_point);
  EXPECT_EQ(restored.SuspiciousBuyers(), fixture.suspicious);
  // Row-level audit access comes online after hydration.
  ASSERT_TRUE(restored.HydrateLedger().ok());
  EXPECT_TRUE(restored.ledger().hydrated());
  EXPECT_EQ(restored.ledger().ToCsv(), fixture.csv);
}

// A checkpoint no longer needs the rows, so a deferred restore stays
// unhydrated through its next cadence checkpoint — and hydrates exactly
// afterwards.
TEST(SnapshotLadderTest, DeferredRestoreStaysUnhydratedThroughCadenceCheckpoint) {
  const LadderFixture fixture =
      BuildLadderFixture("nimbus_ladder_deferred_cadence.waj");
  Marketplace restored = MakeMarket(17);
  Marketplace::RestoreOptions options;
  options.hydrate = false;
  ASSERT_TRUE(
      restored.RestoreFromCheckpoint(fixture.journal_path, options).ok());
  CheckpointPolicy policy;
  policy.every_records = 3;
  ASSERT_TRUE(restored.EnableCheckpoints(policy).ok());
  ASSERT_TRUE(
      restored.Buy("gina", ml::ModelKind::kLinearSvm, 5.0, "zero_one").ok());
  EXPECT_EQ(restored.CheckpointStats()->last_generation, 3);
  EXPECT_EQ(restored.CheckpointStats()->last_sequence, 10);
  EXPECT_FALSE(restored.ledger().hydrated());

  ASSERT_TRUE(restored.HydrateLedger().ok());
  const std::string csv = restored.ledger().ToCsv();
  EXPECT_EQ(csv.rfind(fixture.csv, 0), 0u);  // The old rows, then gina's.
  Marketplace again = MakeMarket(17);
  Marketplace::RestoreReport report;
  ASSERT_TRUE(again
                  .RestoreFromCheckpoint(fixture.journal_path,
                                         Marketplace::RestoreOptions{}, &report)
                  .ok());
  EXPECT_EQ(report.generation, 3);
  EXPECT_EQ(again.ledger().ToCsv(), csv);
}

// Sealed segments are the only copy of the rows: a rotted one fails a
// hydrating restore (every rung needs it) with a Status naming the file,
// never a short ledger. A deferred restore does not open it, and its
// Hydrate fails the same way.
TEST(SnapshotLadderTest, RottedSealedSegmentFailsHydrationNamingTheFile) {
  const LadderFixture fixture =
      BuildLadderFixture("nimbus_ladder_rotted_segment.waj");
  const std::string segment =
      Journal::SealedSegmentPath(fixture.journal_path, 0);
  std::string bytes = ReadFileBytes(segment);
  bytes[bytes.size() - 2] ^= 0x08;
  WriteFileBytes(segment, bytes);

  Marketplace restored = MakeMarket(17);
  const Status status = restored.RestoreFromCheckpoint(fixture.journal_path);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find(segment), std::string::npos) << status;
  EXPECT_EQ(restored.ledger().size(), 0);

  Marketplace deferred = MakeMarket(17);
  Marketplace::RestoreOptions options;
  options.hydrate = false;
  ASSERT_TRUE(
      deferred.RestoreFromCheckpoint(fixture.journal_path, options).ok());
  EXPECT_EQ(deferred.total_revenue(), fixture.total_revenue);
  const Status hydrated = deferred.HydrateLedger();
  EXPECT_EQ(hydrated.code(), StatusCode::kInternal);
  EXPECT_NE(hydrated.message().find(segment), std::string::npos) << hydrated;
}

TEST(SnapshotLadderTest, RestoreSurvivesSealRenameCrashWindow) {
  const LadderFixture fixture = BuildLadderFixture("nimbus_ladder_seal.waj");
  // Emulate a crash between a seal's two renames: the live segment was
  // renamed to its sealed name and the fresh one never installed.
  ASSERT_EQ(std::rename(fixture.journal_path.c_str(),
                        Journal::SealedSegmentPath(fixture.journal_path, 7)
                            .c_str()),
            0);

  Marketplace restored = MakeMarket(17);
  Marketplace::RestoreReport report;
  Status status = restored.RestoreFromCheckpoint(
      fixture.journal_path, Marketplace::RestoreOptions{}, &report);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(report.source, Marketplace::RestoreReport::Source::kSnapshot);
  EXPECT_EQ(report.tail_records, 2);
  ExpectBitIdenticalRestore(fixture, restored);
  // The live segment was re-created for new appends at the restored
  // sequence.
  Journal::RecoveryReport journal_report;
  ASSERT_TRUE(
      Journal::Replay(fixture.journal_path, &journal_report).ok());
  EXPECT_EQ(journal_report.base_sequence, 9);
  ASSERT_TRUE(restored
                  .Buy("gina", ml::ModelKind::kLinearSvm, 5.0, "zero_one")
                  .ok());
  ASSERT_TRUE(restored.FlushJournal().ok());
  Marketplace again = MakeMarket(17);
  ASSERT_TRUE(again.RestoreFromCheckpoint(fixture.journal_path).ok());
  EXPECT_EQ(again.ledger().ToCsv(), restored.ledger().ToCsv());
}

TEST(SnapshotLadderTest, RestoreRejectsNonEmptyMarketAndMissingEverything) {
  const std::string path = TempPath("nimbus_ladder_missing.waj");
  RemoveRecoveryFilesOf(path);
  Marketplace fresh = MakeMarket(17);
  EXPECT_EQ(fresh.RestoreFromCheckpoint(path).code(), StatusCode::kNotFound);

  Marketplace busy = MakeMarket(17);
  ASSERT_TRUE(
      busy.Buy("carol", ml::ModelKind::kLinearSvm, 5.0, "zero_one").ok());
  EXPECT_EQ(busy.RestoreFromCheckpoint(path).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace nimbus::market
