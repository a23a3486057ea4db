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
// hostile ids, non-trivial doubles, and a short entry log.
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
  for (int i = 0; i < 4; ++i) {
    LedgerEntry entry;
    entry.sequence = i;
    entry.buyer_id = i % 2 == 0 ? "alice" : "bob,\"evil\"\nid";
    entry.model = i % 2 == 0 ? ml::ModelKind::kLogisticRegression
                             : ml::ModelKind::kLinearSvm;
    entry.inverse_ncp = 2.0 * (1 + i % 2);
    entry.price = i % 2 == 0 ? 11.0 : 17.875;
    entry.expected_error = 0.25 / (1 + i);
    state.entries.push_back(std::move(entry));
  }
  state.entries_loaded = true;
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

void ExpectSameEntries(const std::vector<LedgerEntry>& a,
                       const std::vector<LedgerEntry>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sequence, b[i].sequence);
    EXPECT_EQ(a[i].buyer_id, b[i].buyer_id);
    EXPECT_EQ(a[i].model, b[i].model);
    EXPECT_EQ(a[i].inverse_ncp, b[i].inverse_ncp);
    EXPECT_EQ(a[i].price, b[i].price);
    EXPECT_EQ(a[i].expected_error, b[i].expected_error);
  }
}

// A version-1 image: SampleState() as written by the format before the
// BRKR section was retired (META, AGGR, COLL, BRKR, LEDG, FOOT), with
// broker counters {logistic: 2 sales, 22.0; svm: 2 sales, 35.75}.
std::string VersionOneSampleImage() {
  const std::string hex =
      "4e494d42555353314d455441000000001400000000000000c31a30c701000000"
      "0300000000000000040000000000000041474752000000008600000000000000"
      "5a04643e0000000000e04c4002000000010000000000003640020000000000e0"
      "4140020000000102000000000000000202000000000000000200000000000000"
      "0000004002000000000000000000000000001040020000000000000002000000"
      "05000000616c69636500000000000036400d000000626f622c226576696c220a"
      "69640000000000e04140434f4c4c000000004b000000000000006a2d59a50100"
      "0000010200000005000000616c69636502000000000000000000104000000000"
      "000036400d000000626f622c226576696c220a69640200000000000000000020"
      "400000000000e0414042524b520000000026000000000000005b7aa966020000"
      "0001020000000000000000000000000036400202000000000000000000000000"
      "e041404c45444700000000d000000000000000e1b4947704000000000000002a"
      "0000000000000000000000010000000000000040000000000000264000000000"
      "0000d03f05000000616c69636532000000010000000000000002000000000000"
      "10400000000000e03140000000000000c03f0d000000626f622c226576696c22"
      "0a69642a00000002000000000000000100000000000000400000000000002640"
      "555555555555b53f05000000616c696365320000000300000000000000020000"
      "0000000010400000000000e03140000000000000b03f0d000000626f622c2265"
      "76696c220a6964464f4f54000000007c000000000000005e620d7b050000004d"
      "45544108000000000000001400000000000000c31a30c7414747523000000000"
      "00000086000000000000005a04643e434f4c4cca000000000000004b00000000"
      "0000006a2d59a542524b52290100000000000026000000000000005b7aa9664c"
      "4544476301000000000000d000000000000000e1b49477";
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes += static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16));
  }
  return bytes;
}

TEST(SnapshotTest, WriteReadRoundTripIsBitIdentical) {
  const std::string path = TempPath("nimbus_snapshot_roundtrip.snap");
  const snapshot::State state = SampleState();
  StatusOr<int64_t> bytes = snapshot::Write(path, state);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  EXPECT_EQ(*bytes, static_cast<int64_t>(ReadFileBytes(path).size()));

  snapshot::ReadOptions deep;
  deep.load_entries = true;
  StatusOr<snapshot::State> back = snapshot::Read(path, deep);
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectSameAggregates(state, *back);
  ASSERT_TRUE(back->entries_loaded);
  ExpectSameEntries(state.entries, back->entries);
  std::remove(path.c_str());
}

// Journal directories checkpointed by the previous format keep their
// snapshot rungs: a version-1 image still reads, its BRKR section is
// CRC-checked and dropped, and the rest restores bit-identically.
TEST(SnapshotTest, ReadsVersionOneImageAndDropsBrokerSection) {
  const std::string path = TempPath("nimbus_snapshot_v1.snap");
  const std::string bytes = VersionOneSampleImage();
  ASSERT_EQ(bytes.size(), 727u);
  WriteFileBytes(path, bytes);

  const snapshot::State state = SampleState();
  snapshot::ReadOptions deep;
  deep.load_entries = true;
  StatusOr<snapshot::State> back = snapshot::Read(path, deep);
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectSameAggregates(state, *back);
  ExpectSameEntries(state.entries, back->entries);
  StatusOr<snapshot::State> shallow = snapshot::Read(path);
  ASSERT_TRUE(shallow.ok()) << shallow.status();
  EXPECT_EQ(shallow->total_revenue, state.total_revenue);

  // The dropped section is still integrity-checked: a flip in the BRKR
  // payload rejects the file.
  const size_t brkr = bytes.find("BRKR");
  ASSERT_NE(brkr, std::string::npos);
  std::string corrupted = bytes;
  const size_t payload = brkr + 20;  // Past tag, flags, length and CRC.
  corrupted[payload] = static_cast<char>(corrupted[payload] ^ 0x01);
  WriteFileBytes(path, corrupted);
  EXPECT_FALSE(snapshot::Read(path).ok());

  // The current writer no longer emits the section.
  ASSERT_TRUE(snapshot::Write(path, state).ok());
  EXPECT_EQ(ReadFileBytes(path).find("BRKR"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotTest, ShallowReadValidatesEverythingWithoutLoadingEntries) {
  const std::string path = TempPath("nimbus_snapshot_shallow.snap");
  const snapshot::State state = SampleState();
  ASSERT_TRUE(snapshot::Write(path, state).ok());

  StatusOr<snapshot::State> shallow = snapshot::Read(path);
  ASSERT_TRUE(shallow.ok()) << shallow.status();
  EXPECT_FALSE(shallow->entries_loaded);
  EXPECT_TRUE(shallow->entries.empty());
  EXPECT_EQ(shallow->sequence, state.sequence);
  EXPECT_EQ(shallow->total_revenue, state.total_revenue);

  StatusOr<std::vector<LedgerEntry>> entries = snapshot::ReadEntries(path);
  ASSERT_TRUE(entries.ok()) << entries.status();
  EXPECT_EQ(entries->size(), state.entries.size());
  std::remove(path.c_str());
}

// Property: a snapshot truncated at ANY byte offset is rejected — both
// by the shallow (footer-walking) reader the recovery ladder uses and
// by the entry loader. No prefix of a valid snapshot is a valid
// snapshot.
TEST(SnapshotTest, TruncationAtEveryByteOffsetIsRejected) {
  const std::string path = TempPath("nimbus_snapshot_trunc.snap");
  const snapshot::State state = SampleState();
  ASSERT_TRUE(snapshot::Write(path, state).ok());
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 100u);

  for (size_t length = 0; length < bytes.size(); ++length) {
    WriteFileBytes(path, bytes.substr(0, length));
    EXPECT_FALSE(snapshot::Read(path).ok())
        << "shallow read accepted a snapshot truncated to " << length
        << " of " << bytes.size() << " bytes";
    EXPECT_FALSE(snapshot::ReadEntries(path).ok())
        << "entry load accepted a snapshot truncated to " << length
        << " of " << bytes.size() << " bytes";
  }
  std::remove(path.c_str());
}

// Property: flipping one bit anywhere in the image is rejected by the
// deep read — section payloads and headers are all CRC-covered, and the
// footer cross-checks the headers. (The shallow read must reject every
// flip outside the LEDG payload; a LEDG payload flip is the one case it
// intentionally defers to hydration.)
TEST(SnapshotTest, BitFlipAtEveryByteIsRejected) {
  const std::string path = TempPath("nimbus_snapshot_flip.snap");
  const snapshot::State state = SampleState();
  ASSERT_TRUE(snapshot::Write(path, state).ok());
  const std::string bytes = ReadFileBytes(path);

  for (size_t offset = 0; offset < bytes.size(); ++offset) {
    std::string corrupted = bytes;
    corrupted[offset] = static_cast<char>(corrupted[offset] ^ 0x40);
    WriteFileBytes(path, corrupted);
    snapshot::ReadOptions deep;
    deep.load_entries = true;
    EXPECT_FALSE(snapshot::Read(path, deep).ok())
        << "deep read accepted a bit flip at byte " << offset;
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

// One marketplace history with two committed generations and a journal
// tail past the newest, plus the reference state a restore must match.
struct LadderFixture {
  std::string journal_path;
  std::string newest_snapshot;    // Generation 2's file.
  std::string pristine_newest;    // Its uncorrupted bytes.
  double total_revenue = 0.0;
  std::string csv;
  std::map<double, int64_t> sales_per_price_point;
  std::vector<std::string> suspicious;
};

LadderFixture BuildLadderFixture(const std::string& tag) {
  LadderFixture fixture;
  fixture.journal_path = TempPath(tag);
  std::remove(fixture.journal_path.c_str());
  std::remove((fixture.journal_path + ".prev").c_str());
  std::remove(snapshot::ManifestPath(fixture.journal_path).c_str());
  for (int64_t generation = 1; generation <= 4; ++generation) {
    std::remove(
        snapshot::SnapshotPath(fixture.journal_path, generation).c_str());
  }

  Marketplace market = MakeMarket(17);
  EXPECT_TRUE(market.EnableJournal(fixture.journal_path).ok());
  EXPECT_TRUE(market.EnableCheckpoints(CheckpointPolicy{}).ok());

  const auto buy = [&](const std::string& buyer, ml::ModelKind kind,
                       double x) {
    StatusOr<Broker::Purchase> purchase = market.Buy(buyer, kind, x,
                                                     "zero_one");
    EXPECT_TRUE(purchase.ok()) << purchase.status();
  };
  // Generation 1 covers 4 records.
  buy("alice", ml::ModelKind::kLogisticRegression, 10.0);
  buy("alice", ml::ModelKind::kLogisticRegression, 10.0);
  buy("bob,\"evil\"\nid", ml::ModelKind::kLinearSvm, 5.0);
  buy("carol", ml::ModelKind::kLinearSvm, 25.0);
  EXPECT_EQ(*market.CheckpointNow(), 1);
  // Generation 2 covers 7 (journal rotated down to base 4).
  buy("alice", ml::ModelKind::kLinearSvm, 5.0);
  buy("dave", ml::ModelKind::kLogisticRegression, 2.0);
  buy("carol", ml::ModelKind::kLinearSvm, 25.0);
  EXPECT_EQ(*market.CheckpointNow(), 2);
  // Two tail records past the newest generation.
  buy("erin", ml::ModelKind::kLogisticRegression, 10.0);
  buy("alice", ml::ModelKind::kLogisticRegression, 10.0);
  EXPECT_TRUE(market.FlushJournal().ok());

  fixture.newest_snapshot = snapshot::SnapshotPath(fixture.journal_path, 2);
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
// and restores bit-identically. The eager-hydration restore CRC-checks
// the LEDG payload too, so no flip anywhere survives.
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
  // Full replay stitches `.prev` records [0,4) to the live segment's
  // [4,9) — the rotation chain covers history even with no snapshot.
  EXPECT_EQ(report.tail_records, 9);
  EXPECT_EQ(report.snapshots_rejected, 2);
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
  // Aggregate queries work without touching the snapshot's entry log.
  EXPECT_EQ(restored.total_revenue(), fixture.total_revenue);
  EXPECT_EQ(restored.ledger().SalesPerPricePoint(),
            fixture.sales_per_price_point);
  EXPECT_EQ(restored.SuspiciousBuyers(), fixture.suspicious);
  // Row-level audit access comes online after hydration.
  ASSERT_TRUE(restored.HydrateLedger().ok());
  EXPECT_TRUE(restored.ledger().hydrated());
  EXPECT_EQ(restored.ledger().ToCsv(), fixture.csv);
}

TEST(SnapshotLadderTest, RestoreSurvivesRotationRenameCrashWindow) {
  const LadderFixture fixture =
      BuildLadderFixture("nimbus_ladder_rename.waj");
  // Emulate a crash between Rotate's two renames: the live segment is
  // gone and only `.prev` (the full pre-rotation file) remains.
  const std::string live_bytes = ReadFileBytes(fixture.journal_path);
  WriteFileBytes(fixture.journal_path + ".prev", live_bytes);
  ASSERT_EQ(std::remove(fixture.journal_path.c_str()), 0);

  Marketplace restored = MakeMarket(17);
  Marketplace::RestoreReport report;
  Status status = restored.RestoreFromCheckpoint(
      fixture.journal_path, Marketplace::RestoreOptions{}, &report);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(report.source, Marketplace::RestoreReport::Source::kSnapshot);
  ExpectBitIdenticalRestore(fixture, restored);
  // The live segment was recreated for new appends at the restored
  // sequence.
  Journal::RecoveryReport journal_report;
  ASSERT_TRUE(
      Journal::Replay(fixture.journal_path, &journal_report).ok());
  EXPECT_EQ(journal_report.base_sequence, 9);
  ASSERT_TRUE(restored
                  .Buy("gina", ml::ModelKind::kLinearSvm, 5.0, "zero_one")
                  .ok());
}

TEST(SnapshotLadderTest, RestoreRejectsNonEmptyMarketAndMissingEverything) {
  const std::string path = TempPath("nimbus_ladder_missing.waj");
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
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
