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
// hostile ids, non-trivial doubles, and the short entry log the legacy
// images below carry (the current writer ignores it).
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

std::string FromHex(const std::string& hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes += static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16));
  }
  return bytes;
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
  return FromHex(hex);
}

// A version-2 image: SampleState() as written by the format before rows
// moved to sealed journal segments (META, AGGR, COLL, LEDG, FOOT).
std::string VersionTwoSampleImage() {
  return FromHex(
      "4e494d42555353314d4554410000000014000000000000000957996802000000"
      "0300000000000000040000000000000041474752000000008600000000000000"
      "5a04643e0000000000e04c4002000000010000000000003640020000000000e0"
      "4140020000000102000000000000000202000000000000000200000000000000"
      "0000004002000000000000000000000000001040020000000000000002000000"
      "05000000616c69636500000000000036400d000000626f622c226576696c220a"
      "69640000000000e04140434f4c4c000000004b000000000000006a2d59a50100"
      "0000010200000005000000616c69636502000000000000000000104000000000"
      "000036400d000000626f622c226576696c220a69640200000000000000000020"
      "400000000000e041404c45444700000000d000000000000000e1b49477040000"
      "00000000002a0000000000000000000000010000000000000040000000000000"
      "2640000000000000d03f05000000616c69636532000000010000000000000002"
      "00000000000010400000000000e03140000000000000c03f0d000000626f622c"
      "226576696c220a69642a00000002000000000000000100000000000000400000"
      "000000002640555555555555b53f05000000616c696365320000000300000000"
      "0000000200000000000010400000000000e03140000000000000b03f0d000000"
      "626f622c226576696c220a6964464f4f54000000006400000000000000964911"
      "bd040000004d4554410800000000000000140000000000000009579968414747"
      "52300000000000000086000000000000005a04643e434f4c4cca000000000000"
      "004b000000000000006a2d59a54c4544472901000000000000d0000000000000"
      "00e1b49477");
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
  EXPECT_EQ(back->version, 3u);
  ExpectSameAggregates(state, *back);
  EXPECT_TRUE(back->entries.empty());
  std::remove(path.c_str());
}

// Journal directories checkpointed by the previous formats keep their
// snapshot rungs: a version-1 image still reads, its BRKR section is
// CRC-checked and dropped, and the rest restores bit-identically.
TEST(SnapshotTest, ReadsVersionOneImageAndDropsBrokerSection) {
  const std::string path = TempPath("nimbus_snapshot_v1.snap");
  const std::string bytes = VersionOneSampleImage();
  ASSERT_EQ(bytes.size(), 727u);
  WriteFileBytes(path, bytes);

  const snapshot::State state = SampleState();
  StatusOr<snapshot::State> back = snapshot::Read(path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->version, 1u);
  ExpectSameAggregates(state, *back);
  ExpectSameEntries(state.entries, back->entries);

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

// A version-2 image reads with its LEDG entry log, CRC-checked like
// every section: a flip in the rows rejects the file.
TEST(SnapshotTest, ReadsVersionTwoImageAndItsEntryLog) {
  const std::string path = TempPath("nimbus_snapshot_v2.snap");
  const std::string bytes = VersionTwoSampleImage();
  ASSERT_EQ(bytes.size(), 645u);
  WriteFileBytes(path, bytes);

  const snapshot::State state = SampleState();
  StatusOr<snapshot::State> back = snapshot::Read(path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->version, 2u);
  ExpectSameAggregates(state, *back);
  ExpectSameEntries(state.entries, back->entries);

  const size_t ledg = bytes.find("LEDG");
  ASSERT_NE(ledg, std::string::npos);
  std::string corrupted = bytes;
  const size_t payload = ledg + 40;  // Inside the first row.
  corrupted[payload] = static_cast<char>(corrupted[payload] ^ 0x01);
  WriteFileBytes(path, corrupted);
  EXPECT_FALSE(snapshot::Read(path).ok());
  std::remove(path.c_str());
}

// The images the byte-level properties below run over: the current
// writer's, and a legacy one whose LEDG rows the reader decodes.
std::vector<std::string> PropertyImages(const std::string& path) {
  EXPECT_TRUE(snapshot::Write(path, SampleState()).ok());
  return {ReadFileBytes(path), VersionTwoSampleImage()};
}

// Property: a snapshot truncated at ANY byte offset is rejected. No
// prefix of a valid snapshot is a valid snapshot.
TEST(SnapshotTest, TruncationAtEveryByteOffsetIsRejected) {
  const std::string path = TempPath("nimbus_snapshot_trunc.snap");
  for (const std::string& bytes : PropertyImages(path)) {
    ASSERT_GT(bytes.size(), 100u);
    for (size_t length = 0; length < bytes.size(); ++length) {
      WriteFileBytes(path, bytes.substr(0, length));
      EXPECT_FALSE(snapshot::Read(path).ok())
          << "read accepted a snapshot truncated to " << length << " of "
          << bytes.size() << " bytes";
    }
  }
  std::remove(path.c_str());
}

// Property: flipping one bit anywhere in the image is rejected — section
// payloads and headers are all CRC-covered, and the footer cross-checks
// the headers.
TEST(SnapshotTest, BitFlipAtEveryByteIsRejected) {
  const std::string path = TempPath("nimbus_snapshot_flip.snap");
  for (const std::string& bytes : PropertyImages(path)) {
    for (size_t offset = 0; offset < bytes.size(); ++offset) {
      std::string corrupted = bytes;
      corrupted[offset] = static_cast<char>(corrupted[offset] ^ 0x40);
      WriteFileBytes(path, corrupted);
      EXPECT_FALSE(snapshot::Read(path).ok())
          << "read accepted a bit flip at byte " << offset << " of "
          << bytes.size();
    }
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

bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
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

// ---------------------------------------------------------------------------
// Directories written under snapshot format 2, by the rotating journal:
// checkpoints at 4, 7 and 9 over the history below, two more sales, so
// generations 2 and 3 hold LEDG logs, the live segment starts at 7, and
// `.prev` holds [4, 9). Rows [0, 4) exist only in the snapshots.

struct LegacySale {
  const char* buyer;
  ml::ModelKind model;
  double x;
};

constexpr LegacySale kLegacySales[] = {
    {"alice", ml::ModelKind::kLogisticRegression, 10.0},
    {"alice", ml::ModelKind::kLogisticRegression, 10.0},
    {"bob,\"evil\"\nid", ml::ModelKind::kLinearSvm, 5.0},
    {"carol", ml::ModelKind::kLinearSvm, 25.0},
    {"alice", ml::ModelKind::kLinearSvm, 5.0},
    {"dave", ml::ModelKind::kLogisticRegression, 2.0},
    {"carol", ml::ModelKind::kLinearSvm, 25.0},
    {"erin", ml::ModelKind::kLogisticRegression, 10.0},
    {"alice", ml::ModelKind::kLogisticRegression, 10.0},
    {"frank", ml::ModelKind::kLinearSvm, 5.0},
    {"dave", ml::ModelKind::kLogisticRegression, 40.0},
};

// The oracle: the first `n` legacy sales fed into a fresh marketplace.
std::string LegacyCsv(size_t n) {
  Marketplace market = MakeMarket(17);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(market
                    .Buy(kLegacySales[i].buyer, kLegacySales[i].model,
                         kLegacySales[i].x, "zero_one")
                    .ok());
  }
  return market.ledger().ToCsv();
}

// Writes the format-2 directory's files at `journal_path`.
void WriteVersionTwoDirectory(const std::string& journal_path,
                              bool with_live_segment) {
  RemoveRecoveryFilesOf(journal_path);
  WriteFileBytes(snapshot::SnapshotPath(journal_path, 2), FromHex(
      "4e494d42555353314d4554410000000014000000000000007bc17e4802000000"
      "020000000000000007000000000000004147475200000000c700000000000000"
      "897e0c6b5934c50b424172400200000001951ba58011ff594002e6da3757fb82"
      "6740020000000103000000000000000204000000000000000400000000000000"
      "0000004001000000000000000000000000001440020000000000000000000000"
      "0000244002000000000000000000000000003940020000000000000004000000"
      "05000000616c696365cd62bdd6d9975e400d000000626f622c226576696c220a"
      "696474854c9337a53e40050000006361726f6c1373c9e45ab35f400400000064"
      "6176652ad1d6752c842840434f4c4c00000000a600000000000000cb80c40402"
      "000000010200000005000000616c6963650200000000000000000034407041ea"
      "f18bee564004000000646176650100000000000000000000402ad1d6752c8428"
      "40020300000005000000616c69636501000000000000000000144074854c9337"
      "a53e400d000000626f622c226576696c220a6964010000000000000000001440"
      "74854c9337a53e40050000006361726f6c0200000000000000000049401373c9"
      "e45ab35f404c454447000000005101000000000000f01b12b307000000000000"
      "002a00000000000000000000000100000000000024407041eaf18bee4640660b"
      "c2a8d93fcf3f05000000616c6963652a00000001000000000000000100000000"
      "000024407041eaf18bee4640660bc2a8d93fcf3f05000000616c696365320000"
      "00020000000000000002000000000000144074854c9337a53e40b821175ff4a7"
      "d23f0d000000626f622c226576696c220a69642a000000030000000000000002"
      "00000000000039401373c9e45ab34f405dfccfd6107ece3f050000006361726f"
      "6c2a000000040000000000000002000000000000144074854c9337a53e40b821"
      "175ff4a7d23f05000000616c6963652900000005000000000000000100000000"
      "000000402ad1d6752c842840ead6520a0de8d03f04000000646176652a000000"
      "06000000000000000200000000000039401373c9e45ab34f405dfccfd6107ece"
      "3f050000006361726f6c464f4f5400000000640000000000000021bfdcc60400"
      "00004d455441080000000000000014000000000000007bc17e48414747523000"
      "000000000000c700000000000000897e0c6b434f4c4c0b01000000000000a600"
      "000000000000cb80c4044c454447c5010000000000005101000000000000f01b"
      "12b3"));
  WriteFileBytes(snapshot::SnapshotPath(journal_path, 3), FromHex(
      "4e494d42555353314d455441000000001400000000000000d8429cf302000000"
      "030000000000000009000000000000004147475200000000d700000000000000"
      "f187e2b1b5c43f08e5fc7740020000000182ae47b9ce76684002e6da3757fb82"
      "6740020000000105000000000000000204000000000000000400000000000000"
      "0000004001000000000000000000000000001440020000000000000000000000"
      "0000244004000000000000000000000000003940020000000000000005000000"
      "05000000616c696365c241d9e78f0765400d000000626f622c226576696c220a"
      "696474854c9337a53e40050000006361726f6c1373c9e45ab35f400400000064"
      "6176652ad1d6752c842840040000006572696e7041eaf18bee4640434f4c4c00"
      "000000c200000000000000670d86e202000000010300000005000000616c6963"
      "65030000000000000000003e4014b16ff5e83261400400000064617665010000"
      "0000000000000000402ad1d6752c842840040000006572696e01000000000000"
      "00000024407041eaf18bee4640020300000005000000616c6963650100000000"
      "0000000000144074854c9337a53e400d000000626f622c226576696c220a6964"
      "01000000000000000000144074854c9337a53e40050000006361726f6c020000"
      "0000000000000049401373c9e45ab35f404c45444700000000ac010000000000"
      "0077e625c809000000000000002a000000000000000000000001000000000000"
      "24407041eaf18bee4640660bc2a8d93fcf3f05000000616c6963652a00000001"
      "000000000000000100000000000024407041eaf18bee4640660bc2a8d93fcf3f"
      "05000000616c6963653200000002000000000000000200000000000014407485"
      "4c9337a53e40b821175ff4a7d23f0d000000626f622c226576696c220a69642a"
      "00000003000000000000000200000000000039401373c9e45ab34f405dfccfd6"
      "107ece3f050000006361726f6c2a000000040000000000000002000000000000"
      "144074854c9337a53e40b821175ff4a7d23f05000000616c6963652900000005"
      "000000000000000100000000000000402ad1d6752c842840ead6520a0de8d03f"
      "04000000646176652a00000006000000000000000200000000000039401373c9"
      "e45ab34f405dfccfd6107ece3f050000006361726f6c29000000070000000000"
      "00000100000000000024407041eaf18bee4640660bc2a8d93fcf3f0400000065"
      "72696e2a00000008000000000000000100000000000024407041eaf18bee4640"
      "660bc2a8d93fcf3f05000000616c696365464f4f540000000064000000000000"
      "00c3ba1bc5040000004d45544108000000000000001400000000000000d8429c"
      "f3414747523000000000000000d700000000000000f187e2b1434f4c4c1b0100"
      "0000000000c200000000000000670d86e24c454447f101000000000000ac0100"
      "000000000077e625c8"));
  WriteFileBytes(snapshot::ManifestPath(journal_path), FromHex(
      "4e494d4255534d310a67656e65726174696f6e20330a73657175656e63652039"
      "0a707265765f67656e65726174696f6e20320a707265765f73657175656e6365"
      "20370a637263203338323633373736330a"));
  WriteFileBytes(journal_path + ".prev", FromHex(
      "4e494d4255534a32040000000000000093d168e12a000000e147895d04000000"
      "0000000002000000000000144074854c9337a53e40b821175ff4a7d23f050000"
      "00616c69636529000000dd6c583505000000000000000100000000000000402a"
      "d1d6752c842840ead6520a0de8d03f04000000646176652a000000fe231cf006"
      "000000000000000200000000000039401373c9e45ab34f405dfccfd6107ece3f"
      "050000006361726f6c290000001161bf5d070000000000000001000000000000"
      "24407041eaf18bee4640660bc2a8d93fcf3f040000006572696e2a00000014af"
      "71ba08000000000000000100000000000024407041eaf18bee4640660bc2a8d9"
      "3fcf3f05000000616c696365"));
  if (with_live_segment) {
    WriteFileBytes(journal_path, FromHex(
        "4e494d4255534a32070000000000000070d6e76f290000001161bf5d07000000"
        "000000000100000000000024407041eaf18bee4640660bc2a8d93fcf3f040000"
        "006572696e2a00000014af71ba08000000000000000100000000000024407041"
        "eaf18bee4640660bc2a8d93fcf3f05000000616c6963652a0000008d10bd4209"
        "0000000000000002000000000000144074854c9337a53e40b821175ff4a7d23f"
        "050000006672616e6b290000000a2f78ed0a0000000000000001000000000000"
        "444036486018f7905240723d0ad7a370cd3f0400000064617665"));
  }
}

// A format-2 directory restores byte-identically, moves its rows onto
// sealed segments, and keeps every row after three format-3
// checkpoints prune both format-2 generations.
TEST(SnapshotLadderTest, VersionTwoDirectoryUpgradesAndSurvivesPruning) {
  const std::string path = TempPath("nimbus_ladder_v2.waj");
  WriteVersionTwoDirectory(path, /*with_live_segment=*/true);
  const std::string expected = LegacyCsv(std::size(kLegacySales));

  Marketplace restored = MakeMarket(17);
  Marketplace::RestoreReport report;
  Status status = restored.RestoreFromCheckpoint(
      path, Marketplace::RestoreOptions{}, &report);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(report.source, Marketplace::RestoreReport::Source::kSnapshot);
  EXPECT_EQ(report.generation, 3);
  EXPECT_EQ(report.snapshot_records, 9);
  EXPECT_EQ(report.tail_records, 2);
  EXPECT_EQ(restored.ledger().ToCsv(), expected);
  // Rows [0, 7) moved into the first sealed segment; `.prev` is gone.
  EXPECT_EQ(Journal::SealedSegments(path), std::vector<int64_t>{0});
  EXPECT_FALSE(FileExists(path + ".prev"));

  ASSERT_TRUE(restored.EnableCheckpoints(CheckpointPolicy{}).ok());
  for (int64_t generation = 4; generation <= 6; ++generation) {
    ASSERT_TRUE(restored
                    .Buy("gina", ml::ModelKind::kLinearSvm,
                         3.0 + static_cast<double>(generation), "zero_one")
                    .ok());
    ASSERT_EQ(*restored.CheckpointNow(), generation);
  }
  ASSERT_EQ(snapshot::ListGenerations(path), (std::vector<int64_t>{6, 5}));
  const std::string csv = restored.ledger().ToCsv();
  EXPECT_EQ(csv.rfind(expected, 0), 0u);

  for (const bool hydrate : {true, false}) {
    Marketplace again = MakeMarket(17);
    Marketplace::RestoreOptions options;
    options.hydrate = hydrate;
    ASSERT_TRUE(again.RestoreFromCheckpoint(path, options).ok());
    ASSERT_TRUE(again.HydrateLedger().ok());
    EXPECT_EQ(again.ledger().ToCsv(), csv) << "hydrate=" << hydrate;
  }
  RemoveRecoveryFilesOf(path);
}

// A format-2 directory caught between Rotate's two renames: no live
// segment, `.prev` holding the whole live history. It restores, and the
// upgrade seals `.prev` as it stands.
TEST(SnapshotLadderTest, VersionTwoRotationCrashWindowRestores) {
  const std::string path = TempPath("nimbus_ladder_v2_window.waj");
  WriteVersionTwoDirectory(path, /*with_live_segment=*/false);
  const std::string expected = LegacyCsv(9);  // Sales 9 and 10 never landed.

  Marketplace restored = MakeMarket(17);
  Marketplace::RestoreReport report;
  Status status = restored.RestoreFromCheckpoint(
      path, Marketplace::RestoreOptions{}, &report);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(report.generation, 3);
  EXPECT_EQ(report.tail_records, 0);
  EXPECT_EQ(restored.ledger().ToCsv(), expected);
  EXPECT_EQ(Journal::SealedSegments(path), (std::vector<int64_t>{0, 4}));
  EXPECT_FALSE(FileExists(path + ".prev"));

  ASSERT_TRUE(
      restored.Buy("gina", ml::ModelKind::kLinearSvm, 5.0, "zero_one").ok());
  ASSERT_TRUE(restored.FlushJournal().ok());
  Marketplace again = MakeMarket(17);
  ASSERT_TRUE(again.RestoreFromCheckpoint(path).ok());
  EXPECT_EQ(again.ledger().ToCsv(), restored.ledger().ToCsv());
  RemoveRecoveryFilesOf(path);
}

}  // namespace
}  // namespace nimbus::market
