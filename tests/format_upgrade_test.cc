#include "market/format_upgrade.h"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
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
#include "market/snapshot.h"

// Files written by earlier builds — version-1 and -2 snapshots, the
// rotating journal's `.prev`, J1 segment headers — restore through the
// upgrader, which converts them once before the recovery ladder reads
// them. The hex images are byte-for-byte what those builds wrote.

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

bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
}

std::string FromHex(const std::string& hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes += static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16));
  }
  return bytes;
}

void RemoveRecoveryFilesOf(const std::string& journal_path) {
  for (const std::string& file : RecoveryFiles(journal_path)) {
    std::remove(file.c_str());
  }
}

// Every file of the journal's family, by name, with its CRC.
std::map<std::string, uint32_t> FileCrcs(const std::string& journal_path) {
  std::map<std::string, uint32_t> crcs;
  for (const std::string& file : RecoveryFiles(journal_path)) {
    const std::string bytes = ReadFileBytes(file);
    crcs[file] = Journal::Crc32(bytes.data(), bytes.size());
  }
  return crcs;
}

// ---------------------------------------------------------------------------
// Single legacy images, upgraded in a directory whose live segment starts
// at the image's sequence: the image's LEDG rows are the rows below it.

// The state every legacy sample image below holds.
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

// The entry log (LEDG) of the sample images.
std::vector<LedgerEntry> SampleRows() {
  std::vector<LedgerEntry> rows;
  for (int i = 0; i < 4; ++i) {
    LedgerEntry entry;
    entry.sequence = i;
    entry.buyer_id = i % 2 == 0 ? "alice" : "bob,\"evil\"\nid";
    entry.model = i % 2 == 0 ? ml::ModelKind::kLogisticRegression
                             : ml::ModelKind::kLinearSvm;
    entry.inverse_ncp = 2.0 * (1 + i % 2);
    entry.price = i % 2 == 0 ? 11.0 : 17.875;
    entry.expected_error = 0.25 / (1 + i);
    rows.push_back(std::move(entry));
  }
  return rows;
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

// `image` as generation 3, over an empty live segment at its sequence.
void WriteImageDirectory(const std::string& journal_path,
                         const std::string& image) {
  RemoveRecoveryFilesOf(journal_path);
  WriteFileBytes(snapshot::SnapshotPath(journal_path, 3), image);
  WriteFileBytes(journal_path, Journal::EncodeSegment(4, {}));
}

// A legacy image that decodes: its rows land in the first sealed
// segment and it becomes a version-3 image of the same state.
void ExpectUpgradedToVersionThree(const std::string& journal_path) {
  ASSERT_TRUE(UpgradeLegacyFormat(journal_path, {3}).ok());
  const std::string file = snapshot::SnapshotPath(journal_path, 3);
  StatusOr<snapshot::State> back = snapshot::Read(file);
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectSameAggregates(SampleState(), *back);
  const std::string image = ReadFileBytes(file);
  EXPECT_EQ(image.find("LEDG"), std::string::npos);
  EXPECT_EQ(image.find("BRKR"), std::string::npos);
  EXPECT_EQ(Journal::SealedSegments(journal_path), std::vector<int64_t>{0});
  StatusOr<std::vector<LedgerEntry>> rows = Journal::ReadRange(journal_path, 0);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ExpectSameEntries(SampleRows(), *rows);
}

// A legacy image that does not decode is left as it is, and so is the
// journal: snapshot::Read rejects the image and the ladder falls back.
void ExpectLeftForReadToReject(const std::string& journal_path,
                               const std::string& damaged,
                               const std::string& what) {
  WriteImageDirectory(journal_path, damaged);
  const std::map<std::string, uint32_t> before = FileCrcs(journal_path);
  ASSERT_TRUE(UpgradeLegacyFormat(journal_path, {3}).ok()) << what;
  EXPECT_EQ(FileCrcs(journal_path), before) << what;
  EXPECT_FALSE(snapshot::Read(snapshot::SnapshotPath(journal_path, 3)).ok())
      << "read accepted " << what;
}

// A version-1 image upgrades, its BRKR section dropped. The section is
// still CRC-checked first: a flip in its payload leaves the image in
// place.
TEST(FormatUpgradeTest, UpgradesVersionOneImageAndDropsBrokerSection) {
  const std::string path = TempPath("nimbus_upgrade_v1.waj");
  const std::string bytes = VersionOneSampleImage();
  ASSERT_EQ(bytes.size(), 727u);
  WriteImageDirectory(path, bytes);
  ExpectUpgradedToVersionThree(path);

  const size_t brkr = bytes.find("BRKR");
  ASSERT_NE(brkr, std::string::npos);
  std::string corrupted = bytes;
  const size_t payload = brkr + 20;  // Past tag, flags, length and CRC.
  corrupted[payload] = static_cast<char>(corrupted[payload] ^ 0x01);
  ExpectLeftForReadToReject(path, corrupted, "a BRKR flip");
  RemoveRecoveryFilesOf(path);
}

// A version-2 image upgrades with its LEDG entry log; a flip in the rows
// leaves it in place.
TEST(FormatUpgradeTest, UpgradesVersionTwoImageAndMovesItsEntryLog) {
  const std::string path = TempPath("nimbus_upgrade_v2.waj");
  const std::string bytes = VersionTwoSampleImage();
  ASSERT_EQ(bytes.size(), 645u);
  WriteImageDirectory(path, bytes);
  ExpectUpgradedToVersionThree(path);

  const size_t ledg = bytes.find("LEDG");
  ASSERT_NE(ledg, std::string::npos);
  std::string corrupted = bytes;
  const size_t payload = ledg + 40;  // Inside the first row.
  corrupted[payload] = static_cast<char>(corrupted[payload] ^ 0x01);
  ExpectLeftForReadToReject(path, corrupted, "a LEDG flip");
  RemoveRecoveryFilesOf(path);
}

// Property: the version-2 image truncated at ANY byte offset is left in
// place and rejected. No prefix of a valid image is a valid image.
TEST(FormatUpgradeTest, VersionTwoImageTruncatedAtEveryByteIsRejected) {
  const std::string path = TempPath("nimbus_upgrade_v2_trunc.waj");
  const std::string bytes = VersionTwoSampleImage();
  for (size_t length = 0; length < bytes.size(); ++length) {
    ExpectLeftForReadToReject(path, bytes.substr(0, length),
                              "a cut at byte " + std::to_string(length));
  }
  RemoveRecoveryFilesOf(path);
}

// Property: the version-2 image with one bit flipped anywhere is left in
// place and rejected — payloads and headers are all CRC-covered, and the
// footer cross-checks the headers.
TEST(FormatUpgradeTest, VersionTwoImageBitFlipAtEveryByteIsRejected) {
  const std::string path = TempPath("nimbus_upgrade_v2_flip.waj");
  const std::string bytes = VersionTwoSampleImage();
  for (size_t offset = 0; offset < bytes.size(); ++offset) {
    std::string corrupted = bytes;
    corrupted[offset] = static_cast<char>(corrupted[offset] ^ 0x40);
    ExpectLeftForReadToReject(path, corrupted,
                              "a flip at byte " + std::to_string(offset));
  }
  RemoveRecoveryFilesOf(path);
}

// ---------------------------------------------------------------------------
// Whole directories, restored through the marketplace.

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
TEST(FormatUpgradeTest, VersionTwoDirectoryUpgradesAndSurvivesPruning) {
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
TEST(FormatUpgradeTest, VersionTwoRotationCrashWindowRestores) {
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

// The upgrade's crash window: it stops after the rows land in the first
// sealed segment and before the version-2 snapshots are rewritten. The
// restore fails typed, and the next one finishes the conversion.
TEST(FormatUpgradeTest, UpgradeStoppedBeforeSnapshotRewriteFinishesNextRestore) {
  const std::string path = TempPath("nimbus_upgrade_crash.waj");
  WriteVersionTwoDirectory(path, /*with_live_segment=*/true);

  Marketplace crashed = MakeMarket(17);
  ASSERT_TRUE(fault::Configure("snapshot.rename:1:*").ok());
  const Status status = crashed.RestoreFromCheckpoint(path);
  fault::Reset();
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status;
  EXPECT_NE(status.message().find("snapshot.rename"), std::string::npos)
      << status;
  EXPECT_EQ(crashed.ledger().size(), 0);
  EXPECT_EQ(Journal::SealedSegments(path), std::vector<int64_t>{0});
  EXPECT_TRUE(FileExists(path + ".prev"));
  EXPECT_FALSE(snapshot::Read(snapshot::SnapshotPath(path, 3)).ok());

  Marketplace restored = MakeMarket(17);
  Marketplace::RestoreReport report;
  ASSERT_TRUE(restored
                  .RestoreFromCheckpoint(path, Marketplace::RestoreOptions{},
                                         &report)
                  .ok());
  EXPECT_EQ(report.generation, 3);
  EXPECT_EQ(restored.ledger().ToCsv(), LegacyCsv(std::size(kLegacySales)));
  EXPECT_FALSE(FileExists(path + ".prev"));
  EXPECT_TRUE(snapshot::Read(snapshot::SnapshotPath(path, 2)).ok());
  RemoveRecoveryFilesOf(path);
}

// The upgrade is idempotent: restoring an upgraded directory again, or
// running the upgrade on it alone, changes no byte of any file.
TEST(FormatUpgradeTest, RestoringAnUpgradedDirectoryChangesNoByte) {
  const std::string path = TempPath("nimbus_upgrade_idempotent.waj");
  WriteVersionTwoDirectory(path, /*with_live_segment=*/true);
  const std::string expected = LegacyCsv(std::size(kLegacySales));
  {
    Marketplace first = MakeMarket(17);
    ASSERT_TRUE(first.RestoreFromCheckpoint(path).ok());
    EXPECT_EQ(first.ledger().ToCsv(), expected);
  }
  const std::map<std::string, uint32_t> upgraded = FileCrcs(path);
  {
    Marketplace again = MakeMarket(17);
    ASSERT_TRUE(again.RestoreFromCheckpoint(path).ok());
    EXPECT_EQ(again.ledger().ToCsv(), expected);
  }
  EXPECT_EQ(FileCrcs(path), upgraded);
  ASSERT_TRUE(UpgradeLegacyFormat(path, snapshot::ListGenerations(path)).ok());
  EXPECT_EQ(FileCrcs(path), upgraded);
  RemoveRecoveryFilesOf(path);
}

// Sets `image`'s LEDG row count to `count` and re-seals its CRCs, so the
// framing stays valid and only the count lies.
std::string WithLedgCount(std::string image, int64_t count) {
  const size_t ledg = image.find("LEDG");
  uint64_t len = 0;
  std::memcpy(&len, &image[ledg + 8], sizeof(len));
  std::memcpy(&image[ledg + 20], &count, sizeof(count));
  const uint32_t crc = Journal::Crc32(&image[ledg + 20], len);
  std::memcpy(&image[ledg + 16], &crc, sizeof(crc));
  // FOOT's table ends with LEDG's (tag, offset, len, crc) entry.
  std::memcpy(&image[image.size() - sizeof(crc)], &crc, sizeof(crc));
  const size_t foot = image.rfind("FOOT");
  std::memcpy(&len, &image[foot + 8], sizeof(len));
  const uint32_t foot_crc = Journal::Crc32(&image[foot + 20], len);
  std::memcpy(&image[foot + 16], &foot_crc, sizeof(foot_crc));
  return image;
}

// A LEDG count no payload could hold (2^40 rows) is refused before any
// allocation: that rung falls back, and with no rung left restore
// returns a typed Status instead of dying on the allocation.
TEST(FormatUpgradeTest, LedgCountBeyondItsBytesFallsBackARung) {
  const std::string path = TempPath("nimbus_upgrade_ledg_count.waj");
  WriteVersionTwoDirectory(path, /*with_live_segment=*/true);
  const int64_t huge = int64_t{1} << 40;
  const std::string newest = snapshot::SnapshotPath(path, 3);
  WriteFileBytes(newest, WithLedgCount(ReadFileBytes(newest), huge));
  ASSERT_TRUE(snapshot::ReadSections(newest).ok());

  Marketplace restored = MakeMarket(17);
  Marketplace::RestoreReport report;
  Status status = restored.RestoreFromCheckpoint(
      path, Marketplace::RestoreOptions{}, &report);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(report.source,
            Marketplace::RestoreReport::Source::kPreviousSnapshot);
  EXPECT_EQ(report.generation, 2);
  EXPECT_EQ(restored.ledger().ToCsv(), LegacyCsv(std::size(kLegacySales)));

  WriteVersionTwoDirectory(path, /*with_live_segment=*/true);
  for (const int64_t generation : {2, 3}) {
    const std::string file = snapshot::SnapshotPath(path, generation);
    WriteFileBytes(file, WithLedgCount(ReadFileBytes(file), huge));
  }
  Marketplace stranded = MakeMarket(17);
  status = stranded.RestoreFromCheckpoint(path);
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status;
  EXPECT_EQ(stranded.ledger().size(), 0);
  RemoveRecoveryFilesOf(path);
}

// A directory written by the build before this format (snapshot version
// 3 over sealed segments, the first of them with the J1 header), with
// checkpoints at 4, 7 and 9 over the legacy sales.
void WriteJ1ChainDirectory(const std::string& journal_path) {
  RemoveRecoveryFilesOf(journal_path);
  WriteFileBytes(Journal::SealedSegmentPath(journal_path, 0), FromHex(
      "4e494d4255534a312a000000a39beab300000000000000000100000000000024"
      "407041eaf18bee4640660bc2a8d93fcf3f05000000616c6963652a0000004d1f"
      "d31201000000000000000100000000000024407041eaf18bee4640660bc2a8d9"
      "3fcf3f05000000616c6963653200000074fb6dbb020000000000000002000000"
      "000000144074854c9337a53e40b821175ff4a7d23f0d000000626f622c226576"
      "696c220a69642a0000006bbe50b8030000000000000002000000000000394013"
      "73c9e45ab34f405dfccfd6107ece3f050000006361726f6c"));
  WriteFileBytes(Journal::SealedSegmentPath(journal_path, 4), FromHex(
      "4e494d4255534a32040000000000000093d168e12a000000e147895d04000000"
      "0000000002000000000000144074854c9337a53e40b821175ff4a7d23f050000"
      "00616c69636529000000dd6c583505000000000000000100000000000000402a"
      "d1d6752c842840ead6520a0de8d03f04000000646176652a000000fe231cf006"
      "000000000000000200000000000039401373c9e45ab34f405dfccfd6107ece3f"
      "050000006361726f6c"));
  WriteFileBytes(Journal::SealedSegmentPath(journal_path, 7), FromHex(
      "4e494d4255534a32070000000000000070d6e76f290000001161bf5d07000000"
      "000000000100000000000024407041eaf18bee4640660bc2a8d93fcf3f040000"
      "006572696e2a00000014af71ba08000000000000000100000000000024407041"
      "eaf18bee4640660bc2a8d93fcf3f05000000616c696365"));
  WriteFileBytes(journal_path, FromHex(
      "4e494d4255534a32090000000000000042c46d7a2a0000008d10bd4209000000"
      "0000000002000000000000144074854c9337a53e40b821175ff4a7d23f050000"
      "006672616e6b290000000a2f78ed0a0000000000000001000000000000444036"
      "486018f7905240723d0ad7a370cd3f0400000064617665"));
  WriteFileBytes(snapshot::SnapshotPath(journal_path, 2), FromHex(
      "4e494d42555353314d4554410000000014000000000000003dfa192d03000000"
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
      "e45ab35f40464f4f54000000004c00000000000000d4a5e7a3030000004d4554"
      "41080000000000000014000000000000003dfa192d4147475230000000000000"
      "00c700000000000000897e0c6b434f4c4c0b01000000000000a6000000000000"
      "00cb80c404"));
  WriteFileBytes(snapshot::SnapshotPath(journal_path, 3), FromHex(
      "4e494d42555353314d4554410000000014000000000000009e79fb9603000000"
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
      "0000000000000049401373c9e45ab35f40464f4f54000000004c000000000000"
      "0044605a04030000004d455441080000000000000014000000000000009e79fb"
      "96414747523000000000000000d700000000000000f187e2b1434f4c4c1b0100"
      "0000000000c200000000000000670d86e2"));
  WriteFileBytes(snapshot::ManifestPath(journal_path), FromHex(
      "4e494d4255534d310a67656e65726174696f6e20330a73657175656e63652039"
      "0a707265765f67656e65726174696f6e20320a707265765f73657175656e6365"
      "20370a637263203338323633373736330a"));
}

// The previous build's directory restores byte-identically, and every
// segment it leaves starts with the J2 header; the J1 segment keeps its
// records byte for byte, and the version-3 snapshots are not touched.
TEST(FormatUpgradeTest, J1ChainDirectoryRestoresWithJ2HeadersOnly) {
  const std::string path = TempPath("nimbus_upgrade_j1_chain.waj");
  WriteJ1ChainDirectory(path);
  const std::string seg0 = Journal::SealedSegmentPath(path, 0);
  const std::string j1_records = ReadFileBytes(seg0).substr(8);
  const std::string gen3 = ReadFileBytes(snapshot::SnapshotPath(path, 3));

  Marketplace restored = MakeMarket(17);
  Marketplace::RestoreReport report;
  Status status = restored.RestoreFromCheckpoint(
      path, Marketplace::RestoreOptions{}, &report);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(report.source, Marketplace::RestoreReport::Source::kSnapshot);
  EXPECT_EQ(report.generation, 3);
  EXPECT_EQ(report.snapshot_records, 9);
  EXPECT_EQ(report.tail_records, 2);
  EXPECT_EQ(restored.ledger().ToCsv(), LegacyCsv(std::size(kLegacySales)));

  ASSERT_EQ(Journal::SealedSegments(path), (std::vector<int64_t>{0, 4, 7}));
  for (const std::string& segment :
       {path, seg0, Journal::SealedSegmentPath(path, 4),
        Journal::SealedSegmentPath(path, 7)}) {
    EXPECT_EQ(ReadFileBytes(segment).substr(0, 8), "NIMBUSJ2") << segment;
  }
  EXPECT_EQ(ReadFileBytes(seg0).substr(20), j1_records);
  EXPECT_EQ(ReadFileBytes(snapshot::SnapshotPath(path, 3)), gen3);
  RemoveRecoveryFilesOf(path);
}

// A journal the previous build never sealed is one J1 file: the live
// segment with the bare 8-byte magic (the record framing is the same).
// It restores by full replay and is re-headed in place.
TEST(FormatUpgradeTest, J1LiveJournalRestoresByFullReplay) {
  const std::string path = TempPath("nimbus_upgrade_j1_live.waj");
  RemoveRecoveryFilesOf(path);
  {
    Marketplace market = MakeMarket(17);
    ASSERT_TRUE(market.EnableJournal(path).ok());
    for (const LegacySale& sale : kLegacySales) {
      ASSERT_TRUE(market.Buy(sale.buyer, sale.model, sale.x, "zero_one").ok());
    }
  }
  const std::string records = ReadFileBytes(path).substr(20);
  WriteFileBytes(path, "NIMBUSJ1" + records);

  Marketplace restored = MakeMarket(17);
  Marketplace::RestoreReport report;
  ASSERT_TRUE(restored
                  .RestoreFromCheckpoint(path, Marketplace::RestoreOptions{},
                                         &report)
                  .ok());
  EXPECT_EQ(report.source, Marketplace::RestoreReport::Source::kFullReplay);
  EXPECT_EQ(restored.ledger().ToCsv(), LegacyCsv(std::size(kLegacySales)));
  const std::string live = ReadFileBytes(path);
  EXPECT_EQ(live.substr(0, 8), "NIMBUSJ2");
  EXPECT_EQ(live.substr(20), records);
  RemoveRecoveryFilesOf(path);
}

}  // namespace
}  // namespace nimbus::market
