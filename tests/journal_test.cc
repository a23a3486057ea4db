#include "market/journal.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <unistd.h>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/random.h"
#include "common/telemetry.h"
#include "data/synthetic.h"
#include "market/checkpointer.h"
#include "market/curves.h"
#include "market/ledger.h"
#include "market/market_simulator.h"
#include "market/marketplace.h"

namespace nimbus::market {
namespace {

std::string TempPath(const std::string& name) {
  // Process-unique so concurrent runs of this binary never clobber each
  // other's files.
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

std::vector<LedgerEntry> SampleEntries() {
  std::vector<LedgerEntry> entries;
  const char* buyers[] = {"alice", "bob,\"evil\"\nid", "carol", "dave",
                          "alice"};
  const double prices[] = {10.0, 30.5, 5.25, 30.5, 12.0};
  const double xs[] = {2.0, 4.0, 1.0, 4.0, 2.0};
  for (int i = 0; i < 5; ++i) {
    LedgerEntry e;
    e.sequence = i;
    e.buyer_id = buyers[i];
    e.model = i % 2 == 0 ? ml::ModelKind::kLogisticRegression
                         : ml::ModelKind::kLinearSvm;
    e.inverse_ncp = xs[i];
    e.price = prices[i];
    e.expected_error = 0.1 * (i + 1);
    entries.push_back(std::move(e));
  }
  return entries;
}

// Deletes the journal and every sibling its seals and snapshots leave.
void RemoveJournalFiles(const std::string& path) {
  for (const std::string& file : RecoveryFiles(path)) {
    std::remove(file.c_str());
  }
}

void WriteJournalWith(const std::string& path,
                      const std::vector<LedgerEntry>& entries) {
  RemoveJournalFiles(path);
  StatusOr<Journal> journal = Journal::Open(path, Journal::Options{});
  ASSERT_TRUE(journal.ok()) << journal.status();
  for (const LedgerEntry& e : entries) {
    ASSERT_TRUE(journal->Append(e).ok());
  }
  ASSERT_TRUE(journal->Close().ok());
}

void ExpectSameEntry(const LedgerEntry& a, const LedgerEntry& b) {
  EXPECT_EQ(a.sequence, b.sequence);
  EXPECT_EQ(a.buyer_id, b.buyer_id);
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.inverse_ncp, b.inverse_ncp);  // Bit-identical doubles.
  EXPECT_EQ(a.price, b.price);
  EXPECT_EQ(a.expected_error, b.expected_error);
}

// The segment header's size, read from the image: the 8-byte magic
// and, after "NIMBUSJ2", the base sequence and its CRC.
size_t SegmentHeaderBytes(const std::string& bytes) {
  return bytes.rfind("NIMBUSJ2", 0) == 0 ? 20 : 8;
}

// Byte offsets (and total spans) of each record in a journal image,
// derived from the length prefixes; used to aim corruption precisely.
std::vector<std::pair<size_t, size_t>> RecordSpans(const std::string& bytes) {
  std::vector<std::pair<size_t, size_t>> spans;
  size_t offset = SegmentHeaderBytes(bytes);
  while (offset + 8 <= bytes.size()) {
    uint32_t length = 0;
    std::memcpy(&length, bytes.data() + offset, sizeof(length));
    spans.emplace_back(offset, 8 + static_cast<size_t>(length));
    offset += 8 + length;
  }
  EXPECT_EQ(offset, bytes.size()) << "journal fixture has a partial record";
  return spans;
}

TEST(JournalTest, AppendReplayRoundTrip) {
  const std::string path = TempPath("nimbus_journal_roundtrip.waj");
  const std::vector<LedgerEntry> entries = SampleEntries();
  WriteJournalWith(path, entries);

  Journal::RecoveryReport report;
  StatusOr<std::vector<LedgerEntry>> back = Journal::Replay(path, &report);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    ExpectSameEntry((*back)[i], entries[i]);
  }
  EXPECT_EQ(report.tail, Journal::TailState::kClean);
  EXPECT_EQ(report.recovered_records, 5);
  EXPECT_EQ(report.dropped_bytes, 0);
  std::remove(path.c_str());
}

TEST(JournalTest, ReopenAppendsAfterExistingRecords) {
  const std::string path = TempPath("nimbus_journal_reopen.waj");
  std::vector<LedgerEntry> entries = SampleEntries();
  WriteJournalWith(path, entries);
  {
    StatusOr<Journal> journal = Journal::Open(path, Journal::Options{});
    ASSERT_TRUE(journal.ok());
    LedgerEntry extra;
    extra.sequence = 5;
    extra.buyer_id = "erin";
    extra.inverse_ncp = 8.0;
    extra.price = 64.0;
    ASSERT_TRUE(journal->Append(extra).ok());
    ASSERT_TRUE(journal->Close().ok());
    entries.push_back(extra);
  }
  StatusOr<std::vector<LedgerEntry>> back = Journal::Replay(path);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 6u);
  ExpectSameEntry(back->back(), entries.back());
  std::remove(path.c_str());
}

TEST(JournalTest, RejectsForeignAndMissingFiles) {
  const std::string path = TempPath("nimbus_journal_foreign.waj");
  WriteFileBytes(path, "this is certainly not a journal file, honest\n");
  EXPECT_EQ(Journal::Replay(path).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Journal::Open(path, Journal::Options{}).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
  EXPECT_EQ(Journal::Replay(path).status().code(), StatusCode::kNotFound);
}

// The central crash-safety property: a journal truncated at EVERY byte
// offset replays the longest valid record prefix without ever crashing
// or erroring, and truncating the torn tail leaves an append-clean file.
TEST(JournalTest, TruncationAtEveryByteOffsetRecoversLongestPrefix) {
  const std::string gold_path = TempPath("nimbus_journal_gold.waj");
  const std::vector<LedgerEntry> entries = SampleEntries();
  WriteJournalWith(gold_path, entries);
  const std::string bytes = ReadFileBytes(gold_path);
  const std::vector<std::pair<size_t, size_t>> spans = RecordSpans(bytes);
  ASSERT_EQ(spans.size(), entries.size());

  const std::string path = TempPath("nimbus_journal_torn.waj");
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    WriteFileBytes(path, bytes.substr(0, cut));
    Journal::RecoveryReport report;
    StatusOr<std::vector<LedgerEntry>> back = Journal::Replay(path, &report);
    ASSERT_TRUE(back.ok()) << "cut at byte " << cut << ": " << back.status();

    // How many whole records fit below the cut.
    size_t expect = 0;
    while (expect < spans.size() &&
           spans[expect].first + spans[expect].second <= cut) {
      ++expect;
    }
    ASSERT_EQ(back->size(), expect) << "cut at byte " << cut;
    for (size_t i = 0; i < expect; ++i) {
      ExpectSameEntry((*back)[i], entries[i]);
    }
    // An empty file is a clean fresh journal; otherwise clean means the
    // cut landed exactly on the header or a record boundary.
    const bool on_boundary =
        cut == 0 || cut == bytes.size() ||
        (cut >= 8 && expect < spans.size() && cut == spans[expect].first);
    EXPECT_EQ(report.tail == Journal::TailState::kClean, on_boundary)
        << "cut at byte " << cut;
    EXPECT_EQ(report.dropped_bytes,
              static_cast<int64_t>(cut) - report.valid_bytes);

    // Default replay truncates the torn tail: the file must now be
    // append-clean and replay to the same prefix.
    Journal::RecoveryReport clean_report;
    StatusOr<std::vector<LedgerEntry>> again =
        Journal::Replay(path, &clean_report);
    ASSERT_TRUE(again.ok()) << "cut at byte " << cut;
    EXPECT_EQ(again->size(), expect);
    EXPECT_EQ(clean_report.tail, Journal::TailState::kClean)
        << "cut at byte " << cut << ": " << clean_report.detail;
  }
  std::remove(path.c_str());
  std::remove(gold_path.c_str());
}

// The bit-rot property: flipping a payload byte (or the stored CRC) of
// ANY record yields the prefix before that record, a precise diagnosis,
// and — unlike torn tails — no destructive truncation.
TEST(JournalTest, CrcFlipOnEveryRecordRecoversPrefixAndDiagnoses) {
  const std::string gold_path = TempPath("nimbus_journal_gold2.waj");
  const std::vector<LedgerEntry> entries = SampleEntries();
  WriteJournalWith(gold_path, entries);
  const std::string bytes = ReadFileBytes(gold_path);
  const std::vector<std::pair<size_t, size_t>> spans = RecordSpans(bytes);

  const std::string path = TempPath("nimbus_journal_rot.waj");
  for (size_t r = 0; r < spans.size(); ++r) {
    for (const size_t victim :
         {spans[r].first + 4 /* stored CRC */,
          spans[r].first + 8 /* first payload byte */,
          spans[r].first + spans[r].second - 1 /* last payload byte */}) {
      std::string rotten = bytes;
      rotten[victim] = static_cast<char>(rotten[victim] ^ 0x40);
      WriteFileBytes(path, rotten);

      Journal::RecoveryReport report;
      StatusOr<std::vector<LedgerEntry>> back = Journal::Replay(path, &report);
      ASSERT_TRUE(back.ok()) << "record " << r << " byte " << victim;
      ASSERT_EQ(back->size(), r) << "record " << r << " byte " << victim;
      for (size_t i = 0; i < r; ++i) {
        ExpectSameEntry((*back)[i], entries[i]);
      }
      EXPECT_EQ(report.tail, Journal::TailState::kCorrupt);
      EXPECT_NE(report.detail.find("record " + std::to_string(r)),
                std::string::npos)
          << report.detail;
      // Corruption is evidence, not a crash artifact: never auto-pruned.
      EXPECT_EQ(ReadFileBytes(path).size(), bytes.size());

      // Strict replay surfaces the same diagnosis as a Status.
      Journal::ReplayOptions strict;
      strict.strict = true;
      const Status status =
          Journal::Replay(path, nullptr, strict).status();
      EXPECT_EQ(status.code(), StatusCode::kInternal);
      EXPECT_NE(status.message().find("corrupt"), std::string::npos);
    }
  }
  std::remove(path.c_str());
  std::remove(gold_path.c_str());
}

TEST(JournalTest, ImplausibleLengthIsCorruptNotAllocated) {
  const std::string path = TempPath("nimbus_journal_length.waj");
  const std::vector<LedgerEntry> entries = SampleEntries();
  WriteJournalWith(path, entries);
  std::string bytes = ReadFileBytes(path);
  // Stamp a ~4 GiB length into the first record's prefix.
  const uint32_t huge = 0xFFFFFF00u;
  std::memcpy(&bytes[SegmentHeaderBytes(bytes)], &huge, sizeof(huge));
  WriteFileBytes(path, bytes);
  Journal::RecoveryReport report;
  StatusOr<std::vector<LedgerEntry>> back = Journal::Replay(path, &report);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
  EXPECT_EQ(report.tail, Journal::TailState::kCorrupt);
  EXPECT_NE(report.detail.find("implausible"), std::string::npos);
  std::remove(path.c_str());
}

TEST(LedgerJournalTest, WriteThroughThenRecoverIsBitIdentical) {
  const std::string path = TempPath("nimbus_ledger_journal.waj");
  std::remove(path.c_str());

  Ledger live;
  {
    StatusOr<Journal> journal = Journal::Open(path, Journal::Options{});
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(
        live.AttachJournal(std::make_unique<Journal>(*std::move(journal)))
            .ok());
    EXPECT_TRUE(live.journaling());
  }
  for (const LedgerEntry& e : SampleEntries()) {
    ASSERT_TRUE(live.Record(e.buyer_id, e.model, e.inverse_ncp, e.price,
                            e.expected_error)
                    .ok());
  }
  ASSERT_TRUE(live.DetachJournal()->Close().ok());

  StatusOr<std::vector<LedgerEntry>> replayed = Journal::Replay(path);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  StatusOr<Ledger> recovered = Ledger::FromEntries(*replayed);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->size(), live.size());
  EXPECT_EQ(recovered->TotalRevenue(), live.TotalRevenue());
  EXPECT_EQ(recovered->SalesPerPricePoint(), live.SalesPerPricePoint());
  EXPECT_EQ(recovered->TopBuyers(10), live.TopBuyers(10));
  EXPECT_EQ(recovered->ToCsv(), live.ToCsv());
  EXPECT_FALSE(recovered->journaling());
  std::remove(path.c_str());
}

TEST(LedgerJournalTest, FailedAppendLeavesLedgerUntouched) {
  fault::Reset();
  const std::string path = TempPath("nimbus_ledger_faulted.waj");
  std::remove(path.c_str());
  Ledger ledger;
  StatusOr<Journal> journal = Journal::Open(path, Journal::Options{});
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE(
      ledger.AttachJournal(std::make_unique<Journal>(*std::move(journal)))
          .ok());

  ASSERT_TRUE(fault::Configure("journal.append:1").ok());
  const Status failed =
      ledger.Record("alice", ml::ModelKind::kLinearSvm, 2.0, 10.0, 0.1)
          .status();
  fault::Reset();
  EXPECT_EQ(failed.code(), StatusCode::kInternal);
  // Durability-first: the rejected sale is in neither the ledger...
  EXPECT_EQ(ledger.size(), 0);
  EXPECT_EQ(ledger.TotalRevenue(), 0.0);
  // ...nor the journal, and the next sale lands cleanly as sequence 0.
  ASSERT_TRUE(
      ledger.Record("bob", ml::ModelKind::kLinearSvm, 2.0, 10.0, 0.1).ok());
  ASSERT_TRUE(ledger.DetachJournal()->Close().ok());
  StatusOr<std::vector<LedgerEntry>> replayed = Journal::Replay(path);
  ASSERT_TRUE(replayed.ok());
  StatusOr<Ledger> recovered = Ledger::FromEntries(*replayed);
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(recovered->size(), 1);
  EXPECT_EQ(recovered->entries()[0].buyer_id, "bob");
  EXPECT_EQ(recovered->entries()[0].sequence, 0);
  std::remove(path.c_str());
}

TEST(LedgerCsvTest, HostileBuyerIdsRoundTripThroughCsv) {
  Ledger ledger;
  const std::vector<std::string> hostile = {
      "plain",
      "comma,inside",
      "quote\"inside",
      "mallory\",,\"0",
      "multi\nline",
      "crlf\r\nid",
      "9,evil_model,1,1000000,0",
  };
  for (size_t i = 0; i < hostile.size(); ++i) {
    ASSERT_TRUE(ledger
                    .Record(hostile[i], ml::ModelKind::kLinearRegression,
                            1.0 + static_cast<double>(i), 10.0, 0.5)
                    .ok());
  }
  const std::string csv = ledger.ToCsv();
  // The forged-row id must survive as data, not as an audit row.
  EXPECT_NE(csv.find("\"9,evil_model,1,1000000,0\""), std::string::npos);

  StatusOr<Ledger> back = Ledger::FromCsv(csv);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->size(), ledger.size());
  for (size_t i = 0; i < hostile.size(); ++i) {
    EXPECT_EQ(back->entries()[i].buyer_id, hostile[i]);
    EXPECT_EQ(back->entries()[i].inverse_ncp, ledger.entries()[i].inverse_ncp);
  }
  EXPECT_EQ(back->TotalRevenue(), ledger.TotalRevenue());
  EXPECT_EQ(back->ToCsv(), csv);

  // Unquoted injection attempts and malformed exports are rejected.
  EXPECT_FALSE(Ledger::FromCsv("no,header\n").ok());
  EXPECT_FALSE(
      Ledger::FromCsv("sequence,buyer,model,inverse_ncp,price,expected_error\n"
                      "0,alice,linear_regression,1,10\n")
          .ok());
  EXPECT_FALSE(
      Ledger::FromCsv("sequence,buyer,model,inverse_ncp,price,expected_error\n"
                      "0,\"open quote,linear_regression,1,10,0\n")
          .ok());
}

// Property test: randomized buyer ids drawn from an RFC-4180-hostile
// alphabet (quotes, commas, bare LF, CR, CRLF, quote runs) must survive
// ToCsv -> FromCsv byte-for-byte — every field equal AND the re-export
// identical down to the last byte, for every seed.
TEST(LedgerCsvTest, AdversarialRoundTripProperty) {
  const std::string alphabet = "ab,\"\n\r\"\",z";
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(1000 + seed);
    Ledger ledger;
    const int rows = 1 + static_cast<int>(rng.UniformInt(30));
    for (int i = 0; i < rows; ++i) {
      const int length = static_cast<int>(rng.UniformInt(12));
      std::string buyer = "b";  // Non-empty even when length == 0.
      for (int c = 0; c < length; ++c) {
        buyer += alphabet[rng.UniformInt(alphabet.size())];
      }
      const ml::ModelKind kind = rng.UniformInt(2) == 0
                                     ? ml::ModelKind::kLinearRegression
                                     : ml::ModelKind::kLinearSvm;
      // Full-precision doubles: round-trip must not lose a single bit.
      ASSERT_TRUE(ledger
                      .Record(buyer, kind, rng.Uniform(1.0, 100.0),
                              rng.Uniform(0.0, 1e6), rng.Uniform())
                      .ok());
    }
    const std::string csv = ledger.ToCsv();
    StatusOr<Ledger> back = Ledger::FromCsv(csv);
    ASSERT_TRUE(back.ok()) << "seed " << seed << ": " << back.status();
    ASSERT_EQ(back->size(), ledger.size()) << "seed " << seed;
    for (int64_t i = 0; i < ledger.size(); ++i) {
      ExpectSameEntry(back->entries()[i], ledger.entries()[i]);
    }
    EXPECT_EQ(back->ToCsv(), csv) << "seed " << seed;
  }
}

// Retry safety of the write-ahead path: when the append's fsync stage
// fails after the record was buffered, retrying the same sequence must
// not write the bytes twice. The skip-rewrite makes Ledger::Record +
// RetryWithBackoff safe to compose without duplicating audit rows.
TEST(JournalTest, AppendIsIdempotentPerSequenceAcrossFsyncRetries) {
  fault::Reset();
  const std::string path = TempPath("nimbus_journal_idempotent.waj");
  std::remove(path.c_str());
  Journal::Options options;
  options.fsync = Journal::FsyncPolicy::kEveryRecord;
  StatusOr<Journal> journal = Journal::Open(path, options);
  ASSERT_TRUE(journal.ok()) << journal.status();

  LedgerEntry entry = SampleEntries()[0];
  ASSERT_TRUE(fault::Configure("journal.fsync:1:1").ok());
  const Status failed = journal->Append(entry);
  fault::Reset();
  EXPECT_EQ(failed.code(), StatusCode::kInternal);
  // The retry must skip the rewrite (same sequence is still buffered)
  // and only redo the fsync.
  ASSERT_TRUE(journal->Append(entry).ok());
  // A different sequence afterwards appends normally.
  LedgerEntry next = SampleEntries()[1];
  ASSERT_TRUE(journal->Append(next).ok());
  ASSERT_TRUE(journal->Close().ok());

  StatusOr<std::vector<LedgerEntry>> back = Journal::Replay(path, nullptr);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->size(), 2u);  // No duplicate record 0.
  ExpectSameEntry((*back)[0], entry);
  ExpectSameEntry((*back)[1], next);
  std::remove(path.c_str());
}

// The idempotent retry must key on record identity, not the sequence
// number alone: when a caller abandons a buffered-but-unacknowledged
// record (retry budget exhausted) the ledger reuses its sequence for the
// next sale. Flushing the abandoned bytes as if they were the new sale
// would silently diverge journal and ledger — Append must refuse and
// poison instead.
TEST(JournalTest, ReusedSequenceWithDifferentPayloadPoisonsJournal) {
  fault::Reset();
  const std::string path = TempPath("nimbus_journal_reused_seq.waj");
  std::remove(path.c_str());
  Journal::Options options;
  options.fsync = Journal::FsyncPolicy::kEveryRecord;
  StatusOr<Journal> journal = Journal::Open(path, options);
  ASSERT_TRUE(journal.ok()) << journal.status();

  // The first sale buffers its bytes but is never acknowledged (every
  // fsync fails), so its caller eventually gives up.
  LedgerEntry abandoned = SampleEntries()[0];
  ASSERT_TRUE(fault::Configure("journal.fsync:1:*").ok());
  EXPECT_EQ(journal->Append(abandoned).code(), StatusCode::kInternal);
  EXPECT_EQ(journal->Append(abandoned).code(), StatusCode::kInternal);
  fault::Reset();

  // A different sale arriving under the reused sequence must fail
  // loudly, not return OK on the stale buffered record.
  LedgerEntry reused = SampleEntries()[1];
  reused.sequence = abandoned.sequence;
  EXPECT_EQ(journal->Append(reused).code(), StatusCode::kFailedPrecondition);
  // The buffer still holds the abandoned record, so the journal stays
  // poisoned — even the original entry is refused until recovery.
  EXPECT_EQ(journal->Append(abandoned).code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Marketplace-level recovery drills.

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
  EXPECT_TRUE(
      market.AddOffering(ml::ModelKind::kLinearSvm, 0.05, SomeMbpPricing())
          .ok());
  return market;
}

void RunSales(Marketplace& market) {
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(market
                    .Buy("carol", ml::ModelKind::kLogisticRegression, 10.0,
                         "zero_one")
                    .ok());
  }
  ASSERT_TRUE(
      market.Buy("dan,\"ltd\"", ml::ModelKind::kLinearSvm, 5.0, "zero_one")
          .ok());
  ASSERT_TRUE(
      market.Buy("erin", ml::ModelKind::kLinearSvm, 25.0, "zero_one").ok());
}

TEST(MarketplaceJournalTest, JournalingIsObservationOnlyAndRestores) {
  const std::string path = TempPath("nimbus_marketplace.waj");
  std::remove(path.c_str());

  // Reference run, no journal.
  Marketplace plain = MakeMarket(7);
  RunSales(plain);

  // Identical-seed run with write-ahead journaling enabled.
  Marketplace journaled = MakeMarket(7);
  ASSERT_TRUE(journaled.EnableJournal(path).ok());
  RunSales(journaled);

  // Journaling must not perturb the market: bit-identical output.
  EXPECT_EQ(journaled.total_revenue(), plain.total_revenue());
  EXPECT_EQ(journaled.ledger().ToCsv(), plain.ledger().ToCsv());

  // "Crash": drop the journaled marketplace, then rebuild a fresh one
  // with the same offering sequence and restore from the journal (no
  // snapshot exists, so the ladder replays the whole journal).
  const double pre_crash_revenue = journaled.total_revenue();
  const std::string pre_crash_csv = journaled.ledger().ToCsv();
  const auto pre_crash_sales = journaled.ledger().SalesPerPricePoint();
  const double journaled_svm_revenue =
      journaled.ledger().RevenueForModel(ml::ModelKind::kLinearSvm);
  { Marketplace dropped = std::move(journaled); }

  Marketplace restored = MakeMarket(7);
  ASSERT_TRUE(restored.RestoreFromCheckpoint(path).ok());
  EXPECT_EQ(restored.total_revenue(), pre_crash_revenue);
  EXPECT_EQ(restored.ledger().ToCsv(), pre_crash_csv);
  EXPECT_EQ(restored.ledger().SalesPerPricePoint(), pre_crash_sales);

  // The collusion monitors were rebuilt from the replayed history.
  StatusOr<const CollusionMonitor*> monitor =
      restored.MonitorFor(ml::ModelKind::kLogisticRegression);
  ASSERT_TRUE(monitor.ok());
  StatusOr<CollusionMonitor::Assessment> assessment =
      (*monitor)->Assess("carol");
  ASSERT_TRUE(assessment.ok());
  EXPECT_EQ(assessment->purchases, 4);

  // The per-offering books were recovered with the ledger.
  EXPECT_EQ(restored.ledger().RevenueForModel(ml::ModelKind::kLinearSvm),
            journaled_svm_revenue);
  EXPECT_EQ(std::count_if(restored.ledger().entries().begin(),
                          restored.ledger().entries().end(),
                          [](const LedgerEntry& entry) {
                            return entry.model == ml::ModelKind::kLinearSvm;
                          }),
            2);

  // New sales append after the recovered prefix with continuous
  // sequence numbers, and survive another recovery ("crash" again by
  // dropping the marketplace, which closes and flushes its journal).
  ASSERT_TRUE(
      restored.Buy("frank", ml::ModelKind::kLinearSvm, 25.0, "zero_one").ok());
  EXPECT_EQ(restored.ledger().entries().back().sequence, 6);
  const double final_revenue = restored.total_revenue();
  const std::string final_csv = restored.ledger().ToCsv();
  { Marketplace dropped = std::move(restored); }

  Marketplace restored2 = MakeMarket(7);
  ASSERT_TRUE(restored2.RestoreFromCheckpoint(path).ok());
  EXPECT_EQ(restored2.ledger().ToCsv(), final_csv);
  EXPECT_EQ(restored2.total_revenue(), final_revenue);
  std::remove(path.c_str());
}

TEST(MarketplaceJournalTest, RestoreRejectsUnknownOfferingsAndNonEmptyState) {
  const std::string path = TempPath("nimbus_marketplace_reject.waj");
  std::remove(path.c_str());
  {
    Marketplace market = MakeMarket(9);
    ASSERT_TRUE(market.EnableJournal(path).ok());
    RunSales(market);
  }
  // Restoring into a marketplace missing one of the journal's offerings
  // is a precondition failure, not silent data loss.
  Marketplace partial(ClassificationSplit(9), FastOptions());
  ASSERT_TRUE(partial
                  .AddOffering(ml::ModelKind::kLogisticRegression, 0.01,
                               SomeMbpPricing())
                  .ok());
  EXPECT_EQ(partial.RestoreFromCheckpoint(path).code(),
            StatusCode::kFailedPrecondition);

  // Restoring over sales already on the books is rejected too.
  Marketplace busy = MakeMarket(9);
  ASSERT_TRUE(
      busy.Buy("carol", ml::ModelKind::kLinearSvm, 5.0, "zero_one").ok());
  EXPECT_EQ(busy.RestoreFromCheckpoint(path).code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

// A sale the journal refuses is booked nowhere: not in the ledger, not
// in the collusion monitor (which the next snapshot would otherwise carry
// one sale ahead of the ledger), and not in ledger_sales_total.
TEST(MarketplaceJournalTest, FailedAppendLeavesLedgerAndMonitorUntouched) {
  const std::string path = TempPath("nimbus_marketplace_refused.waj");
  std::remove(path.c_str());
  Marketplace market = MakeMarket(11);
  ASSERT_TRUE(market.EnableJournal(path).ok());
  telemetry::Counter& svm_sales =
      telemetry::Registry::Global()
          .GetCounterVec("ledger_sales_total", "offering")
          .WithLabel(std::string(
              ml::ModelKindToString(ml::ModelKind::kLinearSvm)));
  const int64_t sales_before = svm_sales.Value();
  const CollusionMonitor* monitor =
      *market.MonitorFor(ml::ModelKind::kLinearSvm);

  fault::Reset();
  ASSERT_TRUE(fault::Configure("journal.append:1:2").ok());
  EXPECT_EQ(market.Buy("carol", ml::ModelKind::kLinearSvm, 5.0, "zero_one")
                .status()
                .code(),
            StatusCode::kInternal);
  EXPECT_EQ(market
                .BuyWithPriceBudget("carol", ml::ModelKind::kLinearSvm, 40.0,
                                    "zero_one")
                .status()
                .code(),
            StatusCode::kInternal);
  fault::Reset();
  EXPECT_EQ(market.ledger().size(), 0);
  EXPECT_EQ(market.total_revenue(), 0.0);
  EXPECT_EQ(monitor->history().size(), 0u);
  EXPECT_EQ(svm_sales.Value(), sales_before);

  // The next accepted sale is counted exactly once everywhere.
  ASSERT_TRUE(
      market.Buy("carol", ml::ModelKind::kLinearSvm, 5.0, "zero_one").ok());
  EXPECT_EQ(market.ledger().size(), 1);
  EXPECT_EQ(monitor->history().at("carol").purchases, 1);
  EXPECT_EQ(monitor->history().at("carol").total_paid, market.total_revenue());
  EXPECT_EQ(svm_sales.Value(), sales_before + 1);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Open-on-crashed-file regression: appending past a damaged tail would
// bury the damage behind fresh records, so Open must refuse loudly.

TEST(JournalTest, OpenOnTornTailFailsWithActionableError) {
  const std::string path = TempPath("nimbus_journal_open_torn.waj");
  WriteJournalWith(path, SampleEntries());
  const std::string bytes = ReadFileBytes(path);
  // Chop the last record in half: the classic crash-mid-append tail.
  const auto spans = RecordSpans(bytes);
  const size_t torn_size = spans.back().first + spans.back().second / 2;
  WriteFileBytes(path, bytes.substr(0, torn_size));

  StatusOr<Journal> reopened = Journal::Open(path, Journal::Options{});
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kFailedPrecondition);
  // The message must tell the operator what happened and what to do.
  EXPECT_NE(reopened.status().message().find("invalid tail"),
            std::string::npos)
      << reopened.status();
  EXPECT_NE(reopened.status().message().find("recover it first"),
            std::string::npos)
      << reopened.status();
  // The refused Open must not have modified the file.
  EXPECT_EQ(ReadFileBytes(path).size(), torn_size);

  // Replay heals the torn tail; after that, Open succeeds and appends
  // extend the valid prefix.
  Journal::RecoveryReport report;
  ASSERT_TRUE(Journal::Replay(path, &report).ok());
  EXPECT_EQ(report.tail, Journal::TailState::kTorn);
  StatusOr<Journal> healed = Journal::Open(path, Journal::Options{});
  ASSERT_TRUE(healed.ok()) << healed.status();
  LedgerEntry next = SampleEntries()[4];
  next.sequence = 4;  // Replay dropped the torn record 4; reuse its slot.
  EXPECT_TRUE(healed->Append(next).ok());
  EXPECT_TRUE(healed->Close().ok());
  std::remove(path.c_str());
}

TEST(JournalTest, OpenOnCorruptTailFailsAndNeverAutoTruncates) {
  const std::string path = TempPath("nimbus_journal_open_corrupt.waj");
  WriteJournalWith(path, SampleEntries());
  std::string bytes = ReadFileBytes(path);
  const auto spans = RecordSpans(bytes);
  bytes[spans.back().first + 4] ^= 0x01;  // Flip a CRC bit (last record).
  WriteFileBytes(path, bytes);

  StatusOr<Journal> reopened = Journal::Open(path, Journal::Options{});
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kFailedPrecondition);
  // Corrupt (bit-rot) tails are evidence: even Replay must not truncate
  // them, so the bytes survive both the Open probe and a replay.
  ASSERT_TRUE(Journal::Replay(path).ok());
  EXPECT_EQ(ReadFileBytes(path).size(), bytes.size());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Sealing: a checkpoint renames the live segment and starts a fresh one.

TEST(JournalTest, SealRenamesLiveSegmentAndOpensFreshOne) {
  const std::string path = TempPath("nimbus_journal_seal.waj");
  const std::vector<LedgerEntry> entries = SampleEntries();
  WriteJournalWith(path, entries);

  StatusOr<Journal> journal = Journal::Open(path, Journal::Options{});
  ASSERT_TRUE(journal.ok()) << journal.status();
  EXPECT_EQ(journal->base_sequence(), 0);
  const int64_t bytes_before = journal->live_bytes();
  // Only the sequence after the last record can seal.
  EXPECT_EQ(journal->Seal(3).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(journal->Seal(5).ok());
  EXPECT_EQ(journal->base_sequence(), 5);
  EXPECT_LT(journal->live_bytes(), bytes_before);
  ASSERT_TRUE(journal->Seal(5).ok());  // Nothing new: a no-op.
  EXPECT_EQ(Journal::SealedSegments(path), std::vector<int64_t>{0});

  // The journal stays open for appending across the seal.
  LedgerEntry next = entries[0];
  next.sequence = 5;
  ASSERT_TRUE(journal->Append(next).ok());
  ASSERT_TRUE(journal->Close().ok());

  // The sealed segment is the old file, byte for byte.
  Journal::RecoveryReport sealed_report;
  StatusOr<std::vector<LedgerEntry>> sealed = Journal::Replay(
      Journal::SealedSegmentPath(path, 0), &sealed_report);
  ASSERT_TRUE(sealed.ok()) << sealed.status();
  EXPECT_EQ(sealed_report.base_sequence, 0);
  ASSERT_EQ(sealed->size(), entries.size());
  // Live segment: J2 header with base 5 and the one new record.
  Journal::RecoveryReport live_report;
  StatusOr<std::vector<LedgerEntry>> live =
      Journal::Replay(path, &live_report);
  ASSERT_TRUE(live.ok()) << live.status();
  EXPECT_EQ(live_report.base_sequence, 5);
  ASSERT_EQ(live->size(), 1u);
  ExpectSameEntry((*live)[0], next);

  // ReadRange stitches the chain back together at any window.
  StatusOr<std::vector<LedgerEntry>> all = Journal::ReadRange(path, 0);
  ASSERT_TRUE(all.ok()) << all.status();
  ASSERT_EQ(all->size(), 6u);
  for (int i = 0; i < 5; ++i) {
    ExpectSameEntry((*all)[i], entries[i]);
  }
  ExpectSameEntry((*all)[5], next);
  StatusOr<std::vector<LedgerEntry>> window = Journal::ReadRange(path, 3, 5);
  ASSERT_TRUE(window.ok()) << window.status();
  ASSERT_EQ(window->size(), 2u);
  EXPECT_EQ(window->front().sequence, 3);
  EXPECT_TRUE(Journal::ReadRange(path, 6)->empty());
  EXPECT_EQ(Journal::ReadRange(path, 7).status().code(), StatusCode::kInternal);
  // A live file killed before its header landed holds no rows and no
  // base; the sealed rows still read.
  WriteFileBytes(path, "");
  EXPECT_EQ(Journal::ReadRange(path, 0)->size(), 5u);
  RemoveJournalFiles(path);
  EXPECT_EQ(Journal::ReadRange(path, 0).status().code(),
            StatusCode::kNotFound);
}

TEST(JournalTest, SealFaultLeavesJournalIntactAndAppendable) {
  const std::string path = TempPath("nimbus_journal_seal_fault.waj");
  const std::vector<LedgerEntry> entries = SampleEntries();
  WriteJournalWith(path, entries);
  StatusOr<Journal> journal = Journal::Open(path, Journal::Options{});
  ASSERT_TRUE(journal.ok()) << journal.status();

  ASSERT_TRUE(fault::Configure("journal.rotate:1:*").ok());
  EXPECT_EQ(journal->Seal(5).code(), StatusCode::kInternal);
  fault::Reset();

  EXPECT_EQ(journal->base_sequence(), 0);
  EXPECT_TRUE(Journal::SealedSegments(path).empty());
  LedgerEntry next = entries[0];
  next.sequence = 5;
  EXPECT_TRUE(journal->Append(next).ok());
  EXPECT_TRUE(journal->Close().ok());
  StatusOr<std::vector<LedgerEntry>> back = Journal::Replay(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 6u);
  RemoveJournalFiles(path);
}

// A damaged sealed segment fails every read that needs it with a Status
// naming the file — never a short result — while reads past it, which
// do not open it, keep working.
TEST(JournalTest, ReadRangeRejectsDamagedOrMissingSealedSegments) {
  const std::string path = TempPath("nimbus_journal_chain.waj");
  RemoveJournalFiles(path);
  const std::vector<LedgerEntry> entries = SampleEntries();
  {
    StatusOr<Journal> journal = Journal::Open(path, Journal::Options{});
    ASSERT_TRUE(journal.ok()) << journal.status();
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(journal->Append(entries[i]).ok());
      if (i == 1 || i == 3) {
        ASSERT_TRUE(journal->Seal(i + 1).ok());
      }
    }
    ASSERT_TRUE(journal->Close().ok());
  }
  ASSERT_EQ(Journal::SealedSegments(path), (std::vector<int64_t>{0, 2}));
  ASSERT_EQ(Journal::ReadRange(path, 0)->size(), 5u);

  const std::string middle = Journal::SealedSegmentPath(path, 2);
  const std::string pristine = ReadFileBytes(middle);
  std::string flipped = pristine;
  flipped[flipped.size() - 3] ^= 0x10;
  WriteFileBytes(middle, flipped);
  Status damaged = Journal::ReadRange(path, 0).status();
  EXPECT_EQ(damaged.code(), StatusCode::kInternal);
  EXPECT_NE(damaged.message().find(middle), std::string::npos) << damaged;
  EXPECT_EQ(Journal::ReadRange(path, 4)->size(), 1u);  // Live segment only.

  WriteFileBytes(middle, pristine.substr(0, pristine.size() - 5));
  damaged = Journal::ReadRange(path, 1).status();
  EXPECT_EQ(damaged.code(), StatusCode::kInternal);
  EXPECT_NE(damaged.message().find(middle), std::string::npos) << damaged;

  ASSERT_EQ(std::remove(middle.c_str()), 0);
  damaged = Journal::ReadRange(path, 0).status();
  EXPECT_EQ(damaged.code(), StatusCode::kInternal);
  EXPECT_NE(damaged.message().find("missing"), std::string::npos) << damaged;
  RemoveJournalFiles(path);
}

// The disk-full drill: an armed `journal.append:N:enospc` clause makes
// the Nth append fail errno-style after landing only half the record —
// the same torn tail a real out-of-space fwrite leaves. The journal
// poisons itself, Discard lands the buffered prefix (and the torn tail)
// on disk, and Replay truncates the tail so the file is append-clean.
TEST(JournalTest, EnospcAppendLeavesTornTailAndRecoveryTruncates) {
  fault::Reset();
  const std::string path = TempPath("nimbus_journal_enospc.waj");
  std::remove(path.c_str());
  const std::vector<LedgerEntry> entries = SampleEntries();

  StatusOr<Journal> journal = Journal::Open(path, Journal::Options{});
  ASSERT_TRUE(journal.ok()) << journal.status();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(journal->Append(entries[i]).ok());
  }

  ASSERT_TRUE(fault::Configure("journal.append:1:enospc").ok());
  const Status full = journal->Append(entries[3]);
  fault::Reset();
  EXPECT_EQ(full.code(), StatusCode::kInternal);
  EXPECT_NE(full.message().find("short write"), std::string::npos) << full;
  EXPECT_NE(full.message().find("No space left on device"), std::string::npos)
      << full;

  // The handle is poisoned: further appends fail typed, non-retryably.
  const Status poisoned = journal->Append(entries[4]);
  EXPECT_EQ(poisoned.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(poisoned.message().find("poisoned"), std::string::npos);

  // Retire the handle the way a shard quarantine does: Discard flushes
  // the three committed records AND the torn half-record to disk.
  journal->Discard();

  Journal::RecoveryReport report;
  StatusOr<std::vector<LedgerEntry>> back = Journal::Replay(path, &report);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(report.tail, Journal::TailState::kTorn);
  EXPECT_GT(report.dropped_bytes, 0);
  ASSERT_EQ(back->size(), 3u);
  for (int i = 0; i < 3; ++i) {
    ExpectSameEntry((*back)[i], entries[i]);
  }

  // Replay truncated the torn tail, so the file re-opens append-clean
  // and the interrupted sale can be re-committed.
  StatusOr<Journal> reopened = Journal::Open(path, Journal::Options{});
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ASSERT_TRUE(reopened->Append(entries[3]).ok());
  ASSERT_TRUE(reopened->Close().ok());
  StatusOr<std::vector<LedgerEntry>> healed = Journal::Replay(path);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(healed->size(), 4u);
  std::remove(path.c_str());
}

// Disk-full during a seal: the fresh segment's header runs out of space
// halfway. The live segment must be untouched and appendable — a failed
// seal is retryable, never data loss.
TEST(JournalTest, EnospcSealLeavesLiveSegmentAppendable) {
  fault::Reset();
  const std::string path = TempPath("nimbus_journal_seal_enospc.waj");
  const std::vector<LedgerEntry> entries = SampleEntries();
  WriteJournalWith(path, entries);
  StatusOr<Journal> journal = Journal::Open(path, Journal::Options{});
  ASSERT_TRUE(journal.ok()) << journal.status();

  ASSERT_TRUE(fault::Configure("journal.rotate:1:enospc").ok());
  const Status full = journal->Seal(5);
  fault::Reset();
  EXPECT_EQ(full.code(), StatusCode::kInternal);
  EXPECT_NE(full.message().find("No space left on device"), std::string::npos)
      << full;

  // Live segment untouched: base unchanged, nothing sealed, still
  // appendable, and the next (disarmed) seal succeeds.
  EXPECT_EQ(journal->base_sequence(), 0);
  EXPECT_TRUE(Journal::SealedSegments(path).empty());
  LedgerEntry next = entries[0];
  next.sequence = 5;
  ASSERT_TRUE(journal->Append(next).ok());
  ASSERT_TRUE(journal->Seal(6).ok());
  EXPECT_EQ(journal->base_sequence(), 6);
  ASSERT_TRUE(journal->Close().ok());

  StatusOr<std::vector<LedgerEntry>> back = Journal::ReadRange(path, 0);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->size(), 6u);
  ExpectSameEntry(back->back(), next);
  RemoveJournalFiles(path);
}

TEST(JournalTest, ReplayAndIoReadFaultPointsInject) {
  const std::string path = TempPath("nimbus_journal_replay_fault.waj");
  WriteJournalWith(path, SampleEntries());

  ASSERT_TRUE(fault::Configure("journal.replay:1:*").ok());
  EXPECT_EQ(Journal::Replay(path).status().code(), StatusCode::kInternal);
  fault::Reset();

  ASSERT_TRUE(fault::Configure("io.read:1:*").ok());
  EXPECT_EQ(Journal::Replay(path).status().code(), StatusCode::kInternal);
  fault::Reset();

  EXPECT_TRUE(Journal::Replay(path).ok());
  std::remove(path.c_str());
}

TEST(MarketplaceJournalTest, FsyncEveryRecordSurvivesReplay) {
  const std::string path = TempPath("nimbus_marketplace_fsync.waj");
  std::remove(path.c_str());
  Journal::Options durable;
  durable.fsync = Journal::FsyncPolicy::kEveryRecord;
  Marketplace market = MakeMarket(11);
  ASSERT_TRUE(market.EnableJournal(path, durable).ok());
  RunSales(market);
  StatusOr<std::vector<LedgerEntry>> entries = Journal::Replay(path);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 6u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nimbus::market
