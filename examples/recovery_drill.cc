// Crash-recovery drill driver — the two halves of CI's kill -9 test.
//
//   recovery_drill --journal=PATH --serve --requests=N [--seed=S]
//     Deletes whatever journal chain an earlier run left at PATH (live
//     and sealed segments, snapshots, manifest), builds the demo
//     marketplace, attaches a write-ahead journal with per-record fsync
//     (so a SIGKILL loses nothing that was acknowledged), enables
//     cadence checkpointing, and feeds a deterministic stream of N
//     sales. Meant to be killed mid-run.
//
//   recovery_drill --journal=PATH --recover --requests=N [--seed=S]
//     Restores a fresh marketplace from the checkpoint chain + journal
//     tail the killed process left behind, then rebuilds the expected
//     ledger independently: the sale stream is a pure function of
//     (seed, index), so re-feeding the first C sales (C = recovered
//     count) into a pristine marketplace reproduces what the killed
//     process had committed, byte for byte. Any divergence — lost
//     acknowledged sale, duplicated tail record, aggregate drift —
//     fails the byte comparison and exits non-zero.
//
// Sharded variants of the same halves (`--root=DIR --shards=N`
// replacing `--journal=PATH`) drive a bulkheaded Catalog instead: each
// product shard owns its journal + snapshot chain under
// `DIR/shards/product-NNN/`, sales round-robin across products, and
// the recover half restores every shard and byte-compares each against
// its own deterministic oracle (the serve half clears each shard's
// chain first, as the single-journal one does). `--corrupt-newest-snapshot=PRODUCT`
// flips a byte in that shard's newest snapshot before the restart, so
// CI can assert the damaged shard falls down the recovery ladder
// (previous snapshot / full replay) while the untouched shards restore
// byte-identically from their own directories.
//
// The pair gives CI a real external-kill oracle: no cooperation from
// the dying process, only its fsync'd artifacts.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/random.h"
#include "common/statusor.h"
#include "data/synthetic.h"
#include "market/catalog.h"
#include "market/checkpointer.h"
#include "market/curves.h"
#include "market/journal.h"
#include "market/market_simulator.h"
#include "market/marketplace.h"
#include "market/snapshot.h"

namespace {

using nimbus::Rng;
using nimbus::Status;
using nimbus::StatusOr;
using nimbus::market::Broker;
using nimbus::market::Catalog;
using nimbus::market::CatalogOptions;
using nimbus::market::CheckpointPolicy;
using nimbus::market::Journal;
using nimbus::market::Marketplace;
using nimbus::market::Shard;
using nimbus::market::ShardState;

int IntFlag(int argc, char** argv, const char* name, int fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atoi(argv[i] + prefix.size());
    }
  }
  return fallback;
}

std::string StringFlag(int argc, char** argv, const char* name,
                       const std::string& fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return fallback;
}

bool BoolFlag(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) {
      return true;
    }
  }
  return false;
}

Marketplace MakeMarket(uint64_t seed) {
  Rng rng(seed);
  nimbus::data::ClassificationSpec spec;
  spec.num_examples = 200;
  spec.num_features = 4;
  spec.positive_prob = 0.9;
  nimbus::data::Dataset all = nimbus::data::GenerateClassification(spec, rng);
  Broker::Options options;
  options.error_curve_points = 6;
  options.samples_per_curve_point = 30;
  options.min_inverse_ncp = 1.0;
  options.max_inverse_ncp = 50.0;
  Marketplace market(nimbus::data::Split(all, 0.75, rng), options);
  auto points = nimbus::market::MakeBuyerPoints(
      nimbus::market::ValueShape::kConcave,
      nimbus::market::DemandShape::kUniform, 10, 1.0, 50.0, 80.0, 2.0);
  nimbus::market::Seller seller = *nimbus::market::Seller::Create(*points);
  auto pricing = *seller.NegotiatePricing();
  const Status added = market.AddOffering(
      nimbus::ml::ModelKind::kLogisticRegression, 0.01, pricing);
  if (!added.ok()) {
    std::fprintf(stderr, "market setup failed: %s\n",
                 added.ToString().c_str());
    std::exit(2);
  }
  return market;
}

// Sale i of the deterministic stream: a pure function of i, so the
// recover half can rebuild any committed prefix independently.
Status FeedOne(Marketplace& market, int64_t i) {
  return market
      .Buy("buyer-" + std::to_string(i % 53),
           nimbus::ml::ModelKind::kLogisticRegression,
           1.5 + static_cast<double>(i % 31), "zero_one")
      .status();
}

// A serve run starts clean: stale segments or snapshots from an earlier
// run would otherwise reach the recover half's restore.
void RemoveRecoveryFiles(const std::string& journal_path) {
  for (const std::string& file : nimbus::market::RecoveryFiles(journal_path)) {
    std::remove(file.c_str());
  }
}

int Serve(const std::string& path, int requests, uint64_t seed) {
  RemoveRecoveryFiles(path);
  Marketplace market = MakeMarket(seed);
  Journal::Options journal_options;
  // Per-record fsync: a SIGKILL (or power cut) can tear at most the
  // record being written; everything acknowledged is on disk.
  journal_options.fsync = Journal::FsyncPolicy::kEveryRecord;
  Status status = market.EnableJournal(path, journal_options);
  if (!status.ok()) {
    std::fprintf(stderr, "EnableJournal failed: %s\n",
                 status.ToString().c_str());
    return 2;
  }
  CheckpointPolicy policy;
  policy.every_records = requests >= 512 ? requests / 64 : 8;
  status = market.EnableCheckpoints(policy);
  if (!status.ok()) {
    std::fprintf(stderr, "EnableCheckpoints failed: %s\n",
                 status.ToString().c_str());
    return 2;
  }
  std::printf("serving %d sales to %s (checkpoint every %lld)\n", requests,
              path.c_str(), static_cast<long long>(policy.every_records));
  std::fflush(stdout);
  for (int64_t i = 0; i < requests; ++i) {
    status = FeedOne(market, i);
    if (!status.ok()) {
      std::fprintf(stderr, "sale %lld failed: %s\n",
                   static_cast<long long>(i), status.ToString().c_str());
      return 2;
    }
  }
  std::printf("served all %d sales without being killed\n", requests);
  return 0;
}

int Recover(const std::string& path, int requests, uint64_t seed) {
  Marketplace recovered = MakeMarket(seed);
  Marketplace::RestoreReport report;
  const Status status = recovered.RestoreFromCheckpoint(
      path, Marketplace::RestoreOptions{}, &report);
  if (!status.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n", status.ToString().c_str());
    return 1;
  }
  const char* source =
      report.source == Marketplace::RestoreReport::Source::kSnapshot
          ? "snapshot"
      : report.source == Marketplace::RestoreReport::Source::kPreviousSnapshot
          ? "previous_snapshot"
          : "full_replay";
  const int64_t count = static_cast<int64_t>(recovered.ledger().size());
  std::printf(
      "recovered %lld sales (source=%s generation=%lld snapshot=%lld "
      "tail=%lld rejected=%d)\n",
      static_cast<long long>(count), source,
      static_cast<long long>(report.generation),
      static_cast<long long>(report.snapshot_records),
      static_cast<long long>(report.tail_records), report.snapshots_rejected);
  if (count < 0 || count > requests) {
    std::fprintf(stderr, "recovered count %lld outside [0, %d]\n",
                 static_cast<long long>(count), requests);
    return 1;
  }
  // Independent oracle: re-run the same deterministic prefix in a
  // pristine marketplace and demand byte equality.
  Marketplace oracle = MakeMarket(seed);
  for (int64_t i = 0; i < count; ++i) {
    const Status fed = FeedOne(oracle, i);
    if (!fed.ok()) {
      std::fprintf(stderr, "oracle sale %lld failed: %s\n",
                   static_cast<long long>(i), fed.ToString().c_str());
      return 2;
    }
  }
  if (recovered.ledger().ToCsv() != oracle.ledger().ToCsv()) {
    std::fprintf(stderr,
                 "VIOLATION: recovered ledger differs from the oracle "
                 "re-feed of %lld sales\n",
                 static_cast<long long>(count));
    return 1;
  }
  if (recovered.total_revenue() != oracle.total_revenue()) {
    std::fprintf(stderr, "VIOLATION: recovered revenue differs\n");
    return 1;
  }
  std::printf("recovered ledger byte-identical to the %lld-sale oracle\n",
              static_cast<long long>(count));
  return 0;
}

// ---------------------------------------------------------------------
// Sharded halves: the same serve/kill/recover oracle over a bulkheaded
// Catalog, one journal + snapshot chain per product shard.

std::string ProductName(int p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "product-%03d", p);
  return std::string(buf);
}

CatalogOptions DrillCatalogOptions(const std::string& root, int num_shards,
                                   int requests) {
  CatalogOptions options;
  options.root_dir = root;
  // Per-record fsync: a SIGKILL can tear at most the record being
  // written in each shard; everything acknowledged is on disk.
  options.shard_defaults.journal.fsync = Journal::FsyncPolicy::kEveryRecord;
  options.shard_defaults.enable_checkpoints = true;
  const int per_shard = requests / (num_shards > 0 ? num_shards : 1);
  options.shard_defaults.checkpoint_policy.every_records =
      per_shard >= 512 ? per_shard / 64 : 8;
  return options;
}

void PopulateCatalog(Catalog& catalog, int num_shards, uint64_t seed) {
  for (int p = 0; p < num_shards; ++p) {
    const uint64_t mseed = seed + 131 * static_cast<uint64_t>(p);
    const Status added = catalog.AddProduct(
        ProductName(p),
        [mseed]() -> StatusOr<Marketplace> { return MakeMarket(mseed); });
    if (!added.ok()) {
      std::fprintf(stderr, "AddProduct %d failed: %s\n", p,
                   added.ToString().c_str());
      std::exit(2);
    }
  }
}

int ServeSharded(const std::string& root, int num_shards, int requests,
                 uint64_t seed) {
  for (int p = 0; p < num_shards; ++p) {
    RemoveRecoveryFiles(root + "/shards/" + ProductName(p) + "/journal");
  }
  Catalog catalog(DrillCatalogOptions(root, num_shards, requests));
  PopulateCatalog(catalog, num_shards, seed);
  std::printf("serving %d sales round-robin over %d shards under %s\n",
              requests, num_shards, root.c_str());
  std::fflush(stdout);
  for (int64_t i = 0; i < requests; ++i) {
    Shard* shard = catalog.Find(ProductName(static_cast<int>(i) % num_shards));
    StatusOr<std::shared_ptr<Marketplace>> market = shard->Serve();
    if (!market.ok()) {
      std::fprintf(stderr, "shard %s refused sale %lld: %s\n",
                   shard->product_id().c_str(), static_cast<long long>(i),
                   market.status().ToString().c_str());
      return 2;
    }
    const Status status = FeedOne(**market, i);
    if (!status.ok()) {
      std::fprintf(stderr, "sale %lld failed: %s\n",
                   static_cast<long long>(i), status.ToString().c_str());
      return 2;
    }
  }
  std::printf("served all %d sales without being killed\n", requests);
  return 0;
}

// Flips one byte in the middle of `path` (bit-rot emulation aimed at a
// shard's newest snapshot before the recovery restart).
bool FlipByteInFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) {
    return false;
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  if (size <= 0) {
    std::fclose(f);
    return false;
  }
  const long at = size / 2;
  std::fseek(f, at, SEEK_SET);
  const int byte = std::fgetc(f);
  if (byte == EOF) {
    std::fclose(f);
    return false;
  }
  std::fseek(f, at, SEEK_SET);
  std::fputc(byte ^ 0x5a, f);
  return std::fclose(f) == 0;
}

// Finds and corrupts the newest committed snapshot generation of the
// shard at `dir`. Returns the corrupted generation, or 0 when the kill
// landed before this shard's first checkpoint (nothing to corrupt —
// recovery is a full journal replay either way).
int64_t CorruptNewestSnapshot(const std::string& dir) {
  const std::string journal = dir + "/journal";
  int64_t newest = 0;
  for (int64_t generation = 1; generation <= 4096; ++generation) {
    const std::string snap =
        nimbus::market::snapshot::SnapshotPath(journal, generation);
    std::FILE* f = std::fopen(snap.c_str(), "rb");
    if (f != nullptr) {
      std::fclose(f);
      newest = generation;
    }
  }
  if (newest == 0) {
    return 0;
  }
  const std::string snap =
      nimbus::market::snapshot::SnapshotPath(journal, newest);
  if (!FlipByteInFile(snap)) {
    std::fprintf(stderr, "cannot corrupt %s\n", snap.c_str());
    std::exit(2);
  }
  return newest;
}

int RecoverSharded(const std::string& root, int num_shards, int requests,
                   uint64_t seed, const std::string& corrupt_product) {
  if (!corrupt_product.empty()) {
    const std::string dir = root + "/shards/" + corrupt_product;
    const int64_t generation = CorruptNewestSnapshot(dir);
    if (generation > 0) {
      std::printf("corrupted newest snapshot (generation %lld) of %s\n",
                  static_cast<long long>(generation),
                  corrupt_product.c_str());
    } else {
      std::printf("no snapshot of %s to corrupt (kill preceded its first "
                  "checkpoint); recovery replays the journal\n",
                  corrupt_product.c_str());
    }
  }

  // Opening the catalog IS the restart: every shard runs the restore
  // ladder against whatever the killed process left in its directory.
  Catalog catalog(DrillCatalogOptions(root, num_shards, requests));
  PopulateCatalog(catalog, num_shards, seed);

  int64_t total = 0;
  for (int p = 0; p < num_shards; ++p) {
    Shard* shard = catalog.Find(ProductName(p));
    if (shard->state() != ShardState::kServing) {
      std::fprintf(stderr, "VIOLATION: shard %s restarted into %s (%s)\n",
                   shard->product_id().c_str(),
                   nimbus::market::ShardStateName(shard->state()),
                   shard->state_detail().c_str());
      return 1;
    }
    const Marketplace::RestoreReport report = shard->last_restore_report();
    const char* source =
        report.source == Marketplace::RestoreReport::Source::kSnapshot
            ? "snapshot"
        : report.source ==
                Marketplace::RestoreReport::Source::kPreviousSnapshot
            ? "previous_snapshot"
            : "full_replay";
    const std::shared_ptr<Marketplace> market = shard->market();
    const int64_t count = static_cast<int64_t>(market->ledger().size());
    total += count;
    std::printf(
        "shard %s: recovered %lld sales (source=%s generation=%lld "
        "snapshot=%lld tail=%lld rejected=%d)\n",
        shard->product_id().c_str(), static_cast<long long>(count), source,
        static_cast<long long>(report.generation),
        static_cast<long long>(report.snapshot_records),
        static_cast<long long>(report.tail_records),
        report.snapshots_rejected);
    if (shard->product_id() == corrupt_product) {
      // The corrupted shard must have taken the ladder, not the (now
      // bit-rotted) newest snapshot: either a generation was rejected
      // by its checksum, or there was no snapshot and the journal
      // replayed in full.
      const bool ladder_engaged =
          report.snapshots_rejected >= 1 ||
          report.source != Marketplace::RestoreReport::Source::kSnapshot;
      if (!ladder_engaged) {
        std::fprintf(stderr,
                     "VIOLATION: corrupted shard %s restored from its "
                     "newest snapshot unchallenged\n",
                     corrupt_product.c_str());
        return 1;
      }
      std::printf("shard %s: ladder engaged (%d generation(s) rejected, "
                  "source=%s)\n",
                  corrupt_product.c_str(), report.snapshots_rejected, source);
    }
    // Independent oracle: shard p's j-th sale is global sale j*N+p, a
    // pure function of (seed, index) — re-feed it into a pristine
    // marketplace and demand byte equality.
    Marketplace oracle = MakeMarket(seed + 131 * static_cast<uint64_t>(p));
    for (int64_t j = 0; j < count; ++j) {
      const Status fed = FeedOne(oracle, j * num_shards + p);
      if (!fed.ok()) {
        std::fprintf(stderr, "oracle sale %lld of shard %s failed: %s\n",
                     static_cast<long long>(j),
                     shard->product_id().c_str(), fed.ToString().c_str());
        return 2;
      }
    }
    if (market->ledger().ToCsv() != oracle.ledger().ToCsv() ||
        market->total_revenue() != oracle.total_revenue()) {
      std::fprintf(stderr,
                   "VIOLATION: shard %s ledger differs from its %lld-sale "
                   "oracle re-feed\n",
                   shard->product_id().c_str(), static_cast<long long>(count));
      return 1;
    }
  }
  std::printf(
      "all %d shards serving; %lld recovered sales byte-identical to their "
      "per-shard oracles\n",
      num_shards, static_cast<long long>(total));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = StringFlag(argc, argv, "journal", "");
  const std::string root = StringFlag(argc, argv, "root", "");
  const int shards = IntFlag(argc, argv, "shards", 0);
  const int requests = IntFlag(argc, argv, "requests", 2000);
  const uint64_t seed =
      static_cast<uint64_t>(IntFlag(argc, argv, "seed", 20190642));
  const std::string corrupt_product =
      StringFlag(argc, argv, "corrupt-newest-snapshot", "");
  const bool serve = BoolFlag(argc, argv, "serve");
  if (serve == BoolFlag(argc, argv, "recover") ||
      (path.empty() == (root.empty() || shards <= 0))) {
    std::fprintf(stderr,
                 "usage: recovery_drill (--journal=PATH | --root=DIR "
                 "--shards=N) (--serve|--recover) [--requests=N] [--seed=S] "
                 "[--corrupt-newest-snapshot=PRODUCT]\n");
    return 2;
  }
  if (!root.empty()) {
    return serve ? ServeSharded(root, shards, requests, seed)
                 : RecoverSharded(root, shards, requests, seed,
                                  corrupt_product);
  }
  return serve ? Serve(path, requests, seed) : Recover(path, requests, seed);
}
