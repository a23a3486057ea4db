// Chaos soak for the resilient serving layer (src/service/): hammers a
// MarketService with tens of thousands of requests while fault
// injection is armed, then audits every resilience claim the layer
// makes:
//
//   Phase 1 (determinism): the same request stream, same seed, counted
//   faults armed, replayed at 1, 4 and 8 workers. Every injected fault
//   must be absorbed by a retry, and the final ledger must be
//   byte-identical across worker counts. The journal must restore a
//   fresh marketplace bit-identically (RestoreFromCheckpoint CSV == live
//   CSV) after every run.
//
//   Phase 2 (overload): multiple submitter threads blast bursts larger
//   than the admission queue. Every submission must resolve to exactly
//   one typed outcome (ok / kUnavailable shed / failure) — no silent
//   drops — with admitted + shed == submitted, a shed rate under the
//   burst-geometry bound, dense ledger sequences and, again, a
//   bit-identical journal restore.
//
//   Phase 4 (crash drill): checkpointed traffic at each worker count
//   with snapshot faults tearing some cadence checkpoints, then a
//   SIGKILL-shaped death (journal flushed, drain checkpoint torn).
//   Recovery from the snapshot chain must be byte-identical, and must
//   STAY byte-identical after the newest snapshot is bit-rotted (the
//   ladder falls back a generation).
//
//   Phase 5 (O(delta) sweep): restore time from the checkpoint chain
//   must stay flat as history grows 10x (the journal tail is constant),
//   while the journal-only control's full replay scales linearly.
//
// Throughput and latency are perfbench's to measure (perfbench/README.md);
// this driver prints outcomes only. Any violated invariant prints
// VIOLATION and the binary exits non-zero. Flags:
//   --requests=N        total requests per phase (default 10000)
//   --queue=N           overload-phase queue capacity (default 64)
//   --seed=N            master seed (default 20190642)
//   --faults=SPEC       fault spec for phase 1 ("" disarms; default a
//                       counted mix across service/broker/journal
//                       points, sized to stay inside retry budgets)
//   --fast              ctest-sized run: 600 requests, workers {1,4}
//   --metrics           print the telemetry snapshot after each phase
//   --metrics=PATH      also write the final snapshot as JSON to PATH
//   --slo-report        print each run's SLO report (availability and
//                       fast/slow burn rates); the SLO invariants are
//                       asserted either way (fault-free phases must burn
//                       zero budget; overload must burn when it sheds)
//   --profile=PATH      sample the CPU for the whole run (199 Hz) and
//                       write folded stacks to PATH — feed the file to
//                       a flamegrapher or speedscope. The profiler's
//                       self-measured overhead is printed
//   --admin-port=P      after the phases, serve the live admin endpoint
//                       (/metrics /healthz /tracez /flightz) on
//                       127.0.0.1:P under steady traffic for
//                       --serve-seconds (default 5) — the CI smoke
//                       target
//
// NIMBUS_FAULTS (the env var) also works — it is applied on first
// fault-point use and, being unknown-point fatal, misspelled drills
// abort instead of soaking with injection silently disarmed.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/flight_recorder.h"
#include "common/profiler.h"
#include "market/auditor.h"
#include "market/catalog.h"
#include "market/checkpointer.h"
#include "market/snapshot.h"
#include "common/random.h"
#include "common/slo_tracker.h"
#include "common/telemetry.h"
#include "data/synthetic.h"
#include "market/curves.h"
#include "market/market_simulator.h"
#include "market/marketplace.h"
#include "service/admin_server.h"
#include "service/service.h"

namespace {

using nimbus::Rng;
using nimbus::Status;
using nimbus::StatusCode;
using nimbus::market::Broker;
using nimbus::market::Catalog;
using nimbus::market::CheckpointPolicy;
using nimbus::market::Journal;
using nimbus::market::Marketplace;
using nimbus::market::ShardOptions;
using nimbus::service::MarketService;
using nimbus::service::PurchaseRequest;
using nimbus::service::PurchaseResult;
using nimbus::service::ServiceOptions;

int g_violations = 0;
bool g_slo_report = false;

// The service's SLO report for one run, printed under --slo-report.
nimbus::telemetry::SloTracker::Report ReportSlo(const MarketService& service,
                                                const char* phase,
                                                int workers) {
  const nimbus::telemetry::SloTracker::Report slo =
      service.slo_tracker().Snapshot();
  if (g_slo_report) {
    std::printf(
        "   slo(%s,w=%d): availability=%.6f fast_burn=%.3f slow_burn=%.3f "
        "(fast %lld/%lld bad, slow %lld/%lld bad)\n",
        phase, workers, slo.slow_availability, slo.fast_burn_rate,
        slo.slow_burn_rate, static_cast<long long>(slo.fast_bad),
        static_cast<long long>(slo.fast_bad + slo.fast_good),
        static_cast<long long>(slo.slow_bad),
        static_cast<long long>(slo.slow_bad + slo.slow_good));
  }
  return slo;
}

bool WriteFile(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const bool ok = written == body.size() && std::fclose(f) == 0;
  return ok;
}

#define SOAK_CHECK(condition, ...)                    \
  do {                                                \
    if (!(condition)) {                               \
      std::printf("VIOLATION [%s:%d] ", __FILE__, __LINE__); \
      std::printf(__VA_ARGS__);                       \
      std::printf("\n");                              \
      ++g_violations;                                 \
    }                                                 \
  } while (0)

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

std::string TempJournalPath(const std::string& tag) {
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  // Process-unique so concurrent runs of this binary never clobber each
  // other's files.
  return dir + "/nimbus_soak_" + std::to_string(::getpid()) + "_" + tag +
         ".waj";
}

// A fresh directory under TMPDIR, removed with its contents on
// destruction. A lineage kept in one lists only its own files when a
// restore scans the directory, however crowded TMPDIR is.
class PrivateDir {
 public:
  explicit PrivateDir(const std::string& tag)
      : path_(TempJournalPath(tag) + ".XXXXXX") {
    if (::mkdtemp(path_.data()) == nullptr) {
      std::fprintf(stderr, "cannot create a directory from '%s'\n",
                   path_.c_str());
      std::exit(2);
    }
  }
  ~PrivateDir() { std::filesystem::remove_all(path_); }
  PrivateDir(const PrivateDir&) = delete;
  PrivateDir& operator=(const PrivateDir&) = delete;

  std::string journal() const { return path_ + "/journal"; }

 private:
  std::string path_;
};

Marketplace MakeMarket(uint64_t seed) {
  Rng rng(seed);
  nimbus::data::ClassificationSpec spec;
  spec.num_examples = 300;
  spec.num_features = 5;
  spec.positive_prob = 0.9;
  nimbus::data::Dataset all = nimbus::data::GenerateClassification(spec, rng);
  Broker::Options options;
  options.error_curve_points = 8;
  options.samples_per_curve_point = 50;
  options.min_inverse_ncp = 1.0;
  options.max_inverse_ncp = 50.0;
  Marketplace market(nimbus::data::Split(all, 0.75, rng), options);
  auto points = nimbus::market::MakeBuyerPoints(
      nimbus::market::ValueShape::kConcave,
      nimbus::market::DemandShape::kUniform, 10, 1.0, 50.0, 80.0, 2.0);
  nimbus::market::Seller seller = *nimbus::market::Seller::Create(*points);
  auto pricing = *seller.NegotiatePricing();
  Status status = market.AddOffering(nimbus::ml::ModelKind::kLogisticRegression,
                                     0.01, pricing);
  if (!status.ok()) {
    std::fprintf(stderr, "market setup failed: %s\n",
                 status.ToString().c_str());
    std::exit(2);
  }
  return market;
}

// One marketplace served the way MarketService serves every marketplace:
// the only shard ("solo") of a catalog rooted at a fresh per-process
// directory, with its journal at journal_path(). The directory is
// removed on destruction; declare the service after this, so it drains
// first.
class SoloCatalog {
 public:
  SoloCatalog(const std::string& tag, uint64_t market_seed,
              ShardOptions shard_defaults = {})
      : root_(TempJournalPath(tag) + ".d") {
    std::filesystem::remove_all(root_);
    nimbus::market::CatalogOptions options;
    options.root_dir = root_;
    options.shard_defaults = std::move(shard_defaults);
    catalog_ = std::make_unique<Catalog>(options);
    const Status added = catalog_->AddProduct(
        "solo", [market_seed]() -> nimbus::StatusOr<Marketplace> {
          return MakeMarket(market_seed);
        });
    if (!added.ok()) {
      std::fprintf(stderr, "catalog setup failed: %s\n",
                   added.ToString().c_str());
      std::exit(2);
    }
  }
  ~SoloCatalog() {
    catalog_.reset();
    std::filesystem::remove_all(root_);
  }

  Catalog* catalog() { return catalog_.get(); }
  Marketplace& market() { return *catalog_->shard(0)->market(); }
  const std::string& journal_path() const {
    return catalog_->shard(0)->journal_path();
  }

 private:
  std::string root_;
  std::unique_ptr<Catalog> catalog_;
};

PurchaseRequest MakeRequest(int i) {
  PurchaseRequest request;
  request.buyer_id = "buyer-" + std::to_string(i % 97);
  request.model = nimbus::ml::ModelKind::kLogisticRegression;
  request.inverse_ncp = 1.5 + static_cast<double>(i % 37);
  return request;
}

ServiceOptions SoakServiceOptions(uint64_t seed, int workers, int queue) {
  ServiceOptions options;
  options.num_workers = workers;
  options.queue_capacity = queue;
  options.seed = seed;
  options.quote_retry.max_attempts = 6;
  options.quote_retry.initial_delay_seconds = 1e-6;
  options.quote_retry.max_delay_seconds = 1e-4;
  options.journal_retry.max_attempts = 4;
  options.journal_retry.initial_delay_seconds = 1e-6;
  options.journal_retry.max_delay_seconds = 1e-4;
  // Deterministic runs must absorb every injected fault, not trip.
  options.quote_breaker.failure_threshold = 1 << 20;
  options.journal_breaker.failure_threshold = 1 << 20;
  return options;
}

void CheckLedgerInvariants(const Marketplace& market, int64_t expected_sales,
                           const char* phase) {
  const auto& entries = market.ledger().entries();
  SOAK_CHECK(static_cast<int64_t>(entries.size()) == expected_sales,
             "%s: ledger has %zu sales, expected %lld", phase, entries.size(),
             static_cast<long long>(expected_sales));
  for (size_t i = 0; i < entries.size(); ++i) {
    SOAK_CHECK(entries[i].sequence == static_cast<int64_t>(i),
               "%s: sequence gap at row %zu (got %lld)", phase, i,
               static_cast<long long>(entries[i].sequence));
    SOAK_CHECK(entries[i].price > 0.0, "%s: non-positive price at row %zu",
               phase, i);
  }
}

void CheckRestore(const std::string& path, const Marketplace& live,
                  uint64_t market_seed, const char* phase) {
  Marketplace restored = MakeMarket(market_seed);
  const Status status = restored.RestoreFromCheckpoint(path);
  SOAK_CHECK(status.ok(), "%s: RestoreFromCheckpoint failed: %s", phase,
             status.ToString().c_str());
  if (status.ok()) {
    SOAK_CHECK(restored.ledger().ToCsv() == live.ledger().ToCsv(),
               "%s: restored ledger differs from live ledger", phase);
    SOAK_CHECK(restored.total_revenue() == live.total_revenue(),
               "%s: restored revenue differs", phase);
  }
}

// Phase 1: same seed + stream at several worker counts, faults armed.
// Every ledger must be byte-identical to every other: the worker count
// may only change speed, never what is sold.
void RunDeterminismPhase(int requests, uint64_t seed,
                         const std::string& fault_spec,
                         const std::vector<int>& worker_counts) {
  std::printf("== phase 1: determinism under faults (%d requests, faults '%s')\n",
              requests, fault_spec.c_str());
  std::vector<std::string> csvs;
  for (int workers : worker_counts) {
    if (!fault_spec.empty()) {
      const Status armed = nimbus::fault::Configure(fault_spec);
      if (!armed.ok()) {
        std::fprintf(stderr, "bad --faults spec: %s\n",
                     armed.ToString().c_str());
        std::exit(2);
      }
    }
    SoloCatalog solo("det_w" + std::to_string(workers), seed);
    Marketplace& market = solo.market();
    MarketService service(solo.catalog(),
                          SoakServiceOptions(seed, workers, requests));
    const Status started = service.Start();
    SOAK_CHECK(started.ok(), "det: Start failed: %s",
               started.ToString().c_str());

    std::vector<std::future<PurchaseResult>> futures;
    futures.reserve(requests);
    for (int i = 0; i < requests; ++i) {
      futures.push_back(service.Submit(MakeRequest(i)));
    }
    int64_t ok_count = 0;
    int64_t retries_seen = 0;
    for (int i = 0; i < requests; ++i) {
      PurchaseResult result = futures[i].get();
      if (result.status.ok()) {
        ++ok_count;
      } else {
        SOAK_CHECK(false, "det(w=%d): request %d failed: %s", workers, i,
                   result.status.ToString().c_str());
      }
      SOAK_CHECK(result.trace_id != 0, "det(w=%d): request %d has no trace id",
                 workers, i);
      retries_seen += (result.quote_attempts - 1) + (result.journal_attempts - 1);
    }
    const Status drained = service.Drain();
    SOAK_CHECK(drained.ok(), "det(w=%d): Drain failed: %s", workers,
               drained.ToString().c_str());
    const MarketService::Stats stats = service.stats();
    SOAK_CHECK(stats.shed == 0, "det(w=%d): unexpected sheds (%lld)", workers,
               static_cast<long long>(stats.shed));
    SOAK_CHECK(stats.admitted + stats.shed == stats.submitted,
               "det(w=%d): admission accounting broken", workers);
    CheckLedgerInvariants(market, ok_count, "det");
    CheckRestore(solo.journal_path(), market, seed, "det");
    nimbus::fault::Reset();

    const nimbus::telemetry::SloTracker::Report slo =
        ReportSlo(service, "det", workers);
    // A fault-free-by-absorption run must not burn error budget: every
    // injected fault was retried away, so the SLO sees only successes.
    SOAK_CHECK(slo.slow_availability == 1.0,
               "det(w=%d): SLO availability %.6f != 1.0", workers,
               slo.slow_availability);
    SOAK_CHECK(slo.fast_burn_rate == 0.0 && slo.slow_burn_rate == 0.0,
               "det(w=%d): SLO burn rate nonzero (fast %.3f slow %.3f)",
               workers, slo.fast_burn_rate, slo.slow_burn_rate);

    csvs.push_back(market.ledger().ToCsv());
    std::printf("   workers=%d: ok=%lld retries=%lld revenue=%.6f\n", workers,
                static_cast<long long>(ok_count),
                static_cast<long long>(retries_seen), market.total_revenue());
  }
  for (size_t i = 1; i < csvs.size(); ++i) {
    SOAK_CHECK(csvs[i] == csvs[0],
               "det: ledger at workers=%d differs from workers=%d byte-wise",
               worker_counts[i], worker_counts[0]);
  }
  std::printf("   ledger byte-identical across %zu runs (workers): %s\n",
              csvs.size(), g_violations == 0 ? "yes" : "NO");
}

// Phase 2: more offered load than the queue can hold, multi-threaded
// submitters, forced enqueue faults — sheds must be typed and bounded.
void RunOverloadPhase(int requests, uint64_t seed, int queue_capacity,
                      int workers, int submitters) {
  std::printf(
      "== phase 2: overload shedding (%d requests, queue=%d, workers=%d, "
      "submitters=%d)\n",
      requests, queue_capacity, workers, submitters);
  // A pinch of forced admission faults so typed fault-sheds are
  // exercised even when the workers keep up with the submitters.
  const Status armed = nimbus::fault::Configure("service.enqueue:10:5");
  SOAK_CHECK(armed.ok(), "overload: fault arm failed");

  SoloCatalog solo("overload", seed);
  Marketplace& market = solo.market();
  MarketService service(solo.catalog(),
                        SoakServiceOptions(seed, workers, queue_capacity));
  const Status started = service.Start();
  SOAK_CHECK(started.ok(), "overload: Start failed");

  // Submit in bursts of 4x queue capacity per submitter: a thread only
  // starts its next burst after every future of the last one resolved,
  // so the queue fully drains between a thread's rounds and a healthy
  // service admits a solid fraction of each burst. Every future is
  // collected: nothing may vanish.
  const int burst = 4 * queue_capacity;
  std::vector<std::thread> threads;
  std::vector<int64_t> ok_by_thread(submitters, 0);
  std::vector<int64_t> shed_by_thread(submitters, 0);
  std::vector<int64_t> other_by_thread(submitters, 0);
  const int per_thread = requests / submitters;
  for (int t = 0; t < submitters; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::future<PurchaseResult>> futures;
      futures.reserve(burst);
      for (int i = 0; i < per_thread; ++i) {
        futures.push_back(service.Submit(MakeRequest(t * per_thread + i)));
        if (static_cast<int>(futures.size()) == burst || i + 1 == per_thread) {
          for (auto& future : futures) {
            const PurchaseResult result = future.get();
            if (result.status.ok()) {
              ++ok_by_thread[t];
            } else if (result.status.code() == StatusCode::kUnavailable) {
              ++shed_by_thread[t];
            } else {
              ++other_by_thread[t];
            }
          }
          futures.clear();
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const Status drained = service.Drain();
  SOAK_CHECK(drained.ok(), "overload: Drain failed: %s",
             drained.ToString().c_str());

  int64_t ok_count = 0;
  int64_t shed_count = 0;
  int64_t other_count = 0;
  for (int t = 0; t < submitters; ++t) {
    ok_count += ok_by_thread[t];
    shed_count += shed_by_thread[t];
    other_count += other_by_thread[t];
  }
  const int64_t total = static_cast<int64_t>(per_thread) * submitters;
  const MarketService::Stats stats = service.stats();
  SOAK_CHECK(ok_count + shed_count + other_count == total,
             "overload: %lld of %lld submissions unaccounted for",
             static_cast<long long>(total - ok_count - shed_count -
                                    other_count),
             static_cast<long long>(total));
  SOAK_CHECK(stats.submitted == total, "overload: stats.submitted mismatch");
  SOAK_CHECK(stats.admitted + stats.shed == stats.submitted,
             "overload: admitted(%lld) + shed(%lld) != submitted(%lld)",
             static_cast<long long>(stats.admitted),
             static_cast<long long>(stats.shed),
             static_cast<long long>(stats.submitted));
  SOAK_CHECK(other_count == 0, "overload: %lld non-shed failures",
             static_cast<long long>(other_count));
  SOAK_CHECK(stats.shed >= 5, "overload: forced enqueue-fault sheds missing");
  const double shed_rate =
      static_cast<double>(shed_count) / static_cast<double>(total);
  // Deterministic geometric bound: organic sheds only start once the
  // queue has admitted `capacity` requests, and the 5 forced
  // enqueue-fault sheds are the only ones allowed before that. A queue
  // that is wedged, closed early, or leaking capacity sheds more and
  // trips this no matter how loaded the machine is; healthy runs land
  // far below it.
  SOAK_CHECK(shed_count <= total - queue_capacity + 5,
             "overload: shed %lld exceeds the admission-capacity bound %lld",
             static_cast<long long>(shed_count),
             static_cast<long long>(total - queue_capacity + 5));
  CheckLedgerInvariants(market, ok_count, "overload");
  CheckRestore(solo.journal_path(), market, seed, "overload");
  nimbus::fault::Reset();

  const nimbus::telemetry::SloTracker::Report slo =
      ReportSlo(service, "overload", workers);
  // Sheds are bad outcomes: a run that shed must show budget burning,
  // and the availability arithmetic must match the service's counters.
  if (shed_count > 0) {
    SOAK_CHECK(slo.slow_burn_rate > 0.0,
               "overload: shed %lld requests but SLO burn rate is 0",
               static_cast<long long>(shed_count));
    SOAK_CHECK(slo.slow_availability < 1.0,
               "overload: shed requests but SLO availability is 1.0");
  }

  std::printf("   submitted=%lld ok=%lld shed=%lld (rate %.3f) queue<=%d\n",
              static_cast<long long>(total), static_cast<long long>(ok_count),
              static_cast<long long>(shed_count), shed_rate, queue_capacity);
}

// Removes every durability artifact a checkpointed run leaves behind:
// the journal, its sealed segments, the snapshot manifest, and all
// snapshot generations (including torn `.tmp` leftovers).
void RemoveRecoveryFiles(const std::string& journal_path) {
  for (const std::string& file : nimbus::market::RecoveryFiles(journal_path)) {
    std::remove(file.c_str());
  }
}

// Flips one byte in the middle of `path` (bit-rot emulation for the
// recovery-ladder drill).
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
  std::fseek(f, size / 2, SEEK_SET);
  int byte = std::fgetc(f);
  std::fseek(f, size / 2, SEEK_SET);
  std::fputc(byte ^ 0x20, f);
  return std::fclose(f) == 0;
}

// Phase 4: crash-recovery drill. Runs checkpointed traffic at each
// worker count with counted snapshot faults armed (some cadence
// checkpoints tear mid-write and are absorbed), then emulates SIGKILL
// at the worst moment: the journal is flushed but the drain-time
// checkpoint is forced to fail, exactly what a process killed between
// its last commit and its shutdown snapshot leaves on disk. A fresh
// marketplace must recover from the newest surviving cadence
// checkpoint plus the journal tail, byte-identical to the live ledger.
// Then the newest snapshot is bit-flipped and recovery must fall back
// a generation, and then the other retained generation too and
// recovery must fully replay the sealed journal segments — both still
// byte-identical — proving every rung of the ladder at soak scale, not
// just in unit tests.
void RunCrashRecoveryDrill(int requests, uint64_t seed,
                           const std::vector<int>& worker_counts) {
  std::printf("== phase 4: crash-recovery drill (%d requests, workers", requests);
  for (int workers : worker_counts) {
    std::printf(" %d", workers);
  }
  std::printf(")\n");
  for (int workers : worker_counts) {
    ShardOptions checkpointed;
    checkpointed.enable_checkpoints = true;
    checkpointed.checkpoint_policy.every_records = std::max(requests / 8, 16);
    SoloCatalog solo("crash_w" + std::to_string(workers), seed, checkpointed);
    Marketplace& market = solo.market();
    const std::string& path = solo.journal_path();
    // Counted tears: a few cadence snapshots fail mid-write/fsync and
    // must be absorbed without failing a single sale.
    const Status armed =
        nimbus::fault::Configure("snapshot.write:3:1,snapshot.fsync:5:1");
    SOAK_CHECK(armed.ok(), "crash: fault arm failed");
    MarketService service(solo.catalog(),
                          SoakServiceOptions(seed, workers, requests));
    SOAK_CHECK(service.Start().ok(), "crash: Start failed");
    std::vector<std::future<PurchaseResult>> futures;
    futures.reserve(requests);
    for (int i = 0; i < requests; ++i) {
      futures.push_back(service.Submit(MakeRequest(i)));
    }
    int64_t ok_count = 0;
    for (int i = 0; i < requests; ++i) {
      const PurchaseResult result = futures[i].get();
      SOAK_CHECK(result.status.ok(), "crash(w=%d): request %d failed: %s",
                 workers, i, result.status.ToString().c_str());
      ok_count += result.status.ok() ? 1 : 0;
    }
    // The kill point: everything committed is journaled (flush), then
    // the process dies before its shutdown checkpoint can land — the
    // drain-time snapshot tears and Drain reports it.
    SOAK_CHECK(market.FlushJournal().ok(), "crash: flush failed");
    nimbus::fault::Reset();
    SOAK_CHECK(nimbus::fault::Configure("snapshot.write:1:*").ok(),
               "crash: kill-window arm failed");
    const Status drained = service.Drain();
    SOAK_CHECK(!drained.ok(),
               "crash(w=%d): drain checkpoint should have torn", workers);
    nimbus::fault::Reset();
    const auto stats = market.CheckpointStats();
    SOAK_CHECK(stats.ok() && stats->checkpoints >= 1,
               "crash(w=%d): no cadence checkpoint survived", workers);
    const std::string live_csv = market.ledger().ToCsv();
    const double live_revenue = market.total_revenue();

    // Recovery 1: newest surviving generation + O(delta) journal tail.
    Marketplace after_crash = MakeMarket(seed);
    Marketplace::RestoreReport report;
    const Status recovered = after_crash.RestoreFromCheckpoint(
        path, Marketplace::RestoreOptions{}, &report);
    SOAK_CHECK(recovered.ok(), "crash(w=%d): recovery failed: %s", workers,
               recovered.ToString().c_str());
    if (recovered.ok()) {
      SOAK_CHECK(report.source == Marketplace::RestoreReport::Source::kSnapshot,
                 "crash(w=%d): expected newest-snapshot recovery", workers);
      SOAK_CHECK(report.snapshot_records + report.tail_records == ok_count,
                 "crash(w=%d): recovery covers %lld of %lld sales", workers,
                 static_cast<long long>(report.snapshot_records +
                                        report.tail_records),
                 static_cast<long long>(ok_count));
      SOAK_CHECK(after_crash.ledger().ToCsv() == live_csv,
                 "crash(w=%d): recovered ledger differs byte-wise", workers);
      SOAK_CHECK(after_crash.total_revenue() == live_revenue,
                 "crash(w=%d): recovered revenue differs", workers);
    }

    // Recovery 2: bit-rot the newest snapshot; the ladder must fall
    // back (previous generation or full replay) and still restore
    // byte-identically.
    const std::string newest =
        nimbus::market::snapshot::SnapshotPath(path, report.generation);
    SOAK_CHECK(FlipByteInFile(newest), "crash: could not corrupt %s",
               newest.c_str());
    Marketplace fallback = MakeMarket(seed);
    Marketplace::RestoreReport fb_report;
    const Status fb = fallback.RestoreFromCheckpoint(
        path, Marketplace::RestoreOptions{}, &fb_report);
    SOAK_CHECK(fb.ok(), "crash(w=%d): ladder fallback failed: %s", workers,
               fb.ToString().c_str());
    if (fb.ok()) {
      SOAK_CHECK(
          fb_report.source != Marketplace::RestoreReport::Source::kSnapshot,
          "crash(w=%d): corrupt newest snapshot was not rejected", workers);
      SOAK_CHECK(fb_report.snapshots_rejected >= 1,
                 "crash(w=%d): rejection not reported", workers);
      SOAK_CHECK(fallback.ledger().ToCsv() == live_csv,
                 "crash(w=%d): fallback ledger differs byte-wise", workers);
    }
    // Recovery 3: bit-rot the other retained generation too. Many
    // checkpoints have pruned every early generation by now, so only
    // the ladder's last rung is left: a full replay of the sealed
    // segments and the live segment, still byte-identical.
    const std::vector<int64_t> retained =
        nimbus::market::snapshot::ListGenerations(path);
    for (const int64_t generation : retained) {
      if (generation != report.generation) {
        SOAK_CHECK(FlipByteInFile(
                       nimbus::market::snapshot::SnapshotPath(path, generation)),
                   "crash: could not corrupt generation %lld",
                   static_cast<long long>(generation));
      }
    }
    Marketplace replayed = MakeMarket(seed);
    Marketplace::RestoreReport full_report;
    const Status full = replayed.RestoreFromCheckpoint(
        path, Marketplace::RestoreOptions{}, &full_report);
    SOAK_CHECK(full.ok(), "crash(w=%d): full replay failed: %s", workers,
               full.ToString().c_str());
    if (full.ok()) {
      SOAK_CHECK(
          full_report.source == Marketplace::RestoreReport::Source::kFullReplay,
          "crash(w=%d): both generations corrupt but the ladder stopped "
          "short of full replay",
          workers);
      SOAK_CHECK(replayed.ledger().ToCsv() == live_csv,
                 "crash(w=%d): full-replay ledger differs byte-wise", workers);
    }
    std::printf(
        "   workers=%d: ok=%lld ckpts=%lld gen=%lld snapshot=%lld tail=%lld "
        "fallback=%s last_rung=%s\n",
        workers, static_cast<long long>(ok_count),
        static_cast<long long>(stats.ok() ? stats->checkpoints : -1),
        static_cast<long long>(report.generation),
        static_cast<long long>(report.snapshot_records),
        static_cast<long long>(report.tail_records),
        fb_report.source == Marketplace::RestoreReport::Source::kFullReplay
            ? "full_replay"
            : "previous_snapshot",
        full_report.source == Marketplace::RestoreReport::Source::kFullReplay
            ? "full_replay"
            : "missed");
  }
}

// Phase 5: O(delta) recovery sweep. Two marketplaces per history size H
// — one checkpointed at a fixed record cadence D, one journal-only —
// each fed H + D/2 sales. Restore time from the checkpoint chain must
// track the constant tail (delta = D/2), staying flat as H grows 10x,
// while full-journal replay tracks H and grows with it. That flat-vs-
// linear split is the whole point of the snapshot subsystem; this phase
// asserts it.
void RunRecoverySweep(bool fast, uint64_t seed) {
  const int64_t cadence = fast ? 64 : 256;
  const int64_t tail = cadence / 2;
  const int64_t base_history = fast ? 512 : 2560;
  const std::vector<int64_t> histories = {base_history, 10 * base_history};
  const int reps = 3;
  std::printf("== phase 5: O(delta) recovery sweep (delta=%lld, history %lldx10)\n",
              static_cast<long long>(tail),
              static_cast<long long>(base_history));

  // Feeds `n` sales through the full Buy path (quote + ledger + journal
  // + monitors + cadence checkpoints).
  const auto feed = [&](Marketplace& market, int64_t n) {
    Broker* broker = *market.BrokerFor(
        nimbus::ml::ModelKind::kLogisticRegression);
    const std::string loss = broker->model().report_losses().front()->name();
    for (int64_t i = 0; i < n; ++i) {
      const auto purchase = market.Buy(
          "buyer-" + std::to_string(i % 97),
          nimbus::ml::ModelKind::kLogisticRegression,
          1.5 + static_cast<double>(i % 37), loss);
      if (!purchase.ok()) {
        std::fprintf(stderr, "sweep: Buy %lld failed: %s\n",
                     static_cast<long long>(i),
                     purchase.status().ToString().c_str());
        std::exit(2);
      }
    }
  };

  double ckpt_ms[2] = {0.0, 0.0};
  double full_ms[2] = {0.0, 0.0};
  for (size_t h = 0; h < histories.size(); ++h) {
    const int64_t history = histories[h];
    // Checkpointed lineage: cadence snapshots during the feed, so the
    // newest generation sits exactly `tail` records behind the head.
    const PrivateDir ckpt_dir("sweep_ckpt_h" + std::to_string(history));
    const std::string ckpt_path = ckpt_dir.journal();
    Marketplace ckpt_market = MakeMarket(seed);
    if (!ckpt_market.EnableJournal(ckpt_path, Journal::Options{}).ok()) {
      std::exit(2);
    }
    CheckpointPolicy policy;
    policy.every_records = cadence;
    SOAK_CHECK(ckpt_market.EnableCheckpoints(policy).ok(),
               "sweep: EnableCheckpoints failed");
    feed(ckpt_market, history + tail);
    SOAK_CHECK(ckpt_market.FlushJournal().ok(), "sweep: flush failed");
    const std::string ckpt_csv = ckpt_market.ledger().ToCsv();

    // Journal-only lineage: the linear-replay control.
    const PrivateDir full_dir("sweep_full_h" + std::to_string(history));
    const std::string full_path = full_dir.journal();
    Marketplace full_market = MakeMarket(seed);
    if (!full_market.EnableJournal(full_path, Journal::Options{}).ok()) {
      std::exit(2);
    }
    feed(full_market, history + tail);
    SOAK_CHECK(full_market.FlushJournal().ok(), "sweep: flush failed");
    const std::string full_csv = full_market.ledger().ToCsv();

    double best_ckpt = 0.0;
    double best_full = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      Marketplace restored = MakeMarket(seed);
      Marketplace::RestoreOptions options;
      options.hydrate = false;  // O(delta): defer the entry-log load.
      Marketplace::RestoreReport report;
      const auto t0 = std::chrono::steady_clock::now();
      const Status status =
          restored.RestoreFromCheckpoint(ckpt_path, options, &report);
      const double ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count();
      SOAK_CHECK(status.ok(), "sweep: checkpoint restore failed: %s",
                 status.ToString().c_str());
      SOAK_CHECK(report.tail_records == tail,
                 "sweep: tail %lld != delta %lld",
                 static_cast<long long>(report.tail_records),
                 static_cast<long long>(tail));
      best_ckpt = rep == 0 ? ms : std::min(best_ckpt, ms);
      if (rep == 0) {
        // Aggregates restore without the row log; hydration brings the
        // rows back bit-identically.
        SOAK_CHECK(restored.total_revenue() == ckpt_market.total_revenue(),
                   "sweep: deferred-hydration revenue differs");
        SOAK_CHECK(restored.HydrateLedger().ok(), "sweep: hydrate failed");
        SOAK_CHECK(restored.ledger().ToCsv() == ckpt_csv,
                   "sweep: checkpoint-restored ledger differs byte-wise");
      }

      // No snapshot exists for the journal-only lineage, so the restore
      // ladder's last rung replays the whole journal.
      Marketplace replayed = MakeMarket(seed);
      const auto t1 = std::chrono::steady_clock::now();
      const Status replay_status = replayed.RestoreFromCheckpoint(full_path);
      const double replay_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t1)
              .count();
      SOAK_CHECK(replay_status.ok(), "sweep: full replay failed: %s",
                 replay_status.ToString().c_str());
      best_full = rep == 0 ? replay_ms : std::min(best_full, replay_ms);
      if (rep == 0) {
        SOAK_CHECK(replayed.ledger().ToCsv() == full_csv,
                   "sweep: replayed ledger differs byte-wise");
      }
    }
    ckpt_ms[h] = best_ckpt;
    full_ms[h] = best_full;
  }

  // The headline claim: 10x more history must NOT mean 10x slower
  // checkpoint recovery (the tail is constant), while full replay is
  // expected to scale with history. Thresholds leave slack for noisy
  // machines without letting a linear checkpoint restore sneak through.
  const double ckpt_ratio = ckpt_ms[0] > 0.0 ? ckpt_ms[1] / ckpt_ms[0] : 0.0;
  const double full_ratio = full_ms[0] > 0.0 ? full_ms[1] / full_ms[0] : 0.0;
  SOAK_CHECK(ckpt_ratio < 5.0,
             "sweep: checkpoint restore scaled %.2fx across 10x history "
             "(expected flat)",
             ckpt_ratio);
  SOAK_CHECK(full_ratio > 3.0,
             "sweep: full replay scaled only %.2fx across 10x history "
             "(control should be linear)",
             full_ratio);
  std::printf("   10x history: checkpoint restore %.2fx, full replay %.2fx\n",
              ckpt_ratio, full_ratio);
}

// Phase 6: sharded chaos soak. A bulkheaded catalog of N products (12
// in --fast, 100 otherwise), each shard checkpointed, replayed at each
// worker count in three waves:
//
//   wave 1 (healthy):  every product transacts; all requests succeed.
//   wave 2 (blast):    `journal.append@<victim>:1:enospc` is armed. The
//                      victim's next commit tears, poisons its journal,
//                      and quarantines exactly that shard; every other
//                      product's requests keep succeeding. A scoped
//                      snapshot fault is also armed against a second
//                      shard, whose next cadence checkpoint tears —
//                      degrading (never quarantining) it.
//   wave 3 (healed):   the background recovery loop re-admits the
//                      victim (snapshot + O(delta) journal tail — the
//                      tail must not exceed the checkpoint cadence);
//                      all products, victim included, transact again.
//
// After draining, per-product ledgers must be byte-identical across
// worker counts, fault-free shards must have shed/failed nothing (zero
// per-shard SLO burn), and spot-checked shards must restore from their
// own directories byte-identically.
void RunShardedChaosPhase(uint64_t seed, bool fast,
                          const std::vector<int>& worker_counts) {
  const int num_products = fast ? 12 : 100;
  const int w1 = 12;  // Healthy wave, per product (> cadence: snapshots land).
  const int w2 = 2;   // Blast wave, per non-victim product.
  const int w3 = 6;   // Healed wave, per product.
  const int64_t cadence = 8;
  const auto product_name = [](int p) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "product-%03d", p);
    return std::string(buf);
  };
  const auto product_seed = [seed](int p) {
    return seed + 131 * static_cast<uint64_t>(p);
  };
  const std::string victim = product_name(3);
  const std::string degraded = product_name(7 % num_products);
  std::printf(
      "== phase 6: sharded chaos soak (%d products, victim %s, workers",
      num_products, victim.c_str());
  for (int workers : worker_counts) {
    std::printf(" %d", workers);
  }
  std::printf(")\n");

  using nimbus::market::Catalog;
  using nimbus::market::CatalogOptions;
  using nimbus::market::Shard;
  using nimbus::market::ShardState;

  // csvs[run][product]: per-product ledger CSV after the run drained.
  std::vector<std::vector<std::string>> csvs;
  for (int workers : worker_counts) {
    nimbus::fault::Reset();
    nimbus::telemetry::Registry::Global().ResetForTest();
    const std::string root =
        TempJournalPath("shards_w" + std::to_string(workers)) + ".d";

    CatalogOptions catalog_options;
    catalog_options.root_dir = root;
    catalog_options.shard_defaults.enable_checkpoints = true;
    catalog_options.shard_defaults.checkpoint_policy.every_records = cadence;
    catalog_options.recovery_interval_seconds = 0.005;
    catalog_options.recovery_backoff_base_seconds = 0.005;
    Catalog catalog(catalog_options);
    for (int p = 0; p < num_products; ++p) {
      const uint64_t mseed = product_seed(p);
      const Status added = catalog.AddProduct(
          product_name(p),
          [mseed]() -> nimbus::StatusOr<Marketplace> { return MakeMarket(mseed); });
      SOAK_CHECK(added.ok(), "shards(w=%d): AddProduct %d failed: %s", workers,
                 p, added.ToString().c_str());
    }
    MarketService service(
        &catalog,
        SoakServiceOptions(seed, workers, num_products * (w1 + 1)));
    SOAK_CHECK(service.Start().ok(), "shards(w=%d): Start failed", workers);
    int64_t ok_count = 0;

    // Submits `per_product` requests to every product except that
    // `only_one_for` (the victim mid-blast) gets exactly one — keeping
    // its lane-ticket stream identical across worker counts, since a
    // shed request consumes no ticket but an admitted-then-failed one
    // does. Each product sees its own deterministic request stream
    // (`base + i`), independent of every other product.
    const auto run_wave = [&](int per_product, int base,
                              const std::string& only_one_for,
                              const auto& on_result) {
      std::vector<std::future<PurchaseResult>> futures;
      std::vector<int> products;
      futures.reserve(static_cast<size_t>(per_product) * num_products);
      products.reserve(futures.capacity());
      for (int i = 0; i < per_product; ++i) {
        for (int p = 0; p < num_products; ++p) {
          if (i > 0 && product_name(p) == only_one_for) {
            continue;
          }
          PurchaseRequest request = MakeRequest(base + i);
          request.product_id = product_name(p);
          futures.push_back(service.Submit(std::move(request)));
          products.push_back(p);
        }
      }
      for (size_t i = 0; i < futures.size(); ++i) {
        on_result(products[i], futures[i].get());
      }
    };

    // Wave 1: all healthy.
    run_wave(w1, 0, "", [&](int p, const PurchaseResult& result) {
      SOAK_CHECK(result.status.ok(), "shards(w=%d): wave1 product %d: %s",
                 workers, p, result.status.ToString().c_str());
      ok_count += result.status.ok() ? 1 : 0;
    });

    // Wave 2: scoped blast. The victim's single request tears its
    // journal mid-append and fails; nobody else notices.
    // The victim's journal tears once; the degraded shard's snapshot
    // writes fail persistently (`:1:*`) — otherwise the commit after a
    // torn checkpoint immediately retries, lands, and self-heals before
    // the post-wave assertion can observe the degraded window.
    SOAK_CHECK(nimbus::fault::Configure("journal.append@" + victim +
                                        ":1:enospc,snapshot.write@" +
                                        degraded + ":1:*")
                   .ok(),
               "shards(w=%d): blast arm failed", workers);
    int64_t victim_failures = 0;
    run_wave(w2, w1, victim, [&](int p, const PurchaseResult& result) {
      if (product_name(p) == victim) {
        SOAK_CHECK(!result.status.ok(),
                   "shards(w=%d): victim wave2 request unexpectedly ok",
                   workers);
        victim_failures += result.status.ok() ? 0 : 1;
      } else {
        SOAK_CHECK(result.status.ok(), "shards(w=%d): wave2 product %d: %s",
                   workers, p, result.status.ToString().c_str());
        ok_count += result.status.ok() ? 1 : 0;
      }
    });
    SOAK_CHECK(victim_failures == 1,
               "shards(w=%d): expected exactly 1 victim failure, got %lld",
               workers, static_cast<long long>(victim_failures));

    // Blast radius: exactly the victim is quarantined.
    for (int p = 0; p < num_products; ++p) {
      Shard* shard = catalog.Find(product_name(p));
      if (product_name(p) == victim) {
        SOAK_CHECK(shard->state() == ShardState::kQuarantined,
                   "shards(w=%d): victim not quarantined (%s)", workers,
                   nimbus::market::ShardStateName(shard->state()));
      } else {
        SOAK_CHECK(shard->state() == ShardState::kServing,
                   "shards(w=%d): healthy product %d left serving (%s)",
                   workers, p,
                   nimbus::market::ShardStateName(shard->state()));
      }
    }

    // The background loop re-admits the victim. (Started only now, so
    // the wave-2 quarantine window is deterministic.)
    catalog.StartRecoveryLoop();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    Shard* victim_shard = catalog.Find(victim);
    while (victim_shard->state() != ShardState::kServing &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    SOAK_CHECK(victim_shard->state() == ShardState::kServing,
               "shards(w=%d): victim never re-admitted (%s: %s)", workers,
               nimbus::market::ShardStateName(victim_shard->state()),
               victim_shard->state_detail().c_str());
    const Marketplace::RestoreReport restore =
        victim_shard->last_restore_report();
    SOAK_CHECK(restore.source == Marketplace::RestoreReport::Source::kSnapshot,
               "shards(w=%d): victim recovery skipped the snapshot chain",
               workers);
    SOAK_CHECK(restore.tail_records <= cadence,
               "shards(w=%d): victim tail replay %lld exceeds cadence %lld "
               "(not O(delta))",
               workers, static_cast<long long>(restore.tail_records),
               static_cast<long long>(cadence));
    SOAK_CHECK(restore.snapshot_records + restore.tail_records == w1,
               "shards(w=%d): victim recovery covers %lld of %d sales",
               workers,
               static_cast<long long>(restore.snapshot_records +
                                      restore.tail_records),
               w1);

    // Wave 3: everyone (victim included) transacts again. The degraded
    // shard's cadence checkpoint tears here — it must keep serving.
    run_wave(w3, w1 + w2, "", [&](int p, const PurchaseResult& result) {
      SOAK_CHECK(result.status.ok(), "shards(w=%d): wave3 product %d: %s",
                 workers, p, result.status.ToString().c_str());
      ok_count += result.status.ok() ? 1 : 0;
    });
    Shard* degraded_shard = catalog.Find(degraded);
    SOAK_CHECK(degraded_shard->state() == ShardState::kDegraded,
               "shards(w=%d): snapshot-torn shard is %s, expected degraded",
               workers,
               nimbus::market::ShardStateName(degraded_shard->state()));
    SOAK_CHECK(degraded_shard->stats().quarantines == 0,
               "shards(w=%d): snapshot fault must degrade, never quarantine",
               workers);
    nimbus::fault::Reset();

    catalog.StopRecoveryLoop();
    const Status drained = service.Drain();
    SOAK_CHECK(drained.ok(), "shards(w=%d): Drain failed: %s", workers,
               drained.ToString().c_str());

    // Per-shard SLO burn: every fault-free lane shed and failed nothing.
    int64_t victim_bad = 0;
    for (const MarketService::ShardView& view : service.ShardViews()) {
      if (view.product_id == victim) {
        victim_bad = view.shed + view.failed;
        SOAK_CHECK(view.shard_stats.quarantines == 1,
                   "shards(w=%d): victim quarantined %lld times", workers,
                   static_cast<long long>(view.shard_stats.quarantines));
        SOAK_CHECK(view.shard_stats.recoveries == 1,
                   "shards(w=%d): victim recovered %lld times", workers,
                   static_cast<long long>(view.shard_stats.recoveries));
      } else {
        SOAK_CHECK(view.shed == 0 && view.failed == 0,
                   "shards(w=%d): fault-free %s burned SLO (shed %lld, "
                   "failed %lld)",
                   workers, view.product_id.c_str(),
                   static_cast<long long>(view.shed),
                   static_cast<long long>(view.failed));
      }
    }
    SOAK_CHECK(victim_bad == 1, "shards(w=%d): victim bad outcomes %lld != 1",
               workers, static_cast<long long>(victim_bad));

    // Collect per-product ledgers; spot-check that shard directories
    // restore byte-identically (victim, the degraded shard, product 0).
    std::vector<std::string> run_csvs;
    for (int p = 0; p < num_products; ++p) {
      Shard* shard = catalog.Find(product_name(p));
      const std::shared_ptr<Marketplace> market = shard->market();
      const int expected =
          product_name(p) == victim ? w1 + w3 : w1 + w2 + w3;
      CheckLedgerInvariants(*market, expected, "shards");
      run_csvs.push_back(market->ledger().ToCsv());
      if (p == 0 || product_name(p) == victim || product_name(p) == degraded) {
        Marketplace probe = MakeMarket(product_seed(p));
        const Status restored = probe.RestoreFromCheckpoint(
            shard->journal_path(), Marketplace::RestoreOptions{}, nullptr);
        SOAK_CHECK(restored.ok(), "shards(w=%d): product %d restore: %s",
                   workers, p, restored.ToString().c_str());
        SOAK_CHECK(restored.ok() &&
                       probe.ledger().ToCsv() == run_csvs.back(),
                   "shards(w=%d): product %d restores differently", workers,
                   p);
      }
    }
    csvs.push_back(std::move(run_csvs));

    ReportSlo(service, "shards", workers);
    std::printf("   workers=%d: products=%d ok=%lld victim tail=%lld/%lld\n",
                workers, num_products, static_cast<long long>(ok_count),
                static_cast<long long>(restore.tail_records),
                static_cast<long long>(cadence));

    // Best-effort cleanup of the per-shard tree.
    for (int p = 0; p < num_products; ++p) {
      const std::string dir = root + "/shards/" + product_name(p);
      RemoveRecoveryFiles(dir + "/journal");
      ::rmdir(dir.c_str());
    }
    ::rmdir((root + "/shards").c_str());
    ::rmdir(root.c_str());
  }

  // The bulkhead seam may change speed, never what is sold: every
  // product's ledger must be byte-identical across worker counts.
  int mismatches = 0;
  for (size_t run = 1; run < csvs.size(); ++run) {
    for (int p = 0; p < num_products; ++p) {
      mismatches += csvs[run][p] == csvs[0][p] ? 0 : 1;
      SOAK_CHECK(csvs[run][p] == csvs[0][p],
                 "shards: product %d ledger differs between workers=%d and "
                 "workers=%d",
                 p, worker_counts[run], worker_counts[0]);
    }
  }
  std::printf(
      "   per-product ledgers byte-identical across %zu worker counts: %s\n",
      csvs.size(), mismatches == 0 ? "yes" : "NO");
}

int64_t RegistryCounterValue(const char* name) {
  for (const auto& entry : nimbus::telemetry::Registry::Global().Snapshot()) {
    if (entry.name == name) {
      return entry.counter_value;
    }
  }
  return 0;
}

// Phase 7 (economic audit), two halves:
//
//   (a) Fault-free non-perturbation: the determinism stream replayed at
//   each worker count with the auditor off, then on (loop running, every
//   commit sampled). The auditor must find zero violations, and the
//   ledger must be byte-identical across every run — auditor on or off,
//   at every worker count.
//
//   (b) Detection drill: `audit.verify` armed as a counted fault, which
//   corrupts the price of exactly one SAMPLED COPY (the ledger is
//   untouched). The next audit pass must detect exactly one mispricing
//   violation, attribute it to the right offering and ticket, flip the
//   health report, auto-dump the flight ring exactly once, and surface
//   the first-failure timestamp at /auditz.
void RunAuditPhase(int requests, uint64_t seed,
                   const std::vector<int>& worker_counts) {
  std::printf("== phase 7: economic audit (%d requests)\n", requests);
  using nimbus::market::Auditor;
  using nimbus::market::AuditorOptions;

  std::vector<std::string> csvs;
  int64_t audited_commits = 0;

  // --- (a) fault-free: auditor off vs on, per worker count. ---
  for (int workers : worker_counts) {
    for (int arm = 0; arm < 2; ++arm) {
      const bool audited = arm == 1;
      AuditorOptions auditor_options;
      auditor_options.pass_interval_seconds = 0.005;
      SoloCatalog solo("audit_w" + std::to_string(workers), seed);
      Auditor auditor(auditor_options);
      ServiceOptions service_options =
          SoakServiceOptions(seed, workers, requests);
      if (audited) {
        service_options.auditor = &auditor;
        auditor.Start();
      }
      MarketService service(solo.catalog(), service_options);
      SOAK_CHECK(service.Start().ok(), "audit: Start failed");
      std::vector<std::future<PurchaseResult>> futures;
      futures.reserve(requests);
      for (int i = 0; i < requests; ++i) {
        futures.push_back(service.Submit(MakeRequest(i)));
      }
      int64_t ok_count = 0;
      for (auto& future : futures) {
        ok_count += future.get().status.ok() ? 1 : 0;
      }
      SOAK_CHECK(service.Drain().ok(), "audit(w=%d): Drain failed", workers);
      SOAK_CHECK(ok_count == requests, "audit(w=%d): %lld/%d ok", workers,
                 static_cast<long long>(ok_count), requests);
      if (audited) {
        auditor.Stop();
        auditor.RunPass();  // Drain whatever the loop had not consumed.
        const Auditor::Status status = auditor.GetStatus();
        SOAK_CHECK(status.violations == 0,
                   "audit(w=%d): %lld violations on a clean run", workers,
                   static_cast<long long>(status.violations));
        SOAK_CHECK(status.commits_observed == ok_count,
                   "audit(w=%d): observed %lld of %lld commits", workers,
                   static_cast<long long>(status.commits_observed),
                   static_cast<long long>(ok_count));
        audited_commits += status.samples_audited;
      }
      // The headline non-perturbation claim: ledger bytes do not depend
      // on whether the auditor watched.
      csvs.push_back(solo.market().ledger().ToCsv());
      std::printf("   workers=%d auditor=%s: ok=%lld\n", workers,
                  audited ? "on" : "off", static_cast<long long>(ok_count));
    }
  }
  int ledger_mismatches = 0;
  for (size_t i = 1; i < csvs.size(); ++i) {
    ledger_mismatches += csvs[i] == csvs[0] ? 0 : 1;
    SOAK_CHECK(csvs[i] == csvs[0],
               "audit: ledger differs between run 0 and run %zu "
               "(auditor must be observation-only)",
               i);
  }
  std::printf(
      "   ledgers byte-identical across %zu runs (auditor on/off x workers): "
      "%s; %lld samples audited\n",
      csvs.size(), ledger_mismatches == 0 ? "yes" : "NO",
      static_cast<long long>(audited_commits));

  // --- (b) detection drill. ---
  const int drill_requests = std::min(requests, 200);
  const int fault_nth = 5;  // Corrupt the 5th sampled commit's copy.
  const std::string dump_path = TempJournalPath("audit_dump");
  std::remove(dump_path.c_str());
  ::setenv("NIMBUS_FLIGHT_RECORDER", dump_path.c_str(), 1);
  nimbus::telemetry::FlightRecorder::Global().ClearForTest();
  const int64_t dumps_before = RegistryCounterValue("flight_dumps_total");
  bool drill_detected = false;
  int64_t drill_violations = 0;
  std::string drill_offering;
  int64_t drill_ticket = -1;
  {
    SoloCatalog solo("audit_drill", seed);
    Auditor auditor(AuditorOptions{});  // No loop: passes run on demand.
    ServiceOptions service_options = SoakServiceOptions(seed, 2, requests);
    service_options.auditor = &auditor;
    MarketService service(solo.catalog(), service_options);
    SOAK_CHECK(service.Start().ok(), "audit drill: Start failed");
    const Status armed = nimbus::fault::Configure(
        "audit.verify:" + std::to_string(fault_nth) + ":1");
    SOAK_CHECK(armed.ok(), "audit drill: fault arm failed");
    std::vector<std::future<PurchaseResult>> futures;
    for (int i = 0; i < drill_requests; ++i) {
      futures.push_back(service.Submit(MakeRequest(i)));
    }
    for (auto& future : futures) {
      const PurchaseResult result = future.get();
      SOAK_CHECK(result.status.ok(), "audit drill: request failed: %s",
                 result.status.ToString().c_str());
    }
    SOAK_CHECK(service.Drain().ok(), "audit drill: Drain failed");
    nimbus::fault::Reset();
    auditor.RunPass();
    const Auditor::Status status = auditor.GetStatus();
    drill_violations = status.violations;
    SOAK_CHECK(status.violations == 1,
               "audit drill: %lld violations, expected exactly 1",
               static_cast<long long>(status.violations));
    SOAK_CHECK(status.first_violation_t_ns > 0,
               "audit drill: first-violation timestamp missing");
    if (!status.recent.empty()) {
      const Auditor::Violation& v = status.recent.front();
      drill_detected =
          v.invariant == nimbus::market::AuditInvariant::kMispricing;
      drill_offering = v.offering;
      drill_ticket = v.ticket;
      SOAK_CHECK(drill_detected, "audit drill: wrong invariant '%s'",
                 nimbus::market::AuditInvariantName(v.invariant));
      SOAK_CHECK(v.offering == "logistic_regression",
                 "audit drill: offering '%s'", v.offering.c_str());
      // Counted fault + full sampling + per-lane commit order: the
      // corrupted copy is exactly the (nth)th commit, ticket nth-1 —
      // detection is deterministic, within one pass of the injection.
      SOAK_CHECK(v.ticket == fault_nth - 1,
                 "audit drill: flagged ticket %lld, expected %d",
                 static_cast<long long>(v.ticket), fault_nth - 1);
      SOAK_CHECK(v.trace_id != 0, "audit drill: violation lost its trace id");
    }
    // The ledger itself must be clean — the fault corrupted only the
    // auditor's sampled copy, so conservation and re-priced ledger rows
    // still hold (exactly one violation total proves it).
    CheckLedgerInvariants(solo.market(), drill_requests, "audit drill");
    // Health report: a detected violation is quarantine-grade.
    const MarketService::HealthReport health = service.GetHealthReport();
    SOAK_CHECK(!health.healthy,
               "audit drill: health report still healthy after violation");
    bool annotated = false;
    for (const std::string& problem : health.problems) {
      annotated = annotated ||
                  problem.find("audit violation") != std::string::npos;
    }
    SOAK_CHECK(annotated, "audit drill: no audit annotation in health report");
    // /auditz surfaces the verdict with its first-failure timestamp.
    nimbus::service::AdminServer admin(&service,
                                       nimbus::service::AdminServerOptions{});
    const std::string auditz = admin.HandlePath("/auditz");
    SOAK_CHECK(auditz.find("\"enabled\":true") != std::string::npos &&
                   auditz.find("mispricing") != std::string::npos,
               "audit drill: /auditz does not show the violation");
    SOAK_CHECK(auditz.find("first_failure_t_seconds") != std::string::npos,
               "audit drill: /auditz missing first-failure timestamp");
  }
  const int64_t dumps_after = RegistryCounterValue("flight_dumps_total");
  const int64_t drill_dumps = dumps_after - dumps_before;
  SOAK_CHECK(drill_dumps == 1,
             "audit drill: %lld incident dumps, expected exactly 1",
             static_cast<long long>(drill_dumps));
  ::unsetenv("NIMBUS_FLIGHT_RECORDER");
  std::remove(dump_path.c_str());
  std::printf(
      "   drill: injected mispricing detected=%s (ticket %lld, offering %s, "
      "%lld violation(s), %lld incident dump(s))\n",
      drill_detected ? "yes" : "NO", static_cast<long long>(drill_ticket),
      drill_offering.c_str(), static_cast<long long>(drill_violations),
      static_cast<long long>(drill_dumps));
}

// Phase 3 (optional, --admin-port): keep a service under steady traffic
// while the admin endpoint serves scrapes — the CI smoke target and a
// hands-on curl playground (see bench/README.md).
void RunAdminServeWindow(uint64_t seed, int port, double seconds) {
  std::printf("== phase 3: live admin window (port %d, %.1f s)\n", port,
              seconds);
  SoloCatalog solo("admin", seed);
  // Run the economic auditor live so /auditz and /statz serve real
  // verdicts and history during the curl window (detection-only; the
  // ledger is unaffected).
  nimbus::market::Auditor auditor(nimbus::market::AuditorOptions{});
  auditor.Start();
  nimbus::service::ServiceOptions service_options =
      SoakServiceOptions(seed, 2, 256);
  service_options.auditor = &auditor;
  MarketService service(solo.catalog(), service_options);
  const Status started = service.Start();
  SOAK_CHECK(started.ok(), "admin: Start failed: %s",
             started.ToString().c_str());
  nimbus::service::AdminServerOptions admin_options;
  admin_options.port = port;
  admin_options.slow_us = 1e5;
  nimbus::service::AdminServer admin(&service, admin_options);
  const Status serving = admin.Start();
  SOAK_CHECK(serving.ok(), "admin: server Start failed: %s",
             serving.ToString().c_str());
  if (!serving.ok()) {
    return;
  }
  std::printf("   admin listening on http://127.0.0.1:%d (metrics healthz "
              "tracez flightz auditz statz)\n",
              admin.port());
  std::fflush(stdout);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(seconds);
  int i = 0;
  std::vector<std::future<PurchaseResult>> futures;
  while (std::chrono::steady_clock::now() < deadline) {
    for (int burst = 0; burst < 32; ++burst) {
      futures.push_back(service.Submit(MakeRequest(i++)));
    }
    for (auto& future : futures) {
      future.get();
    }
    futures.clear();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const Status drained = service.Drain();
  SOAK_CHECK(drained.ok(), "admin: Drain failed: %s",
             drained.ToString().c_str());
  // Serve a beat longer so a scraper can watch /healthz flip to 503.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  admin.Stop();
  auditor.Stop();
  auditor.RunPass();
  const nimbus::market::Auditor::Status audit_status = auditor.GetStatus();
  SOAK_CHECK(audit_status.violations == 0,
             "admin: serve window flagged %lld audit violations",
             static_cast<long long>(audit_status.violations));
  std::printf("   served %d requests during the window (%lld audited, "
              "0 violations)\n",
              i, static_cast<long long>(audit_status.samples_audited));
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = BoolFlag(argc, argv, "fast");
  const int requests = IntFlag(argc, argv, "requests", fast ? 600 : 10000);
  const int queue = IntFlag(argc, argv, "queue", 64);
  const uint64_t seed =
      static_cast<uint64_t>(IntFlag(argc, argv, "seed", 20190642));
  // Counted windows sized to stay inside the retry budgets (max 3
  // consecutive failures per point vs 6 quote / 4 journal attempts).
  const std::string default_faults =
      "service.execute:7:3,broker.quote:23:3,journal.append:11:2";
  const std::string fault_spec =
      StringFlag(argc, argv, "faults",
                 std::getenv("NIMBUS_FAULTS") != nullptr ? "" : default_faults);
  const bool metrics = BoolFlag(argc, argv, "metrics");
  const std::string metrics_path = StringFlag(argc, argv, "metrics", "");
  g_slo_report = BoolFlag(argc, argv, "slo-report");
  const int admin_port = IntFlag(argc, argv, "admin-port", -1);
  const double serve_seconds =
      static_cast<double>(IntFlag(argc, argv, "serve-seconds", 5));
  const std::string profile_path = StringFlag(argc, argv, "profile", "");

  if (!profile_path.empty()) {
    const Status prof_started = nimbus::prof::CpuProfiler::Global().Start();
    if (!prof_started.ok()) {
      std::fprintf(stderr, "cannot start CPU profiler: %s\n",
                   prof_started.ToString().c_str());
      return 2;
    }
  }

  std::vector<int> worker_counts = fast ? std::vector<int>{1, 4}
                                        : std::vector<int>{1, 4, 8};
  RunDeterminismPhase(requests, seed, fault_spec, worker_counts);
  if (metrics) {
    std::printf("%s\n", nimbus::telemetry::SnapshotToText(
                            nimbus::telemetry::Registry::Global().Snapshot())
                            .c_str());
  }
  RunOverloadPhase(requests, seed + 1, queue, fast ? 2 : 4, 4);
  if (metrics) {
    std::printf("%s\n", nimbus::telemetry::SnapshotToText(
                            nimbus::telemetry::Registry::Global().Snapshot())
                            .c_str());
  }
  RunCrashRecoveryDrill(requests, seed + 3, worker_counts);
  RunRecoverySweep(fast, seed + 4);
  RunShardedChaosPhase(seed + 5, fast, worker_counts);
  RunAuditPhase(requests, seed + 6, worker_counts);
  if (metrics) {
    std::printf("%s\n", nimbus::telemetry::SnapshotToText(
                            nimbus::telemetry::Registry::Global().Snapshot())
                            .c_str());
  }
  if (admin_port >= 0) {
    RunAdminServeWindow(seed + 2, admin_port, serve_seconds);
  }

  if (!profile_path.empty()) {
    auto& profiler = nimbus::prof::CpuProfiler::Global();
    const Status prof_stopped = profiler.Stop();
    if (!prof_stopped.ok()) {
      std::fprintf(stderr, "profiler Stop failed: %s\n",
                   prof_stopped.ToString().c_str());
      return 2;
    }
    const std::string folded = profiler.FoldedText();
    if (!WriteFile(profile_path, folded)) {
      std::fprintf(stderr, "cannot write profile to '%s'\n",
                   profile_path.c_str());
      return 2;
    }
    std::printf(
        "cpu profile written to %s (%lld samples, handler overhead %.4f%% "
        "of process CPU)\n",
        profile_path.c_str(),
        static_cast<long long>(profiler.SampleCount()),
        profiler.last_overhead_ratio() * 100.0);
  }

  if (!metrics_path.empty()) {
    const std::string json = nimbus::telemetry::SnapshotToJson(
        nimbus::telemetry::Registry::Global().Snapshot());
    if (!WriteFile(metrics_path, json + "\n")) {
      std::fprintf(stderr, "cannot write metrics to '%s'\n",
                   metrics_path.c_str());
      return 2;
    }
    std::printf("metrics snapshot written to %s\n", metrics_path.c_str());
  }

  if (g_violations > 0) {
    std::printf("FAIL: %d invariant violation(s)\n", g_violations);
    return 1;
  }
  std::printf("PASS: zero invariant violations\n");
  return 0;
}
