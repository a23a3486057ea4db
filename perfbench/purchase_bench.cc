// Closed-loop purchase benchmark for the Nimbus serving stack.
//
// One run of one workload:
//   1. set-up, repeated: negotiate each product's pricing, open its shard
//      (trains the model), build its error curves cold, start the
//      service, run the warm-up purchases. The last repetition serves;
//      setup_s is the median.
//   2. timed phase: one submitter thread keeps a fixed window of
//      purchases outstanding through service::MarketService::Submit and
//      sends the next one only when the oldest resolves (closed loop). It
//      runs a fixed number of purchases, so every run and every version
//      of the code does the same work over the same ledger history.
//   3. crash image: the shard directories as a crash would leave them
//      (journals flushed to the OS, no drain snapshot), then a graceful
//      drain and the correctness gates.
//   4. restore, repeated: each repetition is a fresh process (this
//      binary with --restore-from) that reopens the catalog from the crash
//      image (snapshot + journal tail replay), as a restarting server
//      would; restore_s is the median.
//   5. with --trace 1 only, a single-threaded replay on the served catalog
//      calls each layer's public function in serving order, alternating
//      traced and untraced blocks, and reports per-layer self times.
//
// Prints a header, human-readable phase lines, and as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}. Exits 1 when
// any correctness gate fails.
//
// Usage: purchase_bench --workload hot_product|wide_catalog --seed N
//            --seconds S --trace 0|1 --state-dir DIR --out-dir DIR
//            [--source-id ID]
//        purchase_bench --workload W --seed N --restore-from DIR
//            (one restore repetition; prints its sample for the parent)

#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/flight_recorder.h"
#include "common/random.h"
#include "common/telemetry.h"
#include "data/synthetic.h"
#include "market/auditor.h"
#include "market/catalog.h"
#include "market/curves.h"
#include "market/journal.h"
#include "market/market_simulator.h"
#include "market/marketplace.h"
#include "market/snapshot.h"
#include "service/service.h"
#include "span_trace.h"

namespace {

namespace fs = std::filesystem;
using nimbus::Rng;
using nimbus::Status;
using nimbus::StatusOr;
using nimbus::market::Auditor;
using nimbus::market::AuditTap;
using nimbus::market::Broker;
using nimbus::market::Catalog;
using nimbus::market::CatalogOptions;
using nimbus::market::Marketplace;
using nimbus::market::Shard;
using nimbus::market::ShardState;
using nimbus::ml::ModelKind;
using nimbus::service::MarketService;
using nimbus::service::PurchaseRequest;
using nimbus::service::PurchaseResult;
using nimbus::service::ServiceOptions;
using perfbench::NowNs;
using perfbench::Span;
using perfbench::SpanTracer;

// Why each workload exists is recorded in perfbench/README.md.
struct Workload {
  const char* name;
  int products;
  // Service workers; with the submitter and the auditor thread (when on)
  // the process stays within 4 busy threads.
  int workers;
  bool auditor;
  int setup_reps;
  int restore_reps;
  // Purchases served at the end of every set-up repetition.
  int warmup_purchases;
  // Work per second of --seconds, sized so that on the machine in
  // perfbench/README.md the phase takes about that long. Fixed counts
  // rather than deadlines: on hot_product the commit cost grows with the
  // ledger, so a deadline would let a slower program book fewer, cheaper
  // sales and hide most of its slowdown.
  double timed_purchases_per_s;
  double replay_blocks_per_s;
};

const Workload kWorkloads[] = {
    {"hot_product", 1, 1, false, 31, 15, 1000, 10000.0, 3.2},
    {"wide_catalog", 200, 2, true, 5, 9, 4096, 70000.0, 30.0},
};

constexpr int kWindow = 16;               // Purchases outstanding.
constexpr int64_t kCheckpointEvery = 1024;  // Ledger records per snapshot.
constexpr int kBuyers = 1000;
constexpr int kVersions = 100;        // Buyers pick x = 1/NCP in 1..100.
// One checkpoint cadence per replay block, so on one shard every block
// holds exactly one checkpoint; blocks run traced/untraced in the order
// T U U T, so neither side sees systematically longer history.
constexpr int kReplayBlock = static_cast<int>(kCheckpointEvery);
constexpr size_t kKeptSpans = 65536;
constexpr ModelKind kModel = ModelKind::kLogisticRegression;

std::vector<std::string> g_failures;

void Gate(bool ok, const std::string& what) {
  if (!ok) {
    g_failures.push_back(what);
    std::printf("GATE FAILED: %s\n", what.c_str());
  }
}

// Seconds spent in Marketplace::AddOffering by the shard factories since
// the last reset (factories run on the main thread inside AddProduct).
double g_train_seconds = 0.0;

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Micros(int64_t ns) { return static_cast<double>(ns) * 1e-3; }

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank quantile.
double Quantile(std::vector<float>& v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  size_t k = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  k = std::min(std::max<size_t>(k, 1), v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

uint64_t Fnv64(const std::string& key) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : key) {
    h = (h ^ c) * 1099511628211ULL;
  }
  return h;
}

uint64_t SplitMix(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Product {
  std::string id;
  uint64_t seed = 0;
  std::shared_ptr<const nimbus::pricing::PricingFunction> pricing;
};

// Seeded request stream: the service sees only these requests.
class RequestGenerator {
 public:
  RequestGenerator(uint64_t seed, const std::vector<Product>& products)
      : state_(seed), products_(products) {
    buyers_.reserve(kBuyers);
    for (int b = 0; b < kBuyers; ++b) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "buyer-%04d", b);
      buyers_.emplace_back(buf);
    }
  }

  PurchaseRequest Next(int* product) {
    const uint64_t r = SplitMix(state_);
    *product = static_cast<int>((r & 0xffffffffULL) % products_.size());
    PurchaseRequest request;
    request.buyer_id = buyers_[(r >> 32) % kBuyers];
    request.model = kModel;
    request.inverse_ncp = 1.0 + static_cast<double>((r >> 48) % kVersions);
    request.product_id = products_[*product].id;
    return request;
  }

 private:
  uint64_t state_;
  const std::vector<Product>& products_;
  std::vector<std::string> buyers_;
};

std::vector<Product> MakeProducts(const Workload& workload, uint64_t seed) {
  std::vector<Product> products(workload.products);
  for (int p = 0; p < workload.products; ++p) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "product-%03d", p);
    products[p].id = buf;
    products[p].seed = seed * 1000003ULL + 131ULL * static_cast<uint64_t>(p);
  }
  return products;
}

StatusOr<std::shared_ptr<const nimbus::pricing::PricingFunction>> Negotiate(
    uint64_t seed) {
  const double v_max = 60.0 + static_cast<double>(seed % 41);
  auto points = nimbus::market::MakeBuyerPoints(
      nimbus::market::ValueShape::kConcave,
      nimbus::market::DemandShape::kUniform, 10, 1.0, 100.0, v_max, 2.0);
  if (!points.ok()) {
    return points.status();
  }
  auto seller = nimbus::market::Seller::Create(*points);
  if (!seller.ok()) {
    return seller.status();
  }
  return seller->NegotiatePricing();
}

// The shard factory: one dataset and one offering per product, with the
// broker's default curve geometry (25 points x 200 draws over 1..100).
StatusOr<Marketplace> BuildMarket(const Product& product) {
  Rng rng(product.seed);
  nimbus::data::ClassificationSpec spec;
  spec.num_examples = 300;
  spec.num_features = 5;
  spec.positive_prob = 0.9;
  nimbus::data::Dataset all = nimbus::data::GenerateClassification(spec, rng);
  Broker::Options options;
  options.seed = product.seed;
  Marketplace market(nimbus::data::Split(all, 0.75, rng), options);
  const int64_t start = NowNs();
  const Status added = market.AddOffering(kModel, 0.01, product.pricing);
  g_train_seconds += Seconds(NowNs() - start);
  if (!added.ok()) {
    return added;
  }
  return market;
}

CatalogOptions MakeCatalogOptions(const std::string& root) {
  CatalogOptions options;
  options.root_dir = root;
  options.shard_defaults.journal.fsync =
      nimbus::market::Journal::FsyncPolicy::kNone;
  options.shard_defaults.enable_checkpoints = true;
  options.shard_defaults.checkpoint_policy.every_records = kCheckpointEvery;
  return options;
}

StatusOr<std::unique_ptr<Catalog>> OpenCatalog(
    const std::string& root, const std::vector<Product>& products,
    std::vector<double>* open_seconds) {
  auto catalog = std::make_unique<Catalog>(MakeCatalogOptions(root));
  for (const Product& product : products) {
    const int64_t start = NowNs();
    const Status added = catalog->AddProduct(
        product.id,
        [product]() -> StatusOr<Marketplace> { return BuildMarket(product); });
    if (open_seconds != nullptr) {
      open_seconds->push_back(Seconds(NowNs() - start));
    }
    if (!added.ok()) {
      return added;
    }
  }
  return catalog;
}

// One serving stack. Members are destroyed in reverse order: the
// service drains before the auditor it taps, and both before the
// catalog they serve. Held by pointer and never assigned, because
// member-wise assignment would release the catalog first.
struct Stack {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<Auditor> auditor;
  std::unique_ptr<MarketService> service;
};

struct SetupTimes {
  double total_s = 0.0;
  double negotiate_s = 0.0;
  double train_s = 0.0;
  double curve_build_s = 0.0;
};

StatusOr<std::unique_ptr<Stack>> BuildStack(const Workload& workload,
                                            std::vector<Product>& products,
                                            const std::string& root,
                                            uint64_t seed, SetupTimes* times) {
  for (Product& product : products) {
    const int64_t t0 = NowNs();
    auto pricing = Negotiate(product.seed);
    times->negotiate_s += Seconds(NowNs() - t0);
    if (!pricing.ok()) {
      return pricing.status();
    }
    product.pricing = *std::move(pricing);
  }
  auto stack = std::make_unique<Stack>();
  g_train_seconds = 0.0;
  auto catalog = OpenCatalog(root, products, nullptr);
  times->train_s = g_train_seconds;
  if (!catalog.ok()) {
    return catalog.status();
  }
  stack->catalog = *std::move(catalog);
  // Cold curve builds, timed here so MarketService::Start finds them warm.
  for (const auto& shard : stack->catalog->shards()) {
    std::shared_ptr<Marketplace> market = shard->market();
    for (ModelKind kind : market->Offerings()) {
      auto broker = market->BrokerFor(kind);
      if (!broker.ok()) {
        return broker.status();
      }
      for (const auto& loss : (*broker)->model().report_losses()) {
        const int64_t t0 = NowNs();
        const auto curve = (*broker)->GetErrorCurve(loss->name());
        times->curve_build_s += Seconds(NowNs() - t0);
        if (!curve.ok()) {
          return curve.status();
        }
      }
    }
  }
  ServiceOptions options;
  options.num_workers = workload.workers;
  options.queue_capacity = 4 * kWindow;
  options.seed = seed;
  if (workload.auditor) {
    stack->auditor =
        std::make_unique<Auditor>(nimbus::market::AuditorOptions{});
    options.auditor = stack->auditor.get();
  }
  stack->service =
      std::make_unique<MarketService>(stack->catalog.get(), options);
  const Status started = stack->service->Start();
  if (!started.ok()) {
    return started;
  }
  if (stack->auditor != nullptr) {
    stack->auditor->Start();
  }
  return stack;
}

struct PhaseCounts {
  int64_t sent = 0;
  int64_t succeeded = 0;
  int64_t failed = 0;
};

// What the client saw per product, in ticket order (the window resolves
// oldest first, and each lane commits its tickets in order), so the sums
// reproduce the ledger's own accumulation bit for bit.
struct ProductBook {
  int64_t sales = 0;
  double revenue = 0.0;
};

struct ServeResult {
  PhaseCounts counts;
  double wall_s = 0.0;
  std::vector<float> latency_us;
  std::vector<float> submit_us;
};

// Closed loop: keep kWindow purchases outstanding; submit the next only
// after the oldest resolves. Submits `purchases` in all and waits for the
// window to empty. The submitter polls the oldest future instead of
// sleeping on it, so the client's own wake-up, whose cost on a VM moves
// with the host, stays out of the service's latency.
ServeResult Serve(MarketService& service, RequestGenerator& generator,
                  std::vector<ProductBook>& books, int64_t purchases) {
  struct Pending {
    std::future<PurchaseResult> future;
    int64_t submit_ns;
    int product;
  };
  ServeResult out;
  std::deque<Pending> window;
  const int64_t start = NowNs();
  while (true) {
    while (static_cast<int>(window.size()) < kWindow &&
           out.counts.sent < purchases) {
      int product = 0;
      PurchaseRequest request = generator.Next(&product);
      const int64_t t0 = NowNs();
      std::future<PurchaseResult> future = service.Submit(std::move(request));
      out.submit_us.push_back(static_cast<float>(Micros(NowNs() - t0)));
      window.push_back(Pending{std::move(future), t0, product});
      ++out.counts.sent;
    }
    if (window.empty()) {
      break;
    }
    Pending pending = std::move(window.front());
    window.pop_front();
    while (pending.future.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
    }
    const PurchaseResult result = pending.future.get();
    out.latency_us.push_back(
        static_cast<float>(Micros(NowNs() - pending.submit_ns)));
    if (result.status.ok()) {
      ++out.counts.succeeded;
      ProductBook& book = books[pending.product];
      ++book.sales;
      book.revenue += result.purchase.price;
    } else {
      ++out.counts.failed;
      if (out.counts.failed <= 3) {
        std::printf("purchase failed: %s\n", result.status.ToString().c_str());
      }
    }
  }
  out.wall_s = Seconds(NowNs() - start);
  return out;
}

// CPU seconds of the whole process (RUSAGE_SELF) or the calling thread
// (RUSAGE_THREAD).
double CpuSeconds(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

// Bytes this process has passed to write(2) and its kin (wchar in
// /proc/self/io): journal appends, snapshots, rotated segments, manifests.
// -1 when the file cannot be read.
int64_t BytesWritten() {
  std::ifstream in("/proc/self/io");
  std::string key;
  int64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") {
      return value;
    }
  }
  return -1;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// CRC-32 over the encoded journal payloads of a shard's ledger entries.
// The ledger must be hydrated.
uint32_t LedgerCrc(const Marketplace& market) {
  std::string bytes;
  for (const auto& entry : market.ledger().entries()) {
    bytes += nimbus::market::Journal::EncodePayload(entry);
  }
  return nimbus::market::Journal::Crc32(bytes.data(), bytes.size());
}

struct ShardBook {
  uint64_t revenue_bits = 0;
  int64_t sales = 0;
  uint32_t crc = 0;
};

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

ShardBook ReadShardBook(const Shard& shard) {
  std::shared_ptr<Marketplace> market = shard.market();
  ShardBook book;
  book.revenue_bits = Bits(market->total_revenue());
  book.sales = market->ledger().SaleCount();
  book.crc = LedgerCrc(*market);
  return book;
}

// One restore repetition: reopen every shard from the crash image and
// read back what it restored.
struct RestoreSample {
  double seconds = 0.0;
  double open_mean_s = 0.0;  // Mean Catalog::AddProduct (Shard::Open).
  double train_s = 0.0;      // Model training inside the opens.
  int64_t snapshot_records = 0;
  int64_t tail_records = 0;
  bool serving = true;  // Every shard came back serving.
  std::vector<ShardBook> books;
};

StatusOr<RestoreSample> RestoreOnce(const std::string& root,
                                    const std::vector<Product>& products) {
  RestoreSample out;
  std::vector<double> opens;
  g_train_seconds = 0.0;
  const int64_t start = NowNs();
  auto reopened = OpenCatalog(root, products, &opens);
  out.seconds = Seconds(NowNs() - start);
  out.train_s = g_train_seconds;
  if (!reopened.ok()) {
    return reopened.status();
  }
  for (double o : opens) {
    out.open_mean_s += o / static_cast<double>(opens.size());
  }
  for (const Product& product : products) {
    const Shard* shard = (*reopened)->Find(product.id);
    const auto report = shard->last_restore_report();
    out.snapshot_records += report.snapshot_records;
    out.tail_records += report.tail_records;
    out.serving = out.serving && shard->state() == ShardState::kServing;
    out.books.push_back(ReadShardBook(*shard));
  }
  return out;
}

// The child writes its sample as text lines; the parent parses them.
void PrintRestoreSample(const RestoreSample& r) {
  std::printf("restore %.17g %.17g %.17g %" PRId64 " %" PRId64 " %d\n",
              r.seconds, r.open_mean_s, r.train_s, r.snapshot_records,
              r.tail_records, r.serving ? 1 : 0);
  for (const ShardBook& b : r.books) {
    std::printf("book %" PRIu64 " %" PRId64 " %" PRIu32 "\n", b.revenue_bits,
                b.sales, b.crc);
  }
}

StatusOr<RestoreSample> ParseRestoreSample(const std::string& text) {
  RestoreSample r;
  int serving = 0;
  bool header = false;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) {
      end = text.size();
    }
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    ShardBook b;
    if (std::sscanf(line.c_str(), "restore %lf %lf %lf %" SCNd64 " %" SCNd64
                    " %d",
                    &r.seconds, &r.open_mean_s, &r.train_s,
                    &r.snapshot_records, &r.tail_records, &serving) == 6) {
      header = true;
    } else if (std::sscanf(line.c_str(), "book %" SCNu64 " %" SCNd64
                           " %" SCNu32,
                           &b.revenue_bits, &b.sales, &b.crc) == 3) {
      r.books.push_back(b);
    }
  }
  if (!header) {
    return nimbus::InternalError("restore child printed no sample");
  }
  r.serving = serving == 1;
  return r;
}

// Runs this binary with `args` (argv[0] included), waits for it, and
// returns its standard output; an error when it exits non-zero.
StatusOr<std::string> RunSelf(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  int fds[2];
  if (::pipe(fds) != 0) {
    return nimbus::InternalError("pipe failed");
  }
  std::fflush(stdout);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return nimbus::InternalError("fork failed");
  }
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execv("/proc/self/exe", argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  std::string out;
  char buf[65536];
  ssize_t n = 0;
  while ((n = ::read(fds[0], buf, sizeof(buf))) != 0) {
    if (n > 0) {
      out.append(buf, static_cast<size_t>(n));
    } else if (errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return nimbus::InternalError("restore child failed (status " +
                                 std::to_string(status) + ")");
  }
  return out;
}

std::string JoinSeconds(const std::vector<double>& samples) {
  std::string out;
  for (double s : samples) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.4f", s);
    out += buf;
  }
  return out;
}

std::string FsTypeName(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) {
    return "unknown";
  }
  switch (static_cast<uint64_t>(info.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x794c7630:
      return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(info.f_type));
      return buf;
    }
  }
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Traced replay.

enum SpanName {
  kPurchaseSpan,  // Root of one purchase; its self time is benchmark glue.
  kGenerateSpan,
  kRouteSpan,
  kServeSpan,
  kCurveLookupSpan,
  kQuoteSpan,
  kRecordSpan,
  kCheckpointSpan,  // A RecordQuotedSale call that committed a checkpoint.
  kReportSpan,
  kAuditTapSpan,
  kAuditPassSpan,
};

std::vector<std::string> SpanNames() {
  return {"purchase",      "bench.generate", "catalog.route",
          "shard.serve",   "curve_cache.lookup", "broker.quote",
          "market.record", "checkpoint",     "shard.report",
          "auditor.tap",   "auditor.pass"};
}

struct ReplayResult {
  PhaseCounts counts;
  int64_t traced_purchases = 0;
  int64_t untraced_purchases = 0;
  int64_t traced_ns = 0;
  int64_t untraced_ns = 0;
  int64_t checkpoints = 0;
  int64_t snapshot_bytes = 0;
  int64_t bytes_written = 0;
  int64_t audit_passes = 0;
  int64_t audit_commits = 0;
};

struct ReplayLane {
  Shard* shard = nullptr;
  AuditTap* tap = nullptr;
  Rng rng{0};
  uint64_t ticket = 0;
  int64_t checkpoints = 0;
};

// Calls each layer's public function in the order the service does for
// one purchase; every call sits in a span when `tracer` is non-null.
// The auditor taps every commit on both workloads, so its per-call cost
// is visible even where the serving phase runs without it.
ReplayResult Replay(Catalog& catalog, const std::vector<Product>& products,
                    uint64_t seed, int64_t blocks, SpanTracer& tracer) {
  ReplayResult out;
  Auditor auditor(nimbus::market::AuditorOptions{});
  auditor.AttachCatalog(&catalog);
  std::vector<ReplayLane> lanes(products.size());
  for (size_t p = 0; p < products.size(); ++p) {
    ReplayLane& lane = lanes[p];
    lane.shard = catalog.Find(products[p].id);
    lane.tap = auditor.RegisterLane(products[p].id, lane.shard, nullptr);
    lane.rng = Rng(seed ^ Fnv64(products[p].id) ^ 0x5e9b1a7ULL);
    lane.checkpoints = lane.shard->market()->CheckpointStats()->checkpoints;
  }
  RequestGenerator generator(seed ^ 0x7265706c6179ULL, products);
  uint64_t index = 0;
  const int64_t written_before = BytesWritten();
  for (int64_t block = 0; block < blocks; ++block) {
    const bool traced = block % 4 == 0 || block % 4 == 3;
    SpanTracer* t = traced ? &tracer : nullptr;
    const int64_t block_start = NowNs();
    for (int k = 0; k < kReplayBlock; ++k, ++index) {
      ++out.counts.sent;
      Span root(t, kPurchaseSpan, index);
      int p = 0;
      PurchaseRequest request;
      {
        Span s(t, kGenerateSpan, index);
        request = generator.Next(&p);
      }
      ReplayLane& lane = lanes[p];
      Shard* shard = nullptr;
      {
        Span s(t, kRouteSpan, index);
        shard = catalog.Route(request.product_id);
      }
      std::shared_ptr<Marketplace> market;
      {
        Span s(t, kServeSpan, index);
        auto served = shard->Serve();
        if (served.ok()) {
          market = *std::move(served);
        }
      }
      if (market == nullptr || shard != lane.shard) {
        ++out.counts.failed;
        continue;
      }
      Broker* broker = nullptr;
      std::shared_ptr<const nimbus::pricing::ErrorCurve> curve;
      {
        Span s(t, kCurveLookupSpan, index);
        auto resolved = market->BrokerFor(request.model);
        if (resolved.ok()) {
          broker = *resolved;
          auto got = broker->GetErrorCurve(
              broker->model().report_losses().front()->name());
          if (got.ok()) {
            curve = *std::move(got);
          }
        }
      }
      if (curve == nullptr) {
        ++out.counts.failed;
        continue;
      }
      StatusOr<Broker::Purchase> quote = nimbus::InternalError("unset");
      {
        Span s(t, kQuoteSpan, index);
        Rng rng = lane.rng.Fork(lane.ticket++);
        quote = broker->QuoteAtInverseNcp(request.inverse_ncp, *curve, rng);
      }
      if (!quote.ok()) {
        ++out.counts.failed;
        continue;
      }
      StatusOr<int64_t> sequence = nimbus::InternalError("unset");
      {
        Span s(t, kRecordSpan, index);
        sequence =
            market->RecordQuotedSale(request.buyer_id, request.model, *quote);
      }
      const auto stats = market->CheckpointStats();
      if (stats.ok() && stats->checkpoints != lane.checkpoints) {
        lane.checkpoints = stats->checkpoints;
        ++out.checkpoints;
        if (t != nullptr) {
          t->RenameLast(kCheckpointSpan);
        }
        std::error_code ec;
        const auto size = fs::file_size(
            nimbus::market::snapshot::SnapshotPath(shard->journal_path(),
                                                   stats->last_generation),
            ec);
        out.snapshot_bytes += ec ? 0 : static_cast<int64_t>(size);
      }
      {
        Span s(t, kReportSpan, index);
        shard->ReportCommitOutcome(sequence.status());
      }
      if (!sequence.ok()) {
        ++out.counts.failed;
        continue;
      }
      {
        Span s(t, kAuditTapSpan, index);
        Auditor::CommitView view;
        view.model = request.model;
        view.inverse_ncp = quote->inverse_ncp;
        view.price = quote->price;
        view.booked_revenue_after = market->total_revenue();
        view.sales_after = market->ledger().SaleCount();
        view.ticket = static_cast<int64_t>(lane.ticket - 1);
        view.degraded = quote->degraded;
        auditor.OnCommit(lane.tap, view);
      }
      ++out.counts.succeeded;
    }
    {
      Span s(t, kAuditPassSpan, index);
      auditor.RunPass();
      ++out.audit_passes;
    }
    const int64_t block_ns = NowNs() - block_start;
    (traced ? out.traced_ns : out.untraced_ns) += block_ns;
    (traced ? out.traced_purchases : out.untraced_purchases) += kReplayBlock;
  }
  auditor.RunPass();
  for (const ReplayLane& lane : lanes) {
    const Status flushed = lane.shard->market()->FlushJournal();
    Gate(flushed.ok(), "journal flush failed: " + flushed.ToString());
  }
  out.bytes_written = BytesWritten() - written_before;
  const Auditor::Status status = auditor.GetStatus();
  out.audit_commits = status.commits_observed;
  Gate(status.violations == 0,
       "replay auditor reported " + std::to_string(status.violations) +
           " violation(s)");
  return out;
}

// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

std::string Flag(int argc, char** argv, const char* name,
                 const std::string& fallback) {
  const std::string flag = std::string("--") + name;
  for (int i = 1; i + 1 < argc; ++i) {
    if (flag == argv[i]) {
      return argv[i + 1];
    }
  }
  return fallback;
}

void PrintPhase(const char* phase, const PhaseCounts& counts) {
  std::printf("phase %-8s sent=%" PRId64 " succeeded=%" PRId64
              " failed=%" PRId64 "\n",
              phase, counts.sent, counts.succeeded, counts.failed);
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t process_start = NowNs();
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const std::string workload_name = Flag(argc, argv, "workload", "");
  const uint64_t seed = std::strtoull(
      Flag(argc, argv, "seed", "1").c_str(), nullptr, 10);
  const double seconds = std::atof(Flag(argc, argv, "seconds", "10").c_str());
  const bool trace = Flag(argc, argv, "trace", "0") == "1";
  const std::string state_root = Flag(argc, argv, "state-dir", "");
  const std::string out_dir = Flag(argc, argv, "out-dir", "");
  const std::string source_id = Flag(argc, argv, "source-id", "unknown");
  const std::string restore_from = Flag(argc, argv, "restore-from", "");

  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) {
      workload = &w;
    }
  }
  if (workload != nullptr && !restore_from.empty()) {
    std::vector<Product> products = MakeProducts(*workload, seed);
    for (Product& product : products) {
      auto pricing = Negotiate(product.seed);
      if (!pricing.ok()) {
        std::fprintf(stderr, "%s\n", pricing.status().ToString().c_str());
        return 1;
      }
      product.pricing = *std::move(pricing);
    }
    const auto restored = RestoreOnce(restore_from, products);
    if (!restored.ok()) {
      std::fprintf(stderr, "%s\n", restored.status().ToString().c_str());
      return 1;
    }
    PrintRestoreSample(*restored);
    return 0;
  }
  if (workload == nullptr || state_root.empty() || out_dir.empty() ||
      seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: purchase_bench --workload hot_product|wide_catalog "
                 "--seed N --seconds S --trace 0|1 --state-dir DIR "
                 "--out-dir DIR [--source-id ID]\n");
    return 2;
  }
  const std::string state_dir = state_root + "/" + workload->name + "-" +
                                std::to_string(::getpid());
  fs::remove_all(state_dir);
  fs::create_directories(state_dir);
  fs::create_directories(out_dir);

  const int64_t timed_purchases = std::max<int64_t>(
      1, std::llround(workload->timed_purchases_per_s * seconds));
  const int background = workload->auditor ? 1 : 0;
  const char* threads_env = std::getenv("NIMBUS_THREADS");
  std::printf("# purchase_bench workload=%s seed=%" PRIu64
              " seconds=%g trace=%d\n",
              workload->name, seed, seconds, trace ? 1 : 0);
  std::printf("# host: nproc=%ld cpu=\"%s\"\n", sysconf(_SC_NPROCESSORS_ONLN),
              CpuModel().c_str());
  std::printf("# build: compiler=\"g++ %s\" build_type=%s source=%s\n",
              __VERSION__, PERFBENCH_BUILD_TYPE, source_id.c_str());
  std::printf("# state: dir_fs=%s journal_fsync=kNone (shipped default; "
              "snapshots keep their own fsyncs)\n",
              FsTypeName(state_dir).c_str());
  std::printf("# threads: submitter=1 workers=%d background=%d (auditor) "
              "total=%d  NIMBUS_THREADS=%s (set-up curve builds)\n",
              workload->workers, background, 1 + workload->workers + background,
              threads_env != nullptr ? threads_env : "unset");
  std::printf("# load: closed loop, outstanding window=%d, products=%d, "
              "warm-up %d + timed %" PRId64 " purchases, checkpoint every "
              "%" PRId64 " records, auditor=%s\n",
              kWindow, workload->products, workload->warmup_purchases,
              timed_purchases, kCheckpointEvery,
              workload->auditor ? "on" : "off");

  std::vector<Product> products = MakeProducts(*workload, seed);

  // 1. Set-up, repeated; the last stack serves. A repetition runs up to
  // where the first timed purchase would go: pricing, shard opens, cold
  // curves, service start and the warm-up purchases.
  std::vector<SetupTimes> setups;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<RequestGenerator> generator;
  std::vector<ProductBook> books;
  ServeResult warm;
  auto& registry = nimbus::telemetry::Registry::Global();
  int64_t hits_before = 0;
  int64_t misses_before = 0;
  for (int rep = 0; rep < workload->setup_reps; ++rep) {
    const std::string root = state_dir + "/serve-" + std::to_string(rep);
    if (rep > 0) {
      stack.reset();
      fs::remove_all(state_dir + "/serve-" + std::to_string(rep - 1));
    }
    hits_before = registry.GetCounter("curve_cache_hits_total").Value();
    misses_before = registry.GetCounter("curve_cache_misses_total").Value();
    SetupTimes times;
    const int64_t rep_start = NowNs();
    auto built = BuildStack(*workload, products, root, seed, &times);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    stack = *std::move(built);
    generator = std::make_unique<RequestGenerator>(seed, products);
    books.assign(products.size(), ProductBook{});
    warm = Serve(*stack->service, *generator, books,
                 workload->warmup_purchases);
    times.total_s = Seconds(NowNs() - rep_start);
    Gate(warm.counts.failed == 0, "every warm-up purchase succeeds");
    setups.push_back(times);
  }
  const std::string serve_root =
      state_dir + "/serve-" + std::to_string(workload->setup_reps - 1);
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) {
      v.push_back(s.*field);
    }
    return Median(v);
  };
  const double setup_s = median_of(&SetupTimes::total_s);
  std::vector<double> setup_samples;
  for (const SetupTimes& s : setups) {
    setup_samples.push_back(s.total_s);
  }
  std::printf("setup: reps=%d median=%.4fs (negotiate %.4fs, train %.4fs, "
              "curve builds %.4fs); first timed purchase at %.3fs after "
              "start; samples%s\n",
              workload->setup_reps, setup_s,
              median_of(&SetupTimes::negotiate_s),
              median_of(&SetupTimes::train_s),
              median_of(&SetupTimes::curve_build_s),
              Seconds(NowNs() - process_start),
              JoinSeconds(setup_samples).c_str());

  // 2. The timed closed loop, continuing the last warm-up's stream.
  PrintPhase("warmup", warm.counts);
  // The serving threads' CPU: the process's minus the polling submitter's.
  const double cpu_before = CpuSeconds(RUSAGE_SELF) - CpuSeconds(RUSAGE_THREAD);
  ServeResult timed =
      Serve(*stack->service, *generator, books, timed_purchases);
  const double cpu_s =
      CpuSeconds(RUSAGE_SELF) - CpuSeconds(RUSAGE_THREAD) - cpu_before;
  PrintPhase("timed", timed.counts);
  const double peak_rss_mb = PeakRssMb();
  const std::vector<nimbus::telemetry::FlightRecord> flights =
      nimbus::telemetry::FlightRecorder::Global().Snapshot();
  const int64_t cache_hits =
      registry.GetCounter("curve_cache_hits_total").Value() - hits_before;
  const int64_t cache_misses =
      registry.GetCounter("curve_cache_misses_total").Value() - misses_before;

  const int64_t timed_ok = timed.counts.succeeded;
  const double rps = timed.wall_s > 0 ? timed_ok / timed.wall_s : 0.0;
  const size_t samples = timed.latency_us.size();
  const double p50 = Quantile(timed.latency_us, 0.50);
  const double p99 = Quantile(timed.latency_us, 0.99);
  const double cpu_us = timed_ok > 0 ? 1e6 * cpu_s / timed_ok : 0.0;
  std::printf("timed: %.3fs, %.1f purchases/s, latency p50 %.2fus p99 %.2fus "
              "(%zu samples, %zu beyond p99), cpu %.3fus/purchase, peak rss "
              "%.1fMB\n",
              timed.wall_s, rps, p50, p99, samples, samples / 100, cpu_us,
              peak_rss_mb);

  // 3. Crash image: journals flushed to the OS with the workers idle, and
  // the shard files hard-linked before the drain writes its snapshot.
  for (const auto& shard : stack->catalog->shards()) {
    const Status flushed = shard->market()->FlushJournal();
    Gate(flushed.ok(), "journal flush failed: " + flushed.ToString());
  }
  const std::string crash_root = state_dir + "/crash";
  fs::copy(serve_root, crash_root,
           fs::copy_options::recursive | fs::copy_options::create_hard_links);
  const Status drained = stack->service->Drain();
  Gate(drained.ok(), "drain failed: " + drained.ToString());

  PhaseCounts serving;
  serving.sent = warm.counts.sent + timed.counts.sent;
  serving.succeeded = warm.counts.succeeded + timed.counts.succeeded;
  serving.failed = warm.counts.failed + timed.counts.failed;
  Gate(serving.failed == 0 && serving.succeeded == serving.sent,
       "every purchase succeeds (" + std::to_string(serving.failed) +
           " failed)");
  const MarketService::Stats service_stats = stack->service->stats();
  Gate(service_stats.succeeded == serving.succeeded &&
           service_stats.shed == 0 && service_stats.failed == 0,
       "service counters match the client (succeeded " +
           std::to_string(service_stats.succeeded) + ", shed " +
           std::to_string(service_stats.shed) + ")");

  std::vector<ShardBook> before(products.size());
  double client_revenue = 0.0;
  int64_t resident_entries = 0;
  for (size_t p = 0; p < products.size(); ++p) {
    Shard* shard = stack->catalog->Find(products[p].id);
    before[p] = ReadShardBook(*shard);
    resident_entries +=
        static_cast<int64_t>(shard->market()->ledger().entries().size());
    Gate(before[p].sales == books[p].sales,
         products[p].id + ": ledger sales " + std::to_string(before[p].sales) +
             " != succeeded " + std::to_string(books[p].sales));
    Gate(before[p].revenue_bits == Bits(books[p].revenue),
         products[p].id + ": ledger revenue differs from the returned prices");
    client_revenue += books[p].revenue;
  }
  const Catalog::Rollup rollup = stack->catalog->GetRollup();
  Gate(Bits(rollup.total_revenue) == Bits(client_revenue) &&
           rollup.total_sales == serving.succeeded,
       "catalog rollup equals the sum of returned prices and sales");
  if (stack->auditor != nullptr) {
    stack->auditor->Stop();
    stack->auditor->RunPass();
    const Auditor::Status audit = stack->auditor->GetStatus();
    Gate(audit.violations == 0,
         "auditor reported " + std::to_string(audit.violations) +
             " violation(s)");
    Gate(audit.commits_observed == serving.succeeded,
         "auditor commits_observed " + std::to_string(audit.commits_observed) +
             " != succeeded " + std::to_string(serving.succeeded));
    std::printf("auditor: passes=%" PRId64 " commits_observed=%" PRId64
                " violations=%" PRId64 "\n",
                audit.passes, audit.commits_observed, audit.violations);
  }
  std::vector<uint32_t> crcs;
  std::string crc_line;
  for (size_t p = 0; p < products.size(); ++p) {
    crcs.push_back(before[p].crc);
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08x", before[p].crc);
    crc_line += (p % 10 == 0 ? "\n  " : " ") + std::string(buf);
  }
  std::printf("ledger fingerprint (CRC-32 of every entry per shard): "
              "combined=%08x per-shard:%s\n",
              nimbus::market::Journal::Crc32(crcs.data(),
                                             crcs.size() * sizeof(uint32_t)),
              crc_line.c_str());
  stack->service.reset();
  stack->auditor.reset();

  // 4. Restore, repeated, each in a fresh process as a restarting server
  // would: within one process, repetitions settled at that process's own
  // speed (per-run medians from 0.063 to 0.124 s for the same hot_product
  // restore in one ten-run set), so they did not average out. Reopening a clean crash image writes nothing (the journal re-attaches
  // for append and no tail needs healing), so every repetition restores
  // the same state; the gates below check it.
  std::vector<double> restore_samples;
  std::vector<double> open_means;
  std::vector<double> restore_train;
  int64_t snapshot_records = 0;
  int64_t tail_records = 0;
  PhaseCounts restore_counts;
  const std::vector<std::string> child_args = {
      argv[0], "--workload", workload->name, "--seed", std::to_string(seed),
      "--restore-from", crash_root};
  for (int rep = 0; rep < workload->restore_reps; ++rep) {
    ++restore_counts.sent;
    auto output = RunSelf(child_args);
    auto restored = output.ok() ? ParseRestoreSample(*output)
                                : StatusOr<RestoreSample>(output.status());
    if (!restored.ok()) {
      ++restore_counts.failed;
      Gate(false, "restore failed: " + restored.status().ToString());
      continue;
    }
    restore_samples.push_back(restored->seconds);
    open_means.push_back(restored->open_mean_s);
    restore_train.push_back(restored->train_s);
    bool identical =
        restored->serving && restored->books.size() == products.size();
    for (size_t p = 0; identical && p < products.size(); ++p) {
      const ShardBook& after = restored->books[p];
      identical = after.revenue_bits == before[p].revenue_bits &&
                  after.sales == before[p].sales && after.crc == before[p].crc;
    }
    Gate(identical, "restored revenue, sales and fingerprint are "
                    "bit-identical to the served ledgers");
    Gate(rep == 0 || (restored->snapshot_records == snapshot_records &&
                      restored->tail_records == tail_records),
         "every restore repetition replays the same snapshot and tail");
    snapshot_records = restored->snapshot_records;
    tail_records = restored->tail_records;
    restore_counts.succeeded += identical ? 1 : 0;
    restore_counts.failed += identical ? 0 : 1;
  }
  Gate(tail_records > 0, "restore replayed a journal tail");
  const double restore_s = Median(restore_samples);
  PrintPhase("restore", restore_counts);
  std::printf("restore: reps=%d median=%.4fs, per-shard open %.6fs, "
              "snapshot records %" PRId64 ", tail records %" PRId64
              "; samples%s\n",
              workload->restore_reps, restore_s, Median(open_means),
              snapshot_records, tail_records,
              JoinSeconds(restore_samples).c_str());

  std::vector<Metric> metrics;
  int64_t attempted = serving.sent;
  int64_t failed = serving.failed;
  if (!trace) {
    metrics = {
        {"purchase_rps", rps, "1/s"},
        {"purchase_p50_us", p50, "us"},
        {"purchase_p99_us", p99, "us"},
        {"cpu_us_per_purchase", cpu_us, "us"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"setup_s", setup_s, "s"},
        {"restore_s", restore_s, "s"},
    };
  } else {
    // 5. Traced replay on the served catalog (curves warm, history intact).
    const SpanTracer::SpanCost span_cost = SpanTracer::MeasureSpanCost();
    SpanTracer tracer(SpanNames(), kKeptSpans);
    // A multiple of 4 blocks, so traced and untraced blocks pair up.
    const int64_t blocks =
        4 * std::max<int64_t>(
                1, std::llround(workload->replay_blocks_per_s * seconds / 4));
    const ReplayResult replay =
        Replay(*stack->catalog, products, seed, blocks, tracer);
    PrintPhase("replay", replay.counts);
    attempted += replay.counts.sent;
    failed += replay.counts.failed;
    Gate(replay.counts.failed == 0, "every replay purchase succeeds");
    Gate(replay.bytes_written > 0, "read bytes written from /proc/self/io");
    Gate(replay.audit_commits == replay.counts.succeeded,
         "replay auditor observed every commit");
    int64_t replay_sales = 0;
    for (size_t p = 0; p < products.size(); ++p) {
      replay_sales +=
          stack->catalog->Find(products[p].id)->market()->ledger().SaleCount() -
          before[p].sales;
    }
    Gate(replay_sales == replay.counts.succeeded,
         "replay ledger sales equal replay successes");

    const std::string trace_path = out_dir + "/trace_" + workload->name +
                                   "_seed" + std::to_string(seed) + ".json";
    Gate(tracer.WriteChromeJson(trace_path), "write " + trace_path);

    auto self_us = [&](int name) {
      return Micros(tracer.totals(name).self_ns);
    };
    auto mean_us = [&](int name) {
      const auto& t = tracer.totals(name);
      return t.count > 0 ? Micros(t.total_ns) / static_cast<double>(t.count)
                         : 0.0;
    };
    const double traced_n = static_cast<double>(replay.traced_purchases);
    const double traced_us = Micros(replay.traced_ns);
    const double per_traced = traced_us / traced_n;
    const double per_untraced = Micros(replay.untraced_ns) /
                                static_cast<double>(replay.untraced_purchases);
    double layers_us = 0.0;
    double layer_spans = 0.0;
    double all_spans = 0.0;
    std::printf("replay layers (traced blocks, %.0f purchases, %.3fus per "
                "purchase):\n",
                traced_n, per_traced);
    for (int name = 0; name < tracer.num_names(); ++name) {
      const auto& t = tracer.totals(name);
      all_spans += static_cast<double>(t.count);
      if (name != kPurchaseSpan) {
        layers_us += self_us(name);
        layer_spans += static_cast<double>(t.count);
      }
      std::printf("  %-20s calls=%-9" PRId64 " self/purchase=%.4fus "
                  "share=%.4f\n",
                  tracer.name(name).c_str(), t.count, self_us(name) / traced_n,
                  self_us(name) / traced_us);
    }
    // The tracer's own cost is taken out of both sides: each layer span's
    // self time holds `inside_ns` of it, the traced wall time `total_ns`
    // per span of any kind. What remains uncovered is benchmark glue.
    const double coverage =
        (layers_us - layer_spans * span_cost.inside_ns * 1e-3) /
        (traced_us - all_spans * span_cost.total_ns * 1e-3);
    std::printf("additivity: layer self times cover %.4f of the replay's "
                "time (%.4f with the tracer's own %.1f ns per span, %.1f ns "
                "of it inside the span, left in)\n",
                coverage, layers_us / traced_us, span_cost.total_ns,
                span_cost.inside_ns);
    Gate(std::fabs(coverage - 1.0) <= 0.10,
         "layer self times add up to the replay's per-purchase time within "
         "10% (coverage " + FormatNumber(coverage) + ")");
    const double record_us = mean_us(kRecordSpan);
    const auto& cp = tracer.totals(kCheckpointSpan);
    const double checkpoint_us =
        cp.count > 0 ? mean_us(kCheckpointSpan) - record_us : 0.0;
    const double replay_n = static_cast<double>(replay.counts.succeeded);
    std::vector<float> commit_us, queue_us, execute_us;
    for (const auto& f : flights) {
      if (f.ticket >= 0 && f.status_code == 0) {
        commit_us.push_back(static_cast<float>(f.commit_us));
        queue_us.push_back(static_cast<float>(f.queue_us));
        execute_us.push_back(static_cast<float>(f.execute_us));
      }
    }
    std::printf("flight records: %zu (the last of the timed phase)\n",
                commit_us.size());
    metrics = {
        {"checkpoint.count", static_cast<double>(replay.checkpoints), "count"},
        {"checkpoint.us", checkpoint_us, "us"},
        {"checkpoint.bytes",
         replay.checkpoints > 0
             ? static_cast<double>(replay.snapshot_bytes) / replay.checkpoints
             : 0.0,
         "bytes"},
        {"checkpoint.share",
         static_cast<double>(cp.count) * checkpoint_us / traced_us, "ratio"},
        {"storage.bytes_per_purchase",
         static_cast<double>(replay.bytes_written) / replay_n, "bytes"},
        {"market.record_us", record_us, "us"},
        {"service.commit_us_p99", Quantile(commit_us, 0.99), "us"},
        {"service.queue_us", Quantile(queue_us, 0.5), "us"},
        {"service.execute_us", Quantile(execute_us, 0.5), "us"},
        {"service.submit_us", Quantile(timed.submit_us, 0.5), "us"},
        {"route.us", (self_us(kRouteSpan) + self_us(kServeSpan)) / traced_n,
         "us"},
        {"curve_cache.lookup_us", mean_us(kCurveLookupSpan), "us"},
        {"curve_cache.hit_ratio",
         cache_hits + cache_misses > 0
             ? static_cast<double>(cache_hits) / (cache_hits + cache_misses)
             : 0.0,
         "ratio"},
        {"broker.quote_us", mean_us(kQuoteSpan), "us"},
        {"shard.report_us", mean_us(kReportSpan), "us"},
        {"auditor.tap_us", mean_us(kAuditTapSpan), "us"},
        {"auditor.pass_us", mean_us(kAuditPassSpan), "us"},
        {"auditor.passes", static_cast<double>(replay.audit_passes), "count"},
        {"ledger.resident_entries", static_cast<double>(resident_entries),
         "count"},
        {"setup.train_s", median_of(&SetupTimes::train_s), "s"},
        {"setup.negotiate_s", median_of(&SetupTimes::negotiate_s), "s"},
        {"setup.curve_build_s", median_of(&SetupTimes::curve_build_s), "s"},
        {"restore.open_s", Median(open_means), "s"},
        {"restore.train_s", Median(restore_train), "s"},
        {"restore.snapshot_records", static_cast<double>(snapshot_records),
         "count"},
        {"restore.tail_records", static_cast<double>(tail_records), "count"},
        {"replay.us_per_purchase_traced", per_traced, "us"},
        {"replay.us_per_purchase_untraced", per_untraced, "us"},
        {"trace.overhead_ratio", per_traced / per_untraced, "ratio"},
        {"trace.coverage", coverage, "ratio"},
    };
    std::printf("spans written to %s\n", trace_path.c_str());
  }

  for (const Metric& m : metrics) {
    std::printf("metric %-32s %16s %s\n", m.name.c_str(),
                FormatNumber(m.value).c_str(), m.unit.c_str());
  }
  stack.reset();
  fs::remove_all(state_dir);
  const bool correct = g_failures.empty();
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
