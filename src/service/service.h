#ifndef NIMBUS_SERVICE_SERVICE_H_
#define NIMBUS_SERVICE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/backoff.h"
#include "common/clock.h"
#include "common/flight_recorder.h"
#include "common/parallel.h"
#include "common/profiler.h"
#include "common/random.h"
#include "common/slo_tracker.h"
#include "common/statusor.h"
#include "common/telemetry.h"
#include "market/auditor.h"
#include "market/catalog.h"
#include "market/marketplace.h"
#include "market/shard.h"
#include "service/admission_queue.h"
#include "service/circuit_breaker.h"

namespace nimbus::service {

// Tuning for one MarketService instance. The defaults are sized for the
// chaos soak; a real deployment scales queue_capacity and num_workers
// with the offered load.
struct ServiceOptions {
  // Worker width (calling-thread-inclusive, like ThreadPool).
  int num_workers = 4;
  // Admission queue bound; pushes beyond it are shed with kUnavailable.
  int queue_capacity = 256;
  // Deadline applied to requests that do not carry their own
  // (seconds; <= 0 = no deadline).
  double default_deadline_seconds = 0.0;
  // Retry policies wrapped around the two downstreams.
  BackoffOptions quote_retry;
  BackoffOptions journal_retry;
  // Breakers guarding those downstreams. Thresholds high enough to
  // never trip make the service deterministic under counted faults
  // (every injected failure is absorbed by a retry).
  CircuitBreakerOptions quote_breaker;
  CircuitBreakerOptions journal_breaker;
  // Master seed: request `ticket` of product p quotes with the pure
  // child stream Fork(4*ticket) of Rng(seed ^ fnv(p)), so results are
  // independent of worker count, scheduling, and retry count.
  uint64_t seed = 20190642;
  // Time source for deadlines, backoff sleeps and breaker cooldowns;
  // nullptr = SystemClock. Tests pass a ManualClock.
  Clock* clock = nullptr;
  // Service-level objective tracked per terminal outcome (availability
  // plus optional latency half); clock defaults to the service clock.
  telemetry::SloOptions slo;
  // Optional online economic auditor (caller-owned, must outlive the
  // service). When set, every lane registers a commit tap and each
  // successful commit is observed (sampled) off the sequencer path.
  // Strictly detection-only: ledger bytes are identical either way.
  market::Auditor* auditor = nullptr;
};

// One buyer request: purchase the version at `inverse_ncp` of `model`.
struct PurchaseRequest {
  std::string buyer_id;
  ml::ModelKind model = ml::ModelKind::kLinearRegression;
  double inverse_ncp = 0.0;
  std::string report_loss_name;
  // Overrides ServiceOptions::default_deadline_seconds when > 0.
  double deadline_seconds = 0.0;
  // Which product to buy from. Routed by the catalog: exact product
  // match, then consistent hash (an empty id lands on the only shard of
  // a one-shard catalog).
  std::string product_id;
};

// Terminal outcome of one submitted request, delivered via the future
// returned by Submit. Every submission gets exactly one result — shed
// and failed requests carry the typed non-OK status, never a silent
// drop.
struct PurchaseResult {
  // Admission ticket (commit order within the routed shard's lane);
  // -1 for requests shed at admission.
  int64_t ticket = -1;
  // Product (shard) the request routed to.
  std::string product_id;
  // Trace id minted at submission — the key for correlating this result
  // with its spans (telemetry::SnapshotTraceEvents) and flight record.
  uint64_t trace_id = 0;
  Status status;
  market::Broker::Purchase purchase;  // Valid only when status.ok().
  int64_t sequence = -1;              // Ledger sequence when ok.
  int quote_attempts = 0;
  int journal_attempts = 0;
};

// Concurrent quote/purchase front end over a Catalog of product shards —
// the layer that lets the in-process brokers survive real traffic: a
// bounded admission queue with explicit load shedding, a worker pool
// (built on common/parallel.h) draining the queue in batches, per-request
// deadlines with cooperative cancellation down to the error-curve
// grid-point boundary, retry-with-backoff around the fault points from
// the recovery substrate, per-downstream circuit breakers, and a
// graceful drain that finishes in-flight work and flushes the journals.
// A single marketplace is served as a one-shard catalog.
//
// Every request routes by its product id to one bulkheaded Shard lane.
// The pipeline has a product dimension end to end: per-lane dense
// admission tickets, per-lane commit sequencers, per-lane circuit
// breakers, and per-lane RNG roots (seed ^ fnv(product)). Each worker
// pops up to a batch of requests, quotes each contiguous same-curve run
// with one Broker::QuoteBatch off the shared CurveCache, and commits the
// batch with one sequencer rendezvous per lane (a contiguous FIFO
// batch's per-lane subsequence is a consecutive lane-ticket run). A
// quarantined shard sheds its requests with a typed kUnavailable naming
// the shard while every other lane keeps serving.
//
// Determinism contract (the chaos soak's headline property): quotes are
// pure per-ticket functions of the lane seed, and commits are
// serialized in lane-ticket order. As long as admission order is
// deterministic (single submitter) and no request exhausts its retry
// budget, each shard's ledger — and therefore its journal and
// everything recovered from it — is byte-identical at every worker
// count, even with counted fault injection armed.
class MarketService {
 public:
  // `catalog` must outlive the service, and every product must be added
  // before constructing the service (lanes are built here).
  MarketService(market::Catalog* catalog, ServiceOptions options);
  ~MarketService();  // Drains (best effort) when still running.

  MarketService(const MarketService&) = delete;
  MarketService& operator=(const MarketService&) = delete;

  // Pre-builds every offering's error curves (so worker threads hit
  // read-only brokers) and launches the worker pool.
  Status Start();

  // Admits the request or sheds it; always returns a future that will
  // hold the typed outcome. Sheds (queue full, draining, injected
  // 'service.enqueue' fault) resolve immediately with kUnavailable;
  // malformed requests with kInvalidArgument. Thread-safe.
  std::future<PurchaseResult> Submit(PurchaseRequest request);

  // Graceful shutdown: stops admissions (subsequent Submits are shed),
  // lets the workers finish every admitted request, then flushes the
  // marketplace journal (retried under the journal policy). Idempotent;
  // returns the flush status.
  Status Drain();

  bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }

  // Monotone service-level counters (mirrored into the telemetry
  // registry under service_*).
  struct Stats {
    int64_t submitted = 0;
    int64_t admitted = 0;
    int64_t shed = 0;
    int64_t succeeded = 0;
    // Terminal non-OK results: admitted requests that did not book
    // (including deadline expiries) plus submissions rejected before
    // admission (service not started, malformed request). Sheds are
    // counted separately and never here.
    int64_t failed = 0;
    int64_t deadline_exceeded = 0;
    int64_t retries = 0;  // Extra attempts beyond the first, both stages.
  };
  Stats stats() const;

  // The first lane's breakers (the only lane of a one-shard catalog).
  // Every lane has its own breaker pair.
  const CircuitBreaker& quote_breaker() const;
  const CircuitBreaker& journal_breaker() const;

  // Windowed availability / burn-rate tracker fed with every terminal
  // outcome (successes, failures, sheds, pre-admission rejects). The
  // admin endpoint exports its gauges; the soak harness asserts on it.
  const telemetry::SloTracker& slo_tracker() const { return slo_; }

  // The attached economic auditor (nullptr when auditing is off). The
  // admin server joins it into /auditz and the health report.
  market::Auditor* auditor() const { return options_.auditor; }

  // Per-component liveness for /healthz and /shardz: `healthy` is the
  // 200/503 bit; `problems` enumerates every unhealthy component
  // ("shard shard-7: quarantined (...)", "service: draining", ...) so
  // an operator — or the CI curl smoke — can see exactly which bulkhead
  // tripped instead of an opaque global 503.
  struct HealthReport {
    bool healthy = false;
    std::vector<std::string> problems;
  };
  HealthReport GetHealthReport() const;

  // Liveness summary for /healthz: started, not draining, no component
  // mid-recovery or quarantined, and no lane breaker stuck open.
  bool Healthy() const { return GetHealthReport().healthy; }

  // One row per lane for /shardz and blast-radius assertions: shard
  // identity/health plus this service's per-lane traffic counters.
  struct ShardView {
    std::string product_id;
    market::ShardState state = market::ShardState::kServing;
    std::string state_detail;
    double revenue = 0.0;
    int64_t sales = 0;
    int64_t submitted = 0;
    int64_t shed = 0;
    int64_t succeeded = 0;
    int64_t failed = 0;
    market::Shard::Stats shard_stats;
    market::Marketplace::RestoreReport last_restore;
  };
  std::vector<ShardView> ShardViews() const;

 private:
  struct Item {
    int64_t ticket = 0;  // Dense per lane.
    int lane = 0;
    PurchaseRequest request;
    std::promise<PurchaseResult> promise;
    std::shared_ptr<CancelToken> cancel;
    int64_t submit_ns = 0;
    // The marketplace instance this item quotes against, pinned from the
    // shard at admission (keeps the instance alive across a concurrent
    // shard recovery swap).
    std::shared_ptr<market::Marketplace> market;
    // Request-scoped trace context: minted at submission, re-parented to
    // the worker's root span so every downstream span (curve build,
    // quote attempt, journal append) lands in one tree.
    telemetry::TraceContext trace;
  };

  // One product lane: the routing target of one catalog shard.
  struct Lane {
    int index = 0;
    std::string product_id;
    market::Shard* shard = nullptr;
    // seed ^ fnv(product_id): each shard's ledger is a pure function of
    // (master seed, product, its own request order).
    uint64_t seed = 0;
    Rng base_rng{0};
    std::unique_ptr<CircuitBreaker> quote_breaker;
    std::unique_ptr<CircuitBreaker> journal_breaker;
    // Commit tap of the attached auditor (nullptr when auditing is
    // off); written by the committing thread under the sequencer.
    market::AuditTap* audit_tap = nullptr;
    // Admission tickets are dense per lane; guarded by submit_mu_.
    int64_t next_ticket = 0;
    // Per-lane commit sequencer. Same instrumented name on every lane:
    // contention aggregates across the catalog.
    prof::ProfiledMutex seq_mu{"commit_sequencer"};
    std::condition_variable_any seq_cv;
    int64_t next_commit = 0;
    // Per-lane outcome counters (blast-radius accounting).
    std::atomic<int64_t> submitted{0};
    std::atomic<int64_t> shed{0};
    std::atomic<int64_t> succeeded{0};
    std::atomic<int64_t> failed{0};
  };

  void WorkerLoop();
  // Quote phase over one PopBatch run: per-item admission/fault/breaker
  // checks, then one Broker::QuoteBatch per contiguous run of items
  // sharing a (broker, curve). An item whose batched first attempt
  // fails re-enters the retry loop with that outcome as attempt one.
  void ExecuteQuoteBatch(std::vector<Item>& items,
                         std::vector<PurchaseResult>& results);
  // The retried, breaker-gated quote loop for an item whose batched
  // first attempt failed with `first_attempt`: that outcome is served as
  // attempt one, later attempts re-quote from the item's ticket stream.
  void RunQuoteRetries(const Item& item, PurchaseResult& result,
                       market::Broker* broker,
                       const pricing::ErrorCurve& curve,
                       const Status& first_attempt);
  // Books one successful quote (retried, breaker-gated journal append).
  // Caller holds the sequencer turn for the item's ticket.
  void CommitOne(Item& item, PurchaseResult& result);
  // Batch commit: one sequencer wait for the batch's first ticket, then
  // commits the (consecutive) tickets in order with a single wakeup at
  // the end — the per-request condvar thundering herd this replaces is
  // what made the soak scale negatively with workers.
  void CommitBatchInOrder(std::vector<Item>& items,
                          std::vector<PurchaseResult>& results);
  void Finish(Item& item, PurchaseResult result,
              telemetry::FlightRecord flight);
  // Files a terminal outcome that never reached a worker (shed or
  // pre-admission reject) into the flight recorder and SLO tracker.
  void RecordRejected(uint64_t trace_id, const Status& status, bool shed,
                      int64_t submit_ns);

  // Routes a request to its lane by product id through the catalog.
  // Returns nullptr with a typed kUnavailable when the catalog has no
  // shards.
  Lane* RouteLane(const PurchaseRequest& request, Status* status);

  StatusOr<std::pair<market::Broker*, std::shared_ptr<const pricing::ErrorCurve>>>
  ResolveTarget(market::Marketplace* market, const PurchaseRequest& request,
                const CancelToken* cancel,
                const telemetry::TraceContext* trace);

  // Journal flush (retried under the journal policy) for one lane's
  // marketplace — the per-lane half of Drain.
  Status FlushLaneJournal(Lane& lane);

  market::Catalog* catalog_;
  ServiceOptions options_;
  Clock* clock_;
  telemetry::SloTracker slo_;

  // Lanes are built in the constructor and never resized afterwards, so
  // lookups are lock-free. lane index == shard index.
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::unordered_map<const market::Shard*, int> lane_by_shard_;

  BoundedQueue<Item> queue_;
  std::unique_ptr<ThreadPool> pool_;
  std::thread runner_;

  // Admission: ticket assignment must be atomic with the queue push so
  // each lane's admitted tickets are dense (the sequencers rely on it).
  // The queue is globally FIFO, which makes the per-lane subsequence of
  // any contiguous batch a consecutive run of that lane's tickets.
  std::mutex submit_mu_;

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::mutex drain_mu_;  // Serializes concurrent Drain calls.
  std::atomic<bool> drained_{false};
  Status drain_status_;  // Guarded by drain_mu_ + drained_ flag.

  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> admitted_{0};
  std::atomic<int64_t> shed_{0};
  std::atomic<int64_t> succeeded_{0};
  std::atomic<int64_t> failed_{0};
  std::atomic<int64_t> deadline_exceeded_{0};
  std::atomic<int64_t> retries_{0};
};

}  // namespace nimbus::service

#endif  // NIMBUS_SERVICE_SERVICE_H_
