#include "service/service.h"

#include <algorithm>
#include <utility>

#include "common/fault.h"
#include "common/logging.h"
#include "common/telemetry.h"

namespace nimbus::service {
namespace {

telemetry::Counter& SubmittedCounter() {
  static telemetry::Counter& counter =
      telemetry::Registry::Global().GetCounter("service_submitted_total");
  return counter;
}

// Per-offering admission volume — the serving-layer face of the
// broker's labeled quote/sale/revenue families. Label values are model
// kinds (bounded, low-cardinality).
telemetry::CounterVec& OfferingRequestsVec() {
  static telemetry::CounterVec& vec =
      telemetry::Registry::Global().GetCounterVec(
          "service_offering_requests_total", "offering");
  return vec;
}

telemetry::Counter& ShedCounter() {
  static telemetry::Counter& counter =
      telemetry::Registry::Global().GetCounter("service_shed_total");
  return counter;
}

telemetry::Counter& CompletedCounter() {
  static telemetry::Counter& counter =
      telemetry::Registry::Global().GetCounter("service_completed_total");
  return counter;
}

telemetry::Counter& FailedCounter() {
  static telemetry::Counter& counter =
      telemetry::Registry::Global().GetCounter("service_failed_total");
  return counter;
}

telemetry::Counter& DeadlineCounter() {
  static telemetry::Counter& counter = telemetry::Registry::Global().GetCounter(
      "service_deadline_exceeded_total");
  return counter;
}

telemetry::Counter& RetryCounter() {
  static telemetry::Counter& counter =
      telemetry::Registry::Global().GetCounter("service_retry_total");
  return counter;
}

telemetry::Gauge& QueueDepthGauge() {
  static telemetry::Gauge& gauge =
      telemetry::Registry::Global().GetGauge("service_queue_depth");
  return gauge;
}

telemetry::Histogram& LatencyHistogram() {
  static telemetry::Histogram& histogram =
      telemetry::Registry::Global().GetHistogram("service_request_latency_us");
  return histogram;
}

// Most admitted requests one worker drains per queue rendezvous.
// Batching amortizes queue and sequencer synchronization (one wait + one
// wakeup per batch instead of per request) and quotes each batch through
// Broker::QuoteBatch. Ledger bytes do not depend on it: quotes stay pure
// per-ticket functions of the lane seed.
constexpr size_t kMaxQuoteBatch = 16;

// Per-ticket RNG stream ids under the lane seed. Keeping the purposes
// on disjoint strides makes every stream a pure function of
// (lane seed, lane ticket, purpose) — independent of scheduling,
// retries, and every other lane's traffic.
constexpr uint64_t kQuoteStream = 0;
constexpr uint64_t kQuoteBackoffStream = 1;
constexpr uint64_t kJournalBackoffStream = 2;
constexpr uint64_t kStreamsPerTicket = 4;

uint64_t StreamId(int64_t ticket, uint64_t purpose) {
  return static_cast<uint64_t>(ticket) * kStreamsPerTicket + purpose;
}

// FNV-1a — folds a product id into the master seed so each shard lane
// draws from its own stream family.
uint64_t Fnv64(const std::string& key) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// A quote attempt's preamble, shared by the batched first attempt and
// the retry loop: the 'service.execute' fault, then the quote breaker.
Status AdmitQuoteAttempt(CircuitBreaker& breaker, telemetry::TraceSpan& span) {
  if (fault::Check("service.execute").fire) {
    span.Annotate("fault:service.execute");
    return InternalError("fault injected at 'service.execute'");
  }
  if (Status allowed = breaker.Allow(); !allowed.ok()) {
    span.Annotate("breaker-open");
    return allowed;
  }
  return OkStatus();
}

// Settles one downstream outcome on its breaker. kInternal is downstream
// sickness (an injected one is annotated `fault_note` on the span); OK
// or a caller error means the downstream answered.
void SettleBreaker(CircuitBreaker& breaker, const Status& status,
                   telemetry::TraceSpan& span, const char* fault_note) {
  if (status.code() != StatusCode::kInternal) {
    breaker.RecordSuccess();
    return;
  }
  breaker.RecordFailure();
  if (status.message().find("fault injected") != std::string::npos) {
    span.Annotate(fault_note);
  }
}

}  // namespace

MarketService::MarketService(market::Catalog* catalog, ServiceOptions options)
    : catalog_(catalog),
      options_(options),
      clock_(options.clock != nullptr ? options.clock : SystemClock::Get()),
      slo_([&] {
        telemetry::SloOptions slo = options.slo;
        if (slo.clock == nullptr) slo.clock = clock_;
        return slo;
      }()),
      queue_(static_cast<size_t>(std::max(options.queue_capacity, 1))) {
  NIMBUS_CHECK(catalog_ != nullptr);
  options_.num_workers = std::max(options_.num_workers, 1);
  auto make_breaker = [&](const std::string& name,
                          CircuitBreakerOptions breaker) {
    if (breaker.clock == nullptr) breaker.clock = clock_;
    return std::make_unique<CircuitBreaker>(name, breaker);
  };
  for (const std::unique_ptr<market::Shard>& shard : catalog_->shards()) {
    auto lane = std::make_unique<Lane>();
    lane->index = static_cast<int>(lanes_.size());
    lane->product_id = shard->product_id();
    lane->shard = shard.get();
    lane->seed = options_.seed ^ Fnv64(lane->product_id);
    lane->base_rng = Rng(lane->seed);
    lane->quote_breaker = make_breaker("broker.quote@" + lane->product_id,
                                       options_.quote_breaker);
    lane->journal_breaker = make_breaker("journal.append@" + lane->product_id,
                                         options_.journal_breaker);
    lane_by_shard_.emplace(lane->shard, lane->index);
    // Register the auditor's commit tap before any traffic exists. The
    // tap is observation-only: the lane's RNG streams and ledger bytes
    // are identical with or without it.
    if (options_.auditor != nullptr) {
      lane->audit_tap = options_.auditor->RegisterLane(
          lane->product_id, lane->shard, nullptr);
    }
    lanes_.push_back(std::move(lane));
  }
  if (options_.auditor != nullptr) {
    options_.auditor->AttachCatalog(catalog_);
  }
}

MarketService::~MarketService() {
  if (started_.load(std::memory_order_acquire)) {
    const Status status = Drain();
    if (!status.ok()) {
      NIMBUS_LOG(kWarning) << "service drain in destructor failed: "
                           << status.ToString();
    }
  }
}

Status MarketService::Start() {
  if (started_.load(std::memory_order_acquire)) {
    return FailedPreconditionError("service already started");
  }
  if (lanes_.empty()) {
    return InvalidArgumentError(
        "catalog has no shards (add products before constructing the "
        "service)");
  }
  // Prewarm every serving shard's error curves so the workers only ever
  // hit the cache; a cold build failing here is a configuration error
  // better surfaced at startup than per-request. Quarantined shards are
  // skipped — their lanes shed until the recovery loop re-admits them
  // (and recovery rebuilds curves cold).
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    StatusOr<std::shared_ptr<market::Marketplace>> serve =
        lane->shard->Serve();
    if (!serve.ok()) {
      continue;
    }
    market::Marketplace* market = serve->get();
    for (ml::ModelKind kind : market->Offerings()) {
      NIMBUS_ASSIGN_OR_RETURN(market::Broker * broker, market->BrokerFor(kind));
      for (const auto& loss : broker->model().report_losses()) {
        NIMBUS_RETURN_IF_ERROR(broker->GetErrorCurve(loss->name()).status());
      }
    }
  }
  // The pool is N-wide counting the calling thread, so the runner thread
  // itself drains the queue alongside num_workers - 1 pool workers.
  pool_ = std::make_unique<ThreadPool>(options_.num_workers);
  runner_ = std::thread([this] {
    pool_->ParallelFor(
        0, options_.num_workers, [this](int64_t) { WorkerLoop(); },
        options_.num_workers);
  });
  // Publish started_ last: Drain and the destructor gate on it before
  // touching pool_/runner_, so the release store must not happen while
  // either is still being constructed (data race on runner_ otherwise).
  started_.store(true, std::memory_order_release);
  return OkStatus();
}

MarketService::Lane* MarketService::RouteLane(const PurchaseRequest& request,
                                              Status* status) {
  market::Shard* shard = catalog_->Route(request.product_id);
  if (shard == nullptr) {
    *status = UnavailableError("catalog has no shards");
    return nullptr;
  }
  return lanes_[lane_by_shard_.at(shard)].get();
}

std::future<PurchaseResult> MarketService::Submit(PurchaseRequest request) {
  std::promise<PurchaseResult> reject;
  std::future<PurchaseResult> reject_future = reject.get_future();
  submitted_.fetch_add(1, std::memory_order_relaxed);
  SubmittedCounter().Increment();
  OfferingRequestsVec()
      .WithLabel(std::string(ml::ModelKindToString(request.model)))
      .Increment();

  // One trace context per submission, minted from an atomic counter (no
  // RNG involved, so the ledger-determinism contract is untouched). The
  // id outlives the request: it keys spans, the flight record, and the
  // PurchaseResult the buyer sees.
  const telemetry::TraceContext trace = telemetry::NewTraceContext();
  const int64_t submit_ns = clock_->NowNanos();

  PurchaseResult result;
  result.trace_id = trace.trace_id;
  result.product_id = request.product_id;
  if (!started_.load(std::memory_order_acquire)) {
    result.status = FailedPreconditionError("service is not started");
    failed_.fetch_add(1, std::memory_order_relaxed);
    FailedCounter().Increment();
    RecordRejected(trace.trace_id, result.status, /*shed=*/false, submit_ns);
    reject.set_value(std::move(result));
    return reject_future;
  }
  if (request.buyer_id.empty()) {
    result.status = InvalidArgumentError("buyer id must be non-empty");
    failed_.fetch_add(1, std::memory_order_relaxed);
    FailedCounter().Increment();
    RecordRejected(trace.trace_id, result.status, /*shed=*/false, submit_ns);
    reject.set_value(std::move(result));
    return reject_future;
  }

  Status route_status = OkStatus();
  Lane* lane = RouteLane(request, &route_status);
  if (lane == nullptr) {
    result.status = std::move(route_status);
    failed_.fetch_add(1, std::memory_order_relaxed);
    FailedCounter().Increment();
    RecordRejected(trace.trace_id, result.status, /*shed=*/false, submit_ns);
    reject.set_value(std::move(result));
    return reject_future;
  }
  lane->submitted.fetch_add(1, std::memory_order_relaxed);

  Item item;
  item.lane = lane->index;
  item.request = std::move(request);
  item.promise = std::move(reject);
  item.submit_ns = submit_ns;
  item.trace = trace;
  const double deadline = item.request.deadline_seconds > 0.0
                              ? item.request.deadline_seconds
                              : options_.default_deadline_seconds;
  item.cancel = std::make_shared<CancelToken>(clock_, deadline);

  // Resolve the lane's marketplace up front. This is the bulkhead gate:
  // a quarantined/recovering shard sheds here with the typed
  // kUnavailable naming the shard, and an admitted item pins the
  // instance it was admitted against (a concurrent recovery swap cannot
  // pull the marketplace out from under the worker).
  const char* shed_reason = nullptr;
  Status admit = OkStatus();
  StatusOr<std::shared_ptr<market::Marketplace>> serve = lane->shard->Serve();
  if (serve.ok()) {
    item.market = *std::move(serve);
  } else {
    admit = serve.status();
    shed_reason = "shard-unavailable";
  }

  if (admit.ok()) {
    std::lock_guard<std::mutex> lock(submit_mu_);
    if (fault::ShouldFail("service.enqueue")) {
      admit = UnavailableError("fault injected at 'service.enqueue'");
      shed_reason = "fault:service.enqueue";
    } else if (draining_.load(std::memory_order_acquire)) {
      admit = UnavailableError("service is draining");
      shed_reason = "draining";
    } else {
      item.ticket = lane->next_ticket;
      admit = queue_.TryPush(std::move(item));
      if (!admit.ok()) {
        shed_reason = "queue-full";
      }
    }
    if (admit.ok()) {
      ++lane->next_ticket;
      admitted_.fetch_add(1, std::memory_order_relaxed);
      QueueDepthGauge().Set(static_cast<double>(queue_.size()));
      return reject_future;
    }
  }
  // TryPush only consumes `item` on success, but it was moved-from
  // regardless; rebuild the promise path for the shed result.
  result.status = std::move(admit);
  shed_.fetch_add(1, std::memory_order_relaxed);
  lane->shed.fetch_add(1, std::memory_order_relaxed);
  ShedCounter().Increment();
  telemetry::TraceInstant("service.shed", &trace, shed_reason);
  RecordRejected(trace.trace_id, result.status, /*shed=*/true, submit_ns);
  std::promise<PurchaseResult> shed_promise;
  std::future<PurchaseResult> shed_future = shed_promise.get_future();
  shed_promise.set_value(std::move(result));
  return shed_future;
}

void MarketService::RecordRejected(uint64_t trace_id, const Status& status,
                                   bool shed, int64_t submit_ns) {
  telemetry::FlightRecord flight;
  flight.trace_id = trace_id;
  flight.ticket = -1;
  flight.status_code = static_cast<int>(status.code());
  flight.total_us =
      static_cast<double>(clock_->NowNanos() - submit_ns) / 1000.0;
  flight.shed = shed;
  telemetry::FlightRecorder::Global().Record(flight);
  slo_.RecordRequest(/*ok=*/false, flight.total_us);
}

StatusOr<std::pair<market::Broker*, std::shared_ptr<const pricing::ErrorCurve>>>
MarketService::ResolveTarget(market::Marketplace* market,
                             const PurchaseRequest& request,
                             const CancelToken* cancel,
                             const telemetry::TraceContext* trace) {
  NIMBUS_ASSIGN_OR_RETURN(market::Broker * broker,
                          market->BrokerFor(request.model));
  std::string loss_name = request.report_loss_name;
  if (loss_name.empty()) {
    loss_name = broker->model().report_losses().front()->name();
  }
  // The CurveCache is concurrency-safe (hits are shared-lock lookups,
  // cold builds single-flight), so the hot path takes no service lock.
  NIMBUS_ASSIGN_OR_RETURN(std::shared_ptr<const pricing::ErrorCurve> curve,
                          broker->GetErrorCurve(loss_name, cancel, trace));
  return std::make_pair(broker, std::move(curve));
}

void MarketService::RunQuoteRetries(const Item& item, PurchaseResult& result,
                                    market::Broker* broker,
                                    const pricing::ErrorCurve& curve,
                                    const Status& first_attempt) {
  Lane& lane = *lanes_[item.lane];
  bool replay_first = true;
  auto attempt = [&]() -> Status {
    if (replay_first) {
      // The batch already executed (and accounted) attempt one; hand its
      // outcome to the retry loop so it counts against the budget.
      replay_first = false;
      return first_attempt;
    }
    // One child span per attempt, so a retried request shows each try —
    // and why it failed — as a sibling under the request's root span.
    telemetry::TraceSpan span("service.quote.attempt", &item.trace);
    NIMBUS_RETURN_IF_ERROR(AdmitQuoteAttempt(*lane.quote_breaker, span));
    // A fresh fork per attempt: a retried quote redraws the exact same
    // noise, so retries cannot perturb the ledger bytes.
    Rng rng = lane.base_rng.Fork(StreamId(item.ticket, kQuoteStream));
    StatusOr<market::Broker::Purchase> quote = broker->QuoteAtInverseNcp(
        item.request.inverse_ncp, curve, rng, &span.context());
    SettleBreaker(*lane.quote_breaker, quote.status(), span,
                  "fault:broker.quote");
    if (!quote.ok()) {
      return quote.status();
    }
    result.purchase = std::move(*quote);
    return OkStatus();
  };
  result.status = RetryWithBackoff(
      options_.quote_retry,
      lane.base_rng.Fork(StreamId(item.ticket, kQuoteBackoffStream)), *clock_,
      item.cancel.get(), attempt, &result.quote_attempts);
}

void MarketService::ExecuteQuoteBatch(std::vector<Item>& items,
                                      std::vector<PurchaseResult>& results) {
  const size_t n = items.size();
  // Per-item admission checks and target resolution. Distinct items may
  // name distinct models (brokers) or lanes (marketplaces), so targets
  // are tracked per item.
  struct Target {
    market::Broker* broker = nullptr;
    std::shared_ptr<const pricing::ErrorCurve> curve;
    bool pending = false;  // Still needs its first quote attempt.
  };
  std::vector<Target> targets(n);
  for (size_t i = 0; i < n; ++i) {
    const Item& item = items[i];
    results[i].status =
        CancelToken::Check(item.cancel.get(), "admission-to-execution");
    if (!results[i].status.ok()) {
      continue;
    }
    // Injected faults scoped to this lane's product ('point@product'
    // clauses) fire for this request and no other lane's.
    fault::ScopedFaultScope fault_scope(lanes_[item.lane]->product_id);
    auto target = ResolveTarget(item.market.get(), item.request,
                                item.cancel.get(), &item.trace);
    if (!target.ok()) {
      results[i].status = target.status();
      continue;
    }
    targets[i].broker = target->first;
    targets[i].curve = std::move(target->second);
    targets[i].pending = true;
  }
  // First attempt, batched: one Broker::QuoteBatch per contiguous run of
  // items sharing a (broker, curve) — runs never span lanes, because
  // each lane's marketplace owns distinct brokers. Per-item
  // service.execute fault and breaker checks mirror the retry loop's
  // attempt preamble.
  for (size_t begin = 0; begin < n;) {
    if (!targets[begin].pending) {
      ++begin;
      continue;
    }
    size_t end = begin + 1;
    while (end < n && targets[end].pending &&
           targets[end].broker == targets[begin].broker &&
           targets[end].curve == targets[begin].curve) {
      ++end;
    }
    Lane& lane = *lanes_[items[begin].lane];
    fault::ScopedFaultScope fault_scope(lane.product_id);
    telemetry::TraceSpan span("service.quote.batch_attempt",
                              &items[begin].trace);
    std::vector<size_t> quoted;             // Items that reach the broker.
    std::vector<Rng> rngs;                  // Stable storage for item rngs.
    quoted.reserve(end - begin);
    rngs.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      results[i].status = AdmitQuoteAttempt(*lane.quote_breaker, span);
      if (!results[i].status.ok()) {
        continue;
      }
      quoted.push_back(i);
      rngs.push_back(lane.base_rng.Fork(StreamId(items[i].ticket, kQuoteStream)));
    }
    if (!quoted.empty()) {
      std::vector<market::Broker::QuoteBatchItem> batch(quoted.size());
      std::vector<StatusOr<market::Broker::Purchase>> outcomes(
          quoted.size(), StatusOr<market::Broker::Purchase>(
                             InternalError("quote batch slot not filled")));
      for (size_t j = 0; j < quoted.size(); ++j) {
        batch[j].inverse_ncp = items[quoted[j]].request.inverse_ncp;
        batch[j].rng = &rngs[j];
      }
      targets[begin].broker->QuoteBatch(*targets[begin].curve, batch, outcomes,
                                        &span.context());
      for (size_t j = 0; j < quoted.size(); ++j) {
        const size_t i = quoted[j];
        SettleBreaker(*lane.quote_breaker, outcomes[j].status(), span,
                      "fault:broker.quote");
        if (!outcomes[j].ok()) {
          results[i].status = outcomes[j].status();
          continue;
        }
        results[i].purchase = std::move(*outcomes[j]);
        results[i].status = OkStatus();
        results[i].quote_attempts = 1;
        targets[i].pending = false;
      }
    }
    begin = end;
  }
  // Items whose batched first attempt failed re-enter the retry loop
  // with that outcome replayed as attempt one (fresh per-ticket forks
  // redraw identical noise on real retries).
  for (size_t i = 0; i < n; ++i) {
    if (!targets[i].pending || results[i].status.ok()) {
      continue;
    }
    fault::ScopedFaultScope fault_scope(lanes_[items[i].lane]->product_id);
    const Status first_attempt = std::move(results[i].status);
    RunQuoteRetries(items[i], results[i], targets[i].broker, *targets[i].curve,
                    first_attempt);
  }
}

void MarketService::CommitOne(Item& item, PurchaseResult& result) {
  Lane& lane = *lanes_[item.lane];
  if (result.status.ok()) {
    fault::ScopedFaultScope fault_scope(lane.product_id);
    auto attempt = [&]() -> Status {
      telemetry::TraceSpan span("service.commit.attempt", &item.trace);
      if (Status allowed = lane.journal_breaker->Allow(); !allowed.ok()) {
        span.Annotate("breaker-open");
        return allowed;
      }
      StatusOr<int64_t> sequence = item.market->RecordQuotedSale(
          item.request.buyer_id, item.request.model, result.purchase,
          &span.context());
      SettleBreaker(*lane.journal_breaker, sequence.status(), span,
                    "fault:journal.append");
      if (!sequence.ok()) {
        return sequence.status();
      }
      result.sequence = *sequence;
      return OkStatus();
    };
    // Deliberately NOT bounded by the request deadline: once the quote
    // succeeded the commit must land or fail on its own merits —
    // abandoning a half-committed sale on a buyer timeout would fork the
    // ledger from the books.
    result.status = RetryWithBackoff(
        options_.journal_retry,
        lane.base_rng.Fork(StreamId(item.ticket, kJournalBackoffStream)),
        *clock_, /*cancel=*/nullptr, attempt, &result.journal_attempts);
  }
  // Bulkhead triage: the shard inspects every terminal commit outcome.
  // Successes refresh its revenue rollup and checkpoint health; a
  // failure implicating durable state (poisoned journal, short write,
  // ENOSPC) quarantines exactly this shard — the other lanes never see
  // anything.
  lane.shard->ReportCommitOutcome(result.status);
  // Hand the committed sale to the economic auditor while this thread
  // still owns the sequencer slot — the post-commit ledger totals it
  // fingerprints are only safe to read here. Detection-only: OnCommit
  // never blocks, fails, or touches any lane RNG stream.
  if (lane.audit_tap != nullptr && result.status.ok()) {
    market::Auditor::CommitView view;
    view.model = item.request.model;
    view.inverse_ncp = result.purchase.inverse_ncp;
    view.price = result.purchase.price;
    view.booked_revenue_after = item.market->total_revenue();
    view.sales_after = item.market->ledger().SaleCount();
    view.trace_id = item.trace.trace_id;
    view.ticket = item.ticket;
    view.degraded = result.purchase.degraded;
    options_.auditor->OnCommit(lane.audit_tap, view);
  }
}

void MarketService::CommitBatchInOrder(std::vector<Item>& items,
                                       std::vector<PurchaseResult>& results) {
  if (items.empty()) {
    return;
  }
  // Group the batch by lane, in order of first appearance. The queue is
  // globally FIFO and lane tickets are dense, so each lane's
  // subsequence of this contiguous batch is one consecutive run of that
  // lane's tickets: one sequencer rendezvous per lane per batch, one
  // wakeup at the end. Deadlock-free across workers: a group's first
  // ticket only ever waits on runs admitted strictly earlier, so the
  // wait-for graph between batches is acyclic.
  std::vector<int> order;                    // Lane ids, first-appearance.
  std::vector<std::vector<size_t>> groups;   // Item indices per lane.
  for (size_t i = 0; i < items.size(); ++i) {
    const int lane = items[i].lane;
    size_t g = 0;
    while (g < order.size() && order[g] != lane) {
      ++g;
    }
    if (g == order.size()) {
      order.push_back(lane);
      groups.emplace_back();
    }
    groups[g].push_back(i);
  }
  for (size_t g = 0; g < order.size(); ++g) {
    Lane& lane = *lanes_[order[g]];
    std::unique_lock<prof::ProfiledMutex> lock(lane.seq_mu);
    lane.seq_cv.wait(lock, [&] {
      return lane.next_commit == items[groups[g].front()].ticket;
    });
    for (size_t i : groups[g]) {
      CommitOne(items[i], results[i]);
      ++lane.next_commit;
    }
    lane.seq_cv.notify_all();
  }
}

void MarketService::Finish(Item& item, PurchaseResult result,
                           telemetry::FlightRecord flight) {
  Lane& lane = *lanes_[item.lane];
  const int extra = std::max(result.quote_attempts - 1, 0) +
                    std::max(result.journal_attempts - 1, 0);
  if (extra > 0) {
    retries_.fetch_add(extra, std::memory_order_relaxed);
    RetryCounter().Increment(extra);
  }
  if (result.status.ok()) {
    succeeded_.fetch_add(1, std::memory_order_relaxed);
    lane.succeeded.fetch_add(1, std::memory_order_relaxed);
    CompletedCounter().Increment();
  } else {
    if (result.status.code() == StatusCode::kDeadlineExceeded) {
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      DeadlineCounter().Increment();
    }
    failed_.fetch_add(1, std::memory_order_relaxed);
    lane.failed.fetch_add(1, std::memory_order_relaxed);
    FailedCounter().Increment();
  }
  const double total_us =
      static_cast<double>(clock_->NowNanos() - item.submit_ns) / 1000.0;
  // The trace id rides along as the bucket's exemplar, so /tracez can
  // join a latency bucket back to this request's span tree.
  LatencyHistogram().Observe(total_us, item.trace.trace_id);

  flight.status_code = static_cast<int32_t>(result.status.code());
  flight.total_us = total_us;
  flight.quote_attempts = result.quote_attempts;
  flight.journal_attempts = result.journal_attempts;
  flight.degraded = result.purchase.degraded;
  telemetry::FlightRecorder::Global().Record(flight);
  slo_.RecordRequest(result.status.ok(), total_us);

  // Black-box auto-dump on the terminal outcomes an operator would page
  // on. Absorbed (retried-away) faults never land here — only faults
  // that survived the retry budget reach a terminal status.
  if (!result.status.ok()) {
    if (result.status.code() == StatusCode::kDeadlineExceeded) {
      telemetry::FlightRecorder::Global().DumpOnIncident("deadline-exceeded");
    } else if (result.status.code() == StatusCode::kFailedPrecondition &&
               result.status.message().find("poisoned") != std::string::npos) {
      telemetry::FlightRecorder::Global().DumpOnIncident("journal-poisoned");
    } else if (result.status.message().find("fault injected") !=
               std::string::npos) {
      telemetry::FlightRecorder::Global().DumpOnIncident("fault");
    }
  }
  item.promise.set_value(std::move(result));
}

void MarketService::WorkerLoop() {
  while (true) {
    std::vector<Item> batch = queue_.PopBatch(kMaxQuoteBatch);
    if (batch.empty()) {
      return;  // Closed and drained.
    }
    QueueDepthGauge().Set(static_cast<double>(queue_.size()));
    const size_t n = batch.size();
    std::vector<PurchaseResult> results(n);
    std::vector<telemetry::FlightRecord> flights(n);
    // Root span of each request's trace tree; every downstream span
    // (curve build, quote attempts, journal append) parents here.
    // unique_ptr because TraceSpan is pinned (non-movable).
    std::vector<std::unique_ptr<telemetry::TraceSpan>> roots(n);
    const int64_t dequeue_ns = clock_->NowNanos();
    for (size_t i = 0; i < n; ++i) {
      results[i].ticket = batch[i].ticket;
      results[i].product_id = lanes_[batch[i].lane]->product_id;
      results[i].trace_id = batch[i].trace.trace_id;
      flights[i].trace_id = batch[i].trace.trace_id;
      flights[i].ticket = batch[i].ticket;
      flights[i].queue_us =
          static_cast<double>(dequeue_ns - batch[i].submit_ns) / 1000.0;
      roots[i] = std::make_unique<telemetry::TraceSpan>("service.request",
                                                        &batch[i].trace);
      batch[i].trace = roots[i]->context();
    }
    const int64_t execute_start_ns = clock_->NowNanos();
    ExecuteQuoteBatch(batch, results);
    const int64_t execute_end_ns = clock_->NowNanos();
    CommitBatchInOrder(batch, results);
    const int64_t commit_end_ns = clock_->NowNanos();
    // Phase timings are batch-level: each request in the batch reports
    // the batch's execute/commit window (the flight record's per-request
    // split is for attribution, not accounting).
    const double execute_us =
        static_cast<double>(execute_end_ns - execute_start_ns) / 1000.0;
    const double commit_us =
        static_cast<double>(commit_end_ns - execute_end_ns) / 1000.0;
    for (size_t i = 0; i < n; ++i) {
      flights[i].execute_us = execute_us;
      flights[i].commit_us = commit_us;
      if (results[i].status.code() == StatusCode::kDeadlineExceeded) {
        roots[i]->Annotate("deadline-exceeded");
      } else if (!results[i].status.ok()) {
        roots[i]->Annotate("failed");
      }
      if (results[i].purchase.degraded) {
        roots[i]->Annotate("degraded");
      }
      roots[i].reset();  // Close the root span before filing the result.
      Finish(batch[i], std::move(results[i]), flights[i]);
    }
  }
}

Status MarketService::FlushLaneJournal(Lane& lane) {
  StatusOr<std::shared_ptr<market::Marketplace>> serve = lane.shard->Serve();
  if (!serve.ok()) {
    // Quarantined/recovering shards have nothing flushable: the poisoned
    // journal's buffer was already discarded, and durability is the
    // recovery ladder's job now. Not a drain error.
    return OkStatus();
  }
  market::Marketplace* market = serve->get();
  fault::ScopedFaultScope fault_scope(lane.product_id);
  // Flush under the journal retry policy: a transient fsync fault at
  // shutdown should not lose the tail of the books.
  Rng flush_rng(lane.seed ^ 0x9e3779b97f4a7c15ull);
  Status status = RetryWithBackoff(
      options_.journal_retry, std::move(flush_rng), *clock_,
      /*cancel=*/nullptr, [&] { return market->FlushJournal(); });
  // Checkpoint-on-drain: with the queue closed and the pool joined the
  // ledger is quiescent, so a graceful shutdown leaves a fresh snapshot
  // behind and the next start recovers in O(delta) over an empty tail.
  // (No-op when the last cadence checkpoint already covers everything.)
  if (status.ok() && market->checkpoints_enabled()) {
    const StatusOr<int64_t> generation = market->CheckpointNow();
    if (!generation.ok()) {
      // Durability is intact (the flush above succeeded); surface the
      // failure so operators notice the degraded restart cost.
      NIMBUS_LOG(kWarning) << "checkpoint on drain failed (shard '"
                           << lane.product_id
                           << "'): " << generation.status().message();
      status = generation.status();
    }
  }
  return status;
}

Status MarketService::Drain() {
  if (!started_.load(std::memory_order_acquire)) {
    return FailedPreconditionError("service was never started");
  }
  draining_.store(true, std::memory_order_release);
  queue_.Close();
  // Concurrent drains serialize here; the first one does the work and
  // later ones return its status.
  std::lock_guard<std::mutex> lock(drain_mu_);
  if (drained_.load(std::memory_order_acquire)) {
    return drain_status_;
  }
  if (runner_.joinable()) {
    runner_.join();
  }
  pool_.reset();
  // Every serving lane flushes (and checkpoints) independently; the
  // first failure is reported, but no lane's flush is skipped because a
  // sibling's failed — drains are bulkheaded like everything else.
  drain_status_ = OkStatus();
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    const Status status = FlushLaneJournal(*lane);
    if (!status.ok() && drain_status_.ok()) {
      drain_status_ = status;
    }
  }
  drained_.store(true, std::memory_order_release);
  return drain_status_;
}

const CircuitBreaker& MarketService::quote_breaker() const {
  return *lanes_.front()->quote_breaker;
}

const CircuitBreaker& MarketService::journal_breaker() const {
  return *lanes_.front()->journal_breaker;
}

MarketService::HealthReport MarketService::GetHealthReport() const {
  HealthReport report;
  report.healthy = true;
  if (!started_.load(std::memory_order_acquire)) {
    report.healthy = false;
    report.problems.push_back("service: not started");
  }
  if (draining()) {
    report.healthy = false;
    report.problems.push_back("service: draining");
  }
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    const std::string& name = lane->product_id;
    const market::ShardState state = lane->shard->state();
    if (state != market::ShardState::kServing) {
      const std::string detail = lane->shard->state_detail();
      report.problems.push_back(
          "shard " + name + ": " + market::ShardStateName(state) +
          (detail.empty() ? "" : " (" + detail + ")"));
      // Degraded shards still serve (journal tail intact); only a
      // quarantined or mid-recovery bulkhead flips the liveness bit.
      if (state != market::ShardState::kDegraded) {
        report.healthy = false;
      }
    }
    if (lane->quote_breaker->state() == CircuitBreaker::State::kOpen) {
      report.healthy = false;
      report.problems.push_back("lane " + name + ": quote breaker open");
    }
    if (lane->journal_breaker->state() == CircuitBreaker::State::kOpen) {
      report.healthy = false;
      report.problems.push_back("lane " + name + ": journal breaker open");
    }
  }
  // Economic-auditor verdicts: a detected invariant violation is a
  // quarantine-grade annotation on the owning shard's health — it flips
  // the liveness bit (the books can no longer be trusted) but never
  // blocks the quote path; the auditor is detection-only.
  if (options_.auditor != nullptr) {
    const market::Auditor::Status audit = options_.auditor->GetStatus();
    if (audit.violations > 0) {
      report.healthy = false;
      for (const market::Auditor::Violation& v : audit.recent) {
        report.problems.push_back("shard " + v.product + ": audit violation (" +
                                  market::AuditInvariantName(v.invariant) +
                                  ": " + v.detail + ")");
      }
    }
  }
  return report;
}

std::vector<MarketService::ShardView> MarketService::ShardViews() const {
  std::vector<ShardView> views;
  views.reserve(lanes_.size());
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    ShardView view;
    view.product_id = lane->product_id;
    view.submitted = lane->submitted.load(std::memory_order_relaxed);
    view.shed = lane->shed.load(std::memory_order_relaxed);
    view.succeeded = lane->succeeded.load(std::memory_order_relaxed);
    view.failed = lane->failed.load(std::memory_order_relaxed);
    view.state = lane->shard->state();
    view.state_detail = lane->shard->state_detail();
    view.last_restore = lane->shard->last_restore_report();
    // Booked totals come from the shard's cache, maintained on the
    // serialized commit path — /shardz may be scraped while workers are
    // mid-commit and must never read the live ledger from this thread.
    view.shard_stats = lane->shard->stats();
    view.revenue = view.shard_stats.revenue;
    view.sales = view.shard_stats.sales;
    views.push_back(std::move(view));
  }
  return views;
}

MarketService::Stats MarketService::stats() const {
  Stats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.admitted = admitted_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.succeeded = succeeded_.load(std::memory_order_relaxed);
  stats.failed = failed_.load(std::memory_order_relaxed);
  stats.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  stats.retries = retries_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace nimbus::service
