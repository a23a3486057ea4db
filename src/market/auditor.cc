#include "market/auditor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

#include "common/fault.h"
#include "common/flight_recorder.h"
#include "common/logging.h"
#include "common/telemetry.h"
#include "common/timeseries.h"
#include "pricing/arbitrage.h"

namespace nimbus::market {
namespace {

uint64_t Fnv64(const std::string& key) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

telemetry::Counter& PassesCounter() {
  static telemetry::Counter& counter =
      telemetry::Registry::Global().GetCounter("audit_passes_total");
  return counter;
}

telemetry::Counter& CommitsCounter() {
  static telemetry::Counter& counter =
      telemetry::Registry::Global().GetCounter("audit_commits_observed_total");
  return counter;
}

telemetry::Counter& SamplesCounter() {
  static telemetry::Counter& counter =
      telemetry::Registry::Global().GetCounter("audit_samples_total");
  return counter;
}

telemetry::Counter& DroppedCounter() {
  static telemetry::Counter& counter =
      telemetry::Registry::Global().GetCounter("audit_ring_dropped_total");
  return counter;
}

telemetry::CounterVec& ViolationsVec() {
  static telemetry::CounterVec& vec =
      telemetry::Registry::Global().GetCounterVec("audit_violations_total",
                                                  "invariant");
  return vec;
}

telemetry::CounterVec& OfferingViolationsVec() {
  static telemetry::CounterVec& vec =
      telemetry::Registry::Global().GetCounterVec(
          "audit_offering_violations_total", "offering");
  return vec;
}

telemetry::Gauge& LanesGauge() {
  static telemetry::Gauge& gauge =
      telemetry::Registry::Global().GetGauge("audit_lanes");
  return gauge;
}

// Once-per-invariant incident reasons (the flight recorder's dump
// latch is keyed by reason, so each invariant auto-dumps at most once
// per process).
const char* IncidentReasonFor(AuditInvariant invariant) {
  switch (invariant) {
    case AuditInvariant::kMispricing:
      return "audit-violation-mispricing";
    case AuditInvariant::kMonotonicity:
      return "audit-violation-monotonicity";
    case AuditInvariant::kSubadditivity:
      return "audit-violation-subadditivity";
    case AuditInvariant::kConservation:
      return "audit-violation-conservation";
  }
  return "audit-violation";
}

void AppendDouble17(std::ostringstream& out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out << buf;
}

}  // namespace

const char* AuditInvariantName(AuditInvariant invariant) {
  switch (invariant) {
    case AuditInvariant::kMispricing:
      return "mispricing";
    case AuditInvariant::kMonotonicity:
      return "monotonicity";
    case AuditInvariant::kSubadditivity:
      return "subadditivity";
    case AuditInvariant::kConservation:
      return "conservation";
  }
  return "?";
}

// One ring slot. Every payload field is a relaxed atomic (seqlock'd by
// `version`), same discipline as the flight recorder: concurrent
// producers / the consumer are data-race-free and torn views are
// detected and discarded.
struct Auditor::Slot {
  std::atomic<uint64_t> version{0};
  std::atomic<int64_t> seq{-1};
  std::atomic<int32_t> tap_index{-1};
  std::atomic<int32_t> model{0};
  std::atomic<double> inverse_ncp{0.0};
  std::atomic<double> price{0.0};
  std::atomic<double> booked_after{0.0};
  std::atomic<int64_t> sales_after{0};
  std::atomic<uint64_t> trace_id{0};
  std::atomic<int64_t> ticket{-1};
  std::atomic<uint32_t> degraded{0};
};

struct Auditor::TapEntry {
  std::string product;
  Shard* shard = nullptr;            // Catalog lanes.
  Marketplace* fixed_market = nullptr;  // Legacy fixed-market lanes.
  AuditTap tap;
};

Auditor::Auditor(AuditorOptions options, const Clock* clock)
    : options_(options),
      clock_(clock != nullptr ? clock : SystemClock::Get()),
      slots_(options.ring_capacity > 0 ? options.ring_capacity : 1) {}

Auditor::~Auditor() { Stop(); }

void Auditor::AttachCatalog(Catalog* catalog) {
  std::lock_guard<std::mutex> lock(taps_mu_);
  catalog_ = catalog;
}

AuditTap* Auditor::RegisterLane(const std::string& product_id, Shard* shard,
                                Marketplace* fixed_market) {
  std::lock_guard<std::mutex> lock(taps_mu_);
  auto entry = std::make_unique<TapEntry>();
  entry->product = product_id;
  entry->shard = shard;
  entry->fixed_market = fixed_market;
  entry->tap.index = static_cast<int32_t>(taps_.size());
  entry->tap.sample_rng = Rng(options_.seed ^ Fnv64(product_id));
  taps_.push_back(std::move(entry));
  LanesGauge().Set(static_cast<double>(taps_.size()));
  return &taps_.back()->tap;
}

void Auditor::OnCommit(AuditTap* tap, const CommitView& view) {
  if (tap == nullptr) {
    return;
  }
  // Conservation fingerprint. Single writer per tap (the lane's commit
  // sequencer), so plain load-modify-store on the atomics is exact;
  // the seqlock only protects the auditor's cross-field reads.
  const uint64_t v = tap->version.load(std::memory_order_relaxed);
  tap->version.store(v + 1, std::memory_order_release);
  if (!tap->has_baseline.load(std::memory_order_relaxed)) {
    tap->baseline.store(view.booked_revenue_after - view.price,
                        std::memory_order_relaxed);
    tap->has_baseline.store(true, std::memory_order_relaxed);
  }
  tap->accumulated.store(
      tap->accumulated.load(std::memory_order_relaxed) + view.price,
      std::memory_order_relaxed);
  tap->booked_after.store(view.booked_revenue_after,
                          std::memory_order_relaxed);
  tap->sales_after.store(view.sales_after, std::memory_order_relaxed);
  tap->commits.store(tap->commits.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
  tap->version.store(v + 2, std::memory_order_release);
  CommitsCounter().Increment();

  // Deterministic sampling: a pure function of (seed, product, ticket),
  // so the sampled SET is identical at every worker count and no lane
  // RNG stream is ever touched.
  if (options_.sample_rate < 1.0) {
    Rng decision = tap->sample_rng.Fork(static_cast<uint64_t>(view.ticket));
    if (!decision.Bernoulli(options_.sample_rate)) {
      return;
    }
  }

  double price = view.price;
  if (fault::ShouldFail("audit.verify")) {
    // Drill hook: corrupt this sampled COPY's price only. The ledger,
    // the buyer's purchase, and every market output stay untouched —
    // the drill proves the DETECTOR works, not that the market broke.
    price = price * 1.01 + 1e-6;
  }

  const int64_t seq = head_.fetch_add(1, std::memory_order_acq_rel);
  Slot& slot = slots_[static_cast<size_t>(seq) % slots_.size()];
  uint64_t sv = slot.version.load(std::memory_order_relaxed);
  if (sv % 2 != 0 ||
      !slot.version.compare_exchange_strong(sv, sv + 1,
                                            std::memory_order_acquire)) {
    // A lapping writer owns this very slot; dropping one sample beats
    // blocking the commit path.
    dropped_.fetch_add(1, std::memory_order_relaxed);
    DroppedCounter().Increment();
    return;
  }
  slot.seq.store(seq, std::memory_order_relaxed);
  slot.tap_index.store(tap->index, std::memory_order_relaxed);
  slot.model.store(static_cast<int32_t>(view.model),
                   std::memory_order_relaxed);
  slot.inverse_ncp.store(view.inverse_ncp, std::memory_order_relaxed);
  slot.price.store(price, std::memory_order_relaxed);
  slot.booked_after.store(view.booked_revenue_after,
                          std::memory_order_relaxed);
  slot.sales_after.store(view.sales_after, std::memory_order_relaxed);
  slot.trace_id.store(view.trace_id, std::memory_order_relaxed);
  slot.ticket.store(view.ticket, std::memory_order_relaxed);
  slot.degraded.store(view.degraded ? 1 : 0, std::memory_order_relaxed);
  slot.version.store(sv + 2, std::memory_order_release);
}

void Auditor::Start() {
  std::lock_guard<std::mutex> lock(loop_mu_);
  if (loop_running_) {
    return;
  }
  stop_ = false;
  loop_running_ = true;
  loop_ = std::thread([this] { Loop(); });
}

void Auditor::Stop() {
  {
    std::lock_guard<std::mutex> lock(loop_mu_);
    if (!loop_running_) {
      return;
    }
    stop_ = true;
  }
  loop_cv_.notify_all();
  if (loop_.joinable()) {
    loop_.join();
  }
  std::lock_guard<std::mutex> lock(loop_mu_);
  loop_running_ = false;
}

bool Auditor::running() const {
  std::lock_guard<std::mutex> lock(loop_mu_);
  return loop_running_;
}

void Auditor::Loop() {
  std::unique_lock<std::mutex> lock(loop_mu_);
  while (!stop_) {
    lock.unlock();
    RunPass();
    lock.lock();
    loop_cv_.wait_for(
        lock,
        std::chrono::duration<double>(options_.pass_interval_seconds),
        [this] { return stop_; });
  }
}

int Auditor::RunPass() {
  std::vector<Violation> found;
  DrainAndCheck(&found);
  CheckConservation(&found);
  for (Violation& violation : found) {
    FileViolation(std::move(violation));
  }
  PassesCounter().Increment();
  if (options_.pump_timeseries) {
    telemetry::TimeseriesRing::Global().SampleIfDue();
  }
  std::lock_guard<std::mutex> lock(status_mu_);
  ++passes_;
  last_pass_t_ns_ = clock_->NowNanos();
  return static_cast<int>(found.size());
}

int Auditor::DrainAndCheck(std::vector<Violation>* out) {
  const size_t cap = slots_.size();
  const size_t before = out->size();
  int64_t head = head_.load(std::memory_order_acquire);
  if (head - consumed_ > static_cast<int64_t>(cap)) {
    const int64_t skipped = head - static_cast<int64_t>(cap) - consumed_;
    dropped_.fetch_add(skipped, std::memory_order_relaxed);
    DroppedCounter().Increment(skipped);
    consumed_ = head - static_cast<int64_t>(cap);
  }
  int64_t audited = 0;
  while (consumed_ < head) {
    Slot& slot = slots_[static_cast<size_t>(consumed_) % cap];
    const uint64_t v1 = slot.version.load(std::memory_order_acquire);
    if (v1 % 2 != 0) {
      break;  // Writer mid-flight; finish this sample next pass.
    }
    const int64_t seq = slot.seq.load(std::memory_order_relaxed);
    const int32_t tap_index = slot.tap_index.load(std::memory_order_relaxed);
    const int32_t model = slot.model.load(std::memory_order_relaxed);
    const double inverse_ncp =
        slot.inverse_ncp.load(std::memory_order_relaxed);
    const double price = slot.price.load(std::memory_order_relaxed);
    const uint64_t trace_id = slot.trace_id.load(std::memory_order_relaxed);
    const int64_t ticket = slot.ticket.load(std::memory_order_relaxed);
    const uint64_t v2 = slot.version.load(std::memory_order_acquire);
    if (v2 != v1) {
      // Lapped mid-read; the sample is gone.
      dropped_.fetch_add(1, std::memory_order_relaxed);
      DroppedCounter().Increment();
      ++consumed_;
      continue;
    }
    if (seq != consumed_) {
      if (seq < consumed_) {
        break;  // Slot claimed but not yet published.
      }
      dropped_.fetch_add(1, std::memory_order_relaxed);
      DroppedCounter().Increment();
      ++consumed_;
      continue;
    }
    ++consumed_;
    ++audited;
    SamplesCounter().Increment();

    TapEntry* entry = nullptr;
    {
      std::lock_guard<std::mutex> lock(taps_mu_);
      if (tap_index >= 0 && tap_index < static_cast<int32_t>(taps_.size())) {
        entry = taps_[static_cast<size_t>(tap_index)].get();
      }
    }
    if (entry == nullptr) {
      continue;
    }
    // Resolve the lane's current marketplace. Shard lanes go through
    // the shard so an audit never reads a marketplace a recovery swap
    // retired; the shared_ptr keeps it alive for the check.
    std::shared_ptr<Marketplace> held;
    Marketplace* market = entry->fixed_market;
    if (entry->shard != nullptr) {
      held = entry->shard->market();
      market = held.get();
    }
    if (market == nullptr) {
      continue;
    }
    const auto kind = static_cast<ml::ModelKind>(model);
    StatusOr<Broker*> broker_or = market->BrokerFor(kind);
    if (!broker_or.ok()) {
      continue;  // Offering unknown to this marketplace; nothing to audit.
    }
    const Broker& broker = *broker_or.value();
    const std::string offering(ml::ModelKindToString(kind));
    const pricing::PricingFunction& pf = broker.pricing_function();

    // (1) Exact re-price: the committed price must be the pricing
    // function's value at the committed 1/δ (the quote path derives it
    // from exactly this pure function).
    const double expected = pf.PriceAtInverseNcp(inverse_ncp);
    if (std::abs(price - expected) >
        options_.price_tol * std::max(1.0, std::abs(expected))) {
      Violation v;
      v.invariant = AuditInvariant::kMispricing;
      v.product = entry->product;
      v.offering = offering;
      v.ticket = ticket;
      v.trace_id = trace_id;
      std::ostringstream msg;
      msg << "committed price ";
      AppendDouble17(msg, price);
      msg << " != p(";
      AppendDouble17(msg, inverse_ncp);
      msg << ") = ";
      AppendDouble17(msg, expected);
      v.detail = msg.str();
      out->push_back(std::move(v));
    }

    // (2) Curve-level monotonicity / subadditivity spot check, once
    // per installed pricing function per offering (the memo keys on
    // the function's identity, so a re-priced offering re-certifies).
    const std::pair<int32_t, int32_t> memo_key(tap_index, model);
    const void* pf_id = static_cast<const void*>(&pf);
    auto memo = audited_curves_.find(memo_key);
    if (memo == audited_curves_.end() || memo->second != pf_id) {
      audited_curves_[memo_key] = pf_id;
      const Broker::Options& bopts = broker.options();
      pricing::AuditResult audit = pricing::AuditPricingFunction(
          pf,
          pricing::AuditGrid(bopts.min_inverse_ncp, bopts.max_inverse_ncp,
                             options_.grid_points));
      if (!audit.arbitrage_free) {
        Violation v;
        v.invariant =
            audit.violation.rfind("monotonicity", 0) == 0
                ? AuditInvariant::kMonotonicity
                : AuditInvariant::kSubadditivity;
        v.product = entry->product;
        v.offering = offering;
        v.ticket = ticket;
        v.trace_id = trace_id;
        v.detail = audit.violation;
        out->push_back(std::move(v));
      }
    }
  }
  if (audited > 0) {
    std::lock_guard<std::mutex> lock(status_mu_);
    samples_audited_ += audited;
  }
  return static_cast<int>(out->size() - before);
}

int Auditor::CheckConservation(std::vector<Violation>* out) {
  const size_t before = out->size();
  std::vector<TapEntry*> entries;
  Catalog* catalog = nullptr;
  {
    std::lock_guard<std::mutex> lock(taps_mu_);
    catalog = catalog_;
    entries.reserve(taps_.size());
    for (const std::unique_ptr<TapEntry>& entry : taps_) {
      entries.push_back(entry.get());
    }
  }
  double fingerprint_sum = 0.0;
  int64_t sales_sum = 0;
  bool all_stable = true;
  for (TapEntry* entry : entries) {
    const AuditTap& tap = entry->tap;
    // Consistent cross-field read through the tap's seqlock; a lane
    // committing right now just defers this lane to the next pass.
    bool stable = false;
    bool has_baseline = false;
    double baseline = 0.0, accumulated = 0.0, booked_after = 0.0;
    double tamper = 0.0;
    int64_t sales_after = 0;
    for (int attempt = 0; attempt < 3 && !stable; ++attempt) {
      const uint64_t v1 = tap.version.load(std::memory_order_acquire);
      if (v1 % 2 != 0) {
        continue;
      }
      has_baseline = tap.has_baseline.load(std::memory_order_relaxed);
      baseline = tap.baseline.load(std::memory_order_relaxed);
      accumulated = tap.accumulated.load(std::memory_order_relaxed);
      booked_after = tap.booked_after.load(std::memory_order_relaxed);
      sales_after = tap.sales_after.load(std::memory_order_relaxed);
      tamper = tap.tamper.load(std::memory_order_relaxed);
      stable = tap.version.load(std::memory_order_acquire) == v1;
    }
    if (!stable) {
      all_stable = false;
      continue;
    }
    if (!has_baseline) {
      continue;  // No tapped commit yet; nothing to conserve.
    }
    fingerprint_sum += booked_after;
    sales_sum += sales_after;

    // (3a) Per-lane fingerprint: baseline + Σ committed prices must
    // reproduce the booked ledger total — the identity journal replay
    // re-derives record by record.
    const double fingerprint = baseline + accumulated + tamper;
    if (std::abs(fingerprint - booked_after) >
        options_.revenue_tol * std::max(1.0, std::abs(booked_after))) {
      Violation v;
      v.invariant = AuditInvariant::kConservation;
      v.product = entry->product;
      std::ostringstream msg;
      msg << "fingerprint ";
      AppendDouble17(msg, fingerprint);
      msg << " != booked revenue ";
      AppendDouble17(msg, booked_after);
      msg << " after " << sales_after << " sales";
      v.detail = msg.str();
      out->push_back(std::move(v));
      continue;
    }
    // (3b) Shard lanes: the shard's cached booked totals (what rollups
    // and /shardz serve) must agree with the committed ledger total at
    // the same sale count.
    if (entry->shard != nullptr) {
      const Shard::Stats stats = entry->shard->stats();
      if (stats.sales == sales_after &&
          std::abs(stats.revenue - booked_after) >
              options_.revenue_tol * std::max(1.0, std::abs(booked_after))) {
        Violation v;
        v.invariant = AuditInvariant::kConservation;
        v.product = entry->product;
        std::ostringstream msg;
        msg << "shard cached revenue ";
        AppendDouble17(msg, stats.revenue);
        msg << " != booked revenue ";
        AppendDouble17(msg, booked_after);
        msg << " at " << sales_after << " sales";
        v.detail = msg.str();
        out->push_back(std::move(v));
      }
    }
  }
  // (3c) Cross-shard rollup: when every lane was readable and the
  // window was quiescent (no commit landed between our tap reads and
  // the rollup), the catalog rollup must equal the sum of the lanes'
  // booked totals.
  if (catalog != nullptr && all_stable && !entries.empty()) {
    const Catalog::Rollup rollup = catalog->GetRollup();
    bool quiescent = rollup.total_sales == sales_sum;
    if (quiescent) {
      for (TapEntry* entry : entries) {
        // A commit in flight since our read re-arms next pass.
        if (entry->tap.version.load(std::memory_order_acquire) % 2 != 0) {
          quiescent = false;
          break;
        }
      }
    }
    if (quiescent &&
        std::abs(rollup.total_revenue - fingerprint_sum) >
            options_.revenue_tol *
                std::max(1.0, std::abs(fingerprint_sum))) {
      Violation v;
      v.invariant = AuditInvariant::kConservation;
      v.product = "catalog";
      std::ostringstream msg;
      msg << "catalog rollup revenue ";
      AppendDouble17(msg, rollup.total_revenue);
      msg << " != sum of per-shard booked revenue ";
      AppendDouble17(msg, fingerprint_sum);
      msg << " at " << sales_sum << " sales";
      v.detail = msg.str();
      out->push_back(std::move(v));
    }
  }
  return static_cast<int>(out->size() - before);
}

void Auditor::FileViolation(Violation violation) {
  violation.detected_t_ns = clock_->NowNanos();
  const char* invariant_name = AuditInvariantName(violation.invariant);
  ViolationsVec().WithLabel(invariant_name).Increment();
  if (!violation.offering.empty()) {
    OfferingViolationsVec().WithLabel(violation.offering).Increment();
  }
  NIMBUS_LOG(kWarning) << "auditor: " << invariant_name
                       << " violation on '" << violation.product << "'"
                       << (violation.offering.empty()
                               ? std::string()
                               : " offering '" + violation.offering + "'")
                       << ": " << violation.detail;
  // Black box: file a flight flagged audit_violation carrying the
  // sampled request's trace id (joined by /tracez), then auto-dump the
  // ring once per invariant.
  telemetry::FlightRecord record;
  record.trace_id = violation.trace_id;
  record.ticket = violation.ticket;
  record.audit_violation = true;
  telemetry::FlightRecorder::Global().Record(record);
  telemetry::FlightRecorder::Global().DumpOnIncident(
      IncidentReasonFor(violation.invariant));
  // Capture the crossing into the metric history NOW, so the
  // first-failure timestamp is dated to this pass, not up to one
  // timeseries step later.
  if (options_.pump_timeseries) {
    telemetry::TimeseriesRing::Global().SampleNow();
  }
  std::lock_guard<std::mutex> lock(status_mu_);
  ++violations_;
  if (first_violation_t_ns_ == 0) {
    first_violation_t_ns_ = violation.detected_t_ns;
  }
  recent_.push_back(std::move(violation));
  if (recent_.size() > options_.max_recent_violations) {
    recent_.erase(recent_.begin());
  }
}

void Auditor::TamperForTest(const std::string& product_id,
                            double revenue_delta) {
  std::lock_guard<std::mutex> lock(taps_mu_);
  for (const std::unique_ptr<TapEntry>& entry : taps_) {
    if (entry->product == product_id) {
      AuditTap& tap = entry->tap;
      tap.tamper.store(
          tap.tamper.load(std::memory_order_relaxed) + revenue_delta,
          std::memory_order_relaxed);
      return;
    }
  }
  NIMBUS_LOG(kWarning) << "auditor: TamperForTest on unknown product '"
                       << product_id << "'";
}

Auditor::Status Auditor::GetStatus() const {
  Status status;
  {
    std::lock_guard<std::mutex> lock(loop_mu_);
    status.running = loop_running_;
  }
  status.samples_dropped = dropped_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(status_mu_);
  status.passes = passes_;
  status.samples_audited = samples_audited_;
  status.violations = violations_;
  status.last_pass_t_ns = last_pass_t_ns_;
  status.first_violation_t_ns = first_violation_t_ns_;
  status.recent = recent_;
  int64_t commits = 0;
  // commits_observed is derivable from the taps without extra state.
  {
    std::lock_guard<std::mutex> taps_lock(taps_mu_);
    for (const std::unique_ptr<TapEntry>& entry : taps_) {
      commits += entry->tap.commits.load(std::memory_order_relaxed);
    }
  }
  status.commits_observed = commits;
  return status;
}

std::string Auditor::ToJson() const {
  const Status status = GetStatus();
  std::ostringstream out;
  out << "{\"running\":" << (status.running ? "true" : "false")
      << ",\"passes\":" << status.passes
      << ",\"commits_observed\":" << status.commits_observed
      << ",\"samples_audited\":" << status.samples_audited
      << ",\"samples_dropped\":" << status.samples_dropped
      << ",\"violations\":" << status.violations
      << ",\"last_pass_t_seconds\":";
  AppendDouble17(out, static_cast<double>(status.last_pass_t_ns) * 1e-9);
  out << ",\"first_violation_t_seconds\":";
  AppendDouble17(out,
                 static_cast<double>(status.first_violation_t_ns) * 1e-9);
  out << ",\"recent_violations\":[";
  bool first = true;
  for (const Violation& v : status.recent) {
    if (!first) {
      out << ',';
    }
    first = false;
    const char* invariant_name = AuditInvariantName(v.invariant);
    out << "{\"invariant\":\"" << invariant_name << "\",\"product\":\""
        << telemetry::JsonEscape(v.product) << "\",\"offering\":\""
        << telemetry::JsonEscape(v.offering) << "\",\"detail\":\""
        << telemetry::JsonEscape(v.detail) << "\",\"ticket\":" << v.ticket
        << ",\"trace_id\":" << v.trace_id << ",\"detected_t_seconds\":";
    AppendDouble17(out, static_cast<double>(v.detected_t_ns) * 1e-9);
    // First-failure timestamp from the metric HISTORY: the earliest
    // retained timeseries sample where this invariant's violation
    // counter crossed 1 — "when did this start", not just "how many".
    const std::string series = std::string("audit_violations_total{") +
                               "invariant=\"" + invariant_name + "\"}";
    const std::optional<int64_t> first_t =
        telemetry::TimeseriesRing::Global().FirstAtLeast(series, 1.0);
    out << ",\"first_failure_t_seconds\":";
    if (first_t.has_value()) {
      AppendDouble17(out, static_cast<double>(*first_t) * 1e-9);
    } else {
      out << "null";
    }
    out << '}';
  }
  out << "]}";
  return out.str();
}

}  // namespace nimbus::market
