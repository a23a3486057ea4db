#include "market/marketplace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/telemetry.h"
#include "market/format_upgrade.h"
#include "mechanism/noise_mechanism.h"

namespace nimbus::market {
namespace {

telemetry::Counter& RecoveryRestoresCounter() {
  static telemetry::Counter& counter =
      telemetry::Registry::Global().GetCounter("recovery_restores_total");
  return counter;
}

telemetry::Counter& RecoverySnapshotsRejectedCounter() {
  static telemetry::Counter& counter =
      telemetry::Registry::Global().GetCounter(
          "recovery_snapshots_rejected_total");
  return counter;
}

telemetry::Counter& RecoveryFullReplaysCounter() {
  static telemetry::Counter& counter =
      telemetry::Registry::Global().GetCounter("recovery_full_replays_total");
  return counter;
}

telemetry::Counter& RecoveryTailRecordsCounter() {
  static telemetry::Counter& counter =
      telemetry::Registry::Global().GetCounter("recovery_tail_records");
  return counter;
}

telemetry::Histogram& RecoveryLatency() {
  static telemetry::Histogram& histogram =
      telemetry::Registry::Global().GetHistogram("recovery_latency_us");
  return histogram;
}

// A snapshot generation together with the journal rows it needs, fully
// validated BEFORE any marketplace state mutates — the recovery ladder
// rejects a candidate and falls back a rung without side effects.
struct RestoreCandidate {
  snapshot::State state;
  std::vector<LedgerEntry> base_entries;  // Rows [0, sequence) iff hydrating.
  std::vector<LedgerEntry> tail;          // Rows from state.sequence on.
};

Status CheckOffered(const std::map<ml::ModelKind, Broker>& brokers,
                    ml::ModelKind kind, const char* what) {
  if (brokers.count(kind) == 0) {
    return FailedPreconditionError(
        std::string(what) + " references model '" +
        std::string(ml::ModelKindToString(kind)) +
        "' which is not offered by this marketplace");
  }
  return OkStatus();
}

// Mirrors the field invariants Ledger::ApplyRecovered enforces, so
// every checkable failure mode surfaces while the candidate can still be
// rejected cleanly. Journal::ReadRange already checked density.
Status ValidateJournalRow(const LedgerEntry& entry,
                          const std::map<ml::ModelKind, Broker>& brokers) {
  if (entry.buyer_id.empty() || !std::isfinite(entry.inverse_ncp) ||
      entry.inverse_ncp <= 0.0 || !std::isfinite(entry.price) ||
      entry.price < 0.0 || !std::isfinite(entry.expected_error)) {
    return InternalError("journal entry " + std::to_string(entry.sequence) +
                         " fails field validation");
  }
  return CheckOffered(brokers, entry.model, "journal");
}

// Validates one snapshot generation end to end (structure, model kinds,
// accumulator sanity, journal coverage and density) without touching
// marketplace state. Only a hydrating restore reads the journal from 0;
// otherwise just the segments holding rows at or past the snapshot are
// opened.
StatusOr<RestoreCandidate> BuildCandidate(
    const std::string& snapshot_file, const std::string& journal_path,
    bool hydrate, const std::map<ml::ModelKind, Broker>& brokers) {
  RestoreCandidate candidate;
  NIMBUS_ASSIGN_OR_RETURN(candidate.state, snapshot::Read(snapshot_file));
  for (const auto& [kind, monitor_state] : candidate.state.monitors) {
    NIMBUS_RETURN_IF_ERROR(CheckOffered(brokers, kind, "snapshot monitor"));
    for (const auto& [buyer, history] : monitor_state.buyers) {
      if (buyer.empty() || history.purchases < 0 ||
          !std::isfinite(history.combined_inverse_ncp) ||
          history.combined_inverse_ncp < 0.0 ||
          !std::isfinite(history.total_paid) || history.total_paid < 0.0) {
        return InternalError("snapshot monitor history for model '" +
                             std::string(ml::ModelKindToString(kind)) +
                             "' fails field validation");
      }
    }
  }
  for (const auto& [kind, revenue] : candidate.state.revenue_by_model) {
    (void)revenue;
    NIMBUS_RETURN_IF_ERROR(
        CheckOffered(brokers, kind, "snapshot revenue aggregate"));
  }
  for (const auto& [kind, sales] : candidate.state.sales_by_model) {
    (void)sales;
    NIMBUS_RETURN_IF_ERROR(
        CheckOffered(brokers, kind, "snapshot sales aggregate"));
  }
  const int64_t covered = candidate.state.sequence;
  NIMBUS_ASSIGN_OR_RETURN(
      std::vector<LedgerEntry> rows,
      Journal::ReadRange(journal_path, hydrate ? 0 : covered, Journal::kToEnd,
                         /*heal_live_tail=*/true));
  if (hydrate) {
    if (static_cast<int64_t>(rows.size()) < covered) {
      return InternalError("journal holds " + std::to_string(rows.size()) +
                           " rows but the snapshot covers " +
                           std::to_string(covered));
    }
    candidate.tail.assign(std::make_move_iterator(rows.begin() + covered),
                          std::make_move_iterator(rows.end()));
    rows.resize(static_cast<size_t>(covered));
    candidate.base_entries = std::move(rows);
  } else {
    candidate.tail = std::move(rows);
  }
  for (const LedgerEntry& entry : candidate.base_entries) {
    NIMBUS_RETURN_IF_ERROR(ValidateJournalRow(entry, brokers));
  }
  for (const LedgerEntry& entry : candidate.tail) {
    NIMBUS_RETURN_IF_ERROR(ValidateJournalRow(entry, brokers));
  }
  return candidate;
}

}  // namespace

Marketplace::Marketplace(data::TrainTestSplit split, Broker::Options options)
    : split_(std::move(split)), options_(options) {}

Status Marketplace::AddOffering(
    ml::ModelKind kind, double ridge_mu,
    std::shared_ptr<const pricing::PricingFunction> pricing) {
  if (pricing == nullptr) {
    return InvalidArgumentError("offering needs a pricing function");
  }
  if (brokers_.count(kind) > 0) {
    return InvalidArgumentError(
        "model '" + std::string(ml::ModelKindToString(kind)) +
        "' is already offered");
  }
  NIMBUS_ASSIGN_OR_RETURN(ml::ModelSpec spec,
                          ml::ModelSpec::Create(kind, ridge_mu));
  // Every broker gets its own copy of the split and a distinct seed so
  // sales across models draw independent noise.
  Broker::Options options = options_;
  options.seed += static_cast<uint64_t>(brokers_.size()) + 1;
  data::TrainTestSplit split_copy{split_.train, split_.test};
  NIMBUS_ASSIGN_OR_RETURN(
      Broker broker,
      Broker::Create(std::move(split_copy), std::move(spec),
                     std::make_unique<mechanism::GaussianMechanism>(),
                     options));
  broker.SetPricingFunction(pricing);
  // All offerings share one cache; per-offering seeds (and model names)
  // keep their curve keys disjoint.
  broker.AttachCurveCache(curve_cache_);
  brokers_.emplace(kind, std::move(broker));
  pricing_.emplace(kind, pricing);
  monitors_.emplace(kind, CollusionMonitor(pricing));
  offering_order_.push_back(kind);
  return OkStatus();
}

std::vector<ml::ModelKind> Marketplace::Offerings() const {
  return offering_order_;
}

StatusOr<Broker*> Marketplace::BrokerFor(ml::ModelKind kind) {
  auto it = brokers_.find(kind);
  if (it == brokers_.end()) {
    return NotFoundError("model '" +
                         std::string(ml::ModelKindToString(kind)) +
                         "' is not offered");
  }
  return &it->second;
}

StatusOr<std::vector<Marketplace::CatalogRow>> Marketplace::Catalog() {
  std::vector<CatalogRow> rows;
  for (ml::ModelKind kind : offering_order_) {
    NIMBUS_ASSIGN_OR_RETURN(Broker * broker, BrokerFor(kind));
    const std::string loss_name =
        broker->model().report_losses().front()->name();
    NIMBUS_ASSIGN_OR_RETURN(std::shared_ptr<const pricing::ErrorCurve> curve,
                            broker->GetErrorCurve(loss_name));
    CatalogRow row;
    row.model = kind;
    row.report_loss = loss_name;
    row.worst_expected_error = curve->points().front().expected_error;
    row.best_expected_error = curve->points().back().expected_error;
    const pricing::PricingFunction& pricing = broker->pricing_function();
    row.min_price =
        pricing.PriceAtInverseNcp(broker->options().min_inverse_ncp);
    row.max_price =
        pricing.PriceAtInverseNcp(broker->options().max_inverse_ncp);
    rows.push_back(std::move(row));
  }
  return rows;
}

StatusOr<Broker::Purchase> Marketplace::Buy(
    const std::string& buyer_id, ml::ModelKind kind, double inverse_ncp,
    const std::string& report_loss_name) {
  if (buyer_id.empty()) {
    return InvalidArgumentError("buyer id must be non-empty");
  }
  NIMBUS_ASSIGN_OR_RETURN(Broker * broker, BrokerFor(kind));
  NIMBUS_ASSIGN_OR_RETURN(
      Broker::Purchase purchase,
      broker->BuyAtInverseNcp(inverse_ncp, report_loss_name));
  NIMBUS_RETURN_IF_ERROR(
      BookSale(buyer_id, kind, purchase, /*trace=*/nullptr).status());
  return purchase;
}

StatusOr<Broker::Purchase> Marketplace::BuyWithPriceBudget(
    const std::string& buyer_id, ml::ModelKind kind, double price_budget,
    const std::string& report_loss_name) {
  if (buyer_id.empty()) {
    return InvalidArgumentError("buyer id must be non-empty");
  }
  NIMBUS_ASSIGN_OR_RETURN(Broker * broker, BrokerFor(kind));
  NIMBUS_ASSIGN_OR_RETURN(
      Broker::Purchase purchase,
      broker->BuyWithPriceBudget(price_budget, report_loss_name));
  NIMBUS_RETURN_IF_ERROR(
      BookSale(buyer_id, kind, purchase, /*trace=*/nullptr).status());
  return purchase;
}

StatusOr<int64_t> Marketplace::RecordQuotedSale(
    const std::string& buyer_id, ml::ModelKind kind,
    const Broker::Purchase& purchase, const telemetry::TraceContext* trace) {
  if (buyer_id.empty()) {
    return InvalidArgumentError("buyer id must be non-empty");
  }
  NIMBUS_RETURN_IF_ERROR(BrokerFor(kind).status());
  return BookSale(buyer_id, kind, purchase, trace);
}

StatusOr<int64_t> Marketplace::BookSale(const std::string& buyer_id,
                                        ml::ModelKind kind,
                                        const Broker::Purchase& purchase,
                                        const telemetry::TraceContext* trace) {
  NIMBUS_ASSIGN_OR_RETURN(
      int64_t sequence,
      ledger_.Record(buyer_id, kind, purchase.inverse_ncp, purchase.price,
                     purchase.expected_error, trace));
  NIMBUS_RETURN_IF_ERROR(
      CountSale(buyer_id, kind, purchase.inverse_ncp, purchase.price));
  // Commit callers are serialized (service sequencer), so the cadence
  // check and the snapshot both observe a quiescent ledger.
  NIMBUS_RETURN_IF_ERROR(MaybeCheckpoint());
  return sequence;
}

Status Marketplace::CountSale(const std::string& buyer_id, ml::ModelKind kind,
                              double inverse_ncp, double price) {
  return monitors_.at(kind).RecordPurchase(buyer_id, inverse_ncp, price);
}

Status Marketplace::FlushJournal() { return ledger_.FlushJournal(); }

void Marketplace::AbandonJournal() {
  // Discard in place and keep the poisoned handle attached: a detached
  // journal would leave the ledger journal-free, and a late commit on
  // this retired instance would then "succeed" purely in memory — an
  // acknowledged sale the recovered shard could never replay. With the
  // poisoned journal still attached, Ledger::Record fails typed
  // (kFailedPrecondition) and leaves memory untouched.
  Journal* journal = ledger_.journal();
  if (journal != nullptr) {
    journal->Discard();
  }
}

Status Marketplace::EnableJournal(const std::string& path,
                                  Journal::Options options) {
  NIMBUS_ASSIGN_OR_RETURN(Journal journal, Journal::Open(path, options));
  return ledger_.AttachJournal(std::make_unique<Journal>(std::move(journal)));
}

Status Marketplace::EnableCheckpoints(CheckpointPolicy policy) {
  if (!ledger_.journaling()) {
    return FailedPreconditionError(
        "checkpoints need a journal: call EnableJournal or "
        "RestoreFromCheckpoint first");
  }
  auto checkpointer =
      std::make_unique<Checkpointer>(ledger_.journal()->path(), policy);
  NIMBUS_RETURN_IF_ERROR(checkpointer->Init());
  checkpointer_ = std::move(checkpointer);
  return OkStatus();
}

StatusOr<Checkpointer::Stats> Marketplace::CheckpointStats() const {
  if (checkpointer_ == nullptr) {
    return FailedPreconditionError("checkpoints are not enabled");
  }
  return checkpointer_->stats();
}

StatusOr<snapshot::State> Marketplace::CaptureSnapshotState() {
  snapshot::State state;
  state.sequence = ledger_.size();
  state.total_revenue = ledger_.total_revenue_;
  state.spend_by_buyer = ledger_.spend_by_buyer_;
  state.sales_per_price_point = ledger_.sales_per_price_point_;
  state.revenue_by_model = ledger_.revenue_by_model_;
  state.sales_by_model = ledger_.sales_by_model_;
  for (const auto& [kind, monitor] : monitors_) {
    if (monitor.history().empty()) {
      continue;
    }
    snapshot::MonitorState& monitor_state = state.monitors[kind];
    for (const auto& [buyer, history] : monitor.history()) {
      snapshot::BuyerHistoryState& buyer_state = monitor_state.buyers[buyer];
      buyer_state.purchases = history.purchases;
      buyer_state.combined_inverse_ncp = history.combined_inverse_ncp;
      buyer_state.total_paid = history.total_paid;
    }
  }
  return state;
}

StatusOr<int64_t> Marketplace::CheckpointNow() {
  if (checkpointer_ == nullptr) {
    return FailedPreconditionError("checkpoints are not enabled");
  }
  NIMBUS_ASSIGN_OR_RETURN(snapshot::State state, CaptureSnapshotState());
  return checkpointer_->Commit(std::move(state), ledger_.journal());
}

Status Marketplace::MaybeCheckpoint() {
  if (checkpointer_ == nullptr) {
    return OkStatus();
  }
  if (!checkpointer_->Due(ledger_.size())) {
    return OkStatus();
  }
  const StatusOr<int64_t> generation = CheckpointNow();
  if (!generation.ok()) {
    // Absorbed by design: a sale must never fail because a snapshot
    // could not be written — the journal still holds the full tail, so
    // durability is unaffected; only recovery time degrades.
    NIMBUS_LOG(kWarning) << "cadence checkpoint failed ("
                         << generation.status().message()
                         << "); serving continues, journal keeps the "
                            "full tail";
  }
  return OkStatus();
}

Status Marketplace::RestoreFromCheckpoint(const std::string& path,
                                          RestoreOptions options,
                                          RestoreReport* report_out) {
  if (ledger_.size() != 0) {
    return FailedPreconditionError(
        "restore requires a fresh marketplace (ledger already has " +
        std::to_string(ledger_.size()) + " sales)");
  }
  RestoreReport local_report;
  RestoreReport& report = report_out != nullptr ? *report_out : local_report;
  report = RestoreReport{};
  telemetry::ScopedTimer timer(RecoveryLatency());
  RecoveryRestoresCounter().Increment();

  // Applies a fully validated candidate. All checkable failure modes
  // were rejected by BuildCandidate, so a failure here is an internal
  // inconsistency and aborts the restore rather than trying a deeper
  // rung against half-mutated monitors.
  const auto apply = [&](RestoreCandidate candidate) -> Status {
    const int64_t covered = candidate.state.sequence;
    Ledger::EntryLoader loader;
    if (covered > 0) {
      if (options.hydrate) {
        auto rows = std::make_shared<std::vector<LedgerEntry>>(
            std::move(candidate.base_entries));
        loader = [rows]() -> StatusOr<std::vector<LedgerEntry>> {
          return std::move(*rows);
        };
      } else {
        loader = [path, covered]() {
          return Journal::ReadRange(path, 0, covered);
        };
      }
    }
    NIMBUS_ASSIGN_OR_RETURN(
        Ledger restored,
        Ledger::FromRecoveredState(
            covered, candidate.state.total_revenue,
            std::move(candidate.state.spend_by_buyer),
            std::move(candidate.state.sales_per_price_point),
            std::move(candidate.state.revenue_by_model),
            std::move(candidate.state.sales_by_model), std::move(loader)));
    for (const auto& [kind, monitor_state] : candidate.state.monitors) {
      CollusionMonitor& monitor = monitors_.at(kind);
      for (const auto& [buyer, history] : monitor_state.buyers) {
        CollusionMonitor::BuyerHistory restored_history;
        restored_history.purchases = history.purchases;
        restored_history.combined_inverse_ncp = history.combined_inverse_ncp;
        restored_history.total_paid = history.total_paid;
        NIMBUS_RETURN_IF_ERROR(
            monitor.RestoreHistory(buyer, restored_history));
      }
    }
    for (const LedgerEntry& entry : candidate.tail) {
      NIMBUS_RETURN_IF_ERROR(restored.ApplyRecovered(entry));
      NIMBUS_RETURN_IF_ERROR(CountSale(entry.buyer_id, entry.model,
                                       entry.inverse_ncp, entry.price));
    }
    if (options.hydrate) {
      NIMBUS_RETURN_IF_ERROR(restored.Hydrate());
    }
    report.snapshot_records = covered;
    report.tail_records = static_cast<int64_t>(candidate.tail.size());
    ledger_ = std::move(restored);
    return OkStatus();
  };

  const auto attach = [&]() -> Status {
    // Heal-and-reopen: a torn live tail was truncated while reading the
    // journal; a live segment lost in the seal's rename window is
    // re-created here with the restored sequence as its base.
    Journal::Options journal_options = options.journal;
    journal_options.create_base_sequence = ledger_.size();
    return EnableJournal(path, journal_options);
  };

  const std::vector<int64_t> generations = snapshot::ListGenerations(path);
  // Files of earlier formats are converted once, before any rung reads
  // them; every rung below reads the current formats only.
  NIMBUS_RETURN_IF_ERROR(UpgradeLegacyFormat(path, generations));
  for (size_t i = 0; i < generations.size(); ++i) {
    const int64_t generation = generations[i];
    const std::string snapshot_file = snapshot::SnapshotPath(path, generation);
    StatusOr<RestoreCandidate> candidate =
        BuildCandidate(snapshot_file, path, options.hydrate, brokers_);
    if (candidate.ok()) {
      NIMBUS_RETURN_IF_ERROR(apply(*std::move(candidate)));
      report.source = i == 0 ? RestoreReport::Source::kSnapshot
                             : RestoreReport::Source::kPreviousSnapshot;
      report.generation = generation;
      RecoveryTailRecordsCounter().Increment(report.tail_records);
      return attach();
    }
    NIMBUS_LOG(kWarning) << "recovery: snapshot generation " << generation
                         << " (" << snapshot_file << ") rejected: "
                         << candidate.status().message()
                         << "; falling back a rung";
    ++report.snapshots_rejected;
    RecoverySnapshotsRejectedCounter().Increment();
  }

  // Last rung: no usable snapshot — replay the whole segment chain.
  StatusOr<std::vector<LedgerEntry>> entries =
      Journal::ReadRange(path, 0, Journal::kToEnd, /*heal_live_tail=*/true);
  if (entries.status().code() == StatusCode::kNotFound) {
    return NotFoundError("no usable snapshot and no journal at '" + path +
                         "'");
  }
  NIMBUS_RETURN_IF_ERROR(entries.status());
  for (const LedgerEntry& entry : *entries) {
    NIMBUS_RETURN_IF_ERROR(ValidateJournalRow(entry, brokers_));
  }
  NIMBUS_ASSIGN_OR_RETURN(Ledger replayed, Ledger::FromEntries(*entries));
  // Rebuild the collusion-monitor histories so the restarted process
  // reports the same assessments as the one that crashed.
  for (const LedgerEntry& entry : *entries) {
    NIMBUS_RETURN_IF_ERROR(CountSale(entry.buyer_id, entry.model,
                                     entry.inverse_ncp, entry.price));
  }
  ledger_ = std::move(replayed);
  report.source = RestoreReport::Source::kFullReplay;
  report.tail_records = static_cast<int64_t>(entries->size());
  RecoveryFullReplaysCounter().Increment();
  RecoveryTailRecordsCounter().Increment(report.tail_records);
  return attach();
}

StatusOr<const CollusionMonitor*> Marketplace::MonitorFor(
    ml::ModelKind kind) const {
  const auto it = monitors_.find(kind);
  if (it == monitors_.end()) {
    return NotFoundError("model '" +
                         std::string(ml::ModelKindToString(kind)) +
                         "' is not offered");
  }
  return &it->second;
}

std::vector<std::string> Marketplace::SuspiciousBuyers() const {
  std::vector<std::string> out;
  for (const auto& [kind, monitor] : monitors_) {
    (void)kind;
    const std::vector<std::string> flagged = monitor.SuspiciousBuyers();
    out.insert(out.end(), flagged.begin(), flagged.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace nimbus::market
