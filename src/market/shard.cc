#include "market/shard.h"

#include <filesystem>
#include <system_error>
#include <utility>

#include "common/fault.h"
#include "common/logging.h"
#include "common/telemetry.h"

namespace nimbus::market {
namespace {

// Per-shard labeled health/rollup families (PR 7 telemetry). With more
// shards than the 64-series registry cap the excess collapses into
// "__other__"; drill assertions therefore read Shard::Stats, not the
// registry.
telemetry::GaugeVec& StateGauge() {
  static telemetry::GaugeVec& gauge =
      telemetry::Registry::Global().GetGaugeVec("shard_state", "shard");
  return gauge;
}

telemetry::GaugeVec& RevenueGauge() {
  static telemetry::GaugeVec& gauge =
      telemetry::Registry::Global().GetGaugeVec("shard_revenue", "shard");
  return gauge;
}

telemetry::CounterVec& QuarantinesCounter() {
  static telemetry::CounterVec& counter =
      telemetry::Registry::Global().GetCounterVec("shard_quarantines_total",
                                                  "shard");
  return counter;
}

telemetry::CounterVec& RecoveriesCounter() {
  static telemetry::CounterVec& counter =
      telemetry::Registry::Global().GetCounterVec("shard_recoveries_total",
                                                  "shard");
  return counter;
}

telemetry::CounterVec& RecoveryFailuresCounter() {
  static telemetry::CounterVec& counter =
      telemetry::Registry::Global().GetCounterVec(
          "shard_recovery_failures_total", "shard");
  return counter;
}

// mkdir -p.
Status MakeDirs(const std::string& path) {
  std::error_code error;
  std::filesystem::create_directories(path, error);
  if (error) {
    return InternalError("cannot create shard directory '" + path +
                         "': " + error.message());
  }
  return OkStatus();
}

// Does a terminal commit failure implicate the shard's durable state?
// Poisoned/closed journals (kFailedPrecondition) and short writes
// (real or injected ENOSPC) mean the journal needs out-of-band
// recovery; transient quote faults, deadline expiries, and clean
// injected errors do not.
bool ImplicatesDurableState(const Status& status) {
  if (status.code() == StatusCode::kFailedPrecondition) {
    return true;
  }
  const std::string& message = status.message();
  return message.find("poisoned") != std::string::npos ||
         message.find("short write") != std::string::npos ||
         message.find("No space left on device") != std::string::npos;
}

}  // namespace

const char* ShardStateName(ShardState state) {
  switch (state) {
    case ShardState::kServing:
      return "serving";
    case ShardState::kDegraded:
      return "degraded";
    case ShardState::kRecovering:
      return "recovering";
    case ShardState::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

Shard::Shard(std::string product_id, MarketplaceFactory factory,
             ShardOptions options)
    : product_id_(std::move(product_id)),
      factory_(std::move(factory)),
      options_(std::move(options)),
      journal_path_(options_.dir + "/journal") {}

StatusOr<std::unique_ptr<Shard>> Shard::Open(std::string product_id,
                                             MarketplaceFactory factory,
                                             ShardOptions options) {
  if (product_id.empty()) {
    return InvalidArgumentError("shard product id must be non-empty");
  }
  if (options.dir.empty()) {
    return InvalidArgumentError("shard '" + product_id + "' needs a dir");
  }
  auto shard = std::unique_ptr<Shard>(
      new Shard(std::move(product_id), std::move(factory), std::move(options)));
  NIMBUS_RETURN_IF_ERROR(MakeDirs(shard->options_.dir));

  Marketplace::RestoreReport report;
  bool factory_failed = false;
  StatusOr<Marketplace> restored =
      shard->BuildAndRestore(&report, &factory_failed);
  if (!restored.ok()) {
    // Configuration errors (the factory itself failing) abort the open:
    // retrying cannot help. Damaged on-disk state — including a journal
    // whose header no longer parses (kInvalidArgument from the restore
    // stage) — quarantines instead, so the rest of a catalog keeps
    // booting around it; the background recovery loop owns the retry.
    if (factory_failed) {
      return restored.status();
    }
    shard->Quarantine("open failed: " + restored.status().ToString());
    return shard;
  }
  {
    std::lock_guard<std::mutex> lock(shard->mu_);
    shard->market_ = std::make_shared<Marketplace>(*std::move(restored));
    shard->last_report_ = report;
    if (shard->market_->checkpoints_enabled()) {
      StatusOr<Checkpointer::Stats> stats = shard->market_->CheckpointStats();
      if (stats.ok()) {
        shard->last_checkpoint_stats_ = *stats;
      }
    }
    shard->RefreshBookedTotalsLocked();
    shard->SetStateLocked(ShardState::kServing, "");
  }
  return shard;
}

StatusOr<Marketplace> Shard::BuildAndRestore(Marketplace::RestoreReport* report,
                                             bool* factory_failed) {
  // Scope injected faults to this shard's product id: a drill arming
  // `snapshot.write@<product>` or `journal.replay@<product>` hits this
  // shard's open/recovery path and no other shard's.
  fault::ScopedFaultScope fault_scope(product_id_);
  StatusOr<Marketplace> built = factory_();
  if (!built.ok()) {
    if (factory_failed != nullptr) {
      *factory_failed = true;
    }
    return built.status();
  }
  Marketplace market = *std::move(built);
  // Any recovery file means history exists — including a live segment
  // missing after a crash inside a seal's renames.
  if (!RecoveryFiles(journal_path_).empty()) {
    Marketplace::RestoreOptions restore;
    restore.journal = options_.journal;
    NIMBUS_RETURN_IF_ERROR(
        market.RestoreFromCheckpoint(journal_path_, restore, report));
  } else {
    NIMBUS_RETURN_IF_ERROR(
        market.EnableJournal(journal_path_, options_.journal));
    *report = Marketplace::RestoreReport{};
  }
  if (options_.enable_checkpoints) {
    NIMBUS_RETURN_IF_ERROR(
        market.EnableCheckpoints(options_.checkpoint_policy));
  }
  return market;
}

ShardState Shard::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

std::string Shard::state_detail() const {
  std::lock_guard<std::mutex> lock(mu_);
  return detail_;
}

StatusOr<std::shared_ptr<Marketplace>> Shard::Serve() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == ShardState::kServing || state_ == ShardState::kDegraded) {
    return market_;
  }
  return UnavailableError("shard '" + product_id_ + "' " +
                          ShardStateName(state_) +
                          (detail_.empty() ? "" : " (" + detail_ + ")"));
}

std::shared_ptr<Marketplace> Shard::market() const {
  std::lock_guard<std::mutex> lock(mu_);
  return market_;
}

void Shard::SetStateLocked(ShardState state, const std::string& detail) {
  state_ = state;
  detail_ = detail;
  StateGauge().WithLabel(product_id_).Set(static_cast<double>(state));
}

void Shard::RefreshBookedTotalsLocked() {
  stats_.revenue = market_->total_revenue();
  stats_.sales = market_->ledger().SaleCount();
  RevenueGauge().WithLabel(product_id_).Set(stats_.revenue);
}

ShardState Shard::ReportCommitOutcome(const Status& status) {
  std::lock_guard<std::mutex> lock(mu_);
  if (status.ok()) {
    ++stats_.commits;
    RefreshBookedTotalsLocked();
    if (market_->checkpoints_enabled()) {
      StatusOr<Checkpointer::Stats> stats = market_->CheckpointStats();
      if (stats.ok()) {
        // A checkpoint failure absorbed inside MaybeCheckpoint degrades
        // the shard (the journal still holds the full tail, so serving
        // continues); the next checkpoint that lands clears it.
        if (stats->failures > last_checkpoint_stats_.failures &&
            state_ == ShardState::kServing) {
          SetStateLocked(ShardState::kDegraded,
                         "checkpoint failure absorbed (journal tail intact)");
        } else if (stats->checkpoints > last_checkpoint_stats_.checkpoints &&
                   state_ == ShardState::kDegraded) {
          SetStateLocked(ShardState::kServing, "");
        }
        last_checkpoint_stats_ = *stats;
      }
    }
    return state_;
  }
  ++stats_.commit_failures;
  if (ImplicatesDurableState(status) &&
      (state_ == ShardState::kServing || state_ == ShardState::kDegraded)) {
    ++stats_.quarantines;
    QuarantinesCounter().WithLabel(product_id_).Increment();
    NIMBUS_LOG(kWarning) << "shard '" << product_id_
                         << "' quarantined: " << status.ToString();
    // Drop the poisoned journal's buffered bytes so this instance can
    // never flush a torn/abandoned record over the file the recovery
    // ladder is about to repair (process-death semantics, in-process).
    market_->AbandonJournal();
    SetStateLocked(ShardState::kQuarantined, status.ToString());
  }
  return state_;
}

void Shard::Quarantine(const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == ShardState::kQuarantined) {
    detail_ = reason;
    return;
  }
  ++stats_.quarantines;
  QuarantinesCounter().WithLabel(product_id_).Increment();
  if (market_ != nullptr) {
    market_->AbandonJournal();
  }
  SetStateLocked(ShardState::kQuarantined, reason);
}

Status Shard::TryRecover() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ != ShardState::kQuarantined || recovery_in_flight_) {
      return FailedPreconditionError("shard '" + product_id_ +
                                     "' is not awaiting recovery (" +
                                     ShardStateName(state_) + ")");
    }
    recovery_in_flight_ = true;
    SetStateLocked(ShardState::kRecovering, detail_);
  }
  // The rebuild runs outside the lock: restores are O(delta) but still
  // orders of magnitude longer than a state check, and Serve() must
  // keep shedding (not blocking) meanwhile.
  Marketplace::RestoreReport report;
  StatusOr<Marketplace> restored = BuildAndRestore(&report);
  std::lock_guard<std::mutex> lock(mu_);
  recovery_in_flight_ = false;
  if (!restored.ok()) {
    ++stats_.recovery_failures;
    RecoveryFailuresCounter().WithLabel(product_id_).Increment();
    SetStateLocked(ShardState::kQuarantined,
                   "recovery failed: " + restored.status().ToString());
    return restored.status();
  }
  market_ = std::make_shared<Marketplace>(*std::move(restored));
  last_report_ = report;
  if (market_->checkpoints_enabled()) {
    StatusOr<Checkpointer::Stats> stats = market_->CheckpointStats();
    if (stats.ok()) {
      last_checkpoint_stats_ = *stats;
    }
  }
  ++stats_.recoveries;
  RecoveriesCounter().WithLabel(product_id_).Increment();
  RefreshBookedTotalsLocked();
  SetStateLocked(ShardState::kServing, "");
  NIMBUS_LOG(kInfo) << "shard '" << product_id_ << "' recovered ("
                    << report.tail_records << " tail records, generation "
                    << report.generation << ") and re-admitted";
  return OkStatus();
}

Marketplace::RestoreReport Shard::last_restore_report() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_report_;
}

Shard::Stats Shard::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void Shard::RefreshBookedTotals() {
  std::lock_guard<std::mutex> lock(mu_);
  if (market_ != nullptr) {
    RefreshBookedTotalsLocked();
  }
}

}  // namespace nimbus::market
