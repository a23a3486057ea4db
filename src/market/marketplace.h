#ifndef NIMBUS_MARKET_MARKETPLACE_H_
#define NIMBUS_MARKET_MARKETPLACE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "market/broker.h"
#include "market/checkpointer.h"
#include "market/collusion.h"
#include "market/journal.h"
#include "market/ledger.h"
#include "market/snapshot.h"
#include "ml/model.h"

namespace nimbus::market {

// The full Nimbus marketplace: one dataset, a menu M of ML models (each
// served by its own Broker), a shared transaction ledger, and a
// collusion monitor. This is the system the demonstration paper shows —
// buyers browse offerings across models, compare price-error menus, and
// purchase attributed versions, while the seller gets consolidated
// revenue reporting.
class Marketplace {
 public:
  // Creates an empty marketplace over one train/test split. `options`
  // apply to every broker added later.
  Marketplace(data::TrainTestSplit split, Broker::Options options);

  Marketplace(Marketplace&&) = default;
  Marketplace& operator=(Marketplace&&) = default;
  Marketplace(const Marketplace&) = delete;
  Marketplace& operator=(const Marketplace&) = delete;

  // Adds one menu entry: trains the model's optimal instance and installs
  // the given arbitrage-free pricing function. Fails when the model is
  // incompatible with the dataset task or already offered.
  Status AddOffering(ml::ModelKind kind, double ridge_mu,
                     std::shared_ptr<const pricing::PricingFunction> pricing);

  // Model kinds currently on the menu, in insertion order.
  std::vector<ml::ModelKind> Offerings() const;

  // The broker serving one model kind; kNotFound when not offered.
  StatusOr<Broker*> BrokerFor(ml::ModelKind kind);

  // One row of the cross-model catalog shown to buyers.
  struct CatalogRow {
    ml::ModelKind model = ml::ModelKind::kLinearRegression;
    std::string report_loss;
    double best_expected_error = 0.0;   // At the most precise version.
    double worst_expected_error = 0.0;  // At the noisiest version.
    double min_price = 0.0;
    double max_price = 0.0;
  };
  // Builds the catalog (one row per offering, using each model's first
  // report loss).
  StatusOr<std::vector<CatalogRow>> Catalog();

  // Purchase with attribution: the model's broker picks the version off
  // its own noise stream, and the sale is booked like RecordQuotedSale
  // books it (ledger first; a refused sale is counted nowhere).
  StatusOr<Broker::Purchase> Buy(const std::string& buyer_id,
                                 ml::ModelKind kind, double inverse_ncp,
                                 const std::string& report_loss_name);

  // Attributed price-budget purchase (Broker::BuyWithPriceBudget, booked
  // like Buy).
  StatusOr<Broker::Purchase> BuyWithPriceBudget(
      const std::string& buyer_id, ml::ModelKind kind, double price_budget,
      const std::string& report_loss_name);

  // Books a quote produced by Broker::QuoteAtInverseNcp: journals and
  // records the ledger entry, then updates the offering's collusion
  // monitor, and returns the ledger sequence. This is the commit half of the serving layer's
  // quote/commit split — quotes run concurrently, commits are
  // serialized by the caller (the service's sequencer). Safe to retry
  // after a kInternal journal failure: Ledger::Record leaves memory
  // untouched on failure and Journal::Append is idempotent per
  // sequence. `trace` (optional) nests the durable journal append under
  // the committing request's spans.
  StatusOr<int64_t> RecordQuotedSale(
      const std::string& buyer_id, ml::ModelKind kind,
      const Broker::Purchase& purchase,
      const telemetry::TraceContext* trace = nullptr);

  // Flushes the ledger's journal (OK when journaling is off).
  Status FlushJournal();

  // Retires the attached journal in place (Journal::Discard): buffered
  // bytes are best-effort flushed, the file is closed, and the handle
  // is permanently poisoned — but it stays ATTACHED, so any late
  // Record on this retired instance fails kFailedPrecondition instead
  // of silently committing an unjournaled sale that the replacement
  // marketplace (which re-opens the same path after shard quarantine)
  // would never see. No-op when journaling is off.
  void AbandonJournal();

  const Ledger& ledger() const { return ledger_; }
  double total_revenue() const { return ledger_.TotalRevenue(); }

  // Loads the entry rows a deferred-hydration restore left behind the
  // snapshot loader (no-op on a hydrated ledger). Row-level audit
  // queries (ledger().entries(), ToCsv) require this first.
  Status HydrateLedger() { return ledger_.Hydrate(); }

  // ----- Durability & crash recovery -------------------------------------
  // Attaches a write-ahead journal at `path` (created when absent) so
  // every sale is durable before it is acknowledged. Attach before the
  // first sale for a complete audit trail.
  Status EnableJournal(const std::string& path,
                       Journal::Options options = Journal::Options{});

  // ----- Checkpointing (snapshot + journal compaction) -------------------
  // Turns on checkpointing for the attached journal (EnableJournal /
  // RestoreFromCheckpoint must have run first). Resumes generation
  // numbering from the on-disk manifest. After this, commits trigger
  // MaybeCheckpoint per `policy`, and CheckpointNow / checkpoint-on-drain
  // work on demand.
  Status EnableCheckpoints(CheckpointPolicy policy);
  bool checkpoints_enabled() const { return checkpointer_ != nullptr; }
  // Stats of the active checkpointer; kFailedPrecondition when
  // checkpointing is off.
  StatusOr<Checkpointer::Stats> CheckpointStats() const;

  // Captures the live transactional state: aggregates, monitor
  // histories and the sequence. Entry rows stay in the journal, so this
  // is O(buyers + price points) and never hydrates a deferred ledger.
  StatusOr<snapshot::State> CaptureSnapshotState();

  // Takes a checkpoint unconditionally (subject to the checkpointer's
  // no-op-when-unchanged rule) and returns the committed generation.
  StatusOr<int64_t> CheckpointNow();

  // Takes a checkpoint iff the policy says one is due. Called at the end
  // of every successful commit (RecordQuotedSale / Buy); callers are
  // serialized by the service's commit sequencer, so snapshots observe a
  // quiescent ledger. Checkpoint failures are absorbed into telemetry
  // and a warning — serving never fails because a snapshot could not be
  // written (the journal still holds the full tail).
  Status MaybeCheckpoint();

  // Restores from the newest VALID snapshot generation plus the journal
  // tail past it — O(delta) in the records since that snapshot, not in
  // total history. The recovery ladder: for each generation, newest
  // first, structurally validate the snapshot (footer + per-section
  // CRCs), read the journal rows it needs (Journal::ReadRange: the tail
  // [snapshot.sequence, end), or every row when hydrating) and verify
  // them gap-free; the first generation that passes is applied —
  // aggregates and monitor histories install directly from the
  // snapshot, only the tail replays through the ledger. A torn or
  // corrupt snapshot falls back to the previous generation, and when no
  // generation is usable, to a full replay of the sealed segments and
  // the live segment — never silent data loss. A damaged sealed segment
  // fails a hydrating restore with a Status naming the file. Must be
  // called after the same AddOffering sequence as the crashed process
  // and before any sale (kFailedPrecondition otherwise, and for a
  // journal naming a model that is not offered); the restored
  // TotalRevenue, sequence numbers, SalesPerPricePoint, and monitor
  // assessments are bit-identical to the pre-crash marketplace. Files
  // of earlier on-disk formats are converted first, once
  // (UpgradeLegacyFormat, market/format_upgrade.h). Re-attaches the
  // journal (healing a torn tail, re-creating a live segment lost in the
  // seal's rename window) so new sales append after the recovered
  // prefix.
  struct RestoreOptions {
    // Applied when re-attaching the journal after restore.
    Journal::Options journal;
    // Read every journal row during restore (audit queries need them).
    // Off = defer hydration: restore stays O(delta), and the rows below
    // the snapshot load from the sealed segments on first Hydrate().
    bool hydrate = true;
  };
  struct RestoreReport {
    enum class Source {
      kSnapshot,          // Newest generation was valid.
      kPreviousSnapshot,  // Fell back at least one generation.
      kFullReplay,        // No usable snapshot; replayed whole journal.
    };
    Source source = Source::kFullReplay;
    int64_t generation = 0;        // Generation applied (0 = full replay).
    int64_t snapshot_records = 0;  // Records covered by the snapshot.
    int64_t tail_records = 0;      // Records replayed from the journal.
    int snapshots_rejected = 0;    // Generations rejected before success.
  };
  Status RestoreFromCheckpoint(const std::string& path,
                               RestoreOptions options,
                               RestoreReport* report = nullptr);
  // Defaulted-options overload (an in-class default argument cannot use
  // RestoreOptions{} before the struct's initializers are complete).
  Status RestoreFromCheckpoint(const std::string& path) {
    return RestoreFromCheckpoint(path, RestoreOptions{});
  }

  // Per-offering collusion monitor (versions of different models cannot
  // be combined, so histories are tracked per model).
  StatusOr<const CollusionMonitor*> MonitorFor(ml::ModelKind kind) const;

  // Buyers flagged by any offering's monitor, sorted and deduplicated.
  std::vector<std::string> SuspiciousBuyers() const;

  // The error-curve cache shared by every offering's broker. Exposed so
  // the serving layer and the soak can assert on hit/miss/single-flight
  // telemetry.
  const CurveCache* curve_cache() const { return curve_cache_.get(); }

 private:
  // Books one sale for `kind`, in the order every sale entry point
  // shares: ledger (journaled), then collusion monitor, then the cadence
  // checkpoint. A sale the ledger refuses is counted nowhere. Returns the
  // ledger sequence.
  StatusOr<int64_t> BookSale(const std::string& buyer_id, ml::ModelKind kind,
                             const Broker::Purchase& purchase,
                             const telemetry::TraceContext* trace);
  // Counts a sale the ledger already holds in the offering's collusion
  // monitor (booking and journal replay).
  Status CountSale(const std::string& buyer_id, ml::ModelKind kind,
                   double inverse_ncp, double price);

  data::TrainTestSplit split_;
  Broker::Options options_;
  std::shared_ptr<CurveCache> curve_cache_ = std::make_shared<CurveCache>();
  std::vector<ml::ModelKind> offering_order_;
  std::map<ml::ModelKind, Broker> brokers_;
  std::map<ml::ModelKind, std::shared_ptr<const pricing::PricingFunction>>
      pricing_;
  std::map<ml::ModelKind, CollusionMonitor> monitors_;
  Ledger ledger_;
  std::unique_ptr<Checkpointer> checkpointer_;
};

}  // namespace nimbus::market

#endif  // NIMBUS_MARKET_MARKETPLACE_H_
