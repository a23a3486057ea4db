#ifndef NIMBUS_MARKET_LEDGER_H_
#define NIMBUS_MARKET_LEDGER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "common/telemetry.h"
#include "ml/model.h"

namespace nimbus::market {

class Journal;  // market/journal.h

// One completed transaction as recorded by the marketplace.
struct LedgerEntry {
  int64_t sequence = 0;  // Monotone id assigned by the ledger.
  std::string buyer_id;
  ml::ModelKind model = ml::ModelKind::kLinearRegression;
  double inverse_ncp = 0.0;
  double price = 0.0;
  double expected_error = 0.0;
};

// Append-only transaction log with simple reporting queries. The ledger
// is the seller's audit trail: it backs revenue accounting, per-model
// break-downs, and feeds the CollusionMonitor with purchase histories.
//
// Reporting queries (TotalRevenue, RevenueForModel, SalesPerPricePoint,
// TopBuyers) are served from aggregates accumulated at commit time in
// commit order — never by re-walking the entry log — so they cost O(1)
// in history AND stay bit-identical across a snapshot restore (the
// snapshot stores the accumulated doubles verbatim; floating-point
// addition order is preserved by construction).
//
// A ledger restored from a checkpoint may start UNHYDRATED: aggregates
// and sequence counters are live, but the entry rows covered by the
// snapshot are represented by a loader (which reads them from the
// journal's sealed segments) instead of being decoded up front. That
// is what makes recovery O(delta): the timed restore path
// touches only the post-snapshot journal tail. Row-level audit queries
// (entries(), ToCsv, EntriesForBuyer) require hydration;
// Marketplace::RestoreFromCheckpoint hydrates eagerly by default and
// defers only when explicitly asked.
class Ledger {
 public:
  Ledger();
  ~Ledger();
  Ledger(Ledger&&) noexcept;
  Ledger& operator=(Ledger&&) noexcept;
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  // Appends one transaction; assigns and returns its sequence number.
  // buyer_id must be non-empty, inverse_ncp > 0 and price >= 0 (both
  // finite). With a journal attached the entry is made durable first:
  // a failed append leaves the in-memory ledger untouched and surfaces
  // the journal's Status. `trace` (optional) nests the durable append
  // under the committing request's span tree.
  StatusOr<int64_t> Record(const std::string& buyer_id, ml::ModelKind model,
                           double inverse_ncp, double price,
                           double expected_error,
                           const telemetry::TraceContext* trace = nullptr);

  // ----- Durability ------------------------------------------------------
  // Attaches a write-ahead journal (market/journal.h); every subsequent
  // Record appends there before committing in memory. The journal must
  // correspond to this ledger's current state — freshly opened for an
  // empty ledger, or the replayed journal after FromEntries().
  Status AttachJournal(std::unique_ptr<Journal> journal);
  bool journaling() const { return journal_ != nullptr; }
  // Detaches and returns the journal (e.g. to Close it explicitly).
  std::unique_ptr<Journal> DetachJournal();
  // The attached journal (nullptr when journaling is off) — the
  // checkpointer syncs and seals it around each snapshot.
  Journal* journal() { return journal_.get(); }
  const Journal* journal() const { return journal_.get(); }

  // Flushes the attached journal's buffers (fsync under kEveryRecord);
  // OK when no journal is attached. The serving layer calls this as the
  // last step of a graceful drain.
  Status FlushJournal();

  // Rebuilds a ledger from already-replayed entries (Journal::Replay's
  // longest valid prefix): revalidates every entry and the sequence
  // numbering (0..n-1 in order), and reproduces TotalRevenue /
  // SalesPerPricePoint bit-identically. The returned ledger has no
  // journal attached; Marketplace::RestoreFromCheckpoint re-attaches it.
  static StatusOr<Ledger> FromEntries(const std::vector<LedgerEntry>& entries);

  // ----- Checkpoint restore ----------------------------------------------
  // Loads the entry rows [0, entries_base) of a hydration-deferred
  // ledger; the ledger owns no copy until then (see EntryLoader below).
  using EntryLoader = std::function<StatusOr<std::vector<LedgerEntry>>()>;

  // Rebuilds a ledger from snapshot aggregates without decoding the
  // covered entry rows: `count` entries are accounted for, queries serve
  // from the given accumulators, and `loader` (required when count > 0)
  // supplies rows [0, count) on Hydrate(). Mirrors the audit telemetry
  // in bulk so /metrics matches the pre-crash process. Aggregate doubles
  // are installed verbatim — bit-identical restore is the caller's
  // contract, not a recomputation.
  static StatusOr<Ledger> FromRecoveredState(
      int64_t count, double total_revenue,
      std::map<std::string, double> spend_by_buyer,
      std::map<double, int64_t> sales_per_price_point,
      std::map<ml::ModelKind, double> revenue_by_model,
      std::map<ml::ModelKind, int64_t> sales_by_model, EntryLoader loader);

  // Commits one journal-tail entry during recovery: validates fields and
  // that `entry.sequence` is exactly the next sequence, then applies it
  // through the normal commit path (aggregates + telemetry).
  Status ApplyRecovered(const LedgerEntry& entry);

  // Whether every entry row is resident. Always true except after
  // FromRecoveredState with a deferred loader.
  bool hydrated() const { return entries_base_ == 0; }

  // Loads the snapshot-covered rows via the deferred loader, verifying
  // count and sequence density. Idempotent; kFailedPrecondition-free on
  // an already-hydrated ledger.
  Status Hydrate();

  int64_t size() const { return next_sequence_; }
  // Full entry log. The ledger must be hydrated — audit row access on a
  // deferred restore without Hydrate() is a programming error and
  // crashes with a diagnostic rather than returning partial history.
  const std::vector<LedgerEntry>& entries() const;

  // Number of recorded sales (same as size(); named for audit reports).
  int64_t SaleCount() const { return size(); }

  // Sale count per supported price point x = 1/δ, ascending in x.
  std::map<double, int64_t> SalesPerPricePoint() const;

  // Sum of all prices.
  double TotalRevenue() const;

  // Revenue restricted to one model kind.
  double RevenueForModel(ml::ModelKind model) const;

  // Total spend per buyer, descending; ties broken by buyer id.
  std::vector<std::pair<std::string, double>> TopBuyers(int limit) const;

  // All entries of one buyer, in purchase order.
  std::vector<LedgerEntry> EntriesForBuyer(const std::string& buyer_id) const;

  // Serializes the ledger as RFC-4180 CSV:
  //   sequence,buyer,model,inverse_ncp,price,expected_error
  // Buyer ids containing commas, quotes, CR or LF are quoted (embedded
  // quotes doubled) so hostile ids cannot forge audit rows.
  std::string ToCsv() const;

  // Parses a ToCsv export back into a ledger (round-trip audit import).
  static StatusOr<Ledger> FromCsv(const std::string& text);

 private:
  friend class Marketplace;  // CaptureSnapshotState reads the aggregates.

  // Validates Record's field invariants.
  static Status ValidateFields(const std::string& buyer_id, double inverse_ncp,
                               double price, double expected_error);
  // Appends a validated entry and mirrors the audit telemetry.
  void Commit(const LedgerEntry& entry);

  // Entry rows from sequence `entries_base_` on. 0 except on a
  // hydration-deferred restore, where rows [0, entries_base_) live
  // behind `base_loader_` until Hydrate().
  std::vector<LedgerEntry> entries_;
  int64_t entries_base_ = 0;
  EntryLoader base_loader_;

  // Next sequence to assign == total committed rows (resident or not).
  int64_t next_sequence_ = 0;

  // Reporting aggregates, accumulated in commit order (see class
  // comment for the bit-identity argument).
  double total_revenue_ = 0.0;
  std::map<std::string, double> spend_by_buyer_;
  std::map<double, int64_t> sales_per_price_point_;
  std::map<ml::ModelKind, double> revenue_by_model_;
  std::map<ml::ModelKind, int64_t> sales_by_model_;

  std::unique_ptr<Journal> journal_;
};

}  // namespace nimbus::market

#endif  // NIMBUS_MARKET_LEDGER_H_
