#ifndef NIMBUS_MARKET_SHARD_H_
#define NIMBUS_MARKET_SHARD_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "common/statusor.h"
#include "market/checkpointer.h"
#include "market/journal.h"
#include "market/marketplace.h"

namespace nimbus::market {

// Health of one product shard. The bulkhead state machine:
//
//               checkpoint failure absorbed
//     kServing ───────────────────────────► kDegraded
//        ▲  ▲                                   │
//        │  └───── next checkpoint lands ◄──────┘
//        │                                      │ poisoned journal /
//        │ restore ladder                       │ short write (ENOSPC)
//        │ succeeds                             ▼
//   kRecovering ◄──── background loop ──── kQuarantined
//        │                  picks it up        ▲
//        └───── restore fails ─────────────────┘
//
// Only the faulted shard leaves kServing: its quotes/purchases shed
// with a typed kUnavailable naming the shard while every other shard
// keeps serving.
enum class ShardState {
  kServing,      // Healthy; quotes and purchases flow.
  kDegraded,     // Serving, but the last checkpoint attempt failed.
  kRecovering,   // A recovery attempt is rebuilding the marketplace.
  kQuarantined,  // Durable state is suspect; all requests shed.
};

const char* ShardStateName(ShardState state);

// Rebuilds a fresh, empty Marketplace with the exact AddOffering
// sequence of the original — the RestoreFromCheckpoint precondition.
// Called at shard open and again on every recovery attempt.
using MarketplaceFactory = std::function<StatusOr<Marketplace>()>;

struct ShardOptions {
  // Per-shard directory; the write-ahead journal lives at
  // `<dir>/journal`, its sealed segments and the snapshot chain beside
  // it (`journal.seg.NNNNNNNNNNNN`, `journal.snap.NNNNNN`,
  // `journal.manifest`).
  std::string dir;
  Journal::Options journal;
  // Checkpointing (off by default — pure-journal shards still recover,
  // via full replay).
  bool enable_checkpoints = false;
  CheckpointPolicy checkpoint_policy;
};

// One fault-isolated product shard: a Marketplace plus its durable
// state (journal, checkpointer, snapshot generations) under a private
// directory, wrapped in the health state machine above. All methods are
// thread-safe; the marketplace is held behind a shared_ptr so in-flight
// requests keep a consistent instance across a recovery swap.
class Shard {
 public:
  // Opens the shard: creates `options.dir`, then either attaches a
  // fresh journal (first boot) or runs the RestoreFromCheckpoint ladder
  // against the surviving on-disk state. A factory/configuration error
  // fails the call; a restore error quarantines the shard instead (the
  // background recovery loop retries it) so one damaged shard cannot
  // keep the rest of the catalog from opening.
  static StatusOr<std::unique_ptr<Shard>> Open(std::string product_id,
                                               MarketplaceFactory factory,
                                               ShardOptions options);

  const std::string& product_id() const { return product_id_; }
  const std::string& journal_path() const { return journal_path_; }

  ShardState state() const;
  // Human-readable reason for the current non-serving state ("" while
  // healthy): the quarantine trigger or last recovery failure.
  std::string state_detail() const;

  // The marketplace when the shard accepts traffic (kServing or
  // kDegraded); a typed kUnavailable naming the shard otherwise.
  StatusOr<std::shared_ptr<Marketplace>> Serve();

  // The current marketplace regardless of state (admin rollups read
  // revenue off a quarantined shard too). Never null after Open.
  std::shared_ptr<Marketplace> market() const;

  // Commit-outcome triage from the serving layer. A successful commit
  // clears kDegraded once a checkpoint lands and flags kDegraded when
  // one was absorbed; a terminal failure whose shape implicates the
  // shard's durable state (poisoned journal, short write / ENOSPC,
  // closed journal) quarantines the shard. Returns the resulting state.
  ShardState ReportCommitOutcome(const Status& status);

  // Forces quarantine (used by drills and by Open on a failed restore).
  void Quarantine(const std::string& reason);

  // One recovery attempt: rebuild a fresh marketplace from the factory,
  // run the RestoreFromCheckpoint ladder against the shard's journal,
  // and on success swap it in and re-admit (kServing). On failure the
  // shard returns to kQuarantined with the error as its detail. Only
  // meaningful from kQuarantined; kFailedPrecondition otherwise.
  Status TryRecover();

  // Report of the last successful restore (Open-from-disk or
  // TryRecover). source == kFullReplay with generation 0 on first boot.
  Marketplace::RestoreReport last_restore_report() const;

  struct Stats {
    int64_t quarantines = 0;
    int64_t recoveries = 0;         // Successful TryRecover calls.
    int64_t recovery_failures = 0;  // Failed TryRecover calls.
    int64_t commits = 0;            // Successful commits reported.
    int64_t commit_failures = 0;    // Terminal commit failures reported.
    // Booked totals, cached under mu_ on the (sequencer-serialized)
    // commit path and on recovery. Rollups and /shardz read these
    // instead of the live ledger, which only its committer may touch.
    double revenue = 0.0;
    int64_t sales = 0;
  };
  Stats stats() const;

  // Re-caches the booked totals (Stats::revenue/sales) off the live
  // ledger. The serving path refreshes them automatically on every
  // reported commit; callers that feed the shard's marketplace directly
  // (tests, drills) call this afterwards, while the ledger is quiescent.
  void RefreshBookedTotals();

 private:
  Shard(std::string product_id, MarketplaceFactory factory,
        ShardOptions options);

  // Builds a marketplace and restores it from the shard's on-disk
  // state; returns the restored instance and fills `report`. On error,
  // `factory_failed` (when non-null) distinguishes the factory itself
  // failing (a configuration error — retrying cannot help) from a
  // restore failure (damaged durable state — quarantine and let the
  // recovery ladder retry).
  StatusOr<Marketplace> BuildAndRestore(Marketplace::RestoreReport* report,
                                        bool* factory_failed = nullptr);

  void SetStateLocked(ShardState state, const std::string& detail);

  // Re-reads the booked totals off market_ into stats_ and the revenue
  // gauge. Callers must hold mu_ AND be on a path where the ledger is
  // quiescent for this shard (the serialized commit path, recovery, or
  // Open) — foreign threads read the cached copy, never the ledger.
  void RefreshBookedTotalsLocked();

  const std::string product_id_;
  const MarketplaceFactory factory_;
  const ShardOptions options_;
  const std::string journal_path_;

  mutable std::mutex mu_;
  ShardState state_ = ShardState::kQuarantined;  // Until Open succeeds.
  std::string detail_;
  std::shared_ptr<Marketplace> market_;
  Marketplace::RestoreReport last_report_;
  Checkpointer::Stats last_checkpoint_stats_;
  Stats stats_;
  // Guards against concurrent TryRecover races (the state machine
  // enforces it, but the flag keeps the invariant explicit).
  bool recovery_in_flight_ = false;
};

}  // namespace nimbus::market

#endif  // NIMBUS_MARKET_SHARD_H_
