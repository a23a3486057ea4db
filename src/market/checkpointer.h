#ifndef NIMBUS_MARKET_CHECKPOINTER_H_
#define NIMBUS_MARKET_CHECKPOINTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "market/journal.h"
#include "market/snapshot.h"

namespace nimbus::market {

// When the marketplace takes a checkpoint. With a zero cadence,
// checkpoints happen only on demand (CheckpointNow /
// checkpoint-on-drain).
struct CheckpointPolicy {
  // Snapshot after this many new ledger records since the last
  // checkpoint.
  int64_t every_records = 0;
};

// Drives the checkpoint cycle for one marketplace: generation
// numbering, cadence checks, the commit sequence (journal sync ->
// snapshot -> manifest -> journal seal -> retention pruning), and the
// `snapshot_*` telemetry. Pure policy object — it holds no marketplace
// pointer (the marketplace is moved by value in benches), so the caller
// passes the captured State and the journal in.
//
// A checkpoint costs O(live state): the snapshot holds aggregates and
// monitor histories, and the seal renames the live journal segment
// instead of rewriting it. After committing generation G at sequence
// S_G the live segment starts at S_G; the rows below it sit in sealed
// segments, which are never pruned, so every ladder rung — and full
// replay — finds its tail.
class Checkpointer {
 public:
  Checkpointer(std::string journal_path, CheckpointPolicy policy);

  // Snapshot generations kept on disk: the newest rung plus the
  // fallback rung the recovery ladder needs when the newest is torn.
  static constexpr int kRetainedSnapshots = 2;

  // Resumes generation numbering from the on-disk manifest (falling
  // back to the snapshot directory scan), so a restarted process
  // continues the sequence instead of overwriting generation 1.
  Status Init();

  // True when the policy calls for a checkpoint given the ledger's
  // record count.
  bool Due(int64_t ledger_records) const;

  // Commits one checkpoint: fsyncs `journal` (when non-null) so every
  // row below `state.sequence` is durable, stamps the next generation
  // into `state`, writes the snapshot atomically, updates the manifest,
  // seals the journal at `state.sequence`, and prunes generations beyond
  // kRetainedSnapshots. When `state.sequence` equals the last committed
  // checkpoint's sequence the call is a no-op returning the existing
  // generation (a drain right after a cadence checkpoint should not burn
  // a generation). Returns the committed generation. A failed sync or
  // snapshot write leaves the previous generation authoritative; a
  // failed seal or manifest update leaves a longer live segment or a
  // slower ladder (still correct) and is reported in stats and
  // telemetry, not as a hard error.
  StatusOr<int64_t> Commit(snapshot::State state, Journal* journal);

  struct Stats {
    int64_t checkpoints = 0;        // Committed snapshots.
    int64_t failures = 0;           // Failed syncs or snapshot writes.
    int64_t rotation_failures = 0;  // Snapshot ok, journal seal not.
    int64_t last_generation = 0;
    int64_t last_sequence = 0;  // Sequence covered by last_generation.
    int64_t prev_sequence = 0;  // ... by the generation before it.
  };
  const Stats& stats() const { return stats_; }
  const std::string& journal_path() const { return journal_path_; }

 private:
  std::string journal_path_;
  CheckpointPolicy policy_;
  Stats stats_;
};

// Every file the journal and checkpoint chain at `journal_path` can
// leave on disk: the live segment and each `<journal_path>.*` sibling
// (sealed segments, snapshots, the manifest, temp files of an
// interrupted write, and files of earlier formats that restore's
// upgrader converts). Shard::Open restores when any exists; tests and
// drills delete them all to start clean.
std::vector<std::string> RecoveryFiles(const std::string& journal_path);

}  // namespace nimbus::market

#endif  // NIMBUS_MARKET_CHECKPOINTER_H_
