#include "market/checkpointer.h"

#include <cstdio>
#include <utility>

#include "common/logging.h"
#include "common/telemetry.h"
#include "market/disk_io.h"

namespace nimbus::market {
namespace {

telemetry::Counter& CheckpointsCounter() {
  static telemetry::Counter& counter =
      telemetry::Registry::Global().GetCounter("snapshot_checkpoints_total");
  return counter;
}

telemetry::Counter& CheckpointFailuresCounter() {
  static telemetry::Counter& counter =
      telemetry::Registry::Global().GetCounter(
          "snapshot_checkpoint_failures_total");
  return counter;
}

telemetry::Counter& RotationsCounter() {
  static telemetry::Counter& counter =
      telemetry::Registry::Global().GetCounter("journal_rotations_total");
  return counter;
}

telemetry::Counter& RotationFailuresCounter() {
  static telemetry::Counter& counter =
      telemetry::Registry::Global().GetCounter(
          "journal_rotation_failures_total");
  return counter;
}

telemetry::Gauge& LastGenerationGauge() {
  static telemetry::Gauge& gauge =
      telemetry::Registry::Global().GetGauge("snapshot_last_generation");
  return gauge;
}

telemetry::Gauge& LastBytesGauge() {
  static telemetry::Gauge& gauge =
      telemetry::Registry::Global().GetGauge("snapshot_last_bytes");
  return gauge;
}

telemetry::Gauge& JournalLiveBytesGauge() {
  static telemetry::Gauge& gauge =
      telemetry::Registry::Global().GetGauge("journal_live_bytes");
  return gauge;
}

telemetry::Histogram& CheckpointLatency() {
  static telemetry::Histogram& histogram =
      telemetry::Registry::Global().GetHistogram("checkpoint_latency_us");
  return histogram;
}

}  // namespace

Checkpointer::Checkpointer(std::string journal_path, CheckpointPolicy policy)
    : journal_path_(std::move(journal_path)), policy_(policy) {}

Status Checkpointer::Init() {
  StatusOr<snapshot::Manifest> manifest =
      snapshot::ReadManifest(journal_path_);
  if (manifest.ok()) {
    stats_.last_generation = manifest->generation;
    stats_.last_sequence = manifest->sequence;
    stats_.prev_sequence = manifest->prev_sequence;
    return OkStatus();
  }
  // No (or corrupt) manifest: resume past whatever generations exist on
  // disk so a new checkpoint never overwrites one a recovery might
  // still need. Their sequences are unknown without reading them, so
  // cadence restarts from zero — harmless (at worst one early
  // checkpoint).
  const std::vector<int64_t> gens = snapshot::ListGenerations(journal_path_);
  if (!gens.empty()) {
    stats_.last_generation = gens.front();
  }
  return OkStatus();
}

bool Checkpointer::Due(int64_t ledger_records) const {
  return policy_.every_records > 0 &&
         ledger_records - stats_.last_sequence >= policy_.every_records;
}

StatusOr<int64_t> Checkpointer::Commit(snapshot::State state,
                                       Journal* journal) {
  if (state.sequence == stats_.last_sequence && stats_.last_generation > 0) {
    return stats_.last_generation;  // Nothing new since the last one.
  }
  if (state.sequence < stats_.last_sequence) {
    return FailedPreconditionError(
        "checkpoint state covers " + std::to_string(state.sequence) +
        " records but generation " + std::to_string(stats_.last_generation) +
        " already covers " + std::to_string(stats_.last_sequence));
  }
  telemetry::ScopedTimer timer(CheckpointLatency());
  const int64_t generation = stats_.last_generation + 1;
  state.generation = generation;
  // The snapshot counts rows [0, state.sequence) that only the journal
  // holds, so they reach the disk before the snapshot can land.
  const Status synced = journal != nullptr ? journal->Sync() : OkStatus();
  const StatusOr<int64_t> bytes =
      synced.ok()
          ? snapshot::Write(snapshot::SnapshotPath(journal_path_, generation),
                            state)
          : StatusOr<int64_t>(synced);
  if (!bytes.ok()) {
    ++stats_.failures;
    CheckpointFailuresCounter().Increment();
    return bytes.status();
  }
  snapshot::Manifest manifest;
  manifest.generation = generation;
  manifest.sequence = state.sequence;
  manifest.prev_generation = stats_.last_generation;
  manifest.prev_sequence = stats_.last_sequence;
  const Status manifest_status =
      snapshot::WriteManifest(journal_path_, manifest);
  if (!manifest_status.ok()) {
    // The snapshot itself is committed and the directory scan will find
    // it; a stale manifest only slows the ladder down.
    NIMBUS_LOG(kWarning) << "checkpoint generation " << generation
                         << ": manifest update failed ("
                         << manifest_status.message()
                         << "); recovery will rely on the directory scan";
  }
  if (journal != nullptr) {
    const int64_t live_base = journal->base_sequence();
    const Status sealed = journal->Seal(state.sequence);
    if (sealed.ok()) {
      if (live_base < state.sequence) {
        RotationsCounter().Increment();
      }
    } else {
      ++stats_.rotation_failures;
      RotationFailuresCounter().Increment();
      NIMBUS_LOG(kWarning) << "checkpoint generation " << generation
                           << ": journal seal failed (" << sealed.message()
                           << "); the live segment keeps its rows";
    }
    JournalLiveBytesGauge().Set(static_cast<double>(journal->live_bytes()));
  }
  // Prune generations the ladder can no longer want. unlink failures
  // are ignored: an undeletable stale snapshot is wasted disk, not a
  // correctness problem.
  for (int64_t gen = generation - kRetainedSnapshots; gen >= 1; --gen) {
    const std::string stale = snapshot::SnapshotPath(journal_path_, gen);
    if (std::remove(stale.c_str()) != 0) {
      break;  // Older ones were pruned by earlier checkpoints.
    }
  }
  ++stats_.checkpoints;
  stats_.last_generation = generation;
  stats_.prev_sequence = stats_.last_sequence;
  stats_.last_sequence = state.sequence;
  CheckpointsCounter().Increment();
  LastGenerationGauge().Set(static_cast<double>(generation));
  LastBytesGauge().Set(static_cast<double>(*bytes));
  return generation;
}

std::vector<std::string> RecoveryFiles(const std::string& journal_path) {
  return disk::ListFamily(journal_path);
}

}  // namespace nimbus::market
