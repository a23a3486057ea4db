#ifndef NIMBUS_MARKET_SNAPSHOT_H_
#define NIMBUS_MARKET_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "ml/model.h"

namespace nimbus::market::snapshot {

// Crash-consistent snapshot format for the marketplace's transactional
// state — the checkpoint half of the snapshot + journal-tail recovery
// scheme (market/checkpointer.h drives when snapshots are taken).
//
// A snapshot file is the 8-byte magic "NIMBUSS1" followed by sections:
//
//   u32 tag | u32 flags | u64 payload_len | u32 crc32(payload) | payload
//
// in fixed order META, AGGR, COLL, FOOT. The FOOT section is a table of
// (tag, offset, len, crc) for every preceding section, so a reader
// structurally validates the whole file by walking headers and
// cross-checking the footer. Any truncation, bit flip in a section
// header, or CRC mismatch makes the snapshot invalid as a whole; readers
// then fall back to the previous generation (see Marketplace::
// RestoreFromCheckpoint's recovery ladder).
//
// A snapshot holds only live state: ledger aggregates, collusion-monitor
// histories and the sequence it covers. Its size tracks buyers and price
// points, never sales ever made. The entry rows themselves live in the
// journal's sealed segments (market/journal.h), which hydration, export
// and full replay read.
//
// Files are written via temp file + fsync + atomic rename, so a crash
// mid-checkpoint leaves at worst a torn `.tmp` that no reader ever
// considers. Generations are advertised by a small text manifest
// ("NIMBUSM1", CRC-trailered, also written atomically); when the
// manifest is stale or lost, ListGenerations falls back to a directory
// scan of `<journal>.snap.NNNNNN` files.
//
// META carries the format version, 3; Read accepts no other. Images of
// earlier versions are rewritten as version 3 by the restore path's
// upgrader (market/format_upgrade.h), which reads them through
// ReadSections and DecodeState below.

// Per-buyer collusion-monitor history (mirror of CollusionMonitor's
// internal accumulator, restored bit-identically).
struct BuyerHistoryState {
  int purchases = 0;
  double combined_inverse_ncp = 0.0;
  double total_paid = 0.0;
};

// One offering's monitor state: buyer id -> history.
struct MonitorState {
  std::map<std::string, BuyerHistoryState> buyers;
};

// Everything a marketplace needs to resume revenue accounting, audit
// queries, and collusion assessments without replaying full history.
// All doubles are serialized as raw 8-byte images so a restore is
// bit-identical, matching the journal's determinism contract.
struct State {
  int64_t generation = 0;  // Assigned by the checkpointer.
  int64_t sequence = 0;    // Entries covered: ledger rows [0, sequence).
  // Ledger aggregates (accumulated in commit order, so restored query
  // results match the uncrashed process bit for bit).
  double total_revenue = 0.0;
  std::map<std::string, double> spend_by_buyer;
  std::map<double, int64_t> sales_per_price_point;
  std::map<ml::ModelKind, double> revenue_by_model;
  std::map<ml::ModelKind, int64_t> sales_by_model;
  // Per-offering collusion-monitor histories.
  std::map<ml::ModelKind, MonitorState> monitors;
};

// Reads and validates a version-3 snapshot: exactly META, AGGR, COLL
// and FOOT. Every failure mode — missing file, truncation at any byte
// offset, flipped CRC or header field, footer mismatch, another version
// — returns a non-OK Status; a Status is never OK for a file that could
// mis-restore. Fault points: `io.read`.
StatusOr<State> Read(const std::string& path);

// Serializes `state` and commits it atomically: write to `path + ".tmp"`,
// fsync, rename over `path`, fsync the parent directory. Returns the
// committed image size in bytes. Fault points: `snapshot.write`
// (emulates a crash mid-write by leaving a half-written temp file),
// `snapshot.fsync`, `snapshot.rename`.
StatusOr<int64_t> Write(const std::string& path, const State& state);

// ----- Section framing, shared by every format version ---------------------

constexpr uint32_t FourCc(char a, char b, char c, char d) {
  return static_cast<uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(d)) << 24;
}

struct Section {
  uint32_t tag = 0;
  std::string payload;
};

// Reads the framing of the snapshot at `path`: the magic, every
// section's header and CRC, and FOOT's table against the sections before
// it. Returns the sections before FOOT in file order; which tags may
// appear is the caller's check. Fault points: `io.read`.
StatusOr<std::vector<Section>> ReadSections(const std::string& path);

// Decodes the META, AGGR and COLL sections every version's body opens
// with into a State; `version` receives META's format version.
StatusOr<State> DecodeState(const std::string& path,
                            const std::vector<Section>& sections,
                            uint32_t* version);

// ----- Generation manifest -------------------------------------------------

// Advertises the newest committed generation (and its predecessor, the
// fallback rung). Paths are derived from the journal path + generation,
// never stored, so snapshot directories stay relocatable.
struct Manifest {
  int64_t generation = 0;
  int64_t sequence = 0;
  int64_t prev_generation = 0;  // 0 = no previous generation.
  int64_t prev_sequence = 0;
};

// `<journal>.snap.NNNNNN` for generation N (N >= 1).
std::string SnapshotPath(const std::string& journal_path, int64_t generation);
// `<journal>.manifest`.
std::string ManifestPath(const std::string& journal_path);

Status WriteManifest(const std::string& journal_path, const Manifest& m);
// kNotFound when absent; kInternal on a corrupt/torn manifest (callers
// fall back to ListGenerations' directory scan either way).
StatusOr<Manifest> ReadManifest(const std::string& journal_path);

// Snapshot generations present on disk, newest first: the union of the
// manifest's generations and a directory scan (so a crash between the
// snapshot rename and the manifest update still surfaces the newer
// file). Never fails — unreadable directories yield an empty list.
std::vector<int64_t> ListGenerations(const std::string& journal_path);

}  // namespace nimbus::market::snapshot

#endif  // NIMBUS_MARKET_SNAPSHOT_H_
