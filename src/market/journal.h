#ifndef NIMBUS_MARKET_JOURNAL_H_
#define NIMBUS_MARKET_JOURNAL_H_

#include <atomic>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/profiler.h"
#include "common/statusor.h"
#include "common/telemetry.h"
#include "market/ledger.h"

namespace nimbus::market {

// Append-only binary write-ahead log for the ledger — the durable copy
// of the seller's audit trail. A journal segment is a 20-byte header
//
//   "NIMBUSJ2" | u64 base_sequence | u32 crc32(base_sequence)
//
// followed by length-prefixed records:
//
//   u32 payload_len | u32 crc32(payload) | payload
//
// where the payload is one serialized LedgerEntry (fixed numeric fields
// in native little-endian order plus a length-prefixed buyer id). The
// CRC makes bit rot and torn writes detectable: replay accepts exactly
// the longest valid record prefix and classifies whatever follows as a
// torn tail (incomplete trailing record — the signature of a crash
// mid-append) or corruption (a full-length record whose CRC or encoding
// is wrong). The segment holds the records with sequence >=
// base_sequence; the header CRC keeps a bit flip from renumbering them.
// Files of earlier formats are converted by the restore path's upgrader
// (market/format_upgrade.h) before anything here reads them.
//
// A journal is a chain of segments. `path` is the live segment, the
// only one appended to. Each checkpoint seals it (Seal): the file is
// fsynced and renamed to `<path>.seg.<base>`, and a fresh live segment
// starts at the checkpoint's sequence. Sealed segments are the audit
// trail — snapshots (market/snapshot.h) hold aggregates only — so they
// are never pruned. ReadRange stitches rows [from, end) back together
// across the chain.
class Journal {
 public:
  // When to force bytes to stable storage.
  //   kNone:        leave flushing to the OS (fastest; a crash may lose
  //                 the most recent records but never corrupts the
  //                 prefix).
  //   kEveryRecord: fflush + fsync after each append (group-commit-free
  //                 durability; every acknowledged sale survives power
  //                 loss).
  enum class FsyncPolicy { kNone, kEveryRecord };

  struct Options {
    FsyncPolicy fsync = FsyncPolicy::kNone;
    // Base sequence stamped into the header when Open CREATES the file.
    // Ignored for existing files, whose base comes from their own header.
    int64_t create_base_sequence = 0;
  };

  // Opens `path` for appending, creating it (with header) when absent.
  // An existing file must be a structurally valid journal ending on a
  // record boundary: Open scans it and fails with kFailedPrecondition on
  // a torn or corrupt tail, because appending past one would bury the
  // damage behind fresh records and silently diverge replay from the
  // acknowledged history. Run Journal::Replay (which truncates torn
  // tails) — or the marketplace's restore path — first, then re-open.
  static StatusOr<Journal> Open(const std::string& path, Options options);

  Journal(Journal&& other) noexcept;
  Journal& operator=(Journal&& other) noexcept;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;
  ~Journal();

  // Appends one record (write-through target of Ledger::Record). The
  // entry is fully buffered into one fwrite so a crash between appends
  // never interleaves partial records from this process.
  //
  // Append is idempotent across failed attempts of the SAME record:
  // when an append got its bytes buffered but failed at the flush/fsync
  // stage, retrying Append(entry) with the identical payload re-flushes
  // instead of re-buffering, so a retrying caller (the serving layer's
  // journal retry policy) can never duplicate a record. The retry must
  // carry the same payload, not just the same sequence number: if a
  // caller abandons a buffered-but-unacknowledged record (retry budget
  // exhausted) and later reuses its sequence for a DIFFERENT sale, the
  // abandoned bytes are already in the write buffer and cannot be
  // recalled, so accepting the new entry would silently diverge journal
  // and ledger. Append detects the payload mismatch, poisons the
  // journal, and fails with kFailedPrecondition instead. A short write
  // mid-record likewise poisons the journal — the in-process buffer may
  // hold a torn record — so further appends fail with
  // kFailedPrecondition (non-retryable) until the file is recovered.
  // `trace` (optional) nests the append span under the committing
  // request, annotated "retry-reflush" / "poisoned" as applicable.
  Status Append(const LedgerEntry& entry,
                const telemetry::TraceContext* trace = nullptr);

  // Flushes user-space buffers and, under kEveryRecord, fsyncs.
  Status Flush();

  // Flushes and closes the file; further appends fail. Idempotent.
  Status Close();

  // Retires this handle for out-of-band recovery: best-effort flush of
  // whatever is buffered (committed records AND, possibly, a torn tail
  // — the recovery ladder truncates torn tails, so landing them on disk
  // is safe), then closes and permanently poisons the handle so a later
  // destructor cannot flush stale bytes over the repaired file. Unlike
  // Close, flush errors are swallowed: on a genuinely full disk the
  // buffered tail is already lost, and recovery replays what reached
  // the file. Must be called BEFORE recovery re-opens the path.
  // Idempotent.
  void Discard();

  // Flushes and fsyncs the live segment whatever the FsyncPolicy: the
  // checkpointer calls it before a snapshot lands, so every row the
  // snapshot counts is durable first.
  Status Sync();

  // Seals the live segment at `next_base`, the sequence a checkpoint
  // just covered: fsyncs it, renames it to SealedSegmentPath(path,
  // base_sequence()), and installs a fresh live segment whose header
  // carries `next_base`. The fresh header is written (to `<path>
  // .seal.tmp`) before anything is renamed, so a failure — including
  // ENOSPC — leaves the live segment intact and appendable. A crash
  // between the two renames leaves no live segment; restore reads the
  // sealed one and re-creates the live file. No-op when the live
  // segment holds no records. `next_base` must be exactly the sequence
  // after the last appended record. Fault point: `journal.rotate`.
  Status Seal(int64_t next_base);

  const std::string& path() const { return path_; }

  // First sequence the live segment holds.
  int64_t base_sequence() const { return base_sequence_; }

  // Current size of the live segment in bytes (header + appended
  // records, including any not-yet-flushed tail) — the
  // `journal_live_bytes` gauge.
  int64_t live_bytes() const;

  // How a replay ended.
  enum class TailState {
    kClean,    // File ends exactly on a record boundary.
    kTorn,     // Trailing partial record (crash mid-append).
    kCorrupt,  // Full-length record with a CRC/encoding mismatch.
  };

  struct RecoveryReport {
    int64_t recovered_records = 0;
    int64_t valid_bytes = 0;    // Header + longest valid record prefix.
    int64_t dropped_bytes = 0;  // Bytes past the valid prefix.
    int64_t base_sequence = 0;  // From the segment header.
    TailState tail = TailState::kClean;
    std::string detail;         // Human-readable tail diagnosis.
  };

  struct ReplayOptions {
    // Fail with a precise kDataLoss-style Status (kInternal) on a
    // CRC-corrupt record instead of returning the valid prefix.
    bool strict = false;
    // Physically truncate a torn tail so the file is append-clean again.
    // Corrupt (CRC-mismatch) tails are never auto-truncated — they are
    // evidence of bit rot, not of a crash — only reported.
    bool truncate_torn_tail = true;
  };

  // Replays `path`, returning the longest valid prefix of records (never
  // crashes on arbitrary bytes). `report`, when non-null, receives the
  // tail diagnosis either way. The two-argument overload uses the
  // default ReplayOptions (lenient, truncating torn tails). Fault point:
  // `journal.replay`.
  static StatusOr<std::vector<LedgerEntry>> Replay(const std::string& path,
                                                   RecoveryReport* report,
                                                   ReplayOptions options);
  static StatusOr<std::vector<LedgerEntry>> Replay(
      const std::string& path, RecoveryReport* report = nullptr);

  // CRC-32 (IEEE 802.3, reflected) of `size` bytes — the record checksum.
  static uint32_t Crc32(const void* data, size_t size);

  // Serializes one entry to the record payload format (exposed for
  // tests constructing hand-corrupted journals).
  static std::string EncodePayload(const LedgerEntry& entry);

  // Inverse of EncodePayload (the legacy-format upgrader decodes old
  // snapshots' rows with it).
  static StatusOr<LedgerEntry> DecodePayload(std::string_view payload);

  // A whole segment image: the header for `base_sequence`, then `rows`
  // framed as records.
  static std::string EncodeSegment(int64_t base_sequence,
                                   const std::vector<LedgerEntry>& rows);

  // ----- The segment chain -----------------------------------------------
  // `<path>.seg.<base>` (base zero-padded to 12 digits).
  static std::string SealedSegmentPath(const std::string& path, int64_t base);

  // Bases of the sealed segments on disk, ascending.
  static std::vector<int64_t> SealedSegments(const std::string& path);

  static constexpr int64_t kToEnd = INT64_MAX;

  // The journal's rows [from, end), read across the sealed segments
  // and the live segment. Segments are taken in base order, and only
  // those that can hold a row at or past `from` are opened, so a read
  // from the newest checkpoint opens the live segment alone. Every
  // segment must be dense from its header's base; segments may overlap
  // but not leave a gap, and the chain must reach `from`. A sealed segment must replay clean: a torn or corrupt one
  // fails the read with a Status naming the file, never a short result.
  // The live segment replays leniently (its valid prefix), and
  // `heal_live_tail` truncates a torn live tail the way Replay does —
  // only the restore path, which owns the files, asks for it. kNotFound
  // when no segment exists; a shorter chain than `end` returns what
  // exists.
  static StatusOr<std::vector<LedgerEntry>> ReadRange(
      const std::string& path, int64_t from, int64_t end = kToEnd,
      bool heal_live_tail = false);

 private:
  Journal(std::string path, Options options, std::FILE* file)
      : path_(std::move(path)),
        options_(options),
        file_(file),
        mu_(std::make_unique<prof::ProfiledMutex>("journal")) {}

  // Flush body without taking mu_ (Append and Close call it while
  // already holding the lock).
  Status FlushLocked();
  // Sync body without taking mu_ (Seal calls it while holding the lock).
  Status SyncLocked();

  std::string path_;
  Options options_;
  std::FILE* file_ = nullptr;
  int64_t base_sequence_ = 0;
  // Sequence after the last record buffered into the live segment —
  // what Seal checks its `next_base` against.
  int64_t next_sequence_ = 0;
  // Size of the live segment (header + records, buffered included),
  // maintained in-memory so the checkpointer's cadence check never
  // stats the file. Atomic so live_bytes() needs no lock.
  std::atomic<int64_t> live_bytes_{0};
  // Retry bookkeeping: identity (sequence + payload length/CRC) of the
  // record whose bytes are buffered but not yet acknowledged (flush
  // failed), and the poison flag for short writes / abandoned records.
  int64_t buffered_sequence_ = -1;
  uint32_t buffered_payload_size_ = 0;
  uint32_t buffered_payload_crc_ = 0;
  bool poisoned_ = false;
  // Serializes Append/Flush/Close and feeds mutex_*{mutex="journal"} —
  // fsync-policy stalls under the lock are visible in the contention
  // profile. unique_ptr keeps Journal movable (same pattern as the
  // broker's build_mu_); null only in a moved-from shell.
  std::unique_ptr<prof::ProfiledMutex> mu_;
};

}  // namespace nimbus::market

#endif  // NIMBUS_MARKET_JOURNAL_H_
