#include "market/journal.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/fault.h"
#include "common/logging.h"
#include "market/disk_io.h"

namespace nimbus::market {
namespace {

// Segment magic: followed by u64 base_sequence + u32 crc32 of those 8
// bytes (see the class comment).
constexpr char kMagic[8] = {'N', 'I', 'M', 'B', 'U', 'S', 'J', '2'};
constexpr size_t kSegmentHeaderBytes = sizeof(kMagic) + 12;
constexpr size_t kRecordHeaderBytes = 8;  // u32 length + u32 crc.
// A sale record is a few dozen bytes; anything near this bound is a
// corrupted length field, not a real record.
constexpr uint32_t kMaxPayloadBytes = 1u << 20;

using disk::AppendScalar;

// Frames one record: u32 length | u32 crc | payload.
void AppendRecord(std::string& out, std::string_view payload, uint32_t crc) {
  AppendScalar(out, static_cast<uint32_t>(payload.size()));
  AppendScalar(out, crc);
  out += payload;
}

// One segment of the chain ReadRange stitches. Sealed segments are
// replayed only once selected; the live file is replayed up front,
// because only its header knows its base.
struct Segment {
  std::string path;
  int64_t base = 0;
  bool sealed = false;
  bool loaded = false;
  bool headerless = false;
  std::vector<LedgerEntry> rows;
};

// Replays one segment and checks that its rows are dense from its
// header's base. `segment.headerless` marks a live file with no valid
// header yet (a crash right after creating it): it holds no rows and no
// base.
Status LoadSegment(Segment& segment, bool heal_torn_tail) {
  Journal::RecoveryReport report;
  Journal::ReplayOptions options;
  options.strict = segment.sealed;
  options.truncate_torn_tail = heal_torn_tail;
  NIMBUS_ASSIGN_OR_RETURN(segment.rows,
                          Journal::Replay(segment.path, &report, options));
  if (segment.sealed && report.tail != Journal::TailState::kClean) {
    return InternalError("sealed journal segment '" + segment.path +
                         "' is damaged: " + report.detail);
  }
  if (segment.sealed && report.base_sequence != segment.base) {
    return InternalError("sealed journal segment '" + segment.path +
                         "' has header base " +
                         std::to_string(report.base_sequence));
  }
  segment.base = report.base_sequence;
  segment.headerless = report.valid_bytes == 0;
  for (size_t i = 0; i < segment.rows.size(); ++i) {
    if (segment.rows[i].sequence != segment.base + static_cast<int64_t>(i)) {
      return InternalError(
          "journal segment '" + segment.path + "' holds sequence " +
          std::to_string(segment.rows[i].sequence) + " where " +
          std::to_string(segment.base + static_cast<int64_t>(i)) +
          " belongs");
    }
  }
  segment.loaded = true;
  return OkStatus();
}

}  // namespace

StatusOr<LedgerEntry> Journal::DecodePayload(std::string_view payload) {
  disk::Reader in(payload);
  LedgerEntry entry;
  entry.sequence = in.Read<int64_t>();
  const uint8_t kind = in.Read<uint8_t>();
  entry.inverse_ncp = in.Read<double>();
  entry.price = in.Read<double>();
  entry.expected_error = in.Read<double>();
  const std::string_view buyer = in.ReadString();
  if (!in.done()) {
    return InvalidArgumentError(
        "journal payload does not hold exactly one entry");
  }
  NIMBUS_ASSIGN_OR_RETURN(entry.model, disk::ModelKindFromByte(kind));
  entry.buyer_id = std::string(buyer);
  return entry;
}

uint32_t Journal::Crc32(const void* data, size_t size) {
  // Standard reflected CRC-32 (polynomial 0xEDB88320), table built once.
  static const uint32_t* table = [] {
    auto* t = new uint32_t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string Journal::EncodeSegment(int64_t base_sequence,
                                   const std::vector<LedgerEntry>& rows) {
  std::string image(kMagic, sizeof(kMagic));
  const auto base = static_cast<uint64_t>(base_sequence);
  AppendScalar(image, base);
  AppendScalar(image, Crc32(&base, sizeof(base)));
  for (const LedgerEntry& row : rows) {
    const std::string payload = EncodePayload(row);
    AppendRecord(image, payload, Crc32(payload.data(), payload.size()));
  }
  return image;
}

std::string Journal::EncodePayload(const LedgerEntry& entry) {
  std::string payload;
  payload.reserve(37 + entry.buyer_id.size());
  AppendScalar(payload, entry.sequence);
  AppendScalar(payload, static_cast<uint8_t>(entry.model));
  AppendScalar(payload, entry.inverse_ncp);
  AppendScalar(payload, entry.price);
  AppendScalar(payload, entry.expected_error);
  disk::AppendString(payload, entry.buyer_id);
  return payload;
}

StatusOr<Journal> Journal::Open(const std::string& path, Options options) {
  if (options.create_base_sequence < 0) {
    return InvalidArgumentError("create_base_sequence must be >= 0");
  }
  bool needs_header = true;
  int64_t base_sequence = options.create_base_sequence;
  int64_t existing_bytes = 0;
  int64_t existing_records = 0;
  struct stat st;
  if (::stat(path.c_str(), &st) == 0) {
    existing_bytes = static_cast<int64_t>(st.st_size);
  }
  if (existing_bytes > 0) {
    // Structurally validate the whole file before appending: a previous
    // crash can leave a torn (or bit-rotted) tail, and appending past it
    // would bury the damage behind fresh records — replay would then
    // drop acknowledged history silently. Refuse loudly instead.
    RecoveryReport report;
    ReplayOptions scan;
    scan.truncate_torn_tail = false;
    NIMBUS_RETURN_IF_ERROR(Replay(path, &report, scan).status());
    if (report.tail != TailState::kClean) {
      return FailedPreconditionError(
          "journal '" + path + "' has an invalid tail (" + report.detail +
          "; " + std::to_string(report.dropped_bytes) +
          " bytes past the valid prefix): recover it first — "
          "Journal::Replay truncates a torn tail, and "
          "Marketplace::RestoreFromCheckpoint runs that recovery before "
          "re-opening");
    }
    needs_header = false;
    base_sequence = report.base_sequence;
    existing_records = report.recovered_records;
  }
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    return InvalidArgumentError("cannot open journal '" + path +
                                "' for appending");
  }
  Journal journal(path, options, file);
  journal.base_sequence_ = base_sequence;
  journal.next_sequence_ = base_sequence + existing_records;
  journal.live_bytes_.store(existing_bytes, std::memory_order_relaxed);
  if (needs_header) {
    const std::string header = EncodeSegment(base_sequence, {});
    if (std::fwrite(header.data(), 1, header.size(), file) != header.size()) {
      return InternalError("cannot write journal header to '" + path + "'");
    }
    journal.live_bytes_.store(static_cast<int64_t>(header.size()),
                              std::memory_order_relaxed);
    NIMBUS_RETURN_IF_ERROR(journal.Flush());
  }
  return journal;
}

int64_t Journal::live_bytes() const {
  return live_bytes_.load(std::memory_order_relaxed);
}

Journal::Journal(Journal&& other) noexcept
    : path_(std::move(other.path_)),
      options_(other.options_),
      file_(other.file_),
      base_sequence_(other.base_sequence_),
      next_sequence_(other.next_sequence_),
      live_bytes_(other.live_bytes_.load(std::memory_order_relaxed)),
      buffered_sequence_(other.buffered_sequence_),
      buffered_payload_size_(other.buffered_payload_size_),
      buffered_payload_crc_(other.buffered_payload_crc_),
      poisoned_(other.poisoned_),
      mu_(std::move(other.mu_)) {
  other.file_ = nullptr;
}

Journal& Journal::operator=(Journal&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) {
      std::fclose(file_);
    }
    path_ = std::move(other.path_);
    options_ = other.options_;
    file_ = other.file_;
    base_sequence_ = other.base_sequence_;
    next_sequence_ = other.next_sequence_;
    live_bytes_.store(other.live_bytes_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    buffered_sequence_ = other.buffered_sequence_;
    buffered_payload_size_ = other.buffered_payload_size_;
    buffered_payload_crc_ = other.buffered_payload_crc_;
    poisoned_ = other.poisoned_;
    mu_ = std::move(other.mu_);
    other.file_ = nullptr;
  }
  return *this;
}

Journal::~Journal() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

Status Journal::Append(const LedgerEntry& entry,
                       const telemetry::TraceContext* trace) {
  telemetry::TraceSpan span("journal.append", trace);
  const fault::Injection inject = fault::Check("journal.append");
  if (inject.fire && inject.mode == fault::Mode::kStatus) {
    return InternalError("fault injected at 'journal.append'");
  }
  if (mu_ == nullptr) {  // Moved-from shell.
    return FailedPreconditionError("journal '" + path_ + "' is closed");
  }
  std::lock_guard<prof::ProfiledMutex> lock(*mu_);
  if (file_ == nullptr) {
    return FailedPreconditionError("journal '" + path_ + "' is closed");
  }
  if (poisoned_) {
    span.Annotate("poisoned");
    return FailedPreconditionError(
        "journal '" + path_ +
        "' poisoned by an earlier short write; recover before appending");
  }
  const std::string payload = EncodePayload(entry);
  const uint32_t payload_crc = Crc32(payload.data(), payload.size());
  if (buffered_sequence_ == entry.sequence) {
    span.Annotate("retry-reflush");
    // Idempotent retry: the previous attempt for this very record
    // already buffered its bytes and failed only at the flush/fsync
    // stage — re-flushing is all that is left. Re-buffering here would
    // duplicate the record and break replay's dense-sequence invariant.
    // The retry must be the SAME record, though: a sequence number can
    // be reused by the ledger after a retry-exhausted (abandoned)
    // append, and the abandoned bytes already sit in the write buffer.
    // Accepting a different payload under that sequence would flush the
    // stale record and silently diverge journal and ledger.
    if (payload.size() != buffered_payload_size_ ||
        payload_crc != buffered_payload_crc_) {
      poisoned_ = true;
      span.Annotate("poisoned");
      return FailedPreconditionError(
          "journal '" + path_ + "' holds an abandoned record for sequence " +
          std::to_string(entry.sequence) +
          " with a different payload (journal poisoned; recovery required)");
    }
    if (inject.fire) {
      // Injected ENOSPC on a reflush retry: the record is already
      // buffered intact, so this models the flush stage running out of
      // disk — retryable, no poisoning.
      return InternalError("write to journal '" + path_ +
                           "' failed: No space left on device (injected)");
    }
  } else {
    std::string record;
    record.reserve(kRecordHeaderBytes + payload.size());
    AppendRecord(record, payload, payload_crc);
    size_t to_write = record.size();
    if (inject.fire) {
      // Injected ENOSPC (kEnospc mode): emulate a full disk — only the
      // first half of the record reaches the stream before the write
      // fails errno-style, leaving the same torn tail a real out-of-
      // space append would.
      to_write = record.size() / 2;
    }
    if (std::fwrite(record.data(), 1, to_write, file_) != to_write ||
        inject.fire) {
      poisoned_ = true;
      span.Annotate("poisoned");
      const std::string detail =
          inject.fire ? ": No space left on device (injected)" : "";
      return InternalError("short write appending to journal '" + path_ +
                           "'" + detail +
                           " (journal poisoned; recovery required)");
    }
    buffered_sequence_ = entry.sequence;
    buffered_payload_size_ = static_cast<uint32_t>(payload.size());
    buffered_payload_crc_ = payload_crc;
    next_sequence_ = entry.sequence + 1;
    // Counted at buffering: even when the flush below fails, the bytes
    // are in the write buffer and will reach the file.
    live_bytes_.fetch_add(static_cast<int64_t>(record.size()),
                          std::memory_order_relaxed);
  }
  if (options_.fsync == FsyncPolicy::kEveryRecord) {
    NIMBUS_RETURN_IF_ERROR(FlushLocked());
  }
  buffered_sequence_ = -1;
  return OkStatus();
}

Status Journal::Flush() {
  if (mu_ == nullptr) {  // Moved-from shell.
    return FailedPreconditionError("journal '" + path_ + "' is closed");
  }
  std::lock_guard<prof::ProfiledMutex> lock(*mu_);
  return FlushLocked();
}

Status Journal::FlushLocked() {
  FAULT_POINT("journal.fsync");
  if (file_ == nullptr) {
    return FailedPreconditionError("journal '" + path_ + "' is closed");
  }
  if (std::fflush(file_) != 0) {
    return InternalError("fflush failed on journal '" + path_ + "'");
  }
  if (options_.fsync == FsyncPolicy::kEveryRecord &&
      ::fsync(fileno(file_)) != 0) {
    return InternalError("fsync failed on journal '" + path_ + "'");
  }
  return OkStatus();
}

Status Journal::Close() {
  if (mu_ == nullptr) {  // Moved-from shell.
    return OkStatus();
  }
  std::lock_guard<prof::ProfiledMutex> lock(*mu_);
  if (file_ == nullptr) {
    return OkStatus();
  }
  const Status flushed = FlushLocked();
  const int rc = std::fclose(file_);
  file_ = nullptr;
  NIMBUS_RETURN_IF_ERROR(flushed);
  if (rc != 0) {
    return InternalError("fclose failed on journal '" + path_ + "'");
  }
  return OkStatus();
}

void Journal::Discard() {
  if (mu_ == nullptr) {  // Moved-from shell.
    return;
  }
  std::lock_guard<prof::ProfiledMutex> lock(*mu_);
  if (file_ == nullptr) {
    return;
  }
  // Best-effort flush: committed-but-buffered records must reach disk
  // for recovery to replay them. The buffer may end in a torn record —
  // that is exactly the shape the recovery ladder truncates, so writing
  // it out is safe as long as this happens before recovery re-opens the
  // path (the shard state machine orders quarantine before recovery).
  // Errors are swallowed: on a real full disk the tail is simply lost.
  std::fflush(file_);
  std::fclose(file_);
  file_ = nullptr;
  poisoned_ = true;  // Belt and braces: this handle must never append again.
}

Status Journal::Sync() {
  if (mu_ == nullptr) {  // Moved-from shell.
    return FailedPreconditionError("journal '" + path_ + "' is closed");
  }
  std::lock_guard<prof::ProfiledMutex> lock(*mu_);
  return SyncLocked();
}

Status Journal::SyncLocked() {
  if (file_ == nullptr) {
    return FailedPreconditionError("journal '" + path_ + "' is closed");
  }
  if (std::fflush(file_) != 0 || ::fsync(fileno(file_)) != 0) {
    return InternalError("cannot sync journal '" + path_ + "'");
  }
  return OkStatus();
}

Status Journal::Seal(int64_t next_base) {
  if (mu_ == nullptr) {  // Moved-from shell.
    return FailedPreconditionError("journal '" + path_ + "' is closed");
  }
  std::lock_guard<prof::ProfiledMutex> lock(*mu_);
  if (file_ == nullptr) {
    return FailedPreconditionError("journal '" + path_ + "' is closed");
  }
  if (poisoned_) {
    return FailedPreconditionError(
        "journal '" + path_ + "' poisoned by an earlier short write; "
        "recover before sealing");
  }
  if (next_base != next_sequence_) {
    return FailedPreconditionError(
        "cannot seal journal '" + path_ + "' at sequence " +
        std::to_string(next_base) + ": its records end at " +
        std::to_string(next_sequence_));
  }
  const fault::Injection inject = fault::Check("journal.rotate");
  if (inject.fire && inject.mode == fault::Mode::kStatus) {
    return InternalError("fault injected at 'journal.rotate'");
  }
  if (next_base == base_sequence_) {
    return OkStatus();  // No records to seal.
  }
  NIMBUS_RETURN_IF_ERROR(SyncLocked());
  const std::string sealed = SealedSegmentPath(path_, base_sequence_);
  if (disk::FileExists(sealed)) {
    return FailedPreconditionError("sealed journal segment '" + sealed +
                                   "' already exists");
  }
  // The fresh segment's header lands before anything is renamed, so a
  // failed write (an injected ENOSPC writes half of it) leaves the live
  // segment untouched.
  const std::string header = EncodeSegment(next_base, {});
  const std::string tmp = path_ + ".seal.tmp";
  NIMBUS_RETURN_IF_ERROR(
      disk::WriteSynced(tmp, header, inject, "journal.rotate"));
  if (std::rename(path_.c_str(), sealed.c_str()) != 0) {
    return InternalError("cannot seal '" + path_ + "' as '" + sealed + "'");
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    // Best-effort rollback so the live path does not stay missing.
    if (std::rename(sealed.c_str(), path_.c_str()) != 0) {
      poisoned_ = true;
      return InternalError("seal of '" + path_ +
                           "' failed mid-swap and could not roll back; "
                           "restore reads '" + sealed + "'");
    }
    return InternalError("cannot install a fresh segment at '" + path_ +
                         "'");
  }
  NIMBUS_RETURN_IF_ERROR(disk::SyncParentDir(path_));
  // The old handle still points at the sealed inode; reopen the fresh
  // live segment for appending.
  std::fclose(file_);
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    poisoned_ = true;
    return InternalError("cannot re-open sealed journal '" + path_ + "'");
  }
  base_sequence_ = next_base;
  live_bytes_.store(static_cast<int64_t>(header.size()),
                    std::memory_order_relaxed);
  buffered_sequence_ = -1;
  return OkStatus();
}

StatusOr<std::vector<LedgerEntry>> Journal::Replay(const std::string& path,
                                                   RecoveryReport* report) {
  return Replay(path, report, ReplayOptions{});
}

StatusOr<std::vector<LedgerEntry>> Journal::Replay(const std::string& path,
                                                   RecoveryReport* report,
                                                   ReplayOptions options) {
  FAULT_POINT("journal.replay");
  RecoveryReport local;
  RecoveryReport& rep = report != nullptr ? *report : local;
  rep = RecoveryReport{};

  StatusOr<std::string> read = disk::ReadFile(path);
  if (!read.ok()) {
    return read.status().code() == StatusCode::kNotFound
               ? NotFoundError("cannot open journal '" + path + "'")
               : read.status();
  }
  const std::string& bytes = *read;

  std::vector<LedgerEntry> entries;
  size_t offset = 0;
  bool scan_records = false;
  if (bytes.empty()) {
    // A fresh (or fully truncated) journal: clean and empty, so Open can
    // stamp the header and start appending.
  } else if (bytes.size() >= sizeof(kMagic) &&
             std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return InvalidArgumentError("'" + path + "' is not a nimbus journal");
  } else if (bytes.size() < kSegmentHeaderBytes) {
    // Crash mid-header write: nothing recoverable, but the file is a
    // legitimate torn journal, not garbage.
    rep.tail = TailState::kTorn;
    rep.detail = "truncated segment header";
  } else {
    // The base sequence rides in the header, CRC'd so a bit flip there
    // cannot silently renumber the whole segment.
    disk::Reader header(std::string_view(bytes).substr(sizeof(kMagic)));
    const uint64_t base = header.Read<uint64_t>();
    if (Crc32(&base, sizeof(base)) != header.Read<uint32_t>()) {
      rep.tail = TailState::kCorrupt;
      rep.detail = "segment header CRC mismatch";
    } else {
      rep.base_sequence = static_cast<int64_t>(base);
      offset = kSegmentHeaderBytes;
      scan_records = true;
    }
  }
  if (scan_records) {
    while (offset < bytes.size()) {
      const size_t remaining = bytes.size() - offset;
      if (remaining < kRecordHeaderBytes) {
        rep.tail = TailState::kTorn;
        rep.detail = "partial record header at byte " + std::to_string(offset);
        break;
      }
      uint32_t length = 0;
      uint32_t crc = 0;
      std::memcpy(&length, bytes.data() + offset, sizeof(length));
      std::memcpy(&crc, bytes.data() + offset + sizeof(length), sizeof(crc));
      if (length > kMaxPayloadBytes) {
        rep.tail = TailState::kCorrupt;
        rep.detail = "implausible payload length " + std::to_string(length) +
                     " at byte " + std::to_string(offset);
        break;
      }
      if (remaining - kRecordHeaderBytes < length) {
        rep.tail = TailState::kTorn;
        rep.detail = "partial record payload at byte " + std::to_string(offset);
        break;
      }
      const std::string_view payload(bytes.data() + offset + kRecordHeaderBytes,
                                     length);
      const uint32_t actual = Crc32(payload.data(), payload.size());
      if (actual != crc) {
        rep.tail = TailState::kCorrupt;
        rep.detail = "CRC mismatch on record " +
                     std::to_string(entries.size()) + " at byte " +
                     std::to_string(offset) + " (stored " +
                     std::to_string(crc) + ", computed " +
                     std::to_string(actual) + ")";
        break;
      }
      StatusOr<LedgerEntry> entry = DecodePayload(payload);
      if (!entry.ok()) {
        rep.tail = TailState::kCorrupt;
        rep.detail = "undecodable record " + std::to_string(entries.size()) +
                     " at byte " + std::to_string(offset) + ": " +
                     entry.status().message();
        break;
      }
      entries.push_back(*std::move(entry));
      offset += kRecordHeaderBytes + length;
    }
  }

  rep.recovered_records = static_cast<int64_t>(entries.size());
  rep.valid_bytes = static_cast<int64_t>(offset);
  rep.dropped_bytes = static_cast<int64_t>(bytes.size() - offset);
  if (options.strict && rep.tail == TailState::kCorrupt) {
    return InternalError("journal '" + path + "' is corrupt: " + rep.detail);
  }
  if (rep.tail == TailState::kTorn && options.truncate_torn_tail) {
    if (::truncate(path.c_str(), static_cast<off_t>(rep.valid_bytes)) != 0) {
      return InternalError("cannot truncate torn tail of journal '" + path +
                           "'");
    }
    NIMBUS_LOG(kWarning) << "journal '" << path << "': truncated torn tail ("
                         << rep.dropped_bytes << " bytes, " << rep.detail
                         << ")";
  } else if (rep.tail != TailState::kClean) {
    NIMBUS_LOG(kWarning) << "journal '" << path << "': dropped "
                         << rep.dropped_bytes << " trailing bytes ("
                         << rep.detail << ")";
  }
  return entries;
}

std::string Journal::SealedSegmentPath(const std::string& path,
                                       int64_t base) {
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".seg.%012lld",
                static_cast<long long>(base));
  return path + suffix;
}

std::vector<int64_t> Journal::SealedSegments(const std::string& path) {
  return disk::NumberedSiblings(path, ".seg.");
}

StatusOr<std::vector<LedgerEntry>> Journal::ReadRange(const std::string& path,
                                                      int64_t from,
                                                      int64_t end,
                                                      bool heal_live_tail) {
  if (from < 0 || end < from) {
    return InvalidArgumentError("invalid journal row range [" +
                                std::to_string(from) + ", " +
                                std::to_string(end) + ")");
  }
  Segment live;
  live.path = path;
  live.headerless = !disk::FileExists(path);
  if (!live.headerless) {
    NIMBUS_RETURN_IF_ERROR(LoadSegment(live, heal_live_tail));
  }
  std::vector<Segment> chain;
  // The live segment alone serves a read at or past its base — a
  // restore's tail in the steady state — so only a read reaching below
  // it lists the directory for sealed segments.
  if (live.headerless || live.base > from) {
    for (const int64_t base : SealedSegments(path)) {
      Segment& segment = chain.emplace_back();
      segment.path = SealedSegmentPath(path, base);
      segment.base = base;
      segment.sealed = true;
    }
  }
  if (!live.headerless) {
    chain.push_back(std::move(live));
  }
  if (chain.empty()) {
    return NotFoundError("no journal segment at '" + path + "'");
  }
  // Stable: on a tied base the live segment, pushed last, wins below.
  std::stable_sort(chain.begin(), chain.end(),
                   [](const Segment& a, const Segment& b) {
                     return a.base < b.base;
                   });
  std::vector<LedgerEntry> rows;
  int64_t cursor = from;
  for (size_t i = 0; i < chain.size() && cursor < end; ++i) {
    if (i + 1 < chain.size() && chain[i + 1].base <= cursor) {
      continue;  // A later segment already holds the cursor's row.
    }
    Segment& segment = chain[i];
    if (segment.base > cursor) {
      return InternalError("journal rows from sequence " +
                           std::to_string(cursor) + " are missing: '" +
                           segment.path + "' starts at " +
                           std::to_string(segment.base));
    }
    if (!segment.loaded) {
      NIMBUS_RETURN_IF_ERROR(LoadSegment(segment, false));
    }
    const int64_t segment_end =
        segment.base + static_cast<int64_t>(segment.rows.size());
    if (segment_end < cursor) {
      return InternalError("journal '" + segment.path + "' ends at sequence " +
                           std::to_string(segment_end) + ", before " +
                           std::to_string(cursor));
    }
    const int64_t stop = std::min(segment_end, end);
    rows.insert(rows.end(),
                std::make_move_iterator(segment.rows.begin() +
                                        (cursor - segment.base)),
                std::make_move_iterator(segment.rows.begin() +
                                        (stop - segment.base)));
    cursor = stop;
  }
  return rows;
}

}  // namespace nimbus::market
