#include "market/format_upgrade.h"

#include <algorithm>
#include <cstdio>
#include <string_view>
#include <utility>

#include "common/logging.h"
#include "market/disk_io.h"
#include "market/journal.h"
#include "market/snapshot.h"

namespace nimbus::market {
namespace {

constexpr char kJ1Magic[] = "NIMBUSJ1";
constexpr char kJ2Magic[] = "NIMBUSJ2";
constexpr size_t kMagicBytes = 8;
constexpr size_t kJ2HeaderBytes = kMagicBytes + 12;  // + u64 base + u32 crc.
// A snapshot's META version sits past the magic and META's section
// header (u32 tag, u32 flags, u64 length, u32 crc).
constexpr size_t kMetaVersionOffset = kMagicBytes + 20;
// Version 2 appended the entry log (LEDG) to the current body; version 1
// also carried BRKR, the retired per-broker sale counters, before it.
constexpr uint32_t kTagBrkr = snapshot::FourCc('B', 'R', 'K', 'R');
constexpr uint32_t kTagLedg = snapshot::FourCc('L', 'E', 'D', 'G');
// The smallest LEDG record: a u32 length prefix and the fixed fields of
// Journal::EncodePayload.
constexpr size_t kMinLedgRecordBytes = 4 + 37;

// The first `n` bytes of `file`; empty when it does not exist.
StatusOr<std::string> Head(const std::string& file, size_t n) {
  StatusOr<std::string> head = disk::ReadFile(file, n);
  if (head.status().code() == StatusCode::kNotFound) {
    return std::string();
  }
  return head;
}

// The base sequence a segment's header names: 0 for J1.
StatusOr<int64_t> SegmentBase(const std::string& file) {
  NIMBUS_ASSIGN_OR_RETURN(const std::string head, Head(file, kJ2HeaderBytes));
  if (head.rfind(kJ1Magic, 0) == 0) {
    return int64_t{0};
  }
  disk::Reader in(head);
  const bool j2 = in.ReadBytes(kMagicBytes) == kJ2Magic;
  const uint64_t base = in.Read<uint64_t>();
  if (!j2 || Journal::Crc32(&base, sizeof(base)) != in.Read<uint32_t>() ||
      !in.ok()) {
    return InternalError("'" + file + "' has no valid journal header");
  }
  return static_cast<int64_t>(base);
}

bool IsLegacySnapshot(const std::string& head) {
  disk::Reader in(head);
  in.ReadBytes(kMetaVersionOffset);
  const uint32_t version = in.Read<uint32_t>();
  return in.ok() && (version == 1 || version == 2);
}

Status LegacyError(const std::string& path, const std::string& what) {
  return InternalError("legacy snapshot '" + path + "' is invalid: " + what);
}

// LEDG: an i64 count, then that many u32-length-prefixed journal
// payloads, which must be rows 0, 1, ... in order.
StatusOr<std::vector<LedgerEntry>> DecodeLedg(const std::string& path,
                                              std::string_view payload) {
  disk::Reader in(payload);
  const int64_t count = in.Read<int64_t>();
  // Checked before anything is allocated for the rows.
  if (!in.ok() || count < 0 ||
      static_cast<uint64_t>(count) > in.remaining() / kMinLedgRecordBytes) {
    return LegacyError(path, "LEDG count " + std::to_string(count) +
                                 " exceeds what its " +
                                 std::to_string(payload.size()) +
                                 " bytes can hold");
  }
  std::vector<LedgerEntry> rows;
  rows.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    StatusOr<LedgerEntry> row = Journal::DecodePayload(in.ReadString());
    if (!in.ok() || !row.ok() || row->sequence != i) {
      return LegacyError(path, "undecodable LEDG record " + std::to_string(i));
    }
    rows.push_back(*std::move(row));
  }
  if (!in.done()) {
    return LegacyError(path, "trailing bytes in LEDG section");
  }
  return rows;
}

// A version-1 or -2 snapshot, decoded.
struct LegacySnapshot {
  std::string path;
  snapshot::State state;
  std::vector<LedgerEntry> rows;  // LEDG: rows [0, state.sequence).
};

StatusOr<LegacySnapshot> DecodeLegacy(const std::string& path) {
  NIMBUS_ASSIGN_OR_RETURN(const std::vector<snapshot::Section> sections,
                          snapshot::ReadSections(path));
  LegacySnapshot legacy{path, {}, {}};
  uint32_t version = 0;
  NIMBUS_ASSIGN_OR_RETURN(legacy.state,
                          snapshot::DecodeState(path, sections, &version));
  const size_t expected = version == 1 ? 5 : version == 2 ? 4 : 0;
  if (sections.size() != expected || sections.back().tag != kTagLedg ||
      (version == 1 && sections[3].tag != kTagBrkr)) {
    return LegacyError(path, "not a version-1 or -2 section layout");
  }
  NIMBUS_ASSIGN_OR_RETURN(legacy.rows,
                          DecodeLedg(path, sections.back().payload));
  if (static_cast<int64_t>(legacy.rows.size()) != legacy.state.sequence) {
    return LegacyError(path, "LEDG entry count disagrees with META sequence");
  }
  return legacy;
}

}  // namespace

Status UpgradeLegacyFormat(const std::string& journal_path,
                           const std::vector<int64_t>& generations) {
  const std::string prev = journal_path + ".prev";
  const std::string seg0 = Journal::SealedSegmentPath(journal_path, 0);
  bool has_prev = disk::FileExists(prev);
  const bool has_live = disk::FileExists(journal_path);
  // A crash between the rotating journal's two renames left `.prev` as
  // the whole live segment: seal it as it stands.
  if (has_prev && !has_live) {
    NIMBUS_ASSIGN_OR_RETURN(const int64_t base, SegmentBase(prev));
    const std::string sealed = Journal::SealedSegmentPath(journal_path, base);
    if (disk::FileExists(sealed)) {
      return FailedPreconditionError("cannot seal '" + prev + "': '" +
                                     sealed + "' already exists");
    }
    NIMBUS_RETURN_IF_ERROR(disk::RenameSynced(prev, sealed));
    has_prev = false;
  }

  std::vector<LegacySnapshot> legacy;
  for (const int64_t generation : generations) {
    const std::string file = snapshot::SnapshotPath(journal_path, generation);
    NIMBUS_ASSIGN_OR_RETURN(const std::string head,
                            Head(file, kMetaVersionOffset + 4));
    if (!IsLegacySnapshot(head)) {
      continue;
    }
    StatusOr<LegacySnapshot> decoded = DecodeLegacy(file);
    if (decoded.ok()) {
      legacy.push_back(*std::move(decoded));
    } else {
      NIMBUS_LOG(kWarning) << "upgrade: " << decoded.status().message()
                           << "; left for the recovery ladder to reject";
    }
  }
  if (!legacy.empty()) {
    // The rows below the journal's first segment exist only in LEDG
    // sections; the newest decodable snapshot holds the most of them.
    const std::vector<int64_t> sealed = Journal::SealedSegments(journal_path);
    int64_t first_base = sealed.empty() ? Journal::kToEnd : sealed.front();
    if (has_live) {
      const StatusOr<int64_t> live_base = SegmentBase(journal_path);
      if (live_base.ok()) {
        first_base = std::min(first_base, *live_base);
      }
    }
    std::vector<LedgerEntry>& rows =
        std::max_element(legacy.begin(), legacy.end(),
                         [](const LegacySnapshot& a, const LegacySnapshot& b) {
                           return a.rows.size() < b.rows.size();
                         })
            ->rows;
    if (first_base > 0 && first_base != Journal::kToEnd &&
        static_cast<int64_t>(rows.size()) >= first_base) {
      rows.resize(static_cast<size_t>(first_base));
      NIMBUS_RETURN_IF_ERROR(
          disk::CommitFile(seg0, Journal::EncodeSegment(0, rows)));
      first_base = 0;
    }
    // Only a chain that reaches row 0 lets the LEDG copies go.
    if (first_base == 0) {
      for (const LegacySnapshot& snapshot : legacy) {
        NIMBUS_RETURN_IF_ERROR(
            snapshot::Write(snapshot.path, snapshot.state).status());
      }
    }
  }
  // With the chain sealed from 0, `.prev` only repeats rows that the
  // sealed segments and the live segment hold.
  if (has_prev && disk::FileExists(seg0) &&
      std::remove(prev.c_str()) != 0) {
    return InternalError("cannot remove '" + prev + "'");
  }

  // Only a base-0 segment ever carried the J1 header.
  for (const std::string& file : {journal_path, seg0}) {
    NIMBUS_ASSIGN_OR_RETURN(const std::string head, Head(file, kMagicBytes));
    if (head != kJ1Magic) {
      continue;
    }
    NIMBUS_ASSIGN_OR_RETURN(const std::string bytes, disk::ReadFile(file));
    std::string image = Journal::EncodeSegment(0, {});
    image.append(bytes, kMagicBytes);
    NIMBUS_RETURN_IF_ERROR(disk::CommitFile(file, image));
  }
  return OkStatus();
}

}  // namespace nimbus::market
