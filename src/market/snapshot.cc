#include "market/snapshot.h"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <span>
#include <sstream>
#include <utility>

#include "common/fault.h"
#include "common/logging.h"
#include "market/journal.h"

namespace nimbus::market::snapshot {
namespace {

constexpr char kMagic[8] = {'N', 'I', 'M', 'B', 'U', 'S', 'S', '1'};
constexpr char kManifestMagic[] = "NIMBUSM1";
constexpr uint32_t kFormatVersion = 3;
constexpr size_t kSectionHeaderBytes = 20;  // tag + flags + len + crc.

constexpr uint32_t FourCc(char a, char b, char c, char d) {
  return static_cast<uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(d)) << 24;
}

constexpr uint32_t kTagMeta = FourCc('M', 'E', 'T', 'A');
constexpr uint32_t kTagAggr = FourCc('A', 'G', 'G', 'R');
constexpr uint32_t kTagColl = FourCc('C', 'O', 'L', 'L');
constexpr uint32_t kTagLedg = FourCc('L', 'E', 'D', 'G');
constexpr uint32_t kTagFoot = FourCc('F', 'O', 'O', 'T');

// The body sections, in required file order (FOOT follows, indexing
// exactly these).
constexpr uint32_t kBodyTags[] = {kTagMeta, kTagAggr, kTagColl};

// Legacy read rules: version 2 appends the entry log (LEDG); version 1
// also carries BRKR (the retired broker sale counters) before it. Read
// CRC-checks both, drops BRKR and decodes LEDG.
constexpr uint32_t kTagBrkr = FourCc('B', 'R', 'K', 'R');
constexpr uint32_t kBodyTagsV2[] = {kTagMeta, kTagAggr, kTagColl, kTagLedg};
constexpr uint32_t kBodyTagsV1[] = {kTagMeta, kTagAggr, kTagColl, kTagBrkr,
                                    kTagLedg};
constexpr size_t kMaxBodySections = std::size(kBodyTagsV1);

void AppendRaw(std::string& out, const void* data, size_t size) {
  out.append(static_cast<const char*>(data), size);
}

template <typename T>
void AppendScalar(std::string& out, T value) {
  AppendRaw(out, &value, sizeof(value));
}

void AppendString(std::string& out, const std::string& s) {
  AppendScalar(out, static_cast<uint32_t>(s.size()));
  AppendRaw(out, s.data(), s.size());
}

template <typename T>
bool ReadScalar(const std::string& in, size_t& offset, T* value) {
  if (in.size() - offset < sizeof(T)) {
    return false;
  }
  std::memcpy(value, in.data() + offset, sizeof(T));
  offset += sizeof(T);
  return true;
}

bool ReadString(const std::string& in, size_t& offset, std::string* value) {
  uint32_t len = 0;
  if (!ReadScalar(in, offset, &len) || in.size() - offset < len) {
    return false;
  }
  *value = in.substr(offset, len);
  offset += len;
  return true;
}

StatusOr<ml::ModelKind> DecodeModelKind(uint8_t kind) {
  switch (static_cast<ml::ModelKind>(kind)) {
    case ml::ModelKind::kLinearRegression:
    case ml::ModelKind::kLogisticRegression:
    case ml::ModelKind::kLinearSvm:
    case ml::ModelKind::kPoissonRegression:
      return static_cast<ml::ModelKind>(kind);
  }
  return InternalError("snapshot references unknown model kind " +
                       std::to_string(kind));
}

Status CorruptError(const std::string& path, const std::string& what) {
  return InternalError("snapshot '" + path + "' is invalid: " + what);
}

// ----- Section payload codecs ----------------------------------------------

std::string EncodeMeta(const State& state) {
  std::string out;
  AppendScalar(out, kFormatVersion);
  AppendScalar(out, state.generation);
  AppendScalar(out, state.sequence);
  return out;
}

Status DecodeMeta(const std::string& path, const std::string& payload,
                  State* state) {
  size_t offset = 0;
  if (!ReadScalar(payload, offset, &state->version) ||
      !ReadScalar(payload, offset, &state->generation) ||
      !ReadScalar(payload, offset, &state->sequence) ||
      offset != payload.size()) {
    return CorruptError(path, "undecodable META section");
  }
  if (state->version < 1 || state->version > kFormatVersion) {
    return CorruptError(path, "unsupported format version " +
                                  std::to_string(state->version));
  }
  if (state->generation < 0 || state->sequence < 0) {
    return CorruptError(path, "negative generation or sequence");
  }
  return OkStatus();
}

std::string EncodeAggr(const State& state) {
  std::string out;
  AppendScalar(out, state.total_revenue);
  AppendScalar(out, static_cast<uint32_t>(state.revenue_by_model.size()));
  for (const auto& [kind, revenue] : state.revenue_by_model) {
    AppendScalar(out, static_cast<uint8_t>(kind));
    AppendScalar(out, revenue);
  }
  AppendScalar(out, static_cast<uint32_t>(state.sales_by_model.size()));
  for (const auto& [kind, sales] : state.sales_by_model) {
    AppendScalar(out, static_cast<uint8_t>(kind));
    AppendScalar(out, sales);
  }
  AppendScalar(out, static_cast<uint32_t>(state.sales_per_price_point.size()));
  for (const auto& [inverse_ncp, count] : state.sales_per_price_point) {
    AppendScalar(out, inverse_ncp);
    AppendScalar(out, count);
  }
  AppendScalar(out, static_cast<uint32_t>(state.spend_by_buyer.size()));
  for (const auto& [buyer, spend] : state.spend_by_buyer) {
    AppendString(out, buyer);
    AppendScalar(out, spend);
  }
  return out;
}

Status DecodeAggr(const std::string& path, const std::string& payload,
                  State* state) {
  size_t offset = 0;
  uint32_t n = 0;
  if (!ReadScalar(payload, offset, &state->total_revenue) ||
      !ReadScalar(payload, offset, &n)) {
    return CorruptError(path, "undecodable AGGR section");
  }
  for (uint32_t i = 0; i < n; ++i) {
    uint8_t kind = 0;
    double revenue = 0.0;
    if (!ReadScalar(payload, offset, &kind) ||
        !ReadScalar(payload, offset, &revenue)) {
      return CorruptError(path, "undecodable AGGR model revenue");
    }
    NIMBUS_ASSIGN_OR_RETURN(const ml::ModelKind model, DecodeModelKind(kind));
    state->revenue_by_model[model] = revenue;
  }
  if (!ReadScalar(payload, offset, &n)) {
    return CorruptError(path, "undecodable AGGR section");
  }
  for (uint32_t i = 0; i < n; ++i) {
    uint8_t kind = 0;
    int64_t sales = 0;
    if (!ReadScalar(payload, offset, &kind) ||
        !ReadScalar(payload, offset, &sales)) {
      return CorruptError(path, "undecodable AGGR model sales");
    }
    NIMBUS_ASSIGN_OR_RETURN(const ml::ModelKind model, DecodeModelKind(kind));
    state->sales_by_model[model] = sales;
  }
  if (!ReadScalar(payload, offset, &n)) {
    return CorruptError(path, "undecodable AGGR section");
  }
  for (uint32_t i = 0; i < n; ++i) {
    double inverse_ncp = 0.0;
    int64_t count = 0;
    if (!ReadScalar(payload, offset, &inverse_ncp) ||
        !ReadScalar(payload, offset, &count)) {
      return CorruptError(path, "undecodable AGGR price point");
    }
    state->sales_per_price_point[inverse_ncp] = count;
  }
  if (!ReadScalar(payload, offset, &n)) {
    return CorruptError(path, "undecodable AGGR section");
  }
  for (uint32_t i = 0; i < n; ++i) {
    std::string buyer;
    double spend = 0.0;
    if (!ReadString(payload, offset, &buyer) ||
        !ReadScalar(payload, offset, &spend)) {
      return CorruptError(path, "undecodable AGGR buyer spend");
    }
    state->spend_by_buyer[buyer] = spend;
  }
  if (offset != payload.size()) {
    return CorruptError(path, "trailing bytes in AGGR section");
  }
  return OkStatus();
}

std::string EncodeColl(const State& state) {
  std::string out;
  AppendScalar(out, static_cast<uint32_t>(state.monitors.size()));
  for (const auto& [kind, monitor] : state.monitors) {
    AppendScalar(out, static_cast<uint8_t>(kind));
    AppendScalar(out, static_cast<uint32_t>(monitor.buyers.size()));
    for (const auto& [buyer, history] : monitor.buyers) {
      AppendString(out, buyer);
      AppendScalar(out, static_cast<int32_t>(history.purchases));
      AppendScalar(out, history.combined_inverse_ncp);
      AppendScalar(out, history.total_paid);
    }
  }
  return out;
}

Status DecodeColl(const std::string& path, const std::string& payload,
                  State* state) {
  size_t offset = 0;
  uint32_t n_models = 0;
  if (!ReadScalar(payload, offset, &n_models)) {
    return CorruptError(path, "undecodable COLL section");
  }
  for (uint32_t m = 0; m < n_models; ++m) {
    uint8_t kind = 0;
    uint32_t n_buyers = 0;
    if (!ReadScalar(payload, offset, &kind) ||
        !ReadScalar(payload, offset, &n_buyers)) {
      return CorruptError(path, "undecodable COLL monitor header");
    }
    NIMBUS_ASSIGN_OR_RETURN(const ml::ModelKind model, DecodeModelKind(kind));
    MonitorState& monitor = state->monitors[model];
    for (uint32_t b = 0; b < n_buyers; ++b) {
      std::string buyer;
      int32_t purchases = 0;
      BuyerHistoryState history;
      if (!ReadString(payload, offset, &buyer) ||
          !ReadScalar(payload, offset, &purchases) ||
          !ReadScalar(payload, offset, &history.combined_inverse_ncp) ||
          !ReadScalar(payload, offset, &history.total_paid)) {
        return CorruptError(path, "undecodable COLL buyer history");
      }
      history.purchases = purchases;
      monitor.buyers.emplace(std::move(buyer), history);
    }
  }
  if (offset != payload.size()) {
    return CorruptError(path, "trailing bytes in COLL section");
  }
  return OkStatus();
}

StatusOr<std::vector<LedgerEntry>> DecodeLedg(const std::string& path,
                                              const std::string& payload) {
  size_t offset = 0;
  int64_t count = 0;
  if (!ReadScalar(payload, offset, &count) || count < 0) {
    return CorruptError(path, "undecodable LEDG section");
  }
  std::vector<LedgerEntry> entries;
  entries.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    std::string record;
    if (!ReadString(payload, offset, &record)) {
      return CorruptError(path, "truncated LEDG record " + std::to_string(i));
    }
    StatusOr<LedgerEntry> entry = Journal::DecodePayload(record);
    if (!entry.ok()) {
      return CorruptError(path, "undecodable LEDG record " + std::to_string(i) +
                                    ": " + entry.status().message());
    }
    entries.push_back(*std::move(entry));
  }
  if (offset != payload.size()) {
    return CorruptError(path, "trailing bytes in LEDG section");
  }
  return entries;
}

// ----- File plumbing -------------------------------------------------------

struct SectionHeader {
  uint32_t tag = 0;
  uint32_t flags = 0;
  uint64_t payload_len = 0;
  uint32_t payload_crc = 0;
};

void AppendSection(std::string& out, uint32_t tag, const std::string& payload) {
  AppendScalar(out, tag);
  AppendScalar(out, uint32_t{0});  // flags
  AppendScalar(out, static_cast<uint64_t>(payload.size()));
  AppendScalar(out, Journal::Crc32(payload.data(), payload.size()));
  AppendRaw(out, payload.data(), payload.size());
}

std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) {
    return ".";
  }
  if (slash == 0) {
    return "/";
  }
  return path.substr(0, slash);
}

std::string BaseName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

// Makes the rename of a freshly committed file itself durable.
Status SyncParentDir(const std::string& path) {
  const int fd = ::open(DirName(path).c_str(), O_RDONLY);
  if (fd < 0) {
    return InternalError("cannot open parent directory of '" + path +
                         "' for fsync");
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return InternalError("cannot fsync parent directory of '" + path + "'");
  }
  return OkStatus();
}

StatusOr<std::string> ReadFileBytes(const std::string& path) {
  FAULT_POINT("io.read");
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return NotFoundError("cannot open '" + path + "'");
  }
  std::ostringstream content;
  content << file.rdbuf();
  if (!file.good() && !file.eof()) {
    return InternalError("read error on '" + path + "'");
  }
  return std::move(content).str();
}

// Commits `bytes` to `path` atomically. On a `snapshot.write` fault only
// the first half of the image reaches the temp file — the on-disk
// artifact a SIGKILL mid-write leaves behind — before the injected error
// is surfaced.
Status CommitBytes(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    return InternalError("cannot open '" + tmp + "' for writing");
  }
  size_t to_write = bytes.size();
  Status injected = OkStatus();
  const fault::Injection inject = fault::Check("snapshot.write");
  if (inject.fire) {
    to_write = bytes.size() / 2;
    // kEnospc shapes the error like a real full disk; either way only
    // half the image reaches the temp file.
    injected = inject.mode == fault::Mode::kEnospc
                   ? InternalError("short write to '" + tmp +
                                   "': No space left on device (injected)")
                   : InternalError("fault injected at 'snapshot.write'");
  }
  if (std::fwrite(bytes.data(), 1, to_write, file) != to_write) {
    std::fclose(file);
    return InternalError("short write to '" + tmp + "'");
  }
  if (!injected.ok()) {
    std::fflush(file);
    std::fclose(file);
    return injected;
  }
  if (std::fflush(file) != 0) {
    std::fclose(file);
    return InternalError("fflush failed on '" + tmp + "'");
  }
  const auto fail_fsync = [&file, &tmp]() -> Status {
    std::fclose(file);
    return InternalError("fsync failed on '" + tmp + "'");
  };
  if (fault::ShouldFail("snapshot.fsync")) {
    std::fclose(file);
    return InternalError("fault injected at 'snapshot.fsync'");
  }
  if (::fsync(fileno(file)) != 0) {
    return fail_fsync();
  }
  if (std::fclose(file) != 0) {
    return InternalError("fclose failed on '" + tmp + "'");
  }
  FAULT_POINT("snapshot.rename");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return InternalError("cannot rename '" + tmp + "' over '" + path + "'");
  }
  return SyncParentDir(path);
}

}  // namespace

std::string SnapshotPath(const std::string& journal_path, int64_t generation) {
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".snap.%06lld",
                static_cast<long long>(generation));
  return journal_path + suffix;
}

std::string ManifestPath(const std::string& journal_path) {
  return journal_path + ".manifest";
}

StatusOr<int64_t> Write(const std::string& path, const State& state) {
  std::string image;
  AppendRaw(image, kMagic, sizeof(kMagic));
  std::string footer;
  AppendScalar(footer, static_cast<uint32_t>(std::size(kBodyTags)));
  for (const uint32_t tag : kBodyTags) {
    std::string payload;
    switch (tag) {
      case kTagMeta:
        payload = EncodeMeta(state);
        break;
      case kTagAggr:
        payload = EncodeAggr(state);
        break;
      case kTagColl:
        payload = EncodeColl(state);
        break;
    }
    AppendScalar(footer, tag);
    AppendScalar(footer, static_cast<uint64_t>(image.size()));
    AppendScalar(footer, static_cast<uint64_t>(payload.size()));
    AppendScalar(footer, Journal::Crc32(payload.data(), payload.size()));
    AppendSection(image, tag, payload);
  }
  AppendSection(image, kTagFoot, footer);
  NIMBUS_RETURN_IF_ERROR(CommitBytes(path, image));
  return static_cast<int64_t>(image.size());
}

StatusOr<State> Read(const std::string& path) {
  NIMBUS_ASSIGN_OR_RETURN(const std::string bytes, ReadFileBytes(path));
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return CorruptError(path, "missing snapshot magic");
  }
  State state;
  size_t offset = sizeof(kMagic);
  size_t body_index = 0;
  // META comes first in every version; decoding it selects the layout.
  std::span<const uint32_t> body_tags = kBodyTags;
  // Observed headers of the body sections, cross-checked against FOOT.
  struct Observed {
    uint64_t offset = 0;
    SectionHeader header;
  };
  Observed observed[kMaxBodySections];
  bool saw_footer = false;
  while (offset < bytes.size()) {
    const uint64_t section_offset = offset;
    SectionHeader header;
    if (!ReadScalar(bytes, offset, &header.tag) ||
        !ReadScalar(bytes, offset, &header.flags) ||
        !ReadScalar(bytes, offset, &header.payload_len) ||
        !ReadScalar(bytes, offset, &header.payload_crc)) {
      return CorruptError(path, "truncated section header at byte " +
                                    std::to_string(section_offset));
    }
    if (header.flags != 0) {
      return CorruptError(path, "unsupported section flags");
    }
    if (header.payload_len > bytes.size() - offset) {
      return CorruptError(path, "truncated section payload at byte " +
                                    std::to_string(section_offset));
    }
    if (header.tag == kTagFoot) {
      if (body_index != body_tags.size()) {
        return CorruptError(path, "footer before all body sections");
      }
      const std::string payload =
          bytes.substr(offset, static_cast<size_t>(header.payload_len));
      offset += static_cast<size_t>(header.payload_len);
      if (Journal::Crc32(payload.data(), payload.size()) !=
          header.payload_crc) {
        return CorruptError(path, "footer CRC mismatch");
      }
      size_t cursor = 0;
      uint32_t n_sections = 0;
      if (!ReadScalar(payload, cursor, &n_sections) ||
          n_sections != body_tags.size()) {
        return CorruptError(path, "footer section count mismatch");
      }
      for (size_t i = 0; i < body_tags.size(); ++i) {
        uint32_t tag = 0;
        uint64_t section_off = 0;
        uint64_t len = 0;
        uint32_t crc = 0;
        if (!ReadScalar(payload, cursor, &tag) ||
            !ReadScalar(payload, cursor, &section_off) ||
            !ReadScalar(payload, cursor, &len) ||
            !ReadScalar(payload, cursor, &crc)) {
          return CorruptError(path, "undecodable footer table");
        }
        if (tag != observed[i].header.tag ||
            section_off != observed[i].offset ||
            len != observed[i].header.payload_len ||
            crc != observed[i].header.payload_crc) {
          return CorruptError(path,
                              "footer disagrees with section " +
                                  std::to_string(i) +
                                  " (torn write or header corruption)");
        }
      }
      if (cursor != payload.size()) {
        return CorruptError(path, "trailing bytes in footer");
      }
      saw_footer = true;
      continue;
    }
    if (saw_footer) {
      return CorruptError(path, "section after footer");
    }
    if (body_index >= body_tags.size() || header.tag != body_tags[body_index]) {
      return CorruptError(path, "unexpected section order");
    }
    observed[body_index] = Observed{section_offset, header};
    const std::string payload =
        bytes.substr(offset, static_cast<size_t>(header.payload_len));
    offset += static_cast<size_t>(header.payload_len);
    if (Journal::Crc32(payload.data(), payload.size()) != header.payload_crc) {
      return CorruptError(path, "section CRC mismatch at byte " +
                                    std::to_string(section_offset));
    }
    switch (header.tag) {
      case kTagMeta:
        NIMBUS_RETURN_IF_ERROR(DecodeMeta(path, payload, &state));
        if (state.version == 1) {
          body_tags = kBodyTagsV1;
        } else if (state.version == 2) {
          body_tags = kBodyTagsV2;
        }
        break;
      case kTagAggr:
        NIMBUS_RETURN_IF_ERROR(DecodeAggr(path, payload, &state));
        break;
      case kTagColl:
        NIMBUS_RETURN_IF_ERROR(DecodeColl(path, payload, &state));
        break;
      case kTagBrkr:  // Version 1 only: CRC-checked above, then dropped.
        break;
      case kTagLedg:  // Versions 1 and 2 only.
        NIMBUS_ASSIGN_OR_RETURN(state.entries, DecodeLedg(path, payload));
        if (static_cast<int64_t>(state.entries.size()) != state.sequence) {
          return CorruptError(path,
                              "LEDG entry count disagrees with META sequence");
        }
        break;
    }
    ++body_index;
  }
  if (!saw_footer || offset != bytes.size()) {
    return CorruptError(path, "truncated snapshot (no footer)");
  }
  return state;
}

Status WriteManifest(const std::string& journal_path, const Manifest& m) {
  std::ostringstream body;
  body << kManifestMagic << '\n'
       << "generation " << m.generation << '\n'
       << "sequence " << m.sequence << '\n'
       << "prev_generation " << m.prev_generation << '\n'
       << "prev_sequence " << m.prev_sequence << '\n';
  const std::string text = body.str();
  std::ostringstream out;
  out << text << "crc " << Journal::Crc32(text.data(), text.size()) << '\n';
  // Re-uses the snapshot commit path (and so shares its fault points:
  // a manifest "crash" mid-write is drilled the same way).
  return CommitBytes(ManifestPath(journal_path), out.str());
}

StatusOr<Manifest> ReadManifest(const std::string& journal_path) {
  const std::string path = ManifestPath(journal_path);
  NIMBUS_ASSIGN_OR_RETURN(const std::string bytes, ReadFileBytes(path));
  const size_t crc_pos = bytes.rfind("crc ");
  if (crc_pos == std::string::npos || crc_pos == 0) {
    return InternalError("manifest '" + path + "' has no CRC trailer");
  }
  const std::string body = bytes.substr(0, crc_pos);
  const uint32_t stored = static_cast<uint32_t>(
      std::strtoul(bytes.c_str() + crc_pos + 4, nullptr, 10));
  if (Journal::Crc32(body.data(), body.size()) != stored) {
    return InternalError("manifest '" + path + "' fails its CRC");
  }
  std::istringstream in(body);
  std::string magic;
  std::getline(in, magic);
  if (magic != kManifestMagic) {
    return InternalError("'" + path + "' is not a nimbus manifest");
  }
  Manifest m;
  std::string key;
  int64_t value = 0;
  while (in >> key >> value) {
    if (key == "generation") {
      m.generation = value;
    } else if (key == "sequence") {
      m.sequence = value;
    } else if (key == "prev_generation") {
      m.prev_generation = value;
    } else if (key == "prev_sequence") {
      m.prev_sequence = value;
    } else {
      return InternalError("manifest '" + path + "' has unknown key '" + key +
                           "'");
    }
  }
  if (m.generation <= 0) {
    return InternalError("manifest '" + path + "' advertises no generation");
  }
  return m;
}

std::vector<int64_t> ListGenerations(const std::string& journal_path) {
  std::vector<int64_t> generations;
  StatusOr<Manifest> manifest = ReadManifest(journal_path);
  if (manifest.ok()) {
    generations.push_back(manifest->generation);
    if (manifest->prev_generation > 0) {
      generations.push_back(manifest->prev_generation);
    }
  }
  // Directory scan: catches generations newer than a stale manifest
  // (crash between snapshot rename and manifest update) and survives a
  // lost manifest entirely.
  const std::string prefix = BaseName(journal_path) + ".snap.";
  if (DIR* dir = ::opendir(DirName(journal_path).c_str())) {
    while (const dirent* entry = ::readdir(dir)) {
      const std::string name = entry->d_name;
      if (name.rfind(prefix, 0) != 0 || name.size() <= prefix.size()) {
        continue;
      }
      const std::string digits = name.substr(prefix.size());
      if (digits.find_first_not_of("0123456789") != std::string::npos) {
        continue;  // Skips .tmp leftovers from a crashed write.
      }
      const int64_t gen = std::strtoll(digits.c_str(), nullptr, 10);
      if (gen > 0) {
        generations.push_back(gen);
      }
    }
    ::closedir(dir);
  }
  std::sort(generations.rbegin(), generations.rend());
  generations.erase(std::unique(generations.begin(), generations.end()),
                    generations.end());
  return generations;
}

}  // namespace nimbus::market::snapshot
