#include "market/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "common/fault.h"
#include "market/disk_io.h"
#include "market/journal.h"

namespace nimbus::market::snapshot {
namespace {

constexpr char kMagic[8] = {'N', 'I', 'M', 'B', 'U', 'S', 'S', '1'};
constexpr char kManifestMagic[] = "NIMBUSM1";
constexpr uint32_t kFormatVersion = 3;

constexpr uint32_t kTagMeta = FourCc('M', 'E', 'T', 'A');
constexpr uint32_t kTagAggr = FourCc('A', 'G', 'G', 'R');
constexpr uint32_t kTagColl = FourCc('C', 'O', 'L', 'L');
constexpr uint32_t kTagFoot = FourCc('F', 'O', 'O', 'T');

using disk::AppendScalar;
using disk::AppendString;

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
                  State* state, uint32_t* version) {
  disk::Reader in(payload);
  *version = in.Read<uint32_t>();
  state->generation = in.Read<int64_t>();
  state->sequence = in.Read<int64_t>();
  if (!in.done()) {
    return CorruptError(path, "undecodable META section");
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

// Each loop stops at the first failed read; done() then rejects.
Status DecodeAggr(const std::string& path, const std::string& payload,
                  State* state) {
  disk::Reader in(payload);
  state->total_revenue = in.Read<double>();
  for (uint32_t i = 0, n = in.Read<uint32_t>(); in.ok() && i < n; ++i) {
    NIMBUS_ASSIGN_OR_RETURN(const ml::ModelKind model,
                            disk::ModelKindFromByte(in.Read<uint8_t>()));
    state->revenue_by_model[model] = in.Read<double>();
  }
  for (uint32_t i = 0, n = in.Read<uint32_t>(); in.ok() && i < n; ++i) {
    NIMBUS_ASSIGN_OR_RETURN(const ml::ModelKind model,
                            disk::ModelKindFromByte(in.Read<uint8_t>()));
    state->sales_by_model[model] = in.Read<int64_t>();
  }
  for (uint32_t i = 0, n = in.Read<uint32_t>(); in.ok() && i < n; ++i) {
    const double inverse_ncp = in.Read<double>();
    state->sales_per_price_point[inverse_ncp] = in.Read<int64_t>();
  }
  for (uint32_t i = 0, n = in.Read<uint32_t>(); in.ok() && i < n; ++i) {
    std::string buyer(in.ReadString());
    state->spend_by_buyer[std::move(buyer)] = in.Read<double>();
  }
  if (!in.done()) {
    return CorruptError(path, "undecodable AGGR section");
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
  disk::Reader in(payload);
  for (uint32_t m = 0, n = in.Read<uint32_t>(); in.ok() && m < n; ++m) {
    NIMBUS_ASSIGN_OR_RETURN(const ml::ModelKind model,
                            disk::ModelKindFromByte(in.Read<uint8_t>()));
    MonitorState& monitor = state->monitors[model];
    for (uint32_t b = 0, n_buyers = in.Read<uint32_t>();
         in.ok() && b < n_buyers; ++b) {
      std::string buyer(in.ReadString());
      BuyerHistoryState history;
      history.purchases = in.Read<int32_t>();
      history.combined_inverse_ncp = in.Read<double>();
      history.total_paid = in.Read<double>();
      monitor.buyers.emplace(std::move(buyer), history);
    }
  }
  if (!in.done()) {
    return CorruptError(path, "undecodable COLL section");
  }
  return OkStatus();
}

void AppendSection(std::string& out, uint32_t tag, const std::string& payload) {
  AppendScalar(out, tag);
  AppendScalar(out, uint32_t{0});  // flags
  AppendScalar(out, static_cast<uint64_t>(payload.size()));
  AppendScalar(out, Journal::Crc32(payload.data(), payload.size()));
  out += payload;
}

// Commits `bytes` to `path` atomically. On a `snapshot.write` fault only
// the first half of the image reaches the temp file — the on-disk
// artifact a SIGKILL mid-write leaves behind — before the injected error
// is surfaced.
Status CommitBytes(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  NIMBUS_RETURN_IF_ERROR(disk::WriteSynced(
      tmp, bytes, fault::Check("snapshot.write"), "snapshot.write"));
  FAULT_POINT("snapshot.fsync");
  FAULT_POINT("snapshot.rename");
  return disk::RenameSynced(tmp, path);
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
  const Section body[] = {{kTagMeta, EncodeMeta(state)},
                          {kTagAggr, EncodeAggr(state)},
                          {kTagColl, EncodeColl(state)}};
  std::string image(kMagic, sizeof(kMagic));
  std::string footer;
  AppendScalar(footer, static_cast<uint32_t>(std::size(body)));
  for (const Section& section : body) {
    AppendScalar(footer, section.tag);
    AppendScalar(footer, static_cast<uint64_t>(image.size()));
    AppendScalar(footer, static_cast<uint64_t>(section.payload.size()));
    AppendScalar(footer, Journal::Crc32(section.payload.data(),
                                        section.payload.size()));
    AppendSection(image, section.tag, section.payload);
  }
  AppendSection(image, kTagFoot, footer);
  NIMBUS_RETURN_IF_ERROR(CommitBytes(path, image));
  return static_cast<int64_t>(image.size());
}

StatusOr<std::vector<Section>> ReadSections(const std::string& path) {
  NIMBUS_ASSIGN_OR_RETURN(const std::string bytes, disk::ReadFile(path));
  disk::Reader in(bytes);
  if (in.ReadBytes(sizeof(kMagic)) != std::string_view(kMagic, sizeof(kMagic))) {
    return CorruptError(path, "missing snapshot magic");
  }
  std::vector<Section> sections;
  // Where each section's header sat and what it said, for the
  // cross-check against FOOT's table.
  struct Observed {
    uint64_t offset = 0;
    uint64_t len = 0;
    uint32_t crc = 0;
  };
  std::vector<Observed> observed;
  while (in.remaining() > 0) {
    const uint64_t offset = in.offset();
    const uint32_t tag = in.Read<uint32_t>();
    const uint32_t flags = in.Read<uint32_t>();
    const uint64_t len = in.Read<uint64_t>();
    const uint32_t crc = in.Read<uint32_t>();
    if (!in.ok()) {
      return CorruptError(path, "truncated section header at byte " +
                                    std::to_string(offset));
    }
    if (flags != 0) {
      return CorruptError(path, "unsupported section flags");
    }
    if (len > in.remaining()) {
      return CorruptError(path, "truncated section payload at byte " +
                                    std::to_string(offset));
    }
    const std::string_view payload = in.ReadBytes(len);
    if (Journal::Crc32(payload.data(), payload.size()) != crc) {
      return CorruptError(path, "section CRC mismatch at byte " +
                                    std::to_string(offset));
    }
    if (tag != kTagFoot) {
      observed.push_back(Observed{offset, len, crc});
      sections.push_back(Section{tag, std::string(payload)});
      continue;
    }
    // FOOT ends the file and indexes every section before it.
    disk::Reader table(payload);
    if (table.Read<uint32_t>() != sections.size()) {
      return CorruptError(path, "footer section count mismatch");
    }
    for (size_t i = 0; i < sections.size(); ++i) {
      const uint32_t foot_tag = table.Read<uint32_t>();
      const uint64_t foot_offset = table.Read<uint64_t>();
      const uint64_t foot_len = table.Read<uint64_t>();
      const uint32_t foot_crc = table.Read<uint32_t>();
      if (foot_tag != sections[i].tag || foot_offset != observed[i].offset ||
          foot_len != observed[i].len || foot_crc != observed[i].crc) {
        return CorruptError(path, "footer disagrees with section " +
                                      std::to_string(i) +
                                      " (torn write or header corruption)");
      }
    }
    if (!table.done()) {
      return CorruptError(path, "undecodable footer table");
    }
    if (in.remaining() != 0) {
      return CorruptError(path, "section after footer");
    }
    return sections;
  }
  return CorruptError(path, "truncated snapshot (no footer)");
}

StatusOr<State> DecodeState(const std::string& path,
                            const std::vector<Section>& sections,
                            uint32_t* version) {
  const uint32_t tags[] = {kTagMeta, kTagAggr, kTagColl};
  if (sections.size() < std::size(tags)) {
    return CorruptError(path, "missing body sections");
  }
  for (size_t i = 0; i < std::size(tags); ++i) {
    if (sections[i].tag != tags[i]) {
      return CorruptError(path, "unexpected section order");
    }
  }
  State state;
  NIMBUS_RETURN_IF_ERROR(
      DecodeMeta(path, sections[0].payload, &state, version));
  NIMBUS_RETURN_IF_ERROR(DecodeAggr(path, sections[1].payload, &state));
  NIMBUS_RETURN_IF_ERROR(DecodeColl(path, sections[2].payload, &state));
  return state;
}

StatusOr<State> Read(const std::string& path) {
  NIMBUS_ASSIGN_OR_RETURN(const std::vector<Section> sections,
                          ReadSections(path));
  uint32_t version = 0;
  NIMBUS_ASSIGN_OR_RETURN(State state, DecodeState(path, sections, &version));
  if (version != kFormatVersion || sections.size() != 3) {
    return CorruptError(path, "not a version-3 snapshot (version " +
                                  std::to_string(version) + ", " +
                                  std::to_string(sections.size()) +
                                  " sections)");
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
  NIMBUS_ASSIGN_OR_RETURN(const std::string bytes, disk::ReadFile(path));
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
  for (const int64_t gen : disk::NumberedSiblings(journal_path, ".snap.")) {
    if (gen > 0) {
      generations.push_back(gen);
    }
  }
  std::sort(generations.rbegin(), generations.rend());
  generations.erase(std::unique(generations.begin(), generations.end()),
                    generations.end());
  return generations;
}

}  // namespace nimbus::market::snapshot
