#ifndef NIMBUS_MARKET_DISK_IO_H_
#define NIMBUS_MARKET_DISK_IO_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault.h"
#include "common/statusor.h"
#include "ml/model.h"

namespace nimbus::market::disk {

// The file primitives and the byte codec shared by everything the
// marketplace keeps on disk — journal segments, snapshots, the manifest
// and the legacy-format upgrader: one whole-file read, one synced write,
// one durable rename, one directory listing, and one way to lay out and
// read back scalars and strings.

// ----- Byte codec: native little-endian scalars, u32-length-prefixed
// strings.

template <typename T>
void AppendScalar(std::string& out, T value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(value));
}

inline void AppendString(std::string& out, std::string_view s) {
  AppendScalar(out, static_cast<uint32_t>(s.size()));
  out.append(s);
}

// Reads back what the Append functions wrote. A read past the end
// returns a zero value (an empty view) and fails the reader, and every
// later read fails too, so a decoder can read a whole layout and check
// ok() or done() once.
class Reader {
 public:
  explicit Reader(std::string_view in) : in_(in) {}

  template <typename T>
  T Read() {
    T value{};
    const std::string_view bytes = ReadBytes(sizeof(T));
    if (ok_) {
      std::memcpy(&value, bytes.data(), sizeof(T));
    }
    return value;
  }
  std::string_view ReadBytes(size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return {};
    }
    const char* start = in_.data() + offset_;
    offset_ += n;
    return std::string_view(start, n);
  }
  std::string_view ReadString() { return ReadBytes(Read<uint32_t>()); }

  bool ok() const { return ok_; }
  // Every read succeeded and the input is used up exactly.
  bool done() const { return ok_ && offset_ == in_.size(); }
  size_t offset() const { return offset_; }
  size_t remaining() const { return in_.size() - offset_; }

 private:
  std::string_view in_;
  size_t offset_ = 0;
  bool ok_ = true;
};

// A model kind stored as one byte; kInvalidArgument for a byte that
// names no kind. Inline: journal replay decodes one per record.
inline StatusOr<ml::ModelKind> ModelKindFromByte(uint8_t byte) {
  switch (static_cast<ml::ModelKind>(byte)) {
    case ml::ModelKind::kLinearRegression:
    case ml::ModelKind::kLogisticRegression:
    case ml::ModelKind::kLinearSvm:
    case ml::ModelKind::kPoissonRegression:
      return static_cast<ml::ModelKind>(byte);
  }
  return InvalidArgumentError("unknown model kind " + std::to_string(byte));
}

// ----- Files

bool FileExists(const std::string& path);

// Reads `path`, or at most its first `max_bytes` bytes. kNotFound when
// it cannot be opened. Fault point: `io.read`.
StatusOr<std::string> ReadFile(
    const std::string& path,
    size_t max_bytes = std::numeric_limits<size_t>::max());

// Writes `bytes` to `path` (created or truncated) and fsyncs it. A fired
// `inject` (consulted by the caller at fault point `point`) lands only
// the first half before failing — the artifact a crash or a full disk
// mid-write leaves; its kEnospc mode words the error like a full disk.
Status WriteSynced(const std::string& path, std::string_view bytes,
                   fault::Injection inject = {}, const char* point = "");

// fsyncs the directory holding `path`, making a rename there durable.
Status SyncParentDir(const std::string& path);

// Renames `from` over `to` and fsyncs the directory.
Status RenameSynced(const std::string& from, const std::string& to);

// Commits `bytes` to `path` atomically: WriteSynced to `path + ".tmp"`,
// then RenameSynced over `path`. A crash leaves the old file or the new
// one, never a torn `path`.
Status CommitFile(const std::string& path, std::string_view bytes);

// `path` and every `path + ".*"` sibling in its directory, as paths: the
// files a journal and its checkpoints leave on disk.
std::vector<std::string> ListFamily(const std::string& path);

// N for every `<path><infix>N` file whose N is all digits (temp-file
// leftovers never are), ascending.
std::vector<int64_t> NumberedSiblings(const std::string& path,
                                      const std::string& infix);

}  // namespace nimbus::market::disk

#endif  // NIMBUS_MARKET_DISK_IO_H_
