#include "market/disk_io.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace nimbus::market::disk {
namespace {

std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) {
    return ".";
  }
  return slash == 0 ? "/" : path.substr(0, slash);
}

}  // namespace

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

StatusOr<std::string> ReadFile(const std::string& path, size_t max_bytes) {
  FAULT_POINT("io.read");
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return NotFoundError("cannot open '" + path + "'");
  }
  std::string bytes;
  struct stat st;
  if (::fstat(fd, &st) == 0) {
    bytes.resize(std::min(static_cast<size_t>(st.st_size), max_bytes));
  }
  size_t filled = 0;
  while (filled < bytes.size()) {
    const ssize_t n = ::read(fd, bytes.data() + filled, bytes.size() - filled);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0) {
      ::close(fd);
      return InternalError("read error on '" + path + "'");
    }
    if (n == 0) {
      break;  // The file shrank under us: return the shorter file.
    }
    filled += static_cast<size_t>(n);
  }
  ::close(fd);
  bytes.resize(filled);
  return bytes;
}

Status WriteSynced(const std::string& path, std::string_view bytes,
                   fault::Injection inject, const char* point) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) {
    return InternalError("cannot open '" + path + "' for writing");
  }
  const size_t to_write = inject.fire ? bytes.size() / 2 : bytes.size();
  if (std::fwrite(bytes.data(), 1, to_write, out) != to_write ||
      std::fflush(out) != 0 || inject.fire) {
    std::fclose(out);
    if (inject.fire && inject.mode == fault::Mode::kStatus) {
      return InternalError(std::string("fault injected at '") + point + "'");
    }
    return InternalError("short write to '" + path + "'" +
                         (inject.fire ? ": No space left on device (injected)"
                                      : ""));
  }
  if (::fsync(fileno(out)) != 0) {
    std::fclose(out);
    return InternalError("fsync failed on '" + path + "'");
  }
  if (std::fclose(out) != 0) {
    return InternalError("fclose failed on '" + path + "'");
  }
  return OkStatus();
}

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

Status RenameSynced(const std::string& from, const std::string& to) {
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return InternalError("cannot rename '" + from + "' over '" + to + "'");
  }
  return SyncParentDir(to);
}

Status CommitFile(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  NIMBUS_RETURN_IF_ERROR(WriteSynced(tmp, bytes));
  return RenameSynced(tmp, path);
}

std::vector<std::string> ListFamily(const std::string& path) {
  // `prefix` keeps the trailing slash; npos + 1 wraps to 0.
  const size_t slash = path.find_last_of('/');
  const std::string prefix = path.substr(0, slash + 1);
  const std::string name = path.substr(slash + 1);
  std::vector<std::string> files;
  if (DIR* dir = ::opendir(prefix.empty() ? "." : prefix.c_str())) {
    while (const dirent* entry = ::readdir(dir)) {
      const std::string found = entry->d_name;
      if (found == name || found.rfind(name + ".", 0) == 0) {
        files.push_back(prefix + found);
      }
    }
    ::closedir(dir);
  }
  return files;
}

std::vector<int64_t> NumberedSiblings(const std::string& path,
                                      const std::string& infix) {
  const std::string prefix = path + infix;
  std::vector<int64_t> numbers;
  for (const std::string& file : ListFamily(path)) {
    if (file.size() > prefix.size() && file.rfind(prefix, 0) == 0 &&
        file.find_first_not_of("0123456789", prefix.size()) ==
            std::string::npos) {
      numbers.push_back(std::strtoll(file.c_str() + prefix.size(), nullptr,
                                     10));
    }
  }
  std::sort(numbers.begin(), numbers.end());
  return numbers;
}

}  // namespace nimbus::market::disk
