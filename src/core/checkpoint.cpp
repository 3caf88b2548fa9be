#include "octgb/core/checkpoint.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "octgb/util/check.hpp"
#include "octgb/util/io.hpp"
#include "octgb/util/strings.hpp"

namespace octgb::core {

namespace {

// "octgbsck" — distinct from the octree stream magic so a checkpoint can
// never be mistaken for a preprocessed-artifact file.
constexpr char kMagic[8] = {'o', 'c', 't', 'g', 'b', 's', 'c', 'k'};
constexpr std::uint32_t kVersion = 1;
// A phase name or payload longer than this means a corrupt length field,
// not a real checkpoint.
constexpr std::uint64_t kMaxPhaseBytes = 1u << 10;
constexpr std::uint64_t kMaxDataCount = std::uint64_t{1} << 32;

void append_pod(std::string& out, const void* p, std::size_t n) {
  out.append(static_cast<const char*>(p), n);
}

/// Bounds-checked cursor over the encoded bytes; every read either
/// succeeds completely or reports which field was truncated.
struct Cursor {
  std::string_view bytes;
  std::size_t pos = 0;
  std::string error;

  bool take(void* dst, std::size_t n, const char* field) {
    if (!error.empty()) return false;
    if (bytes.size() - pos < n) {
      error = util::format(
          "truncated checkpoint: %s needs %zu bytes at offset %zu, only "
          "%zu remain",
          field, n, pos, bytes.size() - pos);
      return false;
    }
    std::memcpy(dst, bytes.data() + pos, n);
    pos += n;
    return true;
  }
};

}  // namespace

std::string encode_checkpoint(const SuperstepCheckpoint& c) {
  std::string out;
  out.reserve(sizeof(kMagic) + sizeof(kVersion) + 2 * sizeof(std::uint64_t) +
              c.phase.size() + sizeof(std::uint64_t) +
              c.data.size() * sizeof(double));
  append_pod(out, kMagic, sizeof(kMagic));
  append_pod(out, &kVersion, sizeof(kVersion));
  const std::uint64_t phase_len = c.phase.size();
  append_pod(out, &phase_len, sizeof(phase_len));
  out.append(c.phase);
  append_pod(out, &c.task, sizeof(c.task));
  const std::uint64_t count = c.data.size();
  append_pod(out, &count, sizeof(count));
  append_pod(out, c.data.data(), c.data.size() * sizeof(double));
  return out;
}

util::Expected<SuperstepCheckpoint, std::string> decode_checkpoint(
    std::string_view bytes) {
  using Result = util::Expected<SuperstepCheckpoint, std::string>;
  Cursor cur;
  cur.bytes = bytes;
  char magic[8];
  if (!cur.take(magic, sizeof(magic), "magic"))
    return Result::failure(std::move(cur.error));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    return Result::failure("not an octgb checkpoint (bad magic)");
  std::uint32_t version = 0;
  if (!cur.take(&version, sizeof(version), "version"))
    return Result::failure(std::move(cur.error));
  if (version != kVersion)
    return Result::failure(
        util::format("unsupported checkpoint version %u", version));
  std::uint64_t phase_len = 0;
  if (!cur.take(&phase_len, sizeof(phase_len), "phase length"))
    return Result::failure(std::move(cur.error));
  if (phase_len > kMaxPhaseBytes)
    return Result::failure(util::format(
        "implausible checkpoint phase length %llu",
        static_cast<unsigned long long>(phase_len)));
  SuperstepCheckpoint c;
  c.phase.resize(phase_len);
  if (phase_len != 0 &&
      !cur.take(c.phase.data(), phase_len, "phase name"))
    return Result::failure(std::move(cur.error));
  if (!cur.take(&c.task, sizeof(c.task), "task index"))
    return Result::failure(std::move(cur.error));
  std::uint64_t count = 0;
  if (!cur.take(&count, sizeof(count), "payload count"))
    return Result::failure(std::move(cur.error));
  if (count > kMaxDataCount)
    return Result::failure(util::format(
        "implausible checkpoint payload count %llu",
        static_cast<unsigned long long>(count)));
  // The payload length is validated against the actual remaining bytes
  // before any allocation — a lying count cannot trigger a huge resize.
  const std::uint64_t need = count * sizeof(double);
  if (cur.bytes.size() - cur.pos < need)
    return Result::failure(util::format(
        "truncated checkpoint: payload needs %llu bytes, only %zu remain",
        static_cast<unsigned long long>(need), cur.bytes.size() - cur.pos));
  c.data.resize(count);
  if (count != 0 && !cur.take(c.data.data(), need, "payload"))
    return Result::failure(std::move(cur.error));
  for (std::size_t i = 0; i < c.data.size(); ++i)
    if (!std::isfinite(c.data[i]))
      return Result::failure(util::format(
          "checkpoint payload value %zu is non-finite (%g)", i, c.data[i]));
  if (cur.pos != cur.bytes.size())
    return Result::failure(util::format(
        "checkpoint has %zu trailing bytes", cur.bytes.size() - cur.pos));
  return Result::success(std::move(c));
}

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {
  OCTGB_CHECK_MSG(!dir_.empty(), "file-backed store needs a directory");
  if (::mkdir(dir_.c_str(), 0755) != 0)
    OCTGB_CHECK_MSG(errno == EEXIST,
                    "cannot create checkpoint directory " << dir_);
}

std::string CheckpointStore::file_of(const std::string& key) const {
  // Keys are "phase/task"; flatten the separator so each key is one file.
  std::string name = key;
  for (char& c : name)
    if (c == '/') c = '_';
  return dir_ + "/" + name + ".ck";
}

void CheckpointStore::put(const std::string& key, std::string value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dir_.empty()) {
    map_[key] = std::move(value);
  } else {
    OCTGB_CHECK_MSG(util::io::write_file_atomic(file_of(key), value),
                    "checkpoint write failed for " << key);
  }
  ++puts_;
}

std::optional<std::string> CheckpointStore::get(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (dir_.empty()) {
    auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }
  std::string bytes;
  if (!util::io::read_file(file_of(key), bytes)) return std::nullopt;
  return bytes;
}

bool CheckpointStore::contains(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (dir_.empty()) return map_.find(key) != map_.end();
  return ::access(file_of(key).c_str(), F_OK) == 0;
}

void CheckpointStore::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  if (dir_.empty()) {
    map_.clear();
    return;
  }
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() > 3 && name.compare(name.size() - 3, 3, ".ck") == 0)
      std::remove((dir_ + "/" + name).c_str());
  }
  ::closedir(d);
}

std::size_t CheckpointStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (dir_.empty()) return map_.size();
  std::size_t n = 0;
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return 0;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() > 3 && name.compare(name.size() - 3, 3, ".ck") == 0)
      ++n;
  }
  ::closedir(d);
  return n;
}

std::string CheckpointStore::key_of(std::string_view phase,
                                    std::uint64_t task) {
  std::string key(phase);
  key += '/';
  key += std::to_string(task);
  return key;
}

void CheckpointStore::put_checkpoint(const SuperstepCheckpoint& c) {
  put(key_of(c.phase, c.task), encode_checkpoint(c));
}

std::optional<SuperstepCheckpoint> CheckpointStore::get_checkpoint(
    std::string_view phase, std::uint64_t task) const {
  auto raw = get(key_of(phase, task));
  if (!raw) return std::nullopt;
  auto decoded = decode_checkpoint(*raw);
  if (!decoded) return std::nullopt;
  return std::move(decoded.value());
}

std::uint64_t CheckpointStore::puts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return puts_;
}

}  // namespace octgb::core

