#include "octgb/util/io.hpp"

#include <cerrno>
#include <cstdio>

#include <fcntl.h>
#include <unistd.h>

#include "octgb/util/strings.hpp"

namespace octgb::util::io {

std::string IoError::describe() const {
  if (status == IoStatus::Eof)
    return format("eof after %zu of %zu bytes", done, want);
  return format("io error (errno %d) after %zu of %zu bytes", errno_value,
                done, want);
}

IoResult read_exact(int fd, void* data, std::size_t bytes) {
  auto* p = static_cast<std::uint8_t*>(data);
  std::size_t done = 0;
  while (done < bytes) {
    const ssize_t n = ::read(fd, p + done, bytes - done);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0)
      return IoResult::failure({IoStatus::Eof, 0, done, bytes});
    if (errno == EINTR) continue;
    return IoResult::failure({IoStatus::Error, errno, done, bytes});
  }
  return IoResult::success({});
}

IoResult write_exact(int fd, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::size_t done = 0;
  while (done < bytes) {
    const ssize_t n = ::write(fd, p + done, bytes - done);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    // write() returning 0 for a nonzero count is theoretically possible
    // on weird fds; treat it as Eof rather than spinning forever.
    if (n == 0) return IoResult::failure({IoStatus::Eof, 0, done, bytes});
    if (errno == EINTR) continue;
    return IoResult::failure({IoStatus::Error, errno, done, bytes});
  }
  return IoResult::success({});
}

bool read_file(const std::string& path, std::string& out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  out.clear();
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) break;
    if (errno == EINTR) continue;
    ::close(fd);
    return false;
  }
  ::close(fd);
  return true;
}

bool write_file_atomic(const std::string& path, std::string_view bytes) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long long>(::getpid()));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const IoResult w = write_exact(fd, bytes.data(), bytes.size());
  ::close(fd);
  if (!w) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace octgb::util::io
