#pragma once
/// \file io.hpp
/// Hardened low-level I/O loops shared by the out-of-process mpp transport
/// and the file-backed checkpoint store (DESIGN.md §2.10).
///
/// POSIX read()/write() may transfer fewer bytes than asked (short reads on
/// sockets and pipes are routine, short writes happen under memory
/// pressure) and may fail spuriously with EINTR when a signal lands — the
/// chaos launcher delivers real signals, so the transport hits both paths
/// for real. Every byte-exact transfer in the repo goes through the two
/// loops below instead of re-implementing the retry dance: the TCP frame
/// codec (mpp/transport) and the file-backed checkpoint store (core/checkpoint)
/// both reuse them, so the truncation-sweep hardening applies uniformly.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "octgb/util/expected.hpp"

namespace octgb::util::io {

/// Why a byte-exact transfer stopped early.
enum class IoStatus : std::uint8_t {
  Eof,    ///< clean end of stream / peer close before `want` bytes
  Error,  ///< errno-style failure (never EINTR — those are retried)
};

/// A failed byte-exact transfer: what stopped it and how far it got.
struct IoError {
  IoStatus status = IoStatus::Eof;
  int errno_value = 0;     ///< errno at failure (0 for Eof)
  std::size_t done = 0;    ///< bytes transferred before the failure
  std::size_t want = 0;    ///< bytes requested

  /// Human-readable description ("eof after 12 of 64 bytes", ...).
  std::string describe() const;
};

/// Result of a byte-exact transfer.
using IoResult = Expected<Unit, IoError>;

/// Read exactly `bytes` from `fd`, looping over EINTR and short reads.
/// A clean close mid-buffer reports Eof with the progress made — the
/// caller decides whether a partial frame is truncation or corruption.
IoResult read_exact(int fd, void* data, std::size_t bytes);

/// Write exactly `bytes` to `fd`, looping over EINTR and short writes.
/// EPIPE/ECONNRESET surface as Error with the errno preserved so the
/// transport can map them onto its connection-loss taxonomy.
IoResult write_exact(int fd, const void* data, std::size_t bytes);

/// Read a whole file into `out` (replacing it); false when the file
/// cannot be opened or read. Uses the fd read loop, so a file shrinking
/// mid-read yields a clean failure rather than garbage.
bool read_file(const std::string& path, std::string& out);

/// Atomically replace `path` with `bytes`: write to a sibling temp file
/// (unique per process), fsync-less rename into place. Readers see either
/// the old content or the complete new content, never a torn write — the
/// property the cross-process checkpoint store leans on when a rank is
/// SIGKILLed mid-put. False on any I/O failure (the temp file is removed).
bool write_file_atomic(const std::string& path, std::string_view bytes);

}  // namespace octgb::util::io
