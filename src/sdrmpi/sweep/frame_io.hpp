// Length-prefixed result frames over raw fds — the wire format of the
// warm-prefix fork runner (warm.cpp) and the TCP remote-worker transport
// (transport.hpp / remote.hpp).
//
// Frame layout (little-endian, host-order independent):
//   [u8 kind][u64 point id][u32 payload length][payload bytes]
// kind 0 carries a serialized RunResult (result_codec.hpp), kinds 1/2
// carry an error message (invalid config / runtime error); the remote
// worker protocol layers further kinds on top (remote.hpp).
//
// All loops are EINTR-safe and tolerate arbitrarily short transfers —
// on TCP sockets partial reads/writes are the norm, not the exception, so
// every primitive loops until the full count moved or the stream died.
// A failure is just `false`: on a socket transport any failed read or
// write means the peer is lost, and the scheduler re-dispatches its
// leases (a vanished peer is EPIPE, never SIGPIPE death — see
// transport.hpp's ignore_sigpipe()). The child side must stay on raw
// fds (a forked copy of the parent's stdio buffers must never be flushed
// twice).
#pragma once

#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace sdrmpi::sweep::frame {

inline constexpr std::uint8_t kFrameResult = 0;
inline constexpr std::uint8_t kFrameInvalidConfig = 1;
inline constexpr std::uint8_t kFrameRuntimeError = 2;

/// Largest payload the u32 length field can carry. A longer payload must
/// be rejected, never cast down: truncating the length tears the stream
/// for every frame that follows. Note this bounds what the *format* can
/// express, not what a reader should accept: frames whose kind implies a
/// small payload (handshake, heartbeats, work requests) are capped far
/// lower by the remote protocol (remote.cpp's kMaxControlPayload) so a
/// hostile header cannot make a reader thread allocate 4 GiB.
inline constexpr std::size_t kMaxFramePayload = 0xffffffffu;

inline bool write_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    // A zero or short write is legal on sockets; just keep going with
    // whatever the kernel accepted.
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

inline bool read_all(int fd, void* data, std::size_t n) {
  auto* p = static_cast<unsigned char*>(data);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;  // EOF
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

/// Writes one frame. A payload longer than kMaxFramePayload is NOT
/// truncated: the frame is replaced by a kFrameRuntimeError frame for the
/// same point id naming the oversize, so the stream stays intact and the
/// point surfaces as an explicit error instead of a torn store.
inline bool write_frame(int fd, std::uint8_t kind, std::uint64_t id,
                        const void* payload, std::size_t len) {
  if (len > kMaxFramePayload) {
    char msg[96];
    std::snprintf(msg, sizeof msg,
                  "sweep worker: encoded result of %llu bytes exceeds the "
                  "4 GiB frame limit",
                  static_cast<unsigned long long>(len));
    return write_frame(fd, kFrameRuntimeError, id, msg, std::strlen(msg));
  }
  unsigned char header[13];
  header[0] = kind;
  for (int i = 0; i < 8; ++i) {
    header[1 + i] = static_cast<unsigned char>(id >> (8 * i));
  }
  for (int i = 0; i < 4; ++i) {
    header[9 + i] = static_cast<unsigned char>(
        static_cast<std::uint32_t>(len) >> (8 * i));
  }
  if (!write_all(fd, header, sizeof header)) return false;
  return len == 0 || write_all(fd, payload, len);
}

struct FrameHeader {
  std::uint8_t kind = 0;
  std::uint64_t id = 0;
  std::uint32_t len = 0;
};

/// Reads one frame header; false on EOF (clean or mid-header) or error.
inline bool read_frame_header(int fd, FrameHeader& out) {
  unsigned char header[13];
  if (!read_all(fd, header, sizeof header)) return false;
  out.kind = header[0];
  out.id = 0;
  for (int i = 0; i < 8; ++i) {
    out.id |= std::uint64_t{header[1 + i]} << (8 * i);
  }
  out.len = 0;
  for (int i = 0; i < 4; ++i) {
    out.len |= std::uint32_t{header[9 + i]} << (8 * i);
  }
  return true;
}

}  // namespace sdrmpi::sweep::frame
