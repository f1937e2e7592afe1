// Forked-child measurement: every simulation the benchmark times runs in its
// own child process, and the parent reads the child's resource usage from
// wait4(). User, sys, page-fault and peak-RSS figures therefore belong to
// exactly one run, whatever else the host or the parent does.
#pragma once

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstddef>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sdrmpi/sweep/result_codec.hpp"

namespace hostbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// What the parent learns about one finished child.
struct ChildRun {
  double wall_s = 0.0;  ///< fork to reap, measured by the parent
  double user_s = 0.0;
  double sys_s = 0.0;
  double maxrss_mb = 0.0;
  long minflt = 0;
  long nvcsw = 0;
  long nivcsw = 0;
  std::vector<std::byte> reply;  ///< bytes the child wrote
};

/// Runs `body(start, out)` in a forked child. `start` is the child's first
/// instant after fork (setup times are taken from it); `out`, the sweep
/// codec's ByteWriter, collects the reply the parent receives. Throws
/// std::runtime_error when the child fails (exception, signal or non-zero
/// exit).
template <class Body>
ChildRun run_child(Body&& body) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("hostbench: pipe failed");
  std::cout.flush();
  std::cerr.flush();
  const auto t0 = Clock::now();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("hostbench: fork failed");
  if (pid == 0) {
    const auto start = Clock::now();
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    close(fds[0]);
    int code = 0;
    try {
      sdrmpi::sweep::ByteWriter out;
      body(start, out);
      const auto& bytes = out.bytes();
      std::size_t off = 0;
      while (off < bytes.size()) {
        const ssize_t n = write(fds[1], bytes.data() + off, bytes.size() - off);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
          code = 3;
          break;
        }
        off += static_cast<std::size_t>(n);
      }
    } catch (const std::exception& e) {
      std::cerr << "hostbench child: " << e.what() << "\n";
      code = 2;
    }
    std::cerr.flush();
    _exit(code);
  }
  close(fds[1]);
  ChildRun run;
  std::byte buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    run.reply.insert(run.reply.end(), buf, buf + n);
  }
  close(fds[0]);
  int status = 0;
  struct rusage ru {};
  while (wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) throw std::runtime_error("hostbench: wait4 failed");
  }
  run.wall_s = seconds_since(t0);
  if (WIFSIGNALED(status)) {
    throw std::runtime_error("hostbench: child killed by signal " +
                             std::to_string(WTERMSIG(status)));
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("hostbench: child exited with status " +
                             std::to_string(WEXITSTATUS(status)));
  }
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  run.user_s = secs(ru.ru_utime);
  run.sys_s = secs(ru.ru_stime);
  run.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB on Linux
  run.minflt = ru.ru_minflt;
  run.nvcsw = ru.ru_nvcsw;
  run.nivcsw = ru.ru_nivcsw;
  return run;
}

}  // namespace hostbench
