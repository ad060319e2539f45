// Fork-isolated execution of one task with a pipe result channel.
//
// Used by bench/stream_scalability for per-case peak-RSS isolation:
// getrusage is a process-lifetime high watermark, so every measured case
// needs its own process. A task is a callable returning a byte payload; the
// child writes [u64 length][bytes] on its end of the pipe and _exit()s, the
// parent reads the payload back and collects the child's exit status and
// rusage from wait4.
//
// The parent drains the pipe to completion before it reaps: a child whose
// payload exceeds the pipe capacity blocks mid-write until the parent
// reads, so waiting on it first would be the classic pipe-capacity
// deadlock.
//
// Exit-status contract: exit_code() is the child's real _exit code
// (WEXITSTATUS), or 128+signal when the child died on a signal — callers
// that re-exit with it (stream_scalability does) propagate the child's
// failure mode instead of swallowing it in a raw wait status. A task that
// throws exits with kExceptionExit.
#pragma once

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <vector>

#include "util/peak_rss.h"

namespace ccdn {

/// A fork-isolated unit of work: runs in the child, returns the bytes to
/// ship back to the parent.
using ForkTask = std::function<std::vector<std::uint8_t>()>;

struct ForkResult {
  /// The task's returned bytes, as read back from the pipe. Meaningful only
  /// when `complete` is true.
  std::vector<std::uint8_t> payload;
  /// Payload fully received AND child exited 0.
  bool complete = false;
  /// WEXITSTATUS on normal exit, 128+signal on a signal death, -1 when the
  /// child could not be forked or reaped.
  int exit_code = 0;
  /// Child peak RSS (wait4 rusage), MiB.
  double peak_rss_mb = 0.0;
};

/// _exit code used when a task throws inside the child.
inline constexpr int kForkExceptionExit = 121;

namespace detail {

inline bool write_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

inline bool read_all(int fd, void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, p, size);
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

[[noreturn]] inline void child_main(int write_fd, const ForkTask& task) {
  int code = 0;
  try {
    const std::vector<std::uint8_t> payload = task();
    const std::uint64_t length = payload.size();
    if (!write_all(write_fd, &length, sizeof(length)) ||
        (length > 0 && !write_all(write_fd, payload.data(), payload.size()))) {
      code = 1;
    }
  } catch (...) {
    code = kForkExceptionExit;
  }
  // _exit, not exit: the child shares the parent's stdio buffers and atexit
  // registrations and must not flush or run them.
  _exit(code);
}

}  // namespace detail

/// Run `task` in a forked child and return its payload, exit code and peak
/// RSS (drain first, then reap; see the header comment).
inline ForkResult fork_run(const ForkTask& task) {
  ForkResult result;
  int fds[2];
  if (::pipe(fds) != 0) {
    std::perror("fork_run: pipe");
    result.exit_code = -1;
    return result;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork_run: fork");
    ::close(fds[0]);
    ::close(fds[1]);
    result.exit_code = -1;
    return result;
  }
  if (pid == 0) {
    ::close(fds[0]);
    detail::child_main(fds[1], task);
  }
  ::close(fds[1]);

  std::uint64_t length = 0;
  bool received = detail::read_all(fds[0], &length, sizeof(length));
  if (received) {
    result.payload.resize(length);
    received = length == 0 ||
               detail::read_all(fds[0], result.payload.data(), length);
  }
  if (!received) result.payload.clear();
  ::close(fds[0]);

  int status = 0;
  rusage usage{};
  if (::wait4(pid, &status, 0, &usage) != pid) {
    result.exit_code = -1;
    return result;
  }
  result.peak_rss_mb = peak_rss_mb(usage);
  if (WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    result.exit_code = 128 + WTERMSIG(status);
  } else {
    result.exit_code = -1;
  }
  result.complete = received && result.exit_code == 0;
  return result;
}

}  // namespace ccdn
