// The server under test as a child process, and the /proc readings the
// benchmark takes of it and of the host.

#ifndef PERFBENCH_PROC_H_
#define PERFBENCH_PROC_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"

namespace perfbench {

/// A launched precis_serve. The destructor stops it (SIGTERM, then SIGKILL
/// after a grace period) and reaps it; the child also gets SIGKILL if the
/// benchmark dies first.
class ServerProcess {
 public:
  /// Starts `argv` and waits up to `timeout_seconds` for its
  /// "precis_serve listening on HOST:PORT" line. `setup_seconds` receives
  /// the time from launch to that line.
  static precis::Result<std::unique_ptr<ServerProcess>> Launch(
      const std::vector<std::string>& argv, double timeout_seconds,
      double* setup_seconds);

  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }
  const std::string& host() const { return host_; }
  uint16_t port() const { return port_; }

  /// True once the process has exited (reaps it without blocking).
  bool Exited();

  /// SIGTERM and wait for the graceful drain. OK only for exit code 0.
  precis::Status Stop();

 private:
  ServerProcess(pid_t pid, int stdout_fd) : pid_(pid), stdout_fd_(stdout_fd) {}

  pid_t pid_;
  int stdout_fd_;
  bool reaped_ = false;
  int wait_status_ = 0;
  std::string host_;
  uint16_t port_ = 0;
};

/// User + system CPU seconds of a process, all its threads, from
/// /proc/<pid>/stat.
double ProcessCpuSeconds(pid_t pid);

/// A "VmHWM" or "VmRSS" line of /proc/<pid>/status ("self" for this
/// process), in MiB.
double ProcessMemoryMb(const std::string& pid, const char* field);

/// Host-wide CPU time from the first line of /proc/stat, in ticks.
struct HostCpu {
  uint64_t steal = 0;
  uint64_t total = 0;
};
HostCpu ReadHostCpu();

/// Steal ticks as a share of all ticks between two readings.
double StealFraction(const HostCpu& before, const HostCpu& after);

}  // namespace perfbench

#endif  // PERFBENCH_PROC_H_
