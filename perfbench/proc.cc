#include "proc.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

using precis::Result;
using precis::Status;

namespace {

using Clock = std::chrono::steady_clock;

constexpr char kListeningPrefix[] = "precis_serve listening on ";

/// Waits up to `seconds` for `pid` to exit; true once it has been reaped.
bool WaitFor(pid_t pid, double seconds, int* status) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (;;) {
    pid_t done = waitpid(pid, status, WNOHANG);
    if (done == pid || (done < 0 && errno == ECHILD)) return true;
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace

Result<std::unique_ptr<ServerProcess>> ServerProcess::Launch(
    const std::vector<std::string>& argv, double timeout_seconds,
    double* setup_seconds) {
  if (argv.empty()) return Status::InvalidArgument("empty server command");
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    return Status::Internal(std::string("pipe: ") + std::strerror(errno));
  }
  std::vector<char*> args;
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);

  const pid_t parent = getpid();
  const Clock::time_point start = Clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return Status::Internal(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(fds[1], STDOUT_FILENO);
    execv(args[0], args.data());
    _exit(127);
  }
  close(fds[1]);
  std::unique_ptr<ServerProcess> server(new ServerProcess(pid, fds[0]));

  std::string line;
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(timeout_seconds));
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) return Status::Internal("server start timed out");
    pollfd pfd = {server->stdout_fd_, POLLIN, 0};
    if (poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
    char buf[256];
    const ssize_t n = read(server->stdout_fd_, buf, sizeof(buf));
    if (n <= 0) return Status::Internal("server exited before listening");
    line.append(buf, static_cast<size_t>(n));
  }
  *setup_seconds = std::chrono::duration<double>(Clock::now() - start).count();

  line.resize(line.find('\n'));
  const size_t at = line.find(kListeningPrefix);
  const size_t colon = line.rfind(':');
  if (at == std::string::npos || colon == std::string::npos) {
    return Status::Internal("unexpected server output: " + line);
  }
  const size_t host_begin = at + std::strlen(kListeningPrefix);
  server->host_ = line.substr(host_begin, colon - host_begin);
  const long port = std::atol(line.c_str() + colon + 1);
  if (port <= 0 || port > 65535) {
    return Status::Internal("unexpected server output: " + line);
  }
  server->port_ = static_cast<uint16_t>(port);
  return server;
}

ServerProcess::~ServerProcess() {
  if (!reaped_) {
    kill(pid_, SIGTERM);
    if (!WaitFor(pid_, 10, &wait_status_)) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &wait_status_, 0);
    }
  }
  close(stdout_fd_);
}

bool ServerProcess::Exited() {
  if (!reaped_ && waitpid(pid_, &wait_status_, WNOHANG) == pid_) {
    reaped_ = true;
  }
  return reaped_;
}

Status ServerProcess::Stop() {
  if (Exited()) return Status::Internal("server exited before it was stopped");
  kill(pid_, SIGTERM);
  if (!WaitFor(pid_, 30, &wait_status_)) {
    kill(pid_, SIGKILL);
    waitpid(pid_, &wait_status_, 0);
    reaped_ = true;
    return Status::Internal("server did not drain within 30 s");
  }
  reaped_ = true;
  if (!WIFEXITED(wait_status_) || WEXITSTATUS(wait_status_) != 0) {
    return Status::Internal("server shut down with wait status " +
                            std::to_string(wait_status_));
  }
  return Status::OK();
}

double ProcessCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t paren = stat.rfind(')');
  if (paren == std::string::npos) return 0;
  // After the command name: state is field 3, utime 14, stime 15.
  std::istringstream fields(stat.substr(paren + 2));
  std::string field;
  uint64_t utime = 0, stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ProcessMemoryMb(const std::string& pid, const char* field) {
  std::ifstream in("/proc/" + pid + "/status");
  const std::string prefix = std::string(field) + ":";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0;
}

HostCpu ReadHostCpu() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;  // "cpu"
  HostCpu cpu;
  // user nice system idle iowait irq softirq steal; guest time is already
  // inside user and nice.
  for (int i = 0; i < 8; ++i) {
    uint64_t ticks = 0;
    in >> ticks;
    cpu.total += ticks;
    if (i == 7) cpu.steal = ticks;
  }
  return cpu;
}

double StealFraction(const HostCpu& before, const HostCpu& after) {
  const uint64_t total = after.total - before.total;
  return total == 0 ? 0
                    : static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

}  // namespace perfbench
