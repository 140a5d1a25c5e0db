// Process-level plumbing for the spawned fleet: daemon supervision, CPU and
// RSS accounting from /proc, and a minimal HTTP scrape.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace geobench {

/// One spawned daemon. stdout is a pipe read for the handshake lines;
/// stderr goes straight to a log file so a chatty daemon never blocks on a
/// full pipe. The destructor SIGKILLs and reaps a daemon still running, so
/// no process outlives a failed run.
class Child {
 public:
  Child(std::vector<std::string> argv, const std::string& stderr_path);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Block until a stdout line starts with `prefix` and return it. Throws
  /// when the daemon exits first or `timeout_ms` passes.
  std::string wait_line(const std::string& prefix, double timeout_ms);
  /// When the process was spawned (now_ms() clock).
  double spawned_ms() const { return spawned_ms_; }
  pid_t pid() const { return pid_; }

  /// SIGTERM, then wait up to `timeout_ms`; true iff the daemon exited 0.
  /// A daemon that does not exit in time is killed.
  bool terminate_clean(double timeout_ms);

  /// CPU time of all live threads (ns-resolution schedstat), in ms.
  double cpu_ms() const;
  /// Peak resident set (VmHWM), in MB.
  double rss_peak_mb() const;

 private:
  std::string name_;
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string buffer_;
  double spawned_ms_ = 0.0;
};

/// While alive, moves thread `tid` (0: the constructing thread) to the
/// next CPU of its affinity mask every `period_ms`, then restores the mask
/// (threads it started meanwhile keep the one CPU they inherited). On a shared
/// host a single thread's speed depends on which core's neighbours it sits
/// next to; rotating makes every request sample all CPUs alike instead of
/// one run (or one request) drawing a fast or a slow core.
class CpuRotation {
 public:
  explicit CpuRotation(pid_t tid = 0, double period_ms = 5.0);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  pid_t tid_;
  std::vector<int> cpus_;
  std::jthread rotator_;  // last member: stops before the rest go
};

/// The CPUs this thread may run on, in order.
std::vector<int> allowed_cpus();
/// Pin thread `tid` (0: the calling thread) to `cpu`; false on failure.
bool pin_thread(pid_t tid, int cpu);
/// Pin every thread of process `pid` to `cpu` (threads it starts later
/// inherit the pin). False when any thread could not be pinned.
bool pin_process(pid_t pid, int cpu);

/// CPU (user + system) of this process so far, in ms.
double self_cpu_ms();
/// Peak RSS of this process, in MB.
double self_rss_peak_mb();

/// GET http://127.0.0.1:<port><path> and return the body; throws on error.
std::string http_get(std::uint16_t port, const std::string& path);
/// Value of an unlabelled sample `name` in Prometheus text; -1 if absent.
double prometheus_value(const std::string& text, const std::string& name);
/// Unsigned `key=value` field of a handshake line; throws if absent.
std::uint64_t handshake_field(const std::string& line, const std::string& key);

}  // namespace geobench
