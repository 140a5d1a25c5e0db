#include "proc.hpp"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "metrics.hpp"

extern char** environ;

namespace geobench {

namespace {

std::runtime_error sys_error(const std::string& what) {
  return std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

Child::Child(std::vector<std::string> argv, const std::string& stderr_path)
    : name_(argv.at(0)) {
  int pipe_fds[2];
  if (pipe2(pipe_fds, O_CLOEXEC) != 0) throw sys_error("pipe2");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO,
                                   stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> args;
  for (std::string& a : argv) args.push_back(a.data());
  args.push_back(nullptr);
  spawned_ms_ = now_ms();
  const int rc = posix_spawn(&pid_, args[0], &actions, nullptr, args.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[1]);
  if (rc != 0) {
    ::close(pipe_fds[0]);
    pid_ = -1;
    errno = rc;
    throw sys_error("spawn " + name_);
  }
  out_fd_ = pipe_fds[0];
}

Child::~Child() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

std::string Child::wait_line(const std::string& prefix, double timeout_ms) {
  const double deadline = now_ms() + timeout_ms;
  for (;;) {
    std::size_t nl;
    while ((nl = buffer_.find('\n')) != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      if (line.rfind(prefix, 0) == 0) return line;
    }
    const double left = deadline - now_ms();
    if (left <= 0.0) {
      throw std::runtime_error(name_ + ": no '" + prefix + "' line in time");
    }
    pollfd p{out_fd_, POLLIN, 0};
    const int ready = ::poll(&p, 1, static_cast<int>(left) + 1);
    if (ready < 0 && errno != EINTR) throw sys_error("poll");
    if (ready <= 0) continue;
    char chunk[512];
    const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
    if (n == 0) {
      throw std::runtime_error(name_ + " exited before '" + prefix + "'");
    }
    if (n < 0 && errno != EINTR) throw sys_error("read");
    if (n > 0) buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool Child::terminate_clean(double timeout_ms) {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  const double deadline = now_ms() + timeout_ms;
  int status = 0;
  for (;;) {
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) break;
    if (done < 0 && errno != EINTR) return false;
    if (now_ms() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

double Child::cpu_ms() const {
  // /proc/<pid>/task/<tid>/schedstat: first field is on-CPU time in ns.
  const std::string dir = "/proc/" + std::to_string(pid_) + "/task";
  double ns = 0.0;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0.0;
  while (const dirent* e = ::readdir(d)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + e->d_name + "/schedstat");
    double run_ns = 0.0;
    if (in >> run_ns) ns += run_ns;
  }
  ::closedir(d);
  return ns / 1e6;
}

double Child::rss_peak_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(1 << 16, '\n');
  }
  return 0.0;
}

CpuRotation::CpuRotation(pid_t tid, double period_ms)
    : tid_(tid != 0 ? tid : static_cast<pid_t>(::syscall(SYS_gettid))) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(tid_, sizeof set, &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
  if (cpus_.size() < 2) return;
  const auto period = std::chrono::microseconds(
      static_cast<std::int64_t>(period_ms * 1e3));
  rotator_ = std::jthread([this, period](std::stop_token stop) {
    for (std::size_t i = 0; !stop.stop_requested(); ++i) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[i % cpus_.size()], &one);
      ::sched_setaffinity(tid_, sizeof one, &one);
      std::this_thread::sleep_for(period);
    }
  });
}

CpuRotation::~CpuRotation() {
  if (rotator_.joinable()) {
    rotator_.request_stop();
    rotator_.join();
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus_) CPU_SET(cpu, &set);
  if (!cpus_.empty()) ::sched_setaffinity(tid_, sizeof set, &set);
}

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

bool pin_thread(pid_t tid, int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return ::sched_setaffinity(tid, sizeof one, &one) == 0;
}

bool pin_process(pid_t pid, int cpu) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return false;
  bool ok = true;
  while (const dirent* e = ::readdir(d)) {
    if (e->d_name[0] == '.') continue;
    const auto tid = static_cast<pid_t>(std::strtol(e->d_name, nullptr, 10));
    ok = pin_thread(tid, cpu) && ok;
  }
  ::closedir(d);
  return ok;
}

double self_cpu_ms() {
  rusage u{};
  ::getrusage(RUSAGE_SELF, &u);
  const auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 +
           static_cast<double>(t.tv_usec) / 1e3;
  };
  return ms(u.ru_utime) + ms(u.ru_stime);
}

double self_rss_peak_mb() {
  rusage u{};
  ::getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw sys_error("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string response;
  try {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      throw sys_error("connect metrics port");
    }
    const std::string request =
        "GET " + path + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
    if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(request.size())) {
      throw sys_error("send");
    }
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n == 0) break;
      if (n < 0) {
        if (errno == EINTR) continue;
        throw sys_error("recv");
      }
      response.append(chunk, static_cast<std::size_t>(n));
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  const std::size_t body = response.find("\r\n\r\n");
  if (response.rfind("HTTP/1.0 200", 0) != 0 || body == std::string::npos) {
    throw std::runtime_error("metrics scrape failed: " +
                             response.substr(0, 64));
  }
  return response.substr(body + 4);
}

double prometheus_value(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > name.size() && line.rfind(name, 0) == 0 &&
        line[name.size()] == ' ') {
      return std::stod(line.substr(name.size() + 1));
    }
  }
  return -1.0;
}

std::uint64_t handshake_field(const std::string& line, const std::string& key) {
  const std::string needle = key + "=";
  std::size_t at = 0;
  while ((at = line.find(needle, at)) != std::string::npos) {
    if (at == 0 || line[at - 1] == ' ') {
      return std::stoull(line.substr(at + needle.size()));
    }
    at += needle.size();
  }
  throw std::runtime_error("handshake '" + line + "' lacks " + key);
}

}  // namespace geobench
