// Small host-measurement helpers shared by the benchmark driver and the
// layer replays: process CPU clock, resident set size, the host's steal
// counter, percentiles, and a one-line JSON object builder.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// User+sys CPU of the whole process (every thread), in seconds.
inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Current resident set, MiB (from /proc/self/statm).
inline double rss_mb() {
  std::ifstream f("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  f >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Peak resident set so far (ru_maxrss), MiB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Aggregate CPU jiffies from the first line of /proc/stat: `total` over
/// every state, `steal` the time the hypervisor ran someone else.
struct HostCpu {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

inline HostCpu read_host_cpu() {
  std::ifstream f("/proc/stat");
  std::string line;
  std::getline(f, line);
  std::istringstream in(line);
  std::string tag;
  in >> tag;
  HostCpu c;
  std::uint64_t v = 0;
  // user nice system idle iowait irq softirq steal [guest guest_nice]:
  // guest time is already inside user/nice, so only the first 8 count.
  for (int i = 0; i < 8 && (in >> v); ++i) {
    c.total += v;
    if (i == 7) c.steal = v;
  }
  return c;
}

inline double steal_frac(const HostCpu& a, const HostCpu& b) {
  const std::uint64_t dt = b.total - a.total;
  return dt ? static_cast<double>(b.steal - a.steal) / static_cast<double>(dt)
            : 0.0;
}

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample.
template <typename T>
T percentile(std::vector<T> v, double p) {
  if (v.empty()) return T{};
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max(0.0, static_cast<double>(v.size()) * p - 1e-9));
  return v[std::min(rank, v.size() - 1)];
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Builds one JSON object on a single line.  Doubles keep all their
/// digits (%.17g).
class JsonLine {
 public:
  JsonLine& add(const std::string& k, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(k, buf);
  }
  JsonLine& add(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  JsonLine& add(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  JsonLine& add(const std::string& k, const char* v) {
    return raw(k, quote(v));
  }
  JsonLine& add(const std::string& k, const std::string& v) {
    return raw(k, quote(v));
  }
  /// Inserts a value that is already valid JSON.
  JsonLine& raw(const std::string& k, const std::string& json) {
    body_ += body_.empty() ? "" : ", ";
    body_ += quote(k) + ": " + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

}  // namespace perfbench
