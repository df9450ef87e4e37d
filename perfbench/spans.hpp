// In-memory span log for the traced run.  Spans are recorded by the
// benchmark around calls into the program's public API (the program
// itself is not instrumented by this), kept in memory while the run
// measures, and written out once at exit as Chrome Trace Event JSON,
// which Perfetto and chrome://tracing open.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span {
  std::string name;
  double t0_us = 0.0;   ///< wall start, from the log's origin
  double dur_us = 0.0;  ///< wall duration
  double cpu_us = 0.0;  ///< process CPU over the span (all threads)
  std::uint64_t calls = 1;  ///< calls the span aggregates
  int parent = -1;      ///< index of the enclosing span, -1 at the root
};

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  /// Opens a span and returns its index; close it with end().
  int begin(std::string name, int parent = -1) {
    Span s;
    s.name = std::move(name);
    s.parent = parent;
    s.t0_us = now_us();
    s.cpu_us = process_cpu_s() * 1e6;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }

  void end(int idx, std::uint64_t calls = 1) {
    Span& s = spans_[static_cast<std::size_t>(idx)];
    s.dur_us = now_us() - s.t0_us;
    s.cpu_us = process_cpu_s() * 1e6 - s.cpu_us;
    s.calls = calls;
  }

  /// Records an already-measured span.
  void add(std::string name, Clock::time_point t0, double dur_us,
           double cpu_us, std::uint64_t calls = 1, int parent = -1) {
    Span s;
    s.name = std::move(name);
    s.t0_us = std::chrono::duration<double, std::micro>(t0 - origin_).count();
    s.dur_us = dur_us;
    s.cpu_us = cpu_us;
    s.calls = calls;
    s.parent = parent;
    spans_.push_back(std::move(s));
  }

  /// Writes every span as a complete ("X") trace event; returns false
  /// when the file cannot be written.
  bool write_chrome(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      JsonLine args;
      args.add("cpu_us", s.cpu_us).add("calls", s.calls);
      args.add("parent", static_cast<std::uint64_t>(s.parent + 1));
      JsonLine ev;
      ev.add("name", s.name).add("ph", "X").add("ts", s.t0_us);
      ev.add("dur", s.dur_us).add("pid", std::uint64_t{1});
      ev.add("tid", static_cast<std::uint64_t>(s.parent < 0 ? 1 : 2));
      ev.raw("args", args.str());
      out << ev.str() << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    out.close();
    return static_cast<bool>(out);
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
