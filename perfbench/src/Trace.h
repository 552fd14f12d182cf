// In-memory span recorder for the traced benchmark run.
//
// The benchmark wraps each call into a layer's public function in a
// span named "<layer>.<what>" (dsl.parse, sched.reschedule, eval.execute,
// serve.call, ...). Spans stay in memory and are written out once, when
// the run ends. A layer's self time is its span's duration minus the
// part its direct child spans cover. A disabled Trace records nothing,
// so the untraced code path pays one branch per span.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the process-wide trace epoch.
std::int64_t nowNs();

struct Span {
  const char* name = "";
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  int parent = -1; ///< index in the same Trace, -1 for a root span
  std::int64_t op = 0;
};

/// One thread's spans.
class Trace {
public:
  explicit Trace(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  class Scope {
  public:
    Scope(Trace* trace, const char* name, std::int64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Trace* trace_;
    int index_;
  };
  /// Opens a span that closes when the returned scope ends.
  [[nodiscard]] Scope span(const char* name, std::int64_t op) {
    return Scope(enabled_ ? this : nullptr, name, op);
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// Appends another thread's spans (parents re-indexed).
  void append(const Trace& other);

  /// Self milliseconds summed per span name.
  std::map<std::string, double> selfMillis() const;
  /// Summed duration of root spans, milliseconds.
  double rootMillis() const;

  /// Writes the spans as JSON: {"spans": [[name, start_ns, end_ns,
  /// parent, op], ...]}.
  void writeJson(const std::string& path) const;

private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

} // namespace perfbench
