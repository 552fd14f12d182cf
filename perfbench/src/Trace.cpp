#include "Trace.h"

#include <fstream>

namespace perfbench {

std::int64_t nowNs() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

Trace::Scope::Scope(Trace* trace, const char* name, std::int64_t op)
    : trace_(trace), index_(-1) {
  if (trace_ == nullptr)
    return;
  index_ = static_cast<int>(trace_->spans_.size());
  const int parent = trace_->open_.empty() ? -1 : trace_->open_.back();
  trace_->spans_.push_back({name, 0, 0, parent, op});
  trace_->open_.push_back(index_);
  trace_->spans_.back().startNs = nowNs();
}

Trace::Scope::~Scope() {
  if (trace_ == nullptr)
    return;
  trace_->spans_[index_].endNs = nowNs();
  trace_->open_.pop_back();
}

void Trace::append(const Trace& other) {
  const int offset = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0)
      span.parent += offset;
    spans_.push_back(span);
  }
}

std::map<std::string, double> Trace::selfMillis() const {
  std::vector<std::int64_t> childNs(spans_.size(), 0);
  for (const Span& span : spans_)
    if (span.parent >= 0)
      childNs[span.parent] += span.endNs - span.startNs;
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[spans_[i].name] +=
        static_cast<double>(spans_[i].endNs - spans_[i].startNs - childNs[i]) /
        1e6;
  return self;
}

double Trace::rootMillis() const {
  double total = 0;
  for (const Span& span : spans_)
    if (span.parent < 0)
      total += static_cast<double>(span.endNs - span.startNs) / 1e6;
  return total;
}

void Trace::writeJson(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "[\"" << s.name << "\", " << s.startNs
        << ", " << s.endNs << ", " << s.parent << ", " << s.op << "]";
  }
  out << "\n]}\n";
}

} // namespace perfbench
