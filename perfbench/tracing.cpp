#include "tracing.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace edbench {

unsigned Tracer::begin_run(const std::string& label) {
  run_labels_.push_back(label);
  run_ = static_cast<unsigned>(run_labels_.size());
  return run_;
}

int Tracer::open(const std::string& name) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.run = run_;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  // Spans close in LIFO order (Scope is RAII); tolerate a mismatched
  // close by unwinding to the closed span.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
  }
}

std::map<std::string, double> Tracer::layer_self_s() const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::uint64_t total = s.end_ns - s.start_ns;
    const std::uint64_t self = total > child_ns[i] ? total - child_ns[i] : 0;
    out[s.name.substr(0, s.name.find('.'))] +=
        static_cast<double>(self) * 1e-9;
  }
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (std::size_t r = 0; r < run_labels_.size(); ++r) {
    out << (first ? "" : ",\n")
        << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << r + 1
        << ",\"tid\":0,\"args\":{\"name\":\"" << run_labels_[r] << "\"}}";
    first = false;
  }
  char buf[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out << (first ? "" : ",\n") << "{\"ph\":\"X\",\"name\":\"" << s.name
        << "\",\"cat\":\"" << layer << "\",\"pid\":" << s.run
        << ",\"tid\":0,";
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    out << buf << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
        << ",\"run\":" << s.run << "}}";
    first = false;
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("short write to trace file " + path);
}

}  // namespace edbench
