#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace edbench {

/// Host wall-clock in nanoseconds since an arbitrary fixed origin.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One closed span: a named interval of host time, with the span that
/// caused it (-1 for a root) and the traced run it belongs to.
struct Span {
  std::string name;  ///< "<layer>.<call>", e.g. "dram.run"
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;
  unsigned run = 0;
};

/// In-memory span recorder. Spans nest by construction order: a span
/// opened while another is open becomes its child. Nothing is written
/// until `write_chrome_json`, so recording costs two clock reads and one
/// vector append per span.
class Tracer {
 public:
  /// Start a new run id; spans opened afterwards carry it.
  unsigned begin_run(const std::string& label);

  int open(const std::string& name);
  void close(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer (the span-name prefix before the first '.'):
  /// span time minus the part of it covered by the span's children.
  std::map<std::string, double> layer_self_s() const;

  /// Chrome trace_event JSON ("X" complete events, one process per run),
  /// which Perfetto and chrome://tracing load directly.
  void write_chrome_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::vector<std::string> run_labels_;
  unsigned run_ = 0;
};

/// RAII span; a null tracer records nothing (the untraced timed runs).
class Scope {
 public:
  Scope(Tracer* t, const std::string& name)
      : t_(t), id_(t != nullptr ? t->open(name) : -1) {}
  ~Scope() {
    if (t_ != nullptr) t_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int id_;
};

}  // namespace edbench
