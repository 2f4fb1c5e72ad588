#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tracing.hpp"

namespace edbench {

/// One reported figure, printed by name with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one invocation of a workload returns. An op is one fixed chunk
/// of simulated cycles (simulation workloads) or one design point
/// (explore_sweep); it fails when the simulator throws, when its digest
/// differs from the reference, or when an oracle is violated.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  ///< context, and why an op failed
  std::uint64_t digest = 0;        ///< hash over the first pass's op digests
  std::vector<Metric> metrics;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string out_dir;  ///< scratch + trace output directory
  /// The digest recorded for this (workload, seed), if there is one: a
  /// first pass that does not reproduce it fails all its ops.
  bool has_expected = false;
  std::uint64_t expected = 0;
};

const std::vector<std::string>& workload_names();

/// Timed (untraced) run: repeats the workload's pass in a closed loop
/// until `seconds` have been measured and reports the end-to-end metrics.
Outcome run_timed(const RunOptions& o);

/// Traced run: traced passes of the workload alternated with untraced
/// ones, plus short companion passes of the other workloads for the layers
/// this one does not reach; reports the per-layer metrics.
Outcome run_traced(const RunOptions& o, Tracer& tracer);

}  // namespace edbench
