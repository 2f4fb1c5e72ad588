// edbench: one workload of the edsim end-to-end benchmark per process.
//
//   edbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           --out <dir> [--digests <file>] [--record]
//
// Prints human-readable context and metric lines, then, as the last line,
// one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones from untraced passes;
// with --trace 1 they are the per-layer ones from a traced pass, and the
// spans go to <dir>/trace-<workload>-s<seed>.json (Perfetto-loadable).
// --record prints the digest record for this (workload, seed) instead of
// checking against the digests file.

#include <cpuid.h>
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bist/march.hpp"
#include "bist/memory_array.hpp"
#include "workloads.hpp"

namespace {

using edbench::Outcome;
using edbench::RunOptions;

std::string cpu_model() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1],
                &regs[i * 4 + 2], &regs[i * 4 + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

/// Calibration kernel no simulator optimisation touches: March C- over a
/// fault-free 256 x 256 bist::MemoryArray, median of five passes. Context
/// for normalising snapshots across machines, not a gated metric.
double calibration_ms() {
  std::vector<double> t;
  for (int i = 0; i < 5; ++i) {
    edsim::bist::MemoryArray array(256, 256);
    const std::uint64_t a = edbench::now_ns();
    const auto r = edsim::bist::run_march(array, edsim::bist::march_c_minus());
    const std::uint64_t b = edbench::now_ns();
    if (!r.passed) return -1.0;
    t.push_back(static_cast<double>(b - a) * 1e-6);
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

/// Digests file, one line per record: "<workload> <seed> <hex digest>".
void load_expected(const std::string& path, RunOptions& o) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string w;
    std::uint64_t s = 0;
    std::uint64_t d = 0;
    if (ls >> w >> s >> std::hex >> d && w == o.workload && s == o.seed) {
      o.has_expected = true;
      o.expected = d;
    }
  }
}

int usage() {
  std::cerr << "usage: edbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --out <dir> [--digests <file>] [--record]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "edbench: refusing to measure a build with assertions on; "
               "configure with -DCMAKE_BUILD_TYPE=Release\n";
  return 3;
#endif
  if (std::string(EDBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "edbench: refusing to measure a " << EDBENCH_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }

  // Pin glibc's mmap threshold (it otherwise grows with every large free):
  // large blocks then return to the system when freed, so peak RSS tracks
  // the live footprint rather than how many passes fragmented the heap.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  RunOptions o;
  std::string digests;
  bool record = false;
  bool trace = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value: " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        trace = value() != "0";
      } else if (a == "--out") {
        o.out_dir = value();
      } else if (a == "--digests") {
        digests = value();
      } else if (a == "--record") {
        record = true;
      } else {
        return usage();
      }
    } catch (const std::exception& e) {
      std::cerr << "edbench: " << e.what() << "\n";
      return usage();
    }
  }
  bool known = false;
  for (const auto& n : edbench::workload_names()) known |= n == o.workload;
  if (!have_workload || !known || o.out_dir.empty()) return usage();
  std::filesystem::create_directories(o.out_dir);

  if (!record && !digests.empty()) load_expected(digests, o);

  const std::string cpu = cpu_model();
  const double calib = calibration_ms();
  std::cout << "context: nproc " << std::thread::hardware_concurrency()
            << ", cpu " << cpu << ", compiler " << EDBENCH_COMPILER
            << ", build " << EDBENCH_BUILD_TYPE << "\n"
            << "calibration: March C- over 256x256 cells " << calib
            << " ms\n"
            << "workload " << o.workload << ", seed " << o.seed << ", "
            << (trace ? "traced" : "untraced") << ", closed loop, 1 caller"
            << (o.has_expected ? ", recorded digest " + hex(o.expected) : "")
            << "\n";

  Outcome out;
  edbench::Tracer tracer;
  std::string trace_path;
  try {
    if (trace) {
      out = edbench::run_traced(o, tracer);
      trace_path = o.out_dir + "/trace-" + o.workload + "-s" +
                   std::to_string(o.seed) + ".json";
      tracer.write_chrome_json(trace_path);
    } else {
      out = edbench::run_timed(o);
    }
  } catch (const std::exception& e) {
    std::cerr << "edbench: " << e.what() << "\n";
    return 1;
  }

  if (record) {
    std::cout << "record: " << o.workload << " " << o.seed << " "
              << hex(out.digest) << "\n";
  }
  for (const auto& n : out.notes) std::cout << "note: " << n << "\n";
  std::cout << "digest: " << hex(out.digest) << "\n";
  const double error_rate =
      out.attempted ? static_cast<double>(out.failed) /
                          static_cast<double>(out.attempted)
                    : 1.0;
  std::cout << "error_rate " << error_rate << " fraction (" << out.failed
            << " of " << out.attempted << " ops)\n";
  for (const auto& m : out.metrics) {
    std::cout << "metric " << m.name << " " << json_number(m.value) << " "
              << m.unit << "\n";
  }
  if (!trace_path.empty()) std::cout << "spans: " << trace_path << "\n";

  const bool correct = out.failed == 0 && out.attempted > 0;
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
     << ", \"digest\": \"" << hex(out.digest) << "\""
     << ", \"context\": {\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu\": \"" << json_escape(cpu) << "\", \"compiler\": \""
     << json_escape(EDBENCH_COMPILER) << "\", \"build_type\": \""
     << EDBENCH_BUILD_TYPE << "\", \"calibration_ms\": " << json_number(calib)
     << "}, \"metrics\": {";
  bool first = true;
  for (const auto& m : out.metrics) {
    js << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return 0;
}
