#include "workloads.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "clients/compiled_trace.hpp"
#include "clients/multi_system.hpp"
#include "clients/strided_gen.hpp"
#include "clients/system.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/cost_model.hpp"
#include "core/evaluator.hpp"
#include "core/system_config.hpp"
#include "core/wcet.hpp"
#include "dram/command_log.hpp"
#include "dram/presets.hpp"
#include "dram/protocol_checker.hpp"
#include "modulegen/module_compiler.hpp"
#include "mpeg/trace_gen.hpp"
#include "phy/interface_model.hpp"
#include "power/energy_model.hpp"
#include "power/retention.hpp"
#include "reliability/manager.hpp"
#include "service/result_store.hpp"
#include "telemetry/interval.hpp"
#include "telemetry/multi_hooks.hpp"
#include "telemetry/request_tracer.hpp"
#include "telemetry/trace.hpp"

namespace edbench {

using namespace edsim;
namespace fs = std::filesystem;

namespace {

// --- sizes and statistics ------------------------------------------------------
// A pass is the fixed work one closed-loop iteration performs, split into
// ops. A timed run repeats passes until its measuring time is used up.

enum class Kind { kDecode, kDense, kSoak, kExplore };

Kind kind_of(const std::string& name) {
  if (name == "mpeg2_decode") return Kind::kDecode;
  if (name == "dense_mix") return Kind::kDense;
  if (name == "reliability_soak") return Kind::kSoak;
  if (name == "explore_sweep") return Kind::kExplore;
  throw std::invalid_argument("unknown workload: " + name);
}

const char* name_of(Kind k) {
  switch (k) {
    case Kind::kDecode: return "mpeg2_decode";
    case Kind::kDense: return "dense_mix";
    case Kind::kSoak: return "reliability_soak";
    case Kind::kExplore: return "explore_sweep";
  }
  return "?";
}

struct SimSize {
  std::uint64_t cycles = 0;  ///< simulated system cycles per pass
  std::uint64_t chunk = 0;   ///< cycles per op
};

/// Full passes for the timed runs; companion passes (the traced run's
/// stand-ins for layers its own workload does not reach) run a quarter of
/// the cycles. Passes are short (a decode pass is the mpeg2_decoder
/// example's 1 M-cycle window, ~7 ms of PAL decode) so that a run holds
/// the 50+ passes the per-op best times need to settle on a shared host.
SimSize sim_size(Kind k, bool companion) {
  SimSize s = k == Kind::kDense ? SimSize{100'000, 250}
                                : SimSize{1'000'000, 10'000};
  if (companion) s.cycles /= 4;
  return s;
}

constexpr unsigned kDenseChannels = 4;
constexpr unsigned kDenseClientPeriod = 4;
constexpr double kSoakFaultsPerMbitMs = 5.0;
constexpr std::uint64_t kReferenceOps = 100;  // prefix replayed per-cycle
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kMaxPasses = 500;
constexpr int kOverheadReps = 9;  // untraced/traced pass pairs per ratio

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Host time of a pass, op by op: for each op the fastest of its
/// repetitions across the run's passes. Every pass does the same work op
/// for op, and on a shared host a pass is slowed in bursts by other
/// tenants; the per-op minimum keeps those bursts out, which the median of
/// whole passes does not.
class BestOps {
 public:
  void add(const std::vector<double>& op_s) {
    if (best_.size() < op_s.size()) best_.resize(op_s.size(), -1.0);
    for (std::size_t i = 0; i < op_s.size(); ++i) {
      if (best_[i] < 0.0 || op_s[i] < best_[i]) best_[i] = op_s[i];
    }
  }
  /// Summed best times of ops [begin, end).
  double sum(std::size_t begin, std::size_t end) const {
    double s = 0.0;
    for (std::size_t i = begin; i < end && i < best_.size(); ++i) {
      s += std::max(best_[i], 0.0);
    }
    return s;
  }

 private:
  std::vector<double> best_;  ///< -1 = not measured
};

double seconds_between(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

/// Peak resident set of this process (VmHWM). ru_maxrss would also count
/// the launching process's pages, which Linux carries across exec.
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

// --- digests -----------------------------------------------------------------

void mix(ContentHasher& h, const Accumulator& a) {
  h.mix(a.count()).mix(a.sum()).mix(a.min()).mix(a.max());
}

void mix(ContentHasher& h, const dram::ControllerStats& s) {
  h.mix(s.cycles).mix(s.reads).mix(s.writes).mix(s.row_hits)
      .mix(s.row_misses).mix(s.row_conflicts).mix(s.activations)
      .mix(s.precharges).mix(s.refreshes).mix(s.data_bus_busy_cycles)
      .mix(s.bytes_transferred).mix(s.powerdown_cycles)
      .mix(s.redirected_requests).mix(s.watchdog_retries)
      .mix(s.maintenance_ops);
  mix(h, s.read_latency);
  mix(h, s.write_latency);
  mix(h, s.queue_occupancy);
}

void mix(ContentHasher& h, const dram::ReliabilityCounters& c) {
  h.mix(c.injected).mix(c.corrected).mix(c.uncorrected).mix(c.remapped)
      .mix(c.demand_corrections).mix(c.scrub_corrections)
      .mix(c.write_repairs).mix(c.uncorrectable_events)
      .mix(c.rows_remapped).mix(c.banks_retired).mix(c.scrubbed_rows)
      .mix(c.maint_ops).mix(c.maint_rows).mix(c.neighbor_rows)
      .mix(c.disturb_flips);
}

void mix(ContentHasher& h, const clients::ClientStats& c) {
  h.mix(c.issued).mix(c.completed).mix(c.bytes).mix(c.stall_cycles)
      .mix(c.corrected_errors).mix(c.data_errors);
  mix(h, c.latency);
  mix(h, c.outstanding);
}

std::uint64_t digest(const core::Metrics& m) {
  ContentHasher h;
  h.mix(m.name).mix(m.die_area_mm2).mix(m.memory_area_mm2)
      .mix(m.logic_area_mm2).mix(m.sustained_gbyte_s).mix(m.peak_gbyte_s)
      .mix(m.bandwidth_efficiency).mix(m.avg_read_latency_ns)
      .mix(m.worst_read_latency_ns).mix(m.wcet_read_latency_ns)
      .mix(m.wcet_bandwidth_gbyte_s).mix(m.io_power_mw)
      .mix(m.total_power_mw).mix(m.installed_mbit).mix(m.waste_mbit)
      .mix(m.unit_cost_usd).mix(m.logic_speed).mix(m.junction_c)
      .mix(m.retention_ms).mix(m.refresh_overhead).mix(m.sampled)
      .mix(m.sample_windows).mix(m.sustained_gbyte_s_ci)
      .mix(m.avg_read_latency_ns_ci);
  return h.digest();
}

std::uint64_t chain(const std::vector<std::uint64_t>& ops) {
  ContentHasher h;
  for (const std::uint64_t d : ops) h.mix(d);
  return h.digest();
}

// --- op accounting ---------------------------------------------------------------

/// Mark ops whose digest differs from a reference sequence as failed.
void gate(std::vector<std::string>& errs,
          const std::vector<std::uint64_t>& digests,
          const std::vector<std::uint64_t>& ref, const std::string& what) {
  for (std::size_t i = 0; i < digests.size() && i < ref.size(); ++i) {
    if (digests[i] != ref[i] && errs[i].empty()) {
      errs[i] = "op " + std::to_string(i) + " differs from " + what + ": " +
                hex(digests[i]) + " != " + hex(ref[i]);
    }
  }
}

/// A pass that does not reproduce the recorded digest fails all of its
/// ops: the record holds one digest per (workload, seed).
void expect_recorded(std::vector<std::string>& errs,
                     const std::vector<std::uint64_t>& digests,
                     const RunOptions& o) {
  if (!o.has_expected || chain(digests) == o.expected) return;
  for (std::string& e : errs) {
    if (e.empty()) {
      e = "pass digest " + hex(chain(digests)) + " differs from the recorded " +
          hex(o.expected);
    }
  }
}

void count_ops(const std::vector<std::string>& errs, Outcome& out) {
  for (const std::string& e : errs) {
    ++out.attempted;
    if (!e.empty()) {
      ++out.failed;
      if (out.notes.size() < 20 && (out.notes.empty() || out.notes.back() != e)) {
        out.notes.push_back(e);
      }
    }
  }
}

void add(Outcome& out, const std::string& name, double v,
         const std::string& unit) {
  out.metrics.push_back(Metric{name, v, unit});
}

// --- simulation workloads ------------------------------------------------------

/// One simulated memory system as a workload drives it: a single channel
/// (decoder roster) or the multi-channel dense mix, with its optional
/// reliability manager and command logs.
struct Sim {
  dram::DramConfig cfg;
  std::unique_ptr<reliability::ReliabilityManager> mgr;
  std::vector<std::unique_ptr<dram::CommandLog>> logs;
  std::unique_ptr<clients::MemorySystem> one;
  std::unique_ptr<clients::MultiChannelSystem> multi;

  void run(std::uint64_t cycles) {
    if (one) {
      one->run(cycles);
    } else {
      multi->run(cycles);
    }
  }
  unsigned channels() const { return one ? 1 : multi->memory().channels(); }
  const dram::Controller& channel(unsigned i) const {
    return one ? one->controller() : multi->memory().channel(i);
  }
  dram::Controller& channel(unsigned i) {
    return one ? one->controller() : multi->memory().channel(i);
  }
  std::size_t client_count() const {
    return one ? one->client_count() : multi->client_count();
  }
  const clients::ClientStats& client_stats(std::size_t i) const {
    return one ? one->client_stats(i) : multi->client_stats(i);
  }
  dram::ControllerStats combined() const {
    return one ? one->controller().stats() : multi->memory().combined_stats();
  }
  /// Per-cycle stepping with every fast path off: the simulator's own
  /// differential reference, bit-identical by contract.
  void use_reference_paths() {
    if (one) {
      one->set_fast_forward(false);
      one->set_burst_issue(false);
    } else {
      multi->set_fast_forward(false);
      multi->set_burst_issue(false);
    }
  }
  void attach_command_logs() {
    for (unsigned i = 0; i < channels(); ++i) {
      logs.push_back(std::make_unique<dram::CommandLog>());
      channel(i).attach_command_log(logs.back().get());
    }
  }
  std::uint64_t digest() const {
    ContentHasher h;
    for (unsigned i = 0; i < channels(); ++i) mix(h, channel(i).stats());
    for (std::size_t i = 0; i < client_count(); ++i) mix(h, client_stats(i));
    if (mgr) mix(h, mgr->counters());
    return h.digest();
  }
};

dram::DramConfig decode_channel() {
  return dram::presets::edram_module(16, 64, 4, 2048);
}

/// The four live clients of the §4.1 PAL MP@ML decoder, exactly as
/// mpeg::add_decoder_clients wires them, except that the motion-
/// compensation client draws its motion vectors from `seed`.
void add_seeded_decoder_clients(clients::MemorySystem& sys,
                                std::uint64_t seed, Tracer* t) {
  const Scope span(t, "mpeg.add_decoder_clients");
  mpeg::DecoderConfig dc;
  dc.format = mpeg::pal();
  const mpeg::DecoderModel model(dc);
  const mpeg::MemoryMap map = model.build_memory_map();
  const dram::DramConfig& cfg = sys.controller().config();
  mpeg::DecoderClientParams cp = mpeg::derive_decoder_client_params(
      cfg.bytes_per_access(), cfg.clock, model, map);
  cp.mc.seed = seed;
  unsigned id = static_cast<unsigned>(sys.client_count());
  sys.add_client(
      std::make_unique<clients::StreamClient>(id++, "vbv_input", cp.vbv));
  sys.add_client(std::make_unique<mpeg::McClient>(id++, cp.mc));
  sys.add_client(std::make_unique<clients::StreamClient>(
      id++, "reconstruction", cp.reconstruction));
  sys.add_client(
      std::make_unique<clients::StreamClient>(id++, "display", cp.display));
}

/// add_seeded_decoder_clients must stay the library's roster: with the
/// library's own motion-vector seed it reproduces add_decoder_clients bit
/// for bit.
bool roster_matches_library(std::uint64_t cycles) {
  auto digest_of = [&](bool library) {
    Sim sim;
    sim.cfg = decode_channel();
    sim.one = std::make_unique<clients::MemorySystem>(
        sim.cfg, clients::ArbiterKind::kRoundRobin);
    if (library) {
      mpeg::DecoderConfig dc;
      dc.format = mpeg::pal();
      const mpeg::DecoderModel model(dc);
      mpeg::add_decoder_clients(*sim.one, model, model.build_memory_map());
    } else {
      add_seeded_decoder_clients(*sim.one, mpeg::McClient::Params{}.seed,
                                 nullptr);
    }
    sim.run(cycles);
    return sim.digest();
  };
  return digest_of(true) == digest_of(false);
}

reliability::ReliabilityConfig soak_reliability(std::uint64_t seed) {
  reliability::ReliabilityConfig rc =
      core::make_reliability_config(core::ReliabilityPreset::kFull, seed);
  // 5 faults/Mbit/ms: a storm the full ladder survives. At soak_test's
  // 200 (and at 20) every bank retires within 10 M cycles and the run
  // would time a dead memory.
  rc.inject.transient_per_mbit_ms = kSoakFaultsPerMbitMs;
  rc.inject.weak_cells = 12;
  rc.inject.hammer_flip_threshold = 4096;
  rc.spare_rows_per_bank = 8;
  rc.remap_after_corrections = 32;
  rc.maintenance.enabled = true;        // retention-bin sweeps
  rc.maintenance.hammer_threshold = 1024;  // RowHammer tracking
  return rc;
}

void build_decode(Sim& s, std::uint64_t seed, bool reliability, Tracer* t) {
  s.cfg = decode_channel();
  if (reliability) {
    s.cfg.ecc_enabled = true;
    s.cfg.watchdog_enabled = true;
    const Scope span(t, "reliability.manager");
    s.mgr = std::make_unique<reliability::ReliabilityManager>(
        s.cfg, soak_reliability(seed));
  }
  s.one = std::make_unique<clients::MemorySystem>(
      s.cfg, clients::ArbiterKind::kRoundRobin);
  if (s.mgr) s.one->controller().attach_reliability(s.mgr.get());
  add_seeded_decoder_clients(*s.one, seed, t);
}

/// Four page-interleaved channels under streams, tiled SIMD sweeps and
/// random clients whose aggregate demand is twice the peak, each client
/// compiled into an arena sized for `window` cycles.
void build_dense(Sim& s, std::uint64_t seed, std::uint64_t window,
                 Tracer* t) {
  s.cfg = decode_channel();
  s.multi = std::make_unique<clients::MultiChannelSystem>(
      s.cfg, kDenseChannels, dram::ChannelInterleave::kPage,
      clients::ArbiterKind::kRoundRobin);
  s.multi->memory().set_tick_threads(1);
  const unsigned burst = s.cfg.bytes_per_access();
  const std::uint64_t region = s.multi->memory().capacity().byte_count() / 8;
  const std::uint64_t budget = window / kDenseClientPeriod + 2;
  unsigned id = 0;
  auto add = [&](const std::string& name,
                 std::shared_ptr<const clients::CompiledTrace> arena) {
    s.multi->add_client(std::make_unique<clients::ArenaReplayClient>(
        id++, name, std::move(arena)));
  };
  for (unsigned i = 0; i < 2; ++i) {
    clients::StreamClient::Params p;
    p.base = region * id;
    p.length = region;
    p.burst_bytes = burst;
    p.type = i == 0 ? dram::AccessType::kRead : dram::AccessType::kWrite;
    p.period_cycles = kDenseClientPeriod;
    const Scope span(t, "clients.compile_stream");
    add("stream" + std::to_string(i), clients::compile_stream(p, budget));
  }
  for (unsigned i = 0; i < 3; ++i) {
    clients::SimdStridedClient::Params p;
    p.base = region * id;
    p.width_bytes = 4096;
    p.height = 64;
    p.burst_bytes = burst;
    p.tile_width_bytes = i == 1 ? 512 : 256;
    p.tile_height = i == 2 ? 16 : 8;
    p.pattern = clients::StridePattern::kTiled;
    p.type = i == 2 ? dram::AccessType::kWrite : dram::AccessType::kRead;
    p.period_cycles = kDenseClientPeriod;
    const Scope span(t, "clients.compile_simd_strided");
    add("tiled" + std::to_string(i), clients::compile_simd_strided(p, budget));
  }
  for (unsigned i = 0; i < 3; ++i) {
    clients::RandomClient::Params p;
    p.base = region * id;
    p.length = region;
    p.burst_bytes = burst;
    p.read_fraction = 0.7;
    p.period_cycles = kDenseClientPeriod;
    p.seed = derive_seed(seed, i);
    const Scope span(t, "clients.compile_random");
    add("random" + std::to_string(i), clients::compile_random(p, budget));
  }
}

void build_sim(Kind k, Sim& sim, std::uint64_t seed, const SimSize& size,
               Tracer* t) {
  if (k == Kind::kDense) {
    build_dense(sim, seed, size.cycles, t);
  } else {
    build_decode(sim, seed, k == Kind::kSoak, t);
  }
}

/// A trace sink that keeps nothing: the attached-telemetry cost without
/// the cost of rendering or writing events.
class DiscardSink final : public telemetry::TraceSink {
 public:
  void emit(const telemetry::TraceEvent&) override { ++events_; }
};

struct PassOptions {
  bool reference = false;    ///< fast paths off (differential reference)
  bool command_log = false;  ///< capture + replay through ProtocolChecker
  bool telemetry = false;    ///< IntervalReporter + RequestTracer attached
  std::uint64_t max_ops = ~0ull;
};

struct SimPass {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> op_s;  ///< run + oracles + digest, per op
  std::vector<std::uint64_t> digests;
  std::vector<std::string> op_errors;  ///< per op; empty = ok
  std::uint64_t completed = 0;
  std::uint64_t stall_cycles = 0;
  dram::ControllerStats stats;  ///< summed over channels
  double bus_util = 0.0;        ///< mean over channels
  double powerdown_frac = 0.0;  ///< mean over channels
  dram::ReliabilityCounters rel;
  std::uint64_t checker_violations = 0;
  std::uint64_t commands = 0;
};

SimPass sim_pass(Kind k, std::uint64_t seed, const SimSize& size, Tracer* t,
                 const PassOptions& po = {}) {
  SimPass r;
  const std::uint64_t full_ops = size.cycles / size.chunk;
  const std::uint64_t ops = std::min(full_ops, po.max_ops);
  r.op_errors.assign(ops, "");
  r.digests.assign(ops, 0);

  const std::uint64_t t0 = now_ns();
  Sim sim;
  DiscardSink sink;
  std::unique_ptr<telemetry::RequestTracer> tracer;
  std::unique_ptr<telemetry::IntervalReporter> intervals;
  telemetry::FanoutHooks fan;
  try {
    const Scope span(t, "bench.setup");
    build_sim(k, sim, seed, size, t);
    if (po.reference) sim.use_reference_paths();
    if (po.command_log) sim.attach_command_logs();
    if (po.telemetry) {
      tracer = std::make_unique<telemetry::RequestTracer>(sink);
      intervals = std::make_unique<telemetry::IntervalReporter>(10'000);
      fan.add(tracer.get());
      fan.add(intervals.get());
      sim.one->attach_telemetry(&fan);
    }
  } catch (const Error& e) {
    for (auto& err : r.op_errors) err = std::string("setup: ") + e.what();
    return r;
  }
  const std::uint64_t t1 = now_ns();
  r.setup_s = seconds_between(t0, t1);

  {
    const Scope pass_span(t, "bench.pass");
    for (std::uint64_t i = 0; i < ops; ++i) {
      const std::uint64_t c0 = now_ns();
      try {
        const Scope span(t, "dram.run");
        sim.run(size.chunk);
      } catch (const Error& e) {
        for (std::uint64_t j = i; j < ops; ++j) {
          r.op_errors[j] = std::string("simulation: ") + e.what();
        }
        break;
      }
      if (sim.mgr) {
        if (i + 1 == full_ops) sim.mgr->finalize(sim.channel(0).cycle());
        const dram::ReliabilityCounters& c = sim.mgr->counters();
        if (c.banks_retired != 0) {
          r.op_errors[i] = "oracle: " + std::to_string(c.banks_retired) +
                           " banks retired";
        }
        if (i + 1 == full_ops && !c.balanced()) {
          r.op_errors[i] = "oracle: fault accounting does not balance";
        }
      }
      r.digests[i] = sim.digest();
      r.op_s.push_back(seconds_between(c0, now_ns()));
    }
  }
  r.wall_s = seconds_between(t1, now_ns());
  r.stats = sim.combined();
  double cycles = 0.0;
  for (unsigned i = 0; i < sim.channels(); ++i) {
    const dram::ControllerStats& cs = sim.channel(i).stats();
    cycles += static_cast<double>(cs.cycles);
    r.bus_util += static_cast<double>(cs.data_bus_busy_cycles);
    r.powerdown_frac += static_cast<double>(cs.powerdown_cycles);
  }
  if (cycles > 0.0) {
    r.bus_util /= cycles;
    r.powerdown_frac /= cycles;
  }
  if (sim.mgr) r.rel = sim.mgr->counters();
  for (std::size_t i = 0; i < sim.client_count(); ++i) {
    r.completed += sim.client_stats(i).completed;
    r.stall_cycles += sim.client_stats(i).stall_cycles;
  }
  if (po.command_log) {
    const Scope span(t, "dram.protocol_check");
    const dram::ProtocolChecker checker(sim.cfg,
                                        dram::ViolationPolicy::kCount);
    for (const auto& log : sim.logs) {
      r.commands += log->size();
      r.checker_violations += checker.verify(*log).size();
    }
    if (r.checker_violations != 0 && ops > 0) {
      r.op_errors[ops - 1] = "oracle: " +
                             std::to_string(r.checker_violations) +
                             " protocol violations";
    }
  }
  return r;
}

Outcome timed_sim(Kind k, const RunOptions& o) {
  Outcome out;
  const SimSize size = sim_size(k, false);
  const std::uint64_t start = now_ns();
  SimPass first = sim_pass(k, o.seed, size, nullptr);
  expect_recorded(first.op_errors, first.digests, o);
  BestOps best;
  best.add(first.op_s);
  std::vector<double> pass_wall{first.wall_s};
  std::vector<double> setup{first.setup_s};
  // Later passes are checked against the first and then dropped, so the
  // benchmark's own memory does not grow with the pass count.
  while (pass_wall.size() < kMinPasses ||
         (seconds_between(start, now_ns()) < o.seconds &&
          pass_wall.size() < kMaxPasses)) {
    SimPass p = sim_pass(k, o.seed, size, nullptr);
    gate(p.op_errors, p.digests, first.digests, "the first pass");
    expect_recorded(p.op_errors, p.digests, o);
    count_ops(p.op_errors, out);
    best.add(p.op_s);
    pass_wall.push_back(p.wall_s);
    setup.push_back(p.setup_s);
  }

  // Untimed oracles after the measured loop: the per-cycle reference on a
  // prefix (holds for any seed), and for the soak the decoder roster
  // without reliability, which must complete the same requests.
  PassOptions ref_opts;
  ref_opts.reference = true;
  ref_opts.max_ops = kReferenceOps;
  const SimPass ref = sim_pass(k, o.seed, size, nullptr, ref_opts);
  gate(first.op_errors, first.digests, ref.digests,
       "per-cycle reference stepping");
  if (k == Kind::kSoak) {
    const SimPass decode = sim_pass(Kind::kDecode, o.seed, size, nullptr);
    if (decode.completed != first.completed) {
      first.op_errors.back() =
          "reliability_soak completed " + std::to_string(first.completed) +
          " requests, mpeg2_decode " + std::to_string(decode.completed);
    }
  }
  count_ops(first.op_errors, out);
  out.digest = chain(first.digests);

  const std::size_t n = first.digests.size();
  const double wall_s = best.sum(0, n);
  add(out, "setup_s", median(setup), "s");
  add(out, "wall_s", wall_s, "s");
  add(out, "sim_mcycles_per_s",
      static_cast<double>(size.cycles) / wall_s * 1e-6, "Mcycles/s");
  add(out, "points_per_s", static_cast<double>(n) / wall_s, "1/s");
  add(out, "cold_sweep_s", best.sum(0, n / 2), "s");
  add(out, "refine_sweep_s", best.sum(n / 2, n), "s");
  add(out, "peak_rss_mb", peak_rss_mib(), "MiB");
  std::ostringstream os;
  os << pass_wall.size() << " passes of " << size.cycles << " cycles in " << n
     << " ops; median pass " << median(pass_wall) << " s; "
     << first.completed << " requests completed, bus utilization "
     << first.bus_util;
  out.notes.push_back(os.str());
  return out;
}

// --- explore_sweep -------------------------------------------------------------

struct ExploreCase {
  std::vector<core::SystemConfig> cold;
  std::vector<core::SystemConfig> refine;
  std::vector<int> repeat_of;  ///< per refine point: cold index or -1
  core::EvalWorkload w;
};

/// A design_explorer-style grid (process x interface width x banks x page
/// size, plus discrete widths) and a refinement list in which half the
/// points repeat cold ones and half are their closed-page neighbours.
ExploreCase make_explore(std::uint64_t seed) {
  ExploreCase ec;
  for (const core::BaseProcess p :
       {core::BaseProcess::kDramBased, core::BaseProcess::kLogicBased,
        core::BaseProcess::kMerged}) {
    for (const unsigned width : {64u, 128u, 256u}) {
      for (const unsigned banks : {2u, 4u}) {
        for (const unsigned page : {1024u, 2048u}) {
          core::SystemConfig s;
          s.name = std::string(core::to_string(p)) + "/" +
                   std::to_string(width) + "b/" + std::to_string(banks) +
                   "x" + std::to_string(page);
          s.integration = core::Integration::kEmbedded;
          s.process = p;
          s.interface_bits = width;
          s.banks = banks;
          s.page_bytes = page;
          ec.cold.push_back(s);
        }
      }
    }
  }
  for (const unsigned width : {16u, 32u, 64u, 128u}) {
    core::SystemConfig s;
    s.name = "discrete/" + std::to_string(width) + "b";
    s.integration = core::Integration::kDiscrete;
    s.interface_bits = width;
    ec.cold.push_back(s);
  }

  // Refinement: every grid point again (a store read) and its closed-page
  // neighbour (new: simulate, then append), in an order drawn from the
  // seed. The set of points is the same for every seed, so the work is.
  const std::size_t n = ec.cold.size();
  for (std::size_t i = 0; i < n; ++i) {
    ec.refine.push_back(ec.cold[i]);
    ec.repeat_of.push_back(static_cast<int>(i));
    core::SystemConfig s = ec.cold[i];
    s.page_policy = dram::PagePolicy::kClosed;
    s.name += "/closed";
    ec.refine.push_back(s);
    ec.repeat_of.push_back(-1);
  }
  Rng rng(derive_seed(seed, 0x5eed));
  for (std::size_t i = ec.refine.size(); i > 1; --i) {
    const std::size_t j = rng.next_below(i);
    std::swap(ec.refine[i - 1], ec.refine[j]);
    std::swap(ec.repeat_of[i - 1], ec.repeat_of[j]);
  }

  ec.w.demand_gbyte_s = 2.0;
  ec.w.sim_cycles = 10'000;
  ec.w.warmup_cycles = 5'000;
  ec.w.seed = seed;
  return ec;
}

/// Forwarding store wrapper that spans every find/put (traced run only).
class SpannedStore final : public core::ResultStoreBase {
 public:
  SpannedStore(std::shared_ptr<core::ResultStoreBase> inner, Tracer* t)
      : inner_(std::move(inner)), t_(t) {}
  bool find(std::uint64_t key, core::Metrics* out) override {
    const Scope span(t_, "service.find");
    return inner_->find(key, out);
  }
  void put(std::uint64_t key, const core::Metrics& m) override {
    const Scope span(t_, "service.put");
    inner_->put(key, m);
  }
  core::ResultStoreStats stats() const override { return inner_->stats(); }

 private:
  std::shared_ptr<core::ResultStoreBase> inner_;
  Tracer* t_;
};

struct ExplorePass {
  double setup_s = 0.0;
  double cold_s = 0.0;
  double refine_s = 0.0;
  double reopen_s = 0.0;     ///< the refine session's store reopen
  std::vector<double> op_s;  ///< evaluate + oracles + digest, per point
  std::vector<std::uint64_t> digests;
  std::vector<std::string> op_errors;
  std::vector<core::Metrics> cold_metrics;
  std::uint64_t sim_cycles = 0;
  std::uint64_t answered_by_cache = 0;
  std::vector<bool> answered;  ///< per op, traced passes only
  core::Evaluator::CacheStats cs_cold;
  core::Evaluator::CacheStats cs_refine;
};

/// Cycles the evaluator simulated: every store miss runs the measured
/// window, every new channel shape its warm-up once.
std::uint64_t simulated_cycles(const core::Evaluator::CacheStats& cs,
                               const core::EvalWorkload& w) {
  return cs.store.misses * w.sim_cycles +
         cs.checkpoint_entries * w.warmup_cycles;
}

std::shared_ptr<core::ResultStoreBase> open_store(const std::string& path,
                                                  Tracer* t) {
  std::shared_ptr<core::ResultStoreBase> store;
  {
    const Scope span(t, "service.open");
    store = std::make_shared<service::ResultStore>(path);
  }
  if (t != nullptr) store = std::make_shared<SpannedStore>(store, t);
  return store;
}

std::unique_ptr<core::Evaluator> make_evaluator(
    std::shared_ptr<core::ResultStoreBase> store) {
  auto ev = std::make_unique<core::Evaluator>();
  ev->set_threads(1);
  ev->set_result_store(std::move(store));
  return ev;
}

/// An empty scratch directory for a fresh store (not part of set-up: it
/// is the benchmark's housekeeping, not the program's).
void fresh_dir(const std::string& dir) {
  std::error_code ignored;
  fs::remove_all(dir, ignored);
  fs::create_directories(dir);
}

/// A fresh session: empty store, new evaluator.
void explore_setup(const std::string& dir, Tracer* t,
                   std::shared_ptr<core::ResultStoreBase>& store,
                   std::unique_ptr<core::Evaluator>& ev) {
  const Scope span(t, "bench.setup");
  store = open_store(dir + "/results.edrs", t);
  ev = make_evaluator(store);
}

ExplorePass explore_pass(const ExploreCase& ec, const std::string& dir,
                         Tracer* t) {
  ExplorePass r;
  const std::size_t n = ec.cold.size() + ec.refine.size();
  r.op_errors.assign(n, "");
  r.digests.assign(n, 0);
  r.op_s.assign(n, 0.0);
  r.answered.assign(n, false);

  auto score = [&](const core::Evaluator& ev, const core::SystemConfig& cfg,
                   std::size_t op) -> core::Metrics {
    const std::uint64_t c0 = now_ns();
    core::Metrics m;
    try {
      const Scope span(t, "core.evaluate");
      if (t != nullptr) {
        const core::Evaluator::CacheStats before = ev.cache_stats();
        m = ev.evaluate(cfg, ec.w);
        const core::Evaluator::CacheStats after = ev.cache_stats();
        const bool hit = after.memo_hits > before.memo_hits ||
                         after.store.hits > before.store.hits;
        r.answered[op] = hit;
        r.answered_by_cache += hit ? 1 : 0;
      } else {
        m = ev.evaluate(cfg, ec.w);
      }
    } catch (const Error& e) {
      r.op_errors[op] = cfg.name + ": " + e.what();
      return m;
    }
    r.digests[op] = digest(m);
    if (m.wcet_read_latency_ns > 0.0 &&
        m.worst_read_latency_ns > m.wcet_read_latency_ns) {
      r.op_errors[op] = "oracle: " + cfg.name + " worst read latency " +
                        std::to_string(m.worst_read_latency_ns) +
                        " ns exceeds the WCET bound " +
                        std::to_string(m.wcet_read_latency_ns) + " ns";
    }
    r.op_s[op] = seconds_between(c0, now_ns());
    return m;
  };

  fresh_dir(dir);
  const std::uint64_t t0 = now_ns();
  std::shared_ptr<core::ResultStoreBase> store;
  std::unique_ptr<core::Evaluator> ev;
  explore_setup(dir, t, store, ev);
  const std::uint64_t t1 = now_ns();
  r.setup_s = seconds_between(t0, t1);
  {
    const Scope span(t, "bench.cold");
    for (std::size_t i = 0; i < ec.cold.size(); ++i) {
      r.cold_metrics.push_back(score(*ev, ec.cold[i], i));
    }
    r.cs_cold = ev->cache_stats();
  }
  const std::uint64_t t2 = now_ns();
  r.cold_s = seconds_between(t1, t2);
  {
    // A new session: drop the first evaluator and store, reopen the log.
    const Scope span(t, "bench.refine");
    ev.reset();
    store.reset();
    store = open_store(dir + "/results.edrs", t);
    ev = make_evaluator(store);
    r.reopen_s = seconds_between(t2, now_ns());
    for (std::size_t i = 0; i < ec.refine.size(); ++i) {
      const std::size_t op = ec.cold.size() + i;
      score(*ev, ec.refine[i], op);
      const int rep = ec.repeat_of[i];
      if (rep >= 0 && r.op_errors[op].empty() &&
          r.digests[op] != r.digests[static_cast<std::size_t>(rep)]) {
        r.op_errors[op] = "store read of " + ec.refine[i].name +
                          " differs from its cold result";
      }
    }
    r.cs_refine = ev->cache_stats();
  }
  r.refine_s = seconds_between(t2, now_ns());
  r.sim_cycles = simulated_cycles(r.cs_cold, ec.w) +
                 simulated_cycles(r.cs_refine, ec.w);
  ev.reset();
  store.reset();
  std::error_code ignored;
  fs::remove_all(dir, ignored);
  return r;
}

/// The evaluator's reference path (no arenas, memo, checkpoints, store or
/// burst issue) on the first few cold points: an oracle that needs no
/// recorded digest, so it holds for any seed.
void explore_reference(const ExploreCase& ec, ExplorePass& p,
                       std::size_t points) {
  core::Evaluator ref;
  ref.set_threads(1);
  ref.set_workload_arena(false);
  ref.set_memoize(false);
  ref.set_checkpoint(false);
  ref.set_burst_issue(false);
  for (std::size_t i = 0; i < points && i < ec.cold.size(); ++i) {
    if (!p.op_errors[i].empty()) continue;
    if (digest(ref.evaluate(ec.cold[i], ec.w)) != p.digests[i]) {
      p.op_errors[i] = "digest of " + ec.cold[i].name +
                       " differs from the evaluator's reference path";
    }
  }
}

std::string scratch_dir(const RunOptions& o, const std::string& tag) {
  return o.out_dir + "/scratch-" + tag + "-" + std::to_string(getpid());
}

Outcome timed_explore(const RunOptions& o) {
  Outcome out;
  const ExploreCase ec = make_explore(o.seed);
  const std::string dir = scratch_dir(o, "explore");
  const std::uint64_t start = now_ns();
  ExplorePass first = explore_pass(ec, dir, nullptr);
  expect_recorded(first.op_errors, first.digests, o);
  BestOps best;
  best.add(first.op_s);
  double reopen_s = first.reopen_s;
  std::vector<double> pass_wall{first.cold_s + first.refine_s};
  std::vector<double> setup{first.setup_s};
  while (pass_wall.size() < kMinPasses ||
         (seconds_between(start, now_ns()) < o.seconds &&
          pass_wall.size() < kMaxPasses)) {
    ExplorePass p = explore_pass(ec, dir, nullptr);
    gate(p.op_errors, p.digests, first.digests, "the first pass");
    expect_recorded(p.op_errors, p.digests, o);
    count_ops(p.op_errors, out);
    best.add(p.op_s);
    reopen_s = std::min(reopen_s, p.reopen_s);
    pass_wall.push_back(p.cold_s + p.refine_s);
    setup.push_back(p.setup_s);
  }
  explore_reference(ec, first, 4);
  count_ops(first.op_errors, out);
  out.digest = chain(first.digests);

  const std::size_t nc = ec.cold.size();
  const std::size_t n = first.digests.size();
  const double cold_s = best.sum(0, nc);
  const double refine_s = reopen_s + best.sum(nc, n);
  const double wall_s = cold_s + refine_s;
  add(out, "setup_s", median(setup), "s");
  add(out, "wall_s", wall_s, "s");
  add(out, "sim_mcycles_per_s",
      static_cast<double>(first.sim_cycles) / wall_s * 1e-6, "Mcycles/s");
  add(out, "points_per_s", static_cast<double>(n) / wall_s, "1/s");
  add(out, "cold_sweep_s", cold_s, "s");
  add(out, "refine_sweep_s", refine_s, "s");
  add(out, "peak_rss_mb", peak_rss_mib(), "MiB");
  std::ostringstream os;
  os << pass_wall.size() << " passes of " << n << " points (" << nc
     << " cold + " << ec.refine.size() << " refine); median pass "
     << median(pass_wall) << " s; " << first.sim_cycles
     << " cycles simulated per pass";
  out.notes.push_back(os.str());
  return out;
}

// --- traced run ------------------------------------------------------------------

using LayerMetrics = std::map<std::string, Metric>;

void put(LayerMetrics& m, const std::string& name, double v,
         const std::string& unit) {
  m[name] = Metric{name, v, unit};
}

double duration_s(const Span& s) {
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

/// Durations of the spans among [begin, end) whose name starts with
/// `prefix`.
std::vector<double> durations_s(const Tracer& t, const std::string& prefix,
                                std::size_t begin, std::size_t end) {
  std::vector<double> out;
  for (std::size_t i = begin; i < end; ++i) {
    if (t.spans()[i].name.rfind(prefix, 0) == 0) {
      out.push_back(duration_s(t.spans()[i]));
    }
  }
  return out;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

/// Traced passes of a simulation workload, alternated with the untraced
/// passes each overhead ratio compares them against (so drift in host
/// speed hits both sides); each ratio compares per-op best times, as the
/// end-to-end metrics do. The per-layer figures come from the first
/// traced pass: clients/dram/mpeg/reliability/telemetry metrics.
void traced_sim(Kind k, const RunOptions& o, bool companion, Tracer& t,
                Outcome& out, LayerMetrics& m) {
  const SimSize size = sim_size(k, companion);
  PassOptions po;
  po.command_log = k != Kind::kSoak;
  const std::string label =
      std::string(companion ? "companion " : "") + name_of(k);
  std::vector<SimPass> bases;
  SimPass traced;
  std::size_t begin = 0;
  std::size_t end = 0;
  BestOps base_ops, traced_ops, telemetry_ops, detached_ops;
  for (int rep = 0; rep < kOverheadReps; ++rep) {
    bases.push_back(sim_pass(k, o.seed, size, nullptr));
    SimPass& b = bases.back();
    if (rep > 0) {
      gate(b.op_errors, b.digests, bases.front().digests, "the first pass");
    }
    base_ops.add(b.op_s);

    t.begin_run(label + " pass " + std::to_string(rep + 1));
    const std::size_t first_span = t.spans().size();
    SimPass tp = sim_pass(k, o.seed, size, &t, po);
    gate(tp.op_errors, tp.digests, b.digests, "the untraced pass");
    count_ops(tp.op_errors, out);
    traced_ops.add(tp.op_s);
    if (rep == 0) {
      traced = std::move(tp);
      begin = first_span;
      end = t.spans().size();
    }

    if (k == Kind::kDecode) {
      PassOptions tel;
      tel.telemetry = true;
      SimPass with = sim_pass(k, o.seed, size, nullptr, tel);
      gate(with.op_errors, with.digests, b.digests,
           "the detached-telemetry pass");
      count_ops(with.op_errors, out);
      telemetry_ops.add(with.op_s);
    }
    if (k == Kind::kSoak) {
      // The decoder roster without the manager: same seed, same length.
      const SimPass detached =
          sim_pass(Kind::kDecode, o.seed, size, nullptr);
      count_ops(detached.op_errors, out);
      if (detached.completed != b.completed && !b.op_errors.empty()) {
        b.op_errors.back() = "reliability_soak completed " +
                             std::to_string(b.completed) +
                             " requests, mpeg2_decode " +
                             std::to_string(detached.completed);
      }
      detached_ops.add(detached.op_s);
    }
  }
  SimPass& base = bases.front();
  if (!companion) expect_recorded(base.op_errors, base.digests, o);
  for (const SimPass& b : bases) count_ops(b.op_errors, out);
  const std::size_t ops = base.digests.size();
  const double base_s = base_ops.sum(0, ops);
  put(m, "bench.trace_overhead", traced_ops.sum(0, ops) / base_s, "ratio");

  std::vector<double> chunks = durations_s(t, "dram.run", begin, end);
  const double run_s = sum(chunks);
  std::sort(chunks.begin(), chunks.end());
  const std::size_t n = chunks.size();
  // The tail is the highest percentile with at least 10 chunks beyond it.
  const std::size_t tail_idx = n > 10 ? n - 11 : 0;

  if (k == Kind::kDense) {
    put(m, "clients.compile_ms",
        sum(durations_s(t, "clients.compile_", begin, end)) * 1e3, "ms");
  } else {
    put(m, "mpeg.add_clients_ms",
        sum(durations_s(t, "mpeg.add_decoder_clients", begin, end)) * 1e3,
        "ms");
  }
  put(m, "clients.completed", static_cast<double>(traced.completed), "count");
  put(m, "clients.stall_cycles", static_cast<double>(traced.stall_cycles),
      "cycles");
  put(m, "dram.run_s", run_s, "s");
  put(m, "dram.host_ns_per_request",
      traced.completed ? run_s * 1e9 / static_cast<double>(traced.completed)
                       : 0.0,
      "ns");
  put(m, "dram.chunk_p50_ms", median(chunks) * 1e3, "ms");
  put(m, "dram.chunk_tail_ms", n ? chunks[tail_idx] * 1e3 : 0.0, "ms");
  put(m, "dram.chunk_tail_pct",
      n > 10 ? 100.0 * static_cast<double>(n - 10) / static_cast<double>(n)
             : 0.0,
      "%");
  put(m, "dram.chunks", static_cast<double>(n), "count");
  put(m, "dram.row_hit_rate", traced.stats.row_hit_rate(), "fraction");
  put(m, "dram.bus_util", traced.bus_util, "fraction");
  put(m, "dram.powerdown_frac", traced.powerdown_frac, "fraction");
  put(m, "dram.activations", static_cast<double>(traced.stats.activations),
      "count");
  put(m, "dram.refreshes", static_cast<double>(traced.stats.refreshes),
      "count");
  if (po.command_log) {
    put(m, "dram.checker_violations",
        static_cast<double>(traced.checker_violations), "count");
    out.notes.push_back(label + ": " + std::to_string(traced.commands) +
                        " commands replayed through the protocol checker, " +
                        std::to_string(traced.checker_violations) +
                        " violations");
  }
  if (k == Kind::kDecode) {
    put(m, "telemetry.attached_overhead", telemetry_ops.sum(0, ops) / base_s,
        "ratio");
    ++out.attempted;
    if (!roster_matches_library(size.cycles)) {
      ++out.failed;
      out.notes.push_back(
          "the seeded decoder roster no longer matches add_decoder_clients");
    }
  }
  if (k == Kind::kSoak) {
    put(m, "reliability.run_overhead", base_s / detached_ops.sum(0, ops),
        "ratio");
    const dram::ReliabilityCounters& c = traced.rel;
    put(m, "reliability.injected", static_cast<double>(c.injected), "count");
    put(m, "reliability.corrected", static_cast<double>(c.corrected),
        "count");
    put(m, "reliability.uncorrected", static_cast<double>(c.uncorrected),
        "count");
    put(m, "reliability.rows_remapped", static_cast<double>(c.rows_remapped),
        "count");
    put(m, "reliability.banks_retired", static_cast<double>(c.banks_retired),
        "count");
    put(m, "reliability.maint_ops", static_cast<double>(c.maint_ops),
        "count");
  }
  if (!companion) out.digest = chain(base.digests);
}

/// Traced explore_sweep passes (alternated with untraced ones), then
/// direct spans around the analytic layers the evaluator calls (WCET,
/// cost, module compiler, power/thermal), the warm-up checkpoint, and one
/// warm shape's snapshot save/restore.
void traced_explore(const RunOptions& o, bool companion, Tracer& t,
                    Outcome& out, LayerMetrics& m) {
  const std::uint64_t seed = o.seed;
  const ExploreCase ec = make_explore(seed);
  const std::string dir = scratch_dir(o, "trace");
  const std::string label =
      std::string(companion ? "companion " : "") + "explore_sweep";
  std::vector<ExplorePass> bases;
  ExplorePass traced;
  std::size_t begin = 0;
  std::size_t end = 0;
  BestOps base_ops, traced_ops;
  for (int rep = 0; rep < kOverheadReps; ++rep) {
    bases.push_back(explore_pass(ec, dir, nullptr));
    ExplorePass& b = bases.back();
    if (rep > 0) {
      gate(b.op_errors, b.digests, bases.front().digests, "the first pass");
    }
    base_ops.add(b.op_s);

    t.begin_run(label + " pass " + std::to_string(rep + 1));
    const std::size_t first_span = t.spans().size();
    ExplorePass tp = explore_pass(ec, dir, &t);
    gate(tp.op_errors, tp.digests, b.digests, "the untraced pass");
    count_ops(tp.op_errors, out);
    traced_ops.add(tp.op_s);
    if (rep == 0) {
      traced = std::move(tp);
      begin = first_span;
      end = t.spans().size();
    }
  }
  ExplorePass& base = bases.front();
  if (!companion) expect_recorded(base.op_errors, base.digests, o);
  for (const ExplorePass& b : bases) count_ops(b.op_errors, out);
  const std::size_t ops = base.digests.size();
  put(m, "bench.trace_overhead",
      traced_ops.sum(0, ops) / base_ops.sum(0, ops), "ratio");

  // Split evaluate() calls by whether cache_stats() showed a cache (memo
  // or store) answering them.
  std::vector<double> miss_s, hit_s;
  std::size_t call = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const Span& s = t.spans()[i];
    if (s.name != "core.evaluate") continue;
    (traced.answered[call++] ? hit_s : miss_s).push_back(duration_s(s));
  }
  const std::vector<double> open_s =
      durations_s(t, "service.open", begin, end);
  put(m, "core.evaluate_miss_ms", median(miss_s) * 1e3, "ms");
  put(m, "core.evaluate_hit_us", median(hit_s) * 1e6, "us");
  const core::Evaluator::CacheStats& a = traced.cs_cold;
  const core::Evaluator::CacheStats& b = traced.cs_refine;
  put(m, "core.memo_hits", static_cast<double>(a.memo_hits + b.memo_hits),
      "count");
  put(m, "core.arena_hits", static_cast<double>(a.arena_hits + b.arena_hits),
      "count");
  put(m, "core.arena_misses",
      static_cast<double>(a.arena_misses + b.arena_misses), "count");
  put(m, "core.checkpoint_hits",
      static_cast<double>(a.checkpoint_hits + b.checkpoint_hits), "count");
  put(m, "core.checkpoint_bytes",
      static_cast<double>(a.checkpoint_bytes + b.checkpoint_bytes), "bytes");
  const double asked = static_cast<double>(traced.digests.size());
  put(m, "core.cache_answer_ratio",
      static_cast<double>(traced.answered_by_cache) / asked, "fraction");
  put(m, "core.points_asked", asked, "count");
  // The reopen replays the cold session's log; the first open is empty.
  put(m, "service.open_ms", open_s.empty() ? 0.0 : open_s.back() * 1e3, "ms");
  put(m, "service.find_us",
      median(durations_s(t, "service.find", begin, end)) * 1e6, "us");
  put(m, "service.put_us",
      median(durations_s(t, "service.put", begin, end)) * 1e6, "us");
  put(m, "service.hits", static_cast<double>(a.store.hits + b.store.hits),
      "count");
  put(m, "service.misses",
      static_cast<double>(a.store.misses + b.store.misses), "count");
  put(m, "service.bytes_written",
      static_cast<double>(a.store.bytes_written + b.store.bytes_written),
      "bytes");

  t.begin_run(label + " layer calls");
  const std::size_t calls = t.spans().size();
  auto call_median = [&](const std::string& name) {
    return median(durations_s(t, name, calls, t.spans().size()));
  };
  // Warm-up checkpoints on a fresh evaluator: each call simulates the
  // warm-up prefix of a new channel shape and seals its snapshot.
  {
    const core::Evaluator fresh;
    for (std::size_t i = 0; i < ec.cold.size(); i += 5) {
      const Scope span(&t, "core.warmup_checkpoint");
      fresh.warmup_checkpoint(ec.cold[i], ec.w);
    }
  }
  put(m, "core.warmup_checkpoint_ms", call_median("core.warmup_checkpoint") * 1e3,
      "ms");

  // The analytic layers, called directly on every cold point.
  const core::CostModel cost;
  for (std::size_t i = 0; i < ec.cold.size(); ++i) {
    const core::SystemConfig& cfg = ec.cold[i];
    const core::Metrics& cm = base.cold_metrics[i];
    const dram::DramConfig dcfg = cfg.dram_config();
    const unsigned clients = ec.w.stream_clients + ec.w.random_clients;
    const double bytes_per_cycle = ec.w.demand_gbyte_s * 1e9 /
                                   static_cast<double>(clients) /
                                   dcfg.clock.hz();
    const unsigned period = std::max<unsigned>(
        1, static_cast<unsigned>(dcfg.bytes_per_access() / bytes_per_cycle));
    std::vector<core::WcetClient> wc;
    for (unsigned c = 0; c < clients; ++c) wc.push_back({c, period, 0});
    {
      const Scope span(&t, "core.analyze_wcet");
      core::analyze_wcet(dcfg, wc);
    }
    {
      const Scope span(&t, "core.cost_model");
      cost.evaluate(cfg, cm.memory_area_mm2, cm.logic_area_mm2);
    }
    if (cfg.integration == core::Integration::kEmbedded) {
      modulegen::ModuleSpec spec;
      spec.capacity = cfg.installed_memory();
      spec.interface_bits = cfg.interface_bits;
      spec.banks = cfg.banks;
      spec.page_bytes = cfg.page_bytes;
      const Scope span(&t, "modulegen.compile");
      modulegen::ModuleCompiler{}.compile(spec);
    }
  }
  put(m, "core.wcet_us", call_median("core.analyze_wcet") * 1e6, "us");
  put(m, "core.cost_us", call_median("core.cost_model") * 1e6, "us");
  put(m, "modulegen.compile_us", call_median("modulegen.compile") * 1e6, "us");

  // One warm shape (the first grid point's channel under an evaluator-
  // style stream + random mix): snapshot save/restore, then the power and
  // thermal models on its measured counters.
  {
    const dram::DramConfig dcfg = ec.cold.front().dram_config();
    auto build = [&] {
      auto sys = std::make_unique<clients::MemorySystem>(
          dcfg, clients::ArbiterKind::kRoundRobin);
      const std::uint64_t region = 1u << 20;
      const std::uint64_t budget =
          (ec.w.warmup_cycles + ec.w.sim_cycles) / 8 + 2;
      clients::StreamClient::Params sp;
      sp.length = region;
      sp.burst_bytes = dcfg.bytes_per_access();
      sp.period_cycles = 8;
      sys->add_client(std::make_unique<clients::ArenaReplayClient>(
          0, "stream0", clients::compile_stream(sp, budget)));
      clients::RandomClient::Params rp;
      rp.base = region;
      rp.length = region;
      rp.burst_bytes = dcfg.bytes_per_access();
      rp.period_cycles = 8;
      rp.seed = seed;
      sys->add_client(std::make_unique<clients::ArenaReplayClient>(
          1, "random0", clients::compile_random(rp, budget)));
      return sys;
    };
    auto warm = build();
    warm->run(ec.w.warmup_cycles);
    std::vector<std::uint8_t> blob;
    std::unique_ptr<clients::MemorySystem> restored;
    for (int rep = 0; rep < 11; ++rep) {
      {
        const Scope span(&t, "common.snapshot_save");
        blob = warm->save_snapshot();
      }
      restored = build();
      {
        const Scope span(&t, "common.snapshot_restore");
        restored->restore_snapshot(blob);
      }
    }
    put(m, "common.snapshot_save_ms", call_median("common.snapshot_save") * 1e3,
        "ms");
    put(m, "common.snapshot_restore_ms",
        call_median("common.snapshot_restore") * 1e3, "ms");
    put(m, "common.snapshot_bytes", static_cast<double>(blob.size()),
        "bytes");
    warm->run(ec.w.sim_cycles);
    restored->run(ec.w.sim_cycles);
    ContentHasher hw, hr;
    mix(hw, warm->controller().stats());
    mix(hr, restored->controller().stats());
    ++out.attempted;
    if (hw.digest() != hr.digest()) {
      ++out.failed;
      out.notes.push_back("restored snapshot diverged from the warm system");
    }

    const phy::InterfaceModel iface(dcfg.interface_bits, dcfg.clock,
                                    phy::on_chip_wire());
    const power::DramPowerModel pm(power::core_energy_sdram_025um(),
                                   iface.energy_per_bit_j());
    const power::ThermalLoop loop(power::ThermalModel{},
                                  power::RetentionModel{});
    const double nominal = static_cast<double>(dcfg.timing.tRFC) /
                           static_cast<double>(dcfg.timing.tREFI);
    for (int rep = 0; rep < 41; ++rep) {
      const Scope span(&t, "power.model");
      const power::PowerBreakdown pb =
          pm.evaluate(warm->controller().stats(), dcfg);
      loop.solve(1.0 + (pb.total_mw() - pb.refresh_mw) * 1e-3,
                 pb.refresh_mw * 1e-3, nominal);
    }
    put(m, "power.model_us", call_median("power.model") * 1e6, "us");
  }

  if (!companion) out.digest = chain(base.digests);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "mpeg2_decode", "dense_mix", "explore_sweep", "reliability_soak"};
  return names;
}

Outcome run_timed(const RunOptions& o) {
  const Kind k = kind_of(o.workload);
  return k == Kind::kExplore ? timed_explore(o) : timed_sim(k, o);
}

Outcome run_traced(const RunOptions& o, Tracer& tracer) {
  Outcome out;
  LayerMetrics own;
  const Kind k = kind_of(o.workload);
  const std::uint64_t t0 = now_ns();
  if (k == Kind::kExplore) {
    traced_explore(o, false, tracer, out, own);
  } else {
    traced_sim(k, o, false, tracer, out, own);
  }
  put(own, "bench.traced_run_s", seconds_between(t0, now_ns()), "s");

  // Companion passes for the layers this workload does not reach; a
  // metric comes from the first pass that reports it, the workload's own
  // pass first.
  for (const Kind c :
       {Kind::kDecode, Kind::kDense, Kind::kSoak, Kind::kExplore}) {
    if (c == k) continue;
    LayerMetrics extra;
    if (c == Kind::kExplore) {
      traced_explore(o, true, tracer, out, extra);
    } else {
      traced_sim(c, o, true, tracer, out, extra);
    }
    for (auto& [name, metric] : extra) own.emplace(name, metric);
  }
  for (auto& [name, metric] : own) out.metrics.push_back(metric);
  for (const auto& [layer, self_s] : tracer.layer_self_s()) {
    std::ostringstream os;
    os << "self time " << layer << ": " << self_s << " s";
    out.notes.push_back(os.str());
  }
  return out;
}

}  // namespace edbench
