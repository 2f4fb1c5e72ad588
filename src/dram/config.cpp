#include "dram/config.hpp"

#include <bit>
#include <cstdio>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace edsim::dram {

namespace {
bool is_pow2(unsigned v) { return v != 0 && std::has_single_bit(v); }
}  // namespace

void DramConfig::validate() const {
  timing.validate();
  require(is_pow2(banks), "dram: banks must be a power of two");
  require(banks <= 64, "dram: banks > 64 is not a realistic organization");
  require(is_pow2(rows_per_bank), "dram: rows_per_bank must be a power of two");
  require(is_pow2(page_bytes), "dram: page_bytes must be a power of two");
  require(interface_bits >= 8 && interface_bits <= 1024,
          "dram: interface width out of range [8, 1024]");
  require(is_pow2(interface_bits), "dram: interface width must be power of two");
  require(interface_bits % 8 == 0, "dram: interface width must be whole bytes");
  require(page_bytes >= bytes_per_beat(),
          "dram: page shorter than one data beat");
  require(page_bytes % bytes_per_beat() == 0,
          "dram: page length must be a multiple of the beat width");
  require(bytes_per_access() <= page_bytes,
          "dram: one burst must fit within a page");
  require(clock.mhz > 0.0, "dram: clock must be positive");
  require(queue_depth >= 1, "dram: queue_depth must be >= 1");
  // The controller sizes its queue position masks from queue_depth (and
  // tdm_clients below) up front.
  require(queue_depth <= 4096,
          "dram: queue_depth > 4096 is not a realistic controller queue");
  require(transfers_per_clock == 1 || transfers_per_clock == 2 ||
              transfers_per_clock == 4,
          "dram: transfers_per_clock must be 1 (SDR), 2 (DDR) or 4");
  require(refresh_burst >= 1 && refresh_burst <= 64,
          "dram: refresh_burst must be in 1..64");
  if (page_policy == PagePolicy::kTimeout) {
    require(page_timeout_cycles >= 1,
            "dram: page_timeout_cycles must be >= 1");
  }
  if (powerdown_enabled) {
    require(powerdown_idle_cycles >= 1,
            "dram: powerdown_idle_cycles must be >= 1");
    require(tXP >= 1, "dram: tXP must be >= 1");
  }
  if (ecc_enabled) {
    require(ecc_word_bits >= 1 && ecc_word_bits <= 64,
            "dram: ecc_word_bits must be 1..64");
    require(static_cast<std::uint64_t>(page_bytes) * 8 % ecc_word_bits == 0,
            "dram: page must hold a whole number of ECC words");
  }
  if (watchdog_enabled) {
    require(watchdog_cycles >= 1, "dram: watchdog_cycles must be >= 1");
  }
  if (scheduler == SchedulerKind::kTdm) {
    require(tdm_slot_cycles >= 1, "dram: tdm_slot_cycles must be >= 1");
    require(tdm_clients >= 1, "dram: tdm_clients must be >= 1");
    require(tdm_clients <= 1024,
            "dram: tdm_clients > 1024 slots is not a realistic rotation");
  }
}

std::uint64_t DramConfig::content_hash() const {
  ContentHasher h;
  h.mix(banks)
      .mix(rows_per_bank)
      .mix(page_bytes)
      .mix(interface_bits)
      .mix(transfers_per_clock)
      .mix(timing.tRCD)
      .mix(timing.tRP)
      .mix(timing.tCL)
      .mix(timing.tWL)
      .mix(timing.tRAS)
      .mix(timing.tRC)
      .mix(timing.tRRD)
      .mix(timing.tFAW)
      .mix(timing.tCCD)
      .mix(timing.tWR)
      .mix(timing.tWTR)
      .mix(timing.tRTW)
      .mix(timing.tRFC)
      .mix(timing.tREFI)
      .mix(timing.burst_length)
      .mix(clock.mhz)
      .mix(static_cast<unsigned>(page_policy))
      .mix(page_timeout_cycles)
      .mix(static_cast<unsigned>(scheduler))
      .mix(static_cast<unsigned>(mapping))
      .mix(queue_depth)
      .mix(tdm_slot_cycles)
      .mix(tdm_clients)
      .mix(refresh_enabled)
      .mix(refresh_burst)
      .mix(powerdown_enabled)
      .mix(powerdown_idle_cycles)
      .mix(tXP)
      .mix(ecc_enabled)
      .mix(ecc_word_bits)
      .mix(ecc_latency_cycles)
      .mix(watchdog_enabled)
      .mix(watchdog_cycles)
      .mix(watchdog_retries);
  return h.digest();
}

const char* to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFcfs: return "fcfs";
    case SchedulerKind::kFcfsPerBank: return "fcfs-per-bank";
    case SchedulerKind::kFrFcfs: return "fr-fcfs";
    case SchedulerKind::kReadFirst: return "read-first";
    case SchedulerKind::kTdm: return "tdm";
  }
  return "?";
}

const char* to_string(AddressMapping mapping) {
  switch (mapping) {
    case AddressMapping::kRowBankCol: return "row:bank:col";
    case AddressMapping::kBankRowCol: return "bank:row:col";
    case AddressMapping::kRowColBank: return "row:col:bank";
    case AddressMapping::kPermutedBank: return "permuted-bank";
  }
  return "?";
}

std::string DramConfig::describe() const {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "%s, %u banks x %u rows x %uB pages, %u-bit @ %.0f MHz, "
                "peak %.2f GB/s, %s/%s",
                to_string(capacity()).c_str(), banks, rows_per_bank,
                page_bytes, interface_bits, clock.mhz,
                peak_bandwidth().as_gbyte_per_s(), to_string(scheduler),
                to_string(mapping));
  return buf;
}

}  // namespace edsim::dram
