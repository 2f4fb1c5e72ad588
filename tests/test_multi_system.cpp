#include "clients/multi_system.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/error.hpp"
#include "dram/presets.hpp"
#include "reliability/manager.hpp"

namespace edsim::clients {
namespace {

dram::DramConfig chan() {
  dram::DramConfig c = dram::presets::edram_module(16, 64, 4, 2048);
  c.refresh_enabled = false;
  return c;
}

TEST(MultiChannelSystem, ClientsCompleteEverythingIssued) {
  MultiChannelSystem sys(chan(), 4, dram::ChannelInterleave::kBurst,
                         ArbiterKind::kRoundRobin);
  const unsigned burst = chan().bytes_per_access();
  for (unsigned i = 0; i < 3; ++i) {
    StreamClient::Params p;
    p.base = (1u << 21) * i;
    p.length = 1 << 21;
    p.burst_bytes = burst;
    p.total_requests = 2000;
    sys.add_client(std::make_unique<StreamClient>(i, "s", p));
  }
  sys.run(60'000);
  for (unsigned i = 0; i < 3; ++i) {
    EXPECT_EQ(sys.client_stats(i).issued, 2000u) << i;
    EXPECT_EQ(sys.client_stats(i).completed, 2000u) << i;
  }
}

TEST(MultiChannelSystem, OutperformsSingleChannelOnParallelStreams) {
  auto throughput = [](unsigned channels) {
    MultiChannelSystem sys(chan(), channels,
                           dram::ChannelInterleave::kBurst,
                           ArbiterKind::kRoundRobin);
    const unsigned burst = chan().bytes_per_access();
    for (unsigned i = 0; i < 8; ++i) {
      StreamClient::Params p;
      p.base = (1u << 20) * i;
      p.length = 1 << 20;
      p.burst_bytes = burst;
      sys.add_client(std::make_unique<StreamClient>(i, "s", p));
    }
    sys.run(80'000);
    return sys.aggregate_bandwidth().as_gbyte_per_s();
  };
  const double one = throughput(1);
  const double four = throughput(4);
  EXPECT_GT(four, one * 2.5);
}

TEST(MultiChannelSystem, ParkedRequestsAreNotDropped) {
  // A tiny queue forces frequent back-pressure; conservation must hold.
  dram::DramConfig c = chan();
  c.queue_depth = 2;
  MultiChannelSystem sys(c, 2, dram::ChannelInterleave::kBurst,
                         ArbiterKind::kFixedPriority);
  const unsigned burst = c.bytes_per_access();
  StreamClient::Params p;
  p.length = 1 << 20;
  p.burst_bytes = burst;
  p.total_requests = 1500;
  sys.add_client(std::make_unique<StreamClient>(0, "s", p));
  sys.run(80'000);
  EXPECT_EQ(sys.client_stats(0).completed, 1500u);
  EXPECT_GT(sys.client_stats(0).stall_cycles, 0u);
}

TEST(MultiChannelSystem, EfficiencyWithinUnit) {
  MultiChannelSystem sys(chan(), 2, dram::ChannelInterleave::kPage,
                         ArbiterKind::kRoundRobin);
  StreamClient::Params p;
  p.length = 1 << 21;
  p.burst_bytes = chan().bytes_per_access();
  sys.add_client(std::make_unique<StreamClient>(0, "s", p));
  sys.run(30'000);
  EXPECT_GT(sys.bandwidth_efficiency(), 0.0);
  EXPECT_LE(sys.bandwidth_efficiency(), 1.0);
}

TEST(MultiChannelSystem, CreditsEccOutcomesToClients) {
  // A fault storm on channel 0: the ECC outcomes its demand reads carry
  // must reach the per-client counters, as they do through MemorySystem.
  dram::DramConfig c = chan();
  c.ecc_enabled = true;
  MultiChannelSystem sys(c, 2, dram::ChannelInterleave::kPage,
                         ArbiterKind::kRoundRobin);
  reliability::ReliabilityConfig rc;
  rc.inject.transient_per_mbit_ms = 200.0;
  reliability::ReliabilityManager rel(c, rc);
  sys.memory().channel(0).attach_reliability(&rel);
  for (unsigned i = 0; i < 2; ++i) {
    StreamClient::Params p;
    p.base = (1u << 21) * i;
    p.length = 1 << 21;
    p.burst_bytes = c.bytes_per_access();
    sys.add_client(std::make_unique<StreamClient>(i, "s", p));
  }
  sys.run(200'000);
  std::uint64_t corrected = 0;
  for (unsigned i = 0; i < 2; ++i) {
    corrected += sys.client_stats(i).corrected_errors;
  }
  EXPECT_GT(corrected, 0u);
  // One request may carry several SEC events, never the reverse.
  EXPECT_LE(corrected, rel.counters().demand_corrections);
}

TEST(MultiChannelSystem, RejectsNullClient) {
  MultiChannelSystem sys(chan(), 2, dram::ChannelInterleave::kBurst,
                         ArbiterKind::kRoundRobin);
  EXPECT_THROW(sys.add_client(nullptr), edsim::ConfigError);
}

}  // namespace
}  // namespace edsim::clients
