#include "dram/presets.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace edsim::dram {
namespace {

TEST(Presets, Pc100Geometry) {
  const DramConfig c = presets::sdram_pc100_64mbit();
  EXPECT_EQ(c.capacity(), Capacity::mbit(64));
  EXPECT_EQ(c.interface_bits, 16u);
  EXPECT_EQ(c.clock.mhz, 100.0);
  EXPECT_NEAR(c.peak_bandwidth().as_gbyte_per_s(), 0.2, 1e-9);
}

TEST(Presets, FourMbitPart) {
  const DramConfig c = presets::sdram_pc100_4mbit();
  EXPECT_EQ(c.capacity(), Capacity::mbit(4));
  EXPECT_EQ(c.interface_bits, 16u);
}

TEST(Presets, EdramModuleGeometryDerivation) {
  const DramConfig c = presets::edram_module(16, 256, 4, 2048);
  EXPECT_EQ(c.capacity(), Capacity::mbit(16));
  EXPECT_EQ(c.banks, 4u);
  EXPECT_EQ(c.page_bytes, 2048u);
  EXPECT_EQ(c.rows_per_bank, 256u);  // 16 Mbit / 4 banks / 2 KB pages
  EXPECT_EQ(c.clock.mhz, 143.0);
}

TEST(Presets, EdramPeakBandwidthAt512Bits) {
  // §5: "a maximum bandwidth per module of about 9 Gbyte/s" — 512 bits at
  // 143 MHz is 9.15 GB/s.
  const DramConfig c = presets::edram_module(64, 512, 8, 4096);
  EXPECT_NEAR(c.peak_bandwidth().as_gbyte_per_s(), 9.15, 0.05);
}

TEST(Presets, EdramRejectsOutOfEnvelopeWidth) {
  EXPECT_THROW(presets::edram_module(16, 8, 4, 2048), ConfigError);
  EXPECT_THROW(presets::edram_module(16, 1024, 4, 2048), ConfigError);
}

TEST(Presets, EdramRejectsNonDividingGeometry) {
  // 3 Mbit into 4 banks of 2 KB pages -> 48 rows: not a power of two.
  EXPECT_THROW(presets::edram_module(3, 256, 4, 2048), ConfigError);
}

TEST(Presets, Edram256Bit16MbitConvenience) {
  const DramConfig c = presets::edram_256bit_16mbit();
  EXPECT_EQ(c.capacity(), Capacity::mbit(16));
  EXPECT_EQ(c.interface_bits, 256u);
  // The §1 "4 Gbyte/s class" module.
  EXPECT_GT(c.peak_bandwidth().as_gbyte_per_s(), 4.0);
}

TEST(DramConfig, ValidationCatchesBadGeometry) {
  DramConfig c = presets::sdram_pc100_64mbit();
  c.banks = 3;
  EXPECT_THROW(c.validate(), ConfigError);
  c = presets::sdram_pc100_64mbit();
  c.interface_bits = 24;
  EXPECT_THROW(c.validate(), ConfigError);
  c = presets::sdram_pc100_64mbit();
  c.page_bytes = 6;
  EXPECT_THROW(c.validate(), ConfigError);
  c = presets::sdram_pc100_64mbit();
  c.queue_depth = 0;
  EXPECT_THROW(c.validate(), ConfigError);
  c.queue_depth = 4096;
  EXPECT_NO_THROW(c.validate());
  c.queue_depth = 4097;
  EXPECT_THROW(c.validate(), ConfigError);
  c = presets::sdram_pc100_64mbit();
  c.scheduler = SchedulerKind::kTdm;
  c.tdm_clients = 1024;
  EXPECT_NO_THROW(c.validate());
  c.tdm_clients = 1025;
  EXPECT_THROW(c.validate(), ConfigError);
}

TEST(DramConfig, DerivedQuantities) {
  const DramConfig c = presets::edram_256bit_16mbit();
  EXPECT_EQ(c.bytes_per_beat(), 32u);
  EXPECT_EQ(c.bytes_per_access(), 128u);  // BL4
  EXPECT_EQ(c.columns_per_row(), 64u);    // 2048 / 32
}

TEST(DramConfig, DescribeIsHumanReadable) {
  const std::string s = presets::sdram_pc100_64mbit().describe();
  EXPECT_NE(s.find("64 Mbit"), std::string::npos);
  EXPECT_NE(s.find("16-bit"), std::string::npos);
}

}  // namespace
}  // namespace edsim::dram
