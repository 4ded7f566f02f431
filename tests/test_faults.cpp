// Tests for the fault-injection framework: spec parsing, deterministic
// decision draws, counters, scoped overrides, byte corruption, system
// poisoning, and the device-side arming gate. Also the durable-file
// envelope every checksummed file goes through (its read path carries
// the CacheCorrupt site).

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "faults/durable.hpp"
#include "faults/faults.hpp"
#include "gpusim/device.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/occupancy.hpp"

namespace {

using namespace tda;
using namespace tda::faults;

// ---------- spec parsing ----------

TEST(FaultConfig, ParsesFullSpec) {
  const auto cfg = parse_fault_config(
      "seed=42,launch_fail=0.25,alloc_fail=0.5,worker_stall=0.1,"
      "worker_crash=0.2,cache_corrupt=1,nan_systems=0.05,"
      "zero_pivot_systems=0.15,stall_ms=7.5");
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_DOUBLE_EQ(cfg.rate_of(Site::DeviceLaunch), 0.25);
  EXPECT_DOUBLE_EQ(cfg.rate_of(Site::DeviceAlloc), 0.5);
  EXPECT_DOUBLE_EQ(cfg.rate_of(Site::WorkerStall), 0.1);
  EXPECT_DOUBLE_EQ(cfg.rate_of(Site::WorkerCrash), 0.2);
  EXPECT_DOUBLE_EQ(cfg.rate_of(Site::CacheCorrupt), 1.0);
  EXPECT_DOUBLE_EQ(cfg.rate_of(Site::PoisonNaN), 0.05);
  EXPECT_DOUBLE_EQ(cfg.rate_of(Site::PoisonZeroPivot), 0.15);
  EXPECT_DOUBLE_EQ(cfg.stall_ms, 7.5);
  EXPECT_TRUE(cfg.any());
}

TEST(FaultConfig, EmptySpecIsInert) {
  const auto cfg = parse_fault_config("");
  EXPECT_FALSE(cfg.any());
  FaultInjector inj(cfg);
  EXPECT_FALSE(inj.enabled());
}

TEST(FaultConfig, ClampsRatesAndSurvivesGarbage) {
  // Unknown keys, unparsable values and out-of-range rates must be
  // tolerated: a typo in TDA_FAULTS cannot be allowed to crash anything.
  const auto cfg = parse_fault_config(
      "launch_fail=7,worker_crash=-2,bogus_key=1,nan_systems=oops,,"
      "seed=123");
  EXPECT_DOUBLE_EQ(cfg.rate_of(Site::DeviceLaunch), 1.0);
  EXPECT_DOUBLE_EQ(cfg.rate_of(Site::WorkerCrash), 0.0);
  EXPECT_DOUBLE_EQ(cfg.rate_of(Site::PoisonNaN), 0.0);
  EXPECT_EQ(cfg.seed, 123u);
}

TEST(FaultConfig, DescribeRoundTrips) {
  auto cfg = parse_fault_config("seed=9,launch_fail=0.125,worker_stall=0.5");
  const auto again = parse_fault_config(cfg.describe());
  EXPECT_EQ(again.seed, cfg.seed);
  for (int s = 0; s < kSiteCount; ++s) {
    EXPECT_DOUBLE_EQ(again.rate[s], cfg.rate[s]) << "site " << s;
  }
  EXPECT_DOUBLE_EQ(again.stall_ms, cfg.stall_ms);
}

// ---------- deterministic decisions ----------

TEST(FaultInjector, DecisionsAreDeterministicInSeed) {
  FaultConfig cfg;
  cfg.seed = 7;
  cfg.rate_of(Site::DeviceLaunch) = 0.3;
  FaultInjector a(cfg), b(cfg);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.fire(Site::DeviceLaunch), b.fire(Site::DeviceLaunch))
        << "decision " << i;
  }

  FaultConfig other = cfg;
  other.seed = 8;
  FaultInjector c(cfg), d(other);
  bool differs = false;
  for (int i = 0; i < 500; ++i) {
    if (c.fire(Site::DeviceLaunch) != d.fire(Site::DeviceLaunch)) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(FaultInjector, ObservedRateTracksConfiguredRate) {
  FaultConfig cfg;
  cfg.seed = 5;
  cfg.rate_of(Site::WorkerCrash) = 0.2;
  FaultInjector inj(cfg);
  const int draws = 20'000;
  int hits = 0;
  for (int i = 0; i < draws; ++i) {
    if (inj.fire(Site::WorkerCrash)) ++hits;
  }
  const double observed = static_cast<double>(hits) / draws;
  EXPECT_NEAR(observed, 0.2, 0.02);
  EXPECT_EQ(inj.decisions(Site::WorkerCrash),
            static_cast<std::uint64_t>(draws));
  EXPECT_EQ(inj.injected(Site::WorkerCrash),
            static_cast<std::uint64_t>(hits));
  EXPECT_EQ(inj.total_injected(), static_cast<std::uint64_t>(hits));
}

TEST(FaultInjector, ZeroRateNeverFiresAndDrawsNoDecisions) {
  FaultInjector inj{FaultConfig{}};
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(inj.fire(Site::DeviceLaunch));
  // Idle sites must not burn decision indices: enabling a rate later
  // starts the deterministic sequence from index 0.
  EXPECT_EQ(inj.decisions(Site::DeviceLaunch), 0u);
  EXPECT_EQ(inj.total_injected(), 0u);
}

TEST(FaultInjector, ConfigureResetsCounters) {
  FaultConfig cfg;
  cfg.rate_of(Site::DeviceAlloc) = 1.0;
  FaultInjector inj(cfg);
  EXPECT_TRUE(inj.fire(Site::DeviceAlloc));
  EXPECT_EQ(inj.injected(Site::DeviceAlloc), 1u);
  inj.configure(cfg);
  EXPECT_EQ(inj.decisions(Site::DeviceAlloc), 0u);
  EXPECT_EQ(inj.injected(Site::DeviceAlloc), 0u);
}

TEST(FaultInjector, MaybeDeviceFaultThrowsDeviceFault) {
  FaultConfig cfg;
  cfg.rate_of(Site::DeviceLaunch) = 1.0;
  FaultInjector inj(cfg);
  EXPECT_THROW(inj.maybe_device_fault(Site::DeviceLaunch, "stage3"),
               DeviceFault);
}

TEST(ScopedFaultConfig, RestoresPreviousGlobalConfig) {
  const auto before = FaultInjector::global().config();
  {
    FaultConfig cfg;
    cfg.seed = 99;
    cfg.rate_of(Site::PoisonNaN) = 0.5;
    ScopedFaultConfig scoped(cfg);
    EXPECT_EQ(FaultInjector::global().config().seed, 99u);
    EXPECT_DOUBLE_EQ(
        FaultInjector::global().config().rate_of(Site::PoisonNaN), 0.5);
  }
  const auto after = FaultInjector::global().config();
  EXPECT_EQ(after.seed, before.seed);
  for (int s = 0; s < kSiteCount; ++s) {
    EXPECT_DOUBLE_EQ(after.rate[s], before.rate[s]);
  }
}

// ---------- byte corruption ----------

TEST(CorruptBytes, IsDeterministicAndChangesContent) {
  const std::string original(256, 'x');
  std::string a = original, b = original;
  corrupt_bytes(a, 17, 8);
  corrupt_bytes(b, 17, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, original);

  std::string c = original;
  corrupt_bytes(c, 18, 8);
  EXPECT_NE(c, a);
}

TEST(CorruptBytes, EmptyInputIsNoOp) {
  std::string empty;
  corrupt_bytes(empty, 1, 8);
  EXPECT_TRUE(empty.empty());
}

// ---------- durable-file envelope ----------

namespace durable_files {

namespace fs = std::filesystem;

constexpr std::string_view kHeader = "# durable test v1 checksum=";

/// A fresh, empty directory per call.
fs::path scratch_dir() {
  static std::atomic<int> counter{0};
  const fs::path dir =
      fs::temp_directory_path() /
      ("tda_durable_" + std::to_string(::getpid()) + "_" +
       std::to_string(counter.fetch_add(1)));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::size_t temp_files_in(const fs::path& dir) {
  std::size_t n = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().filename().string().find(".tmp") != std::string::npos) ++n;
  }
  return n;
}

std::string sample_body() {
  return "record\tone\t1\nrecord\ttwo\t2\n# comment\nrecord\tthree\t3\n";
}

}  // namespace durable_files

TEST(DurableEnvelope, SealLayoutAndRoundTrip) {
  using namespace durable_files;
  const std::string body = sample_body();
  const std::string sealed = durable::seal(kHeader, body);
  char sum[17];
  std::snprintf(sum, sizeof(sum), "%016llx",
                static_cast<unsigned long long>(fnv1a64(body)));
  EXPECT_EQ(sealed, std::string(kHeader) + sum + "\n" + body);
  std::string_view out;
  std::string why;
  ASSERT_TRUE(durable::unseal(kHeader, sealed, &out, &why)) << why;
  EXPECT_EQ(out, body);

  // An empty body is a valid file; the basis is part of the format.
  ASSERT_TRUE(durable::unseal(kHeader, durable::seal(kHeader, ""), &out));
  EXPECT_TRUE(out.empty());
  const std::string legacy = durable::seal(kHeader, body, kFnv1a64LegacyBasis);
  EXPECT_NE(legacy, sealed);
  EXPECT_FALSE(durable::unseal(kHeader, legacy, &out));
  EXPECT_TRUE(
      durable::unseal(kHeader, legacy, &out, nullptr, kFnv1a64LegacyBasis));
}

TEST(DurableEnvelope, TruncationAtEveryBoundaryRejectsWholeFile) {
  using namespace durable_files;
  const std::string sealed = durable::seal(kHeader, sample_body());
  for (std::size_t cut = 0; cut < sealed.size(); ++cut) {
    std::string_view out = "untouched";
    std::string why;
    EXPECT_FALSE(durable::unseal(kHeader, std::string_view(sealed).substr(
                                              0, cut),
                                 &out, &why))
        << "cut at " << cut;
    EXPECT_EQ(out, "untouched") << "body set on cut at " << cut;
    EXPECT_FALSE(why.empty());
  }
}

TEST(DurableEnvelope, BitFlipAnywhereRejectsWholeFile) {
  using namespace durable_files;
  const std::string sealed = durable::seal(kHeader, sample_body());
  std::string_view out;
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = sealed;
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
      // Case-flipping a hex digit of the checksum spells the same value.
      const bool same_digit =
          i >= kHeader.size() && i < kHeader.size() + 16 && bit == 5 &&
          std::isalpha(static_cast<unsigned char>(sealed[i])) &&
          std::isxdigit(static_cast<unsigned char>(mutated[i]));
      if (same_digit) continue;
      EXPECT_FALSE(durable::unseal(kHeader, mutated, &out))
          << "flip of bit " << bit << " at byte " << i;
    }
  }
}

TEST(DurableEnvelope, WrongOrMissingHeaderRejected) {
  using namespace durable_files;
  const std::string body = sample_body();
  const std::string sealed = durable::seal(kHeader, body);
  std::string_view out;
  std::string why;
  // Another format's (or version's) header never unseals as this one.
  EXPECT_FALSE(durable::unseal("# durable test v2 checksum=", sealed, &out,
                               &why));
  EXPECT_FALSE(why.empty());
  // Records without any header line.
  EXPECT_FALSE(durable::unseal(kHeader, body, &out));
  // A checksum field that is not 16 hex digits.
  std::string bad = sealed;
  bad[kHeader.size() + 3] = 'g';
  EXPECT_FALSE(durable::unseal(kHeader, bad, &out));
  bad = sealed;
  bad.erase(kHeader.size(), 1);
  EXPECT_FALSE(durable::unseal(kHeader, bad, &out));
}

TEST(DurableFile, MissingFileReadsAsNothing) {
  using namespace durable_files;
  const fs::path dir = scratch_dir();
  EXPECT_FALSE(durable::read_file((dir / "absent").string()).has_value());
  fs::remove_all(dir);
}

TEST(DurableFile, WriteIsAtomicReplacementWithNoTempLeft) {
  using namespace durable_files;
  const fs::path dir = scratch_dir();
  const std::string path = (dir / "state").string();
  std::string why;
  ASSERT_TRUE(durable::write_atomic(path, "first\n", &why)) << why;
  ASSERT_TRUE(durable::write_atomic(path, "second\n", &why)) << why;
  const auto bytes = durable::read_file(path);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(*bytes, "second\n");
  EXPECT_EQ(temp_files_in(dir), 0u);
  fs::remove_all(dir);
}

TEST(DurableFile, FailedRenameRemovesTheTempFile) {
  using namespace durable_files;
  const fs::path dir = scratch_dir();
  // The target is a non-empty directory, so rename() over it fails.
  const fs::path target = dir / "target";
  fs::create_directories(target / "occupied");
  std::string why;
  EXPECT_FALSE(durable::write_atomic(target.string(), "bytes\n", &why));
  EXPECT_NE(why.find("rename"), std::string::npos) << why;
  EXPECT_EQ(temp_files_in(dir), 0u);
  EXPECT_TRUE(fs::is_directory(target));
  fs::remove_all(dir);
}

TEST(DurableFile, CacheCorruptHookRejectsTheWholeFile) {
  using namespace durable_files;
  const fs::path dir = scratch_dir();
  const std::string path = (dir / "sealed").string();
  const std::string sealed = durable::seal(kHeader, sample_body());
  ASSERT_TRUE(durable::write_atomic(path, sealed));
  std::string_view out;
  {
    FaultConfig cfg;
    cfg.seed = 5;
    cfg.rate_of(Site::CacheCorrupt) = 1.0;
    ScopedFaultConfig scoped(cfg);
    const auto bytes = durable::read_file(path);
    ASSERT_TRUE(bytes.has_value());
    EXPECT_EQ(bytes->size(), sealed.size());
    EXPECT_NE(*bytes, sealed);
    EXPECT_FALSE(durable::unseal(kHeader, *bytes, &out));
    EXPECT_EQ(FaultInjector::global().injected(Site::CacheCorrupt), 1u);
  }
  // With the site idle the same file reads back intact.
  const auto bytes = durable::read_file(path);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(*bytes, sealed);
  EXPECT_TRUE(durable::unseal(kHeader, *bytes, &out));
  fs::remove_all(dir);
}

// ---------- system poisoning ----------

TEST(PoisonSystem, NaNContaminatesMidSystem) {
  const std::size_t n = 16;
  std::vector<double> a(n, -1), b(n, 4), c(n, -1), d(n, 1);
  poison_system<double>(a, b, c, d, Poison::NaN);
  EXPECT_TRUE(std::isnan(b[n / 2]));
  EXPECT_TRUE(std::isnan(d[n / 2]));
}

TEST(PoisonSystem, ZeroPivotKillsLeadingDiagonal) {
  const std::size_t n = 16;
  std::vector<double> a(n, -1), b(n, 4), c(n, -1), d(n, 1);
  poison_system<double>(a, b, c, d, Poison::ZeroPivot);
  EXPECT_EQ(b[0], 0.0);
  EXPECT_EQ(c[0], 1.0);
  EXPECT_EQ(a[1], 0.0);
}

// ---------- device arming gate ----------

TEST(DeviceFaults, UnarmedDeviceIgnoresInjection) {
  FaultConfig cfg;
  cfg.rate_of(Site::DeviceLaunch) = 1.0;
  cfg.rate_of(Site::DeviceAlloc) = 1.0;
  ScopedFaultConfig scoped(cfg);

  gpusim::Device dev(gpusim::geforce_gtx_470());
  ASSERT_FALSE(dev.faults_armed());
  gpusim::LaunchConfig lc;
  lc.blocks = 2;
  lc.threads_per_block = 64;
  lc.regs_per_thread = 16;
  // A bare solver run must never see env-injected device faults.
  EXPECT_NO_THROW(dev.launch(lc, [](gpusim::BlockContext&) {}));
  EXPECT_EQ(dev.kernels_launched(), 1u);
}

TEST(DeviceFaults, ArmedDeviceThrowsDeviceFault) {
  FaultConfig cfg;
  cfg.rate_of(Site::DeviceLaunch) = 1.0;
  ScopedFaultConfig scoped(cfg);

  gpusim::Device dev(gpusim::geforce_gtx_470());
  dev.arm_faults();
  ASSERT_TRUE(dev.faults_armed());
  gpusim::LaunchConfig lc;
  lc.blocks = 2;
  lc.threads_per_block = 64;
  lc.regs_per_thread = 16;
  EXPECT_THROW(dev.launch(lc, [](gpusim::BlockContext&) {}), DeviceFault);
  // Disarming restores normal operation without touching the config.
  dev.arm_faults(false);
  EXPECT_NO_THROW(dev.launch(lc, [](gpusim::BlockContext&) {}));
}

}  // namespace
