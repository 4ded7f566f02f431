// Tests for device-profile files: round-tripping, parsing, validation,
// and end-to-end use of a custom device with the tuner — the "new
// architectures keep coming" workflow from the paper's conclusion.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "gpusim/device_file.hpp"
#include "gpusim/launch.hpp"
#include "solver/gpu_solver.hpp"
#include "tridiag/generators.hpp"
#include "tridiag/verify.hpp"
#include "tuning/dynamic_tuner.hpp"

namespace {

using namespace tda;
using namespace tda::gpusim;

TEST(DeviceFile, RoundTripsEveryRegistryDevice) {
  for (const auto& spec : device_registry()) {
    std::stringstream ss;
    write_device_profile(ss, spec);
    const DeviceSpec back = read_device_profile(ss);
    EXPECT_EQ(back.name, spec.name);
    EXPECT_EQ(back.sm_count, spec.sm_count);
    EXPECT_EQ(back.shared_mem_per_sm, spec.shared_mem_per_sm);
    EXPECT_EQ(back.registers_per_sm, spec.registers_per_sm);
    EXPECT_DOUBLE_EQ(back.global_bw_gb_s, spec.global_bw_gb_s);
    EXPECT_DOUBLE_EQ(back.clock_ghz, spec.clock_ghz);
    EXPECT_DOUBLE_EQ(back.occupancy_for_peak, spec.occupancy_for_peak);
    EXPECT_DOUBLE_EQ(back.strided_reuse, spec.strided_reuse);
    EXPECT_EQ(back.coalesce_segment_bytes, spec.coalesce_segment_bytes);
  }
}

TEST(DeviceFile, CommentsAndDefaults) {
  std::stringstream ss(R"(# a hypothetical OpenCL part
name = Hypothetical X1   # trailing comment
sm_count = 20
thread_procs_per_sm = 16
shared_mem_per_sm = 32768
registers_per_sm = 16384
max_threads_per_block = 512
max_threads_per_sm = 1024
global_bw_gb_s = 200.5
clock_ghz = 1.5
)");
  const DeviceSpec spec = read_device_profile(ss);
  EXPECT_EQ(spec.name, "Hypothetical X1");
  EXPECT_EQ(spec.sm_count, 20);
  EXPECT_DOUBLE_EQ(spec.global_bw_gb_s, 200.5);
  // Defaults survive for omitted keys.
  EXPECT_EQ(spec.warp_size, 32);
  EXPECT_EQ(spec.max_blocks_per_sm, 8);
}

TEST(DeviceFile, RejectsUnknownKey) {
  std::stringstream ss("name = X\nsm_count = 4\nbogus_key = 1\n");
  EXPECT_THROW((void)read_device_profile(ss), ContractError);
}

TEST(DeviceFile, RejectsMissingName) {
  std::stringstream ss("sm_count = 4\n");
  EXPECT_THROW((void)read_device_profile(ss), ContractError);
}

TEST(DeviceFile, RejectsMalformedLine) {
  std::stringstream ss("name = X\nsm_count 4\n");
  EXPECT_THROW((void)read_device_profile(ss), ContractError);
}

TEST(DeviceFile, RejectsImplausibleValues) {
  std::stringstream ss(R"(name = Bad
sm_count = 4
thread_procs_per_sm = 8
shared_mem_per_sm = 16384
registers_per_sm = 8192
max_threads_per_block = 256
max_threads_per_sm = 512
global_bw_gb_s = -5
clock_ghz = 1.0
)");
  EXPECT_THROW((void)read_device_profile(ss), ContractError);
}

TEST(DeviceFile, RejectsTrailingJunkInNumbers) {
  std::stringstream ss("name = X\nsm_count = 4x\n");
  EXPECT_THROW((void)read_device_profile(ss), ContractError);
}

TEST(DeviceFile, FileRoundTrip) {
  const std::string path = "/tmp/tda_device_test.txt";
  ASSERT_TRUE(save_device_profile(path, geforce_gtx_280()));
  const DeviceSpec back = load_device_profile(path);
  EXPECT_EQ(back.name, "GeForce GTX 280");
  EXPECT_EQ(back.sm_count, 30);
  std::remove(path.c_str());
}

TEST(DeviceFile, MissingFileThrows) {
  EXPECT_THROW((void)load_device_profile("/tmp/definitely_missing_dev.txt"),
               ContractError);
}

TEST(DeviceFile, CustomDeviceWorksEndToEnd) {
  // A hypothetical wide future part: the tuner must adapt without any
  // code change.
  std::stringstream ss(R"(name = FutureChip 9000
sm_count = 64
thread_procs_per_sm = 64
shared_mem_per_sm = 131072
registers_per_sm = 65536
max_threads_per_block = 2048
max_threads_per_sm = 4096
global_bw_gb_s = 900
clock_ghz = 2.0
coalesce_segment_bytes = 32
strided_reuse = 0.9
occupancy_for_peak = 1.0
launch_overhead_us = 3
)");
  Device dev(read_device_profile(ss));
  tuning::DynamicTuner<float> tuner(dev);
  auto tuned = tuner.tune({64, 8192});
  solver::GpuTridiagonalSolver<float> s(dev, tuned.points);
  auto batch = tridiag::make_diag_dominant<float>(64, 8192, 42);
  auto pristine = batch;
  auto stats = s.solve(batch);
  EXPECT_GT(stats.total_ms, 0.0);
  EXPECT_LE(tridiag::relative_residual(pristine, batch.x()),
            tridiag::residual_bound<float>(8192));
  // The fat shared memory must unlock larger on-chip systems than any
  // registry device.
  EXPECT_GE(kernels::max_shared_system_size(dev.query(), 4), 2048u);
}

}  // namespace
