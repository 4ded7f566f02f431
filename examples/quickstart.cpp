// Quickstart: solve a batch of tridiagonal systems on a simulated GPU
// with auto-tuned switch points, and verify the solution.
//
//   ./quickstart [--m=64] [--n=4096] [--device="GeForce GTX 470"]

#include <iostream>

#include "common/cli.hpp"
#include "gpusim/launch.hpp"
#include "solver/gpu_solver.hpp"
#include "telemetry/export.hpp"
#include "tridiag/generators.hpp"
#include "tridiag/verify.hpp"
#include "tuning/dynamic_tuner.hpp"

int main(int argc, char** argv) {
  using namespace tda;
  Cli cli(argc, argv);
  const std::size_t m = static_cast<std::size_t>(cli.get_int("m", 64));
  const std::size_t n = static_cast<std::size_t>(cli.get_int("n", 4096));
  const std::string device_name =
      cli.get("device", "GeForce GTX 470");

  // 1. Pick a device from the registry (the paper's three GPUs).
  auto spec = gpusim::device_by_name(device_name);
  if (!spec) {
    std::cerr << "unknown device: " << device_name << "\n";
    return 1;
  }
  gpusim::Device dev(*spec);
  std::cout << "device: " << spec->name << " (" << spec->sm_count
            << " processors, " << spec->shared_mem_per_sm / 1024
            << " KB shared)\n";

  // Env-gated telemetry: TDA_TRACE=<path> writes a Chrome trace of the
  // tune + solve below, TDA_METRICS=<path> a metrics JSON, both when
  // this scope unwinds at the end of main.
  telemetry::Telemetry tel;
  telemetry::EnvExport tel_export(tel);
  if (tel_export.active()) dev.set_telemetry(&tel);

  // 2. Build a workload: m diagonally dominant systems of n equations.
  auto batch = tridiag::make_diag_dominant<float>(m, n, /*seed=*/42);
  auto pristine = batch;  // keep originals for the residual check
  std::cout << "workload: " << m << " systems x " << n << " equations\n";

  // 3. Auto-tune the switch points for this (device, workload) pair.
  tuning::DynamicTuner<float> tuner(dev);
  auto tuned = tuner.tune({m, n});
  std::cout << "tuned switch points: " << solver::describe(tuned.points)
            << "\n  (" << tuned.evaluations << " tuning evaluations)\n";

  // 4. Solve. The solution lands in batch.x(). --trace prints the
  //    kernel-by-kernel timeline.
  if (cli.has("trace")) dev.enable_trace();
  solver::GpuTridiagonalSolver<float> solver(dev, tuned.points);
  auto stats = solver.solve(batch);
  std::cout << "solved in " << stats.total_ms << " simulated ms ("
            << stats.plan.stage1_steps << " cooperative splits, "
            << stats.plan.stage2_steps << " independent splits, on-chip "
            << "subsystems of " << stats.plan.stage3_sub_size << ")\n";

  if (cli.has("trace")) {
    std::cout << "\nkernel trace:\n";
    for (const auto& rec : dev.trace()) {
      std::cout << "  " << rec.name << ": " << rec.blocks << " blocks x "
                << rec.threads_per_block << " threads, "
                << rec.stats.seconds * 1e3 << " ms (mem "
                << rec.stats.mem_seconds * 1e3 << ", compute "
                << rec.stats.compute_seconds * 1e3 << ", occupancy "
                << rec.stats.occupancy.fraction << ", bw-hiding "
                << rec.stats.hiding_factor << ")\n";
    }
    std::cout << "\n";
  }

  // 5. Verify.
  const double residual = tridiag::relative_residual(pristine, batch.x());
  const bool ok = residual <= tridiag::residual_bound<float>(n);
  std::cout << "backward error: " << residual << (ok ? "  [OK]" : "  [FAIL]")
            << "\n";
  std::cout << "x[0..4] of system 0:";
  for (int i = 0; i < 5 && i < static_cast<int>(n); ++i)
    std::cout << ' ' << batch.x()[i];
  std::cout << "\n";
  return ok ? 0 : 1;
}
