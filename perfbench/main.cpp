// Repository benchmark driver:
//
//   perfbench --workload <batch_paper|serve_small|wire_adi> --seed <n>
//             --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with every tracer off;
// --trace 1 runs an untraced half and a traced half and prints the
// per-layer ledger. The last stdout line is the JSON result.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace perfbench {

int engine_lanes(int wanted) {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, cores > 0 ? std::min(wanted, cores) : wanted);
}

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},        {"throughput_meq_s", "Meq/s"},
      {"sim_ms", "ms_sim"},    {"p50_ms", "ms"},
      {"p99_ms", "ms"},        {"max_rps_at_slo", "req/s"},
      {"ok_frac", "ratio"},    {"peak_rss_mb", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = {
      {"tuning.tune_ms", "ms"},
      {"tuning.setup_ms", "ms"},
      {"tuning.miss_ratio", "ratio"},
      {"tuning.evaluations", "count"},
      {"service.admit_us", "us"},
      {"service.wait_ms.p50", "ms"},
      {"service.wait_ms.p99", "ms"},
      {"service.batch_systems.mean", "count"},
      {"service.flush_interval_frac", "ratio"},
      {"service.queue_depth.max", "count"},
      {"service.batch_self_ms", "ms"},
      {"solver.solve_ms", "ms"},
      {"solver.stage1_ms", "ms"},
      {"solver.stage2_ms", "ms"},
      {"solver.stage3_ms", "ms"},
      {"solver.transpose_ms", "ms"},
      {"solver.stage1_sim_ms", "ms_sim"},
      {"solver.stage2_sim_ms", "ms_sim"},
      {"solver.stage3_sim_ms", "ms_sim"},
      {"solver.transpose_sim_ms", "ms_sim"},
      {"solver.guard_ms", "ms"},
      {"solver.fallback_ratio", "ratio"},
      {"gpusim.launches", "count"},
      {"gpusim.bytes_moved", "B"},
      {"gpusim.upload_ms", "ms"},
      {"gpusim.download_ms", "ms"},
      {"gpusim.engine_utilization", "ratio"},
      {"gpusim.cost_only_ms", "ms"},
      {"common.host_allocs_per_op", "count"},
      {"common.pool_hit_ratio", "ratio"},
      {"net.send_us", "us"},
      {"net.overhead_ms", "ms"},
      {"net.bytes_per_request", "B"},
      {"net.reject_ratio", "ratio"},
      {"telemetry.overhead_frac", "ratio"},
      {"cpu.gtsv_meq_s", "Meq/s"},
      {"tridiag.backward_error.max", "ratio"},
      {"loadgen.lag_p99_ms", "ms"},
      {"self_ms.tuning", "ms"},
      {"self_ms.service", "ms"},
      {"self_ms.solver", "ms"},
      {"self_ms.gpusim", "ms"},
      {"self_ms.net", "ms"},
      {"self_ms.unattributed", "ms"},
  };
  return specs;
}

void finish_common(Report& r, const Verdicts& v) {
  r.attempted = v.attempted;
  r.failed = v.failed;
  if (r.trace) {
    r.set("tridiag.backward_error.max", v.max_backward_error, "ratio", "host");
  } else {
    r.set("ok_frac",
          v.attempted > 0 ? 1.0 - static_cast<double>(v.failed) /
                                      static_cast<double>(v.attempted)
                          : 0.0,
          "ratio", "count");
    r.set("peak_rss_mb", peak_rss_mib(), "MiB", "host");
  }
}

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload <batch_paper|serve_small|wire_adi>"
               " --seed <n> --seconds <s> --trace <0|1>\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || opt.seconds <= 0.0) return usage();

  Report r;
  try {
    if (opt.workload == "batch_paper") {
      r = run_batch_paper(opt);
    } else if (opt.workload == "serve_small") {
      r = run_serve_small(opt);
    } else if (opt.workload == "wire_adi") {
      r = run_wire_adi(opt);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  r.workload = opt.workload;
  r.seed = opt.seed;
  const auto fp = fingerprint();
  r.info.insert(r.info.begin(), fp.begin(), fp.end());

  // Layers a workload does not reach are reported as 0 (tagged n/a).
  const auto& specs = opt.trace ? per_layer_specs() : end_to_end_specs();
  for (const auto& spec : specs) {
    if (r.find(spec.name) == nullptr) r.set(spec.name, 0.0, spec.unit, "n/a");
  }
  print_table(r);
  std::cout << result_json(r, specs) << std::endl;
  return 0;
}
