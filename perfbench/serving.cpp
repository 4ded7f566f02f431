#include "serving.hpp"

#include "common/alloc_stats.hpp"
#include "cpu/gtsv.hpp"
#include "gpusim/device.hpp"
#include "gpusim/thread_pool.hpp"
#include "solver/gpu_solver.hpp"
#include "tridiag/generators.hpp"
#include "tuning/cache.hpp"
#include "tuning/dynamic_tuner.hpp"

namespace perfbench {

std::unique_ptr<Service> make_service(int lanes) {
  tda::service::ServiceConfig cfg;
  cfg.engine_threads = lanes;
  cfg.backpressure = tda::service::BackpressurePolicy::Reject;
  return std::make_unique<Service>(
      std::vector<tda::gpusim::DeviceSpec>{tda::gpusim::geforce_gtx_470()},
      cfg);
}

HostCounters HostCounters::now() {
  HostCounters c;
  c.allocs = tda::host_alloc_count();
  c.pool = tda::BufferPool::global().stats();
  for (const auto& l : tda::gpusim::ThreadPool::global().lane_stats()) {
    c.lane_busy_ms += l.busy_ms;
  }
  c.at = Clock::now();
  return c;
}

const double* SystemPool::data(int k, std::size_t s) const {
  const auto all = k == 0   ? batch.a()
                   : k == 1 ? batch.b()
                   : k == 2 ? batch.c()
                            : batch.d();
  return all.data() + s * n;
}

std::vector<double> SystemPool::lane(int k, std::size_t s) const {
  const double* first = data(k, s);
  return {first, first + n};
}

SystemPool make_pool(std::size_t count, std::size_t n, std::uint64_t seed) {
  return {n, tda::tridiag::make_diag_dominant<double>(count, n, seed)};
}

double sim_pass_ms(
    const std::vector<std::pair<std::size_t, std::size_t>>& shapes) {
  tda::gpusim::Device dev(tda::gpusim::geforce_gtx_470());
  tda::tuning::TuningCache cache;
  double ms = 0.0;
  for (const auto& [m, n] : shapes) {
    tda::tuning::DynamicTuner<double> tuner(dev, &cache);
    tda::solver::GpuTridiagonalSolver<double> solver(
        dev, tuner.tune({m, n}).points);
    ms += solver.simulate_ms({m, n});
  }
  return ms;
}

double gtsv_meq_s(const std::vector<SystemPool>& pools) {
  double secs = 0.0;
  std::size_t eq = 0;
  for (const auto& p : pools) {
    std::vector<double> x(p.n);
    for (std::size_t s = 0; s < p.batch.num_systems(); ++s) {
      auto a = p.lane(0, s), b = p.lane(1, s), c = p.lane(2, s),
           d = p.lane(3, s);
      const auto t0 = Clock::now();
      (void)tda::cpu::gtsv_solve<double>(a, b, c, d, x);
      secs += s_between(t0, Clock::now());
      eq += p.n;
    }
  }
  return secs > 0 ? static_cast<double>(eq) / secs / 1e6 : 0.0;
}

void start_tracing(Service& svc) {
  auto& tel = svc.telemetry();
  tel.clear();
  tel.enable_all();
}

void service_layers(Report& r, Service& svc, const Ledger& ledger,
                    const HostCounters& before, const HostCounters& after,
                    std::size_t requests, int lanes) {
  print_ledger(ledger);
  const auto& mx = svc.telemetry().metrics;
  const double req = static_cast<double>(std::max<std::size_t>(requests, 1));
  const double hits = mx.counter("tuner.cache_hits");
  const double misses = mx.counter("tuner.cache_misses");
  r.set("tuning.tune_ms", ledger.layer_ms("tuning"), "ms", "host");
  r.set("tuning.miss_ratio", hits + misses > 0 ? misses / (hits + misses) : 0.0,
        "ratio", "count");
  r.set("tuning.evaluations", mx.counter("tuner.evaluations") / req, "count",
        "count");
  const double flushes = mx.counter("service.flushes");
  r.set("service.batch_systems.mean",
        flushes > 0 ? mx.counter("service.solved_systems") / flushes : 0.0,
        "count", "count");
  r.set("service.flush_interval_frac",
        flushes > 0 ? mx.counter("service.flush.interval") / flushes : 0.0,
        "ratio", "count");
  r.set("service.queue_depth.max", mx.histogram("service.queue_depth").max,
        "count", "count");
  // The batch's own service work: the batch span and the flush / solve /
  // complete phases the service emits under it, minus what tuning, the
  // solver and the kernels account for.
  double batch_self = 0.0;
  for (const char* key : {"service/batch", "service/flush", "service/solve",
                          "service/complete"}) {
    batch_self += ledger.span_ms(key);
  }
  r.set("service.batch_self_ms", batch_self, "ms", "host");
  r.set("solver.guard_ms", ledger.span_ms("solver/chunked_solve"), "ms", "host");
  r.set("solver.fallback_ratio", mx.counter("service.fallback_used") / req,
        "ratio", "count");
  r.set("gpusim.launches", mx.counter("device.kernel_launches") / req, "count",
        "count");
  r.set("gpusim.bytes_moved", mx.counter("device.bytes_moved") / req, "B",
        "computed");
  const double wall_ms = ms_between(before.at, after.at);
  r.set("gpusim.engine_utilization",
        wall_ms > 0 ? (after.lane_busy_ms - before.lane_busy_ms) / (wall_ms * lanes)
                    : 0.0,
        "ratio", "host");
  r.set("common.host_allocs_per_op",
        static_cast<double>(after.allocs - before.allocs) / req, "count", "count");
  const double acq = static_cast<double>(after.pool.acquires - before.pool.acquires);
  r.set("common.pool_hit_ratio",
        acq > 0 ? static_cast<double>(after.pool.hits - before.pool.hits) / acq : 0.0,
        "ratio", "count");
  for (const char* layer : {"tuning", "service", "solver", "gpusim", "net", "unattributed"}) {
    r.set(std::string("self_ms.") + layer, ledger.layer_ms(layer), "ms", "host");
  }
}

}  // namespace perfbench
