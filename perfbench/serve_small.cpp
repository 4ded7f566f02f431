// serve_small: an open loop of tiny single-system requests through an
// in-process SolveService<double>. One generator thread submits at
// seeded Poisson arrival times (callback submit), first at the nominal
// rate, then at the rungs of a rate ladder to find max_rps_at_slo.
// Every request is timed from its due time, so a stalled generator or
// service shows up as latency rather than as a lower offered rate.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/rng.hpp"
#include "serving.hpp"

namespace perfbench {
namespace {

using tda::service::SolveRequest;
using tda::service::SolveResponse;
using tda::service::SolveStatus;

constexpr std::size_t kSizes[] = {32, 48, 64, 96, 128};
constexpr std::size_t kPoolSystems = 64;
constexpr int kLanes = 2;

constexpr double kNominalRps = 2000.0;
constexpr double kSloP99Ms = 25.0;
// Ladder: kLadderLo * (1 + kLadderStep)^k, k < kLadderRungs.
constexpr double kLadderLo = 10000.0;
constexpr double kLadderStep = 0.05;
constexpr std::size_t kLadderRungs = 56;
// Untimed stretch at the nominal rate between set-up and measurement.
constexpr double kSettleSeconds = 4.0;
// p99_ms is the median of the p99s of this many slices of the phase.
constexpr std::size_t kP99Windows = 7;
// A probe stops sending once this many requests are unanswered.
constexpr std::size_t kAbortBacklog = 8192;
// The generator is behind -- the run cannot speak to the SLO -- when its
// p99 lateness exceeds the latency limit itself.
constexpr double kMaxLagP99Ms = kSloP99Ms;

struct Arrival {
  double at_s;  ///< offset from the phase start
  std::size_t size_idx;
  std::size_t pool_idx;
};

/// Seeded Poisson arrivals at `rate` for `seconds`.
std::vector<Arrival> schedule(double rate, double seconds, tda::Rng& rng) {
  std::vector<Arrival> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    out.push_back({t, static_cast<std::size_t>(rng.uniform() * std::size(kSizes)),
                   static_cast<std::size_t>(rng.uniform() * kPoolSystems)});
  }
  return out;
}

/// One request's fate. The callback verifies the solution on the spot
/// (one O(n) pass over the pooled inputs, no copies), so no solution
/// outlives its response and memory stays flat at high rates.
struct Slot {
  Clock::time_point due, done;
  const SystemPool* pool = nullptr;
  std::size_t pool_idx = 0;
  bool ok = false;
  double backward_error = 0.0;
  double wait_ms = 0.0;
  std::atomic<bool> finished{false};
};

struct PhaseOut {
  std::vector<double> latency_ms, lag_ms, admit_us, wait_ms;
  Verdicts verdicts;  ///< every request
  Verdicts answered;  ///< only requests that came back Ok
  std::size_t equations = 0;
  double wall_s = 0.0;
  std::size_t outstanding_at_end = 0;
  double depth_first_q = 0.0, depth_last_q = 0.0;
  bool drained = true;
  bool aborted = false;  ///< arrivals stopped: the backlog ran away
};

/// Sleeps until shortly before `due`, then spins: a plain sleep wakes
/// up to scheduler-tick late, which would show up as generator lag.
void wait_until(Clock::time_point due) {
  std::this_thread::sleep_until(due - std::chrono::microseconds(300));
  while (Clock::now() < due) {
  }
}

/// Slots and completion count live on the heap, shared with the
/// callbacks, so a phase that gives up waiting leaves nothing dangling.
struct Inflight {
  explicit Inflight(std::size_t n) : slots(n) {}
  std::vector<Slot> slots;
  std::atomic<std::size_t> completed{0};
};

/// Drives one open-loop phase and verifies every response.
PhaseOut drive(Service& svc, const std::vector<Arrival>& arrivals,
               const std::vector<SystemPool>& pools) {
  PhaseOut out;
  std::size_t total = arrivals.size();
  auto state = std::make_shared<Inflight>(total);
  std::vector<double> depth;
  depth.reserve(total / 8 + 1);

  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = 0; i < total; ++i) {
    const auto& arr = arrivals[i];
    const SystemPool& pool = pools[arr.size_idx];
    SolveRequest<double> req;
    req.a = pool.lane(0, arr.pool_idx);
    req.b = pool.lane(1, arr.pool_idx);
    req.c = pool.lane(2, arr.pool_idx);
    req.d = pool.lane(3, arr.pool_idx);
    Slot& slot = state->slots[i];
    slot.pool = &pool;
    slot.pool_idx = arr.pool_idx;
    slot.due = t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(arr.at_s));
    wait_until(slot.due);
    const auto sent = Clock::now();
    svc.submit(std::move(req), [state, i](SolveResponse<double> r) {
      Slot& s = state->slots[i];
      const std::size_t n = s.pool->n;
      s.ok = r.status == SolveStatus::Ok && r.x.size() == n;
      if (s.ok) {
        const SystemPool& p = *s.pool;
        const std::size_t j = s.pool_idx;
        s.backward_error = backward_error<double>(
            p.data(0, j), p.data(1, j), p.data(2, j), p.data(3, j),
            r.x.data(), n);
      }
      s.wait_ms = r.wait_ms;
      s.done = Clock::now();
      s.finished.store(true, std::memory_order_release);
      state->completed.fetch_add(1, std::memory_order_release);
    });
    out.admit_us.push_back(ms_between(sent, Clock::now()) * 1e3);
    out.lag_ms.push_back(ms_between(slot.due, sent));
    if (i % 8 == 0) {
      depth.push_back(static_cast<double>(svc.queue_depth()));
      const std::size_t backlog =
          i + 1 - state->completed.load(std::memory_order_acquire);
      if (backlog > kAbortBacklog) {
        out.aborted = true;
        total = i + 1;
        break;
      }
    }
  }
  out.outstanding_at_end =
      total - state->completed.load(std::memory_order_acquire);
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (state->completed.load(std::memory_order_acquire) < total) {
    if (Clock::now() > deadline) {
      out.drained = false;
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  out.wall_s = s_between(t0, Clock::now());

  const std::size_t q = std::max<std::size_t>(depth.size() / 4, 1);
  for (std::size_t i = 0; i < q && i < depth.size(); ++i) {
    out.depth_first_q += depth[i] / static_cast<double>(q);
    out.depth_last_q += depth[depth.size() - 1 - i] / static_cast<double>(q);
  }

  for (std::size_t i = 0; i < total; ++i) {
    const Slot& s = state->slots[i];
    const std::size_t n = kSizes[arrivals[i].size_idx];
    if (!s.finished.load(std::memory_order_acquire)) {
      out.verdicts.check<double>(false, 0.0, n);
      continue;
    }
    if (out.verdicts.check<double>(s.ok, s.backward_error, n)) out.equations += n;
    if (s.ok) out.answered.check<double>(true, s.backward_error, n);
    out.latency_ms.push_back(ms_between(s.due, s.done));
    out.wait_ms.push_back(s.wait_ms);
  }
  return out;
}

/// One rung of the SLO search: p99 within the limit, no failures and no
/// growing backlog (completions keep up with arrivals, queue depth flat).
bool meets_slo(const PhaseOut& p, double rate) {
  const Summary lat = summarize(p.latency_ms);
  const double in_flight_allowance = std::max(8.0, rate * kSloP99Ms / 1e3);
  const bool backlog_flat =
      p.drained &&
      static_cast<double>(p.outstanding_at_end) <= in_flight_allowance &&
      p.depth_last_q <= 2.0 * p.depth_first_q + 8.0;
  return !p.aborted && p.verdicts.failed == 0 && lat.p99 <= kSloP99Ms &&
         backlog_flat;
}

}  // namespace

Report run_serve_small(const Options& opt) {
  Report r;
  r.trace = opt.trace;
  const int lanes = engine_lanes(kLanes);
  r.info.emplace_back("devices", "1 x GeForce GTX 470 (simulated), 1 worker");
  r.info.emplace_back("engine_lanes", std::to_string(lanes));
  r.info.emplace_back("loop", "open, 1 generator thread, Poisson arrivals");

  tda::Rng rng(opt.seed);
  std::vector<SystemPool> pools;
  for (std::size_t k = 0; k < std::size(kSizes); ++k) {
    pools.push_back(make_pool(kPoolSystems, kSizes[k], opt.seed * 7919u + k));
  }

  // Set-up: service start plus one warm-up request per size (which tunes
  // the single-system shapes cold, inline, as the service does).
  std::unique_ptr<Service> svc;
  std::vector<double> setup_s;
  Verdicts verdicts;
  for (int i = 0; i < kSetupRepeats; ++i) {
    svc.reset();
    const auto t0 = Clock::now();
    svc = make_service(lanes);
    std::vector<Arrival> warm;
    for (std::size_t k = 0; k < std::size(kSizes); ++k) warm.push_back({0.0, k, 0});
    verdicts.merge(drive(*svc, warm, pools).verdicts);
    setup_s.push_back(s_between(t0, Clock::now()));
  }

  // Settle (untimed): a stretch at the nominal rate before measuring,
  // so the coalescer's common flush sizes are tuned once, as in a
  // long-running service. The cold tunes left in the measured stretch
  // are counted (nominal_cold_tunes) and show in tuning.tune_ms.
  verdicts.merge(drive(*svc, schedule(kNominalRps, kSettleSeconds, rng), pools).verdicts);

  const double nominal_s = opt.trace ? opt.seconds / 2 : opt.seconds * 0.4;
  const auto nominal = schedule(kNominalRps, nominal_s, rng);
  const auto tunes0 = svc->counters().tunes;
  const PhaseOut base = drive(*svc, nominal, pools);
  r.info.emplace_back("nominal_cold_tunes",
                      std::to_string(svc->counters().tunes - tunes0));
  verdicts.merge(base.verdicts);
  const Summary lat = summarize(base.latency_ms);
  const Summary lag = summarize(base.lag_ms);
  r.info.emplace_back("nominal_lag_p99_ms", std::to_string(lag.p99));
  if (lag.p99 > kMaxLagP99Ms) {
    r.valid = false;
    r.notes.push_back("generator fell behind: lag p99 " + std::to_string(lag.p99) + " ms");
  }
  r.info.emplace_back("latency_samples",
                      std::to_string(lat.count) + " requests (p99 over all: " +
                          std::to_string(lat.p99) + " ms)");
  r.info.emplace_back("nominal_rate", std::to_string(kNominalRps) + " req/s");
  r.info.emplace_back("slo", "p99 <= 25 ms from due time, no failures, flat backlog");

  if (!opt.trace) {
    // Ladder search over the remaining time budget.
    const double probe_s = opt.seconds * 0.6 / 9.0;
    int probes = 0;
    const int best = search_highest_passing(kLadderRungs, [&](std::size_t k) {
      // A failing rung is probed twice: the first visit to a high rate
      // may pay cold tuning of new flush sizes, a one-off the nominal
      // phase already reports.
      const double rate = ladder_rate(kLadderLo, kLadderStep, k);
      bool pass = false;
      for (int attempt = 0; attempt < 2 && !pass; ++attempt) {
        const PhaseOut p = drive(*svc, schedule(rate, probe_s, rng), pools);
        // Past capacity a rung may legitimately end requests non-Ok;
        // that fails the rung. Every answer given must still be right.
        verdicts.merge(p.answered);
        ++probes;
        pass = meets_slo(p, rate);
        std::printf("  probe %2d: %8.1f req/s  p99 %8.3f ms  lag p99 %6.3f ms  "
                    "outstanding %zu  depth %.1f -> %.1f  failed %zu  %s\n",
                    probes, rate, summarize(p.latency_ms).p99,
                    summarize(p.lag_ms).p99, p.outstanding_at_end,
                    p.depth_first_q, p.depth_last_q, p.verdicts.failed,
                    pass ? "pass" : "FAIL");
      }
      return pass;
    });
    r.set("setup_s", quantile(setup_s, 0.5), "s", "host");
    r.set("throughput_meq_s", static_cast<double>(base.equations) / base.wall_s / 1e6,
          "Meq/s", "host");
    std::vector<std::pair<std::size_t, std::size_t>> shapes;
    for (std::size_t n : kSizes) shapes.emplace_back(1, n);
    r.set("sim_ms", sim_pass_ms(shapes), "ms_sim", "sim");
    r.set("p50_ms", lat.p50, "ms", "host");
    r.set("p99_ms", windowed_p99(base.latency_ms, kP99Windows), "ms", "host");
    r.set("max_rps_at_slo",
          best >= 0 ? ladder_rate(kLadderLo, kLadderStep, static_cast<std::size_t>(best)) : 0.0,
          "req/s", "host");
    finish_common(r, verdicts);
    return r;
  }

  // Traced half at the nominal rate.
  start_tracing(*svc);
  const auto before = HostCounters::now();
  const auto traced = schedule(kNominalRps, opt.seconds / 2, rng);
  const PhaseOut tp = drive(*svc, traced, pools);
  const auto after = HostCounters::now();
  verdicts.merge(tp.verdicts);
  svc->telemetry().tracer.enable(false);
  Ledger ledger;
  const auto spans = svc->telemetry().tracer.snapshot();
  for (const auto& tree : request_trees(spans, "request")) ledger.add(spans, tree);
  service_layers(r, *svc, ledger, before, after, traced.size(), lanes);
  r.set("service.admit_us", summarize(tp.admit_us).p50, "us", "host");
  const Summary wait = summarize(tp.wait_ms);
  r.set("service.wait_ms.p50", wait.p50, "ms", "host");
  r.set("service.wait_ms.p99", wait.p99, "ms", "host");
  r.set("loadgen.lag_p99_ms", summarize(tp.lag_ms).p99, "ms", "host");
  r.set("cpu.gtsv_meq_s", gtsv_meq_s(pools), "Meq/s", "host");
  r.set("telemetry.overhead_frac",
        (summarize(tp.latency_ms).p50 - lat.p50) / lat.p50, "ratio", "host");
  finish_common(r, verdicts);
  return r;
}

}  // namespace perfbench
