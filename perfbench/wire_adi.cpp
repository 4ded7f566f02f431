// wire_adi: a closed loop over a unix socket. A FrontDoor and its
// SolveService run in this process; three net::Client connections, one
// thread each, belong to three tenants with unequal DRR weights. Each
// behaves like an ADI time-stepper (examples/adi_heat.cpp): a half-step
// sends one window of same-n double systems and waits for all of them
// before the next.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <stdexcept>
#include <thread>

#include "net/client.hpp"
#include "net/front_door.hpp"
#include "serving.hpp"

namespace perfbench {
namespace {

struct Tenant {
  const char* name;
  const char* token;
  double weight;
  std::size_t n;
};
constexpr Tenant kTenants[] = {
    {"adi-512", "tok-adi-512", 1.0, 512},
    {"adi-1024", "tok-adi-1024", 2.0, 1024},
    {"adi-4096", "tok-adi-4096", 4.0, 4096},
};
constexpr std::size_t kNumTenants = std::size(kTenants);

/// An ADI half-step on an n x n grid solves n systems of n equations
/// (adi_heat: its default 258-point grid gives 256 of 256). A window is
/// that half-step, capped at 2^18 equations: the full 512 x 512 step,
/// and a 256- or 64-row strip of the 1024 and 4096 grids. The cap keeps
/// a step's payload at 8 MiB and its results at 2 MiB, under the front
/// door's 4 MiB write buffer, so a client that sends the whole step
/// before reading never stalls the connection. Every window is at least
/// the service's 64-system flush size, so a step could fill a batch.
constexpr std::size_t kStepEquations = std::size_t{1} << 18;
constexpr std::size_t window_of(std::size_t n) {
  return std::min(n, kStepEquations / n);
}
constexpr int kLanes = 2;
// p99_ms is the median of the p99s of this many slices of the run.
constexpr std::size_t kP99Windows = 7;

/// Everything one set-up builds; destroyed in reverse order.
struct Rig {
  std::unique_ptr<Service> svc;
  std::unique_ptr<tda::net::FrontDoor<double>> door;
  std::vector<tda::net::Client> clients;
};

struct ClientOut {
  std::vector<double> latency_ms, send_us, wait_ms;
  std::vector<Clock::time_point> sent;  ///< parallel to latency_ms
  std::vector<std::pair<std::uint64_t, double>> traced;  // trace id, ms
  Verdicts verdicts;
  std::size_t equations = 0;
  std::string error;
};

/// Steps taken by every stepper in this process, set-ups included.
std::atomic<std::uint64_t> g_steps{0};

/// Time steps until `stop`: send a window (the pool's systems),
/// collect it, verify it.
void step_loop(tda::net::Client& client, const SystemPool& pool,
               Clock::time_point stop, std::uint64_t& next_id, ClientOut& out) {
  const std::size_t n = pool.n, window = pool.batch.num_systems();
  std::vector<std::vector<double>> sys[4];
  for (int k = 0; k < 4; ++k) {
    for (std::size_t s = 0; s < window; ++s) sys[k].push_back(pool.lane(k, s));
  }
  std::map<std::uint64_t, std::pair<std::size_t, Clock::time_point>> pending;
  do {
    // Each step scales its right-hand sides by a factor no other step
    // used. The service's device slabs come back dirty from a global
    // pool, so with repeated inputs a solve that never wrote x could
    // return an earlier step's correct answer; now that answer fails
    // the check.
    const double scale = 1.0 + static_cast<double>(++g_steps) / 1024.0;
    for (std::size_t s = 0; s < window; ++s) {
      const double* d0 = pool.data(3, s);
      for (std::size_t i = 0; i < n; ++i) sys[3][s][i] = d0[i] * scale;
    }
    for (std::size_t s = 0; s < window; ++s) {
      const std::uint64_t id = ++next_id;
      const auto t0 = Clock::now();
      std::string err;
      if (!client.send_solve<double>(id, sys[0][s], sys[1][s], sys[2][s],
                                     sys[3][s], 0.0, &err)) {
        out.error = "send: " + err;
        return;
      }
      out.send_us.push_back(ms_between(t0, Clock::now()) * 1e3);
      pending.emplace(id, std::make_pair(s, t0));
    }
    while (!pending.empty()) {
      tda::net::WireResult<double> res;
      std::string err;
      if (!client.recv_result<double>(res, &err)) {
        out.error = "recv: " + err;
        return;
      }
      const auto done = Clock::now();
      const auto it = pending.find(res.request_id);
      if (it == pending.end()) continue;
      const auto [s, sent] = it->second;
      pending.erase(it);
      double be = 0.0;
      const bool ok = res.ok() && res.x.size() == n;
      if (ok) {
        be = backward_error<double>(sys[0][s].data(), sys[1][s].data(),
                                    sys[2][s].data(), sys[3][s].data(),
                                    res.x.data(), n);
      }
      if (out.verdicts.check<double>(ok, be, n)) out.equations += n;
      const double ms = ms_between(sent, done);
      out.latency_ms.push_back(ms);
      out.sent.push_back(sent);
      out.wait_ms.push_back(res.wait_ms);
      if (res.trace_id != 0) out.traced.emplace_back(res.trace_id, ms);
    }
  } while (Clock::now() < stop);
}

struct PhaseOut {
  std::vector<ClientOut> per_client = std::vector<ClientOut>(kNumTenants);
  double wall_s = 0.0;
};

/// Runs every tenant's stepper on its own thread for `seconds`.
PhaseOut run_phase(Rig& rig, const std::vector<SystemPool>& pools,
                   double seconds, std::vector<std::uint64_t>& ids) {
  PhaseOut out;
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kNumTenants; ++t) {
    threads.emplace_back([&, t] {
      step_loop(rig.clients[t], pools[t], stop, ids[t], out.per_client[t]);
    });
  }
  for (auto& th : threads) th.join();
  out.wall_s = s_between(start, Clock::now());
  for (const auto& c : out.per_client) {
    if (!c.error.empty()) throw std::runtime_error("wire client: " + c.error);
  }
  return out;
}

/// Set-up: service, front door with three weighted tenants, three
/// authenticated connections and one warm-up step per tenant.
void set_up(Rig& rig, const std::string& sock, int lanes,
            const std::vector<SystemPool>& pools, Verdicts& warm) {
  rig.clients.clear();
  rig.door.reset();
  rig.svc.reset();
  rig.svc = make_service(lanes);
  tda::net::FrontDoorConfig fcfg;
  fcfg.unix_path = sock;
  fcfg.poll_interval_ms = 1.0;
  // A stepper bounds its own queue at one window, and a shed system
  // would only stall its step: queue-age shedding stays off.
  fcfg.codel_target_ms = 0.0;
  rig.door = std::make_unique<tda::net::FrontDoor<double>>(*rig.svc, fcfg);
  for (const auto& t : kTenants) {
    tda::net::TenantConfig tc;
    tc.name = t.name;
    tc.token = t.token;
    tc.weight = t.weight;
    rig.door->add_tenant(tc);
  }
  std::string err;
  if (!rig.door->start(&err)) throw std::runtime_error("front door: " + err);
  rig.clients.resize(kNumTenants);
  for (std::size_t t = 0; t < kNumTenants; ++t) {
    if (!rig.clients[t].connect("unix:" + sock, kTenants[t].token, &err)) {
      throw std::runtime_error("connect: " + err);
    }
  }
  std::vector<std::uint64_t> ids(kNumTenants, 0);
  const PhaseOut p = run_phase(rig, pools, 0.0, ids);
  for (const auto& c : p.per_client) warm.merge(c.verdicts);
}

struct Merged {
  std::vector<double> latency_ms, send_us, wait_ms;
  std::vector<double> by_send_time;  ///< latency_ms ordered by send time
  std::size_t equations = 0, requests = 0;
};
Merged merge(const PhaseOut& p, Verdicts& v) {
  Merged m;
  for (const auto& c : p.per_client) {
    m.latency_ms.insert(m.latency_ms.end(), c.latency_ms.begin(), c.latency_ms.end());
    m.send_us.insert(m.send_us.end(), c.send_us.begin(), c.send_us.end());
    m.wait_ms.insert(m.wait_ms.end(), c.wait_ms.begin(), c.wait_ms.end());
    m.equations += c.equations;
    m.requests += c.latency_ms.size();
    v.merge(c.verdicts);
  }
  std::vector<std::pair<Clock::time_point, double>> timed;
  for (const auto& c : p.per_client) {
    for (std::size_t i = 0; i < c.latency_ms.size(); ++i) {
      timed.emplace_back(c.sent[i], c.latency_ms[i]);
    }
  }
  std::sort(timed.begin(), timed.end());
  for (const auto& t : timed) m.by_send_time.push_back(t.second);
  return m;
}

}  // namespace

Report run_wire_adi(const Options& opt) {
  Report r;
  r.trace = opt.trace;
  const int lanes = engine_lanes(kLanes);
  r.info.emplace_back("devices", "1 x GeForce GTX 470 (simulated), 1 worker");
  r.info.emplace_back("engine_lanes", std::to_string(lanes));
  r.info.emplace_back("loop",
                      "closed, 3 client threads (weights 1/2/4, n 512/1024/4096), "
                      "windows of 512/256/64 systems");

  std::vector<SystemPool> pools;
  for (std::size_t t = 0; t < kNumTenants; ++t) {
    const std::size_t n = kTenants[t].n;
    pools.push_back(make_pool(window_of(n), n, opt.seed * 104729u + t));
  }
  // A relative path keeps the socket inside the working directory and
  // short of the sun_path limit.
  const std::string sock = "perfbench-wire-" + std::to_string(::getpid()) + ".sock";

  Rig rig;
  Verdicts verdicts;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    set_up(rig, sock, lanes, pools, verdicts);
    setup_s.push_back(s_between(t0, Clock::now()));
  }

  std::vector<std::uint64_t> ids(kNumTenants, 1000);
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const PhaseOut ph = run_phase(rig, pools, untraced_s, ids);
  const Merged m = merge(ph, verdicts);
  const Summary lat = summarize(m.latency_ms);
  r.info.emplace_back("latency_samples",
                      std::to_string(lat.count) + " requests (p99 over all: " +
                          std::to_string(lat.p99) + " ms)");
  for (std::size_t t = 0; t < kNumTenants; ++t) {
    const Summary s = summarize(ph.per_client[t].latency_ms);
    r.info.emplace_back(std::string("tenant ") + kTenants[t].name,
                        std::to_string(s.count) + " requests, p50 " +
                            std::to_string(s.p50) + " ms");
  }

  if (!opt.trace) {
    r.set("setup_s", quantile(setup_s, 0.5), "s", "host");
    r.set("throughput_meq_s", static_cast<double>(m.equations) / ph.wall_s / 1e6,
          "Meq/s", "host");
    std::vector<std::pair<std::size_t, std::size_t>> shapes;
    for (const auto& t : kTenants) shapes.emplace_back(window_of(t.n), t.n);
    r.set("sim_ms", sim_pass_ms(shapes), "ms_sim", "sim");
    r.set("p50_ms", lat.p50, "ms", "host");
    r.set("p99_ms", windowed_p99(m.by_send_time, kP99Windows), "ms", "host");
    // A closed loop has no offered rate to search: this is the completed
    // request rate, which moves with throughput_meq_s.
    r.set("max_rps_at_slo", static_cast<double>(m.requests) / ph.wall_s,
          "req/s", "host");
    finish_common(r, verdicts);
    rig.clients.clear();
    return r;
  }

  // Traced half.
  start_tracing(*rig.svc);
  const auto door0 = rig.door->counters();
  const auto before = HostCounters::now();
  const PhaseOut tp = run_phase(rig, pools, opt.seconds / 2, ids);
  const auto after = HostCounters::now();
  const auto door1 = rig.door->counters();
  rig.svc->telemetry().tracer.enable(false);
  const Merged tm = merge(tp, verdicts);

  Ledger ledger;
  const auto spans = rig.svc->telemetry().tracer.snapshot();
  std::map<std::uint64_t, double> root_ms;
  for (const auto& tree : request_trees(spans, "request")) {
    ledger.add(spans, tree);
    const auto& root = spans[tree.idx[0]];
    root_ms[root.trace_id] = (root.end_s - root.begin_s) * 1e3;
  }
  // The wire's share: client-observed latency minus the server's root.
  double net_ms = 0.0;
  std::size_t matched = 0;
  for (const auto& c : tp.per_client) {
    for (const auto& [id, ms] : c.traced) {
      const auto it = root_ms.find(id);
      if (it == root_ms.end()) continue;
      net_ms += ms - it->second;
      ++matched;
    }
  }
  ledger.layer_s["net"] += net_ms / 1e3;
  ledger.root_s += net_ms / 1e3;
  service_layers(r, *rig.svc, ledger, before, after, tm.requests, lanes);
  r.set("net.overhead_ms", matched > 0 ? net_ms / static_cast<double>(matched) : 0.0,
        "ms", "host");
  r.set("net.send_us", summarize(tm.send_us).p50, "us", "host");
  const double responses = static_cast<double>(door1.responses_sent - door0.responses_sent);
  r.set("net.bytes_per_request",
        responses > 0 ? static_cast<double>((door1.bytes_rx - door0.bytes_rx) +
                                            (door1.bytes_tx - door0.bytes_tx)) /
                            responses
                      : 0.0,
        "B", "count");
  const double admitted = static_cast<double>(door1.requests_admitted - door0.requests_admitted);
  const double rejected = static_cast<double>(door1.requests_rejected - door0.requests_rejected);
  r.set("net.reject_ratio", admitted + rejected > 0 ? rejected / (admitted + rejected) : 0.0,
        "ratio", "count");
  const Summary wait = summarize(tm.wait_ms);
  r.set("service.wait_ms.p50", wait.p50, "ms", "host");
  r.set("service.wait_ms.p99", wait.p99, "ms", "host");
  r.set("cpu.gtsv_meq_s", gtsv_meq_s(pools), "Meq/s", "host");
  r.set("telemetry.overhead_frac",
        (summarize(tm.latency_ms).p50 - lat.p50) / lat.p50, "ratio", "host");
  finish_common(r, verdicts);
  rig.clients.clear();
  return r;
}

}  // namespace perfbench
