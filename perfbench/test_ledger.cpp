// Unit tests of the benchmark's own measurement code: percentiles with
// sample counts, span-tree self-time folding, the SLO rate search and
// the output check.
// Build and run:
//
//   cmake -S perfbench -B .bench_build/perfbench
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   ctest --test-dir .bench_build/perfbench

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "gpusim/device.hpp"
#include "ledger.hpp"
#include "solver/gpu_solver.hpp"
#include "tridiag/generators.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);    \
      ++failures;                                                    \
    }                                                                \
  } while (0)

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

using perfbench::Interval;
using tda::telemetry::kInvalidSpan;
using tda::telemetry::SpanRecord;

void percentiles_carry_counts() {
  std::vector<double> v;
  for (int i = 101; i >= 1; --i) v.push_back(i);
  const auto s = perfbench::summarize(v);
  CHECK(s.count == 101);
  CHECK(near(s.p50, 51.0));
  CHECK(near(s.p99, 100.0));
  CHECK(near(s.max, 101.0));
  CHECK(near(s.mean, 51.0));
  CHECK(near(perfbench::quantile({1.0, 2.0}, 0.5), 1.5));
  CHECK(perfbench::summarize({}).count == 0);

  // One stalled slice out of five does not move the windowed p99.
  std::vector<double> ordered(5000, 1.0);
  for (std::size_t i = 0; i < 200; ++i) ordered[i] = 100.0;
  CHECK(near(perfbench::windowed_p99(ordered, 5), 1.0));
  CHECK(perfbench::quantile(ordered, 0.99) == 100.0);
  CHECK(near(perfbench::windowed_p99({1.0, 2.0, 3.0}, 5),
             perfbench::quantile({1.0, 2.0, 3.0}, 0.99)));
  CHECK(near(perfbench::quantile({}, 0.5), 0.0));
}

void nested_spans_fold_to_self_time() {
  // root [0,10] > child [2,6] > grandchild [3,4]
  const auto self = perfbench::fold_self(
      {Interval{0, 10, 0}, Interval{2, 6, 1}, Interval{3, 4, 2}});
  CHECK(near(self[0], 6.0));
  CHECK(near(self[1], 3.0));
  CHECK(near(self[2], 1.0));
}

void overlapping_children_are_not_double_counted() {
  // Two siblings overlapping on [3,5]: the overlap is booked once, to
  // the shorter sibling, and the parent keeps only what neither covers.
  const auto self = perfbench::fold_self(
      {Interval{0, 10, 0}, Interval{1, 5, 1}, Interval{3, 8, 1}});
  CHECK(near(self[0], 3.0));              // [0,1] and [8,10]
  CHECK(near(self[1] + self[2], 7.0));    // union, not 4 + 5
  CHECK(near(self[1], 4.0));              // the shorter sibling wins ties
  CHECK(near(self[2], 3.0));
  double total = 0.0;
  for (double s : self) total += s;
  CHECK(near(total, 10.0));
}

void spans_outside_the_root_are_clipped() {
  const auto self = perfbench::fold_self(
      {Interval{0, 10, 0}, Interval{8, 12, 1}, Interval{-3, -1, 1}});
  CHECK(near(self[0], 8.0));
  CHECK(near(self[1], 2.0));
  CHECK(near(self[2], 0.0));
}

SpanRecord span(const char* name, const char* cat, double b, double e,
                std::size_t parent, std::uint64_t trace) {
  SpanRecord s;
  s.name = name;
  s.category = cat;
  s.begin_s = b;
  s.end_s = e;
  s.parent = parent;
  s.trace_id = trace;
  return s;
}

void batchmates_adopt_the_shared_batch() {
  // Request 1 owns the batch; request 2 rode along (batch_trace link).
  std::vector<SpanRecord> spans = {
      span("request", "service", 0.0, 10.0, kInvalidSpan, 1),  // 0
      span("batch", "service", 4.0, 10.0, 0, 1),                // 1
      span("tune", "tuner", 4.0, 6.0, 1, 1),                    // 2
      span("chunked_solve", "solver", 6.0, 9.0, 1, 1),          // 3
      span("stage3", "kernel", 7.0, 8.0, 3, 1),                 // 4
      span("request", "service", 2.0, 10.0, kInvalidSpan, 2),   // 5
  };
  spans[5].attrs.emplace_back("batch_trace",
                              tda::telemetry::trace_id_hex(1));
  const auto trees = perfbench::request_trees(spans, "request");
  CHECK(trees.size() == 2);
  perfbench::Ledger ledger;
  for (const auto& t : trees) ledger.add(spans, t);
  CHECK(ledger.requests == 2);
  // Each request spends 2 s tuning, 2 s in solver self time, 1 s in the
  // kernel; the rest is service (queue wait plus batch self time).
  CHECK(near(ledger.layer_s["tuning"], 4.0));
  CHECK(near(ledger.layer_s["solver"], 4.0));
  CHECK(near(ledger.layer_s["gpusim"], 2.0));
  CHECK(near(ledger.layer_s["service"], 18.0 - 10.0));
  CHECK(near(ledger.root_s, 18.0));
  CHECK(near(ledger.layer_ms("tuning"), 2000.0));
  CHECK(near(ledger.span_ms("service/batch"), 1000.0));
}

void slo_search_finds_the_knee_of_a_latency_curve() {
  // M/M/1-like p99: base / (1 - rate / capacity), limit 20 ms.
  const double base_ms = 2.0, capacity = 30000.0, limit_ms = 20.0;
  const double lo = 1000.0, step = 0.05;
  const std::size_t rungs = 80;
  const auto p99 = [&](double rate) {
    return rate >= capacity ? 1e9 : base_ms / (1.0 - rate / capacity);
  };
  int probes = 0;
  const int best = perfbench::search_highest_passing(rungs, [&](std::size_t k) {
    ++probes;
    return p99(perfbench::ladder_rate(lo, step, k)) <= limit_ms;
  });
  int expect = -1;
  for (std::size_t k = 0; k < rungs; ++k) {
    if (p99(perfbench::ladder_rate(lo, step, k)) <= limit_ms) expect = static_cast<int>(k);
  }
  CHECK(best == expect);
  CHECK(best > 0);
  CHECK(probes <= 1 + static_cast<int>(std::ceil(std::log2(rungs))));
  const double found = perfbench::ladder_rate(lo, step, static_cast<std::size_t>(best));
  // The answer is within one ladder step below the true knee (27000).
  CHECK(found <= 27000.0 && found * (1.0 + step) > 27000.0);

  CHECK(perfbench::search_highest_passing(rungs, [](std::size_t) { return false; }) == -1);
  CHECK(perfbench::search_highest_passing(rungs, [](std::size_t) { return true; }) ==
        static_cast<int>(rungs) - 1);
}

void result_json_has_exactly_the_contract_keys() {
  perfbench::Report r;
  r.attempted = 10;
  r.set("a_ms", 1.5, "ms", "host");
  const std::vector<perfbench::MetricSpec> specs = {{"a_ms", "ms"}};
  CHECK(perfbench::result_json(r, specs) ==
        "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": "
        "{\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}");
  r.failed = 1;
  CHECK(perfbench::result_json(r, specs).rfind("{\"correct\": false", 0) == 0);
  r.failed = 0;
  CHECK(perfbench::result_json(r, {{"missing", "ms"}})
            .rfind("{\"correct\": false", 0) == 0);
}

void unwritten_solution_fails_verification() {
  tda::gpusim::Device dev(tda::gpusim::geforce_gtx_470());
  auto host = tda::tridiag::make_diag_dominant<float>(8, 256, 42);
  tda::solver::GpuTridiagonalSolver<float> solver(dev, tda::solver::SwitchPoints{});
  {
    tda::kernels::DeviceBatch<float> db(dev, host);
    perfbench::poison_solution(db, host);
    (void)solver.run(db, tda::kernels::ExecMode::Full);
    db.download(host);
  }
  perfbench::Verdicts solved;
  perfbench::verify_batch(host, solved);
  CHECK(solved.attempted == 8);
  CHECK(solved.failed == 0);

  // Same inputs again, but the solve is skipped: the device slab may
  // still hold the answer above, and the check must not accept it.
  {
    tda::kernels::DeviceBatch<float> db(dev, host);
    perfbench::poison_solution(db, host);
    db.download(host);
  }
  perfbench::Verdicts skipped;
  perfbench::verify_batch(host, skipped);
  CHECK(skipped.attempted == 8);
  CHECK(skipped.failed == 8);
}

}  // namespace

int main() {
  percentiles_carry_counts();
  nested_spans_fold_to_self_time();
  overlapping_children_are_not_double_counted();
  spans_outside_the_root_are_clipped();
  batchmates_adopt_the_shared_batch();
  slo_search_finds_the_knee_of_a_latency_curve();
  result_json_has_exactly_the_contract_keys();
  unwritten_solution_fails_verification();
  if (failures == 0) std::printf("perfbench tests: all passed\n");
  return failures == 0 ? 0 : 1;
}
