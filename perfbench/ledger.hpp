#pragma once
// Measurement helpers of the repository benchmark: sample summaries,
// span-tree self-time folding, the SLO rate search and the result record
// every workload fills in. Nothing here touches the solver; the pieces
// are unit-tested by test_ledger.cpp.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/tracer.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Sample summaries

/// Quantile q in [0, 1] by linear interpolation between order statistics
/// (numpy's default); 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// A latency sample reduced to what the benchmark reports.
struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
  double max = 0.0;
};
Summary summarize(const std::vector<double>& v);

/// Median over `windows` equal, consecutive slices of a time-ordered
/// sample of each slice's p99. One stalled stretch then moves one slice,
/// not the figure. Plain p99 when the sample is too small to slice with
/// at least ten samples beyond each slice's p99.
double windowed_p99(const std::vector<double>& ordered, std::size_t windows);

// ---------------------------------------------------------------------------
// Self-time folding

/// One span of a request tree, reduced to what folding needs. Depth is
/// relative to the tree's root (root = 0).
struct Interval {
  double begin = 0.0;
  double end = 0.0;
  int depth = 0;
};

/// Splits the root's interval (iv[0]) among the spans of its tree: each
/// instant goes to the deepest span covering it, ties to the shorter span,
/// then to the later one. Returns each span's self time. The results sum
/// to the root's duration, so overlapping children or siblings are never
/// counted twice; parts of spans outside the root are ignored.
std::vector<double> fold_self(const std::vector<Interval>& iv);

/// The spans that make up one request: `idx` indexes the tracer snapshot,
/// depth is relative to the request root (idx[0]).
struct RequestTree {
  std::vector<std::size_t> idx;
  std::vector<int> depth;
};

/// Collects every span tree whose root is named `root_name`. A root
/// carrying a "batch_trace" attribute (a request that rode along in
/// another request's coalesced batch) also adopts that trace's "batch"
/// subtrees, one level below itself, so its time in the shared batch is
/// attributed like the batch owner's.
std::vector<RequestTree> request_trees(
    const std::vector<tda::telemetry::SpanRecord>& spans,
    std::string_view root_name);

/// Layer a span's self time is booked to: tuning, service, solver,
/// gpusim, net or unattributed.
std::string layer_of(const tda::telemetry::SpanRecord& s);

/// Per-layer and per-span-name self time summed over request trees.
struct Ledger {
  std::size_t requests = 0;
  std::map<std::string, double> layer_s;  ///< layer -> summed self seconds
  std::map<std::string, double> span_s;   ///< "category/name" -> seconds
  std::map<std::string, std::size_t> span_count;
  double root_s = 0.0;  ///< summed root durations (== sum of layer_s)

  void add(const std::vector<tda::telemetry::SpanRecord>& spans,
           const RequestTree& tree);
  /// Mean self ms per request of a layer / span key (0 when absent).
  [[nodiscard]] double layer_ms(const std::string& layer) const;
  [[nodiscard]] double span_ms(const std::string& key) const;
};

// ---------------------------------------------------------------------------
// SLO rate search

/// Highest rung in [0, rungs) whose probe passes, assuming passing is
/// monotone (every rung below a passing rung passes). Bisection: at most
/// ceil(log2(rungs)) + 1 probes. -1 when rung 0 fails.
int search_highest_passing(std::size_t rungs,
                           const std::function<bool(std::size_t)>& probe);

/// Rung k of a geometric rate ladder: lo * (1 + step)^k.
double ladder_rate(double lo, double step, std::size_t k);

// ---------------------------------------------------------------------------
// Result record

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string clock;  ///< "host", "sim" or "count"
};

/// A metric as BENCHMARK.json declares it.
struct MetricSpec {
  std::string name;
  std::string unit;
};

struct Report {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool valid = true;  ///< false when the benchmark itself misbehaved
  std::vector<std::string> notes;
  std::vector<std::pair<std::string, std::string>> info;
  std::vector<Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit,
           const std::string& clock);
  [[nodiscard]] const Metric* find(const std::string& name) const;
};

/// Host and build fingerprint: nproc, CPU model, compiler, build type.
std::vector<std::pair<std::string, std::string>> fingerprint();

/// Peak resident set of this process in MiB.
double peak_rss_mib();

/// Human-readable per-layer and per-span self-time table of a ledger.
void print_ledger(const Ledger& l);

/// Human-readable table of the report (every line tagged with its clock).
void print_table(const Report& r);

/// The one-line JSON result: {"correct","attempted","failed","metrics"}
/// with exactly the metrics in `specs`, in that order. A missing or
/// non-finite metric, or one whose unit differs from its spec, makes the
/// result incorrect.
std::string result_json(const Report& r, const std::vector<MetricSpec>& specs);

}  // namespace perfbench
