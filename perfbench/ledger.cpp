#include "ledger.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

Summary summarize(const std::vector<double>& v) {
  Summary s;
  s.count = v.size();
  if (v.empty()) return s;
  s.p50 = quantile(v, 0.50);
  s.p99 = quantile(v, 0.99);
  double sum = 0.0;
  for (double x : v) {
    sum += x;
    s.max = std::max(s.max, x);
  }
  s.mean = sum / static_cast<double>(v.size());
  return s;
}

double windowed_p99(const std::vector<double>& ordered, std::size_t windows) {
  const std::size_t per = windows > 0 ? ordered.size() / windows : 0;
  if (per < 1000) return quantile(ordered, 0.99);
  std::vector<double> p99s;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = ordered.begin() + static_cast<std::ptrdiff_t>(w * per);
    p99s.push_back(quantile({first, first + static_cast<std::ptrdiff_t>(per)}, 0.99));
  }
  return quantile(p99s, 0.5);
}

std::vector<double> fold_self(const std::vector<Interval>& iv) {
  std::vector<double> self(iv.size(), 0.0);
  if (iv.empty()) return self;
  const double rb = iv[0].begin;
  const double re = iv[0].end;
  if (!(re > rb)) return self;

  struct Event {
    double t;
    bool open;
    std::size_t i;
  };
  std::vector<Event> events;
  events.reserve(2 * iv.size());
  for (std::size_t i = 0; i < iv.size(); ++i) {
    const double b = std::max(iv[i].begin, rb);
    const double e = std::min(iv[i].end, re);
    if (e > b) {
      events.push_back({b, true, i});
      events.push_back({e, false, i});
    }
  }
  std::sort(events.begin(), events.end(),
            [](const Event& x, const Event& y) { return x.t < y.t; });

  // Highest priority first: deepest, then shortest, then latest begin.
  const auto before = [&iv](std::size_t x, std::size_t y) {
    if (iv[x].depth != iv[y].depth) return iv[x].depth > iv[y].depth;
    const double dx = iv[x].end - iv[x].begin;
    const double dy = iv[y].end - iv[y].begin;
    if (dx != dy) return dx < dy;
    if (iv[x].begin != iv[y].begin) return iv[x].begin > iv[y].begin;
    return x > y;
  };
  std::set<std::size_t, decltype(before)> active(before);
  double t_prev = rb;
  for (const Event& ev : events) {
    if (!active.empty() && ev.t > t_prev) {
      self[*active.begin()] += ev.t - t_prev;
    }
    t_prev = std::max(t_prev, ev.t);
    if (ev.open) {
      active.insert(ev.i);
    } else {
      active.erase(ev.i);
    }
  }
  return self;
}

std::vector<RequestTree> request_trees(
    const std::vector<tda::telemetry::SpanRecord>& spans,
    std::string_view root_name) {
  using tda::telemetry::kInvalidSpan;
  std::vector<std::vector<std::size_t>> children(spans.size());
  std::map<std::string, std::vector<std::size_t>> batches_of_trace;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    if (s.parent != kInvalidSpan && s.parent < spans.size()) {
      children[s.parent].push_back(i);
    }
    if (s.name == "batch" && s.category == "service") {
      batches_of_trace[tda::telemetry::trace_id_hex(s.trace_id)].push_back(i);
    }
  }

  const auto collect = [&](RequestTree& tree, std::size_t top, int depth0) {
    std::vector<std::pair<std::size_t, int>> stack{{top, depth0}};
    while (!stack.empty()) {
      const auto [i, d] = stack.back();
      stack.pop_back();
      tree.idx.push_back(i);
      tree.depth.push_back(d);
      for (std::size_t c : children[i]) stack.emplace_back(c, d + 1);
    }
  };

  std::vector<RequestTree> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    if (s.name != root_name) continue;
    if (s.parent != kInvalidSpan && s.parent < spans.size()) continue;
    RequestTree tree;
    collect(tree, i, 0);
    for (const auto& [key, value] : s.attrs) {
      if (key != "batch_trace") continue;
      if (value == tda::telemetry::trace_id_hex(s.trace_id)) continue;
      const auto it = batches_of_trace.find(value);
      if (it == batches_of_trace.end()) continue;
      for (std::size_t b : it->second) collect(tree, b, 1);
    }
    out.push_back(std::move(tree));
  }
  return out;
}

std::string layer_of(const tda::telemetry::SpanRecord& s) {
  if (s.category == "tuner") return "tuning";
  if (s.category == "kernel") return "gpusim";
  if (s.category == "solver") return "solver";
  if (s.category == "service") return "service";
  if (s.category == "bench") {
    if (s.name == "upload" || s.name == "download") return "gpusim";
    if (s.name == "submit") return "service";
  }
  return "unattributed";
}

void Ledger::add(const std::vector<tda::telemetry::SpanRecord>& spans,
                 const RequestTree& tree) {
  std::vector<Interval> iv;
  iv.reserve(tree.idx.size());
  for (std::size_t k = 0; k < tree.idx.size(); ++k) {
    const auto& s = spans[tree.idx[k]];
    iv.push_back({s.begin_s, s.end_s, tree.depth[k]});
  }
  const std::vector<double> self = fold_self(iv);
  ++requests;
  root_s += std::max(0.0, iv[0].end - iv[0].begin);
  for (std::size_t k = 0; k < tree.idx.size(); ++k) {
    const auto& s = spans[tree.idx[k]];
    layer_s[layer_of(s)] += self[k];
    const std::string key = s.category + "/" + s.name;
    span_s[key] += self[k];
    ++span_count[key];
  }
}

double Ledger::layer_ms(const std::string& layer) const {
  const auto it = layer_s.find(layer);
  if (it == layer_s.end() || requests == 0) return 0.0;
  return it->second * 1e3 / static_cast<double>(requests);
}

double Ledger::span_ms(const std::string& key) const {
  const auto it = span_s.find(key);
  if (it == span_s.end() || requests == 0) return 0.0;
  return it->second * 1e3 / static_cast<double>(requests);
}

int search_highest_passing(std::size_t rungs,
                           const std::function<bool(std::size_t)>& probe) {
  if (rungs == 0 || !probe(0)) return -1;
  std::size_t good = 0;   // passes
  std::size_t bad = rungs;  // fails, or one past the ladder
  while (bad - good > 1) {
    const std::size_t mid = good + (bad - good) / 2;
    if (probe(mid)) {
      good = mid;
    } else {
      bad = mid;
    }
  }
  return static_cast<int>(good);
}

double ladder_rate(double lo, double step, std::size_t k) {
  return lo * std::pow(1.0 + step, static_cast<double>(k));
}

void Report::set(const std::string& name, double value,
                 const std::string& unit, const std::string& clock) {
  for (auto& m : metrics) {
    if (m.name == name) {
      m = {name, value, unit, clock};
      return;
    }
  }
  metrics.push_back({name, value, unit, clock});
}

const Metric* Report::find(const std::string& name) const {
  for (const auto& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned k = 0; k < 3; ++k) {
    __get_cpuid(0x80000002u + k, &regs[4 * k], &regs[4 * k + 1],
                &regs[4 * k + 2], &regs[4 * k + 3]);
  }
  std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
  s.erase(s.find_last_not_of(std::string(" \0", 2)) + 1);
  s.erase(0, s.find_first_not_of(' '));
  return s.empty() ? "unknown" : s;
#else
  return "unknown";
#endif
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> fingerprint() {
  return {
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu", cpu_model()},
      {"compiler", __VERSION__},
      {"build_type", PERFBENCH_BUILD_TYPE},
  };
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_ledger(const Ledger& l) {
  const double req = static_cast<double>(std::max<std::size_t>(l.requests, 1));
  std::printf("span-tree ledger: %zu requests, mean %.4f ms per request "
              "(host clock)\n",
              l.requests, l.root_s * 1e3 / req);
  for (const auto& [layer, s] : l.layer_s) {
    std::printf("  layer %-26s %12.4f ms  %6.2f%%\n", layer.c_str(),
                s * 1e3 / req, l.root_s > 0 ? 100.0 * s / l.root_s : 0.0);
  }
  std::vector<std::pair<double, std::string>> spans;
  for (const auto& [key, s] : l.span_s) spans.emplace_back(s, key);
  std::sort(spans.rbegin(), spans.rend());
  for (const auto& [s, key] : spans) {
    std::printf("  span  %-26s %12.4f ms  (%zu spans)\n", key.c_str(),
                s * 1e3 / req, l.span_count.at(key));
  }
}

void print_table(const Report& r) {
  std::printf("workload %s  seed %llu  %s\n", r.workload.c_str(),
              static_cast<unsigned long long>(r.seed),
              r.trace ? "traced (per-layer ledger)" : "untraced (end to end)");
  for (const auto& [k, v] : r.info) {
    std::printf("  # %-22s %s\n", k.c_str(), v.c_str());
  }
  for (const auto& note : r.notes) std::printf("  ! %s\n", note.c_str());
  std::printf("  %-34s %16s  %-8s %s\n", "metric", "value", "unit", "clock");
  for (const auto& m : r.metrics) {
    std::printf("  %-34s %16.6g  %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.clock.c_str());
  }
  std::printf("  attempted %zu  failed %zu  failed_frac %.6g  valid %s\n",
              r.attempted, r.failed,
              r.attempted > 0 ? static_cast<double>(r.failed) /
                                    static_cast<double>(r.attempted)
                              : 0.0,
              r.valid ? "yes" : "no");
  std::fflush(stdout);
}

std::string result_json(const Report& r,
                        const std::vector<MetricSpec>& specs) {
  bool correct = r.valid && r.failed == 0 && r.attempted > 0;
  std::ostringstream metrics;
  bool first = true;
  for (const auto& spec : specs) {
    const Metric* m = r.find(spec.name);
    double v = m != nullptr ? m->value : 0.0;
    if (m == nullptr || !std::isfinite(v) || m->unit != spec.unit) {
      std::fprintf(stderr, "perfbench: metric %s missing or malformed\n",
                   spec.name.c_str());
      correct = false;
      if (!std::isfinite(v)) v = 0.0;
    }
    metrics << (first ? "" : ", ") << '"' << json_escape(spec.name)
            << "\": {\"value\": " << number(v) << ", \"unit\": \""
            << json_escape(spec.unit) << "\"}";
    first = false;
  }
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << std::max<std::size_t>(r.attempted, 1)
      << ", \"failed\": " << r.failed << ", \"metrics\": {" << metrics.str()
      << "}}";
  return out.str();
}

}  // namespace perfbench
