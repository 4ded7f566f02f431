#pragma once
// Seeded fault-injection framework — the testing backbone of the
// resilience layer (docs/ROBUSTNESS.md).
//
// A FaultInjector makes deterministic per-site decisions: decision k at
// site S under seed σ always lands the same way, independent of thread
// interleaving or wall clock, so a CI failure under TDA_FAULTS=seed=7,...
// reproduces locally from the same spec string. Sites cover the faults a
// production solver service actually sees:
//
//   * DeviceLaunch / DeviceAlloc — a kernel launch or device allocation
//     fails (throws DeviceFault, the retryable error class);
//   * DeviceOOM — a device memory reservation fails (throws
//     gpusim::OutOfMemory, the NON-retryable class: the recovery story
//     is chunking the work smaller, not retrying);
//   * WorkerStall / WorkerCrash — a service worker sleeps mid-job or dies
//     outright (WorkerCrashFault escapes its loop; the service restarts
//     the worker);
//   * CacheCorrupt — durable-file bytes (tuning cache, ops snapshot) are
//     flipped between disk and parser (exercises checksum rejection);
//   * PoisonNaN / PoisonZeroPivot — a submitted system is contaminated
//     before solving (exercises the numerical guards and quarantine);
//   * NetDrop / NetCorrupt — the wire front door (src/net/) loses a
//     connection mid-stream or receives corrupted frame bytes
//     (exercises client reconnect and the decoder's reject path).
//
// The process-wide injector (FaultInjector::global()) configures itself
// from $TDA_FAULTS on first use; code under test overrides it with a
// ScopedFaultConfig. Injection points are compiled in permanently but
// cost one predictable branch when the injector is idle — and the
// device-level sites additionally require the caller to arm them
// (gpusim::Device::arm_faults), so a fault-injection env var can never
// reach code that has no recovery story (e.g. a bare solver ablation).

#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>

namespace tda::faults {

/// Where a fault can be injected.
enum class Site : int {
  DeviceLaunch = 0,  ///< kernel launch fails (DeviceFault)
  DeviceAlloc,       ///< device allocation fails (DeviceFault)
  DeviceOOM,         ///< device memory reservation fails (gpusim::OutOfMemory)
  WorkerStall,       ///< worker sleeps stall_ms mid-job
  WorkerCrash,       ///< worker thread dies (WorkerCrashFault)
  CacheCorrupt,      ///< durable-file bytes flipped before parsing
  PoisonNaN,         ///< system contaminated with NaN coefficients
  PoisonZeroPivot,   ///< system given an exactly singular leading pivot
  NetDrop,           ///< front-door connection dropped mid-stream
  NetCorrupt,        ///< received frame bytes corrupted before decoding
};
inline constexpr int kSiteCount = 10;

const char* to_string(Site s);

/// Injection rates (probability per decision) plus the shared seed.
struct FaultConfig {
  std::uint64_t seed = 1;
  double rate[kSiteCount] = {};
  double stall_ms = 2.0;  ///< sleep length of one WorkerStall

  [[nodiscard]] double& rate_of(Site s) { return rate[static_cast<int>(s)]; }
  [[nodiscard]] double rate_of(Site s) const {
    return rate[static_cast<int>(s)];
  }
  /// True when any site can fire.
  [[nodiscard]] bool any() const;
  /// Round-trippable spec string ("seed=1,launch_fail=0.05,...").
  [[nodiscard]] std::string describe() const;
};

/// Parses a TDA_FAULTS spec: comma-separated key=value pairs. Keys:
///   seed, stall_ms, launch_fail, alloc_fail, oom, worker_stall,
///   worker_crash, cache_corrupt, nan_systems, zero_pivot_systems,
///   net_drop, net_corrupt
/// Rates are clamped to [0, 1]; unknown keys and unparsable values are
/// log-warned and skipped (a typo in an env var must not take the
/// process down — this is the robustness layer).
FaultConfig parse_fault_config(const std::string& spec);

/// Transient device-side failure (launch/allocation). The service treats
/// it as retryable: retry with backoff, then fail over.
class DeviceFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A worker thread's death. Escapes worker_loop; the service's scheduler
/// detects the dead worker, requeues its in-flight job and restarts it.
class WorkerCrashFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Deterministic, thread-safe fault decision source.
class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(const FaultConfig& cfg) : cfg_(cfg) {}

  /// Swaps in a new config and resets all per-site counters.
  void configure(const FaultConfig& cfg);
  [[nodiscard]] FaultConfig config() const;
  /// True when any site has a nonzero rate.
  [[nodiscard]] bool enabled() const;

  /// Draws the next decision for `site`. Deterministic in
  /// (seed, site, decision index).
  bool fire(Site site);

  /// Decisions drawn / faults injected at a site since configure().
  [[nodiscard]] std::uint64_t decisions(Site site) const;
  [[nodiscard]] std::uint64_t injected(Site site) const;
  /// Faults injected across all sites.
  [[nodiscard]] std::uint64_t total_injected() const;
  void reset_counters();

  /// Throws DeviceFault when `site` (DeviceLaunch/DeviceAlloc) fires.
  void maybe_device_fault(Site site, const std::string& detail);

  /// The process-wide injector, configured from $TDA_FAULTS once.
  static FaultInjector& global();

 private:
  mutable std::mutex mu_;
  FaultConfig cfg_;
  std::uint64_t decisions_[kSiteCount] = {};
  std::uint64_t injected_[kSiteCount] = {};
};

/// RAII override of the global injector (tests, benches). Restores the
/// previous config — and zeroed counters — on destruction.
class ScopedFaultConfig {
 public:
  explicit ScopedFaultConfig(const FaultConfig& cfg)
      : saved_(FaultInjector::global().config()) {
    FaultInjector::global().configure(cfg);
  }
  ~ScopedFaultConfig() { FaultInjector::global().configure(saved_); }

  ScopedFaultConfig(const ScopedFaultConfig&) = delete;
  ScopedFaultConfig& operator=(const ScopedFaultConfig&) = delete;

 private:
  FaultConfig saved_;
};

/// Deterministically flips `flips` single bits of `bytes` (no-op when
/// empty). The CacheCorrupt site and the cache-robustness tests share
/// this so "a corrupt file" means the same thing everywhere.
void corrupt_bytes(std::string& bytes, std::uint64_t seed,
                   std::size_t flips);

/// How poison_system contaminates a system.
enum class Poison {
  NaN,       ///< quiet NaN written into b and d mid-system
  ZeroPivot  ///< b[0] = 0 with a live superdiagonal: Thomas/PCR divide by 0
};

/// Poisons one tridiagonal system in place. The result is a system the
/// pivot-free GPU chain cannot solve: guards must screen it (NonFinite /
/// route to the pivoting fallback) or quarantine must isolate it.
template <typename T>
void poison_system(std::span<T> a, std::span<T> b, std::span<T> c,
                   std::span<T> d, Poison kind) {
  const std::size_t n = b.size();
  if (n == 0) return;
  switch (kind) {
    case Poison::NaN: {
      const T nan = std::numeric_limits<T>::quiet_NaN();
      b[n / 2] = nan;
      d[n / 2] = nan;
      break;
    }
    case Poison::ZeroPivot:
      b[0] = T{0};
      if (n > 1) {
        // keep the row coupled so the system is genuinely singular-ish
        // for pivot-free elimination, not just trivially rescalable
        c[0] = T{1};
        a[1] = T{0};
      } else {
        d[0] = T{1};  // 0 * x = 1: inconsistent even for the pivoting path
      }
      break;
  }
  (void)a;
  (void)c;
}

}  // namespace tda::faults
