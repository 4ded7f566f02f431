#include "service/config.hpp"
#include "service/request.hpp"

namespace tda::service {

const char* to_string(BackpressurePolicy p) {
  switch (p) {
    case BackpressurePolicy::Block:
      return "block";
    case BackpressurePolicy::Reject:
      return "reject";
    case BackpressurePolicy::ShedOldest:
      return "shed-oldest";
  }
  return "?";
}

const char* to_string(SolveStatus s) {
  switch (s) {
    case SolveStatus::Ok:
      return "ok";
    case SolveStatus::Rejected:
      return "rejected";
    case SolveStatus::Shed:
      return "shed";
    case SolveStatus::TimedOut:
      return "timed-out";
    case SolveStatus::Failed:
      return "failed";
    case SolveStatus::Singular:
      return "singular";
    case SolveStatus::NonFinite:
      return "nonfinite";
  }
  return "?";
}

const char* to_string(TimeoutScope s) {
  switch (s) {
    case TimeoutScope::None:
      return "none";
    case TimeoutScope::Queue:
      return "queue";
    case TimeoutScope::InFlight:
      return "in-flight";
  }
  return "?";
}

double decorrelated_backoff_ms(double base_ms, double prev_ms,
                               double max_ms, std::uint64_t& state) {
  // splitmix64 step; cheap, caller-seeded, no global RNG contention.
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
  const double hi = prev_ms * 3.0 > base_ms ? prev_ms * 3.0 : base_ms;
  double sleep = base_ms + u * (hi - base_ms);
  if (sleep > max_ms) sleep = max_ms;
  return sleep;
}

}  // namespace tda::service
