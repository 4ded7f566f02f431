#pragma once
// FNV-1a, the repo's one checksum: the wire frame header (32-bit), the
// durable-file envelope and the front door's payload fingerprint
// (64-bit). Each step s' = (s ^ byte) * prime is a bijection of the
// state, so any single flipped byte changes the sum. Header-only so the
// per-byte loop inlines into decode_frame on the receive path.

#include <cstdint>
#include <string_view>

namespace tda {

/// FNV-1a-32 over `bytes`, continuing from `state` (default: a fresh
/// hash from the offset basis).
[[nodiscard]] inline std::uint32_t fnv1a32(
    std::string_view bytes, std::uint32_t state = 0x811C9DC5u) noexcept {
  for (const char c : bytes) {
    state ^= static_cast<std::uint8_t>(c);
    state *= 0x01000193u;
  }
  return state;
}

inline constexpr std::uint64_t kFnv1a64Basis = 0xCBF29CE484222325ull;
/// The offset basis the front door's payload fingerprints and the ops
/// snapshot checksum have always used (the published decimal basis
/// with its last digit dropped). Persisted snapshots depend on it.
inline constexpr std::uint64_t kFnv1a64LegacyBasis = 1469598103934665603ull;

/// FNV-1a-64 over `bytes`, starting from offset basis `state`.
[[nodiscard]] inline std::uint64_t fnv1a64(
    std::string_view bytes, std::uint64_t state = kFnv1a64Basis) noexcept {
  for (const char c : bytes) {
    state ^= static_cast<std::uint8_t>(c);
    state *= 0x100000001B3ull;
  }
  return state;
}

}  // namespace tda
