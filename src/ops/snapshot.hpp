#pragma once
// Versioned, checksummed, crash-safe serialization of ops::ServerState
// inside the shared durable-file envelope (faults/durable.hpp): a
// header line carrying a 64-bit FNV-1a checksum of everything after it,
// whole-file rejection on any header/checksum damage, and atomic
// replacement via unique temp file + rename. A record that fails to
// parse rejects the whole snapshot too, so a damaged snapshot falls
// back to cold start, never to a half-restored registry.
//
// The record format is line-based text: doubles are printed as C99 hex
// floats (%a), which round-trip exactly and make save -> load -> save
// byte-stable; strings are %-escaped; tenants and dedup entries are
// written in sorted order so serialization is a pure function of the
// state. docs/OPERATIONS.md documents the grammar.

#include <string>

#include "ops/state.hpp"

namespace tda::ops {

/// Header prefix of the current snapshot format. The 16 hex digits
/// after "checksum=" are FNV-1a-64 (offset basis kFnv1a64LegacyBasis)
/// over every byte after the header line's newline.
inline constexpr char kSnapshotHeader[] =
    "# tridiag_ops snapshot v1 checksum=";

/// Serializes `state` to the exact bytes save_snapshot would write
/// (header included). Exposed for the byte-stability property test.
std::string serialize_snapshot(const ServerState& state);

/// Parses snapshot bytes. Returns true and fills `out` only when the
/// header, checksum and every record parse; any damage rejects the
/// whole file and leaves `out` untouched. `why` (optional) gets a
/// one-line diagnostic on failure.
bool parse_snapshot(const std::string& bytes, ServerState* out,
                    std::string* why = nullptr);

/// Writes atomically (durable::write_atomic). Returns false, with the
/// temp file removed, when any step fails.
bool save_snapshot(const std::string& path, const ServerState& state,
                   std::string* why = nullptr);

/// Loads `path`. A missing file, a short read, or any parse/checksum
/// failure returns false with `out` untouched — the caller cold-starts.
/// Reads through durable::read_file, so the faults::Site::CacheCorrupt
/// hook (TDA_FAULTS cache_corrupt=...) can flip bits before parsing.
bool load_snapshot(const std::string& path, ServerState* out,
                   std::string* why = nullptr);

}  // namespace tda::ops
