#pragma once
// The durable-file envelope of every checksummed file the repo persists
// (the v2 tuning cache, the v1 ops snapshot):
//
//   <header prefix><16 hex digits: FNV-1a-64 of body>\n<body>
//
// Any header or checksum damage rejects the whole file; writes go to a
// unique temp file renamed over the target, so a crash mid-write leaves
// the previous file intact; reads pass the faults::Site::CacheCorrupt
// hook (TDA_FAULTS cache_corrupt=...). A format adds only its header
// prefix, its checksum's offset basis and its record grammar.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/checksum.hpp"

namespace tda::durable {

/// `v` as 16 lowercase hex digits, and the strict inverse.
std::string hex64(std::uint64_t v);
bool parse_hex64(std::string_view digits, std::uint64_t* out);

/// `header` + hex64(fnv1a64(body, basis)) + '\n' + `body`.
std::string seal(std::string_view header, std::string_view body,
                 std::uint64_t basis = kFnv1a64Basis);

/// Inverse of seal: true, with `*body` viewing the bytes after the
/// header line, only when the header and checksum verify. `why`
/// (optional) gets a one-line reason otherwise.
bool unseal(std::string_view header, std::string_view bytes,
            std::string_view* body, std::string* why = nullptr,
            std::uint64_t basis = kFnv1a64Basis);

/// Writes `bytes` to `path + ".tmp<pid>.<n>"` and renames it over
/// `path`. False, with the temp removed, when any step fails.
bool write_atomic(const std::string& path, std::string_view bytes,
                  std::string* why = nullptr);

/// Contents of `path` after the CacheCorrupt hook; nullopt when the
/// file cannot be opened.
std::optional<std::string> read_file(const std::string& path);

}  // namespace tda::durable
