#include "faults/durable.hpp"

#include <atomic>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <iterator>

#include <unistd.h>

#include "common/log.hpp"
#include "faults/faults.hpp"

namespace tda::durable {

namespace {

bool fail(std::string* why, std::string msg) {
  if (why != nullptr) *why = std::move(msg);
  return false;
}

}  // namespace

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool parse_hex64(std::string_view digits, std::uint64_t* out) {
  if (digits.size() != 16) return false;
  const char* end = digits.data() + 16;
  const auto r = std::from_chars(digits.data(), end, *out, 16);
  return r.ec == std::errc() && r.ptr == end;
}

std::string seal(std::string_view header, std::string_view body,
                 std::uint64_t basis) {
  return (std::string(header) + hex64(fnv1a64(body, basis)) + '\n')
      .append(body);
}

bool unseal(std::string_view header, std::string_view bytes,
            std::string_view* body, std::string* why, std::uint64_t basis) {
  if (bytes.substr(0, header.size()) != header) {
    return fail(why, "bad or missing header");
  }
  const std::size_t nl = header.size() + 16;
  std::uint64_t want = 0;
  if (bytes.size() <= nl || bytes[nl] != '\n' ||
      !parse_hex64(bytes.substr(header.size(), 16), &want)) {
    return fail(why, "unparsable header checksum");
  }
  const std::string_view rest = bytes.substr(nl + 1);
  if (fnv1a64(rest, basis) != want) return fail(why, "checksum mismatch");
  *body = rest;
  return true;
}

bool write_atomic(const std::string& path, std::string_view bytes,
                  std::string* why) {
  // Unique per process and per call: concurrent writers of one path
  // each stage their own file, and every rename lands a whole file.
  static std::atomic<std::uint64_t> counter{0};
  const std::string tmp = path + ".tmp" + std::to_string(::getpid()) +
                          "." + std::to_string(counter.fetch_add(1));
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) return fail(why, "cannot open temp file " + tmp);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) {
    std::remove(tmp.c_str());
    return fail(why, "short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return fail(why, "rename to " + path + " failed");
  }
  return true;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string bytes{std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>()};
  auto& inj = faults::FaultInjector::global();
  if (inj.fire(faults::Site::CacheCorrupt)) {
    faults::corrupt_bytes(bytes, inj.config().seed, 8);
    TDA_WARN("faults: corrupted the bytes of " << path << " before parsing");
  }
  return bytes;
}

}  // namespace tda::durable
