#include "tuning/cache.hpp"

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string_view>

#include "common/log.hpp"
#include "faults/durable.hpp"

namespace tda::tuning {

namespace {
/// Serialises the read-merge-rename window of save_merged across every
/// cache instance in this process, so two solvers sharing a cache_path
/// cannot lose each other's freshly merged records. (Cross-process
/// writers still race on that window; each still produces a complete,
/// parseable file thanks to the atomic rename.)
std::mutex& file_mutex() {
  static std::mutex mu;
  return mu;
}

// v1: bare header, no integrity check (still readable).
// v2: the durable-file envelope — any flipped bit rejects the whole
// file, falling back to re-tuning rather than solving with corrupted
// switch points.
constexpr std::string_view kHeaderV1 = "# tridiag_autotune tuning cache v1";
constexpr std::string_view kHeaderV2 =
    "# tridiag_autotune tuning cache v2 checksum=";

/// Positive-integer field with explicit rejection of negatives,
/// non-numbers and fractions (istream would happily wrap "-3" into a
/// size_t).
bool parse_count(std::istream& in, std::size_t& out) {
  double v = 0.0;
  if (!(in >> v)) return false;
  if (!std::isfinite(v) || v < 1.0 || v != std::floor(v)) return false;
  out = static_cast<std::size_t>(v);
  return true;
}

/// One record: key \t stage1 stage3 thomas variant layout ms.
/// Records written before layout was a tuner dimension omit the layout
/// token; the token after `variant` is then the ms itself, so peek at
/// it and default those records to system-major.
bool parse_record(const std::string& line, std::string& key,
                  CacheEntry& e) {
  std::istringstream ls(line);
  std::string variant, tok;
  bool ok = static_cast<bool>(std::getline(ls, key, '\t')) &&
            !key.empty() &&
            parse_count(ls, e.points.stage1_target_systems) &&
            parse_count(ls, e.points.stage3_system_size) &&
            parse_count(ls, e.points.thomas_switch) &&
            static_cast<bool>(ls >> variant >> tok) &&
            (variant == "coalesced" || variant == "strided");
  if (!ok) return false;
  if (tok == "system" || tok == "element") {
    e.points.layout = (tok == "element")
                          ? tridiag::BatchLayout::ElementMajor
                          : tridiag::BatchLayout::SystemMajor;
    ok = static_cast<bool>(ls >> e.tuned_ms);
  } else {
    char* end = nullptr;
    e.tuned_ms = std::strtod(tok.c_str(), &end);
    ok = end != nullptr && *end == '\0';
  }
  e.points.variant = (variant == "coalesced")
                         ? kernels::LoadVariant::Coalesced
                         : kernels::LoadVariant::Strided;
  return ok && std::isfinite(e.tuned_ms) && e.tuned_ms >= 0.0;
}

/// Parses a whole cache file into `out`. Returns the number of records
/// stored, or nullopt when the file is rejected whole (bad header or
/// checksum); malformed records of an intact file are counted,
/// log-warned and skipped.
std::optional<std::size_t> parse_file(
    std::string_view bytes, std::map<std::string, CacheEntry>& out) {
  std::string_view body;
  std::string why;
  const std::size_t nl = bytes.find('\n');
  if (bytes.substr(0, nl) == kHeaderV1) {
    // Legacy file: readable, but carries no integrity check.
    body = nl == std::string_view::npos ? std::string_view{}
                                        : bytes.substr(nl + 1);
  } else if (!durable::unseal(kHeaderV2, bytes, &body, &why)) {
    TDA_WARN("tuning cache: " << why
                              << " — ignoring the whole file (will "
                                 "re-tune)");
    return std::nullopt;
  }
  std::size_t loaded = 0, skipped = 0;
  std::istringstream lines{std::string(body)};
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::string key;
    CacheEntry e;
    if (!parse_record(line, key, e)) {
      ++skipped;
    } else {
      out[key] = e;
      ++loaded;
    }
  }
  if (skipped > 0) {
    TDA_WARN("tuning cache: skipped " << skipped << " malformed record(s)");
  }
  return loaded;
}

bool write_file(const std::string& path,
                const std::map<std::string, CacheEntry>& entries) {
  std::ostringstream body;
  for (const auto& [key, e] : entries) {
    body << key << '\t' << e.points.stage1_target_systems << ' '
         << e.points.stage3_system_size << ' ' << e.points.thomas_switch
         << ' ' << kernels::to_string(e.points.variant) << ' '
         << tridiag::to_string(e.points.layout) << ' ' << e.tuned_ms
         << '\n';
  }
  return durable::write_atomic(path, durable::seal(kHeaderV2, body.str()));
}
}  // namespace

std::string TuningCache::make_key(const std::string& device_name,
                                  std::size_t elem_bytes, std::size_t m,
                                  std::size_t n) {
  std::ostringstream os;
  os << device_name << "|fp" << elem_bytes * 8 << "|" << m << "x" << n;
  return os.str();
}

std::optional<CacheEntry> TuningCache::find(const std::string& key) const {
  std::lock_guard lk(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

void TuningCache::store(const std::string& key, const CacheEntry& entry) {
  std::lock_guard lk(mu_);
  entries_[key] = entry;
}

std::size_t TuningCache::size() const {
  std::lock_guard lk(mu_);
  return entries_.size();
}

void TuningCache::clear() {
  std::lock_guard lk(mu_);
  entries_.clear();
}

std::map<std::string, CacheEntry> TuningCache::snapshot() const {
  std::lock_guard lk(mu_);
  return entries_;
}

std::size_t TuningCache::load(const std::string& path) {
  const auto bytes = durable::read_file(path);
  if (!bytes) return 0;
  // Parse into a scratch map: a file that fails the header/checksum
  // check must not leave a partial cache behind.
  std::map<std::string, CacheEntry> parsed;
  const auto loaded = parse_file(*bytes, parsed);
  if (!loaded) return 0;
  std::lock_guard lk(mu_);
  for (auto& [key, e] : parsed) entries_[key] = e;
  return *loaded;
}

bool TuningCache::save(const std::string& path) const {
  std::lock_guard lk(mu_);
  return write_file(path, entries_);
}

bool TuningCache::save_merged(const std::string& path) const {
  std::lock_guard file_lk(file_mutex());
  std::map<std::string, CacheEntry> merged;
  if (const auto bytes = durable::read_file(path)) {
    (void)parse_file(*bytes, merged);
  }
  {
    std::lock_guard lk(mu_);
    for (const auto& [key, e] : entries_) merged[key] = e;
  }
  return write_file(path, merged);
}

}  // namespace tda::tuning
