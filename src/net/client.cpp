#include "net/client.hpp"

#include <chrono>
#include <random>
#include <thread>

namespace tda::net {

namespace {

std::uint64_t splitmix64(std::uint64_t& s) {
  s += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

bool Client::connect(const std::string& spec, const std::string& token,
                     std::string* err) {
  close();
  spec_ = spec;
  token_ = token;
  outstanding_.clear();
  prev_backoff_ms_ = 0.0;
  return do_connect(err);
}

bool Client::do_connect(std::string* err) {
  const auto ep = parse_endpoint(spec_);
  if (!ep) {
    if (err != nullptr) *err = "bad endpoint spec: " + spec_;
    return false;
  }
  fd_ = connect_endpoint(*ep, err);
  if (!fd_.valid()) return false;
  rbuf_.clear();
  tenant_.clear();
  wire_version_ = kVersion;
  if (token_.empty()) return true;

  std::string hello;
  // The wall-clock stamp lets the server estimate this connection's
  // clock skew and clamp implausible absolute deadlines
  // (docs/OPERATIONS.md); a server predating it ignores the extra f64.
  encode_hello(hello, token_, kMaxVersion, unix_now_ms());
  if (!send_bytes(hello, err)) return false;
  FrameType type{};
  std::uint64_t rid = 0;
  std::string payload;
  if (!next_frame(type, rid, payload, err)) return false;
  if (type == FrameType::HelloOk) {
    const auto ok = parse_hello_ok(payload);
    if (!ok) {
      if (err != nullptr) *err = "unparsable HelloOk";
      close_fd();
      return false;
    }
    tenant_ = ok->tenant;
    // A legacy server leaves the slot 0 → v1.
    wire_version_ = ok->negotiated_version >= kVersion2 ? kVersion2
                                                        : kVersion;
    return true;
  }
  if (type == FrameType::SolveErr) {
    const auto e = parse_solve_err(payload);
    if (err != nullptr) {
      *err = e ? "auth rejected: " + e->message : "auth rejected";
    }
  } else if (err != nullptr) {
    *err = "unexpected handshake frame";
  }
  close_fd();
  return false;
}

std::uint64_t Client::mint_key() {
  if (key_nonce_ == 0) {
    std::random_device rd;
    key_nonce_ = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
    if (key_nonce_ == 0) key_nonce_ = 1;
  }
  return key_nonce_ ^ ++key_counter_;
}

double Client::next_backoff_ms() {
  // Decorrelated jitter: sleep = min(cap, uniform(base, prev * 3)).
  // Independent streams desynchronize even clients that failed on the
  // same instant, so a reconnect wave spreads instead of stampeding.
  if (jitter_state_ == 0) jitter_state_ = retry_.seed | 1;
  const double lo = retry_.base_backoff_ms;
  const double hi = prev_backoff_ms_ * 3.0 > lo ? prev_backoff_ms_ * 3.0
                                                : lo;
  const double u =
      static_cast<double>(splitmix64(jitter_state_) >> 11) * 0x1.0p-53;
  double sleep = lo + u * (hi - lo);
  if (sleep > retry_.max_backoff_ms) sleep = retry_.max_backoff_ms;
  prev_backoff_ms_ = sleep;
  return sleep;
}

bool Client::recover(std::string* err) {
  if (retry_.max_attempts <= 0) return false;
  for (int attempt = 0; attempt < retry_.max_attempts; ++attempt) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(next_backoff_ms()));
    std::string connect_err;
    if (!do_connect(&connect_err)) continue;
    ++stats_.reconnects;
    // Resend everything unanswered, byte-identical: same request ids,
    // same idempotency keys, same absolute deadlines.
    bool all_sent = true;
    for (const auto& [rid, bytes] : outstanding_) {
      if (!send_bytes(bytes, nullptr)) {
        all_sent = false;
        break;
      }
      ++stats_.resends;
    }
    if (all_sent) {
      prev_backoff_ms_ = 0.0;
      return true;
    }
  }
  ++stats_.gave_up;
  if (err != nullptr) *err = "recovery exhausted retry attempts";
  return false;
}

bool Client::send_tracked(std::uint64_t request_id, std::string bytes,
                          std::string* err) {
  if (retry_.max_attempts > 0) {
    outstanding_[request_id] = bytes;
    if (send_bytes(bytes, err)) return true;
    // recover() resends the whole outstanding window, including this
    // frame — success means it is on the wire.
    if (recover(err)) return true;
    outstanding_.erase(request_id);
    return false;
  }
  return send_bytes(bytes, err);
}

void Client::close() {
  if (!fd_.valid()) return;
  std::string bye;
  encode_goodbye(bye);
  (void)write_all(fd_.get(), bye.data(), bye.size());
  close_fd();
}

void Client::close_fd() {
  fd_.reset();
  rbuf_.clear();
}

bool Client::send_bytes(const std::string& bytes, std::string* err) {
  if (!fd_.valid()) {
    if (err != nullptr) *err = "not connected";
    return false;
  }
  if (!write_all(fd_.get(), bytes.data(), bytes.size())) {
    if (err != nullptr) *err = "send failed (connection lost)";
    close_fd();
    return false;
  }
  return true;
}

bool Client::next_frame(FrameType& type, std::uint64_t& request_id,
                        std::string& payload, std::string* err) {
  if (!fd_.valid()) {
    if (err != nullptr) *err = "not connected";
    return false;
  }
  const DecodeResult r = read_frame(fd_.get(), rbuf_, kAbsoluteMaxPayload);
  if (r.status != DecodeStatus::Ok) {
    if (err != nullptr) *err = std::string("from server: ") + r.error;
    close_fd();
    return false;
  }
  type = r.frame.type;
  request_id = r.frame.request_id;
  payload.assign(r.frame.payload);
  rbuf_.erase(0, r.consumed);
  return true;
}

}  // namespace tda::net
