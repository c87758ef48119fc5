// SHA-256 and HMAC-SHA256, implemented from scratch (FIPS 180-4 / RFC 2104).
//
// Used by the roaming-honeypots hash chain (one-way key chain, Section 4 of
// the paper) and for authenticating inter-AS honeypot request/cancel
// messages (Section 5.3, "Message security").
//
// Whole blocks are compressed straight from the input, by the CPU's SHA-NI
// instructions where it has them and by portable rounds otherwise (see
// util/sha256_impl.hpp); both give the same digests.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace hbp::util {

using Digest = std::array<std::uint8_t, 32>;

class Sha256 {
 public:
  Sha256();

  void update(std::span<const std::uint8_t> data);
  void update(std::string_view s);

  // Finalises and returns the digest; the object must not be reused after.
  Digest finish();

  static Digest hash(std::span<const std::uint8_t> data);
  static Digest hash(std::string_view s);

 private:
  // Runs the compression function picked once per process (SHA-NI when
  // the CPU has it, else portable) over whole 64-byte blocks.
  void process_blocks(const std::uint8_t* blocks, std::size_t n_blocks);

  std::array<std::uint32_t, 8> h_;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finished_ = false;
};

// HMAC-SHA256 (RFC 2104).
Digest hmac_sha256(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> message);
Digest hmac_sha256(const Digest& key, std::string_view message);

// Constant-time digest comparison.
bool digest_equal(const Digest& a, const Digest& b);

std::string to_hex(const Digest& d);

}  // namespace hbp::util
