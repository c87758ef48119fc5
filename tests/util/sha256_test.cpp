#include "util/sha256.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "honeypot/hash_chain.hpp"
#include "util/sha256_impl.hpp"

namespace hbp::util {
namespace {

// FIPS 180-4 test vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(Sha256::hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, QuickBrownFox) {
  EXPECT_EQ(to_hex(Sha256::hash("The quick brown fox jumps over the lazy dog")),
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "honeypot back-propagation";
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(msg.substr(0, split));
    h.update(msg.substr(split));
    EXPECT_EQ(to_hex(h.finish()), to_hex(Sha256::hash(msg)));
  }
}

// Boundary lengths around the padding edge (55/56/57, 63/64/65 bytes).
class Sha256PaddingBoundary : public ::testing::TestWithParam<int> {};

TEST_P(Sha256PaddingBoundary, MatchesIncremental) {
  const std::string msg(static_cast<std::size_t>(GetParam()), 'x');
  Sha256 bytewise;
  for (const char c : msg) bytewise.update(std::string_view(&c, 1));
  EXPECT_EQ(to_hex(bytewise.finish()), to_hex(Sha256::hash(msg)));
}

INSTANTIATE_TEST_SUITE_P(Lengths, Sha256PaddingBoundary,
                         ::testing::Values(0, 1, 55, 56, 57, 63, 64, 65, 119,
                                           120, 128));

// --- each compression function on its own ---
//
// hash_via pads the message itself (independently of Sha256::finish) and
// feeds every block to one compression function, so the portable and the
// SHA-NI rounds are each checked against the known answers, whichever one
// Sha256 picked on this CPU.

Digest hash_via(detail::Sha256Compress compress, std::string_view msg) {
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::vector<std::uint8_t> padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  compress(state, padded.data(), padded.size() / 64);
  Digest out;
  for (int i = 0; i < 32; ++i) {
    out[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

Digest hash_via(detail::Sha256Compress compress, const Digest& d) {
  return hash_via(compress, std::string_view(
                                reinterpret_cast<const char*>(d.data()), d.size()));
}

enum class Path { kPortable, kShaNi };

std::string path_name(const ::testing::TestParamInfo<Path>& info) {
  return info.param == Path::kPortable ? "Portable" : "ShaNi";
}

class Sha256Path : public ::testing::TestWithParam<Path> {
 protected:
  void SetUp() override {
    if (GetParam() == Path::kPortable) {
      compress_ = &detail::sha256_compress_portable;
      return;
    }
#ifdef HBP_SHA256_HAVE_SHANI
    if (detail::shani_supported()) {
      compress_ = &detail::sha256_compress_shani;
      return;
    }
#endif
    GTEST_SKIP() << "this CPU lacks SHA-NI (sha + sse4.1); only the portable "
                    "path can run here";
  }

  Digest hash(std::string_view msg) const { return hash_via(compress_, msg); }

  detail::Sha256Compress compress_ = nullptr;
};

TEST_P(Sha256Path, Fips180KnownAnswers) {
  EXPECT_EQ(to_hex(hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(to_hex(hash(std::string(1000000, 'a'))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256Path, PaddingBoundaryLengthsMatchSha256) {
  // Lengths 0..130 cross the one-, two- and three-block padding edges; the
  // bytes vary so a word-order slip cannot cancel out.
  std::string msg;
  for (int len = 0; len <= 130; ++len) {
    Sha256 bytewise;
    for (const char c : msg) bytewise.update(std::string_view(&c, 1));
    const Digest expected = bytewise.finish();
    EXPECT_EQ(to_hex(hash(msg)), to_hex(expected)) << "length " << len;
    EXPECT_EQ(to_hex(Sha256::hash(msg)), to_hex(expected)) << "length " << len;
    msg.push_back(static_cast<char>('a' + len % 26));
  }
}

TEST_P(Sha256Path, FullHashChainMatchesHashChain) {
  // The roaming schedule's chain at full length: K_i = H(K_{i+1}).
  constexpr std::size_t kLength = 8192;
  const Digest tail = Sha256::hash("fixed chain tail");
  const honeypot::HashChain chain(tail, kLength);
  Digest k = tail;
  for (std::size_t i = kLength; i >= 1; --i) {
    ASSERT_EQ(to_hex(chain.key(i)), to_hex(k)) << "key " << i;
    k = hash_via(compress_, k);
  }
}

INSTANTIATE_TEST_SUITE_P(Compress, Sha256Path,
                         ::testing::Values(Path::kPortable, Path::kShaNi),
                         path_name);

// RFC 4231 test case 2.
TEST(HmacSha256, Rfc4231Case2) {
  const std::string key = "Jefe";
  const std::string data = "what do ya want for nothing?";
  const Digest mac = hmac_sha256(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(key.data()), key.size()),
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
  EXPECT_EQ(to_hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 1 (20-byte 0x0b key).
TEST(HmacSha256, Rfc4231Case1) {
  std::vector<std::uint8_t> key(20, 0x0b);
  const std::string data = "Hi There";
  const Digest mac = hmac_sha256(
      key, std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
  EXPECT_EQ(to_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 6: key longer than the block size.
TEST(HmacSha256, LongKeyIsHashedFirst) {
  std::vector<std::uint8_t> key(131, 0xaa);
  const std::string data = "Test Using Larger Than Block-Size Key - Hash Key First";
  const Digest mac = hmac_sha256(
      key, std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
  EXPECT_EQ(to_hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, DifferentKeysDiffer) {
  const Digest k1 = Sha256::hash("key-one");
  const Digest k2 = Sha256::hash("key-two");
  EXPECT_FALSE(digest_equal(hmac_sha256(k1, "msg"), hmac_sha256(k2, "msg")));
}

TEST(DigestEqual, DetectsSingleBitFlip) {
  Digest a = Sha256::hash("x");
  Digest b = a;
  EXPECT_TRUE(digest_equal(a, b));
  b[31] ^= 1;
  EXPECT_FALSE(digest_equal(a, b));
}

TEST(ToHex, Is64LowercaseChars) {
  const std::string hex = to_hex(Sha256::hash("y"));
  EXPECT_EQ(hex.size(), 64u);
  for (const char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'));
  }
}

}  // namespace
}  // namespace hbp::util
