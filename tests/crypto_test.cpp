#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace sbft::crypto {
namespace {

// FIPS 180-4 / NIST test vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(as_span(sha256(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(as_span(sha256("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(as_span(sha256(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(as_span(h.finish())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Bytes data;
  for (int i = 0; i < 300; ++i) data.push_back(static_cast<uint8_t>(i));
  Digest whole = sha256(as_span(data));
  for (size_t split : {1ul, 17ul, 63ul, 64ul, 65ul, 299ul}) {
    Sha256 h;
    h.update(ByteSpan{data.data(), split});
    h.update(ByteSpan{data.data() + split, data.size() - split});
    EXPECT_EQ(h.finish(), whole) << "split at " << split;
  }
}

TEST(Sha256, ExactBlockBoundary) {
  std::string msg(64, 'x');
  Digest a = sha256(msg);
  Sha256 h;
  h.update(msg);
  EXPECT_EQ(h.finish(), a);
}

TEST(Sha256, ConcatHelper) {
  Bytes a = to_bytes("foo");
  Bytes b = to_bytes("bar");
  EXPECT_EQ(sha256_concat(as_span(a), as_span(b)), sha256("foobar"));
}

TEST(Sha256, ResetReuses) {
  Sha256 h;
  h.update("abc");
  Digest first = h.finish();
  h.reset();
  h.update("abc");
  EXPECT_EQ(h.finish(), first);
}

// ---------------------------------------------------------------------------
// Compress backends: the portable one and, where the CPU has it, SHA-NI.

struct Vector {
  std::string msg;
  const char* hex;
};

// FIPS 180-4 / NIST vectors, then `len` bytes of 'a' at the lengths where
// finish() changes shape: the 0x80 marker and the 8-byte length fit in the
// last block up to 55 bytes (mod 64) and spill into an extra block from 56 on.
// The padding-boundary digests come from Python's hashlib.sha256.
std::vector<Vector> known_answers() {
  std::vector<Vector> v = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklm"
       "nopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  const std::pair<size_t, const char*> padding[] = {
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {57, "f13b2d724659eb3bf47f2dd6af1accc87b81f09f59f2b75e5c0bed6589dfe8c6"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
  };
  for (const auto& [len, hex] : padding) v.push_back({std::string(len, 'a'), hex});
  return v;
}

Digest hash_with(detail::CompressFn compress, ByteSpan data) {
  return Sha256(compress).update(data).finish();
}

void expect_known_answers(detail::CompressFn compress) {
  for (const Vector& v : known_answers()) {
    EXPECT_EQ(to_hex(as_span(hash_with(compress, as_span(v.msg)))), v.hex)
        << "message length " << v.msg.size();
  }
}

TEST(Sha256Backends, PortableMatchesKnownAnswers) {
  expect_known_answers(detail::compress_portable);
}

TEST(Sha256Backends, AcceleratedMatchesKnownAnswers) {
  detail::CompressFn fast = detail::accelerated_compress();
  if (fast == nullptr) GTEST_SKIP() << "this CPU lacks the SHA-NI extensions";
  expect_known_answers(fast);
}

TEST(Sha256Backends, DefaultIsAcceleratedWhenAvailable) {
  detail::CompressFn fast = detail::accelerated_compress();
  EXPECT_EQ(detail::default_compress(),
            fast != nullptr ? fast : detail::compress_portable);
}

TEST(Sha256Backends, AcceleratedCompressMatchesPortable) {
  detail::CompressFn fast = detail::accelerated_compress();
  if (fast == nullptr) GTEST_SKIP() << "this CPU lacks the SHA-NI extensions";
  Rng rng(256);
  for (size_t blocks = 1; blocks <= 5; ++blocks) {
    // Random state words and an odd offset into the buffer, so the loads are
    // unaligned.
    Bytes buf = rng.bytes(64 * blocks + 1);
    uint32_t a[8];
    for (uint32_t& w : a) w = static_cast<uint32_t>(rng.next());
    uint32_t b[8];
    std::memcpy(b, a, sizeof a);
    detail::compress_portable(a, buf.data() + 1, blocks);
    fast(b, buf.data() + 1, blocks);
    EXPECT_EQ(0, std::memcmp(a, b, sizeof a)) << blocks << " blocks";
  }
}

// Every message length 0..1024, hashed whole and split in two at each block
// boundary and one byte either side of it.
TEST(Sha256Backends, AcceleratedMatchesPortableAtEveryLength) {
  detail::CompressFn fast = detail::accelerated_compress();
  if (fast == nullptr) GTEST_SKIP() << "this CPU lacks the SHA-NI extensions";
  Rng rng(13);
  for (size_t len = 0; len <= 1024; ++len) {
    Bytes msg = rng.bytes(len);
    const Digest want = hash_with(detail::compress_portable, as_span(msg));
    ASSERT_EQ(hash_with(fast, as_span(msg)), want) << "length " << len;
    for (size_t boundary = 64; boundary <= len + 1; boundary += 64) {
      for (size_t split : {boundary - 1, boundary, boundary + 1}) {
        if (split > len) continue;
        for (detail::CompressFn compress : {detail::compress_portable, fast}) {
          Sha256 h(compress);
          h.update(ByteSpan{msg.data(), split});
          h.update(ByteSpan{msg.data() + split, len - split});
          ASSERT_EQ(h.finish(), want) << "length " << len << " split " << split;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// HMAC

// RFC 4231 cases 1-4 and 6 (case 6: a 131-byte key, hashed down first),
// through the one-shot function and a keyed context.
TEST(Hmac, Rfc4231) {
  Bytes key4;
  for (uint8_t b = 1; b <= 25; ++b) key4.push_back(b);
  const struct {
    Bytes key;
    Bytes data;
    const char* hex;
  } cases[] = {
      {Bytes(20, 0x0b), to_bytes("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {to_bytes("Jefe"), to_bytes("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {Bytes(20, 0xaa), Bytes(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {key4, Bytes(50, 0xcd),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {Bytes(131, 0xaa),
       to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(to_hex(as_span(hmac_sha256(as_span(c.key), as_span(c.data)))), c.hex);
    EXPECT_EQ(to_hex(as_span(HmacSha256(as_span(c.key)).mac(as_span(c.data)))), c.hex);
  }
}

TEST(Hmac, FragmentsEqualConcatenation) {
  Rng rng(4231);
  Bytes key = rng.bytes(32);
  Bytes msg = rng.bytes(200);
  HmacSha256 keyed(as_span(key));
  // Fragments that straddle the 64-byte block boundaries at odd offsets.
  ByteSpan all = as_span(msg);
  std::initializer_list<ByteSpan> parts = {all.subspan(0, 1), all.subspan(1, 62),
                                           all.subspan(63, 0), all.subspan(63, 66),
                                           all.subspan(129, 71)};
  const Digest want = hmac_sha256(as_span(key), all);
  EXPECT_EQ(hmac_sha256(as_span(key), parts), want);
  EXPECT_EQ(keyed.mac(parts), want);
  EXPECT_EQ(keyed.mac(all), want);
}

TEST(Hmac, KeyedContextIsReusable) {
  HmacSha256 keyed(as_span("key"));
  const Digest first = keyed.mac(as_span("message"));
  EXPECT_NE(keyed.mac(as_span("other message")), first);
  EXPECT_EQ(keyed.mac(as_span("message")), first);
  EXPECT_EQ(keyed.mac(as_span("message")), first);
}

TEST(Hmac, KeySensitivity) {
  EXPECT_NE(hmac_sha256(as_span("k1"), as_span("m")),
            hmac_sha256(as_span("k2"), as_span("m")));
}

}  // namespace
}  // namespace sbft::crypto
