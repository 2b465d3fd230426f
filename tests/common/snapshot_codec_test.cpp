// The durable-state byte path: Checksum64 against the published XXH64
// vectors, and the SnapshotWriter field stream against bytes recorded from
// the byte-at-a-time encoder it replaced (a codec change that moves one
// byte fails here before it orphans any sealed snapshot or WAL).
#include "common/snapshot.h"

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/ring_buffer.h"

namespace sds {
namespace {

TEST(Checksum64Test, MatchesPublishedXxh64Vectors) {
  EXPECT_EQ(Checksum64(""), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(Checksum64("a"), 0xD24EC4F1A98C6E5Bull);
  EXPECT_EQ(Checksum64("abc"), 0x44BC2CF5AD770999ull);
}

std::string PatternBytes(std::size_t n) {
  std::string bytes(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<char>((i * 131 + 7) & 0xff);
  }
  return bytes;
}

TEST(Checksum64Test, StripePathMatchesReference) {
  // The published vectors above are shorter than one 32-byte stripe. These
  // lengths run the four-lane loop and its merge; the low 32 bits of each
  // value equal the content checksum zstd writes for the same bytes (a
  // frame's checksum is XXH64 at seed 0, truncated), an independent
  // implementation.
  EXPECT_EQ(Checksum64(PatternBytes(32)), 0x07f7b8e3bc5d6e25ull);
  EXPECT_EQ(Checksum64(PatternBytes(33)), 0x09f85eeb4e1cbe9full);
  EXPECT_EQ(Checksum64(PatternBytes(100)), 0x9ddada11d3dc2d8full);
  EXPECT_EQ(Checksum64(PatternBytes(1024)), 0x5960af0c625acfb7ull);
}

TEST(Checksum64Test, EverySingleBitFlipChangesIt) {
  // 1 KiB runs through the 32-byte stripe loop; every bit of every stripe
  // lane must reach the result.
  std::string bytes = PatternBytes(1024);
  const std::uint64_t clean = Checksum64(bytes);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
      ASSERT_NE(Checksum64(bytes), clean) << "byte " << i << " bit " << bit;
      bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
    }
  }
  EXPECT_EQ(Checksum64(bytes), clean);
}

TEST(Checksum64Test, EveryTailLengthIsDistinctAndCovered) {
  // Prefixes of 64 + 0..31 bytes walk every tail shape (8-byte words, one
  // 4-byte word, single bytes) behind the stripes; the short prefixes take
  // the no-stripe path. Each prefix's last byte must matter too.
  const std::string bytes = PatternBytes(96);
  std::vector<std::uint64_t> seen;
  for (std::size_t base : {std::size_t{0}, std::size_t{64}}) {
    for (std::size_t tail = 0; tail < 32; ++tail) {
      std::string prefix = bytes.substr(0, base + tail);
      const std::uint64_t h = Checksum64(prefix);
      for (std::uint64_t other : seen) ASSERT_NE(h, other) << base + tail;
      seen.push_back(h);
      if (!prefix.empty()) {
        prefix.back() = static_cast<char>(prefix.back() ^ 0x80);
        EXPECT_NE(Checksum64(prefix), h) << base + tail;
      }
    }
  }
}

// One field of each type, recorded from the byte-loop encoder.
void WriteGoldenFields(SnapshotWriter& w) {
  w.U64(0x0123456789abcdefull);
  w.I64(-2);
  w.U32(0xfeedbeefu);
  w.F64(-0.0);
  w.F64(std::bit_cast<double>(0x7ff8000000c0ffeeull));  // NaN payload
  w.Bool(true);
  w.Bool(false);
  w.Str("");
  w.Str("svc");
  w.VecF64(std::vector<double>{});
  w.VecF64(std::vector<double>{1.5, -3.25, 1e-300});
}

std::string Hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char ch : bytes) {
    const auto c = static_cast<unsigned char>(ch);
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

TEST(SnapshotCodecTest, FieldStreamBytesAreUnchanged) {
  SnapshotWriter w;
  WriteGoldenFields(w);
  EXPECT_EQ(Hex(w.data()),
            "55efcdab8967452301"          // U64
            "49feffffffffffffff"          // I64 -2
            "75efbeedfe00000000"          // U32, widened
            "460000000000000080"          // F64 -0.0
            "46eeffc0000000f87f"          // F64 NaN payload
            "4201" "4200"                 // Bool true, false
            "530000000000000000"          // Str ""
            "530300000000000000737663"    // Str "svc"
            "560000000000000000"          // VecF64 {}
            "560300000000000000"          // VecF64 {1.5, -3.25, 1e-300}
            "000000000000f83f"
            "0000000000000ac0"
            "59f3f8c21f6ea501");

  SnapshotReader r(w.data());
  EXPECT_EQ(r.U64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.I64(), -2);
  EXPECT_EQ(r.U32(), 0xfeedbeefu);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.F64()), 0x8000000000000000ull);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.F64()), 0x7ff8000000c0ffeeull);
  EXPECT_TRUE(r.Bool());
  EXPECT_FALSE(r.Bool());
  EXPECT_EQ(r.Str(), "");
  EXPECT_EQ(r.Str(), "svc");
  EXPECT_TRUE(r.VecF64().empty());
  EXPECT_EQ(r.VecF64(), (std::vector<double>{1.5, -3.25, 1e-300}));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.exhausted());
}

TEST(SnapshotCodecTest, AppendsAfterAHandedInBuffer) {
  SnapshotWriter fresh;
  WriteGoldenFields(fresh);
  std::string buffer = "head";
  buffer.reserve(512);
  SnapshotWriter w(std::move(buffer));
  WriteGoldenFields(w);
  EXPECT_EQ(w.data(), "head" + fresh.data());
}

TEST(SnapshotCodecTest, RingRunsEncodeAsOneVector) {
  RingBuffer<double> ring(5);
  for (int i = 0; i < 8; ++i) ring.Push(0.5 * i);  // wraps the storage
  const auto [older, newer] = ring.Runs();
  EXPECT_FALSE(newer.empty());
  SnapshotWriter split;
  split.VecF64(older, newer);
  SnapshotWriter whole;
  whole.VecF64(ring.ToVector());
  EXPECT_EQ(split.data(), whole.data());
}

TEST(SnapshotCodecTest, TruncationAtEveryByteIsRejected) {
  SnapshotWriter w;
  WriteGoldenFields(w);
  for (std::size_t n = 0; n < w.data().size(); ++n) {
    SnapshotReader r(std::string_view(w.data()).substr(0, n));
    r.U64();
    r.I64();
    r.U32();
    r.F64();
    r.F64();
    r.Bool();
    r.Bool();
    r.Str();
    r.Str();
    r.VecF64();
    r.VecF64();
    EXPECT_FALSE(r.ok()) << n;
  }
}

}  // namespace
}  // namespace sds
