// Tests for the self-contained DEFLATE/zlib codec (src/viz/deflate.*).
//
// Round-trips every small image size the tile path produces, checks the
// stored fallback on incompressible input, and decodes golden vectors
// produced by a reference zlib so the inflater is validated against real
// fixed- and dynamic-Huffman streams, not just our own compressor. A golden
// corpus pins the encoder's own output byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/prng.hpp"
#include "viz/deflate.hpp"
#include "viz/image.hpp"

namespace v = ricsa::viz;

namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  ricsa::util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng() & 0xFF);
  return out;
}

}  // namespace

TEST(Deflate, RoundTripsEmptyConstantAndRandomBuffers) {
  EXPECT_TRUE(v::inflate(v::deflate(nullptr, 0)).empty());

  const std::vector<std::uint8_t> constant(10000, 0x42);
  const auto constant_z = v::deflate(constant);
  EXPECT_EQ(v::inflate(constant_z), constant);
  // A constant run is the codec's best case: long LZ77 matches, tiny output.
  EXPECT_LT(constant_z.size(), constant.size() / 20);

  for (const std::size_t n : {1u, 2u, 3u, 255u, 4096u, 70000u, 200001u}) {
    const auto data = random_bytes(n, n);
    EXPECT_EQ(v::inflate(v::deflate(data)), data) << "n=" << n;
  }
}

TEST(Deflate, StoredFallbackBoundsIncompressibleExpansion) {
  // Random bytes have no matches and near-uniform literals: entropy coding
  // would expand them, so every block must fall back to stored. Overhead is
  // then the 5-byte header per <=64 KiB block — never a material blowup.
  for (const std::size_t n : {300u, 65535u, 100000u}) {
    const auto data = random_bytes(n, 7000 + n);
    const auto z = v::deflate(data);
    EXPECT_EQ(v::inflate(z), data);
    EXPECT_LE(z.size(), n + 5 * (n / 65535 + 1) + 5) << "n=" << n;
    // First block really is stored: BFINAL/BTYPE live in the low bits.
    EXPECT_EQ((z[0] >> 1) & 0x3, 0u);
  }
}

TEST(Deflate, StoredFallbackSplitsSpansPastSixtyFourK) {
  // A match appended just before the 65535-byte block boundary carries the
  // block's span past the 16-bit stored LEN limit; the stored fallback
  // (which random data always takes) must split the span into multiple
  // blocks rather than truncate LEN. Cover several alignments of the
  // match against the boundary, including a span of exactly 65536.
  for (const std::size_t start : {65278u, 65300u, 65400u, 65500u, 65534u}) {
    auto data = random_bytes(70000, 9000 + start);
    // Plant a max-length (258) match whose source is inside the 32 KiB
    // window so the LZ77 search finds it and straddles the boundary.
    std::copy(data.begin() + static_cast<std::ptrdiff_t>(start - 20000),
              data.begin() + static_cast<std::ptrdiff_t>(start - 20000 + 258),
              data.begin() + static_cast<std::ptrdiff_t>(start));
    const auto z = v::deflate(data);
    EXPECT_EQ(v::inflate(z), data) << "match at " << start;
  }
}

TEST(Deflate, CompressesRepetitiveText) {
  std::string text;
  for (int i = 0; i < 50; ++i) {
    text += "the quick brown fox jumps over the lazy dog. ";
  }
  const auto* p = reinterpret_cast<const std::uint8_t*>(text.data());
  const auto z = v::deflate(p, text.size());
  EXPECT_LT(z.size(), text.size() / 10);
  const auto back = v::inflate(z);
  EXPECT_EQ(std::string(back.begin(), back.end()), text);
  // And the block is entropy-coded (fixed Huffman), not stored.
  EXPECT_EQ((z[0] >> 1) & 0x3, 1u);
}

TEST(Deflate, DecodesFixedHuffmanGoldenVector) {
  // zlib.compressobj(6, DEFLATED, -15) over the plaintext below — a real
  // fixed-Huffman stream with back-references, produced by reference zlib.
  static const std::uint8_t kStream[] = {
      0x2b, 0xc9, 0x48, 0x55, 0x28, 0x2c, 0xcd, 0x4c, 0xce, 0x56, 0x48, 0x2a,
      0xca, 0x2f, 0xcf, 0x53, 0x48, 0xcb, 0xaf, 0x50, 0xc8, 0x2a, 0xcd, 0x2d,
      0x28, 0x56, 0xc8, 0x2f, 0x4b, 0x2d, 0x52, 0x28, 0x01, 0x4a, 0xe7, 0x24,
      0x56, 0x55, 0x2a, 0xa4, 0xe4, 0xa7, 0xeb, 0x81, 0x79, 0x83, 0x40, 0x31,
      0x00};
  std::string expect;
  for (int i = 0; i < 4; ++i) {
    expect += "the quick brown fox jumps over the lazy dog. ";
  }
  const auto out = v::inflate(kStream, sizeof(kStream));
  EXPECT_EQ(std::string(out.begin(), out.end()), expect);
}

TEST(Deflate, DecodesDynamicHuffmanGoldenVector) {
  // zlib.compressobj(9, DEFLATED, -15) over 600 bytes of a skewed
  // 8-symbol alphabet (Python random.seed(7),
  // random.choice(b"aaaaabbbcddeefg h")) — level 9 emits a dynamic-Huffman
  // (BTYPE=2) block, exercising the code-length alphabet, repeat codes,
  // and canonical table construction.
  static const std::uint8_t kRaw[] = {
      0x64, 0x61, 0x65, 0x61, 0x61, 0x61, 0x65, 0x61, 0x68, 0x62, 0x61, 0x61,
      0x66, 0x66, 0x61, 0x62, 0x61, 0x66, 0x61, 0x61, 0x62, 0x61, 0x65, 0x61,
      0x62, 0x61, 0x61, 0x64, 0x66, 0x61, 0x61, 0x64, 0x62, 0x61, 0x62, 0x65,
      0x61, 0x61, 0x61, 0x62, 0x20, 0x66, 0x64, 0x67, 0x67, 0x65, 0x64, 0x62,
      0x62, 0x62, 0x61, 0x64, 0x68, 0x20, 0x64, 0x67, 0x64, 0x61, 0x61, 0x68,
      0x66, 0x62, 0x64, 0x61, 0x20, 0x66, 0x61, 0x61, 0x64, 0x64, 0x65, 0x20,
      0x67, 0x61, 0x61, 0x63, 0x20, 0x61, 0x61, 0x64, 0x67, 0x64, 0x65, 0x65,
      0x61, 0x67, 0x65, 0x62, 0x61, 0x20, 0x61, 0x62, 0x64, 0x61, 0x62, 0x65,
      0x65, 0x20, 0x61, 0x62, 0x67, 0x65, 0x63, 0x61, 0x66, 0x63, 0x66, 0x65,
      0x65, 0x62, 0x61, 0x61, 0x62, 0x61, 0x62, 0x62, 0x61, 0x20, 0x62, 0x63,
      0x64, 0x61, 0x61, 0x66, 0x65, 0x64, 0x61, 0x68, 0x61, 0x67, 0x65, 0x65,
      0x65, 0x65, 0x61, 0x20, 0x65, 0x61, 0x62, 0x61, 0x62, 0x67, 0x62, 0x61,
      0x64, 0x61, 0x61, 0x61, 0x61, 0x61, 0x65, 0x61, 0x61, 0x62, 0x65, 0x61,
      0x63, 0x65, 0x65, 0x20, 0x61, 0x61, 0x20, 0x67, 0x20, 0x20, 0x64, 0x61,
      0x61, 0x61, 0x64, 0x63, 0x20, 0x62, 0x68, 0x61, 0x62, 0x68, 0x65, 0x61,
      0x61, 0x68, 0x64, 0x61, 0x63, 0x68, 0x65, 0x62, 0x65, 0x62, 0x68, 0x64,
      0x62, 0x62, 0x62, 0x65, 0x62, 0x62, 0x68, 0x20, 0x65, 0x61, 0x61, 0x63,
      0x20, 0x63, 0x62, 0x65, 0x67, 0x65, 0x65, 0x61, 0x62, 0x61, 0x62, 0x20,
      0x62, 0x64, 0x62, 0x20, 0x61, 0x20, 0x65, 0x61, 0x61, 0x65, 0x62, 0x20,
      0x62, 0x66, 0x64, 0x61, 0x65, 0x67, 0x65, 0x61, 0x62, 0x62, 0x61, 0x61,
      0x61, 0x67, 0x61, 0x20, 0x65, 0x61, 0x61, 0x61, 0x61, 0x61, 0x68, 0x61,
      0x66, 0x62, 0x62, 0x61, 0x63, 0x62, 0x64, 0x68, 0x62, 0x64, 0x63, 0x66,
      0x61, 0x61, 0x65, 0x67, 0x68, 0x66, 0x68, 0x61, 0x61, 0x68, 0x68, 0x61,
      0x67, 0x62, 0x61, 0x61, 0x62, 0x61, 0x20, 0x61, 0x61, 0x64, 0x68, 0x68,
      0x20, 0x61, 0x61, 0x62, 0x62, 0x63, 0x61, 0x61, 0x68, 0x67, 0x61, 0x61,
      0x67, 0x64, 0x68, 0x68, 0x62, 0x63, 0x67, 0x68, 0x20, 0x68, 0x62, 0x68,
      0x63, 0x62, 0x67, 0x61, 0x66, 0x61, 0x65, 0x67, 0x64, 0x61, 0x62, 0x66,
      0x61, 0x62, 0x64, 0x61, 0x61, 0x65, 0x61, 0x63, 0x61, 0x67, 0x62, 0x61,
      0x65, 0x20, 0x62, 0x62, 0x62, 0x66, 0x68, 0x65, 0x64, 0x66, 0x62, 0x65,
      0x64, 0x61, 0x65, 0x61, 0x64, 0x67, 0x67, 0x61, 0x65, 0x64, 0x68, 0x64,
      0x68, 0x61, 0x61, 0x62, 0x61, 0x61, 0x63, 0x63, 0x61, 0x62, 0x63, 0x61,
      0x66, 0x63, 0x65, 0x61, 0x68, 0x20, 0x64, 0x61, 0x63, 0x61, 0x62, 0x66,
      0x61, 0x63, 0x61, 0x61, 0x63, 0x61, 0x62, 0x61, 0x63, 0x61, 0x67, 0x61,
      0x64, 0x66, 0x63, 0x61, 0x61, 0x68, 0x62, 0x61, 0x62, 0x63, 0x61, 0x62,
      0x62, 0x64, 0x64, 0x68, 0x62, 0x64, 0x67, 0x68, 0x62, 0x63, 0x65, 0x61,
      0x63, 0x61, 0x61, 0x61, 0x68, 0x62, 0x68, 0x20, 0x62, 0x67, 0x61, 0x66,
      0x20, 0x65, 0x68, 0x64, 0x62, 0x62, 0x64, 0x62, 0x61, 0x65, 0x65, 0x61,
      0x61, 0x61, 0x61, 0x63, 0x66, 0x62, 0x61, 0x61, 0x65, 0x68, 0x64, 0x62,
      0x64, 0x61, 0x67, 0x62, 0x62, 0x63, 0x67, 0x61, 0x63, 0x65, 0x64, 0x64,
      0x62, 0x61, 0x64, 0x62, 0x65, 0x62, 0x61, 0x64, 0x65, 0x61, 0x20, 0x63,
      0x68, 0x62, 0x62, 0x68, 0x61, 0x61, 0x63, 0x61, 0x61, 0x65, 0x61, 0x65,
      0x61, 0x64, 0x64, 0x62, 0x61, 0x68, 0x61, 0x65, 0x64, 0x20, 0x61, 0x64,
      0x61, 0x61, 0x68, 0x66, 0x68, 0x61, 0x68, 0x68, 0x61, 0x62, 0x61, 0x61,
      0x61, 0x61, 0x65, 0x61, 0x65, 0x67, 0x61, 0x61, 0x62, 0x20, 0x63, 0x61,
      0x67, 0x61, 0x68, 0x61, 0x68, 0x61, 0x20, 0x63, 0x61, 0x63, 0x62, 0x62,
      0x62, 0x67, 0x20, 0x65, 0x61, 0x20, 0x64, 0x61, 0x62, 0x61, 0x61, 0x64,
      0x63, 0x64, 0x61, 0x61, 0x20, 0x61, 0x20, 0x63, 0x61, 0x62, 0x20, 0x64,
      0x68, 0x64, 0x67, 0x67, 0x67, 0x61, 0x62, 0x64, 0x61, 0x20, 0x61, 0x64,
      0x67, 0x61, 0x68, 0x67, 0x63, 0x65, 0x62, 0x62, 0x61, 0x61, 0x61, 0x68,
      0x63, 0x65, 0x61, 0x68, 0x63, 0x61, 0x65, 0x62, 0x20, 0x20, 0x65, 0x61};
  static const std::uint8_t kStream[] = {
      0x25, 0x92, 0x81, 0x11, 0x85, 0x30, 0x08, 0x43, 0x57, 0x61, 0xb5, 0x04,
      0x28, 0xec, 0x3f, 0xc1, 0x7f, 0xf8, 0xbd, 0x53, 0x6b, 0x28, 0x21, 0x49,
      0x2d, 0xb5, 0xc4, 0xbd, 0x96, 0xde, 0x93, 0xf5, 0xc4, 0xa3, 0xb9, 0x55,
      0x2c, 0xcb, 0xf2, 0x6d, 0x70, 0xbc, 0x9a, 0xe9, 0xb2, 0xad, 0xda, 0xa8,
      0x29, 0x69, 0x9f, 0x4b, 0x71, 0x9b, 0xaa, 0x63, 0xa4, 0x0c, 0x96, 0x53,
      0xdd, 0x9a, 0xb6, 0x42, 0x54, 0xdd, 0xcd, 0x7b, 0x3a, 0xf5, 0xf2, 0x35,
      0x28, 0xbc, 0x30, 0x84, 0x93, 0xfe, 0xd7, 0xa5, 0x65, 0x2f, 0x97, 0xe2,
      0x26, 0x7a, 0x20, 0x97, 0x3e, 0x3d, 0x37, 0x36, 0xaf, 0x5b, 0x31, 0x11,
      0x87, 0x56, 0x86, 0x57, 0x5e, 0x6a, 0x5b, 0xca, 0x6d, 0xb7, 0xf7, 0x04,
      0xb5, 0xbd, 0xf4, 0x33, 0x3f, 0xdd, 0xd0, 0x1d, 0x53, 0xb8, 0x1c, 0xc7,
      0xaa, 0x66, 0xfd, 0x4a, 0x14, 0x6e, 0xb2, 0x34, 0x1f, 0xca, 0xb5, 0x7a,
      0x00, 0xe9, 0x5a, 0x57, 0xe2, 0xa2, 0x67, 0xdf, 0x02, 0x23, 0xe9, 0xd3,
      0x79, 0x6e, 0x76, 0x79, 0xda, 0x09, 0x8c, 0xc1, 0xe1, 0xdb, 0x39, 0x1b,
      0xeb, 0x4d, 0x0f, 0x51, 0x35, 0x39, 0xf8, 0x9d, 0x53, 0x24, 0xe7, 0x35,
      0x76, 0xa0, 0xe8, 0x6d, 0xd7, 0x33, 0xf6, 0x9a, 0x40, 0x46, 0x5d, 0x5b,
      0x7b, 0x94, 0xca, 0x94, 0x2f, 0x0b, 0xf2, 0xc6, 0x53, 0x5e, 0x2f, 0xdc,
      0xbc, 0xaf, 0x99, 0xc0, 0x6f, 0x90, 0x6f, 0x8b, 0x5d, 0xa7, 0x6b, 0x98,
      0x77, 0xc4, 0x07, 0x6f, 0xdc, 0xc8, 0xe8, 0xf3, 0xcc, 0xb1, 0xf4, 0xe7,
      0x22, 0x1f, 0xac, 0x07, 0x15, 0xc3, 0xd1, 0x46, 0x66, 0x45, 0xb1, 0x08,
      0x45, 0x45, 0xac, 0xb9, 0x84, 0x73, 0x13, 0x90, 0x82, 0x18, 0x4a, 0x8b,
      0x9c, 0xd0, 0x77, 0x7c, 0x7b, 0x66, 0xfd, 0xcf, 0xbb, 0xe7, 0x0e, 0xf9,
      0x54, 0x80, 0xd2, 0x47, 0x30, 0xf6, 0x10, 0x15, 0x3a, 0xef, 0x5f, 0xb8,
      0x03, 0x8b, 0xc3, 0x1d, 0xb8, 0x19, 0x5c, 0xdd, 0xe1, 0x63, 0x8f, 0x64,
      0xb2, 0xbf, 0x64, 0xf7, 0x6c, 0xe5, 0x05, 0x4e, 0xdb, 0x0f};
  ASSERT_EQ((kStream[0] >> 1) & 0x3, 2u);  // really a dynamic block
  const auto out = v::inflate(kStream, sizeof(kStream));
  EXPECT_EQ(out, std::vector<std::uint8_t>(kRaw, kRaw + sizeof(kRaw)));
}

namespace {

/// Minimal LSB-first bit packer for hand-building DEFLATE streams in tests.
struct BitSink {
  std::vector<std::uint8_t> bytes;
  std::uint32_t acc = 0;
  int nbits = 0;
  void put(std::uint32_t v, int n) {
    acc |= v << nbits;
    nbits += n;
    while (nbits >= 8) {
      bytes.push_back(static_cast<std::uint8_t>(acc & 0xFF));
      acc >>= 8;
      nbits -= 8;
    }
  }
  void put_huff(std::uint32_t code, int n) {  // codes go MSB-first
    std::uint32_t rev = 0;
    for (int i = 0; i < n; ++i) rev = (rev << 1) | ((code >> i) & 1);
    put(rev, n);
  }
  void flush() {
    if (nbits > 0) bytes.push_back(static_cast<std::uint8_t>(acc & 0xFF));
  }
};

}  // namespace

TEST(Deflate, AcceptsDynamicBlockWithZeroDistanceCodes) {
  // A literal-only dynamic block may legally transmit HDIST=1 with a single
  // zero distance length (RFC 1951 permits it; zlib never emits it but
  // other encoders can). The inflater must accept it as long as no
  // distance code is actually referenced. Stream below encodes "AB":
  // litlen lengths 'A'=1, 'B'=2, EOB=2; distance alphabet empty.
  BitSink s;
  s.put(1, 1);   // BFINAL
  s.put(2, 2);   // BTYPE=10: dynamic
  s.put(0, 5);   // HLIT  = 257
  s.put(0, 5);   // HDIST = 1
  s.put(14, 4);  // HCLEN = 18 (covers CL symbols 18,0,2,1 in kClOrder)
  // Code-length code lengths, in the 16,17,18,0,8,7,... transmit order:
  // symbols {0,1,2,18} each get length 2 -> canonical codes 00,01,10,11.
  const int cl_lens[18] = {0, 0, 2, 2, 0, 0, 0, 0, 0,
                           0, 0, 0, 0, 0, 0, 2, 0, 2};
  for (const int l : cl_lens) s.put(static_cast<std::uint32_t>(l), 3);
  const auto cl = [&s](int sym) {  // emit a code-length symbol
    s.put_huff(sym == 18 ? 3u : static_cast<std::uint32_t>(sym), 2);
  };
  cl(18); s.put(54, 7);   // 65 zeros (symbols 0..64)
  cl(1);                  // 'A' (65): length 1
  cl(2);                  // 'B' (66): length 2
  cl(18); s.put(127, 7);  // 138 zeros
  cl(18); s.put(40, 7);   // 51 more zeros (symbols 67..255)
  cl(2);                  // EOB (256): length 2
  cl(0);                  // the single distance length: 0 (empty alphabet)
  // Payload: canonical codes 'A'=0 (1 bit), 'B'=10, EOB=11.
  s.put_huff(0, 1);
  s.put_huff(2, 2);
  s.put_huff(3, 2);
  s.flush();
  const auto out = v::inflate(s.bytes.data(), s.bytes.size());
  EXPECT_EQ(std::string(out.begin(), out.end()), "AB");
}

TEST(Deflate, RejectsLengthCodeWithEmptyDistanceTable) {
  // Same stream shape as above, but the payload references a match: the
  // empty distance table must make decoding fail rather than misbehave.
  BitSink s;
  s.put(1, 1);
  s.put(2, 2);
  s.put(1, 5);   // HLIT = 258: covers length code 257
  s.put(0, 5);   // HDIST = 1
  s.put(14, 4);
  // Give 'A' length 1 and symbols 257 (a length code) and EOB length 2.
  const int cl_lens[18] = {0, 0, 2, 2, 0, 0, 0, 0, 0,
                           0, 0, 0, 0, 0, 0, 2, 0, 2};
  for (const int l : cl_lens) s.put(static_cast<std::uint32_t>(l), 3);
  const auto cl = [&s](int sym) {
    s.put_huff(sym == 18 ? 3u : static_cast<std::uint32_t>(sym), 2);
  };
  cl(18); s.put(54, 7);   // 65 zeros
  cl(1);                  // 'A' (65): length 1
  cl(18); s.put(127, 7);  // 138 zeros
  cl(18); s.put(41, 7);   // 52 more zeros (symbols 66..255)
  cl(2);                  // EOB (256): length 2
  cl(2);                  // length code 257: length 2
  cl(0);                  // empty distance alphabet
  s.put_huff(0, 1);       // 'A'
  s.put_huff(3, 2);       // symbol 257: needs a distance -> must throw
  s.flush();
  EXPECT_THROW(v::inflate(s.bytes.data(), s.bytes.size()),
               std::runtime_error);
}

TEST(Deflate, RejectsMalformedStreams) {
  EXPECT_THROW(v::inflate(nullptr, 0), std::runtime_error);  // truncated
  const std::uint8_t reserved[] = {0x07};                    // BTYPE=3
  EXPECT_THROW(v::inflate(reserved, 1), std::runtime_error);
  // Distance pointing before the output start.
  const std::vector<std::uint8_t> data(100, 0x55);
  auto z = v::deflate(data);
  z.resize(z.size() / 2);  // truncate mid-stream
  EXPECT_THROW(v::inflate(z), std::runtime_error);
  // max_output enforcement.
  const auto full = v::deflate(data);
  EXPECT_THROW(v::inflate(full.data(), full.size(), nullptr, 10),
               std::runtime_error);
}

TEST(Zlib, RoundTripsAndVerifiesChecksums) {
  const auto data = random_bytes(5000, 11);
  auto z = v::zlib_compress(data.data(), data.size());
  EXPECT_EQ(z[0], 0x78);
  EXPECT_EQ((static_cast<unsigned>(z[0]) * 256 + z[1]) % 31, 0u);
  EXPECT_EQ(v::zlib_decompress(z.data(), z.size()), data);
  // A corrupted trailer is a checksum error, not silent garbage.
  z.back() ^= 0xFF;
  EXPECT_THROW(v::zlib_decompress(z.data(), z.size()), std::runtime_error);
  EXPECT_THROW(v::zlib_decompress(nullptr, 0), std::runtime_error);
}

TEST(Zlib, Adler32MatchesReference) {
  // Reference values from python zlib.adler32.
  const std::string abc = "abc";
  EXPECT_EQ(v::adler32(reinterpret_cast<const std::uint8_t*>(abc.data()),
                       abc.size()),
            0x024D0127u);
  const std::vector<std::uint8_t> zeros(1 << 20, 0);  // exercises run split
  EXPECT_EQ(v::adler32(zeros.data(), zeros.size()), 0x00F00001u);
}

TEST(PngCodec, RoundTripsEverySizeOneThroughSixtyFive) {
  // Every encoder output must decode bit-identically — random pixels
  // (stored-heavy), constant fill (filter + LZ77 best case), and a
  // gradient (filter residuals) across all sizes 1x1..65x65 stepped to
  // keep runtime sane while still covering the 64/65 tile-boundary edges.
  ricsa::util::Xoshiro256 rng(31);
  const int sizes[] = {1, 2, 3, 5, 8, 16, 31, 32, 33, 63, 64, 65};
  for (const int w : sizes) {
    for (const int h : sizes) {
      v::Image random_img(w, h);
      v::Image gradient(w, h);
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
          random_img.at(x, y) = {static_cast<std::uint8_t>(rng() & 0xFF),
                                 static_cast<std::uint8_t>(rng() & 0xFF),
                                 static_cast<std::uint8_t>(rng() & 0xFF),
                                 static_cast<std::uint8_t>(rng() & 0xFF)};
          gradient.at(x, y) = {static_cast<std::uint8_t>(x * 3),
                               static_cast<std::uint8_t>(y * 5),
                               static_cast<std::uint8_t>(x + y), 255};
        }
      }
      const v::Image constant(w, h, {12, 34, 56, 255});
      const v::Image* cases[] = {&random_img, &gradient, &constant};
      for (const v::Image* img : cases) {
        const v::Image back = v::Image::decode_png(img->encode_png());
        ASSERT_EQ(back.width(), w);
        ASSERT_EQ(back.height(), h);
        ASSERT_EQ(back.pixels(), img->pixels())
            << "size " << w << "x" << h;
      }
    }
  }
}

TEST(PngCodec, CompressesStructuredContentWell) {
  // A flat-shaded frame (what the renderer actually emits between isoline
  // edges) must shrink dramatically vs the raw RGBA bytes — this is the
  // whole point of replacing stored blocks.
  v::Image img(192, 192, {30, 40, 50, 255});
  for (int y = 60; y < 90; ++y) {
    for (int x = 60; x < 90; ++x) img.at(x, y) = {200, 220, 240, 255};
  }
  const auto png = img.encode_png();
  EXPECT_LT(png.size(), img.bytes() / 20);
  EXPECT_EQ(v::Image::decode_png(png).pixels(), img.pixels());
}

// ------------------------------------------------ golden encoder output ----
//
// The encoder's parse (3-byte hash, 128-candidate chain budget, first
// longest match wins, one-step lazy rule, 65535-byte block split,
// fixed/stored choice) and the PNG filter choice (None/Sub/Up/Paeth by
// strict < in that order) are pinned by CRC-32 and length over a generated
// corpus. Any change to a decision changes a value below; a faster encoder
// must leave them all as they are.

namespace {

/// `n` bytes drawn from a skewed 17-symbol alphabet: long hash chains, so
/// the chain budget and the lazy rule both bind.
std::vector<std::uint8_t> skewed_bytes(std::size_t n, std::uint64_t seed) {
  static const char kAlphabet[] = "aaaaabbbcddeefg h";
  ricsa::util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(kAlphabet[rng() % 17]);
  return out;
}

/// Words from a small vocabulary: matches at many lengths and distances.
std::vector<std::uint8_t> word_text(std::size_t n, std::uint64_t seed) {
  static const char* const kWords[] = {
      "shock",   "density", "pressure", "mach",    "steer", "frame",
      "render",  "tile",    "delta",    "viewer",  "relay", "hub",
      "cycle",   "gamma",   "isosurface", "ray",   "cast",  "bow",
      "wave",    "cell",    "flux",     "solver",  "step",  "grid"};
  ricsa::util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out;
  out.reserve(n + 16);
  while (out.size() < n) {
    const std::string word = kWords[rng() % std::size(kWords)];
    out.insert(out.end(), word.begin(), word.end());
    out.push_back(rng() % 7 == 0 ? '\n' : ' ');
  }
  out.resize(n);
  return out;
}

struct NamedInput {
  std::string name;
  std::vector<std::uint8_t> bytes;
};

std::vector<NamedInput> byte_corpus() {
  std::vector<NamedInput> corpus;
  corpus.push_back({"empty", {}});
  corpus.push_back({"one byte", {0x42}});
  const std::string repeat = "abcabcabcabcXabcabcabcab";
  corpus.push_back({"short repeat", {repeat.begin(), repeat.end()}});
  std::string text;
  for (int i = 0; i < 50; ++i) {
    text += "the quick brown fox jumps over the lazy dog. ";
  }
  corpus.push_back({"text", {text.begin(), text.end()}});
  corpus.push_back({"skewed 100k", skewed_bytes(100000, 1)});
  corpus.push_back({"random 150k", random_bytes(150000, 2)});
  // A max-length match straddling the 65535-byte block boundary, over
  // random bytes (the block falls back to stored and splits) and over
  // compressible bytes (the block stays fixed-Huffman).
  auto straddle_stored = random_bytes(70000, 3);
  std::copy(straddle_stored.begin() + 45400, straddle_stored.begin() + 45658,
            straddle_stored.begin() + 65400);
  corpus.push_back({"max match straddles block, stored", straddle_stored});
  auto straddle_fixed = skewed_bytes(140000, 4);
  std::fill(straddle_fixed.begin() + 65400, straddle_fixed.begin() + 66000,
            0x55);
  corpus.push_back({"max match straddles block, fixed", straddle_fixed});
  // Repeats at distance exactly 32768 (inside the window) and 32769 (just
  // outside it).
  const auto a = random_bytes(32768, 5);
  const auto b = random_bytes(32769, 6);
  std::vector<std::uint8_t> window_edge;
  for (const auto* part : {&a, &a, &b, &b}) {
    window_edge.insert(window_edge.end(), part->begin(), part->end());
  }
  corpus.push_back({"window edge", window_edge});
  // Longer than 1 MiB, where the match finder rebases its 32-bit offsets.
  corpus.push_back({"words 1.3M", word_text(1300000, 7)});
  // 30 distinct 9-bit literals: 3 + 30 * 9 + 7 fixed bits against
  // 3 + 5 + 32 + 30 * 8 stored bits, a tie that stored wins.
  std::vector<std::uint8_t> tie(30);
  for (std::size_t i = 0; i < tie.size(); ++i) {
    tie[i] = static_cast<std::uint8_t>(144 + i);
  }
  corpus.push_back({"fixed/stored cost tie", tie});
  return corpus;
}

enum class Pattern { kConstant, kGradient, kNoise, kShapes };

/// Images of the PNG corpus. Shapes are shaded discs on a flat background,
/// like a rendered frame; all arithmetic is integer so the corpus is the
/// same on every platform.
v::Image pattern_image(Pattern pattern, int w, int h, std::uint64_t seed) {
  ricsa::util::Xoshiro256 rng(seed);
  if (pattern == Pattern::kConstant) return v::Image(w, h, {12, 34, 56, 255});
  v::Image img(w, h, {20, 24, 32, 255});
  if (pattern == Pattern::kShapes) {
    const int discs = 2 + w * h / 2048;
    for (int k = 0; k < discs; ++k) {
      const int cx = static_cast<int>(rng() % static_cast<unsigned>(w));
      const int cy = static_cast<int>(rng() % static_cast<unsigned>(h));
      const int r = 1 + static_cast<int>(rng() % static_cast<unsigned>(
                            std::max(2, std::min(w, h) / 3)));
      const v::Rgba color{static_cast<std::uint8_t>(rng() & 0xFF),
                          static_cast<std::uint8_t>(rng() & 0xFF),
                          static_cast<std::uint8_t>(rng() & 0xFF), 255};
      for (int y = std::max(0, cy - r); y < std::min(h, cy + r + 1); ++y) {
        for (int x = std::max(0, cx - r); x < std::min(w, cx + r + 1); ++x) {
          const int d2 = (x - cx) * (x - cx) + (y - cy) * (y - cy);
          if (d2 > r * r) continue;
          const int shade = 128 + 127 * (r * r - d2) / (r * r);
          img.at(x, y) = {static_cast<std::uint8_t>(color.r * shade / 255),
                          static_cast<std::uint8_t>(color.g * shade / 255),
                          static_cast<std::uint8_t>(color.b * shade / 255),
                          255};
        }
      }
    }
    return img;
  }
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (pattern == Pattern::kGradient) {
        img.at(x, y) = {static_cast<std::uint8_t>(x * 3 + y),
                        static_cast<std::uint8_t>(y * 5),
                        static_cast<std::uint8_t>((x + y) * 2),
                        static_cast<std::uint8_t>(255 - x)};
      } else {
        img.at(x, y) = {static_cast<std::uint8_t>(rng() & 0xFF),
                        static_cast<std::uint8_t>(rng() & 0xFF),
                        static_cast<std::uint8_t>(rng() & 0xFF),
                        static_cast<std::uint8_t>(rng() & 0xFF)};
      }
    }
  }
  return img;
}

/// Widths 1-33 reach every tail length of a 16-byte filter step on both
/// sides of the first whole step; 192 is the steering view's frame width.
std::vector<int> golden_widths() {
  std::vector<int> widths;
  for (int w = 1; w <= 33; ++w) widths.push_back(w);
  widths.push_back(192);
  return widths;
}

int golden_height(int width) { return width > 33 ? 192 : 1 + width * 5 % 9; }

}  // namespace

TEST(EncoderGolden, DeflateAndZlibOutputIsPinned) {
  struct Expected {
    std::uint32_t deflate_crc;
    std::size_t deflate_bytes;
    std::uint32_t zlib_crc;
    std::size_t zlib_bytes;
  };
  static const Expected kExpected[] = {
      {0x4564cc52u, 5, 0xba2d22a8u, 11},             // empty
      {0x9bc06d99u, 3, 0xd81c9cd3u, 9},              // one byte
      {0xbf9a8d3fu, 9, 0xeaeaae63u, 15},             // short repeat
      {0x90d72f8eu, 64, 0xa9a9e8b3u, 70},            // text
      {0x2f6e8ea1u, 58572, 0x2d3cde14u, 58578},      // skewed 100k
      {0x9e2e88dbu, 150015, 0x77fe139eu, 150021},    // random 150k
      {0x58609c3au, 70015, 0x66e254c2u, 70021},      // straddle, stored
      {0x3b222897u, 81378, 0x6801cf56u, 81384},      // straddle, fixed
      {0xc0a340fdu, 100510, 0xe4238422u, 100516},    // window edge
      {0xe64cd876u, 312870, 0x8ad80596u, 312876},    // words 1.3M
      {0x86b48611u, 35, 0x9bbb78d4u, 41},            // fixed/stored tie
  };
  const std::vector<NamedInput> corpus = byte_corpus();
  ASSERT_EQ(corpus.size(), std::size(kExpected));
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const NamedInput& in = corpus[i];
    const auto z = v::deflate(in.bytes);
    const auto zlib = v::zlib_compress(in.bytes.data(), in.bytes.size());
    EXPECT_EQ(v::crc32(z.data(), z.size()), kExpected[i].deflate_crc)
        << in.name;
    EXPECT_EQ(z.size(), kExpected[i].deflate_bytes) << in.name;
    EXPECT_EQ(v::crc32(zlib.data(), zlib.size()), kExpected[i].zlib_crc)
        << in.name;
    EXPECT_EQ(zlib.size(), kExpected[i].zlib_bytes) << in.name;
    EXPECT_EQ(v::inflate(z), in.bytes) << in.name;
  }
  // The straddling match lands in a stored block in one input and in a
  // fixed-Huffman block in the other (BTYPE sits in bits 1-2); the cost
  // tie goes to stored.
  EXPECT_EQ((v::deflate(corpus[6].bytes)[0] >> 1) & 0x3, 0u);
  EXPECT_EQ((v::deflate(corpus[7].bytes)[0] >> 1) & 0x3, 1u);
  EXPECT_EQ((v::deflate(corpus[10].bytes)[0] >> 1) & 0x3, 0u);
}

TEST(EncoderGolden, PngOutputIsPinned) {
  struct Expected {
    Pattern pattern;
    const char* name;
    std::uint32_t crc;
    std::size_t bytes;
  };
  static const Expected kExpected[] = {
      {Pattern::kConstant, "constant", 0x4d517fafu, 3934},
      {Pattern::kGradient, "gradient", 0x89024b67u, 4536},
      {Pattern::kNoise, "noise", 0xbc0936cau, 161285},
      {Pattern::kShapes, "shapes", 0x30e8ffdcu, 32780},
  };
  for (const Expected& e : kExpected) {
    // One CRC chained over every width's PNG, and their total length.
    std::uint32_t crc = 0;
    std::size_t total = 0;
    for (const int w : golden_widths()) {
      const int h = golden_height(w);
      const v::Image img =
          pattern_image(e.pattern, w, h, static_cast<std::uint64_t>(w));
      const auto bytes = img.encode_png();
      crc = v::crc32(bytes.data(), bytes.size(), crc);
      total += bytes.size();
      ASSERT_EQ(v::Image::decode_png(bytes).pixels(), img.pixels())
          << e.name << " " << w << "x" << h;
    }
    EXPECT_EQ(crc, e.crc) << e.name;
    EXPECT_EQ(total, e.bytes) << e.name;
  }
}
