// Tests for the self-contained DEFLATE/zlib codec (src/viz/deflate.*).
//
// Round-trips every small image size the tile path produces, checks the
// stored fallback on incompressible input, and decodes golden vectors
// produced by a reference zlib so the inflater is validated against real
// fixed- and dynamic-Huffman streams, not just our own compressor.
// Hand-built streams check that the inflater rejects the incomplete codes
// zlib rejects, seeded property tests round-trip generated inputs and
// images, and a golden corpus pins the encoder's own output byte for byte.
// viz_zlib_oracle_test.cpp checks the same outputs against zlib itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "codec_corpus.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"
#include "viz/deflate.hpp"
#include "viz/image.hpp"

namespace v = ricsa::viz;
using namespace ricsa::codec_corpus;

namespace {

/// How many bytes each block of a valid DEFLATE stream decodes to, read by
/// a plain walker that shares no code with the codec: a bit at a time,
/// each canonical code a table of symbols by length and code. It counts
/// output bytes and never builds them.
std::vector<std::size_t> block_sizes(const std::vector<std::uint8_t>& z) {
  static constexpr int kLengthBase[29] = {
      3,  4,  5,  6,  7,  8,  9,  10, 11,  13,  15,  17,  19,  23, 27,
      31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
  static constexpr int kLengthExtra[29] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1,
                                           1, 1, 2, 2, 2, 2, 3, 3, 3, 3,
                                           4, 4, 4, 4, 5, 5, 5, 5, 0};
  static constexpr int kDistExtra[30] = {0, 0, 0, 0, 1, 1, 2, 2,  3,  3,
                                         4, 4, 5, 5, 6, 6, 7, 7,  8,  8,
                                         9, 9, 10, 10, 11, 11, 12, 12, 13, 13};
  static constexpr int kClOrder[19] = {16, 17, 18, 0, 8,  7, 9,  6, 10, 5,
                                       11, 4,  12, 3, 13, 2, 14, 1, 15};
  std::size_t bit = 0;
  const auto get = [&](int n) {
    unsigned value = 0;
    for (int i = 0; i < n; ++i, ++bit) {
      value |= ((z.at(bit / 8) >> (bit % 8)) & 1u) << i;
    }
    return value;
  };
  // code[len][value]: the symbol of the len-bit code `value`, or -1.
  using Code = std::array<std::vector<int>, 16>;
  const auto code_of = [](const std::vector<int>& lengths) {
    Code code;
    unsigned next = 0;
    for (int len = 1; len <= 15; ++len, next <<= 1) {
      for (std::size_t sym = 0; sym < lengths.size(); ++sym) {
        if (lengths[sym] != len) continue;
        auto& table = code[static_cast<std::size_t>(len)];
        table.resize(std::size_t{1} << len, -1);
        table[next++] = static_cast<int>(sym);
      }
    }
    return code;
  };
  const auto decode = [&](const Code& code) {
    unsigned value = 0;
    for (std::size_t len = 1; len <= 15; ++len) {
      value = value << 1 | get(1);
      if (value < code[len].size() && code[len][value] >= 0) {
        return code[len][value];
      }
    }
    throw std::runtime_error("walker: bad code");
  };
  std::vector<std::size_t> sizes;
  for (bool final = false; !final;) {
    final = get(1) == 1;
    const unsigned type = get(2);
    std::size_t bytes = 0;
    if (type == 0) {
      bit = (bit + 7) / 8 * 8;
      bytes = get(16);
      if ((get(16) ^ bytes) != 0xFFFF) {
        throw std::runtime_error("walker: bad stored length");
      }
      bit += 8 * bytes;
    } else {
      std::vector<int> litlen(288, 8), dist(30, 5);
      if (type == 1) {
        std::fill(litlen.begin() + 144, litlen.begin() + 256, 9);
        std::fill(litlen.begin() + 256, litlen.begin() + 280, 7);
      } else {
        const unsigned hlit = get(5) + 257, hdist = get(5) + 1;
        const unsigned hclen = get(4) + 4;
        std::vector<int> cl(19, 0);
        for (unsigned i = 0; i < hclen; ++i) {
          cl[static_cast<std::size_t>(kClOrder[i])] = static_cast<int>(get(3));
        }
        const Code cl_code = code_of(cl);
        std::vector<int> lengths;
        while (lengths.size() < hlit + hdist) {
          const int sym = decode(cl_code);
          if (sym < 16) {
            lengths.push_back(sym);
          } else if (sym == 16) {
            const int previous = lengths.back();
            lengths.insert(lengths.end(), 3 + get(2), previous);
          } else {
            lengths.insert(lengths.end(), sym == 17 ? 3 + get(3) : 11 + get(7),
                           0);
          }
        }
        litlen.assign(lengths.begin(), lengths.begin() + hlit);
        dist.assign(lengths.begin() + hlit, lengths.end());
      }
      const Code litlen_code = code_of(litlen), dist_code = code_of(dist);
      for (int sym = decode(litlen_code); sym != 256;
           sym = decode(litlen_code)) {
        if (sym < 256) {
          ++bytes;
          continue;
        }
        bytes += static_cast<std::size_t>(kLengthBase[sym - 257]) +
                 get(kLengthExtra[sym - 257]);
        get(kDistExtra[decode(dist_code)]);
      }
    }
    sizes.push_back(bytes);
  }
  return sizes;
}

/// Every block but the last decodes to exactly 65535 bytes: blocks are
/// made of whole strips, and no token crosses a strip.
void expect_whole_blocks(const std::vector<std::uint8_t>& z, std::size_t n,
                         const std::string& name) {
  const std::vector<std::size_t> sizes = block_sizes(z);
  ASSERT_EQ(sizes.size(), n == 0 ? 1 : (n + 65534) / 65535) << name;
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
    EXPECT_EQ(sizes[i], 65535u) << name << ", block " << i;
  }
  EXPECT_EQ(sizes.back(), n - 65535 * (sizes.size() - 1)) << name;
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
  // A match planted just before the 65535-byte block boundary could once
  // carry the block's span past the 16-bit stored LEN limit, and the
  // stored fallback had to split the span rather than truncate LEN. Now
  // matches are clipped at strip ends and strips divide the block size, so
  // whatever the match's alignment against the boundary, the first block
  // covers exactly 65535 bytes and the second the other 4465. A max-length
  // (258) match pays for a dynamic block even over random bytes; a short
  // one leaves both blocks stored, with LEN their exact spans.
  for (const std::size_t len : {258u, 6u}) {
    for (const std::size_t start : {65278u, 65300u, 65400u, 65500u, 65533u,
                                    65534u}) {
      auto data = random_bytes(70000, 9000 + start);
      // Plant the match with its source inside the 32 KiB window so the
      // LZ77 search finds it and straddles the boundary.
      std::copy(data.begin() + static_cast<std::ptrdiff_t>(start - 20000),
                data.begin() +
                    static_cast<std::ptrdiff_t>(start - 20000 + len),
                data.begin() + static_cast<std::ptrdiff_t>(start));
      const auto z = v::deflate(data);
      EXPECT_EQ(v::inflate(z), data) << "match of " << len << " at " << start;
      expect_whole_blocks(z, data.size(),
                          "match of " + std::to_string(len) + " at " +
                              std::to_string(start));
      if (len == 258) continue;
      ASSERT_GT(z.size(), 65543u);
      EXPECT_EQ(z[0] & 0x7, 0u) << start;  // non-final, stored
      EXPECT_EQ(z[1] | z[2] << 8, 65535) << start;
      EXPECT_EQ(z[65540] & 0x7, 1u) << start;  // final, stored
      EXPECT_EQ(z[65541] | z[65542] << 8, 70000 - 65535) << start;
    }
  }
}

TEST(Deflate, PooledOutputIsIndependentOfThePool) {
  // deflate, zlib_compress and encode_png give the same bytes with no pool
  // and with pools of 1, 2 and 4 threads, over the golden corpus and the
  // inputs around every strip and block edge; every non-final block covers
  // exactly 65535 bytes.
  ricsa::util::ThreadPool one(1), two(2), four(4);
  const std::array<ricsa::util::ThreadPool*, 3> pools = {&one, &two, &four};
  std::vector<NamedInput> inputs = byte_corpus();
  for (NamedInput& in : strip_edge_inputs()) inputs.push_back(std::move(in));
  for (const NamedInput& in : inputs) {
    const auto z = v::deflate(in.bytes);
    const auto zlib = v::zlib_compress(in.bytes.data(), in.bytes.size());
    for (ricsa::util::ThreadPool* pool : pools) {
      ASSERT_EQ(v::deflate(in.bytes, pool), z)
          << in.name << ", " << pool->size() << " threads";
      ASSERT_EQ(v::zlib_compress(in.bytes.data(), in.bytes.size(), pool), zlib)
          << in.name << ", " << pool->size() << " threads";
    }
    ASSERT_EQ(v::zlib_decompress(zlib.data(), zlib.size()), in.bytes)
        << in.name;
    expect_whole_blocks(z, in.bytes.size(), in.name);
  }
  // Images: the golden patterns (192 x 192 spans nine strips as RGB and
  // twelve as RGBA) and 64-wide ones whose scanlines end on either side of
  // a strip edge, opaque and translucent.
  std::vector<v::Image> images;
  for (const Pattern pattern : {Pattern::kConstant, Pattern::kGradient,
                                Pattern::kNoise, Pattern::kShapes}) {
    for (const int w : golden_widths()) {
      images.push_back(pattern_image(pattern, w, golden_height(w),
                                     static_cast<std::uint64_t>(w)));
    }
  }
  for (const std::size_t row : {1u + 3 * 64u, 1u + 4 * 64u}) {
    for (std::size_t k = 1; k <= 6; ++k) {
      const int h = static_cast<int>(k * v::kDeflateStrip / row);
      for (const int height : {h, h + 1}) {
        v::Image img = pattern_image(Pattern::kShapes, 64, height, k);
        if (row == 1 + 4 * 64u) img.at(0, 0).a = 7;
        images.push_back(std::move(img));
      }
    }
  }
  for (const v::Image& img : images) {
    const auto png = img.encode_png();
    for (ricsa::util::ThreadPool* pool : pools) {
      ASSERT_EQ(img.encode_png(pool), png)
          << img.width() << "x" << img.height() << ", " << pool->size()
          << " threads";
    }
    ASSERT_EQ(v::Image::decode_png(png).pixels(), img.pixels())
        << img.width() << "x" << img.height();
  }
}

TEST(Deflate, BulkRunInsertsKeepTheTokens) {
  // Inside a byte run each position's chain link is the position before
  // it, so the match finder writes a run's links in bulk. The pinned bytes
  // are those of the encoder that inserted one position at a time; pools
  // of 1, 2 and 4 threads prime their strips through the same runs.
  const std::vector<std::uint8_t> data = run_planted_input();
  const auto z = v::deflate(data);
  EXPECT_EQ(v::crc32(z.data(), z.size()), 0xac0842eau);
  EXPECT_EQ(z.size(), 27522u);
  EXPECT_EQ(v::inflate(z), data);
  ricsa::util::ThreadPool one(1), two(2), four(4);
  for (ricsa::util::ThreadPool* pool : {&one, &two, &four}) {
    EXPECT_EQ(v::deflate(data, pool), z) << pool->size() << " threads";
  }
}

TEST(Deflate, ConsecutiveCallsDoNotMatchIntoEarlierInput) {
  // The encoder keeps its match tables across calls on a thread. Two
  // inputs back to back in memory, encoded one after the other, must not
  // see each other: the second stream references only its own bytes, so
  // it is the stream of the same input with no history.
  const std::vector<std::uint8_t> text = word_text(20000, 11);
  std::vector<std::uint8_t> both = text;
  both.insert(both.end(), text.begin(), text.end());
  const auto first = v::deflate(both.data(), text.size());
  const auto second = v::deflate(both.data() + text.size(), text.size());
  EXPECT_EQ(second, first);
  EXPECT_EQ(v::inflate(second), text);
}

TEST(Deflate, OffsetResetForgetsEarlierInput) {
  // Match-finder offsets keep growing from strip to strip on a thread and
  // restart from zero, with the hash heads cleared and the strip primed,
  // at the first strip that would start past 2^20. Each case runs on a
  // fresh thread, so its offsets start at zero.
  //
  // `text`, then one-strip runs of a byte `text` lacks until the offsets
  // pass the mark, then `text` again, the first strip after the restart:
  // its offsets are those of the first encode, so uncleared heads would
  // offer the first encode's positions as candidates.
  std::thread([] {
    const std::vector<std::uint8_t> text = word_text(4000, 12);
    const auto first = v::deflate(text);
    const std::vector<std::uint8_t> run(v::kDeflateStrip, 0xFF);
    for (std::size_t offset = text.size(); offset <= (std::size_t{1} << 20);
         offset += run.size()) {
      v::deflate(run);
    }
    EXPECT_EQ(v::deflate(text), first);
    EXPECT_EQ(v::inflate(first), text);
  }).join();
  // An eleven-strip input, parsed strip after strip on one thread, twelve
  // times: the restart falls between its fourth and fifth strips in the
  // eighth call, which must prime the fifth as if it were parsed alone.
  std::thread([] {
    const std::vector<std::uint8_t> text =
        word_text(11 * v::kDeflateStrip, 13);
    const auto first = v::deflate(text);
    for (int call = 1; call < 12; ++call) {
      ASSERT_EQ(v::deflate(text), first) << "call " << call;
    }
    EXPECT_EQ(v::inflate(first), text);
  }).join();
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
  // And the block is entropy-coded with its own codes (dynamic Huffman).
  EXPECT_EQ((z[0] >> 1) & 0x3, 2u);
  // A short input cannot pay for a dynamic header: fixed Huffman.
  const std::string repeat = "abcabcabcabcXabcabcabcab";
  const auto short_z = v::deflate(
      reinterpret_cast<const std::uint8_t*>(repeat.data()), repeat.size());
  EXPECT_LT(short_z.size(), repeat.size());
  EXPECT_EQ((short_z[0] >> 1) & 0x3, 1u);
  const auto short_back = v::inflate(short_z);
  EXPECT_EQ(std::string(short_back.begin(), short_back.end()), repeat);
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

/// Canonical Huffman codes (RFC 1951 3.2.2) of `lengths`, by symbol.
std::vector<std::uint32_t> canonical_codes(const std::vector<int>& lengths) {
  int count[16] = {};
  for (const int len : lengths) ++count[len];
  count[0] = 0;
  std::uint32_t next[16] = {};
  for (std::uint32_t bits = 1, code = 0; bits < 16; ++bits) {
    code = (code + static_cast<std::uint32_t>(count[bits - 1])) << 1;
    next[bits] = code;
  }
  std::vector<std::uint32_t> codes(lengths.size());
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    if (lengths[i] != 0) codes[i] = next[lengths[i]]++;
  }
  return codes;
}

/// A dynamic block's literal/length and distance codes, by symbol.
struct DynamicCodes {
  std::vector<int> litlen_lengths, dist_lengths;
  std::vector<std::uint32_t> litlen, dist;
  void put_litlen(BitSink& s, int sym) const {
    s.put_huff(litlen[static_cast<std::size_t>(sym)],
               litlen_lengths[static_cast<std::size_t>(sym)]);
  }
  void put_dist(BitSink& s, int sym) const {
    s.put_huff(dist[static_cast<std::size_t>(sym)],
               dist_lengths[static_cast<std::size_t>(sym)]);
  }
};

/// Opens a final dynamic block: HCLEN = 19 with the code-length code
/// lengths `cl` (by code-length symbol), then every literal/length length
/// (HLIT = litlen.size()) and distance length (HDIST = dist.size()) as one
/// code-length symbol each, no repeat codes.
DynamicCodes put_dynamic_header(BitSink& s, const std::vector<int>& cl,
                                const std::vector<int>& litlen,
                                const std::vector<int>& dist) {
  static const int kOrder[19] = {16, 17, 18, 0, 8,  7, 9,  6, 10, 5,
                                 11, 4,  12, 3, 13, 2, 14, 1, 15};
  s.put(1, 1);  // BFINAL
  s.put(2, 2);  // BTYPE=10: dynamic
  s.put(static_cast<std::uint32_t>(litlen.size() - 257), 5);
  s.put(static_cast<std::uint32_t>(dist.size() - 1), 5);
  s.put(19 - 4, 4);
  for (const int sym : kOrder) {
    s.put(static_cast<std::uint32_t>(cl[static_cast<std::size_t>(sym)]), 3);
  }
  const std::vector<std::uint32_t> cl_codes = canonical_codes(cl);
  for (const std::vector<int>* lengths : {&litlen, &dist}) {
    for (const int len : *lengths) {
      s.put_huff(cl_codes[static_cast<std::size_t>(len)],
                 cl[static_cast<std::size_t>(len)]);
    }
  }
  return {litlen, dist, canonical_codes(litlen), canonical_codes(dist)};
}

/// Code-length code lengths giving length symbols 0, 1 and 2 the codes
/// 0, 10 and 11: complete.
std::vector<int> complete_cl() {
  std::vector<int> cl(19, 0);
  cl[0] = 1;
  cl[1] = 2;
  cl[2] = 2;
  return cl;
}

/// Literal/length lengths (HLIT = 258): 'A' 1 bit, end-of-block and the
/// length-3 symbol 257 2 bits each. A complete code.
std::vector<int> a_eob_len3_litlen() {
  std::vector<int> litlen(258, 0);
  litlen['A'] = 1;
  litlen[256] = 2;
  litlen[257] = 2;
  return litlen;
}

/// "A", then a match of length 3 at distance 1 (distance symbol 0), then
/// end-of-block: "AAAA".
void put_a_then_match(BitSink& s, const DynamicCodes& codes) {
  codes.put_litlen(s, 'A');
  codes.put_litlen(s, 257);
  codes.put_dist(s, 0);
  codes.put_litlen(s, 256);
  s.flush();
}

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

// zlib's inflate_table rejects incomplete codes, so browsers do too; each
// stream below decodes under a lenient inflater, and must not under ours.
TEST(Deflate, RejectsIncompleteCodeLengthCode) {
  // Length symbols 0, 1 and 2 get codes of 1, 2 and 3 bits: 7/8 of the
  // code space. The lengths it sends form a complete "AB" block.
  std::vector<int> cl(19, 0);
  cl[0] = 1;
  cl[1] = 2;
  cl[2] = 3;
  std::vector<int> litlen(257, 0);
  litlen['A'] = 1;
  litlen['B'] = 2;
  litlen[256] = 2;
  BitSink s;
  const DynamicCodes codes = put_dynamic_header(s, cl, litlen, {0});
  codes.put_litlen(s, 'A');
  codes.put_litlen(s, 'B');
  codes.put_litlen(s, 256);
  s.flush();
  EXPECT_THROW(v::inflate(s.bytes.data(), s.bytes.size()),
               std::runtime_error);
}

TEST(Deflate, RejectsIncompleteLiteralLengthCode) {
  // 'A', 'B' and end-of-block get 2 bits each: 3/4 of the code space.
  std::vector<int> litlen(257, 0);
  litlen['A'] = 2;
  litlen['B'] = 2;
  litlen[256] = 2;
  BitSink s;
  const DynamicCodes codes =
      put_dynamic_header(s, complete_cl(), litlen, {0});
  codes.put_litlen(s, 'A');
  codes.put_litlen(s, 'B');
  codes.put_litlen(s, 256);
  s.flush();
  EXPECT_THROW(v::inflate(s.bytes.data(), s.bytes.size()),
               std::runtime_error);
}

TEST(Deflate, RejectsIncompleteDistanceCode) {
  // Two 2-bit distance codes: half the code space.
  BitSink s;
  const DynamicCodes codes =
      put_dynamic_header(s, complete_cl(), a_eob_len3_litlen(), {2, 2});
  put_a_then_match(s, codes);
  EXPECT_THROW(v::inflate(s.bytes.data(), s.bytes.size()),
               std::runtime_error);
}

TEST(Deflate, AcceptsSingleOneBitDistanceCode) {
  // The one incomplete code zlib allows: a single 1-bit code.
  BitSink s;
  const DynamicCodes codes =
      put_dynamic_header(s, complete_cl(), a_eob_len3_litlen(), {1});
  put_a_then_match(s, codes);
  const auto out = v::inflate(s.bytes.data(), s.bytes.size());
  EXPECT_EQ(std::string(out.begin(), out.end()), "AAAA");
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

namespace {

/// Writes `x` big-endian at bytes [at, at + 4) of `out`.
void put_be32(std::vector<std::uint8_t>& out, std::size_t at,
              std::uint32_t x) {
  for (std::size_t i = 0; i < 4; ++i) {
    out[at + i] = static_cast<std::uint8_t>(x >> (24 - 8 * i));
  }
}

/// A PNG chunk: length, type, payload and CRC.
std::vector<std::uint8_t> png_chunk(const std::string& type,
                                    const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out(12 + payload.size());
  put_be32(out, 0, static_cast<std::uint32_t>(payload.size()));
  std::copy(type.begin(), type.end(), out.begin() + 4);
  std::copy(payload.begin(), payload.end(), out.begin() + 8);
  put_be32(out, 8 + payload.size(),
           v::crc32(out.data() + 4, 4 + payload.size()));
  return out;
}

/// The encoder's PNG of a small image: the 8-byte signature, then IHDR
/// (bytes 8-32, payload at 16-28), then IDAT and IEND.
std::vector<std::uint8_t> small_png() {
  v::Image img(5, 4, {10, 20, 30, 255});
  img.at(2, 1) = {200, 100, 50, 255};
  return img.encode_png();
}

/// `png` with IHDR payload byte `offset` (0-12) set to `value`, its CRC
/// recomputed so only the field itself is wrong.
std::vector<std::uint8_t> with_ihdr_byte(std::vector<std::uint8_t> png,
                                         std::size_t offset,
                                         std::uint8_t value) {
  png[16 + offset] = value;
  put_be32(png, 29, v::crc32(png.data() + 12, 4 + 13));
  return png;
}

}  // namespace

TEST(PngCodec, RejectsUnknownCompressionOrFilterMethod) {
  const std::vector<std::uint8_t> png = small_png();
  ASSERT_NO_THROW(v::Image::decode_png(with_ihdr_byte(png, 10, 0)));
  EXPECT_THROW(v::Image::decode_png(with_ihdr_byte(png, 10, 1)),
               std::runtime_error);  // compression method
  EXPECT_THROW(v::Image::decode_png(with_ihdr_byte(png, 11, 1)),
               std::runtime_error);  // filter method
}

TEST(PngCodec, RejectsIhdrThatIsNotTheFirstChunk) {
  const std::vector<std::uint8_t> png = small_png();
  const auto insert_at = [&png](std::size_t at,
                                const std::vector<std::uint8_t>& chunk) {
    std::vector<std::uint8_t> out = png;
    out.insert(out.begin() + static_cast<std::ptrdiff_t>(at), chunk.begin(),
               chunk.end());
    return out;
  };
  const std::vector<std::uint8_t> text = png_chunk("tEXt", {'a', 0, 'b'});
  // An ancillary chunk after IHDR is skipped ...
  EXPECT_EQ(v::Image::decode_png(insert_at(33, text)).pixels(),
            v::Image::decode_png(png).pixels());
  // ... but IHDR must come first ...
  EXPECT_THROW(v::Image::decode_png(insert_at(8, text)), std::runtime_error);
  // ... and only there: a second IHDR is not first.
  const std::vector<std::uint8_t> ihdr(png.begin() + 8, png.begin() + 33);
  EXPECT_THROW(v::Image::decode_png(insert_at(33, ihdr)), std::runtime_error);
}

TEST(CodecProperty, DeflateRoundTripsGeneratedInputs) {
  // inflate(deflate(x)) == x, and the same through the zlib wrapper, over
  // a seeded family of inputs in which every block type turns up first and
  // many span several strips; a pool's strips give the same streams.
  ricsa::util::ThreadPool pool(3);
  std::array<int, 4> first_block_type{};
  int multi_strip = 0;
  for (std::uint64_t i = 0; i < 300; ++i) {
    const std::vector<std::uint8_t> in = generated_input(i);
    const auto z = v::deflate(in);
    ASSERT_EQ(v::inflate(z), in) << "input " << i;
    ASSERT_EQ(v::deflate(in, &pool), z) << "input " << i;
    const auto zlib = v::zlib_compress(in.data(), in.size(), &pool);
    ASSERT_EQ(v::zlib_decompress(zlib.data(), zlib.size()), in)
        << "input " << i;
    ++first_block_type[(z[0] >> 1) & 0x3];
    if (in.size() > v::kDeflateStrip) ++multi_strip;
  }
  EXPECT_GT(first_block_type[0], 0);
  EXPECT_GT(first_block_type[1], 0);
  EXPECT_GT(first_block_type[2], 0);
  EXPECT_GT(multi_strip, 30);
}

TEST(CodecProperty, PngRoundTripsOpaqueAndTranslucentImages) {
  // decode_png(encode_png(img)) == img at every width 1-33 and 192. An
  // opaque image travels as RGB (colour type 2, IHDR byte 25), any other
  // as RGBA (6), down to one translucent pixel in the last position. The
  // 192-wide images span several strips; a pool gives the same PNGs.
  ricsa::util::ThreadPool pool(3);
  for (const int w : golden_widths()) {
    const int h = golden_height(w);
    for (const Pattern pattern :
         {Pattern::kGradient, Pattern::kNoise, Pattern::kShapes}) {
      v::Image opaque =
          pattern_image(pattern, w, h, static_cast<std::uint64_t>(w));
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) opaque.at(x, y).a = 255;
      }
      v::Image last_translucent = opaque;
      last_translucent.at(w - 1, h - 1).a = 254;
      v::Image translucent = opaque;
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
          translucent.at(x, y).a = static_cast<std::uint8_t>(x * 7 + y * 13);
        }
      }
      const std::pair<const v::Image*, std::uint8_t> cases[] = {
          {&opaque, 2}, {&last_translucent, 6}, {&translucent, 6}};
      for (const auto& [img, color_type] : cases) {
        const auto png = img->encode_png();
        ASSERT_EQ(png[25], color_type) << w << "x" << h;
        ASSERT_EQ(img->encode_png(&pool), png) << w << "x" << h;
        ASSERT_EQ(v::Image::decode_png(png).pixels(), img->pixels())
            << w << "x" << h << " colour type " << int{color_type};
      }
    }
  }
}

// ------------------------------------------------ golden encoder output ----
//
// The encoder's parse (strips of kDeflateStrip bytes, each primed with the
// 32 KiB before it and with no match past its end; within a strip a
// 3-byte hash, 128-candidate chain budget, first longest match wins and
// the one-step lazy rule), its blocks (five whole strips, 65535 bytes),
// its block coding (stored, fixed or dynamic by exact bit cost, the code
// lengths and their run-length coding) and the PNG colour type and filter
// choice (None/Sub/Up/Paeth by strict < in that order) are pinned by
// CRC-32 and length over a generated corpus (tests/codec_corpus.hpp). Any
// change to a decision changes a value below. Inputs of one strip or less
// (empty, one byte, short repeat, text, the cost tie) keep the bytes of
// the encoder that parsed each input in one piece; the rest, and every
// PNG table entry (each chains in a 192 x 192 image), were re-recorded
// when strips came in.
//
// The last column of each table is the length the encoder gave when every
// block was fixed-Huffman or stored and every PNG was RGBA: no entry may
// exceed it. Each block takes the cheapest of three codings, and an
// opaque PNG deflates a quarter fewer scanline bytes; clipping matches at
// strip ends gives back only a few bytes.

TEST(EncoderGolden, DeflateAndZlibOutputIsPinned) {
  struct Expected {
    std::uint32_t deflate_crc;
    std::size_t deflate_bytes;
    std::uint32_t zlib_crc;
    std::size_t zlib_bytes;
    std::size_t fixed_or_stored_bytes;  // raw DEFLATE
  };
  static const Expected kExpected[] = {
      {0x4564cc52u, 5, 0xba2d22a8u, 11, 5},                  // empty
      {0x9bc06d99u, 3, 0xd81c9cd3u, 9, 3},                   // one byte
      {0xbf9a8d3fu, 9, 0xeaeaae63u, 15, 9},                  // short repeat
      {0xf4020fe3u, 62, 0xd271c09du, 68, 64},                // text
      {0xc5331e2du, 43342, 0x82baa82du, 43348, 58572},       // skewed 100k
      {0x9e2e88dbu, 150015, 0x77fe139eu, 150021, 150015},    // random 150k
      {0xab6180d7u, 69871, 0xdf978adcu, 69877, 70015},       // straddle, random
      {0x98800693u, 60137, 0x218d4951u, 60143, 81378},       // straddle, skewed
      {0xf33d11f9u, 98755, 0x3f168d65u, 98761, 100510},      // window edge
      {0xf34a677cu, 245497, 0x3bed172au, 245503, 312870},    // words 1.3M
      {0x86b48611u, 35, 0x9bbb78d4u, 41, 35},                // fixed/stored tie
      {0x37d17d97u, 70010, 0x4ab5b862u, 70016, 70015},       // short straddle
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
    EXPECT_LE(z.size(), kExpected[i].fixed_or_stored_bytes) << in.name;
    EXPECT_EQ(v::inflate(z), in.bytes) << in.name;
  }
  // Every block type stays covered (BTYPE sits in bits 1-2 of the first
  // block): the short repeat is fixed-Huffman; the max-length straddling
  // matches land in dynamic blocks; the cost tie goes to stored, and the
  // short straddling match, clipped at the block end, leaves its block
  // stored.
  const auto btype = [&corpus](std::size_t i) {
    return (v::deflate(corpus[i].bytes)[0] >> 1) & 0x3;
  };
  EXPECT_EQ(btype(2), 1u);
  EXPECT_EQ(btype(6), 2u);
  EXPECT_EQ(btype(7), 2u);
  EXPECT_EQ(btype(10), 0u);
  EXPECT_EQ(btype(11), 0u);
}

TEST(EncoderGolden, PngOutputIsPinned) {
  struct Expected {
    Pattern pattern;
    const char* name;
    std::uint32_t crc;
    std::size_t bytes;
    std::size_t fixed_or_stored_rgba_bytes;
  };
  // The constant and shapes images are opaque (RGB), the gradient is
  // opaque only at width 1, and the noise is translucent (RGBA, stored).
  static const Expected kExpected[] = {
      {Pattern::kConstant, "constant", 0xe3475919u, 3113, 3934},
      {Pattern::kGradient, "gradient", 0xd32efc8bu, 3887, 4536},
      {Pattern::kNoise, "noise", 0xbc0936cau, 161285, 161285},
      {Pattern::kShapes, "shapes", 0x112eb56au, 26613, 32780},
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
    EXPECT_LE(total, e.fixed_or_stored_rgba_bytes) << e.name;
  }
}
