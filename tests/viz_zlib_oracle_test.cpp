// Reference-zlib oracle for the DEFLATE/PNG codec (src/viz/deflate.*,
// src/viz/image.*).
//
// Browsers decode the dashboard's PNGs with zlib-derived inflaters, which
// reject streams our own inflater might accept. So every encoder output
// here, from the golden corpus, a seeded family of generated inputs, the
// inputs around strip and block edges and the golden PNGs' IDAT streams,
// is inflated by zlib's `uncompress`, and zlib's bytes must equal both the
// input and our inflater's output. The outputs are encoded on a thread
// pool, strips in parallel, and must equal the serial ones. The converse
// checks our inflater against streams zlib's compressor wrote.
// The codec itself stays zlib-free; zlib links into this test only.
#include <gtest/gtest.h>
#include <zlib.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "codec_corpus.hpp"
#include "util/thread_pool.hpp"
#include "viz/deflate.hpp"
#include "viz/image.hpp"

namespace v = ricsa::viz;
using namespace ricsa::codec_corpus;

namespace {

/// zlib's `uncompress` of `stream`, given room for one byte more than
/// `size`, so a longer plaintext shows as a wrong length. Fails the test
/// on any zlib error.
std::vector<std::uint8_t> zlib_uncompress(
    const std::vector<std::uint8_t>& stream, std::size_t size) {
  std::vector<std::uint8_t> out(size + 1);
  uLongf out_len = static_cast<uLongf>(out.size());
  const int rc = uncompress(out.data(), &out_len, stream.data(),
                            static_cast<uLong>(stream.size()));
  EXPECT_EQ(rc, Z_OK) << "zlib: " << zError(rc);
  out.resize(rc == Z_OK ? out_len : 0);
  return out;
}

/// The pool the encoder's strips run on in every check below.
ricsa::util::ThreadPool& encode_pool() {
  static ricsa::util::ThreadPool pool(4);
  return pool;
}

/// Compresses `in` through our encoder on the pool, inflates it with zlib
/// and with our inflater, and checks all three agree and that the serial
/// encoder gives the same stream. Returns the first block's BTYPE.
unsigned check_against_zlib(const std::vector<std::uint8_t>& in,
                            const std::string& name) {
  const std::vector<std::uint8_t> raw = v::deflate(in, &encode_pool());
  const std::vector<std::uint8_t> stream =
      v::zlib_compress(in.data(), in.size(), &encode_pool());
  EXPECT_EQ(v::zlib_compress(in.data(), in.size()), stream) << name;
  // The zlib stream is the raw stream between header and Adler-32.
  EXPECT_EQ(std::vector<std::uint8_t>(stream.begin() + 2, stream.end() - 4),
            raw)
      << name;
  const std::vector<std::uint8_t> by_zlib = zlib_uncompress(stream, in.size());
  EXPECT_EQ(by_zlib, in) << name;
  EXPECT_EQ(by_zlib, v::zlib_decompress(stream.data(), stream.size()))
      << name;
  return (raw[0] >> 1) & 0x3;
}

/// The concatenated IDAT payloads of a PNG.
std::vector<std::uint8_t> idat_of(const std::vector<std::uint8_t>& png) {
  std::vector<std::uint8_t> idat;
  for (std::size_t off = 8; off + 12 <= png.size();) {
    const std::size_t len = (std::size_t{png[off]} << 24) |
                            (std::size_t{png[off + 1]} << 16) |
                            (std::size_t{png[off + 2]} << 8) | png[off + 3];
    const std::string type(png.begin() + static_cast<std::ptrdiff_t>(off + 4),
                           png.begin() + static_cast<std::ptrdiff_t>(off + 8));
    if (type == "IDAT") {
      idat.insert(idat.end(),
                  png.begin() + static_cast<std::ptrdiff_t>(off + 8),
                  png.begin() + static_cast<std::ptrdiff_t>(off + 8 + len));
    }
    off += 12 + len;
  }
  return idat;
}

}  // namespace

TEST(ZlibOracle, InflatesGoldenCorpus) {
  for (const NamedInput& in : byte_corpus()) {
    check_against_zlib(in.bytes, in.name);
  }
}

TEST(ZlibOracle, InflatesStripEdgeInputs) {
  for (const NamedInput& in : strip_edge_inputs()) {
    check_against_zlib(in.bytes, in.name);
  }
}

TEST(ZlibOracle, InflatesGeneratedInputs) {
  std::array<int, 4> first_block_type{};
  for (std::uint64_t i = 0; i < 300; ++i) {
    ++first_block_type[check_against_zlib(generated_input(i),
                                          "input " + std::to_string(i))];
  }
  // Stored, fixed and dynamic blocks all went through zlib.
  EXPECT_GT(first_block_type[0], 0);
  EXPECT_GT(first_block_type[1], 0);
  EXPECT_GT(first_block_type[2], 0);
}

TEST(ZlibOracle, InflatesGoldenPngIdat) {
  for (const Pattern pattern : {Pattern::kConstant, Pattern::kGradient,
                                Pattern::kNoise, Pattern::kShapes}) {
    for (const int w : golden_widths()) {
      const int h = golden_height(w);
      const v::Image img =
          pattern_image(pattern, w, h, static_cast<std::uint64_t>(w));
      const std::vector<std::uint8_t> png = img.encode_png(&encode_pool());
      EXPECT_EQ(img.encode_png(), png);
      const std::vector<std::uint8_t> idat = idat_of(png);
      const std::vector<std::uint8_t> ours =
          v::zlib_decompress(idat.data(), idat.size());
      // One filter byte per row, then 3 (RGB) or 4 (RGBA) bytes a pixel.
      const std::size_t row = ours.size() / static_cast<std::size_t>(h);
      ASSERT_TRUE(row == 1 + 3 * static_cast<std::size_t>(w) ||
                  row == 1 + 4 * static_cast<std::size_t>(w));
      EXPECT_EQ(zlib_uncompress(idat, ours.size()), ours)
          << "pattern " << static_cast<int>(pattern) << ", " << w << "x" << h;
    }
  }
}

TEST(ZlibOracle, InflaterAcceptsZlibStreams) {
  // The strict inflater must still read everything zlib writes, at its
  // fastest, default and best levels.
  for (std::uint64_t i = 0; i < 300; i += 3) {
    const std::vector<std::uint8_t> in = generated_input(i);
    for (const int level : {1, 6, 9}) {
      std::vector<std::uint8_t> stream(
          compressBound(static_cast<uLong>(in.size())));
      uLongf len = static_cast<uLongf>(stream.size());
      ASSERT_EQ(compress2(stream.data(), &len, in.data(),
                          static_cast<uLong>(in.size()), level),
                Z_OK);
      stream.resize(len);
      EXPECT_EQ(v::zlib_decompress(stream.data(), stream.size()), in)
          << "input " << i << ", level " << level;
    }
  }
}
