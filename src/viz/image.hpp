// RGBA8 image with PPM/PNG writers (RGB8 or RGBA8 PNGs) and an RLE codec.
//
// The Ajax front end "save[s] the received images as fixed-size files that
// are to be delivered to the browser through the object exchange mechanism
// of XMLHttpRequest" (Section 2). PNG encoding here is fully self-contained
// (real DEFLATE via viz/deflate.hpp, no external zlib dependency); RLE
// gives the cheap framebuffer compression used when shipping images down
// the pipeline.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "viz/deflate.hpp"

namespace ricsa::util {
class ThreadPool;
}

namespace ricsa::viz {

struct Rgba {
  std::uint8_t r = 0, g = 0, b = 0, a = 255;
  bool operator==(const Rgba&) const = default;
};

class Image {
 public:
  Image() = default;
  Image(int width, int height, Rgba fill = {0, 0, 0, 255});

  int width() const noexcept { return width_; }
  int height() const noexcept { return height_; }
  std::size_t bytes() const noexcept { return pixels_.size() * 4; }

  /// Pixel (x, y); throws std::out_of_range outside the image. Inline, as
  /// the ray cast writes each of its pixels through it.
  Rgba& at(int x, int y) {
    if (x < 0 || y < 0 || x >= width_ || y >= height_) {
      throw std::out_of_range("Image::at");
    }
    return pixels_[static_cast<std::size_t>(y) *
                       static_cast<std::size_t>(width_) +
                   static_cast<std::size_t>(x)];
  }
  const Rgba& at(int x, int y) const {
    return const_cast<Image*>(this)->at(x, y);
  }

  const std::vector<Rgba>& pixels() const noexcept { return pixels_; }

  /// Binary PPM (P6, alpha dropped).
  void write_ppm(const std::string& path) const;

  /// Complete PNG byte stream: RGB8 (colour type 2) when every alpha is
  /// 255, RGBA8 (colour type 6) otherwise; per-row scanline filter
  /// selection (None/Sub/Up/Paeth by minimum sum of absolute differences)
  /// over a real DEFLATE stream (LZ77, each block stored, fixed- or
  /// dynamic-Huffman, whichever is smallest). The deflate strips' parses
  /// and their Adler-32s run on `pool` as viz::deflate decides; the bytes
  /// are the same for any pool or none.
  std::vector<std::uint8_t> encode_png(util::ThreadPool* pool = nullptr) const;
  void write_png(const std::string& path) const;

  /// Decode an RGB8 or RGBA8 non-interlaced PNG (RGB pixels get alpha
  /// 255): full inflate (stored, fixed- and dynamic-Huffman blocks) and all
  /// five scanline filters, so any conforming stream of those two formats
  /// round-trips — encoder outputs in particular. Throws std::runtime_error
  /// on malformed input (IHDR not the first chunk, compression or filter
  /// method other than 0 included) or unsupported formats (other colour
  /// types and bit depths, interlacing).
  static Image decode_png(const std::vector<std::uint8_t>& bytes);

 private:
  int width_ = 0, height_ = 0;
  std::vector<Rgba> pixels_;
};

/// Box-filtered reduction by an integer factor (>= 1): each output pixel
/// averages the factor x factor source block, edge blocks clamped. Used by
/// the web layer to build cheaper image quality tiers for slow consumers.
Image downsample(const Image& image, int factor);

/// Run-length encode RGBA pixels: stream of (count u8, rgba) runs.
std::vector<std::uint8_t> rle_encode(const Image& image);
/// Decode back; throws std::runtime_error on malformed input or mismatched
/// pixel count.
Image rle_decode(const std::vector<std::uint8_t>& data, int width, int height);

/// CRC-32 (IEEE) — exposed for tests. (Adler-32 lives in viz/deflate.hpp.)
std::uint32_t crc32(const std::uint8_t* data, std::size_t n,
                    std::uint32_t seed = 0);

}  // namespace ricsa::viz
