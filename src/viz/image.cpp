#include "viz/image.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace ricsa::viz {

Image::Image(int width, int height, Rgba fill)
    : width_(width), height_(height),
      pixels_(static_cast<std::size_t>(width) * static_cast<std::size_t>(height),
              fill) {
  if (width <= 0 || height <= 0) {
    throw std::invalid_argument("Image: dimensions must be positive");
  }
}

void Image::write_ppm(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("Image: cannot open " + path);
  out << "P6\n" << width_ << " " << height_ << "\n255\n";
  for (const Rgba& p : pixels_) {
    out.put(static_cast<char>(p.r));
    out.put(static_cast<char>(p.g));
    out.put(static_cast<char>(p.b));
  }
  if (!out) throw std::runtime_error("Image: write failed " + path);
}

Image downsample(const Image& image, int factor) {
  if (factor <= 0) throw std::invalid_argument("downsample: factor must be >= 1");
  if (factor == 1 || image.width() == 0 || image.height() == 0) return image;
  const int out_w = (image.width() + factor - 1) / factor;
  const int out_h = (image.height() + factor - 1) / factor;
  Image out(out_w, out_h);
  for (int oy = 0; oy < out_h; ++oy) {
    for (int ox = 0; ox < out_w; ++ox) {
      const int x0 = ox * factor, y0 = oy * factor;
      const int x1 = std::min(x0 + factor, image.width());
      const int y1 = std::min(y0 + factor, image.height());
      unsigned r = 0, g = 0, b = 0, a = 0;
      for (int y = y0; y < y1; ++y) {
        for (int x = x0; x < x1; ++x) {
          const Rgba& p = image.at(x, y);
          r += p.r; g += p.g; b += p.b; a += p.a;
        }
      }
      const unsigned count = static_cast<unsigned>((x1 - x0) * (y1 - y0));
      out.at(ox, oy) = Rgba{static_cast<std::uint8_t>(r / count),
                            static_cast<std::uint8_t>(g / count),
                            static_cast<std::uint8_t>(b / count),
                            static_cast<std::uint8_t>(a / count)};
    }
  }
  return out;
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t n,
                    std::uint32_t seed) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = table[(c ^ data[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

namespace {
void push_be32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void push_chunk(std::vector<std::uint8_t>& out, const char type[5],
                const std::vector<std::uint8_t>& payload) {
  push_be32(out, static_cast<std::uint32_t>(payload.size()));
  const std::size_t at = out.size();
  out.insert(out.end(), type, type + 4);
  out.insert(out.end(), payload.begin(), payload.end());
  push_be32(out, crc32(out.data() + at, 4 + payload.size()));
}

static_assert(sizeof(Rgba) == 4, "pixels are read as packed RGBA bytes");

/// PNG colour types the codec writes and reads, both 8 bits per sample.
constexpr std::uint8_t kColorRgb = 2;
constexpr std::uint8_t kColorRgba = 6;

/// The pixels as packed RGB bytes when every alpha is 255; empty as soon
/// as one is not.
std::vector<std::uint8_t> opaque_rgb(const std::vector<Rgba>& pixels) {
  std::vector<std::uint8_t> rgb(3 * pixels.size());
  std::uint8_t* out = rgb.data();
  for (const Rgba& p : pixels) {
    if (p.a != 255) return {};
    out[0] = p.r;
    out[1] = p.g;
    out[2] = p.b;
    out += 3;
  }
  return rgb;
}

/// PNG Paeth predictor (spec pseudocode, exact tie-break order a/b/c).
std::uint8_t paeth(int a, int b, int c) {
  const int p = a + b - c;
  const int pa = std::abs(p - a), pb = std::abs(p - b), pc = std::abs(p - c);
  if (pa <= pb && pa <= pc) return static_cast<std::uint8_t>(a);
  if (pb <= pc) return static_cast<std::uint8_t>(b);
  return static_cast<std::uint8_t>(c);
}

/// Filter-selection cost of one filtered byte: its absolute value read as
/// signed (v < 128 ? v : 256 - v) — the heuristic from the PNG spec.
unsigned residual_cost(std::uint8_t v) { return v < 128 ? v : 256u - v; }

/// Sub, Up and Paeth residuals of bytes [from, to) of `cur` against `prev`
/// (the row above), `bpp` bytes per pixel, into `sub`/`up`/`pth`; adds
/// each byte's selection cost to `cost` (None, Sub, Up, Paeth).
void filter_bytes(const std::uint8_t* cur, const std::uint8_t* prev,
                  std::size_t bpp, std::size_t from, std::size_t to,
                  std::uint8_t* sub, std::uint8_t* up, std::uint8_t* pth,
                  std::array<std::uint64_t, 4>& cost) {
  for (std::size_t i = from; i < to; ++i) {
    const int left = i >= bpp ? cur[i - bpp] : 0;
    const int above = prev[i];
    const int upleft = i >= bpp ? prev[i - bpp] : 0;
    sub[i] = static_cast<std::uint8_t>(cur[i] - left);
    up[i] = static_cast<std::uint8_t>(cur[i] - above);
    pth[i] = static_cast<std::uint8_t>(cur[i] - paeth(left, above, upleft));
    cost[0] += residual_cost(cur[i]);
    cost[1] += residual_cost(sub[i]);
    cost[2] += residual_cost(up[i]);
    cost[3] += residual_cost(pth[i]);
  }
}

#if defined(__SSE2__)
/// residual_cost of 16 bytes at once: min(v, -v) as unsigned bytes.
__m128i residual_cost16(__m128i v) {
  return _mm_min_epu8(v, _mm_sub_epi8(_mm_setzero_si128(), v));
}

/// The Paeth predictor's choice masks for 8 bytes widened to 16
/// bits: `not_a` where a loses (pa > pb or pa > pc), `use_c` where c beats
/// b (pb > pc). With p = a + b - c: pa = |b - c|, pb = |a - c|,
/// pc = |a + b - 2c|.
void paeth_masks16(__m128i a, __m128i b, __m128i c, __m128i& not_a,
                   __m128i& use_c) {
  const __m128i zero = _mm_setzero_si128();
  const auto abs16 = [zero](__m128i v) {
    return _mm_max_epi16(v, _mm_sub_epi16(zero, v));
  };
  const __m128i bc = _mm_sub_epi16(b, c);
  const __m128i ac = _mm_sub_epi16(a, c);
  const __m128i pa = abs16(bc);
  const __m128i pb = abs16(ac);
  const __m128i pc = abs16(_mm_add_epi16(ac, bc));
  not_a = _mm_or_si128(_mm_cmpgt_epi16(pa, pb), _mm_cmpgt_epi16(pa, pc));
  use_c = _mm_cmpgt_epi16(pb, pc);
}

/// Paeth predictions for 16 bytes (spec tie-break order a/b/c).
__m128i paeth16(__m128i a, __m128i b, __m128i c) {
  const __m128i zero = _mm_setzero_si128();
  __m128i not_a_lo, use_c_lo, not_a_hi, use_c_hi;
  paeth_masks16(_mm_unpacklo_epi8(a, zero), _mm_unpacklo_epi8(b, zero),
                _mm_unpacklo_epi8(c, zero), not_a_lo, use_c_lo);
  paeth_masks16(_mm_unpackhi_epi8(a, zero), _mm_unpackhi_epi8(b, zero),
                _mm_unpackhi_epi8(c, zero), not_a_hi, use_c_hi);
  // 16-bit all-ones/all-zeros masks narrow to byte masks unchanged.
  const __m128i not_a = _mm_packs_epi16(not_a_lo, not_a_hi);
  const __m128i use_c = _mm_packs_epi16(use_c_lo, use_c_hi);
  const __m128i b_or_c = _mm_or_si128(_mm_and_si128(use_c, c),
                                      _mm_andnot_si128(use_c, b));
  return _mm_or_si128(_mm_and_si128(not_a, b_or_c),
                      _mm_andnot_si128(not_a, a));
}
#endif

/// One pass over a row of `n` bytes, `bpp` (3 or 4) bytes per pixel: Sub,
/// Up and Paeth residuals into `sub`/`up`/`pth`, and the selection cost of
/// each of None, Sub, Up and Paeth. The first pixel (no left neighbour)
/// and the tail go through the scalar loop; with SSE2 the rest takes 16
/// bytes per step.
std::array<std::uint64_t, 4> filter_row(const std::uint8_t* cur,
                                        const std::uint8_t* prev,
                                        std::size_t n, std::size_t bpp,
                                        std::uint8_t* sub, std::uint8_t* up,
                                        std::uint8_t* pth) {
  std::array<std::uint64_t, 4> cost{};
  std::size_t i = std::min(bpp, n);
  filter_bytes(cur, prev, bpp, 0, i, sub, up, pth, cost);
#if defined(__SSE2__)
  const __m128i zero = _mm_setzero_si128();
  __m128i sums[4] = {zero, zero, zero, zero};
  const auto load = [](const std::uint8_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };
  const auto store = [](std::uint8_t* p, __m128i v) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  };
  for (; i + 16 <= n; i += 16) {
    const __m128i x = load(cur + i);
    const __m128i a = load(cur + i - bpp);
    const __m128i b = load(prev + i);
    const __m128i c = load(prev + i - bpp);
    const __m128i residual[4] = {
        x, _mm_sub_epi8(x, a), _mm_sub_epi8(x, b),
        _mm_sub_epi8(x, paeth16(a, b, c))};
    store(sub + i, residual[1]);
    store(up + i, residual[2]);
    store(pth + i, residual[3]);
    for (std::size_t f = 0; f < 4; ++f) {
      sums[f] = _mm_add_epi64(
          sums[f], _mm_sad_epu8(residual_cost16(residual[f]), zero));
    }
  }
  for (std::size_t f = 0; f < 4; ++f) {
    std::uint64_t lanes[2];
    _mm_storeu_si128(reinterpret_cast<__m128i*>(lanes), sums[f]);
    cost[f] += lanes[0] + lanes[1];
  }
#endif
  filter_bytes(cur, prev, bpp, i, n, sub, up, pth, cost);
  return cost;
}
}  // namespace

std::vector<std::uint8_t> Image::encode_png(util::ThreadPool* pool) const {
  // An opaque image (every rendered frame is one) drops its alpha channel:
  // RGB scanlines leave a quarter fewer bytes to filter and deflate.
  const std::vector<std::uint8_t> rgb = opaque_rgb(pixels_);
  const bool opaque = !rgb.empty();
  const std::size_t bpp = opaque ? 3 : 4;
  const std::uint8_t* pixels =
      opaque ? rgb.data()
             : reinterpret_cast<const std::uint8_t*>(pixels_.data());
  // Filtered scanlines: per row, pick among None/Sub/Up/Paeth by minimum
  // sum of absolute differences (the first of equal sums wins) so the
  // DEFLATE stage sees small residuals instead of raw pixel values.
  constexpr std::uint8_t kFilterType[4] = {0, 1, 2, 4};  // None/Sub/Up/Paeth
  const std::size_t row_bytes = bpp * static_cast<std::size_t>(width_);
  const std::size_t stride = 1 + row_bytes;
  std::vector<std::uint8_t> raw(static_cast<std::size_t>(height_) * stride);
  std::vector<std::uint8_t> trial(3 * row_bytes);  // Sub, Up, Paeth rows
  const std::vector<std::uint8_t> zero_row(row_bytes, 0);
  for (std::size_t y = 0; y < static_cast<std::size_t>(height_); ++y) {
    const std::uint8_t* cur = pixels + y * row_bytes;
    const std::uint8_t* prev = y == 0 ? zero_row.data() : cur - row_bytes;
    const std::array<std::uint64_t, 4> cost =
        filter_row(cur, prev, row_bytes, bpp, trial.data(),
                   trial.data() + row_bytes, trial.data() + 2 * row_bytes);
    std::size_t best = 0;
    for (std::size_t f = 1; f < 4; ++f) {
      if (cost[f] < cost[best]) best = f;
    }
    std::uint8_t* out = raw.data() + y * stride;
    out[0] = kFilterType[best];
    std::memcpy(out + 1,
                best == 0 ? cur : trial.data() + (best - 1) * row_bytes,
                row_bytes);
  }

  const std::vector<std::uint8_t> z =
      zlib_compress(raw.data(), raw.size(), pool);

  std::vector<std::uint8_t> png = {0x89, 'P', 'N', 'G', 0x0D, 0x0A, 0x1A, 0x0A};
  png.reserve(png.size() + 3 * 12 + 13 + z.size());
  std::vector<std::uint8_t> ihdr;
  push_be32(ihdr, static_cast<std::uint32_t>(width_));
  push_be32(ihdr, static_cast<std::uint32_t>(height_));
  ihdr.push_back(8);   // bit depth
  ihdr.push_back(opaque ? kColorRgb : kColorRgba);
  ihdr.push_back(0);   // compression
  ihdr.push_back(0);   // filter
  ihdr.push_back(0);   // interlace
  push_chunk(png, "IHDR", ihdr);
  push_chunk(png, "IDAT", z);
  push_chunk(png, "IEND", {});
  return png;
}

namespace {

std::uint32_t read_be32(const std::vector<std::uint8_t>& b, std::size_t off) {
  if (off + 4 > b.size()) throw std::runtime_error("png: truncated");
  return (static_cast<std::uint32_t>(b[off]) << 24) |
         (static_cast<std::uint32_t>(b[off + 1]) << 16) |
         (static_cast<std::uint32_t>(b[off + 2]) << 8) |
         static_cast<std::uint32_t>(b[off + 3]);
}

/// Undo a scanline filter in place, `bpp` bytes per pixel; `prev` is the
/// reconstructed row above (all zeros for the first row).
void defilter_row(std::uint8_t filter, std::uint8_t* row,
                  const std::uint8_t* prev, std::size_t n, std::size_t bpp) {
  switch (filter) {
    case 0:  // None
      break;
    case 1:  // Sub
      for (std::size_t i = bpp; i < n; ++i) row[i] += row[i - bpp];
      break;
    case 2:  // Up
      for (std::size_t i = 0; i < n; ++i) row[i] += prev[i];
      break;
    case 3:  // Average
      for (std::size_t i = 0; i < n; ++i) {
        const int left = i >= bpp ? row[i - bpp] : 0;
        row[i] = static_cast<std::uint8_t>(row[i] + (left + prev[i]) / 2);
      }
      break;
    case 4:  // Paeth
      for (std::size_t i = 0; i < n; ++i) {
        const int left = i >= bpp ? row[i - bpp] : 0;
        const int upleft = i >= bpp ? prev[i - bpp] : 0;
        row[i] = static_cast<std::uint8_t>(row[i] +
                                           paeth(left, prev[i], upleft));
      }
      break;
    default:
      throw std::runtime_error("png: bad filter type");
  }
}

}  // namespace

Image Image::decode_png(const std::vector<std::uint8_t>& bytes) {
  static const std::uint8_t kSig[8] = {0x89, 'P', 'N', 'G',
                                       0x0D, 0x0A, 0x1A, 0x0A};
  if (bytes.size() < 8 || !std::equal(kSig, kSig + 8, bytes.begin())) {
    throw std::runtime_error("png: bad signature");
  }
  int width = 0, height = 0;
  std::size_t bpp = 0;
  std::vector<std::uint8_t> idat;
  std::size_t off = 8;
  bool done = false;
  while (!done) {
    const std::uint32_t len = read_be32(bytes, off);
    if (off + 12 + len > bytes.size()) throw std::runtime_error("png: truncated");
    const std::string type(bytes.begin() + static_cast<std::ptrdiff_t>(off + 4),
                           bytes.begin() + static_cast<std::ptrdiff_t>(off + 8));
    const std::size_t payload = off + 8;
    if (crc32(bytes.data() + off + 4, 4 + len) != read_be32(bytes, payload + len)) {
      throw std::runtime_error("png: chunk crc mismatch");
    }
    if ((off == 8) != (type == "IHDR")) {
      throw std::runtime_error("png: IHDR must be the first chunk");
    }
    if (type == "IHDR") {
      if (len != 13) throw std::runtime_error("png: bad IHDR");
      width = static_cast<int>(read_be32(bytes, payload));
      height = static_cast<int>(read_be32(bytes, payload + 4));
      // PNG defines only compression method 0 (deflate) and filter
      // method 0 (the five adaptive filters).
      if (bytes[payload + 10] != 0 || bytes[payload + 11] != 0) {
        throw std::runtime_error("png: unknown compression or filter method");
      }
      const std::uint8_t color = bytes[payload + 9];
      if (bytes[payload + 8] != 8 ||
          (color != kColorRgb && color != kColorRgba) ||
          bytes[payload + 12] != 0) {
        throw std::runtime_error(
            "png: only RGB8/RGBA8 non-interlaced supported");
      }
      bpp = color == kColorRgb ? 3 : 4;
    } else if (type == "IDAT") {
      idat.insert(idat.end(), bytes.begin() + static_cast<std::ptrdiff_t>(payload),
                  bytes.begin() + static_cast<std::ptrdiff_t>(payload + len));
    } else if (type == "IEND") {
      done = true;
    }
    off = payload + len + 4;
  }
  if (width <= 0 || height <= 0) throw std::runtime_error("png: missing IHDR");
  const std::size_t row_bytes = bpp * static_cast<std::size_t>(width);
  const std::size_t stride = 1 + row_bytes;
  const std::size_t expect = stride * static_cast<std::size_t>(height);
  std::vector<std::uint8_t> raw =
      zlib_decompress(idat.data(), idat.size(), expect);
  if (raw.size() != expect) {
    throw std::runtime_error("png: scanline size mismatch");
  }
  Image img(width, height);
  std::vector<std::uint8_t> zero(row_bytes, 0);
  for (int y = 0; y < height; ++y) {
    std::uint8_t* row = raw.data() + static_cast<std::size_t>(y) * stride;
    const std::uint8_t* prev =
        y == 0 ? zero.data()
               : raw.data() + static_cast<std::size_t>(y - 1) * stride + 1;
    defilter_row(row[0], row + 1, prev, row_bytes, bpp);
    Rgba* out = img.pixels_.data() +
                static_cast<std::size_t>(y) * static_cast<std::size_t>(width);
    if (bpp == 4) {
      std::memcpy(out, row + 1, row_bytes);
      continue;
    }
    for (std::size_t x = 0; x < static_cast<std::size_t>(width); ++x) {
      const std::uint8_t* p = row + 1 + 3 * x;
      out[x] = Rgba{p[0], p[1], p[2], 255};
    }
  }
  return img;
}

void Image::write_png(const std::string& path) const {
  const auto bytes = encode_png();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("Image: cannot open " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("Image: write failed " + path);
}

std::vector<std::uint8_t> rle_encode(const Image& image) {
  std::vector<std::uint8_t> out;
  const auto& px = image.pixels();
  std::size_t i = 0;
  while (i < px.size()) {
    std::size_t run = 1;
    while (i + run < px.size() && run < 255 && px[i + run] == px[i]) ++run;
    out.push_back(static_cast<std::uint8_t>(run));
    out.push_back(px[i].r);
    out.push_back(px[i].g);
    out.push_back(px[i].b);
    out.push_back(px[i].a);
    i += run;
  }
  return out;
}

Image rle_decode(const std::vector<std::uint8_t>& data, int width, int height) {
  if (data.size() % 5 != 0) throw std::runtime_error("rle: bad length");
  Image img(width, height);
  std::size_t pixel = 0;
  const std::size_t total =
      static_cast<std::size_t>(width) * static_cast<std::size_t>(height);
  for (std::size_t i = 0; i < data.size(); i += 5) {
    const std::size_t run = data[i];
    const Rgba c{data[i + 1], data[i + 2], data[i + 3], data[i + 4]};
    for (std::size_t k = 0; k < run; ++k) {
      if (pixel >= total) throw std::runtime_error("rle: pixel overflow");
      img.at(static_cast<int>(pixel % static_cast<std::size_t>(width)),
             static_cast<int>(pixel / static_cast<std::size_t>(width))) = c;
      ++pixel;
    }
  }
  if (pixel != total) throw std::runtime_error("rle: pixel underflow");
  return img;
}

}  // namespace ricsa::viz
