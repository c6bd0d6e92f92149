// Generated inputs shared by the codec suites: byte buffers and images,
// all seeded, with integer arithmetic only, so every platform builds the
// same corpus.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "util/prng.hpp"
#include "viz/image.hpp"

namespace ricsa::codec_corpus {

namespace v = ricsa::viz;

/// `n` uniform random bytes: incompressible, so blocks take the stored
/// fallback.
inline std::vector<std::uint8_t> random_bytes(std::size_t n,
                                              std::uint64_t seed) {
  ricsa::util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng() & 0xFF);
  return out;
}

/// `n` bytes drawn from a skewed 17-symbol alphabet: long hash chains, so
/// the chain budget and the lazy rule both bind.
inline std::vector<std::uint8_t> skewed_bytes(std::size_t n,
                                              std::uint64_t seed) {
  static const char kAlphabet[] = "aaaaabbbcddeefg h";
  ricsa::util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(kAlphabet[rng() % 17]);
  return out;
}

/// Words from a small vocabulary: matches at many lengths and distances.
inline std::vector<std::uint8_t> word_text(std::size_t n, std::uint64_t seed) {
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

/// The byte inputs whose encoder output the golden tables pin.
inline std::vector<NamedInput> byte_corpus() {
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
  // random bytes and over skewed bytes: the match pays for a dynamic
  // block's header in both.
  auto straddle_random = random_bytes(70000, 3);
  std::copy(straddle_random.begin() + 45400, straddle_random.begin() + 45658,
            straddle_random.begin() + 65400);
  corpus.push_back({"max match straddles block, random", straddle_random});
  auto straddle_skewed = skewed_bytes(140000, 4);
  std::fill(straddle_skewed.begin() + 65400, straddle_skewed.begin() + 66000,
            0x55);
  corpus.push_back({"max match straddles block, skewed", straddle_skewed});
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
  // A 6-byte match from position 65533 over random data would carry the
  // block's span to 65537 bytes; it is clipped at the strip (and block)
  // end, so the block stays stored and exactly 65535 bytes.
  auto straddle_stored = random_bytes(70000, 3);
  std::copy(straddle_stored.begin() + 45533, straddle_stored.begin() + 45539,
            straddle_stored.begin() + 65533);
  corpus.push_back({"short match straddles block, stored", straddle_stored});
  return corpus;
}

/// Inputs around strip and block edges: k strips plus or minus one byte
/// for k = 1-6 (the first block edge is 5 strips), 10 and 23 (about
/// 300 KB). All are prefixes of one buffer of words with every third 4 KiB
/// random, a 300-byte run centred on every other strip end and a 258-byte
/// match straddling the others (its source 10000 bytes earlier), so the
/// parse meets both at every strip and block edge of the longest input.
inline std::vector<NamedInput> strip_edge_inputs() {
  constexpr std::size_t kStrips = 23;
  const std::size_t strip = v::kDeflateStrip;
  const std::size_t size = kStrips * strip + 1;
  std::vector<std::uint8_t> buffer = word_text(size, 21);
  const std::vector<std::uint8_t> noise = random_bytes(size, 22);
  for (std::size_t at = 0; at + 4096 <= size; at += 3 * 4096) {
    std::copy_n(noise.begin() + static_cast<std::ptrdiff_t>(at), 4096,
                buffer.begin() + static_cast<std::ptrdiff_t>(at));
  }
  for (std::size_t k = 1; k < kStrips; ++k) {
    const std::size_t end = k * strip;
    if (k % 2 == 0) {
      std::fill_n(buffer.begin() + static_cast<std::ptrdiff_t>(end - 150), 300,
                  static_cast<std::uint8_t>(k));
    } else {
      std::copy_n(buffer.begin() + static_cast<std::ptrdiff_t>(end - 10129),
                  258, buffer.begin() + static_cast<std::ptrdiff_t>(end - 129));
    }
  }
  std::vector<NamedInput> inputs;
  for (const std::size_t k : {1u, 2u, 3u, 4u, 5u, 6u, 10u, 23u}) {
    for (const std::size_t n : {k * strip - 1, k * strip + 1}) {
      inputs.push_back(
          {std::to_string(n) + " bytes",
           {buffer.begin(), buffer.begin() + static_cast<std::ptrdiff_t>(n)}});
    }
  }
  return inputs;
}

/// Words with byte runs planted where inserting a run in bulk has edge
/// cases: runs of 3, 4 and 5 bytes (no, one and two positions past the
/// first share its hash), runs across a strip end and the first block end,
/// a 40000-byte run (longer than the window, so its chain links wrap the
/// table) and runs of 258 and 1000. The words make every strip costly, so
/// a lent pool parses them with priming windows that cross the runs.
inline std::vector<std::uint8_t> run_planted_input() {
  std::vector<std::uint8_t> data = word_text(180000, 31);
  const struct {
    std::size_t at, length;
    std::uint8_t byte;
  } runs[] = {{1000, 3, 'x'},   {2000, 4, 'y'},          {3000, 5, 'z'},
              {10000, 258, 0},  {2 * v::kDeflateStrip - 100, 200, 7},
              {65535 - 30, 60, 0xFF}, {70000, 40000, 0}, {150000, 1000, 'a'}};
  for (const auto& run : runs) {
    std::fill_n(data.begin() + static_cast<std::ptrdiff_t>(run.at), run.length,
                run.byte);
  }
  return data;
}

/// Input `index` of a seeded family of generated inputs. The kind cycles
/// with the index (random, skewed, words, byte runs, small alphabets,
/// mutated repeats at distances up to twice the window) and the length is
/// log-uniform below 128 KiB, so a few hundred indices cover empty and
/// one-byte inputs, every block type and inputs of several blocks.
inline std::vector<std::uint8_t> generated_input(std::uint64_t index) {
  ricsa::util::Xoshiro256 rng(0x5EED0000u + index);
  const std::uint64_t bits = rng() % 18;
  const std::size_t n =
      bits == 0 ? 0
                : static_cast<std::size_t>(rng() % (std::uint64_t{1} << bits));
  switch (index % 6) {
    case 0:
      return random_bytes(n, rng());
    case 1:
      return skewed_bytes(n, rng());
    case 2:
      return word_text(n, rng());
    default:
      break;
  }
  std::vector<std::uint8_t> out(n);
  if (index % 6 == 3) {  // runs of 1..300 equal bytes
    for (std::size_t i = 0; i < n;) {
      const std::size_t run = std::min<std::size_t>(n - i, 1 + rng() % 300);
      std::fill_n(out.begin() + static_cast<std::ptrdiff_t>(i), run,
                  static_cast<std::uint8_t>(rng() & 0xFF));
      i += run;
    }
  } else if (index % 6 == 4) {  // 2..64 symbols, uniform
    const std::uint64_t symbols = 2 + rng() % 63;
    for (auto& b : out) b = static_cast<std::uint8_t>('0' + rng() % symbols);
  } else {  // a random period, repeated with sparse changes
    const std::size_t period = 1 + static_cast<std::size_t>(rng() % 65536);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = i < period || rng() % 97 == 0
                   ? static_cast<std::uint8_t>(rng() & 0xFF)
                   : out[i - period];
    }
  }
  return out;
}

enum class Pattern { kConstant, kGradient, kNoise, kShapes };

/// Images of the PNG corpus. Shapes are shaded discs on a flat background,
/// like a rendered frame; all arithmetic is integer so the corpus is the
/// same on every platform.
inline v::Image pattern_image(Pattern pattern, int w, int h,
                              std::uint64_t seed) {
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
inline std::vector<int> golden_widths() {
  std::vector<int> widths;
  for (int w = 1; w <= 33; ++w) widths.push_back(w);
  widths.push_back(192);
  return widths;
}

inline int golden_height(int width) {
  return width > 33 ? 192 : 1 + width * 5 % 9;
}

}  // namespace ricsa::codec_corpus
