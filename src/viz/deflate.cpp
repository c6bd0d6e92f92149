#include "viz/deflate.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

namespace ricsa::viz {

std::uint32_t adler32(const std::uint8_t* data, std::size_t n) {
  // Process in runs short enough that the sums cannot overflow 32 bits
  // before the modulo (5552 is the standard zlib bound).
  std::uint32_t a = 1, b = 0;
  std::size_t i = 0;
  while (i < n) {
    const std::size_t run = std::min<std::size_t>(n - i, 5552);
    for (std::size_t k = 0; k < run; ++k) {
      a += data[i + k];
      b += a;
    }
    a %= 65521;
    b %= 65521;
    i += run;
  }
  return (b << 16) | a;
}

namespace {

// ------------------------------------------------------------ bit I/O ----

/// LSB-first bit accumulator (DEFLATE packs data elements starting at the
/// least significant bit of each byte). Huffman codes go through put_huff,
/// which reverses them: the spec transmits them most-significant-bit first.
class BitWriter {
 public:
  explicit BitWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void put(std::uint32_t bits, int n) {
    acc_ |= bits << nbits_;
    nbits_ += n;
    while (nbits_ >= 8) {
      out_.push_back(static_cast<std::uint8_t>(acc_ & 0xFF));
      acc_ >>= 8;
      nbits_ -= 8;
    }
  }

  void put_huff(std::uint32_t code, int n) {
    std::uint32_t rev = 0;
    for (int i = 0; i < n; ++i) rev = (rev << 1) | ((code >> i) & 1);
    put(rev, n);
  }

  /// Pad to the next byte boundary with zero bits (stored-block prefix).
  void align() {
    if (nbits_ > 0) {
      out_.push_back(static_cast<std::uint8_t>(acc_ & 0xFF));
    }
    acc_ = 0;
    nbits_ = 0;
  }

  /// Bits in the accumulator not yet flushed to a whole byte.
  int pending_bits() const { return nbits_; }

 private:
  std::vector<std::uint8_t>& out_;
  std::uint32_t acc_ = 0;
  int nbits_ = 0;
};

class BitReader {
 public:
  BitReader(const std::uint8_t* data, std::size_t n) : data_(data), n_(n) {}

  std::uint32_t get(int n) {
    while (nbits_ < n) {
      if (pos_ >= n_) throw std::runtime_error("inflate: truncated stream");
      acc_ |= static_cast<std::uint64_t>(data_[pos_++]) << nbits_;
      nbits_ += 8;
    }
    const std::uint32_t out = static_cast<std::uint32_t>(acc_) &
                              ((1u << n) - 1u);
    acc_ >>= n;
    nbits_ -= n;
    return out;
  }

  int get1() { return static_cast<int>(get(1)); }

  /// Drop accumulator bits down to the byte boundary (stored blocks).
  void align() {
    acc_ >>= nbits_ % 8;
    nbits_ -= nbits_ % 8;
  }

  /// Read `count` whole bytes (must be byte-aligned modulo buffered bytes).
  void read_bytes(std::uint8_t* dst, std::size_t count) {
    while (count > 0 && nbits_ > 0) {
      *dst++ = static_cast<std::uint8_t>(acc_ & 0xFF);
      acc_ >>= 8;
      nbits_ -= 8;
      --count;
    }
    if (pos_ + count > n_) throw std::runtime_error("inflate: truncated block");
    // An empty stored block hands in an empty output's null data():
    // memcpy with a null pointer is undefined even for zero bytes.
    if (count == 0) return;
    std::memcpy(dst, data_ + pos_, count);
    pos_ += count;
  }

  /// Input bytes consumed so far, counting buffered-but-unread bits' bytes
  /// as not consumed.
  std::size_t consumed() const { return pos_ - static_cast<std::size_t>(nbits_ / 8); }

 private:
  const std::uint8_t* data_;
  std::size_t n_;
  std::size_t pos_ = 0;
  std::uint64_t acc_ = 0;
  int nbits_ = 0;
};

// -------------------------------------------------- RFC 1951 constants ----

constexpr int kMinMatch = 3;
constexpr int kMaxMatch = 258;
constexpr int kWindowSize = 32768;

/// Length codes 257..285: base length and extra bits.
constexpr std::uint16_t kLengthBase[29] = {
    3,  4,  5,  6,  7,  8,  9,  10, 11,  13,  15,  17,  19,  23, 27,
    31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr std::uint8_t kLengthExtra[29] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1,
                                           1, 1, 2, 2, 2, 2, 3, 3, 3, 3,
                                           4, 4, 4, 4, 5, 5, 5, 5, 0};

/// Distance codes 0..29: base distance and extra bits.
constexpr std::uint16_t kDistBase[30] = {
    1,    2,    3,    4,    5,    7,     9,     13,    17,   25,
    33,   49,   65,   97,   129,  193,   257,   385,   513,  769,
    1025, 1537, 2049, 3073, 4097, 6145,  8193,  12289, 16385, 24577};
constexpr std::uint8_t kDistExtra[30] = {0, 0, 0,  0,  1,  1,  2,  2,  3,  3,
                                         4, 4, 5,  5,  6,  6,  7,  7,  8,  8,
                                         9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

/// Code-length alphabet transmission order (dynamic blocks).
constexpr std::uint8_t kClOrder[19] = {16, 17, 18, 0, 8,  7, 9,  6, 10, 5,
                                       11, 4,  12, 3, 13, 2, 14, 1, 15};

int length_code(int len) {
  // len in [3, 258]; linear scan is fine (29 entries, called per match).
  int code = 28;
  while (code > 0 && kLengthBase[code] > len) --code;
  return code;
}

int dist_code(int dist) {
  int code = 29;
  while (code > 0 && kDistBase[code] > dist) --code;
  return code;
}

/// Fixed-Huffman literal/length code for symbol `sym` (0..287): returns
/// {code, bits} per RFC 1951 section 3.2.6.
struct HuffCode {
  std::uint16_t code;
  std::uint8_t bits;
};

HuffCode fixed_litlen_code(int sym) {
  if (sym < 144) return {static_cast<std::uint16_t>(0x30 + sym), 8};
  if (sym < 256) return {static_cast<std::uint16_t>(0x190 + (sym - 144)), 9};
  if (sym < 280) return {static_cast<std::uint16_t>(sym - 256), 7};
  return {static_cast<std::uint16_t>(0xC0 + (sym - 280)), 8};
}

// ------------------------------------------------------------ deflate ----

/// One LZ77 token: dist == 0 means a literal byte, otherwise a
/// (length, distance) back-reference.
struct Token {
  std::uint16_t dist = 0;
  std::uint16_t len = 0;
  std::uint8_t lit = 0;
};

/// Cost in bits of a token under the fixed-Huffman alphabet.
int fixed_token_bits(const Token& t) {
  if (t.dist == 0) return fixed_litlen_code(t.lit).bits;
  const int lc = length_code(t.len);
  const int dc = dist_code(t.dist);
  return fixed_litlen_code(257 + lc).bits + kLengthExtra[lc] + 5 +
         kDistExtra[dc];
}

void emit_fixed_block(BitWriter& bw, const Token* tokens, std::size_t count,
                      bool final) {
  bw.put(final ? 1 : 0, 1);
  bw.put(1, 2);  // BTYPE=01: fixed Huffman
  for (std::size_t i = 0; i < count; ++i) {
    const Token& t = tokens[i];
    if (t.dist == 0) {
      const HuffCode c = fixed_litlen_code(t.lit);
      bw.put_huff(c.code, c.bits);
    } else {
      const int lc = length_code(t.len);
      const HuffCode c = fixed_litlen_code(257 + lc);
      bw.put_huff(c.code, c.bits);
      bw.put(static_cast<std::uint32_t>(t.len - kLengthBase[lc]),
             kLengthExtra[lc]);
      const int dc = dist_code(t.dist);
      bw.put_huff(static_cast<std::uint32_t>(dc), 5);
      bw.put(static_cast<std::uint32_t>(t.dist - kDistBase[dc]),
             kDistExtra[dc]);
    }
  }
  const HuffCode eob = fixed_litlen_code(256);
  bw.put_huff(eob.code, eob.bits);
}

/// Stored LEN/NLEN is 16 bits, so spans beyond 65535 bytes (a match may
/// carry a block past the boundary) are split into multiple stored blocks,
/// with only the last one carrying the caller's BFINAL flag.
void emit_stored_block(BitWriter& bw, const std::uint8_t* data,
                       std::size_t len, bool final) {
  constexpr std::size_t kMaxStored = 65535;
  do {
    const std::size_t chunk = std::min(len, kMaxStored);
    bw.put((final && chunk == len) ? 1 : 0, 1);
    bw.put(0, 2);  // BTYPE=00: stored
    bw.align();
    const std::vector<std::uint8_t> header = {
        static_cast<std::uint8_t>(chunk & 0xFF),
        static_cast<std::uint8_t>(chunk >> 8),
        static_cast<std::uint8_t>(~chunk & 0xFF),
        static_cast<std::uint8_t>((~chunk >> 8) & 0xFF)};
    for (const std::uint8_t b : header) bw.put(b, 8);
    for (std::size_t i = 0; i < chunk; ++i) bw.put(data[i], 8);
    data += chunk;
    len -= chunk;
  } while (len > 0);
}

/// Hash-chain match finder over a 32 KiB sliding window.
class MatchFinder {
 public:
  static constexpr int kHashBits = 15;
  static constexpr std::size_t kHashSize = 1u << kHashBits;
  /// Chain-walk budget per position: deep enough to find the long runs PNG
  /// scanline filters produce, bounded so worst-case input stays linear-ish.
  static constexpr int kMaxChain = 128;

  MatchFinder(const std::uint8_t* data, std::size_t n)
      : data_(data), n_(n), head_(kHashSize, -1), prev_(kWindowSize, -1) {}

  struct Match {
    int len = 0;
    int dist = 0;
  };

  /// Longest match for `pos` among previously inserted positions.
  Match find(std::size_t pos) const {
    Match best;
    if (pos + kMinMatch > n_) return best;
    const int limit = static_cast<int>(
        pos > kWindowSize ? pos - kWindowSize : 0);
    const int max_len =
        static_cast<int>(std::min<std::size_t>(kMaxMatch, n_ - pos));
    const std::uint8_t* cur = data_ + pos;
    int chain = kMaxChain;
    for (std::int64_t cand = head_[hash(pos)];
         cand >= limit && chain-- > 0;
         cand = prev_[static_cast<std::size_t>(cand) % kWindowSize]) {
      const std::uint8_t* ref = data_ + cand;
      // Quick reject: a longer match must extend past the current best.
      if (best.len > 0 && ref[best.len] != cur[best.len]) continue;
      int len = 0;
      while (len < max_len && ref[len] == cur[len]) ++len;
      if (len > best.len) {
        best.len = len;
        best.dist = static_cast<int>(pos - static_cast<std::size_t>(cand));
        if (len >= max_len) break;  // cannot improve
      }
    }
    if (best.len < kMinMatch) return {};
    return best;
  }

  void insert(std::size_t pos) {
    if (pos + kMinMatch > n_) return;
    const std::size_t h = hash(pos);
    prev_[pos % kWindowSize] = head_[h];
    head_[h] = static_cast<std::int64_t>(pos);
  }

 private:
  std::size_t hash(std::size_t pos) const {
    const std::uint32_t v = static_cast<std::uint32_t>(data_[pos]) |
                            (static_cast<std::uint32_t>(data_[pos + 1]) << 8) |
                            (static_cast<std::uint32_t>(data_[pos + 2]) << 16);
    return (v * 0x9E3779B1u) >> (32 - kHashBits);
  }

  const std::uint8_t* data_;
  std::size_t n_;
  std::vector<std::int64_t> head_;
  std::vector<std::int64_t> prev_;
};

// ------------------------------------------------------------ inflate ----

/// Canonical Huffman decoder built from code lengths (RFC 1951 3.2.2).
class HuffmanTable {
 public:
  void build(const std::uint8_t* lengths, std::size_t n) {
    counts_.fill(0);
    symbols_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (lengths[i] > 15) throw std::runtime_error("inflate: bad code length");
      counts_[lengths[i]]++;
    }
    // All-zero lengths are legal for the distance alphabet of a
    // literal-only dynamic block (HDIST=1 with a single zero length):
    // build an empty table and only fail if a code is actually decoded.
    empty_ = counts_[0] == static_cast<int>(n);
    counts_[0] = 0;
    if (empty_) return;
    // Over-subscribed sets of lengths cannot form a prefix code.
    int left = 1;
    for (int len = 1; len <= 15; ++len) {
      left = (left << 1) - counts_[len];
      if (left < 0) throw std::runtime_error("inflate: over-subscribed code");
    }
    std::array<int, 16> offsets{};
    for (int len = 1; len < 15; ++len) {
      offsets[len + 1] = offsets[len] + counts_[len];
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (lengths[i] != 0) {
        symbols_[static_cast<std::size_t>(offsets[lengths[i]]++)] =
            static_cast<std::uint16_t>(i);
      }
    }
  }

  int decode(BitReader& br) const {
    if (empty_) {
      throw std::runtime_error("inflate: symbol from empty Huffman table");
    }
    int code = 0, first = 0, index = 0;
    for (int len = 1; len <= 15; ++len) {
      code |= br.get1();
      const int count = counts_[len];
      if (code - first < count) return symbols_[static_cast<std::size_t>(
          index + (code - first))];
      index += count;
      first = (first + count) << 1;
      code <<= 1;
    }
    throw std::runtime_error("inflate: invalid Huffman code");
  }

 private:
  std::array<int, 16> counts_{};
  std::vector<std::uint16_t> symbols_;
  bool empty_ = false;
};

const HuffmanTable& fixed_litlen_table() {
  static const HuffmanTable table = [] {
    std::array<std::uint8_t, 288> lengths{};
    for (int i = 0; i < 144; ++i) lengths[static_cast<std::size_t>(i)] = 8;
    for (int i = 144; i < 256; ++i) lengths[static_cast<std::size_t>(i)] = 9;
    for (int i = 256; i < 280; ++i) lengths[static_cast<std::size_t>(i)] = 7;
    for (int i = 280; i < 288; ++i) lengths[static_cast<std::size_t>(i)] = 8;
    HuffmanTable t;
    t.build(lengths.data(), lengths.size());
    return t;
  }();
  return table;
}

const HuffmanTable& fixed_dist_table() {
  static const HuffmanTable table = [] {
    std::array<std::uint8_t, 30> lengths{};
    lengths.fill(5);
    HuffmanTable t;
    t.build(lengths.data(), lengths.size());
    return t;
  }();
  return table;
}

void inflate_block(BitReader& br, const HuffmanTable& litlen,
                   const HuffmanTable& dist, std::vector<std::uint8_t>& out,
                   std::size_t max_output) {
  for (;;) {
    const int sym = litlen.decode(br);
    if (sym < 256) {
      if (max_output != 0 && out.size() >= max_output) {
        throw std::runtime_error("inflate: output limit exceeded");
      }
      out.push_back(static_cast<std::uint8_t>(sym));
      continue;
    }
    if (sym == 256) return;  // end of block
    if (sym > 285) throw std::runtime_error("inflate: bad length symbol");
    const int lc = sym - 257;
    const std::size_t len = kLengthBase[lc] + br.get(kLengthExtra[lc]);
    const int dc = dist.decode(br);
    if (dc > 29) throw std::runtime_error("inflate: bad distance symbol");
    const std::size_t distance = kDistBase[dc] + br.get(kDistExtra[dc]);
    if (distance > out.size()) {
      throw std::runtime_error("inflate: distance past output start");
    }
    if (max_output != 0 && out.size() + len > max_output) {
      throw std::runtime_error("inflate: output limit exceeded");
    }
    // Byte-by-byte: overlapping copies (dist < len) replicate runs.
    std::size_t from = out.size() - distance;
    for (std::size_t i = 0; i < len; ++i) out.push_back(out[from + i]);
  }
}

void inflate_dynamic_block(BitReader& br, std::vector<std::uint8_t>& out,
                           std::size_t max_output) {
  const std::size_t hlit = br.get(5) + 257;
  const std::size_t hdist = br.get(5) + 1;
  const std::size_t hclen = br.get(4) + 4;
  if (hlit > 286 || hdist > 30) {
    throw std::runtime_error("inflate: bad dynamic header");
  }
  std::array<std::uint8_t, 19> cl_lengths{};
  for (std::size_t i = 0; i < hclen; ++i) {
    cl_lengths[kClOrder[i]] = static_cast<std::uint8_t>(br.get(3));
  }
  HuffmanTable cl;
  cl.build(cl_lengths.data(), cl_lengths.size());

  std::vector<std::uint8_t> lengths;
  lengths.reserve(hlit + hdist);
  while (lengths.size() < hlit + hdist) {
    const int sym = cl.decode(br);
    if (sym < 16) {
      lengths.push_back(static_cast<std::uint8_t>(sym));
    } else if (sym == 16) {
      if (lengths.empty()) {
        throw std::runtime_error("inflate: repeat with no previous length");
      }
      const std::uint8_t prev = lengths.back();
      const std::size_t count = 3 + br.get(2);
      lengths.insert(lengths.end(), count, prev);
    } else if (sym == 17) {
      lengths.insert(lengths.end(), 3 + br.get(3), 0);
    } else {
      lengths.insert(lengths.end(), 11 + br.get(7), 0);
    }
  }
  if (lengths.size() != hlit + hdist) {
    throw std::runtime_error("inflate: code length overrun");
  }
  if (lengths[256] == 0) {
    throw std::runtime_error("inflate: no end-of-block code");
  }
  HuffmanTable litlen, dist;
  litlen.build(lengths.data(), hlit);
  dist.build(lengths.data() + hlit, hdist);
  inflate_block(br, litlen, dist, out, max_output);
}

}  // namespace

std::vector<std::uint8_t> deflate(const std::uint8_t* data, std::size_t n) {
  std::vector<std::uint8_t> out;
  out.reserve(n / 2 + 64);
  BitWriter bw(out);
  if (n == 0) {
    // A single empty stored block is the smallest valid empty stream.
    emit_stored_block(bw, data, 0, true);
    bw.align();
    return out;
  }

  MatchFinder finder(data, n);
  std::vector<Token> tokens;
  // Block boundary at the stored-block size limit, so the stored fallback
  // is always available for exactly the block's input span.
  constexpr std::size_t kBlockInput = 65535;
  std::size_t block_start = 0;
  std::size_t pos = 0;

  const auto flush_block = [&](std::size_t block_end, bool final) {
    const std::size_t span = block_end - block_start;
    long long fixed_bits = 3 + 7;  // header + end-of-block
    for (const Token& t : tokens) fixed_bits += fixed_token_bits(t);
    // Stored: header + alignment padding + LEN/NLEN + the bytes. A span
    // past 65535 splits into extra chunks of 40 overhead bits each
    // (3-bit header, 5 padding bits from the aligned position, LEN/NLEN).
    const long long extra_chunks =
        span > 65535 ? static_cast<long long>((span - 1) / 65535) : 0;
    const long long stored_bits =
        3 + ((8 - ((bw.pending_bits() + 3) % 8)) % 8) + 32 +
        extra_chunks * 40 + 8 * static_cast<long long>(span);
    if (fixed_bits < stored_bits) {
      emit_fixed_block(bw, tokens.data(), tokens.size(), final);
    } else {
      emit_stored_block(bw, data + block_start, span, final);
    }
    tokens.clear();
    block_start = block_end;
  };

  while (pos < n) {
    MatchFinder::Match m = finder.find(pos);
    if (m.len >= kMinMatch) {
      // One-step lazy evaluation: when the next position holds a strictly
      // longer match, emit this byte as a literal and let the longer match
      // win — the classic fix for greedy parsing clipping a long run.
      finder.insert(pos);
      if (pos + 1 < n && m.len < kMaxMatch) {
        const MatchFinder::Match next = finder.find(pos + 1);
        if (next.len > m.len) {
          tokens.push_back({0, 0, data[pos]});
          ++pos;
          if (pos - block_start >= kBlockInput) flush_block(pos, false);
          continue;
        }
      }
      tokens.push_back({static_cast<std::uint16_t>(m.dist),
                        static_cast<std::uint16_t>(m.len), 0});
      for (std::size_t k = pos + 1; k < pos + static_cast<std::size_t>(m.len);
           ++k) {
        finder.insert(k);
      }
      pos += static_cast<std::size_t>(m.len);
    } else {
      finder.insert(pos);
      tokens.push_back({0, 0, data[pos]});
      ++pos;
    }
    // A match may overshoot the boundary by up to kMaxMatch bytes; the
    // stored fallback splits any oversized span, but keeping spans near
    // the limit keeps the fallback a single block in the common case.
    if (pos - block_start >= kBlockInput) flush_block(pos, false);
  }
  flush_block(n, true);
  bw.align();
  return out;
}

std::vector<std::uint8_t> inflate(const std::uint8_t* data, std::size_t n,
                                  std::size_t* consumed,
                                  std::size_t max_output) {
  BitReader br(data, n);
  std::vector<std::uint8_t> out;
  for (;;) {
    const int final = br.get1();
    const std::uint32_t type = br.get(2);
    if (type == 0) {
      br.align();
      std::uint8_t header[4];
      br.read_bytes(header, 4);
      const std::size_t len = static_cast<std::size_t>(header[0]) |
                              (static_cast<std::size_t>(header[1]) << 8);
      const std::size_t nlen = static_cast<std::size_t>(header[2]) |
                               (static_cast<std::size_t>(header[3]) << 8);
      if ((len ^ nlen) != 0xFFFF) {
        throw std::runtime_error("inflate: stored block length mismatch");
      }
      if (max_output != 0 && out.size() + len > max_output) {
        throw std::runtime_error("inflate: output limit exceeded");
      }
      const std::size_t at = out.size();
      out.resize(at + len);
      br.read_bytes(out.data() + at, len);
    } else if (type == 1) {
      inflate_block(br, fixed_litlen_table(), fixed_dist_table(), out,
                    max_output);
    } else if (type == 2) {
      inflate_dynamic_block(br, out, max_output);
    } else {
      throw std::runtime_error("inflate: reserved block type");
    }
    if (final) break;
  }
  if (consumed != nullptr) {
    *consumed = br.consumed();
  } else if (br.consumed() < n) {
    throw std::runtime_error("inflate: trailing garbage");
  }
  return out;
}

std::vector<std::uint8_t> zlib_compress(const std::uint8_t* data,
                                        std::size_t n) {
  // CMF/FLG 0x78 0x9C: deflate, 32 KiB window, default compression level;
  // (0x78 * 256 + 0x9C) % 31 == 0 as the header checksum requires.
  std::vector<std::uint8_t> out = {0x78, 0x9C};
  std::vector<std::uint8_t> body = deflate(data, n);
  out.insert(out.end(), body.begin(), body.end());
  const std::uint32_t checksum = adler32(data, n);
  out.push_back(static_cast<std::uint8_t>(checksum >> 24));
  out.push_back(static_cast<std::uint8_t>(checksum >> 16));
  out.push_back(static_cast<std::uint8_t>(checksum >> 8));
  out.push_back(static_cast<std::uint8_t>(checksum));
  return out;
}

std::vector<std::uint8_t> zlib_decompress(const std::uint8_t* data,
                                          std::size_t n,
                                          std::size_t max_output) {
  if (n < 6) throw std::runtime_error("zlib: stream too short");
  if ((data[0] & 0x0F) != 8) throw std::runtime_error("zlib: not deflate");
  if ((data[1] & 0x20) != 0) {
    throw std::runtime_error("zlib: preset dictionary unsupported");
  }
  if ((static_cast<unsigned>(data[0]) * 256 + data[1]) % 31 != 0) {
    throw std::runtime_error("zlib: bad header checksum");
  }
  std::size_t consumed = 0;
  std::vector<std::uint8_t> out =
      inflate(data + 2, n - 2, &consumed, max_output);
  if (2 + consumed + 4 > n) throw std::runtime_error("zlib: missing adler32");
  const std::uint8_t* t = data + 2 + consumed;
  const std::uint32_t expect = (static_cast<std::uint32_t>(t[0]) << 24) |
                               (static_cast<std::uint32_t>(t[1]) << 16) |
                               (static_cast<std::uint32_t>(t[2]) << 8) |
                               static_cast<std::uint32_t>(t[3]);
  if (adler32(out.data(), out.size()) != expect) {
    throw std::runtime_error("zlib: adler32 mismatch");
  }
  return out;
}

}  // namespace ricsa::viz
