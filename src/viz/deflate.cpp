#include "viz/deflate.hpp"

#include <algorithm>
#include <array>
#include <bit>
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
/// least significant bit of each byte) over a buffer the caller sized for
/// the whole stream. Huffman codes arrive pre-reversed from the fixed-code
/// tables: the spec transmits them most-significant-bit first.
class BitWriter {
 public:
  explicit BitWriter(std::uint8_t* out) : out_(out) {}

  /// Append the low `n` (<= 32) bits of `bits`.
  void put(std::uint64_t bits, int n) {
    acc_ |= bits << nbits_;
    nbits_ += n;
    if (nbits_ >= 32) {
      for (int i = 0; i < 4; ++i) {
        *out_++ = static_cast<std::uint8_t>(acc_ >> (8 * i));
      }
      acc_ >>= 32;
      nbits_ -= 32;
    }
  }

  /// Pad to the next byte boundary with zero bits and flush the
  /// accumulator (stored-block prefix, end of stream).
  void align() {
    for (; nbits_ > 0; nbits_ -= 8) {
      *out_++ = static_cast<std::uint8_t>(acc_);
      acc_ >>= 8;
    }
    acc_ = 0;
    nbits_ = 0;
  }

  /// Copy whole bytes; only valid right after align().
  void put_bytes(const std::uint8_t* data, std::size_t n) {
    // An empty stored block may carry an empty input's null pointer:
    // memcpy with a null pointer is undefined even for zero bytes.
    if (n == 0) return;
    std::memcpy(out_, data, n);
    out_ += n;
  }

  /// Bits past the last byte boundary.
  int pending_bits() const { return nbits_ % 8; }

  std::uint8_t* end() const { return out_; }

 private:
  std::uint8_t* out_;
  std::uint64_t acc_ = 0;
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

/// Linear-scan symbol lookups, used only to build the tables below.
constexpr int length_code(int len) {
  int code = 28;
  while (code > 0 && kLengthBase[code] > len) --code;
  return code;
}

constexpr int dist_code_scan(int dist) {
  int code = 29;
  while (code > 0 && kDistBase[code] > dist) --code;
  return code;
}

/// Bits ready for BitWriter::put, in transmission order: a reversed
/// Huffman code with its extra bits above it, and the total count.
struct BitCode {
  std::uint32_t bits = 0;
  std::uint32_t count = 0;
};

/// A Huffman code of `count` bits, reversed: the spec transmits Huffman
/// codes most-significant bit first.
constexpr BitCode huffman_code(int code, std::uint32_t count) {
  std::uint32_t rev = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    rev = (rev << 1) | ((static_cast<std::uint32_t>(code) >> i) & 1);
  }
  return {rev, count};
}

/// Fixed-Huffman literal/length code for symbol `sym` (0..287), RFC 1951
/// section 3.2.6.
constexpr BitCode fixed_litlen_code(int sym) {
  if (sym < 144) return huffman_code(0x30 + sym, 8);
  if (sym < 256) return huffman_code(0x190 + (sym - 144), 9);
  if (sym < 280) return huffman_code(sym - 256, 7);
  return huffman_code(0xC0 + (sym - 280), 8);
}

/// The fixed-Huffman alphabet as lookup tables, so neither costing nor
/// emitting a token scans or reverses anything.
struct FixedTables {
  std::array<BitCode, 256> literal{};
  /// By match length 3..258: length symbol and its extra bits.
  std::array<BitCode, kMaxMatch + 1> length{};
  BitCode end_of_block{};
  /// Distance symbol by distance: [d - 1] for d <= 256, then
  /// [256 + ((d - 1) >> 7)] (every symbol above 15 spans whole multiples
  /// of 128 distances).
  std::array<std::uint8_t, 512> dist_code{};
  /// By distance symbol: its reversed 5-bit code, counting its extra bits.
  std::array<BitCode, 30> dist_symbol{};
};

constexpr FixedTables make_fixed_tables() {
  FixedTables t;
  for (int b = 0; b < 256; ++b) {
    t.literal[static_cast<std::size_t>(b)] = fixed_litlen_code(b);
  }
  for (int len = kMinMatch; len <= kMaxMatch; ++len) {
    const int lc = length_code(len);
    const BitCode c = fixed_litlen_code(257 + lc);
    t.length[static_cast<std::size_t>(len)] = {
        c.bits | static_cast<std::uint32_t>(len - kLengthBase[lc]) << c.count,
        c.count + kLengthExtra[lc]};
  }
  t.end_of_block = fixed_litlen_code(256);
  for (int i = 0; i < 256; ++i) {
    t.dist_code[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(dist_code_scan(i + 1));
    t.dist_code[static_cast<std::size_t>(256 + i)] =
        static_cast<std::uint8_t>(dist_code_scan((i << 7) + 1));
  }
  for (int dc = 0; dc < 30; ++dc) {
    const BitCode c = huffman_code(dc, 5);
    t.dist_symbol[static_cast<std::size_t>(dc)] = {c.bits,
                                                   c.count + kDistExtra[dc]};
  }
  return t;
}

constexpr FixedTables kFixed = make_fixed_tables();

/// Distance symbol of a distance in 1..32768.
constexpr int dist_code(int dist) {
  return dist <= 256
             ? kFixed.dist_code[static_cast<std::size_t>(dist - 1)]
             : kFixed.dist_code[static_cast<std::size_t>(256 + ((dist - 1) >> 7))];
}

/// Every distance in the window maps to the symbol the linear scan picks.
constexpr bool dist_table_matches_scan() {
  for (int d = 1; d <= kWindowSize; ++d) {
    if (dist_code(d) != dist_code_scan(d)) return false;
  }
  return true;
}
static_assert(dist_table_matches_scan());

/// Distance symbol and extra bits of a back-reference.
BitCode distance_bits(int dist) {
  const int dc = dist_code(dist);
  const BitCode& symbol = kFixed.dist_symbol[static_cast<std::size_t>(dc)];
  return {symbol.bits | static_cast<std::uint32_t>(dist - kDistBase[dc]) << 5,
          symbol.count};
}

// ------------------------------------------------------------ deflate ----

/// One LZ77 token: dist == 0 means a literal byte in `value`, otherwise a
/// back-reference of length `value`.
struct Token {
  std::uint16_t dist = 0;
  std::uint16_t value = 0;
};

void emit_fixed_block(BitWriter& bw, const std::vector<Token>& tokens,
                      bool final) {
  bw.put(final ? 0b011 : 0b010, 3);  // BFINAL, then BTYPE=01: fixed Huffman
  for (const Token& t : tokens) {
    if (t.dist == 0) {
      const BitCode& c = kFixed.literal[t.value];
      bw.put(c.bits, static_cast<int>(c.count));
    } else {
      // Length and distance go out as one put: at most 8 + 5 + 5 + 13 bits.
      const BitCode& len = kFixed.length[t.value];
      const BitCode dist = distance_bits(t.dist);
      bw.put(len.bits | static_cast<std::uint64_t>(dist.bits) << len.count,
             static_cast<int>(len.count + dist.count));
    }
  }
  bw.put(kFixed.end_of_block.bits,
         static_cast<int>(kFixed.end_of_block.count));
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
    const std::uint8_t header[4] = {
        static_cast<std::uint8_t>(chunk & 0xFF),
        static_cast<std::uint8_t>(chunk >> 8),
        static_cast<std::uint8_t>(~chunk & 0xFF),
        static_cast<std::uint8_t>((~chunk >> 8) & 0xFF)};
    bw.put_bytes(header, 4);
    bw.put_bytes(data, chunk);
    data += chunk;
    len -= chunk;
  } while (len > 0);
}

constexpr int kHashBits = 15;
constexpr std::size_t kHashSize = std::size_t{1} << kHashBits;
constexpr std::size_t kWindowMask = kWindowSize - 1;

/// Per-thread encoder scratch, reused by every call on the thread, so an
/// encode allocates no tables: the match finder's hash heads (reset per
/// call) and chain links (never reset: every link a chain walk reads was
/// written earlier in the same call), and the current block's tokens.
struct EncoderScratch {
  std::vector<std::int32_t> head = std::vector<std::int32_t>(kHashSize);
  std::vector<std::int32_t> prev = std::vector<std::int32_t>(kWindowSize);
  std::vector<Token> tokens;
};

EncoderScratch& encoder_scratch() {
  thread_local EncoderScratch scratch;
  return scratch;
}

std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, 8);
  return v;
}

/// Length of the common prefix of `a` and `b`, at most `max_len`: eight
/// bytes per step (the first differing byte is the lowest set byte of the
/// XOR on a little-endian load), then byte by byte.
int match_length(const std::uint8_t* a, const std::uint8_t* b, int max_len) {
  int len = 0;
  for (; len + 8 <= max_len; len += 8) {
    if (const std::uint64_t diff = load64(a + len) ^ load64(b + len);
        diff != 0) {
      if constexpr (std::endian::native == std::endian::little) {
        return len + std::countr_zero(diff) / 8;
      } else {
        return len + std::countl_zero(diff) / 8;
      }
    }
  }
  while (len < max_len && a[len] == b[len]) ++len;
  return len;
}

/// Hash-chain match finder over a 32 KiB sliding window. Positions are
/// stored as 32-bit offsets from `base_`; a position's chain link lives in
/// slot (position modulo the window size).
class MatchFinder {
 public:
  /// Chain-walk budget per position: deep enough to find the long runs PNG
  /// scanline filters produce, bounded so worst-case input stays linear-ish.
  static constexpr int kMaxChain = 128;

  MatchFinder(const std::uint8_t* data, std::size_t n, EncoderScratch& scratch)
      : data_(data), n_(n), head_(scratch.head.data()),
        prev_(scratch.prev.data()) {
    std::fill(scratch.head.begin(), scratch.head.end(), -1);
  }

  struct Match {
    int len = 0;
    int dist = 0;
  };

  /// Longest match for `pos` among previously inserted positions; the
  /// first candidate of the greatest length wins.
  Match find(std::size_t pos) const {
    if (pos + kMinMatch > n_) return {};
    const std::int32_t p = offset(pos);
    const std::int32_t limit = p > kWindowSize ? p - kWindowSize : 0;
    const int max_len =
        static_cast<int>(std::min<std::size_t>(kMaxMatch, n_ - pos));
    const std::uint8_t* cur = data_ + pos;
    Match best;
    int chain = kMaxChain;
    for (std::int32_t cand = head_[hash(cur)]; cand >= limit && chain-- > 0;
         cand = prev_[static_cast<std::size_t>(cand) & kWindowMask]) {
      const std::uint8_t* ref = cur - (p - cand);
      // Quick reject: a longer match must agree on every byte up to and
      // including index best.len; test the last eight of them (or just the
      // last while best is shorter) before measuring from the start.
      if (best.len >= 7) {
        if (load64(ref + best.len - 7) != load64(cur + best.len - 7)) continue;
      } else if (best.len > 0 && ref[best.len] != cur[best.len]) {
        continue;
      }
      const int len = match_length(ref, cur, max_len);
      if (len > best.len) {
        best = {len, p - cand};
        if (len >= max_len) break;  // cannot improve
      }
    }
    if (best.len < kMinMatch) return {};
    return best;
  }

  void insert(std::size_t pos) {
    if (pos + kMinMatch > n_) return;
    const std::int32_t p = offset(pos);
    std::int32_t& head = head_[hash(data_ + pos)];
    prev_[static_cast<std::size_t>(p) & kWindowMask] = head;
    head = p;
  }

  /// Keep offsets within 32 bits on any input length: once `pos` is
  /// kRebaseAt past the base, move the base up to the window's lower edge,
  /// rounded down to a multiple of the window so every slot stays put.
  /// Links below the new base become empty; they were already outside the
  /// window, so no later walk changes.
  void rebase(std::size_t pos) {
    if (pos - base_ < kRebaseAt) return;
    const auto shift = static_cast<std::int32_t>(
        (pos - base_ - kWindowSize) / kWindowSize * kWindowSize);
    const auto slide = [shift](std::int32_t* table, std::size_t size) {
      for (std::size_t i = 0; i < size; ++i) {
        table[i] = table[i] >= shift ? table[i] - shift : -1;
      }
    };
    slide(head_, kHashSize);
    slide(prev_, kWindowSize);
    base_ += static_cast<std::size_t>(shift);
  }

 private:
  static constexpr std::size_t kRebaseAt = std::size_t{1} << 20;

  std::int32_t offset(std::size_t pos) const {
    return static_cast<std::int32_t>(pos - base_);
  }

  static std::size_t hash(const std::uint8_t* p) {
    const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                            (static_cast<std::uint32_t>(p[1]) << 8) |
                            (static_cast<std::uint32_t>(p[2]) << 16);
    return (v * 0x9E3779B1u) >> (32 - kHashBits);
  }

  const std::uint8_t* data_;
  std::size_t n_;
  std::int32_t* head_;
  std::int32_t* prev_;
  std::size_t base_ = 0;
};

/// Append the raw DEFLATE stream of `data` to `out`.
void deflate_into(std::vector<std::uint8_t>& out, const std::uint8_t* data,
                  std::size_t n) {
  // Block boundary at the stored-block size limit, so the stored fallback
  // is always available for exactly the block's input span.
  constexpr std::size_t kBlockInput = 65535;
  // Every block is emitted at most as large as its stored form: 3 header
  // bits, up to 7 padding bits, LEN/NLEN, and 40 more bits when a match
  // carried the span past 65535, i.e. at most 11 bytes over its input.
  const std::size_t at = out.size();
  out.resize(at + n + 11 * (n / kBlockInput + 1) + 1);
  BitWriter bw(out.data() + at);
  if (n == 0) {
    // A single empty stored block is the smallest valid empty stream.
    emit_stored_block(bw, data, 0, true);
    bw.align();
    out.resize(static_cast<std::size_t>(bw.end() - out.data()));
    return;
  }

  EncoderScratch& scratch = encoder_scratch();
  MatchFinder finder(data, n, scratch);
  std::vector<Token>& tokens = scratch.tokens;
  tokens.clear();
  long long token_bits = 0;  // fixed-Huffman cost of `tokens`
  std::size_t block_start = 0;
  std::size_t pos = 0;

  const auto push_literal = [&](std::uint8_t byte) {
    tokens.push_back({0, byte});
    token_bits += kFixed.literal[byte].count;
  };
  const auto push_match = [&](const MatchFinder::Match& m) {
    tokens.push_back({static_cast<std::uint16_t>(m.dist),
                      static_cast<std::uint16_t>(m.len)});
    token_bits +=
        kFixed.length[static_cast<std::size_t>(m.len)].count +
        kFixed.dist_symbol[static_cast<std::size_t>(dist_code(m.dist))].count;
  };
  const auto flush_block = [&](std::size_t block_end, bool final) {
    const std::size_t span = block_end - block_start;
    const long long fixed_bits = 3 + 7 + token_bits;  // header + end-of-block
    // Stored: header + alignment padding + LEN/NLEN + the bytes. A span
    // past 65535 splits into extra chunks of 40 overhead bits each
    // (3-bit header, 5 padding bits from the aligned position, LEN/NLEN).
    const long long extra_chunks =
        span > 65535 ? static_cast<long long>((span - 1) / 65535) : 0;
    const long long stored_bits =
        3 + ((8 - ((bw.pending_bits() + 3) % 8)) % 8) + 32 +
        extra_chunks * 40 + 8 * static_cast<long long>(span);
    if (fixed_bits < stored_bits) {
      emit_fixed_block(bw, tokens, final);
    } else {
      emit_stored_block(bw, data + block_start, span, final);
    }
    tokens.clear();
    token_bits = 0;
    block_start = block_end;
  };

  MatchFinder::Match m = finder.find(0);
  while (pos < n) {
    if (m.len >= kMinMatch) {
      // One-step lazy evaluation: when the next position holds a strictly
      // longer match, emit this byte as a literal and let the longer match
      // win — the classic fix for greedy parsing clipping a long run.
      finder.insert(pos);
      if (pos + 1 < n && m.len < kMaxMatch) {
        const MatchFinder::Match next = finder.find(pos + 1);
        if (next.len > m.len) {
          push_literal(data[pos]);
          ++pos;
          if (pos - block_start >= kBlockInput) flush_block(pos, false);
          // Nothing was inserted since: `next` is find(pos).
          m = next;
          continue;
        }
      }
      push_match(m);
      for (std::size_t k = pos + 1; k < pos + static_cast<std::size_t>(m.len);
           ++k) {
        finder.insert(k);
      }
      pos += static_cast<std::size_t>(m.len);
    } else {
      finder.insert(pos);
      push_literal(data[pos]);
      ++pos;
    }
    // A match may overshoot the boundary by up to kMaxMatch bytes; the
    // stored fallback splits any oversized span, but keeping spans near
    // the limit keeps the fallback a single block in the common case.
    if (pos - block_start >= kBlockInput) flush_block(pos, false);
    finder.rebase(pos);
    m = finder.find(pos);
  }
  flush_block(n, true);
  bw.align();
  out.resize(static_cast<std::size_t>(bw.end() - out.data()));
}

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
  deflate_into(out, data, n);
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
  deflate_into(out, data, n);
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
