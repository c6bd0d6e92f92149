#include "viz/deflate.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "util/thread_pool.hpp"

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

/// Every byte with its bits in reverse order.
constexpr std::array<std::uint8_t, 256> kReversedByte = [] {
  std::array<std::uint8_t, 256> reversed{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    for (std::uint32_t i = 0; i < 8; ++i) {
      reversed[b] |= static_cast<std::uint8_t>(((b >> i) & 1) << (7 - i));
    }
  }
  return reversed;
}();

/// A Huffman code of `count` (1..16) bits, reversed: the spec transmits
/// Huffman codes most-significant bit first.
constexpr BitCode huffman_code(int code, std::uint32_t count) {
  const auto c = static_cast<std::uint32_t>(code);
  const std::uint32_t reversed16 =
      static_cast<std::uint32_t>(kReversedByte[c & 0xFF]) << 8 |
      kReversedByte[(c >> 8) & 0xFF];
  return {reversed16 >> (16 - count), count};
}

constexpr int kNumLitLen = 286;    // literal/length symbols a stream may use
constexpr int kNumDist = 30;       // distance symbols a stream may use
constexpr int kNumCodeLen = 19;    // code-length symbols
constexpr int kMaxCodeBits = 15;   // literal/length and distance codes
constexpr int kMaxCodeLenBits = 7; // the code-length code

/// Code lengths of the fixed-Huffman alphabets, RFC 1951 section 3.2.6.
constexpr std::array<std::uint8_t, 288> kFixedLitLenLengths = [] {
  std::array<std::uint8_t, 288> lengths{};
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    lengths[i] = i < 144 ? 8 : i < 256 ? 9 : i < 280 ? 7 : 8;
  }
  return lengths;
}();
constexpr std::array<std::uint8_t, kNumDist> kFixedDistLengths = [] {
  std::array<std::uint8_t, kNumDist> lengths{};
  lengths.fill(5);
  return lengths;
}();

/// The canonical code of every symbol with a non-zero length in
/// `lengths[0..n)` (RFC 1951 section 3.2.2), reversed for transmission.
constexpr void canonical_codes(const std::uint8_t* lengths, int n,
                               BitCode* codes) {
  std::array<int, kMaxCodeBits + 1> count{};
  for (int i = 0; i < n; ++i) ++count[lengths[i]];
  count[0] = 0;
  std::array<int, kMaxCodeBits + 1> next{};
  for (int bits = 1, code = 0; bits <= kMaxCodeBits; ++bits) {
    code = (code + count[bits - 1]) << 1;
    next[bits] = code;
  }
  for (int i = 0; i < n; ++i) {
    if (lengths[i] != 0) {
      codes[i] = huffman_code(next[lengths[i]]++, lengths[i]);
    }
  }
}

/// Length symbol (0..28, i.e. 257..285) of every match length 3..258.
constexpr std::array<std::uint8_t, kMaxMatch + 1> kLengthSymbol = [] {
  std::array<std::uint8_t, kMaxMatch + 1> symbol{};
  for (int len = kMinMatch; len <= kMaxMatch; ++len) {
    symbol[static_cast<std::size_t>(len)] =
        static_cast<std::uint8_t>(length_code(len));
  }
  return symbol;
}();

/// Distance symbol by distance: [d - 1] for d <= 256, then
/// [256 + ((d - 1) >> 7)] (every symbol above 15 spans whole multiples of
/// 128 distances).
constexpr std::array<std::uint8_t, 512> kDistSymbol = [] {
  std::array<std::uint8_t, 512> symbol{};
  for (int i = 0; i < 256; ++i) {
    symbol[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(dist_code_scan(i + 1));
    symbol[static_cast<std::size_t>(256 + i)] =
        static_cast<std::uint8_t>(dist_code_scan((i << 7) + 1));
  }
  return symbol;
}();

/// Distance symbol of a distance in 1..32768.
constexpr int dist_code(int dist) {
  return dist <= 256
             ? kDistSymbol[static_cast<std::size_t>(dist - 1)]
             : kDistSymbol[static_cast<std::size_t>(256 + ((dist - 1) >> 7))];
}

/// Every distance in the window maps to the symbol the linear scan picks.
constexpr bool dist_table_matches_scan() {
  for (int d = 1; d <= kWindowSize; ++d) {
    if (dist_code(d) != dist_code_scan(d)) return false;
  }
  return true;
}
static_assert(dist_table_matches_scan());

/// One block's Huffman alphabets as lookup tables, so emitting a token
/// neither scans nor reverses anything.
struct BlockCodes {
  std::array<BitCode, 256> literal{};
  /// By match length 3..258: length symbol and its extra bits.
  std::array<BitCode, kMaxMatch + 1> length{};
  BitCode end_of_block{};
  /// By distance symbol: its reversed code, counting its extra bits.
  std::array<BitCode, kNumDist> dist_symbol{};
};

/// The lookup tables of the codes with lengths `litlen[0..n_litlen)` and
/// `dist[0..kNumDist)`.
constexpr void build_block_codes(const std::uint8_t* litlen, int n_litlen,
                                 const std::uint8_t* dist, BlockCodes& out) {
  std::array<BitCode, 288> symbol{};
  canonical_codes(litlen, n_litlen, symbol.data());
  for (std::size_t b = 0; b < 256; ++b) out.literal[b] = symbol[b];
  for (int len = kMinMatch; len <= kMaxMatch; ++len) {
    const int lc = kLengthSymbol[static_cast<std::size_t>(len)];
    const BitCode c = symbol[static_cast<std::size_t>(257 + lc)];
    out.length[static_cast<std::size_t>(len)] = {
        c.bits | static_cast<std::uint32_t>(len - kLengthBase[lc]) << c.count,
        c.count + kLengthExtra[lc]};
  }
  out.end_of_block = symbol[256];
  std::array<BitCode, kNumDist> dist_codes{};
  canonical_codes(dist, kNumDist, dist_codes.data());
  for (std::size_t dc = 0; dc < kNumDist; ++dc) {
    out.dist_symbol[dc] = {dist_codes[dc].bits,
                           dist_codes[dc].count + kDistExtra[dc]};
  }
}

constexpr BlockCodes kFixedCodes = [] {
  BlockCodes codes;
  build_block_codes(kFixedLitLenLengths.data(), 288, kFixedDistLengths.data(),
                    codes);
  return codes;
}();

// ------------------------------------------------------------ deflate ----

/// One LZ77 token: dist == 0 means a literal byte in `value`, otherwise a
/// back-reference of length `value`.
struct Token {
  std::uint16_t dist = 0;
  std::uint16_t value = 0;
};

/// One strip's parse: its tokens and their symbol counts, and the Adler-32
/// of its bytes when the caller wants one.
struct StripTokens {
  std::vector<Token> tokens;
  std::array<std::uint32_t, kNumLitLen> litlen_freq{};
  std::array<std::uint32_t, kNumDist> dist_freq{};
  std::uint32_t adler = 1;
};

/// The tokens of strips [first, last) and the end-of-block code: the body
/// of a fixed or dynamic block, after its header.
void emit_tokens(BitWriter& bw, const StripTokens* first,
                 const StripTokens* last, const BlockCodes& codes) {
  for (const StripTokens* strip = first; strip != last; ++strip) {
    for (const Token& t : strip->tokens) {
      if (t.dist == 0) {
        const BitCode& c = codes.literal[t.value];
        bw.put(c.bits, static_cast<int>(c.count));
        continue;
      }
      const BitCode& len = codes.length[t.value];
      const int dc = dist_code(t.dist);
      const BitCode& symbol = codes.dist_symbol[static_cast<std::size_t>(dc)];
      const std::uint32_t dist =
          symbol.bits | static_cast<std::uint32_t>(t.dist - kDistBase[dc])
                            << (symbol.count - kDistExtra[dc]);
      // Length and distance go out as one put when they fit in 32 bits, as
      // fixed codes always do (at most 8 + 5 + 5 + 13 bits).
      if (len.count + symbol.count <= 32) {
        bw.put(len.bits | static_cast<std::uint64_t>(dist) << len.count,
               static_cast<int>(len.count + symbol.count));
      } else {
        bw.put(len.bits, static_cast<int>(len.count));
        bw.put(dist, static_cast<int>(symbol.count));
      }
    }
  }
  bw.put(codes.end_of_block.bits, static_cast<int>(codes.end_of_block.count));
}

/// A stored block of `len` <= 65535 bytes: no token crosses a strip, and
/// strips divide the block size, so no block spans more.
void emit_stored_block(BitWriter& bw, const std::uint8_t* data,
                       std::size_t len, bool final) {
  bw.put(final ? 1 : 0, 3);  // BFINAL, then BTYPE=00: stored
  bw.align();
  const std::uint8_t header[4] = {
      static_cast<std::uint8_t>(len & 0xFF),
      static_cast<std::uint8_t>(len >> 8),
      static_cast<std::uint8_t>(~len & 0xFF),
      static_cast<std::uint8_t>((~len >> 8) & 0xFF)};
  bw.put_bytes(header, 4);
  bw.put_bytes(data, len);
}

/// Work space of limited_code_lengths, kept in the per-thread scratch so
/// building a code neither allocates nor clears anything: every element
/// is written before it is read.
struct CodeScratch {
  struct Leaf {
    std::uint32_t weight = 0;
    std::uint16_t symbol = 0;
  };
  /// A tree, or a package-merge list, has fewer than twice as many nodes
  /// as there are leaves.
  static constexpr std::size_t kMaxNodes = 2 * kNumLitLen;
  std::array<Leaf, kNumLitLen> leaf{};
  std::array<std::uint32_t, kMaxNodes> weight{};
  /// Huffman: each node's parent and depth.
  std::array<std::uint16_t, kMaxNodes> parent{};
  std::array<std::uint16_t, kMaxNodes> depth{};
  /// Package-merge: the list being merged.
  std::array<std::uint32_t, kMaxNodes> merged{};
  /// Package-merge: whether item k of list j is a leaf, at
  /// [j * kMaxNodes + k].
  std::array<bool, kMaxCodeBits * kMaxNodes> is_leaf{};
};

/// Huffman code lengths of the `count` (>= 2) leaves of `cs`, sorted by
/// weight, into cs.depth[0..count), by the two-queue method: merged
/// nodes come out in order of weight, so each step joins the two lightest
/// of the unjoined leaves and merged nodes (a leaf first on equal
/// weights). Returns the longest length.
int huffman_lengths(CodeScratch& cs, int count) {
  std::uint32_t* weight = cs.weight.data();
  std::uint16_t* parent = cs.parent.data();
  for (int k = 0; k < count; ++k) {
    weight[k] = cs.leaf[static_cast<std::size_t>(k)].weight;
  }
  const int root = 2 * count - 2;
  int next_leaf = 0, next_node = count;
  for (int node = count; node <= root; ++node) {
    int pair[2];
    for (int& pick : pair) {
      const bool leaf =
          next_leaf < count &&
          (next_node == node || weight[next_leaf] <= weight[next_node]);
      pick = leaf ? next_leaf++ : next_node++;
    }
    weight[node] = weight[pair[0]] + weight[pair[1]];
    parent[pair[0]] = parent[pair[1]] = static_cast<std::uint16_t>(node);
  }
  // A node's parent has a higher index: depths from the root down.
  std::uint16_t* depth = cs.depth.data();
  depth[root] = 0;
  for (int node = root - 1; node >= 0; --node) {
    depth[node] = static_cast<std::uint16_t>(depth[parent[node]] + 1);
  }
  return static_cast<int>(*std::max_element(depth, depth + count));
}

/// Optimal code lengths of at most `max_bits` bits for the symbol counts
/// `freq[0..n)` (n <= kNumLitLen), into `lengths`: the Huffman lengths, or
/// by package-merge when one of them is longer. Uncounted symbols get no
/// code, except that a code always has at least two: while fewer are
/// counted, the lowest uncounted symbols join with a count of zero. An
/// optimal code of two or more symbols is complete, as a strict inflater
/// requires.
void limited_code_lengths(CodeScratch& cs, const std::uint32_t* freq, int n,
                          int max_bits, std::uint8_t* lengths) {
  CodeScratch::Leaf* leaf = cs.leaf.data();
  int count = 0;
  for (int s = 0; s < n; ++s) {
    lengths[s] = 0;
    if (freq[s] != 0) leaf[count++] = {freq[s], static_cast<std::uint16_t>(s)};
  }
  for (int s = 0; count < 2; ++s) {
    if (freq[s] == 0) leaf[count++] = {0, static_cast<std::uint16_t>(s)};
  }
  std::sort(leaf, leaf + count,
            [](const CodeScratch::Leaf& a, const CodeScratch::Leaf& b) {
              return a.weight != b.weight ? a.weight < b.weight
                                          : a.symbol < b.symbol;
            });
  if (huffman_lengths(cs, count) <= max_bits) {
    for (int i = 0; i < count; ++i) {
      lengths[leaf[i].symbol] =
          static_cast<std::uint8_t>(cs.depth[static_cast<std::size_t>(i)]);
    }
    return;
  }
  // Package-merge. List j holds the leaves merged with the pairs
  // ("packages") of list j - 1, by weight, a leaf first on equal weights.
  // Only each item's weight and whether it is a leaf are kept.
  std::uint32_t* weight = cs.weight.data();
  std::uint32_t* merged = cs.merged.data();
  int size = count;
  for (int k = 0; k < count; ++k) {
    weight[k] = leaf[k].weight;
    cs.is_leaf[static_cast<std::size_t>(k)] = true;
  }
  for (int j = 1; j < max_bits; ++j) {
    bool* is_leaf = cs.is_leaf.data() + j * CodeScratch::kMaxNodes;
    const int packages = size / 2;
    int a = 0, b = 0, k = 0;
    for (; a < count || b < packages; ++k) {
      const std::uint32_t package =
          b < packages ? weight[2 * b] + weight[2 * b + 1] : 0;
      is_leaf[k] = b == packages || (a < count && leaf[a].weight <= package);
      if (is_leaf[k]) {
        merged[k] = leaf[a++].weight;
      } else {
        merged[k] = package;
        ++b;
      }
    }
    size = k;
    std::swap(weight, merged);
  }
  // Select the first 2 * count - 2 items of the last list. A selected
  // package selects the two items of the list below it was made of, so
  // the selected packages of list j are the first ones, made of the
  // first 2 * packages items of list j - 1. Each list where the i-th
  // lightest leaf is selected adds one bit to its code.
  for (int j = max_bits - 1, selected = 2 * count - 2; j >= 0; --j) {
    const bool* is_leaf = cs.is_leaf.data() + j * CodeScratch::kMaxNodes;
    const int leaves =
        static_cast<int>(std::count(is_leaf, is_leaf + selected, true));
    for (int i = 0; i < leaves; ++i) ++lengths[leaf[i].symbol];
    selected = 2 * (selected - leaves);
  }
}

/// A dynamic-Huffman block's codes and header (RFC 1951 section 3.2.7).
struct DynamicHeader {
  std::array<std::uint8_t, kNumLitLen> litlen{};
  std::array<std::uint8_t, kNumDist> dist{};
  int hlit = 0, hdist = 0, hclen = 0;
  /// Code-length code lengths, by code-length symbol.
  std::array<std::uint8_t, kNumCodeLen> code_length{};
  /// The literal/length then distance code lengths, run-length coded:
  /// code-length symbols, and the value of each one's extra bits.
  std::array<std::uint8_t, kNumLitLen + kNumDist> rle_symbol{};
  std::array<std::uint8_t, kNumLitLen + kNumDist> rle_extra{};
  int rle_count = 0;
  /// Bits after the 3-bit block header up to the first token.
  long long bits = 0;
};

/// Extra bits of code-length symbols 16, 17 and 18.
constexpr int code_length_extra(int symbol) {
  return symbol == 16 ? 2 : symbol == 17 ? 3 : symbol == 18 ? 7 : 0;
}

constexpr int kHashBits = 15;
constexpr std::size_t kHashSize = std::size_t{1} << kHashBits;
constexpr std::size_t kWindowMask = kWindowSize - 1;

/// Per-thread encoder scratch, reused by every call on the thread, so an
/// encode allocates no tables and clears none. Two users share it:
///  - the parse of strips, on whichever thread runs them: the match
///    finder's hash heads, chain links and stretch starts, the offsets
///    positions map to, and which strip of which call the tables end at.
///    Offsets keep growing from strip to strip, so a head entry below
///    `floor` was written before the tables were last primed and reads as
///    empty; every chain link and start a walk reads was written since.
///  - the thread that calls deflate: the strips' tokens and counts, and
///    the current block's summed counts, code-building work space and
///    dynamic codes.
/// A thread parses at most one strip at a time, and a deflate waits for
/// its strips without taking up other work, so neither user's fields are
/// ever in use twice on one thread.
struct EncoderScratch {
  std::vector<std::int32_t> head = std::vector<std::int32_t>(kHashSize, -1);
  std::vector<std::int32_t> prev = std::vector<std::int32_t>(kWindowSize);
  std::vector<std::int32_t> start = std::vector<std::int32_t>(kWindowSize);
  /// The position whose offset is 0, and the offset of the first position
  /// inserted since the tables were last primed.
  std::int64_t origin = 0;
  std::int32_t floor = 0;
  /// Offset of the position after the last one parsed.
  std::int32_t next_offset = 0;
  /// The deflate call (0: none) and strip the tables continue into.
  std::uint64_t call = 0;
  std::size_t next_strip = 0;
  std::vector<StripTokens> strips;
  std::array<std::uint32_t, kNumLitLen> litlen_freq{};
  std::array<std::uint32_t, kNumDist> dist_freq{};
  CodeScratch code_scratch;
  DynamicHeader header;
  BlockCodes dynamic;
};

/// Bits that code the counted symbols, end-of-block included, under the
/// code lengths `litlen` and `dist`, with their extra bits.
long long symbol_bits(const EncoderScratch& s, const std::uint8_t* litlen,
                      const std::uint8_t* dist) {
  long long bits = 0;
  for (int sym = 0; sym < kNumLitLen; ++sym) {
    const auto i = static_cast<std::size_t>(sym);
    bits += static_cast<long long>(s.litlen_freq[i]) *
            (litlen[i] + (sym > 256 ? kLengthExtra[sym - 257] : 0));
  }
  for (std::size_t dc = 0; dc < kNumDist; ++dc) {
    bits += static_cast<long long>(s.dist_freq[dc]) *
            (dist[dc] + kDistExtra[dc]);
  }
  return bits;
}

/// Builds the block's dynamic header from the counts in `s` into
/// `s.header`: length-limited codes, HLIT and HDIST trimmed of trailing
/// zero lengths, the lengths run-length coded with symbols 16/17/18, the
/// code-length code, and HCLEN trimmed likewise.
void build_dynamic_header(EncoderScratch& s) {
  DynamicHeader& h = s.header;
  limited_code_lengths(s.code_scratch, s.litlen_freq.data(), kNumLitLen,
                       kMaxCodeBits, h.litlen.data());
  limited_code_lengths(s.code_scratch, s.dist_freq.data(), kNumDist,
                       kMaxCodeBits, h.dist.data());
  h.hlit = kNumLitLen;
  while (h.hlit > 257 && h.litlen[static_cast<std::size_t>(h.hlit - 1)] == 0) {
    --h.hlit;
  }
  h.hdist = kNumDist;
  while (h.hdist > 1 && h.dist[static_cast<std::size_t>(h.hdist - 1)] == 0) {
    --h.hdist;
  }
  // The two length sequences form one run-length-coded sequence: runs may
  // cross from the literal/length lengths into the distance lengths.
  std::array<std::uint8_t, kNumLitLen + kNumDist> seq{};
  std::copy_n(h.litlen.begin(), h.hlit, seq.begin());
  std::copy_n(h.dist.begin(), h.hdist, seq.begin() + h.hlit);
  const int n = h.hlit + h.hdist;
  std::array<std::uint32_t, kNumCodeLen> freq{};
  h.rle_count = 0;
  const auto emit = [&h, &freq](int symbol, int extra) {
    h.rle_symbol[static_cast<std::size_t>(h.rle_count)] =
        static_cast<std::uint8_t>(symbol);
    h.rle_extra[static_cast<std::size_t>(h.rle_count)] =
        static_cast<std::uint8_t>(extra);
    ++h.rle_count;
    ++freq[static_cast<std::size_t>(symbol)];
  };
  for (int i = 0; i < n;) {
    const int len = seq[static_cast<std::size_t>(i)];
    int run = 1;
    while (i + run < n && seq[static_cast<std::size_t>(i + run)] == len) ++run;
    i += run;
    if (len == 0) {
      for (; run >= 11; run -= std::min(run, 138)) {
        emit(18, std::min(run, 138) - 11);  // 11..138 zeros
      }
      if (run >= 3) {
        emit(17, run - 3);  // 3..10 zeros
        run = 0;
      }
    } else {
      emit(len, 0);
      for (--run; run >= 3; run -= std::min(run, 6)) {
        emit(16, std::min(run, 6) - 3);  // the previous length 3..6 times
      }
    }
    for (; run > 0; --run) emit(len, 0);
  }
  limited_code_lengths(s.code_scratch, freq.data(), kNumCodeLen,
                       kMaxCodeLenBits, h.code_length.data());
  h.hclen = kNumCodeLen;
  while (h.hclen > 4 &&
         h.code_length[kClOrder[static_cast<std::size_t>(h.hclen - 1)]] == 0) {
    --h.hclen;
  }
  h.bits = 5 + 5 + 4 + 3LL * h.hclen;
  for (int k = 0; k < h.rle_count; ++k) {
    const int symbol = h.rle_symbol[static_cast<std::size_t>(k)];
    h.bits += h.code_length[static_cast<std::size_t>(symbol)] +
              code_length_extra(symbol);
  }
}

void emit_dynamic_block(BitWriter& bw, EncoderScratch& s,
                        const StripTokens* first, const StripTokens* last,
                        bool final) {
  const DynamicHeader& h = s.header;
  bw.put(final ? 0b101 : 0b100, 3);  // BFINAL, then BTYPE=10: dynamic
  bw.put(static_cast<std::uint64_t>(h.hlit - 257), 5);
  bw.put(static_cast<std::uint64_t>(h.hdist - 1), 5);
  bw.put(static_cast<std::uint64_t>(h.hclen - 4), 4);
  for (int i = 0; i < h.hclen; ++i) {
    bw.put(h.code_length[kClOrder[static_cast<std::size_t>(i)]], 3);
  }
  std::array<BitCode, kNumCodeLen> cl{};
  canonical_codes(h.code_length.data(), kNumCodeLen, cl.data());
  for (int k = 0; k < h.rle_count; ++k) {
    const std::size_t symbol = h.rle_symbol[static_cast<std::size_t>(k)];
    const BitCode& c = cl[symbol];
    bw.put(c.bits | static_cast<std::uint64_t>(
                        h.rle_extra[static_cast<std::size_t>(k)])
                        << c.count,
           static_cast<int>(c.count) +
               code_length_extra(static_cast<int>(symbol)));
  }
  build_block_codes(h.litlen.data(), kNumLitLen, h.dist.data(), s.dynamic);
  emit_tokens(bw, first, last, s.dynamic);
}

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

/// Hash-chain match finder over a 32 KiB sliding window, on the tables of
/// a scratch and the offsets it maps positions to; a position's chain link
/// and stretch start live in slot (offset modulo the window size).
///
/// Inside a run of one byte every position hashes as the one before it,
/// so a chain walks a run's interior one position after another. A slot's
/// `start` is the first offset of the stretch of consecutive same-hash
/// positions its position belongs to, which lets a find step over such a
/// stretch as one candidate.
class MatchFinder {
 public:
  /// Chain-walk budgets per position, in candidates: deep enough to find
  /// the long matches PNG scanline filters produce, bounded so worst-case
  /// input stays linear-ish. A find that opens a byte run counts each
  /// earlier run as one candidate, and takes the smaller budget.
  static constexpr int kMaxChain = 128;
  static constexpr int kMaxRunChain = 32;

  MatchFinder(const std::uint8_t* data, std::size_t n, EncoderScratch& scratch)
      : data_(data), n_(n), head_(scratch.head.data()),
        prev_(scratch.prev.data()), start_(scratch.start.data()),
        origin_(scratch.origin), floor_(scratch.floor) {}

  struct Match {
    int len = 0;
    int dist = 0;
  };

  /// Longest match for `pos` among previously inserted positions, ending
  /// at or before `end` and longer than `shorter` (none if no candidate
  /// beats it); the first candidate of the greatest length wins.
  ///
  /// When the bytes at `pos` open a run of `run` copies of a byte b, a
  /// candidate that starts with three b tops a stretch of an earlier run's
  /// positions. A position of the stretch with r bytes b left matches
  /// min(r, run) bytes, but the one with exactly `run` left may match
  /// further: the stretch is measured there, or at its position nearest to
  /// there, which is the one a walk through the whole stretch would pick.
  /// The walk then goes on below the stretch.
  Match find(std::size_t pos, std::size_t end, int shorter = 0) const {
    if (pos + kMinMatch > end) return {};
    const int max_len =
        static_cast<int>(std::min<std::size_t>(kMaxMatch, end - pos));
    if (shorter >= max_len) return {};
    const std::int32_t p = offset(pos);
    // Older candidates are outside the window or from before the tables
    // were primed.
    const std::int32_t limit = std::max(p - kWindowSize, floor_);
    const std::uint8_t* cur = data_ + pos;
    const std::uint8_t b = cur[0];
    const int run = cur[1] == b && cur[2] == b
                        ? 1 + match_length(cur + 1, cur, max_len - 1)
                        : 0;
    Match best{shorter, 0};
    int chain = run != 0 ? kMaxRunChain : kMaxChain;
    std::int32_t next = 0;
    for (std::int32_t cand = head_[hash(cur)]; cand >= limit && chain-- > 0;
         cand = next) {
      const std::uint8_t* ref = cur - (p - cand);
      next = prev_[slot(cand)];
      if (run != 0 && ref[0] == b && ref[1] == b && ref[2] == b) {
        const std::int32_t first = start_[slot(cand)];
        const int left = match_length(ref, cur, run);  // at most `run`
        const std::int32_t at =
            std::max(cand - (run - left), std::max(first, limit));
        next = first >= limit ? prev_[slot(first)] : -1;
        ref -= cand - at;
        cand = at;
      }
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
    if (best.dist == 0 || best.len < kMinMatch) return {};
    return best;
  }

  void insert(std::size_t pos) {
    if (pos + kMinMatch > n_) return;
    std::int32_t& head = head_[hash(data_ + pos)];
    const std::int32_t off = offset(pos);
    link(head, off);
    head = off;
  }

  /// Inserts positions [from, to) in order: a match's tail, or the window
  /// before a strip. Each position inside a byte run hashes as the one
  /// before it, so its chain link is that position and its stretch that
  /// position's: a run's links and starts are written straight in and its
  /// head once, instead of as one dependent read-modify-write of the same
  /// head per byte — the flat background of a rendered frame's scanlines
  /// is mostly such runs. The tables come out as from one insert per
  /// position.
  void insert(std::size_t from, std::size_t to) {
    to = std::min(to, n_ - std::min<std::size_t>(n_, kMinMatch - 1));
    while (from < to) {
      const std::uint8_t* p = data_ + from;
      const std::int32_t off = offset(from);
      std::int32_t& head = head_[hash(p)];
      const std::int32_t first = link(head, off);
      // Positions whose three bytes equal p's: while the run of p[0]
      // continues (a self-match at distance 1, read no further than the
      // last byte of position to - 1).
      const std::int32_t run =
          p[0] == p[1] && p[1] == p[2]
              ? 1 + match_length(p + 3, p + 2,
                                 static_cast<int>(to - from - 1))
              : 1;
      for (std::int32_t o = off + 1; o < off + run;) {
        const std::size_t at = slot(o);
        const std::int32_t count = std::min<std::int32_t>(
            off + run - o, kWindowSize - static_cast<std::int32_t>(at));
        std::iota(prev_ + at, prev_ + at + count, o - 1);
        std::fill_n(start_ + at, count, first);
        o += count;
      }
      head = off + run - 1;
      from += static_cast<std::size_t>(run);
    }
  }

  std::int32_t offset(std::size_t pos) const {
    return static_cast<std::int32_t>(static_cast<std::int64_t>(pos) - origin_);
  }

 private:
  static std::size_t slot(std::int32_t off) {
    return static_cast<std::size_t>(off) & kWindowMask;
  }

  /// Links `off` to `head`, the last position inserted with its hash, and
  /// returns the start of its stretch, which it continues when `head` is
  /// the position before it and was inserted since the tables were primed.
  std::int32_t link(std::int32_t head, std::int32_t off) {
    prev_[slot(off)] = head;
    return start_[slot(off)] =
               head == off - 1 && head >= floor_ ? start_[slot(head)] : off;
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
  std::int32_t* start_;
  std::int64_t origin_;  // the position whose offset is 0
  std::int32_t floor_;   // the offset of the first position since priming
};

/// Block boundary at the stored-block size limit, so the stored fallback
/// always covers exactly one block's bytes; a block is whole strips.
constexpr std::size_t kBlockInput = 65535;
static_assert(kBlockInput % kDeflateStrip == 0,
              "a block is made of whole strips");
constexpr std::size_t kStripsPerBlock = kBlockInput / kDeflateStrip;

/// Offsets restart from zero, with the head table cleared and the strip
/// primed, at the first strip that would start past this one; a primed
/// strip spans fewer than 2^16 offsets, so they stay far inside 32 bits.
/// Low enough that a test reaches it.
constexpr std::int32_t kOffsetReset = std::int32_t{1} << 20;

/// LZ77 parse of bytes [lo, hi) of the `n` at `data` into `out`, on the
/// tables of `scratch`, no match past `hi`. One-step lazy evaluation: when
/// the next position holds a strictly longer match, this byte goes out as
/// a literal and the longer match wins — the classic fix for greedy
/// parsing clipping a long run.
void parse_strip(const std::uint8_t* data, std::size_t n,
                 EncoderScratch& scratch, std::size_t lo, std::size_t hi,
                 StripTokens& out) {
  MatchFinder finder(data, n, scratch);
  std::vector<Token>& tokens = out.tokens;
  tokens.clear();
  out.litlen_freq.fill(0);
  out.dist_freq.fill(0);
  const auto push_literal = [&](std::uint8_t byte) {
    tokens.push_back({0, byte});
    ++out.litlen_freq[byte];
  };
  const auto push_match = [&](const MatchFinder::Match& m) {
    tokens.push_back({static_cast<std::uint16_t>(m.dist),
                      static_cast<std::uint16_t>(m.len)});
    ++out.litlen_freq[257u + kLengthSymbol[static_cast<std::size_t>(m.len)]];
    ++out.dist_freq[static_cast<std::size_t>(dist_code(m.dist))];
  };
  std::size_t pos = lo;
  MatchFinder::Match m = finder.find(pos, hi);
  while (pos < hi) {
    if (m.len >= kMinMatch) {
      finder.insert(pos);
      if (pos + 1 < hi && m.len < kMaxMatch) {
        const MatchFinder::Match next = finder.find(pos + 1, hi, m.len);
        if (next.len > m.len) {
          push_literal(data[pos]);
          ++pos;
          // Nothing was inserted since: `next` is find(pos).
          m = next;
          continue;
        }
      }
      push_match(m);
      finder.insert(pos + 1, pos + static_cast<std::size_t>(m.len));
      pos += static_cast<std::size_t>(m.len);
    } else {
      finder.insert(pos);
      push_literal(data[pos]);
      ++pos;
    }
    m = finder.find(pos, hi);
  }
  scratch.next_offset = finder.offset(hi);
}

/// Parses strips [first, last) of deflate call `call` over the `n` bytes
/// at `data` into `out`, one after another on the calling thread's tables.
/// A strip is primed with the 32 KiB before it unless the tables already
/// end where it starts, from this call's previous strip on this thread:
/// they then hold every position priming would insert, and older ones no
/// walk reaches, since a walk stops at its first candidate outside the
/// window. Either way the strip parses to the same tokens.
void parse_strips(const std::uint8_t* data, std::size_t n, std::uint64_t call,
                  std::size_t first, std::size_t last, StripTokens* out) {
  EncoderScratch& scratch = encoder_scratch();
  for (std::size_t k = first; k < last; ++k) {
    const std::size_t lo = k * kDeflateStrip;
    const std::size_t hi = std::min(n, lo + kDeflateStrip);
    if (scratch.call != call || scratch.next_strip != k ||
        scratch.next_offset > kOffsetReset) {
      if (scratch.next_offset > kOffsetReset) {
        std::fill(scratch.head.begin(), scratch.head.end(), -1);
        scratch.next_offset = 0;
      }
      constexpr std::size_t kWindow = kWindowSize;
      const std::size_t from = lo > kWindow ? lo - kWindow : 0;
      scratch.origin = static_cast<std::int64_t>(from) - scratch.next_offset;
      scratch.floor = scratch.next_offset;
      MatchFinder(data, n, scratch).insert(from, lo);
    }
    parse_strip(data, n, scratch, lo, hi, out[k]);
    scratch.call = call;
    scratch.next_strip = k + 1;
  }
}

/// Codes strips [first, last) of `s.strips` as one block over the input
/// bytes [begin, begin + span), in whichever of its three codings takes the
/// fewest bits; on a tie stored beats fixed and fixed beats dynamic.
void code_block(BitWriter& bw, EncoderScratch& s, std::size_t first,
                std::size_t last, const std::uint8_t* begin, std::size_t span,
                bool final) {
  s.litlen_freq.fill(0);
  s.dist_freq.fill(0);
  const StripTokens* strips = s.strips.data();
  for (std::size_t k = first; k < last; ++k) {
    for (std::size_t sym = 0; sym < kNumLitLen; ++sym) {
      s.litlen_freq[sym] += strips[k].litlen_freq[sym];
    }
    for (std::size_t dc = 0; dc < kNumDist; ++dc) {
      s.dist_freq[dc] += strips[k].dist_freq[dc];
    }
  }
  s.litlen_freq[256] = 1;  // end-of-block
  const long long fixed_bits =
      3 + symbol_bits(s, kFixedLitLenLengths.data(), kFixedDistLengths.data());
  build_dynamic_header(s);
  const long long dynamic_bits =
      3 + s.header.bits +
      symbol_bits(s, s.header.litlen.data(), s.header.dist.data());
  // Stored: header + alignment padding + LEN/NLEN + the bytes.
  const long long stored_bits = 3 +
                                ((8 - ((bw.pending_bits() + 3) % 8)) % 8) +
                                32 + 8 * static_cast<long long>(span);
  if (dynamic_bits < fixed_bits && dynamic_bits < stored_bits) {
    emit_dynamic_block(bw, s, strips + first, strips + last, final);
  } else if (fixed_bits < stored_bits) {
    bw.put(final ? 0b011 : 0b010, 3);  // BFINAL, then BTYPE=01: fixed
    emit_tokens(bw, strips + first, strips + last, kFixedCodes);
  } else {
    emit_stored_block(bw, begin, span, final);
  }
}

/// The Adler-32 of A followed by B, from adler32(A), adler32(B) and the
/// length of B: a = a_A + a_B - 1 and b = b_A + b_B + |B| (a_A - 1),
/// modulo 65521.
std::uint32_t adler32_combine(std::uint32_t first, std::uint32_t second,
                              std::size_t second_len) {
  constexpr std::uint64_t kMod = 65521;
  const std::uint64_t a1 = first & 0xFFFF, b1 = first >> 16;
  const std::uint64_t a2 = second & 0xFFFF, b2 = second >> 16;
  const std::uint64_t a = (a1 + a2 + kMod - 1) % kMod;
  const std::uint64_t b =
      (b1 + b2 + (second_len % kMod) * (a1 + kMod - 1)) % kMod;
  return static_cast<std::uint32_t>(b << 16 | a);
}

/// Whether some whole strip of the `n` bytes at `data` has at least 1/64
/// of its bytes starting a new byte run. A strip with fewer is flat — the
/// background of a rendered frame's scanlines, where only the filter-type
/// byte of each row breaks the runs (0.4% of a flat 160 px frame's bytes
/// start a run; each of the origin's main-view frames has a strip with 9%
/// or more) — and parses in about the time that priming a thread with the
/// window before it takes, so handing such strips to other threads would
/// roughly double their cost for no gain in wall time: with the run-aware
/// search, a flat 160 px frame encoded in 158-180 us of CPU on the caller
/// against 350-403 us (218-249 us of wall time) with its strips on a pool
/// of 4.
bool has_costly_strip(const std::uint8_t* data, std::size_t n) {
  constexpr std::size_t kCostlyRunStarts = kDeflateStrip / 64;
  for (std::size_t lo = 0; lo + kDeflateStrip <= n; lo += kDeflateStrip) {
    std::size_t starts = 0;
    for (std::size_t i = lo + 1; i < lo + kDeflateStrip; ++i) {
      starts += data[i] != data[i - 1] ? 1 : 0;
    }
    if (starts >= kCostlyRunStarts) return true;
  }
  return false;
}

/// Append the raw DEFLATE stream of `data` to `out`, and store the
/// Adler-32 of `data` in `*adler` when it is non-null. The strips are
/// parsed on `pool` when there is more than one and some strip is costly,
/// then coded on the caller, block by block.
void deflate_into(std::vector<std::uint8_t>& out, const std::uint8_t* data,
                  std::size_t n, util::ThreadPool* pool,
                  std::uint32_t* adler) {
  // Every block is emitted at most as large as its stored form: 3 header
  // bits, up to 7 padding bits, LEN/NLEN and the bytes, i.e. at most 6
  // bytes over its input.
  const std::size_t at = out.size();
  out.resize(at + n + 6 * (n / kBlockInput + 1) + 1);
  BitWriter bw(out.data() + at);
  if (n == 0) {
    // A single empty stored block is the smallest valid empty stream.
    emit_stored_block(bw, data, 0, true);
    bw.align();
    out.resize(static_cast<std::size_t>(bw.end() - out.data()));
    if (adler != nullptr) *adler = 1;
    return;
  }

  static std::atomic<std::uint64_t> calls{0};
  const std::uint64_t call = ++calls;
  EncoderScratch& scratch = encoder_scratch();
  const std::size_t strips = (n + kDeflateStrip - 1) / kDeflateStrip;
  if (scratch.strips.size() < strips) scratch.strips.resize(strips);
  StripTokens* const parsed = scratch.strips.data();
  const auto end_of = [n](std::size_t strip) {  // one past its last byte
    return std::min(n, (strip + 1) * kDeflateStrip);
  };
  util::parallel_for(
      strips > 1 && pool != nullptr && has_costly_strip(data, n) ? pool
                                                                 : nullptr,
      0, strips,
      [&](std::size_t first, std::size_t last) {
        parse_strips(data, n, call, first, last, parsed);
        if (adler == nullptr) return;
        for (std::size_t k = first; k < last; ++k) {
          const std::size_t begin = k * kDeflateStrip;
          parsed[k].adler = adler32(data + begin, end_of(k) - begin);
        }
      });
  for (std::size_t first = 0; first < strips; first += kStripsPerBlock) {
    const std::size_t last = std::min(strips, first + kStripsPerBlock);
    const std::size_t begin = first * kDeflateStrip;
    code_block(bw, scratch, first, last, data + begin,
               end_of(last - 1) - begin, last == strips);
  }
  if (adler != nullptr) {
    *adler = parsed[0].adler;
    for (std::size_t k = 1; k < strips; ++k) {
      *adler = adler32_combine(*adler, parsed[k].adler,
                               end_of(k) - k * kDeflateStrip);
    }
  }
  bw.align();
  out.resize(static_cast<std::size_t>(bw.end() - out.data()));
}

// ------------------------------------------------------------ inflate ----

/// Which incomplete codes a table accepts, by zlib's inflate_table rule: a
/// dynamic block's code-length code must be complete, and so must its
/// literal/length and distance codes unless they hold a single 1-bit code.
/// The fixed codes are exempt: the fixed distance code uses 30 of its 32
/// five-bit codes.
enum class Completeness { kExempt, kComplete, kCompleteOrSingle };

/// Canonical Huffman decoder built from code lengths (RFC 1951 3.2.2).
class HuffmanTable {
 public:
  void build(const std::uint8_t* lengths, std::size_t n,
             Completeness rule) {
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
    // Over-subscribed sets of lengths cannot form a prefix code; an
    // incomplete set leaves codes that decode to nothing.
    int left = 1;
    int max_len = 0;
    for (int len = 1; len <= 15; ++len) {
      left = (left << 1) - counts_[len];
      if (left < 0) throw std::runtime_error("inflate: over-subscribed code");
      if (counts_[len] != 0) max_len = len;
    }
    if (left > 0 &&
        (rule == Completeness::kComplete ||
         (rule == Completeness::kCompleteOrSingle && max_len != 1))) {
      throw std::runtime_error("inflate: incomplete code");
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
    HuffmanTable t;
    t.build(kFixedLitLenLengths.data(), kFixedLitLenLengths.size(),
            Completeness::kExempt);
    return t;
  }();
  return table;
}

const HuffmanTable& fixed_dist_table() {
  static const HuffmanTable table = [] {
    HuffmanTable t;
    t.build(kFixedDistLengths.data(), kFixedDistLengths.size(),
            Completeness::kExempt);
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
  cl.build(cl_lengths.data(), cl_lengths.size(), Completeness::kComplete);

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
  litlen.build(lengths.data(), hlit, Completeness::kCompleteOrSingle);
  dist.build(lengths.data() + hlit, hdist, Completeness::kCompleteOrSingle);
  inflate_block(br, litlen, dist, out, max_output);
}

}  // namespace

std::vector<std::uint8_t> deflate(const std::uint8_t* data, std::size_t n,
                                  util::ThreadPool* pool) {
  std::vector<std::uint8_t> out;
  deflate_into(out, data, n, pool, nullptr);
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
                                        std::size_t n,
                                        util::ThreadPool* pool) {
  // CMF/FLG 0x78 0x9C: deflate, 32 KiB window, default compression level;
  // (0x78 * 256 + 0x9C) % 31 == 0 as the header checksum requires.
  std::vector<std::uint8_t> out = {0x78, 0x9C};
  std::uint32_t checksum = 1;
  deflate_into(out, data, n, pool, &checksum);
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
