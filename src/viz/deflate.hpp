// Self-contained DEFLATE (RFC 1951) codec and zlib (RFC 1950) wrappers.
//
// The paper's whole premise is minimizing bytes-per-frame to the browser;
// PNG tiles are the dominant payload, so their IDAT stream deserves real
// compression instead of stored blocks. The compressor runs LZ77 over a
// 32 KiB window (hash-chain match search, greedy with one-step lazy
// evaluation) in independent strips of kDeflateStrip bytes, each primed
// with the window before it and with no match past its end, so a lent
// thread pool can parse them at once; the output does not depend on the
// pool. Each 65535-byte block, made of whole strips, is emitted in
// whichever coding takes the fewest bits: stored, fixed Huffman, or
// dynamic Huffman with the block's own length-limited codes — so the
// output is never materially larger than the input. The decompressor is
// a full inflater (stored + fixed + dynamic Huffman) as strict as zlib's,
// which browsers use: it rejects incomplete dynamic codes. Round-trip verification in tests, tile reassembly checks
// in the bench, and relay-side assertions all decode through it; a test
// checks every encoder output against reference zlib too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ricsa::util {
class ThreadPool;
}

namespace ricsa::viz {

/// Bytes per LZ77 parse strip: a fifth of the 65535-byte block. Inputs of
/// one strip or less are parsed as one piece on the caller.
inline constexpr std::size_t kDeflateStrip = 13107;

/// Adler-32 checksum (RFC 1950) — the zlib trailer; exposed for tests.
std::uint32_t adler32(const std::uint8_t* data, std::size_t n);

/// Compress `n` bytes into a raw DEFLATE stream: LZ77 with hash-chain
/// match search and one-step lazy evaluation, parsed in strips of
/// kDeflateStrip bytes (each primed with the 32 KiB before it, its matches
/// clipped at its end), then per block of 65535 input bytes (the last may
/// be shorter) the cheapest of stored, fixed- and dynamic-Huffman coding by
/// exact bit count. The strips of an input longer than one strip are
/// parsed on `pool` when some strip is more than byte runs (null, or only
/// flat strips: one after another on the caller); the bytes are the same
/// for any pool or none.
std::vector<std::uint8_t> deflate(const std::uint8_t* data, std::size_t n,
                                  util::ThreadPool* pool = nullptr);
inline std::vector<std::uint8_t> deflate(const std::vector<std::uint8_t>& in,
                                         util::ThreadPool* pool = nullptr) {
  return deflate(in.data(), in.size(), pool);
}

/// Decompress a raw DEFLATE stream (stored, fixed- and dynamic-Huffman
/// blocks). Throws std::runtime_error on malformed input (incomplete
/// dynamic codes included, as zlib rejects them), on more than
/// `max_output` decoded bytes (0 = unlimited), or on trailing garbage
/// unless `consumed` is non-null (then it receives the number of input
/// bytes the stream actually used, trailing data left to the caller).
std::vector<std::uint8_t> inflate(const std::uint8_t* data, std::size_t n,
                                  std::size_t* consumed = nullptr,
                                  std::size_t max_output = 0);
inline std::vector<std::uint8_t> inflate(const std::vector<std::uint8_t>& in) {
  return inflate(in.data(), in.size());
}

/// DEFLATE wrapped in a zlib stream: 2-byte header, compressed data,
/// big-endian adler32 of the plaintext — what a PNG IDAT chunk carries.
/// `pool` as for deflate; each strip's Adler-32 is taken with its parse.
std::vector<std::uint8_t> zlib_compress(const std::uint8_t* data,
                                        std::size_t n,
                                        util::ThreadPool* pool = nullptr);
/// Inverse of zlib_compress; verifies the header and the adler32 trailer.
/// Accepts any conforming zlib stream (all three block types). Throws
/// std::runtime_error on malformed input or a checksum mismatch.
std::vector<std::uint8_t> zlib_decompress(const std::uint8_t* data,
                                          std::size_t n,
                                          std::size_t max_output = 0);

}  // namespace ricsa::viz
