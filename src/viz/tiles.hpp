// Changed-region bounds and a fixed-grid tile decomposition of a
// framebuffer, for image deltas.
//
// The paper's network optimization ships only what the link needs; the
// changed region is the image-side analogue of its partial state updates.
// The web hub ships, per frame and image tier, one rectangle: the bounding
// box of the pixels that differ from the predecessor (changed_bounds), cut
// out with TileGrid::extract and composited by clients as VNC-style
// incremental updates (see web/hub.hpp). The tile grid (fixed-size tiles,
// edge tiles clamped to partial width/height, diffed tile by tile and
// coalesced into rectangles) does not feed the hub; the steering
// benchmark's replay spans and the viz tests use it.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "viz/image.hpp"

namespace ricsa::viz {

namespace detail {
/// Byte-wise equality of two `n`-byte row segments, vectorized (SSE2 when
/// the target has it, word-wise otherwise). Exactly equivalent to
/// memcmp(a, b, n) == 0 — exposed for the equivalence tests.
bool rows_equal(const std::uint8_t* a, const std::uint8_t* b, std::size_t n);
}  // namespace detail

/// One tile's pixel rectangle inside the framebuffer.
struct TileRect {
  int x = 0, y = 0, w = 0, h = 0;
  bool operator==(const TileRect&) const = default;
};

/// The smallest rectangle holding every pixel that differs between
/// `before` and `after`, or nullopt when no pixel differs. Rows are
/// compared with detail::rows_equal; an unequal row is scanned inward from
/// both ends, only as far as the box found so far. Throws
/// std::invalid_argument when the dimensions differ.
std::optional<TileRect> changed_bounds(const Image& before, const Image& after);

/// Bitset over a grid's tile indices (row-major): dirty[i] != 0 means tile i
/// differs between the two diffed framebuffers.
using TileSet = std::vector<std::uint8_t>;

class TileGrid {
 public:
  /// Grid over a width x height framebuffer with square tiles of
  /// `tile_size` pixels; the last column/row of tiles is clamped to the
  /// image edge (partial tiles), so every pixel belongs to exactly one
  /// tile. Throws std::invalid_argument on non-positive dimensions.
  TileGrid(int width, int height, int tile_size = 64);

  int width() const noexcept { return width_; }
  int height() const noexcept { return height_; }
  int tile_size() const noexcept { return tile_; }
  int cols() const noexcept { return cols_; }
  int rows() const noexcept { return rows_; }
  std::size_t count() const noexcept {
    return static_cast<std::size_t>(cols_) * static_cast<std::size_t>(rows_);
  }

  /// Pixel rectangle of tile `index` (row-major), clamped at the edges.
  TileRect rect(std::size_t index) const;

  /// Tile-wise diff: dirty[i] set iff any pixel of tile i differs between
  /// `before` and `after`. Both images must match the grid's dimensions
  /// (std::invalid_argument otherwise).
  TileSet diff(const Image& before, const Image& after) const;

  /// Number of set entries in a dirty set. Entries beyond count() are
  /// ignored — the same bounds clamp dirty_fraction applies, so an
  /// oversized TileSet cannot overcount.
  std::size_t dirty_count(const TileSet& dirty) const;
  /// Fraction of the frame's *pixels* covered by the dirty tiles — the
  /// full-frame-fallback signal (edge tiles weigh less than interior ones).
  double dirty_fraction(const TileSet& dirty) const;

  /// Coalesce adjacent dirty tiles into maximal rectangles: greedy
  /// row-major sweep extending each unclaimed dirty tile rightward, then
  /// downward while every tile in the span is dirty and unclaimed. The
  /// result is a set of disjoint pixel rectangles that together cover
  /// exactly the dirty tiles (never a clean tile). Not on the hub's path:
  /// the hub encodes one changed_bounds box per frame instead.
  std::vector<TileRect> coalesce(const TileSet& dirty) const;

  /// Copy tile `r` out of `src` as a standalone image. `src` must contain
  /// the rectangle.
  static Image extract(const Image& src, const TileRect& r);
  /// Paste `tile` into `dst` with its top-left corner at (x, y) — the
  /// client-side reassembly step. The tile must fit inside `dst`.
  static void composite(Image& dst, const Image& tile, int x, int y);

 private:
  int width_ = 0, height_ = 0, tile_ = 0;
  int cols_ = 0, rows_ = 0;
};

}  // namespace ricsa::viz
