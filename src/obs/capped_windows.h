// Virtual-time windows under a cell cap: the one windowing engine behind the
// queue-dynamics time series (obs/timeseries.h) and the SLO windows
// (obs/window.h).
//
// Cells live in an ordered map keyed by window index floor(t / width). When
// an instant lands at or past index `max_windows`, the width doubles and
// adjacent cells fold pairwise (2k and 2k+1 into k) until it fits — the
// HdrHistogram resize trick applied to time. The cap therefore bounds
// memory, artifact size and collection cost no matter how long the
// simulated horizon runs, and a fold loses nothing when the cell type's
// fold is exact (counts add, maxima max, sketches merge).
//
// Folding k times lands every instant exactly where bucketing directly at
// base·2^k would: the inverse width is halved exactly on each fold, and
// floor(x / 2) == floor(x) >> 1. So the final layout is a function of the
// largest instant seen, not of arrival order or of how a run was split into
// shards — the property the artifacts' byte-identity rests on.
//
// Cell requirements: copyable, plus `void fold(const Cell& other)` that
// absorbs another cell covering the same (widened) window.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>

#include "util/check.h"

namespace mmr {

/// Cell cap of the SLO windows and TimeseriesConfig's default cap.
inline constexpr std::uint64_t kDefaultMaxWindows = 512;

template <typename Cell>
class CappedWindows {
 public:
  /// `max_windows` 0 disables coarsening (fixed width). New cells start as
  /// copies of `empty`, so cell types without a default constructor work.
  explicit CappedWindows(double base_s = 60.0, std::uint64_t max_windows = 0,
                         Cell empty = Cell{})
      : window_s_(base_s),
        inv_window_s_(1.0 / base_s),
        max_windows_(max_windows),
        empty_(std::move(empty)) {}

  /// Current width: the base doubled once per fold.
  double window_s() const { return window_s_; }
  std::uint64_t max_windows() const { return max_windows_; }
  const std::map<std::uint64_t, Cell>& cells() const { return cells_; }

  /// Multiply-by-inverse bucketing: one mul beats a divide on the per-event
  /// hot path, at the price of an occasional ±1 ulp disagreement with exact
  /// division right on a window boundary. Any consistent bucketing is
  /// correct — totals stay exact, only which side of a boundary an instant
  /// lands on can shift — and it is the same every run.
  std::uint64_t window_of(double t) const {
    return t <= 0 ? 0 : static_cast<std::uint64_t>(t * inv_window_s_);
  }
  /// True when instant t lands under the cap at the current width.
  bool fits(double t) const {
    return max_windows_ == 0 || window_of(t) < max_windows_;
  }
  /// Doubles the width until instant t fits under the cap.
  void fit(double t) {
    while (!fits(t)) fold_once();
  }

  /// The cell holding instant t, coarsening first if t is past the cap.
  Cell& cell(double t) {
    std::uint64_t w = window_of(t);
    if (max_windows_ != 0 && w >= max_windows_) {
      fit(t);
      w = window_of(t);
    }
    return cell_at(w);
  }
  /// The cell of window index w at the current width. The last-touched cell
  /// is cached: near-monotone event streams reach the map only when they
  /// cross a window boundary.
  Cell& cell_at(std::uint64_t w) {
    if (hot_.cell != nullptr && hot_.index == w) return *hot_.cell;
    hot_.index = w;
    hot_.cell = &cells_.try_emplace(w, empty_).first->second;
    return *hot_.cell;
  }

  /// Folds `other` into this. Widths may differ by a power of two (both
  /// grew from the same base): the finer side folds to the coarser width
  /// first, then the result re-coarsens under this cap. Throws on any other
  /// width ratio.
  void merge(const CappedWindows& other) {
    while (window_s_ < other.window_s_) fold_once();
    unsigned shift = 0;
    double w = other.window_s_;
    while (w < window_s_) {
      w *= 2;
      ++shift;
    }
    MMR_CHECK_MSG(w == window_s_,
                  "cannot merge windows whose widths are not a power-of-two "
                  "ratio apart");
    for (const auto& [index, c] : other.cells_) {
      cell_at(index >> shift).fold(c);
    }
    if (max_windows_ != 0) {
      while (!cells_.empty() && cells_.rbegin()->first >= max_windows_) {
        fold_once();
      }
    }
  }

  /// Map-node footprint of the cells (a red-black node carries three
  /// pointers and a colour beside the payload); cell-owned heap is the
  /// caller's to add.
  std::size_t node_bytes() const {
    return cells_.size() *
           (sizeof(std::uint64_t) + sizeof(Cell) + 4 * sizeof(void*));
  }

 private:
  /// Doubles the width, folding cells 2k and 2k+1 into k.
  void fold_once() {
    std::map<std::uint64_t, Cell> folded;
    for (const auto& [index, c] : cells_) {
      folded.try_emplace(index >> 1, empty_).first->second.fold(c);
    }
    cells_.swap(folded);
    window_s_ *= 2;
    inv_window_s_ *= 0.5;
    hot_.cell = nullptr;  // pointed into the old map
  }

  /// Cache of the last-touched cell. Copies drop it (it would point into
  /// the source's map); moves keep it, since map nodes change owner without
  /// relocating.
  struct HotCell {
    HotCell() = default;
    HotCell(const HotCell&) {}
    HotCell& operator=(const HotCell&) {
      cell = nullptr;
      return *this;
    }
    HotCell(HotCell&& o) noexcept
        : index(o.index), cell(std::exchange(o.cell, nullptr)) {}
    HotCell& operator=(HotCell&& o) noexcept {
      index = o.index;
      cell = std::exchange(o.cell, nullptr);
      return *this;
    }
    std::uint64_t index = 0;
    Cell* cell = nullptr;
  };

  double window_s_;
  double inv_window_s_;
  std::uint64_t max_windows_;  ///< cell cap; 0 = never coarsen
  Cell empty_;                 ///< prototype of a fresh cell
  std::map<std::uint64_t, Cell> cells_;
  HotCell hot_;
};

}  // namespace mmr
