// Crossbar tiling: partition one layer's {out, in} weight matrix across
// multiple physical arrays of bounded geometry (<= 512x512 by default,
// EvalConfig::tile_size overrides) and run the circuit-level MVM through them.
// Following the Halide algorithm/schedule split, TilePlan is the pure
// partition description and TiledCrossbarLayer the kernel that consumes
// it; the math never changes with the tile grid.
//
// Determinism contract (tested by tests/test_pim_tiling.cpp):
//  * Column-tile partial sums accumulate in ascending tile order through
//    matmul_nt_acc_into, whose per-element chain CONTINUES from the
//    running value — so a tiled readout is bit-identical to an untiled
//    CrossbarArray::mvm_into on a noise-free config, for ANY tile grid
//    and any QAVAT_THREADS (DESIGN.md §10).
//  * All scratch (DAC-quantized input, column slices, row-tile partials)
//    is (owner, slot) Workspace storage: steady-shape MVMs perform zero
//    heap allocation after warm-up.
#pragma once

#include <vector>

#include "core/quant/qlayers.h"
#include "pim/chip.h"
#include "tensor/workspace.h"

namespace qavat {

/// Max crossbar side length when a caller asks for the default (tile 0).
inline constexpr index_t kDefaultTileSize = 512;

/// Pure description of how a {out, in} weight matrix partitions into a
/// grid of <= tile x tile sub-arrays: row tile i covers output rows
/// [i*tile, min(out, (i+1)*tile)), column tile j covers input columns
/// likewise — only the trailing tiles are ragged. Value type; no
/// allocation beyond construction.
struct TilePlan {
  index_t out = 0;   ///< layer fan_out (rows of the weight matrix)
  index_t in = 0;    ///< layer fan_in (columns of the weight matrix)
  index_t tile = 0;  ///< max array side length

  /// Half-open extents of one tile within the layer matrix.
  struct Extent {
    index_t r0 = 0;    ///< first output row
    index_t rows = 0;  ///< output rows covered (<= tile)
    index_t c0 = 0;    ///< first input column
    index_t cols = 0;  ///< input columns covered (<= tile)
  };

  /// Build the plan for a {out, in} matrix; `tile` <= 0 selects
  /// kDefaultTileSize. Throws std::invalid_argument on
  /// non-positive dimensions.
  static TilePlan make(index_t out, index_t in, index_t tile = 0);

  index_t row_tiles() const { return (out + tile - 1) / tile; }
  index_t col_tiles() const { return (in + tile - 1) / tile; }
  index_t n_tiles() const { return row_tiles() * col_tiles(); }

  /// Extents of tile (i, j); i in [0, row_tiles()), j in [0, col_tiles()).
  Extent tile_at(index_t i, index_t j) const;
};

/// One layer's weights programmed across a TilePlan grid of CrossbarArray
/// tiles on one PimChip, with an optional GTM spare column per array.
/// Every tile shares the layer-level conductance mapping (w_unit = max
/// |w| of the whole layer), so the programmed conductances are the same
/// floats an untiled array would hold — the precondition for the
/// bit-equality contract above. Implements AnalogBackend, so the
/// Monte-Carlo evaluator can route a quant layer's analog MVM through it
/// (EvalConfig::backend = kCircuit).
///
/// Thread-safety: construction programs arrays (advances the chip's RNG)
/// and mvm_into acquires workspace slots — both single-driver-thread,
/// like the rest of the eval pipeline. Inside one mvm_into call, row
/// tiles (disjoint output blocks, scratch pre-acquired by the driver)
/// run as a pool job whose per-array GEMMs nest on the same worker
/// budget, with bit-identical results for any QAVAT_THREADS.
class TiledCrossbarLayer : public AnalogBackend {
 public:
  /// Program `w` {out, in} across `plan`'s tiles on `chip`, in row-major
  /// tile order (array, then its GTM column when `with_gtm`). `ws` is
  /// the scratch arena for MVM staging (nullptr = private arena). Each
  /// GTM spare column has as many cells as its array has rows — the
  /// estimate error is set by geometry, ~ sigma_W / sqrt(sum of rows).
  TiledCrossbarLayer(PimChip& chip, const Tensor& w, const TilePlan& plan,
                     bool with_gtm = false, Workspace* ws = nullptr);
  /// Releases this layer's scratch slots from the shared workspace, so a
  /// torn-down chip never crowds live layers out of the retention cap.
  ~TiledCrossbarLayer() override;
  // Slot keys embed `this` and arrays_ holds RNG-realized state; a
  // copied/moved layer would alias or orphan both.
  TiledCrossbarLayer(const TiledCrossbarLayer&) = delete;
  TiledCrossbarLayer& operator=(const TiledCrossbarLayer&) = delete;

  /// Tiled analog MVM: `x2d` {n, in} -> `y` {n, out} (resized without
  /// zero-fill). DAC-quantizes each input row once over its full-row
  /// dynamic range (the wordline drivers are shared by a row of tiles),
  /// accumulates column-tile partial currents in ascending tile order,
  /// scales to weight units, and ADC-quantizes each assembled output row.
  /// Zero heap allocation at steady shape.
  void mvm_into(const Tensor& x2d, Tensor& y) override;

  index_t rows() const { return plan_.out; }  ///< layer fan_out
  index_t cols() const { return plan_.in; }   ///< layer fan_in
  const TilePlan& plan() const { return plan_; }
  index_t n_arrays() const { return static_cast<index_t>(arrays_.size()); }
  /// Array of tile (i, j) (row-major grid order).
  const CrossbarArray& array(index_t i, index_t j) const;

  /// Chip-level eps_B estimate: cell-count-weighted mean of the
  /// per-array GTM estimates — equivalent to pooling every spare-column
  /// cell, so the error is ~ sigma_W / sqrt(total_gtm_cells()) even with
  /// ragged (unequal-row) tiles. 0 when built without GTM.
  double measured_eps_b() const;
  /// Spare-column cells across all arrays (0 without GTM).
  index_t total_gtm_cells() const { return gtm_cells_total_; }
  /// Per-array GTM estimates in row-major tile order (empty without GTM).
  const std::vector<double>& gtm_estimates() const { return gtm_est_; }

 private:
  TilePlan plan_;
  CrossbarConfig cfg_;    // periphery/conductance description (chip copy)
  double w_unit_ = 1.0;   // layer-level conductance mapping, shared by tiles
  std::vector<CrossbarArray> arrays_;  // row-major [i * col_tiles + j]
  std::vector<double> gtm_est_;        // per-array GTM eps_B estimates
  double gtm_weighted_sum_ = 0.0;      // sum(estimate * cells) over arrays
  index_t gtm_cells_total_ = 0;        // sum of spare-column cells
  // Workspace slot ids: 0 = DAC-quantized input, 1+j = column slice j,
  // 1 + col_tiles + i = row-tile i partial sums.
  Workspace local_ws_;
  Workspace* ws_ = &local_ws_;
  // Per-column-tile input views for the current MVM; member so its
  // capacity persists (zero-alloc steady state).
  std::vector<const Tensor*> slice_ptrs_;
  // Per-row-tile partial-sum targets, acquired serially before the
  // parallel row-tile sweep (Workspace::acquire is single-driver-thread);
  // member for the same zero-alloc reason.
  std::vector<Tensor*> part_ptrs_;
};

}  // namespace qavat
