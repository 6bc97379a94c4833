#include "pim/tiling.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "tensor/parallel_for.h"

namespace qavat {

TilePlan TilePlan::make(index_t out, index_t in, index_t tile) {
  if (out <= 0 || in <= 0) {
    throw std::invalid_argument("TilePlan: matrix dims must be positive, got {" +
                                std::to_string(out) + "," + std::to_string(in) +
                                "}");
  }
  TilePlan p;
  p.out = out;
  p.in = in;
  p.tile = tile > 0 ? tile : kDefaultTileSize;
  return p;
}

TilePlan::Extent TilePlan::tile_at(index_t i, index_t j) const {
  Extent e;
  e.r0 = i * tile;
  e.rows = std::min(tile, out - e.r0);
  e.c0 = j * tile;
  e.cols = std::min(tile, in - e.c0);
  return e;
}

TiledCrossbarLayer::TiledCrossbarLayer(PimChip& chip, const Tensor& w,
                                       const TilePlan& plan, bool with_gtm,
                                       Workspace* ws)
    : plan_(plan), cfg_(chip.config()), ws_(ws != nullptr ? ws : &local_ws_) {
  // Validate the plan itself too: TilePlan is an aggregate, so a
  // hand-built one can bypass TilePlan::make and carry tile == 0, which
  // would otherwise reach row_tiles()'s division.
  if (plan.tile <= 0 || plan.out <= 0 || plan.in <= 0) {
    throw std::invalid_argument(
        "TiledCrossbarLayer: invalid plan (use TilePlan::make)");
  }
  if (w.ndim() != 2 || w.dim(0) != plan.out || w.dim(1) != plan.in) {
    throw std::invalid_argument(
        "TiledCrossbarLayer: weight shape does not match the plan");
  }
  // Layer-level conductance mapping: every tile is programmed against the
  // whole layer's max |w|, exactly as a single unbounded array would be —
  // the tiled conductances are then the same floats, which is what makes
  // the noise-free tiled readout bit-identical to an untiled one.
  w_unit_ = w_unit_from_max(w.abs_max());

  const index_t rt = plan_.row_tiles(), ct = plan_.col_tiles();
  arrays_.reserve(static_cast<std::size_t>(rt * ct));
  if (with_gtm) gtm_est_.reserve(static_cast<std::size_t>(rt * ct));
  Tensor sub;
  for (index_t i = 0; i < rt; ++i) {
    for (index_t j = 0; j < ct; ++j) {
      const TilePlan::Extent e = plan_.tile_at(i, j);
      sub.resize_for_overwrite({e.rows, e.cols});
      for (index_t r = 0; r < e.rows; ++r) {
        std::memcpy(sub.data() + r * e.cols,
                    w.data() + (e.r0 + r) * plan_.in + e.c0,
                    static_cast<std::size_t>(e.cols) * sizeof(float));
      }
      // The per-tile ideal-weight copy is dropped: the circuit-eval hot
      // path programs every layer once per Monte-Carlo chip and never
      // reads it (use an untiled array for ideal_mvm references).
      arrays_.push_back(chip.program_array(sub, w_unit_, /*keep_ideal=*/false));
      if (with_gtm) {
        // One spare column per array: as many cells as the array has rows.
        GtmColumn gtm = chip.program_gtm(e.rows, 1.0);
        const double est = chip.measure_eps_b(gtm);
        gtm_est_.push_back(est);
        gtm_weighted_sum_ += est * static_cast<double>(e.rows);
        gtm_cells_total_ += e.rows;
      }
    }
  }
}

TiledCrossbarLayer::~TiledCrossbarLayer() { ws_->release(this); }

const CrossbarArray& TiledCrossbarLayer::array(index_t i, index_t j) const {
  return arrays_[static_cast<std::size_t>(i * plan_.col_tiles() + j)];
}

double TiledCrossbarLayer::measured_eps_b() const {
  if (gtm_cells_total_ <= 0) return 0.0;
  // Cell-count weighting = pooling all spare-column cells into one
  // estimator, so ragged tiles' noisier columns do not dominate.
  return gtm_weighted_sum_ / static_cast<double>(gtm_cells_total_);
}

void TiledCrossbarLayer::mvm_into(const Tensor& x2d, Tensor& y) {
  if (x2d.ndim() != 2 || x2d.dim(1) != plan_.in) {
    throw std::invalid_argument(
        "TiledCrossbarLayer::mvm_into: input must be {n, " +
        std::to_string(plan_.in) + "}");
  }
  const index_t n = x2d.dim(0);
  const index_t rt = plan_.row_tiles(), ct = plan_.col_tiles();
  y.resize_for_overwrite({n, plan_.out});

  // Wordline DACs: one quantization per input row over its full-row
  // dynamic range (the row of tiles shares its wordline drivers), THEN
  // sliced per column tile — so the driven voltages, and hence the tiled
  // result, do not depend on the tile grid.
  const Tensor* xr = &x2d;
  if (cfg_.dac_bits > 0) {
    Tensor& xq = ws_->acquire(this, 0, x2d.shape());
    std::memcpy(xq.data(), x2d.data(),
                static_cast<std::size_t>(x2d.size()) * sizeof(float));
    quantize_rows(xq, cfg_.dac_bits);
    xr = &xq;
  }

  // Stage the column slices once (they are shared by every row tile).
  // With a single column tile the full input feeds the arrays directly.
  // slice_ptrs_ is a member so its capacity survives across calls — the
  // zero-alloc steady state covers it.
  slice_ptrs_.assign(static_cast<std::size_t>(ct), xr);
  if (ct > 1) {
    const float* px = xr->data();
    for (index_t j = 0; j < ct; ++j) {
      const TilePlan::Extent e = plan_.tile_at(0, j);
      Tensor& slice = ws_->acquire(this, static_cast<int>(1 + j), {n, e.cols});
      for (index_t r = 0; r < n; ++r) {
        std::memcpy(slice.data() + r * e.cols, px + r * plan_.in + e.c0,
                    static_cast<std::size_t>(e.cols) * sizeof(float));
      }
      slice_ptrs_[static_cast<std::size_t>(j)] = &slice;
    }
  }

  // Row tile i writes output columns [er.r0, er.r0 + er.rows) — disjoint
  // blocks — so row tiles run in parallel once their scratch partials
  // are staged. Workspace::acquire is single-driver-thread, so with
  // multiple row tiles every partial is acquired HERE, serially, before
  // the parallel region; part_ptrs_ is a member so its capacity survives
  // across calls (zero-alloc steady state).
  part_ptrs_.assign(static_cast<std::size_t>(rt), &y);
  if (rt > 1) {
    for (index_t i = 0; i < rt; ++i) {
      const TilePlan::Extent er = plan_.tile_at(i, 0);
      part_ptrs_[static_cast<std::size_t>(i)] =
          &ws_->acquire(this, static_cast<int>(1 + ct + i), {n, er.rows});
    }
  }
  auto run_row_tile = [&](index_t i) {
    const TilePlan::Extent er = plan_.tile_at(i, 0);
    // With one row tile the partial is all of y; otherwise partials
    // stage in scratch and scatter into y's column block afterwards.
    Tensor* part = part_ptrs_[static_cast<std::size_t>(i)];
    // Partial-sum determinism contract: ascending column-tile order, each
    // array CONTINUING the per-element accumulation chain — bit-identical
    // to one full-width readout (see matmul_nt_acc_into). The column loop
    // must therefore stay serial within a row tile; the GEMM inside each
    // array threads on its own (a nested job of the row-tile dispatch).
    for (index_t j = 0; j < ct; ++j) {
      array(i, j).accumulate_currents(*slice_ptrs_[static_cast<std::size_t>(j)],
                                      *part, /*accumulate=*/j > 0);
    }
    // Same epilogue as CrossbarArray::mvm_into: conductance units back to
    // weight units under the shared layer mapping.
    scale(*part, static_cast<float>(w_unit_ / cfg_.g_max));
    if (rt > 1) {
      float* py = y.data();
      const float* pp = part->data();
      for (index_t r = 0; r < n; ++r) {
        std::memcpy(py + r * plan_.out + er.r0, pp + r * er.rows,
                    static_cast<std::size_t>(er.rows) * sizeof(float));
      }
    }
  };
  if (rt > 1) {
    parallel_for(index_t{0}, rt, index_t{1}, [&](index_t i0, index_t i1) {
      for (index_t i = i0; i < i1; ++i) run_row_tile(i);
    });
  } else {
    run_row_tile(0);
  }

  // Bitline ADCs on the assembled output rows: partial sums combine
  // before quantization (modeled as digital accumulation feeding one
  // converter range per row), keeping periphery error tile-invariant.
  quantize_rows(y, cfg_.adc_bits);
}

}  // namespace qavat
