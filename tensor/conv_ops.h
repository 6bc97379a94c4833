// Convolution/pooling loop nests: im2col, the conv input gradient, the
// col2im reference it replaced, max-pooling, and the fused act-quantize +
// im2col gather used by the inference path. Following the Halide
// schedule/algorithm separation, this file owns the SCHEDULE (threading
// grain, loop order, padding specialization) for the conv pipeline,
// while the algorithms stay naive-loop-equivalent — the same determinism
// contract tensor/ops.h establishes for the GEMM kernels.
//
// Determinism contract (tested by tests/test_conv_ops.cpp):
//  * Every output element is produced by exactly one thread with a fixed
//    per-element operation order, so results are bit-identical for any
//    QAVAT_THREADS, including 1.
//  * col2im is the dangerous one: as a scatter-add over overlapping
//    windows, a naive row split races (adjacent output-row chunks
//    scatter into the same input rows) and atomics would "fix" the race
//    only by making the float accumulation ORDER scheduling-dependent —
//    both are banned. A parallel scatter formulation must instead use
//    per-chunk partial buffers (one per FIXED grain chunk, not per
//    thread) combined in a deterministic serial reduction. We avoid even
//    that cost by restructuring to owner-computes GATHER form: each
//    thread owns whole input rows and accumulates the <= K*K window
//    contributions per element in fixed (ky, kx) ascending order. No
//    shared writes, no atomics, no partials.
//  * col2im is now the reference, not the training path. The training
//    step computes the input gradient with conv_backward_data, which
//    owns gx rows the same way and builds, per element and tap, the very
//    chain matmul(gy2d, w) would put in the cols-layout gradient (start
//    at 0.0f, add w * gy over ascending output channel, in the GEMM
//    tile's FMA form), summed over taps in col2im's (ky, kx) order. No
//    cols-layout gradient, no col2im, no permute of gy — bit-identical.
//  * im2col/pooling threading grains are whole output rows / whole
//    (image, channel) planes, so chunk boundaries can never split one
//    output element's work. im2col's wide tap moves write junk only
//    inside the row being gathered; each row's last run is exact.
//
#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace qavat {

/// Geometry of one conv application over NCHW images. `n` is the number
/// of images actually gathered — pass n = x.dim(0) / nb to read only the
/// first chip block of a noise-batched input that is known to be nb
/// identical blocks. All fields are element counts (pixels/taps).
struct ConvGeom {
  index_t n, c, h, w;       ///< input images (leading prefix of x, NCHW)
  index_t k, stride, pad;   ///< square kernel side, stride, zero padding
  index_t oh, ow;           ///< output spatial dims

  index_t ckk() const { return c * k * k; }     ///< im2col row width
  index_t rows() const { return n * oh * ow; }  ///< im2col rows
};

/// x (NCHW, first g.n images) -> cols {g.n*g.oh*g.ow, g.ckk()}; row index
/// = (n*OH + oh)*OW + ow, zero padding. Threaded over output rows
/// (QAVAT_THREADS), bit-identical for any thread count.
void im2col(const Tensor& x, const ConvGeom& g, Tensor& cols);

/// im2col with the unsigned activation quantizer fused into the gather:
/// every gathered element v becomes scale * clamp(nearbyint(v / scale),
/// 0, qmax). Bit-identical to ActQuantizer::quantize + im2col.
void im2col_quant(const Tensor& x, const ConvGeom& g, float scale,
                  index_t qmax, Tensor& cols);

/// Transpose of im2col: scatter-add the cols-layout gradient back to the
/// input image layout (gather form, see the contract above). Writes every
/// element of gx (resized to {g.n, g.c, g.h, g.w}); threaded over input
/// rows, bit-identical for any thread count. The reference for
/// conv_backward_data, which the training step runs instead.
void col2im(const Tensor& cols, const ConvGeom& g, Tensor& gx);

/// Input gradient of a conv straight from its NCHW output gradient:
/// gy {g.n, cout, g.oh, g.ow} and weights w {cout, g.ckk()} give gx
/// (resized to {g.n, g.c, g.h, g.w}) bit-identical to
/// col2im(matmul(gy2d, w)), gy2d being gy permuted to {g.rows(), cout}.
/// Every tap's chain over cout and every element's sum over taps keep
/// the reference's order (see the contract above); the weights must be
/// finite. Threaded over gx rows, bit-identical for any thread count.
void conv_backward_data(const Tensor& gy, const Tensor& w, const ConvGeom& g,
                        Tensor& gx);

/// Non-overlapping k x k max pooling over NCHW (floor semantics: trailing
/// rows/cols that do not fill a window are dropped). `argmax` records the
/// flat input index of each selected element for the backward scatter.
/// Ties break to the first (lowest-index) element, value-independent of
/// threading. Threaded over (image, channel) planes.
void maxpool2d(const Tensor& x, index_t k, Tensor& y,
               std::vector<index_t>& argmax);

/// Scatter gy through argmax into gx (resized + zeroed to in_shape).
/// Window positions are disjoint, so plane-parallel scatter is race-free.
void maxpool2d_backward(const Tensor& gy, const std::vector<index_t>& argmax,
                        const std::vector<index_t>& in_shape, Tensor& gx);

}  // namespace qavat
