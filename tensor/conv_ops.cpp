#include "tensor/conv_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "tensor/parallel_for.h"

namespace qavat {

namespace {

// Thread grain targets, mirroring the GEMM constants in ops.cpp: chunks
// carry at least kMinElemsPerChunk elements of traffic and ranges below
// kSerialElems never fork. Both are pure functions of shape, so the
// fork-or-not decision (and therefore the code path) never depends on the
// thread count.
constexpr index_t kMinElemsPerChunk = index_t{1} << 15;
constexpr index_t kSerialElems = index_t{1} << 17;

inline index_t grain_for(index_t per_item) {
  return std::max<index_t>(1, (kMinElemsPerChunk + per_item - 1) / per_item);
}

// The identity transform of the plain im2col. Tagged so that gather_row
// can move whole tap runs instead of transforming element by element.
struct CopyXf {
  float operator()(float v) const { return v; }
};

// Copy one in-image run of KS taps as a single fixed-size move of the
// next power of two (4 floats for KS = 3, 8 for KS = 5). The floats past
// KS are junk that the row's next run overwrites, so the caller must
// copy a row's last run exactly. The read past the run stays
// inside x: a window row is followed by the window's next image row or,
// after its last, by the next channel's plane.
template <index_t KS>
inline void move_wide(float* dst, const float* src) {
  constexpr index_t kWide = KS == 3 ? 4 : KS == 5 ? 8 : KS;
  std::memcpy(dst, src, static_cast<std::size_t>(kWide) * sizeof(float));
}

// One im2col output row (one output position): gather the C*K*K window,
// zero-padding out-of-image taps, applying `xf` to every in-image value.
// KS is the compile-time kernel size (0 = runtime-sized fallback): with a
// constant trip count the per-tap loops fully unroll, which is what makes
// the gather bandwidth-bound instead of loop-overhead-bound at the small
// K (1/2/3/5) every model here uses. An interior window (no clipping) of
// the plain copy moves each tap run with one wide move; a border window
// zero-fills the row once and copies only its in-image runs.
template <index_t KS, typename Xf>
inline void gather_row(const float* px, const ConvGeom& g, float* row,
                       index_t ni, index_t y, index_t xo, const Xf& xf) {
  constexpr bool kCopy = std::is_same<Xf, CopyXf>::value;
  const index_t k = KS > 0 ? KS : g.k;
  const index_t h = g.h, w = g.w, c = g.c;
  const index_t iy0 = y * g.stride - g.pad;
  const index_t ix0 = xo * g.stride - g.pad;
  if (iy0 >= 0 && iy0 + k <= h && ix0 >= 0 && ix0 + k <= w) {
    const float* base = px + ni * c * h * w + iy0 * w + ix0;
    if constexpr (kCopy && KS > 0) {
      // Runs in ascending order, so each wide move's junk tail is
      // overwritten by the next run; the last run is exact, so nothing
      // is written past this row (which another thread may own).
      for (index_t ci = 0; ci < c; ++ci) {
        const float* src = base + ci * h * w;
        float* dst = row + ci * k * k;
        const index_t ky_end = ci + 1 < c ? k : k - 1;
        for (index_t ky = 0; ky < ky_end; ++ky) {
          move_wide<KS>(dst + ky * k, src + ky * w);
        }
      }
      std::memcpy(row + c * k * k - k, base + (c - 1) * h * w + (k - 1) * w,
                  static_cast<std::size_t>(KS) * sizeof(float));
      return;
    }
    for (index_t ci = 0; ci < c; ++ci) {
      const float* src = base + ci * h * w;
      float* dst = row + ci * k * k;
      for (index_t ky = 0; ky < k; ++ky) {
        const float* s = src + ky * w;
        float* d = dst + ky * k;
        for (index_t kx = 0; kx < k; ++kx) d[kx] = xf(s[kx]);
      }
    }
    return;
  }
  std::memset(row, 0, static_cast<std::size_t>(c * k * k) * sizeof(float));
  const index_t kx_lo = std::max<index_t>(0, -ix0);
  const index_t kx_hi = std::min<index_t>(k, w - ix0);
  const index_t ky_lo = std::max<index_t>(0, -iy0);
  const index_t ky_hi = std::min<index_t>(k, h - iy0);
  // Index from the row base: ix0 can be negative, and forming
  // `plane + iy*w + ix0` would be an out-of-bounds pointer (UB) even
  // though only kx >= kx_lo is ever read.
  for (index_t ci = 0; ci < c; ++ci) {
    const float* plane = px + (ni * c + ci) * h * w;
    for (index_t ky = ky_lo; ky < ky_hi; ++ky) {
      const float* srow = plane + (iy0 + ky) * w;
      float* dst = row + (ci * k + ky) * k;
      for (index_t kx = kx_lo; kx < kx_hi; ++kx) dst[kx] = xf(srow[ix0 + kx]);
    }
  }
}

// Threaded sweep over im2col output rows [r0, r1). Each row is written by
// exactly one thread with a fixed gather order — bit-identical for any
// partition.
template <index_t KS, typename Xf>
void im2col_sweep(const Tensor& x, const ConvGeom& g, Tensor& cols,
                  const Xf& xf) {
  const index_t ckk = g.ckk(), rows = g.rows();
  cols.resize_for_overwrite({rows, ckk});
  const float* px = x.data();
  float* pc = cols.data();
  auto run = [&, px, pc](index_t r0, index_t r1) {
    for (index_t r = r0; r < r1; ++r) {
      const index_t ni = r / (g.oh * g.ow);
      const index_t rem = r - ni * g.oh * g.ow;
      gather_row<KS>(px, g, pc + r * ckk, ni, rem / g.ow, rem % g.ow, xf);
    }
  };
  if (rows * ckk < kSerialElems) {
    run(index_t{0}, rows);
  } else {
    parallel_for(index_t{0}, rows, grain_for(ckk), run);
  }
}

// Kernel-size dispatch (values are identical across instantiations; only
// the unrolling changes, so this is a pure schedule decision).
template <typename Xf>
void im2col_impl(const Tensor& x, const ConvGeom& g, Tensor& cols,
                 const Xf& xf) {
  switch (g.k) {
    case 1: im2col_sweep<1>(x, g, cols, xf); break;
    case 2: im2col_sweep<2>(x, g, cols, xf); break;
    case 3: im2col_sweep<3>(x, g, cols, xf); break;
    case 5: im2col_sweep<5>(x, g, cols, xf); break;
    default: im2col_sweep<0>(x, g, cols, xf); break;
  }
}

}  // namespace

void im2col(const Tensor& x, const ConvGeom& g, Tensor& cols) {
  im2col_impl(x, g, cols, CopyXf{});
}

void im2col_quant(const Tensor& x, const ConvGeom& g, float scale,
                  index_t qmax, Tensor& cols) {
  const float inv = 1.0f / scale;
  const float qm = static_cast<float>(qmax);
  // Same expression as ActQuantizer::quantize, applied per gathered
  // element; zero-padding commutes (quantize(0) == 0).
  im2col_impl(x, g, cols, [inv, scale, qm](float v) {
    float q = std::nearbyint(v * inv);
    const bool inside = q >= 0.0f && q <= qm;
    if (!inside) q = q < 0.0f ? 0.0f : qm;
    return q * scale;
  });
}

namespace {

// Owner-computes gather: input row index r = (ni*C + ci)*H + iy; each
// thread fully produces its rows. Per element, window contributions
// accumulate in ascending (ky, kx) order — a pure function of shape —
// so any thread count (and any chunking) is bit-identical. KS as in
// gather_row: compile-time kernel size, 0 = runtime fallback.
template <index_t KS>
void col2im_sweep(const Tensor& cols, const ConvGeom& g, Tensor& gx) {
  gx.resize_for_overwrite({g.n, g.c, g.h, g.w});
  const index_t k = KS > 0 ? KS : g.k;
  const index_t stride = g.stride, pad = g.pad;
  const index_t w = g.w, oh = g.oh, ow = g.ow, ckk = g.ckk();
  const float* pc = cols.data();
  float* pg = gx.data();
  const index_t in_rows = g.n * g.c * g.h;
  auto run = [&, pc, pg](index_t r0, index_t r1) {
    for (index_t r = r0; r < r1; ++r) {
      const index_t ni = r / (g.c * g.h);
      const index_t rem = r - ni * g.c * g.h;
      const index_t ci = rem / g.h, iy = rem % g.h;
      float* out = pg + r * w;
      for (index_t ix = 0; ix < w; ++ix) out[ix] = 0.0f;
      for (index_t ky = 0; ky < k; ++ky) {
        const index_t t = iy + pad - ky;
        if (t < 0 || t % stride != 0) continue;
        const index_t y = t / stride;
        if (y >= oh) continue;
        const float* cbase = pc + (ni * oh + y) * ow * ckk + (ci * k + ky) * k;
        for (index_t kx = 0; kx < k; ++kx) {
          // ix = xo*stride - pad + kx in [0, w)  =>  xo range. A negative
          // upper numerator means no xo can reach the image (C++ division
          // truncates toward zero, so -1/stride would wrongly allow
          // xo = 0); skip the tap.
          const index_t hi_num = w - 1 + pad - kx;
          if (hi_num < 0) continue;
          const index_t xo_lo =
              pad > kx ? (pad - kx + stride - 1) / stride : index_t{0};
          const index_t xo_hi = std::min<index_t>(ow - 1, hi_num / stride);
          // Index `out` with the full expression (>= 0 for xo >= xo_lo):
          // pre-offsetting by kx - pad would form a before-the-array
          // pointer (UB) whenever pad > kx.
          const float* src = cbase + kx;
          for (index_t xo = xo_lo; xo <= xo_hi; ++xo) {
            out[xo * stride + kx - pad] += src[xo * ckk];
          }
        }
      }
    }
  };
  if (in_rows * w * k < kSerialElems) {
    run(index_t{0}, in_rows);
  } else {
    parallel_for(index_t{0}, in_rows, grain_for(w * k * k), run);
  }
}

}  // namespace

void col2im(const Tensor& cols, const ConvGeom& g, Tensor& gx) {
  switch (g.k) {
    case 1: col2im_sweep<1>(cols, g, gx); break;
    case 2: col2im_sweep<2>(cols, g, gx); break;
    case 3: col2im_sweep<3>(cols, g, gx); break;
    case 5: col2im_sweep<5>(cols, g, gx); break;
    default: col2im_sweep<0>(cols, g, gx); break;
  }
}

namespace {

// The dx kernel's grains, mirroring the GEMM constants in ops.cpp: its
// work is the NN GEMM's multiply-adds, so it forks where that GEMM did.
constexpr index_t kMinMacsPerChunk = index_t{1} << 19;
constexpr index_t kSerialMacs = index_t{1} << 21;
constexpr index_t kDxChannels = 8;  // gx channels per register block

// Lanes along ix: 16 for rows wider than 8, else 8. The same GCC/Clang
// vector extension as the GEMM tile, moved only through memcpy.
typedef float Lanes16 __attribute__((vector_size(64)));
typedef float Lanes8 __attribute__((vector_size(32)));

// Read-only operands of one conv_backward_data call. `gp` holds gy with
// each row zero-padded and dilated: row (ni*oh + y)*cout + co has width
// wp, and gy[ni, co, y, xo] sits at column lead - pad + xo*stride, zeros
// everywhere else. So the lane for input column ix and tap kx reads
// column lead + ix - kx, which is output column xo exactly when
// ix = xo*stride - pad + kx, and a zero otherwise. `wt` holds the weights
// as [tap][co][ci].
struct DxOperands {
  const float* gp;
  const float* wt;
  float* gx;
  index_t c, h, w, k, stride, pad, oh, cout, wp, lead;
};

// gx[ni, ci0 + b, iy, :] for b < CB. Per lane, each tap (ky, kx) in
// ascending order builds the NN GEMM's chain: start at 0.0f and add
// w * gy over ascending co, in mul_tile's FMA form. The chain is then
// added to the lane's sum, which starts at 0.0f: col2im's ascending
// (ky, kx) sum. A tap whose row y is not an output row is skipped, as in
// col2im. A lane whose column is not reads zeros and adds +0.0 to its
// sum, which is exact: no chain or sum that starts at +0.0f and adds in
// round-to-nearest can be -0.0. A row wider than the lanes ends in a
// chunk that slides back to w - L; its overlapped lanes recompute the
// same chains and store the same bits.
template <typename V, int CB>
void dx_block(const DxOperands& op, index_t ni, index_t ci0, index_t iy) {
  constexpr index_t L = static_cast<index_t>(sizeof(V) / sizeof(float));
  const index_t k = op.k, c = op.c, w = op.w, cout = op.cout, wp = op.wp;
  const index_t live = std::min(L, w);
  for (index_t x0 = 0; x0 < w; x0 += L) {
    const index_t xs = std::min(x0, w - live);
    V acc[CB];
    for (int b = 0; b < CB; ++b) acc[b] = V{};
    for (index_t ky = 0; ky < k; ++ky) {
      const index_t t = iy + op.pad - ky;
      if (t < 0 || t % op.stride != 0) continue;
      const index_t y = t / op.stride;
      if (y >= op.oh) continue;
      const float* grow = op.gp + (ni * op.oh + y) * cout * wp + op.lead + xs;
      for (index_t kx = 0; kx < k; ++kx) {
        const float* gk = grow - kx;
        const float* wk = op.wt + (ky * k + kx) * cout * c + ci0;
        V chain[CB];
        for (int b = 0; b < CB; ++b) chain[b] = V{};
        for (index_t co = 0; co < cout; ++co) {
          V g;
          std::memcpy(&g, gk + co * wp, sizeof(V));
          const float* wc = wk + co * c;
          for (int b = 0; b < CB; ++b) chain[b] += wc[b] * g;
        }
        for (int b = 0; b < CB; ++b) acc[b] += chain[b];
      }
    }
    for (int b = 0; b < CB; ++b) {
      float* dst = op.gx + ((ni * c + ci0 + b) * op.h + iy) * w + xs;
      const V out = acc[b];
      std::memcpy(dst, &out, static_cast<std::size_t>(live) * sizeof(float));
    }
  }
}

// All channels of one (image, 8-channel group, input row) item: full
// 8-channel blocks, then the group's remainder in blocks of 4, 2, 1.
template <typename V>
void dx_item(const DxOperands& op, index_t ni, index_t cg, index_t iy) {
  index_t ci = cg * kDxChannels;
  const index_t end = std::min(op.c, ci + kDxChannels);
  if (end - ci == kDxChannels) return dx_block<V, 8>(op, ni, ci, iy);
  for (; ci + 4 <= end; ci += 4) dx_block<V, 4>(op, ni, ci, iy);
  for (; ci + 2 <= end; ci += 2) dx_block<V, 2>(op, ni, ci, iy);
  for (; ci < end; ++ci) dx_block<V, 1>(op, ni, ci, iy);
}

template <typename V>
void conv_backward_data_lanes(const Tensor& gy, const Tensor& w,
                              const ConvGeom& g, Tensor& gx) {
  constexpr index_t L = static_cast<index_t>(sizeof(V) / sizeof(float));
  const index_t cout = w.dim(0), k = g.k, s = g.stride;
  const index_t ohw = g.oh * g.ow;
  // Lane columns reach lead - (k - 1) .. lead + max(w, L) - 1 of a
  // padded row; lead >= k - 1 keeps the left end inside it.
  const index_t span = std::max(g.w, L);
  const index_t lead = std::max(k - 1, g.pad);
  const index_t wp = lead + span;
  const index_t left = lead - g.pad;  // column of xo = 0
  // Output columns no lane reads are left out of the copy.
  const index_t xo_n = std::min(g.ow, (wp - left + s - 1) / s);
  // thread_local, like the GEMM packs: reused across steps without a
  // heap allocation, and only the calling thread writes them.
  thread_local std::vector<float> gp, wt;
  gp.resize(static_cast<std::size_t>(g.n * g.oh * cout * wp));
  wt.resize(static_cast<std::size_t>(k * k * cout * g.c));
  const index_t kk = k * k, ckk = g.ckk();
  const float* pw = w.data();
  for (index_t tap = 0; tap < kk; ++tap) {
    for (index_t co = 0; co < cout; ++co) {
      float* dst = wt.data() + (tap * cout + co) * g.c;
      for (index_t ci = 0; ci < g.c; ++ci) {
        dst[ci] = pw[co * ckk + ci * kk + tap];
      }
    }
  }
  const float* pg = gy.data();
  float* pgp = gp.data();
  auto pad_rows = [&, pg, pgp](index_t r0, index_t r1) {
    for (index_t r = r0; r < r1; ++r) {  // r = ni*oh + y
      const index_t ni = r / g.oh, y = r - ni * g.oh;
      for (index_t co = 0; co < cout; ++co) {
        float* dst = pgp + (r * cout + co) * wp;
        const float* src = pg + (ni * cout + co) * ohw + y * g.ow;
        std::fill(dst, dst + wp, 0.0f);
        for (index_t xo = 0; xo < xo_n; ++xo) dst[left + xo * s] = src[xo];
      }
    }
  };
  const index_t prow = g.n * g.oh;
  if (prow * cout * wp < kSerialElems) {
    pad_rows(index_t{0}, prow);
  } else {
    parallel_for(index_t{0}, prow, grain_for(cout * wp), pad_rows);
  }
  gx.resize_for_overwrite({g.n, g.c, g.h, g.w});
  const DxOperands op{gp.data(), wt.data(), gx.data(), g.c,  g.h,
                      g.w,       k,         s,         g.pad, g.oh,
                      cout,      wp,        lead};
  const index_t groups = (g.c + kDxChannels - 1) / kDxChannels;
  const index_t items = g.n * groups * g.h;  // (ni, group, iy)
  auto run = [&op, &g, groups](index_t i0, index_t i1) {
    for (index_t i = i0; i < i1; ++i) {
      const index_t iy = i % g.h, ng = i / g.h;
      dx_item<V>(op, ng / groups, ng % groups, iy);
    }
  };
  const index_t macs_per_item =
      std::min(g.c, kDxChannels) * span * kk * cout;
  if (items * macs_per_item < kSerialMacs) {
    run(index_t{0}, items);
  } else {
    parallel_for(index_t{0}, items,
                 std::max<index_t>(1, (kMinMacsPerChunk + macs_per_item - 1) /
                                          macs_per_item),
                 run);
  }
}

}  // namespace

void conv_backward_data(const Tensor& gy, const Tensor& w, const ConvGeom& g,
                        Tensor& gx) {
  if (w.ndim() != 2 || w.dim(1) != g.ckk() || gy.ndim() != 4 ||
      gy.dim(0) != g.n || gy.dim(1) != w.dim(0) || gy.dim(2) != g.oh ||
      gy.dim(3) != g.ow) {
    throw std::invalid_argument(
        "conv_backward_data: gy must be {n, cout, oh, ow} and w {cout, c*k*k}");
  }
  if (g.w > 8) {
    conv_backward_data_lanes<Lanes16>(gy, w, g, gx);
  } else {
    conv_backward_data_lanes<Lanes8>(gy, w, g, gx);
  }
}

void maxpool2d(const Tensor& x, index_t k, Tensor& y,
               std::vector<index_t>& argmax) {
  const index_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const index_t oh = h / k, ow = w / k;
  y.resize_for_overwrite({n, c, oh, ow});
  argmax.resize(static_cast<std::size_t>(y.size()));
  const float* px = x.data();
  float* py = y.data();
  index_t* parg = argmax.data();
  auto run = [&, px, py, parg](index_t nc0, index_t nc1) {
    for (index_t nc = nc0; nc < nc1; ++nc) {
      const float* plane = px + nc * h * w;
      for (index_t oy = 0; oy < oh; ++oy) {
        for (index_t ox = 0; ox < ow; ++ox) {
          index_t best = (oy * k) * w + ox * k;
          float bv = plane[best];
          for (index_t dy = 0; dy < k; ++dy) {
            for (index_t dx = 0; dx < k; ++dx) {
              const index_t idx = (oy * k + dy) * w + ox * k + dx;
              if (plane[idx] > bv) {  // strict > : first max wins the tie
                bv = plane[idx];
                best = idx;
              }
            }
          }
          const index_t oidx = nc * oh * ow + oy * ow + ox;
          py[oidx] = bv;
          parg[oidx] = nc * h * w + best;
        }
      }
    }
  };
  const index_t planes = n * c;
  if (planes * h * w < kSerialElems) {
    run(index_t{0}, planes);
  } else {
    parallel_for(index_t{0}, planes, grain_for(h * w), run);
  }
}

void maxpool2d_backward(const Tensor& gy, const std::vector<index_t>& argmax,
                        const std::vector<index_t>& in_shape, Tensor& gx) {
  gx.resize_for_overwrite(in_shape);
  const index_t n = in_shape[0], c = in_shape[1];
  const index_t hw = in_shape[2] * in_shape[3];
  const index_t ohw = gy.size() / (n * c);
  const float* pgy = gy.data();
  const index_t* parg = argmax.data();
  float* pgx = gx.data();
  // Pooling windows are disjoint and argmax indices stay inside their own
  // plane, so a plane split scatters race-free; each gx element is
  // written (zero or one scatter after the zero-fill) by its plane's
  // owner thread only.
  auto run = [&, pgy, parg, pgx](index_t nc0, index_t nc1) {
    for (index_t nc = nc0; nc < nc1; ++nc) {
      float* plane = pgx + nc * hw;
      for (index_t i = 0; i < hw; ++i) plane[i] = 0.0f;
      const index_t base = nc * ohw;
      for (index_t i = 0; i < ohw; ++i) {
        pgx[parg[base + i]] += pgy[base + i];
      }
    }
  };
  const index_t planes = n * c;
  if (planes * hw < kSerialElems) {
    run(index_t{0}, planes);
  } else {
    parallel_for(index_t{0}, planes, grain_for(hw), run);
  }
}

}  // namespace qavat
