#include "tensor/ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "tensor/parallel_for.h"

// SIMD hints for the elementwise loops (the GEMM tiles use explicit
// vectors). -fopenmp-simd (no OpenMP runtime) turns these into
// vectorization directives; without it they expand to nothing and the
// plain loops still auto-vectorize where the compiler can prove it.
#if defined(QAVAT_OMP_SIMD)
#define QAVAT_PRAGMA(x) _Pragma(#x)
#define QAVAT_SIMD QAVAT_PRAGMA(omp simd)
#else
#define QAVAT_SIMD
#endif

namespace qavat {

namespace {

// ---------------------------------------------------------------- checks

std::string shape_str(const Tensor& t) {
  std::ostringstream os;
  os << "{";
  for (int i = 0; i < t.ndim(); ++i) os << (i ? "," : "") << t.dim(i);
  os << "}";
  return os.str();
}

// Always-on (independent of NDEBUG): a mismatched GEMM must fail loudly
// in Release builds instead of silently reading out of bounds.
void check_gemm_2d(const char* name, const Tensor& a, const Tensor& b,
                   int a_match, int b_match) {
  if (a.ndim() != 2 || b.ndim() != 2) {
    throw std::invalid_argument(std::string(name) + ": operands must be 2-D, got " +
                                shape_str(a) + " and " + shape_str(b));
  }
  if (a.dim(a_match) != b.dim(b_match)) {
    throw std::invalid_argument(std::string(name) + ": inner dimensions differ, got " +
                                shape_str(a) + " and " + shape_str(b));
  }
}

// ---------------------------------------------------------------- kernels
//
// All cores operate on a row range [i0, i1) of the output and are pure
// serial code; parallel_for splits rows across threads. Every C element
// is one fixed accumulation chain whichever core, tile or row band
// produces it (mul_tile below), so results are bit-identical for any
// thread count — the guarantee in ops.h.

// One 16-float vector in the GCC/Clang vector extension: a single zmm
// register on AVX-512 builds, lowered to narrower registers elsewhere.
// It is only ever loaded and stored through memcpy (unaligned and
// alias-safe).
typedef float Vec __attribute__((vector_size(64)));
constexpr index_t kVec = 16;            // floats per Vec
constexpr index_t kRowBlock = 4;        // C rows per register tile
constexpr index_t kJTile = 2 * kVec;    // C columns per register tile
constexpr index_t kMinMacsPerChunk = index_t{1} << 19;  // thread grain target
constexpr index_t kSerialMacs = index_t{1} << 21;       // below: never fork
// TN splits its contraction into segments of
// max(1, kTnSegmentFloats / (n + kVec)) rows: 256 KiB of B (or of its
// narrow panel), which stays in L2 while every row band of the chunk
// reads it, instead of each band re-streaming all of B from memory.
constexpr index_t kTnSegmentFloats = index_t{1} << 16;

// Copy w (1..kVec) floats as at most two fixed-size moves that overlap,
// never touching src or dst past w: a partial-width tile moves a few
// floats per C row or panel row, where a variable-length memcpy call
// would cost more than the tile's arithmetic.
inline void copy_floats(float* dst, const float* src, index_t w) {
  auto two_moves = [&](index_t len) {
    std::memcpy(dst, src, static_cast<std::size_t>(len) * sizeof(float));
    std::memcpy(dst + w - len, src + w - len,
                static_cast<std::size_t>(len) * sizeof(float));
  };
  if (w == kVec) {
    std::memcpy(dst, src, sizeof(Vec));
  } else if (w >= 8) {
    two_moves(8);
  } else if (w >= 4) {
    two_moves(4);
  } else if (w >= 2) {
    two_moves(2);
  } else {
    std::memcpy(dst, src, sizeof(float));
  }
}

// The register tile every GEMM runs on: C rows [0, R) x columns [0, jr)
// of `pc` (row stride ldc), NV = 2 for 16 < jr <= 32, else NV = 1. The
// R*NV accumulators are Vec values that stay in registers for the
// whole contraction. Vector 0 covers columns [0, 16); vector 1 covers
// [jr - 16, jr), overlapping vector 0 when jr < 32, so every B load and
// C access is a full vector inside the tile's columns. Only a tile
// narrower than one vector (jr < 16, which happens only when all of C
// is narrower) is partial: it reads B from a zero-padded panel and
// moves just jr floats of C. B row p starts at pb + p*bstride.
// `load_a(p, r)` is the A element for C row r — the only difference
// between row-major A (NN, NT) and transposed A (TN).
//
// Each C element's chain is fixed: it starts at 0.0f — or, with Acc, at
// C's current value — and adds a*b over ascending p, the order of a
// naive triple loop. R, NV, the tile's columns and the overlap never
// change it: an overlapped column is the same chain twice, stored twice
// with the same bits, and both vectors read C before either writes it.
// With Acc, splitting the contraction into segments and chaining calls
// is therefore bit-identical to one pass: the exact-reassociation
// property behind the crossbar column tiling (pim/tiling.h) and TN's
// segment blocking.
template <int R, int NV, bool Acc, typename LoadA>
inline void mul_tile(const LoadA& load_a, const float* pb, index_t bstride,
                     float* pc, index_t ldc, index_t jr, index_t k) {
  const index_t off[2] = {0, jr - kVec};  // column of each vector
  const index_t w0 = std::min(jr, kVec);  // live lanes of vector 0
  // The accumulators' addresses are never taken (C moves through a
  // temporary), so the compiler keeps all R*NV of them in registers.
  Vec acc[R][NV];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < NV; ++v) {
      Vec c0 = {};
      if (Acc) {
        copy_floats(reinterpret_cast<float*>(&c0), pc + r * ldc + off[v],
                    v == 0 ? w0 : kVec);
      }
      acc[r][v] = c0;
    }
  }
  for (index_t p = 0; p < k; ++p) {
    const float* brow = pb + p * bstride;
    Vec b[NV];
    for (int v = 0; v < NV; ++v) {
      std::memcpy(&b[v], brow + off[v], sizeof(Vec));
    }
    for (int r = 0; r < R; ++r) {
      const float a = load_a(p, r);
      for (int v = 0; v < NV; ++v) acc[r][v] += a * b[v];
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < NV; ++v) {
      const Vec c1 = acc[r][v];
      copy_floats(pc + r * ldc + off[v], reinterpret_cast<const float*>(&c1),
                  v == 0 ? w0 : kVec);
    }
  }
}

template <int NV, bool Acc, typename LoadA>
void mul_tile_rows(const LoadA& load_a, index_t rows, const float* pb,
                   index_t bstride, float* pc, index_t ldc, index_t jr,
                   index_t k) {
  switch (rows) {
    case 4: return mul_tile<4, NV, Acc>(load_a, pb, bstride, pc, ldc, jr, k);
    case 3: return mul_tile<3, NV, Acc>(load_a, pb, bstride, pc, ldc, jr, k);
    case 2: return mul_tile<2, NV, Acc>(load_a, pb, bstride, pc, ldc, jr, k);
    default: return mul_tile<1, NV, Acc>(load_a, pb, bstride, pc, ldc, jr, k);
  }
}

// One row band (1..kRowBlock rows) by one tile of jr <= kJTile columns,
// with the row and vector counts as compile-time constants.
template <bool Acc, typename LoadA>
void mul_band(const LoadA& load_a, index_t rows, const float* pb,
              index_t bstride, float* pc, index_t ldc, index_t jr,
              index_t k) {
  if (jr > kVec) {
    mul_tile_rows<2, Acc>(load_a, rows, pb, bstride, pc, ldc, jr, k);
  } else {
    mul_tile_rows<1, Acc>(load_a, rows, pb, bstride, pc, ldc, jr, k);
  }
}

// The one column plan of every GEMM: fn(t, j0, jr) for tile t covering C
// columns [j0, j0 + jr). Tiles are 32 wide, then 16 where 16 divides the
// rest. Otherwise the last tile takes 17..31 columns (the last n % 32,
// plus 16 when that is under 16) and its two vectors overlap. Only
// n < 16 gives a tile narrower than a vector.
template <typename Fn>
void for_each_col_tile(index_t n, Fn&& fn) {
  const index_t rem = n % kJTile;
  const index_t last =
      n < kVec || n % kVec == 0 ? 0 : (rem > kVec ? rem : rem + kVec);
  index_t t = 0, j0 = 0;
  for (; j0 < n - last; j0 += kJTile) {
    fn(t++, j0, std::min(kJTile, n - last - j0));
  }
  if (last > 0) fn(t, n - last, last);
}

index_t col_tile_count(index_t n) {
  index_t count = 0;
  for_each_col_tile(n, [&](index_t, index_t, index_t) { ++count; });
  return count;
}

// Row-major B {k, n} with n < 16 copied into a zero-padded {k, 16} panel,
// so the one partial-width tile reads full vectors without touching B
// past column n. thread_local: reused across calls and safe under
// parallel_for.
const float* pack_narrow_panel(const float* pb, index_t k, index_t n) {
  thread_local std::vector<float> panel;
  panel.assign(static_cast<std::size_t>(k * kVec), 0.0f);
  for (index_t p = 0; p < k; ++p) {
    copy_floats(panel.data() + p * kVec, pb + p * n, n);
  }
  return panel.data();
}

// C rows [i0,i1) (+)= A rows * B for row-major B {k, n}, reading B in
// place (or through the narrow panel when n < 16). `band_a(i)` returns
// the LoadA of the row band starting at C row i. Row bands outermost: a
// band's A rows stay hot while B streams.
template <bool Acc, typename BandA>
void gemm_b_rows(const BandA& band_a, const float* pb, float* pc, index_t i0,
                 index_t i1, index_t k, index_t n) {
  const bool narrow = n < kVec;
  const float* pbt = narrow ? pack_narrow_panel(pb, k, n) : pb;
  const index_t bstride = narrow ? kVec : n;
  for (index_t i = i0; i < i1; i += kRowBlock) {
    const index_t rows = std::min(kRowBlock, i1 - i);
    const auto load_a = band_a(i);
    for_each_col_tile(n, [&](index_t, index_t j0, index_t jr) {
      mul_band<Acc>(load_a, rows, pbt + j0, bstride, pc + i * n + j0, n, jr,
                    k);
    });
  }
}

// C rows [i0,i1) = A rows * B  (A {m,k} row-major, B {k,n} row-major).
void gemm_nn_rows(const float* pa, const float* pb, float* pc, index_t i0,
                  index_t i1, index_t k, index_t n) {
  auto band_a = [=](index_t i) {
    const float* a0 = pa + i * k;
    return [=](index_t p, index_t r) { return a0[r * k + p]; };
  };
  gemm_b_rows<false>(band_a, pb, pc, i0, i1, k, n);
}

// C rows [i0,i1) = A^T rows * B  (A {k,m}, B {k,n}, both row-major), one
// contraction segment at a time: the first segment starts each chain at
// 0.0f, the later ones continue it from C (Acc), bit-identical to one
// pass. k == 0 still runs one (empty) segment so C is zero-filled.
void gemm_tn_rows(const float* pa, const float* pb, float* pc, index_t i0,
                  index_t i1, index_t k, index_t m, index_t n) {
  const index_t seg = std::max<index_t>(1, kTnSegmentFloats / (n + kVec));
  for (index_t p0 = 0; p0 == 0 || p0 < k; p0 += seg) {
    const index_t kk = std::min(seg, k - p0);
    auto band_a = [=](index_t i) {
      const float* a0 = pa + p0 * m + i;
      return [=](index_t p, index_t r) { return a0[p * m + r]; };
    };
    if (p0 == 0) {
      gemm_b_rows<false>(band_a, pb, pc, i0, i1, kk, n);
    } else {
      gemm_b_rows<true>(band_a, pb + p0 * n, pc, i0, i1, kk, n);
    }
  }
}

// Transpose the columns [j0, j0 + jr) of B {n, k} into a packed
// {k, kJTile} panel, zero-padding past jr, so the register tile reads
// full vectors. The pack depends only on (B, j0, jr), never on the row
// range, so results stay thread-count independent no matter who packs.
void pack_nt_panel(const float* pb, index_t k, index_t j0, index_t jr,
                   float* pk) {
  for (index_t jj = 0; jj < jr; ++jj) {
    const float* brow = pb + (j0 + jj) * k;
    for (index_t p = 0; p < k; ++p) pk[p * kJTile + jj] = brow[p];
  }
  if (jr < kJTile) {
    for (index_t p = 0; p < k; ++p) {
      std::fill(pk + p * kJTile + jr, pk + (p + 1) * kJTile, 0.0f);
    }
  }
}

// C rows [i0,i1) = A rows * B_packed^T over one packed panel; with Acc
// the per-element chain continues from C's current values.
template <bool Acc = false>
void gemm_nt_panel_rows(const float* pa, const float* pk, float* pc,
                        index_t i0, index_t i1, index_t j0, index_t jr,
                        index_t k, index_t n) {
  for (index_t i = i0; i < i1; i += kRowBlock) {
    const float* a0 = pa + i * k;
    auto load_a = [=](index_t p, index_t r) { return a0[r * k + p]; };
    mul_band<Acc>(load_a, std::min(kRowBlock, i1 - i), pk, kJTile,
                  pc + i * n + j0, n, jr, k);
  }
}

// C rows [i0,i1) = A rows * B^T  (A {m,k}, B {n,k}, both row-major),
// packing each panel locally — for callers that process the whole row
// range in one call (the grouped/batched paths pack once per group).
template <bool Acc = false>
void gemm_nt_rows(const float* pa, const float* pb, float* pc, index_t i0,
                  index_t i1, index_t k, index_t n) {
  // thread_local: reused across the many small NT GEMMs of an eval loop
  // without a heap allocation per call, and safe under parallel_for.
  thread_local std::vector<float> pack;
  pack.resize(static_cast<std::size_t>(k * kJTile));
  for_each_col_tile(n, [&](index_t, index_t j0, index_t jr) {
    pack_nt_panel(pb, k, j0, jr, pack.data());
    gemm_nt_panel_rows<Acc>(pa, pack.data(), pc, i0, i1, j0, jr, k, n);
  });
}

// Row-partition dispatch: grain sized so each chunk carries at least
// kMinMacsPerChunk of work, rounded up to kRowBlock so every chunk but
// the last is made of full-height tiles.
template <typename Core>
void launch_rows(index_t m, index_t macs_per_row, Core&& core) {
  if (m <= 0) return;
  if (m * macs_per_row < kSerialMacs) {
    core(index_t{0}, m);
    return;
  }
  index_t grain =
      (kMinMacsPerChunk + macs_per_row - 1) / std::max<index_t>(1, macs_per_row);
  grain = ((std::max<index_t>(grain, 1) + kRowBlock - 1) / kRowBlock) * kRowBlock;
  parallel_for(index_t{0}, m, grain, core);
}

// Shared body of matmul_nt_into / matmul_nt_acc_into: serial cutoff,
// pack every B panel once up front so row-split worker threads share the
// transposed panels, then the row-partition sweep. One definition keeps
// the overwrite and accumulate paths schedule-identical — the chained
// bit-equality contract of the acc form depends on that.
template <bool Acc>
void gemm_nt_dispatch(const float* pa, const float* pb, float* pc, index_t m,
                      index_t k, index_t n) {
  if (m * k * n < kSerialMacs) {
    gemm_nt_rows<Acc>(pa, pb, pc, index_t{0}, m, k, n);
    return;
  }
  // thread_local (one buffer per Acc instantiation): reused by the many
  // same-shape NT GEMMs of an eval or training loop without a heap
  // allocation per call.
  const index_t npanels = col_tile_count(n);
  thread_local std::vector<float> pack;
  if (pack.size() < static_cast<std::size_t>(npanels * k * kJTile)) {
    pack.resize(static_cast<std::size_t>(npanels * k * kJTile));
  }
  for_each_col_tile(n, [&](index_t t, index_t j0, index_t jr) {
    pack_nt_panel(pb, k, j0, jr, pack.data() + t * k * kJTile);
  });
  const float* pk_all = pack.data();
  launch_rows(m, k * n, [=](index_t i0, index_t i1) {
    for_each_col_tile(n, [&](index_t t, index_t j0, index_t jr) {
      gemm_nt_panel_rows<Acc>(pa, pk_all + t * k * kJTile, pc, i0, i1, j0, jr,
                              k, n);
    });
  });
}

}  // namespace

void matmul_into(const Tensor& a, const Tensor& b, Tensor& c) {
  check_gemm_2d("matmul", a, b, 1, 0);
  const index_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  c.resize_for_overwrite({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  launch_rows(m, k * n, [=](index_t i0, index_t i1) {
    gemm_nn_rows(pa, pb, pc, i0, i1, k, n);
  });
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor c;
  matmul_into(a, b, c);
  return c;
}

void matmul_nt_into(const Tensor& a, const Tensor& b, Tensor& c) {
  check_gemm_2d("matmul_nt", a, b, 1, 1);
  const index_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  c.resize_for_overwrite({m, n});
  gemm_nt_dispatch<false>(a.data(), b.data(), c.data(), m, k, n);
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  Tensor c;
  matmul_nt_into(a, b, c);
  return c;
}

void matmul_nt_acc_into(const Tensor& a, const Tensor& b, Tensor& c) {
  check_gemm_2d("matmul_nt_acc", a, b, 1, 1);
  const index_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  if (c.ndim() != 2 || c.dim(0) != m || c.dim(1) != n) {
    throw std::invalid_argument(
        "matmul_nt_acc: C must be pre-sized to {m,n}, got " + shape_str(c) +
        " for " + shape_str(a) + " * " + shape_str(b) + "^T");
  }
  gemm_nt_dispatch<true>(a.data(), b.data(), c.data(), m, k, n);
}

void matmul_tn_into(const Tensor& a, const Tensor& b, Tensor& c) {
  check_gemm_2d("matmul_tn", a, b, 0, 0);
  const index_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  c.resize_for_overwrite({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  launch_rows(m, k * n, [=](index_t i0, index_t i1) {
    gemm_tn_rows(pa, pb, pc, i0, i1, k, m, n);
  });
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  Tensor c;
  matmul_tn_into(a, b, c);
  return c;
}

void matmul_nt_shared_into(const Tensor& a, const Tensor& b, index_t groups,
                           Tensor& c) {
  check_gemm_2d("matmul_nt_shared", a, b, 1, 1);
  if (groups < 1) {
    throw std::invalid_argument("matmul_nt_shared: groups must be >= 1");
  }
  if (b.dim(0) % groups != 0) {
    throw std::invalid_argument(
        "matmul_nt_shared: B rows not divisible by groups, got " + shape_str(b) +
        " with groups=" + std::to_string(groups));
  }
  const index_t rows = a.dim(0), k = a.dim(1), n = b.dim(0) / groups;
  c.resize_for_overwrite({groups * rows, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // Each group goes through the full NT dispatch: a group big enough to
  // clear the serial cutoff splits its rows as a NESTED job on the same
  // pool, so group x row parallelism composes without oversubscription
  // (nested dispatches enqueue; the worker budget never multiplies).
  // Either split is bit-identical by the chunking contract.
  auto run = [=](index_t g0, index_t g1) {
    for (index_t g = g0; g < g1; ++g) {
      gemm_nt_dispatch<false>(pa, pb + g * n * k, pc + g * rows * n, rows, k, n);
    }
  };
  if (groups * rows * k * n < kSerialMacs) {
    run(index_t{0}, groups);  // too small to pay a pool dispatch
  } else {
    parallel_for(index_t{0}, groups, index_t{1}, run);
  }
}

Tensor matmul_nt_shared(const Tensor& a, const Tensor& b, index_t groups) {
  Tensor c;
  matmul_nt_shared_into(a, b, groups, c);
  return c;
}

void matmul_nt_batched_into(const Tensor& a, const Tensor& b, index_t groups,
                            Tensor& c) {
  check_gemm_2d("matmul_nt_batched", a, b, 1, 1);
  if (groups < 1) {
    throw std::invalid_argument("matmul_nt_batched: groups must be >= 1");
  }
  if (a.dim(0) % groups != 0 || b.dim(0) % groups != 0) {
    throw std::invalid_argument(
        "matmul_nt_batched: rows not divisible by groups, got " + shape_str(a) +
        " and " + shape_str(b) + " with groups=" + std::to_string(groups));
  }
  const index_t rows = a.dim(0) / groups;  // rows per group
  const index_t k = a.dim(1), n = b.dim(0) / groups;
  c.resize_for_overwrite({a.dim(0), n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // Parallelize across groups with the same local row origin as a
  // standalone matmul_nt, so per-block results are bit-identical to
  // per-group calls. Each group runs the full NT dispatch: big groups
  // split their rows as a NESTED pool job (chip batch x GEMM rows share
  // one worker budget — nested dispatches enqueue, never spawn).
  auto run = [=](index_t g0, index_t g1) {
    for (index_t g = g0; g < g1; ++g) {
      gemm_nt_dispatch<false>(pa + g * rows * k, pb + g * n * k,
                              pc + g * rows * n, rows, k, n);
    }
  };
  if (groups * rows * k * n < kSerialMacs) {
    run(index_t{0}, groups);  // too small to pay a pool dispatch
  } else {
    parallel_for(index_t{0}, groups, index_t{1}, run);
  }
}

Tensor matmul_nt_batched(const Tensor& a, const Tensor& b, index_t groups) {
  Tensor c;
  matmul_nt_batched_into(a, b, groups, c);
  return c;
}

void fill_normal(Tensor& t, Rng& rng) { fill_normal(t, rng, 0.0, 1.0); }

void fill_normal(Tensor& t, Rng& rng, double mean, double stddev) {
  float* p = t.data();
  for (index_t i = 0; i < t.size(); ++i) {
    p[i] = static_cast<float>(rng.normal(mean, stddev));
  }
}

void fill_uniform(Tensor& t, Rng& rng, double lo, double hi) {
  float* p = t.data();
  for (index_t i = 0; i < t.size(); ++i) {
    p[i] = static_cast<float>(rng.uniform(lo, hi));
  }
}

void relu_inplace(Tensor& x, Tensor* mask) {
  if (mask != nullptr) mask->resize_for_overwrite(x.shape());
  float* p = x.data();
  float* m = mask != nullptr ? mask->data() : nullptr;
  parallel_for_elems(x.size(), [p, m](index_t i0, index_t i1) {
    if (m != nullptr) {
      for (index_t i = i0; i < i1; ++i) {
        const bool pos = p[i] > 0.0f;
        if (!pos) p[i] = 0.0f;
        m[i] = pos ? 1.0f : 0.0f;
      }
    } else {
      QAVAT_SIMD
      for (index_t i = i0; i < i1; ++i) {
        if (p[i] < 0.0f) p[i] = 0.0f;
      }
    }
  });
}

void scale(float* p, index_t n, float s) {
  parallel_for_elems(n, [p, s](index_t i0, index_t i1) {
    QAVAT_SIMD
    for (index_t i = i0; i < i1; ++i) p[i] *= s;
  });
}

void scale(Tensor& t, float s) { scale(t.data(), t.size(), s); }

double softmax_xent(const Tensor& logits, const std::vector<index_t>& labels,
                    Tensor* grad, index_t* correct) {
  assert(logits.ndim() == 2);
  const index_t n = logits.dim(0), c = logits.dim(1);
  assert(static_cast<index_t>(labels.size()) == n);
  if (grad != nullptr) grad->resize(logits.shape());
  double loss = 0.0;
  index_t hits = 0;
  const float* pl = logits.data();
  for (index_t i = 0; i < n; ++i) {
    const float* row = pl + i * c;
    float mx = row[0];
    index_t arg = 0;
    for (index_t j = 1; j < c; ++j) {
      if (row[j] > mx) {
        mx = row[j];
        arg = j;
      }
    }
    if (arg == labels[static_cast<std::size_t>(i)]) ++hits;
    double z = 0.0;
    for (index_t j = 0; j < c; ++j) z += std::exp(static_cast<double>(row[j] - mx));
    const index_t y = labels[static_cast<std::size_t>(i)];
    const double logp = static_cast<double>(row[y] - mx) - std::log(z);
    loss -= logp;
    if (grad != nullptr) {
      float* grow = grad->data() + i * c;
      for (index_t j = 0; j < c; ++j) {
        const double p = std::exp(static_cast<double>(row[j] - mx)) / z;
        grow[j] = static_cast<float>((p - (j == y ? 1.0 : 0.0)) /
                                     static_cast<double>(n));
      }
    }
  }
  if (correct != nullptr) *correct = hits;
  return loss / static_cast<double>(n);
}

}  // namespace qavat
