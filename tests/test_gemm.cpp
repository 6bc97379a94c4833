// Tier-1: the tiled/threaded GEMM layer against a naive reference across
// odd/non-tile-multiple shapes and all three transpose variants, the
// always-on shape checks (must throw in Release builds too), thread-count
// bit-identity, the grouped (noise-batched) NT kernel, and the
// chain-invariance contract of the register-tile engine.
#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "tensor/ops.h"
#include "tensor/parallel_for.h"
#include "tests/test_common.h"

using namespace qavat;

namespace {

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const index_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (index_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[i * k + p]) * static_cast<double>(b[p * n + j]);
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
  return c;
}

Tensor transpose(const Tensor& a) {
  const index_t m = a.dim(0), n = a.dim(1);
  Tensor t({n, m});
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) t[j * m + i] = a[i * n + j];
  }
  return t;
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  double m = 0.0;
  for (index_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(static_cast<double>(a[i]) - static_cast<double>(b[i])));
  }
  return m;
}

bool bit_identical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

// Max |reference| so tolerances scale with the contraction length.
double scale_of(const Tensor& t) {
  double s = 1.0;
  for (index_t i = 0; i < t.size(); ++i) {
    s = std::max(s, std::fabs(static_cast<double>(t[i])));
  }
  return s;
}

void check_all_variants(index_t m, index_t k, index_t n, Rng& rng) {
  Tensor a({m, k}), b({k, n});
  fill_normal(a, rng);
  fill_normal(b, rng);
  Tensor ref = naive_matmul(a, b);
  const double tol = 1e-5 * scale_of(ref) * std::sqrt(static_cast<double>(k));

  Tensor c = matmul(a, b);
  CHECK(c.shape() == ref.shape());
  CHECK(max_abs_diff(c, ref) < tol);
  CHECK(max_abs_diff(matmul_nt(a, transpose(b)), ref) < tol);
  CHECK(max_abs_diff(matmul_tn(transpose(a), b), ref) < tol);
}

// Leading `cols` columns / `rows` rows of a row-major 2-D tensor.
Tensor leading_cols(const Tensor& t, index_t cols) {
  const index_t r = t.dim(0), c = t.dim(1);
  Tensor s({r, cols});
  for (index_t i = 0; i < r; ++i) {
    std::memcpy(s.data() + i * cols, t.data() + i * c,
                static_cast<std::size_t>(cols) * sizeof(float));
  }
  return s;
}

Tensor leading_rows(const Tensor& t, index_t rows) {
  Tensor s({rows, t.dim(1)});
  std::memcpy(s.data(), t.data(),
              static_cast<std::size_t>(rows * t.dim(1)) * sizeof(float));
  return s;
}

// Chain invariance: every C element is the same FMA chain (from 0.0f,
// ascending over the contraction) whichever transpose variant, tile
// width or row band produced it. So (a) NN, NT and TN agree bit for bit,
// and (b) a column slice of B or a row slice of A reproduces the bits of
// the full product — a narrower slice moves an element between full
// tiles, the overlapping last tile, the partial tile of a C narrower
// than 16 columns and the 1..3-row remainder band.
void check_chain_invariance(index_t m, index_t k, index_t n, Rng& rng) {
  Tensor a({m, k}), b({k, n});
  fill_normal(a, rng);
  fill_normal(b, rng);
  const Tensor at = transpose(a), bt = transpose(b);
  const Tensor c = matmul(a, b);
  CHECK(bit_identical(matmul_nt(a, bt), c));
  CHECK(bit_identical(matmul_tn(at, b), c));
  // matmul_acc_into over the contraction cut into `groups` column blocks
  // of A (stored back to back) and the matching row blocks of B.
  for (index_t groups : {index_t{1}, index_t{3}}) {
    if (k % groups != 0) continue;
    const index_t kg = k / groups;
    Tensor blocks({groups, m, kg});
    for (index_t g = 0; g < groups; ++g) {
      for (index_t i = 0; i < m; ++i) {
        std::memcpy(blocks.data() + (g * m + i) * kg, a.data() + i * k + g * kg,
                    static_cast<std::size_t>(kg) * sizeof(float));
      }
    }
    Tensor acc({m, n});
    matmul_acc_into(blocks, b, groups, acc);
    CHECK(bit_identical(acc, c));
  }
  for (index_t j : {index_t{1}, n / 2, n - 1}) {
    if (j < 1 || j >= n) continue;
    const Tensor cj = leading_cols(c, j), bj = leading_cols(b, j);
    CHECK(bit_identical(matmul(a, bj), cj));
    CHECK(bit_identical(matmul_nt(a, leading_rows(bt, j)), cj));
    CHECK(bit_identical(matmul_tn(at, bj), cj));
  }
  for (index_t i : {index_t{1}, m / 2, m - 1}) {
    if (i < 1 || i >= m) continue;
    const Tensor ci = leading_rows(c, i), ai = leading_rows(a, i);
    CHECK(bit_identical(matmul(ai, b), ci));
    CHECK(bit_identical(matmul_nt(ai, bt), ci));
    CHECK(bit_identical(matmul_tn(leading_cols(at, i), b), ci));
  }
}

template <typename Fn>
bool throws_invalid_argument(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument&) {
    return true;
  } catch (...) {
    return false;
  }
  return false;
}

}  // namespace

int main() {
  Rng rng(42);

  // Odd / non-tile-multiple shapes around the register (4) and column (64)
  // tile sizes, plus degenerate and skinny cases.
  const index_t shapes[][3] = {
      {1, 1, 1},   {3, 5, 7},    {7, 13, 5},  {4, 4, 4},    {16, 16, 16},
      {17, 31, 9}, {64, 48, 33}, {5, 257, 3}, {33, 1, 65},  {1, 96, 130},
      {66, 66, 66}, {31, 7, 127},
  };
  for (const auto& s : shapes) check_all_variants(s[0], s[1], s[2], rng);

  // Shape mismatches throw std::invalid_argument in EVERY build type
  // (the old assert-only checks compiled out under NDEBUG).
  Tensor a23({2, 3}), b45({4, 5}), v3({3});
  CHECK(throws_invalid_argument([&] { matmul(a23, b45); }));
  CHECK(throws_invalid_argument([&] { matmul(a23, v3); }));
  CHECK(throws_invalid_argument([&] { matmul_nt(a23, b45); }));
  CHECK(throws_invalid_argument([&] { matmul_tn(a23, b45); }));
  CHECK(throws_invalid_argument([&] { matmul_nt_batched(a23, a23, 0); }));
  {
    Tensor a63({6, 3}), b43({4, 3});
    CHECK(throws_invalid_argument([&] { matmul_nt_batched(a63, b43, 4); }));
  }
  {
    // matmul_acc_into: A must be {groups, m, ...} holding groups*m*k
    // floats, B {groups*k, n}, C a pre-sized {m, n}.
    Tensor a234({2, 3, 4}), b85({8, 5}), c35({3, 5}), c25({2, 5});
    matmul_acc_into(a234, b85, 2, c35);
    CHECK(throws_invalid_argument([&] { matmul_acc_into(a234, b85, 2, c25); }));
    CHECK(throws_invalid_argument([&] { matmul_acc_into(a234, b85, 4, c35); }));
    CHECK(throws_invalid_argument([&] { matmul_acc_into(a234, b45, 2, c35); }));
    CHECK(throws_invalid_argument([&] { matmul_acc_into(a23, b85, 1, c35); }));
  }

  // Zero entries must not change the accumulation order: a GEMM where some
  // weights are exactly 0 must equal the same GEMM with those positions
  // contributing 0.0f products (no value-dependent skip branch).
  {
    Tensor a({9, 33}), b({33, 17});
    fill_normal(a, rng);
    fill_normal(b, rng);
    for (index_t i = 0; i < a.size(); i += 3) a[i] = 0.0f;
    Tensor dense = naive_matmul(a, b);
    CHECK(max_abs_diff(matmul(a, b), dense) <
          1e-5 * scale_of(dense) * std::sqrt(33.0));
  }

  // Thread-count bit-identity: the same product computed with 1, 2, 3 and
  // 5 threads must match bit for bit (deterministic row partitioning).
  {
    const index_t saved = num_threads();
    Tensor a({67, 129}), b({129, 43});
    fill_normal(a, rng);
    fill_normal(b, rng);
    Tensor bt = transpose(b);
    Tensor at = transpose(a);
    set_num_threads(1);
    Tensor c1 = matmul(a, b), c1nt = matmul_nt(a, bt), c1tn = matmul_tn(at, b);
    for (index_t nt : {2, 3, 5}) {
      set_num_threads(nt);
      CHECK(bit_identical(matmul(a, b), c1));
      CHECK(bit_identical(matmul_nt(a, bt), c1nt));
      CHECK(bit_identical(matmul_tn(at, b), c1tn));
    }
    set_num_threads(saved);
  }

  // Grouped NT GEMM == per-group matmul_nt, bit for bit, for any thread
  // count (this is the batched Monte-Carlo effective-weight path).
  {
    const index_t saved = num_threads();
    const index_t groups = 3, rows = 5, k = 37, n = 11;
    Tensor a({groups * rows, k}), b({groups * n, k});
    fill_normal(a, rng);
    fill_normal(b, rng);
    for (index_t nt : {1, 4}) {
      set_num_threads(nt);
      Tensor c = matmul_nt_batched(a, b, groups);
      CHECK(c.dim(0) == groups * rows && c.dim(1) == n);
      for (index_t g = 0; g < groups; ++g) {
        Tensor ag({rows, k}), bg({n, k});
        std::memcpy(ag.data(), a.data() + g * rows * k,
                    static_cast<std::size_t>(rows * k) * sizeof(float));
        std::memcpy(bg.data(), b.data() + g * n * k,
                    static_cast<std::size_t>(n * k) * sizeof(float));
        Tensor cg = matmul_nt(ag, bg);
        CHECK(std::memcmp(c.data() + g * rows * n, cg.data(),
                          static_cast<std::size_t>(rows * n) * sizeof(float)) == 0);
      }
    }
    set_num_threads(saved);
  }

  // Chain invariance at both thread budgets. Column counts straddle the
  // 16-float vector and the 32-column tile; row counts are never a
  // multiple of the 4-row band. The small (m, k) runs serially, the
  // large one splits its rows across the pool.
  {
    const index_t saved = num_threads();
    const index_t widths[] = {1, 3, 10, 16, 27, 33, 40, 84, 144, 288};
    for (index_t nt : {1, 4}) {
      set_num_threads(nt);
      for (index_t n : widths) {
        check_chain_invariance(7, 37, n, rng);
        check_chain_invariance(203, 129, n, rng);
      }
      // TN splits its contraction into row segments of
      // max(1, 2^16 / (n + 16)) rows (tensor/ops.cpp), chained through
      // C; a contraction one row short of, at and past a segment
      // boundary must chain exactly.
      for (index_t n : {index_t{10}, index_t{27}, index_t{40}, index_t{288}}) {
        const index_t seg =
            std::max<index_t>(1, (index_t{1} << 16) / (n + 16));
        for (index_t k = seg - 1; k <= seg + 1; ++k) {
          check_chain_invariance(19, k, n, rng);
        }
      }
    }
    set_num_threads(saved);
  }

  return qavat::test::finish("test_gemm");
}
