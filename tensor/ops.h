// Numeric kernels over Tensor: GEMM variants, random fills, reductions,
// and the softmax/cross-entropy pair the trainer uses.
//
// Every GEMM variant runs on one register-tile engine: a tile of up to
// 4 C rows x 32 C columns whose accumulators are 16-float vectors
// (GCC/Clang vector extension, no intrinsics) held in registers for the
// whole contraction. A row width that 16 does not divide ends in a tile
// whose two vectors overlap, so every access stays a full vector inside
// the row; only a C narrower than 16 columns uses partial vectors, over
// a zero-padded copy of B. NT packs B transposed into 32-column panels;
// TN walks its contraction in L2-sized segments chained through C.
// Output rows are split across std::threads via tensor/parallel_for.h
// (QAVAT_THREADS, default hardware_concurrency).
//
// Determinism contract (relied on by tests and the Monte-Carlo evaluator):
//  * Shape checks are ALWAYS on — a dimension mismatch throws
//    std::invalid_argument in every build type; Release (NDEBUG) builds
//    fail loudly instead of reading out of bounds.
//  * Results are a pure function of the operand values and shapes. There
//    are no value-dependent branches (in particular no zero-skip), so the
//    accumulation order — ascending over the contraction dimension per
//    output element — never depends on weight sparsity.
//  * Chain invariance: each output element is one fixed chain — start at
//    0.0f and add a*b over ascending contraction index — computed by
//    exactly one thread, whatever the transpose variant, tile width, row
//    band or thread count. So results are bit-identical for any thread
//    count; matmul(a, b), matmul_nt(a, b^T) and matmul_tn(a^T, b) agree
//    bit for bit; a leading column slice of B or row slice of A
//    reproduces the same bits as the full product; and
//    matmul_nt_batched(a, b, g) is bit-identical to g independent
//    matmul_nt calls on the corresponding blocks.
#pragma once

#include "tensor/tensor.h"

namespace qavat {

/// C = A(m,k) * B(k,n).
Tensor matmul(const Tensor& a, const Tensor& b);

/// C = A(m,k) * B(n,k)^T -> (m,n).
Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// C = A(k,m)^T * B(k,n) -> (m,n).
Tensor matmul_tn(const Tensor& a, const Tensor& b);

/// Allocation-free variants: write into a caller-provided (typically
/// workspace) tensor, resized without zero-fill — every element is
/// produced by the kernel. Results are bit-identical to the returning
/// forms; `c` must not alias an operand.
void matmul_into(const Tensor& a, const Tensor& b, Tensor& c);
void matmul_nt_into(const Tensor& a, const Tensor& b, Tensor& c);
void matmul_tn_into(const Tensor& a, const Tensor& b, Tensor& c);

/// Accumulating NT GEMM: C(m,n) (+)= A(m,k) * B(n,k)^T. `c` must already
/// be {m,n} (throws otherwise; it is never resized). Each output
/// element's accumulation chain CONTINUES from c's current value with the
/// same ascending-k order as matmul_nt_into, so splitting the contraction
/// dimension into segments and chaining acc calls — zero-initialized c,
/// one call per k-segment in ascending order — is bit-identical to a
/// single full-width matmul_nt_into. This exact-reassociation guarantee
/// is the partial-sum determinism contract of the crossbar column tiling
/// (DESIGN.md §10). Thread-count independent like every GEMM here.
void matmul_nt_acc_into(const Tensor& a, const Tensor& b, Tensor& c);
void matmul_nt_batched_into(const Tensor& a, const Tensor& b, index_t groups,
                            Tensor& c);
void matmul_nt_shared_into(const Tensor& a, const Tensor& b, index_t groups,
                           Tensor& c);

/// Grouped NT GEMM over `groups` stacked blocks: A {g*rows, k} (row-major
/// groups), B {g*n, k} (one stacked weight block per group), C {g*rows, n}
/// where C block i = A block i * (B block i)^T. Groups run in parallel;
/// each block is bit-identical to matmul_nt on that block. This is the
/// noise-batched effective-weight path of the Monte-Carlo evaluator.
Tensor matmul_nt_batched(const Tensor& a, const Tensor& b, index_t groups);

/// Grouped NT GEMM with one shared A block: A {rows, k}, B {g*n, k},
/// C {g*rows, n} with C block i = A * (B block i)^T. Bit-identical to
/// matmul_nt_batched with A tiled `groups` times, without materializing
/// the tiling — used when every simulated chip sees the same input (e.g.
/// the first layer of a batched Monte-Carlo forward).
Tensor matmul_nt_shared(const Tensor& a, const Tensor& b, index_t groups);

/// Fill with iid standard normal draws.
void fill_normal(Tensor& t, Rng& rng);
/// Fill with iid N(mean, stddev) draws.
void fill_normal(Tensor& t, Rng& rng, double mean, double stddev);
/// Fill with iid uniform draws in [lo, hi).
void fill_uniform(Tensor& t, Rng& rng, double lo, double hi);

/// In-place ReLU; optionally records the pass-through mask (1 where x > 0).
void relu_inplace(Tensor& x, Tensor* mask = nullptr);

/// p[i] *= s over [0, n) — the vectorized/threaded scalar-scale kernel
/// shared by the trainer's gradient averaging, the optimizer update and
/// the self-tuning gain correction.
void scale(float* p, index_t n, float s);
/// t *= s elementwise.
void scale(Tensor& t, float s);

/// Softmax cross-entropy over logits {N, C} with integer labels.
/// Writes dL/dlogits (averaged over the batch) into `grad` when non-null.
/// Returns the mean loss; `correct` (if non-null) gets the argmax hit count.
double softmax_xent(const Tensor& logits, const std::vector<index_t>& labels,
                    Tensor* grad, index_t* correct = nullptr);

}  // namespace qavat
