// Persistent work-stealing thread pool behind parallel_for (DESIGN.md
// §13). One process-wide pool replaces the per-call std::thread fork-join
// dispatcher: workers start lazily on the first parallel dispatch, park
// on a condition variable (after a 50 µs spin) between jobs, and stay
// alive until set_num_threads() or process exit.
//
// Scheduling model: a dispatch ("job") is split into at most
// num_threads() contiguous, grain-aligned index spans — the exact
// partition the old fork-join dispatcher computed, so chunk boundaries
// depend only on (range, grain, thread count) and results stay
// bit-identical for any schedule. The dispatching thread executes the
// first span itself, queues the rest on its own deque (workers own one
// each; external threads share one), and then helps until the job
// completes — executing only spans of the job it waits on (running an
// unrelated task there would interleave a second kernel over the
// suspended dispatch's live per-thread scratch, e.g. the GEMM pack
// panel). Idle workers pop their own deque LIFO (deepest nested job
// first) and steal from other deques FIFO (oldest job's spans, the
// coarsest work). Nested
// dispatches from inside a task enqueue sub-jobs on the same pool instead
// of running inline serially, so chip-batch x GEMM-row x tile parallelism
// composes while the total worker count never exceeds num_threads().
//
// Exceptions: the first exception thrown by a span is captured, the
// job's remaining spans are cancelled (their bodies are skipped), and
// the exception rethrows from the dispatching caller.
#pragma once

#include <memory>

#include "tensor/tensor.h"

namespace qavat {

/// The process-wide persistent worker pool. parallel_for is the intended
/// entry point; the class is public for tests and benches that probe
/// pool lifecycle (restart after set_num_threads, worker counts).
class ThreadPool {
 public:
  /// Type-erased span body: fn(ctx, lo, hi) processes indices [lo, hi).
  using SpanFn = void (*)(void* ctx, index_t lo, index_t hi);

  /// The singleton pool: constructed on first use, workers joined at
  /// process exit.
  static ThreadPool& instance();

  /// Execute one dispatch: split chunks [0, nchunks) of [begin, end)
  /// (grain-aligned, measured from `begin`) into `nspans` contiguous
  /// spans — span s owns chunks [s*nchunks/nspans, (s+1)*nchunks/nspans)
  /// — run them across the pool and the calling thread, and return when
  /// all spans finished. Starts the workers on first use. Re-entrant:
  /// may be called from inside a span (nested dispatch). Rethrows the
  /// first span exception after the job drains.
  void run(index_t begin, index_t end, index_t grain, index_t nchunks,
           index_t nspans, SpanFn fn, void* ctx);

  /// Join and discard the workers (no-op when not running). Must not be
  /// called while a job is in flight. The next run() restarts the pool,
  /// re-resolving QAVAT_THREADS unless a set_num_threads(n > 0) override
  /// is pinned (the documented thread-budget rule in parallel_for.h).
  void stop();

  /// Pool worker threads currently alive (num_threads() - 1 while
  /// running, 0 after stop()); the dispatching caller is the extra hand.
  index_t live_workers() const;

 private:
  ThreadPool();
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace qavat
