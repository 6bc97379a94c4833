#include "tensor/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "tensor/parallel_for.h"

namespace qavat {

namespace {

// One parallel dispatch. Lives on the dispatching thread's stack for the
// duration of ThreadPool::run() — run() returns only after `remaining`
// hits zero, so queued Tasks can hold a raw pointer.
struct Job {
  ThreadPool::SpanFn fn = nullptr;
  void* ctx = nullptr;
  index_t begin = 0;
  index_t end = 0;
  index_t grain = 1;
  index_t nchunks = 0;
  index_t nspans = 0;
  index_t remaining = 0;               // spans not yet finished (pool mutex)
  std::exception_ptr error;            // first span failure (pool mutex)
  std::atomic<bool> cancelled{false};  // set with `error`: skip later spans
};

// A claimable unit of work: one span of one job.
struct Task {
  Job* job = nullptr;
  index_t span = 0;
};

// Index of the deque this thread owns: workers get their own, every
// other thread (main, or any thread outside the pool) shares the
// external deque at the back of the deque array (signalled by -1 here).
thread_local int tl_deque = -1;
// Nesting depth of span execution on this thread; drives
// detail::in_parallel_region().
thread_local int tl_span_depth = 0;

// How long an idle worker spins polling for new work before parking on
// the condition variable: the gap between consecutive dispatches inside
// a kernel loop is microseconds, and a futex sleep/wake round trip costs
// more than the whole gap.
constexpr std::chrono::microseconds kSpin{50};

}  // namespace

struct ThreadPool::Impl {
  // One mutex guards every deque plus the job/lifecycle fields. Spans
  // are coarse by construction (the grain math in the kernels targets
  // >= 2^19 MACs per chunk), so a single lock is nowhere near
  // contended and keeps the sleep/wake logic provably race-free.
  std::mutex mu;
  std::condition_variable cv;
  // deques[i] belongs to worker i; deques.back() is the shared external
  // deque. Owners push and pop the back (LIFO: the deepest nested job
  // first, which keeps nested dispatches cache-hot and bounds in-flight
  // jobs); everyone else steals from the front (FIFO: the oldest job's
  // spans, the coarsest outstanding work).
  std::vector<std::deque<Task>> deques;
  std::vector<std::thread> threads;
  bool running = false;
  bool shutdown = false;
  // Bumped (under mu) on every push and every job completion; sleepers
  // wait for it to move. Atomic so spinning workers can poll it
  // without taking the lock.
  std::atomic<std::uint64_t> epoch{0};

  bool try_pop(int self, Task* out);
  bool try_pop_job(int self, Job* j, Task* out);
  void run_span(Job* job, index_t span);
  void worker_main(int idx);
  void start_locked();
};

// Pop from the caller's own deque back (LIFO), else steal from the
// fronts of the others (FIFO), scanning from the neighbour onward so
// thieves spread out. Caller holds `mu`.
bool ThreadPool::Impl::try_pop(int self, Task* out) {
  const int n = static_cast<int>(deques.size());
  if (n == 0) return false;
  const int own = self >= 0 ? self : n - 1;
  if (!deques[own].empty()) {
    *out = deques[own].back();
    deques[own].pop_back();
    return true;
  }
  for (int k = 1; k < n; ++k) {
    const int victim = (own + k) % n;
    if (!deques[victim].empty()) {
      *out = deques[victim].front();
      deques[victim].pop_front();
      return true;
    }
  }
  return false;
}

// Pop the newest queued span OF JOB `j` from the caller's own deque.
// Used by the dispatcher's help loop in run(): a waiting dispatcher may
// execute only spans of the job it is waiting on. Running an arbitrary
// task there would interleave a second kernel onto a call stack whose
// suspended dispatch still has per-thread scratch live (e.g. the GEMM's
// thread_local pack panel, which in-flight spans of the suspended job
// read from other threads) — a silent data race. All still-queued spans
// of `j` sit in the dispatcher's own deque (spans are pushed there at
// dispatch and a stolen span runs to completion, never re-queues), so a
// job-filtered scan of one deque finds every runnable span; the scan
// skips other threads' entries in the shared external deque. Caller
// holds `mu`.
bool ThreadPool::Impl::try_pop_job(int self, Job* j, Task* out) {
  const int n = static_cast<int>(deques.size());
  if (n == 0) return false;
  auto& dq = deques[self >= 0 ? self : n - 1];
  for (auto it = dq.rbegin(); it != dq.rend(); ++it) {
    if (it->job == j) {
      *out = *it;
      dq.erase(std::next(it).base());
      return true;
    }
  }
  return false;
}

// Execute one span: the old fork-join span math, verbatim — span s owns
// chunks [s*nchunks/nspans, (s+1)*nchunks/nspans), clamped to `end` —
// so the partition depends only on (range, grain, span count), never on
// which thread runs it. Called without `mu`.
void ThreadPool::Impl::run_span(Job* job, index_t span) {
  const index_t c0 = span * job->nchunks / job->nspans;
  const index_t c1 = (span + 1) * job->nchunks / job->nspans;
  const index_t lo = job->begin + c0 * job->grain;
  const index_t hi = std::min(job->end, job->begin + c1 * job->grain);
  if (lo < hi && !job->cancelled.load(std::memory_order_acquire)) {
    ++tl_span_depth;
    detail::set_in_parallel_region(true);
    try {
      job->fn(job->ctx, lo, hi);
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu);
      if (!job->error) {
        job->error = std::current_exception();
        job->cancelled.store(true, std::memory_order_release);
      }
    }
    if (--tl_span_depth == 0) detail::set_in_parallel_region(false);
  }
  std::lock_guard<std::mutex> lk(mu);
  if (--job->remaining == 0) {
    // The dispatcher may be asleep in run(): wake everyone so it can
    // observe completion and rethrow/return.
    epoch.fetch_add(1, std::memory_order_relaxed);
    cv.notify_all();
  }
}

void ThreadPool::Impl::worker_main(int idx) {
  tl_deque = idx;
  std::unique_lock<std::mutex> lk(mu);
  for (;;) {
    Task t;
    if (try_pop(idx, &t)) {
      lk.unlock();
      run_span(t.job, t.span);
      lk.lock();
      continue;
    }
    if (shutdown) break;  // honored only once every queue is drained
    const std::uint64_t seen = epoch.load(std::memory_order_relaxed);
    // Spin briefly (kSpin) before parking.
    lk.unlock();
    const auto deadline = std::chrono::steady_clock::now() + kSpin;
    while (epoch.load(std::memory_order_relaxed) == seen &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    lk.lock();
    if (epoch.load(std::memory_order_relaxed) != seen || shutdown) continue;
    cv.wait(lk, [&] {
      return shutdown || epoch.load(std::memory_order_relaxed) != seen;
    });
  }
}

// (Re)spawn the workers. Caller holds `mu`. This is the moment the
// thread budget is re-resolved from QAVAT_THREADS (unless pinned by
// set_num_threads(n > 0)) — the documented rule in parallel_for.h.
void ThreadPool::Impl::start_locked() {
  if (running) return;
  detail::refresh_thread_budget_from_env();
  const index_t nworkers = std::max<index_t>(index_t{0}, num_threads() - 1);
  shutdown = false;
  deques.assign(static_cast<std::size_t>(nworkers) + 1,
                std::deque<Task>());
  threads.clear();
  threads.reserve(static_cast<std::size_t>(nworkers));
  for (index_t i = 0; i < nworkers; ++i) {
    threads.emplace_back([this, i] { worker_main(static_cast<int>(i)); });
  }
  running = true;
}

ThreadPool& ThreadPool::instance() {
  // Function-local static: constructed on first dispatch; the destructor
  // joins the workers at process exit (magic statics make this
  // thread-safe).
  static ThreadPool pool;
  return pool;
}

ThreadPool::ThreadPool() : impl_(new Impl) {}

ThreadPool::~ThreadPool() { stop(); }

void ThreadPool::run(index_t begin, index_t end, index_t grain,
                     index_t nchunks, index_t nspans, SpanFn fn, void* ctx) {
  Impl& im = *impl_;
  if (nspans <= 1) {
    fn(ctx, begin, end);
    return;
  }
  Job job;
  job.fn = fn;
  job.ctx = ctx;
  job.begin = begin;
  job.end = end;
  job.grain = grain;
  job.nchunks = nchunks;
  job.nspans = nspans;
  job.remaining = nspans;
  {
    std::lock_guard<std::mutex> lk(im.mu);
    im.start_locked();
    auto& dq = im.deques[tl_deque >= 0 ? static_cast<std::size_t>(tl_deque)
                                       : im.deques.size() - 1];
    for (index_t s = 1; s < nspans; ++s) dq.push_back(Task{&job, s});
    im.epoch.fetch_add(1, std::memory_order_relaxed);
    im.cv.notify_all();
  }
  // The dispatcher always takes the first span itself — work starts
  // immediately even if every worker is busy elsewhere.
  im.run_span(&job, 0);
  // Help until the job drains — but only with spans of THIS job (see
  // try_pop_job for why unrelated tasks must not run here). This cannot
  // deadlock: every remaining span is either still in our deque
  // (runnable right now) or already executing on another thread, whose
  // completion bumps the epoch and wakes us.
  std::unique_lock<std::mutex> lk(im.mu);
  while (job.remaining > 0) {
    Task t;
    if (im.try_pop_job(tl_deque, &job, &t)) {
      lk.unlock();
      im.run_span(t.job, t.span);
      lk.lock();
      continue;
    }
    const std::uint64_t seen = im.epoch.load(std::memory_order_relaxed);
    im.cv.wait(lk, [&] {
      return job.remaining == 0 ||
             im.epoch.load(std::memory_order_relaxed) != seen;
    });
  }
  lk.unlock();
  if (job.error) std::rethrow_exception(job.error);
}

void ThreadPool::stop() {
  Impl& im = *impl_;
  std::vector<std::thread> join_me;
  {
    std::lock_guard<std::mutex> lk(im.mu);
    if (!im.running) return;
    im.shutdown = true;
    im.running = false;
    im.epoch.fetch_add(1, std::memory_order_relaxed);
    im.cv.notify_all();
    join_me.swap(im.threads);
  }
  for (std::thread& t : join_me) t.join();
}

index_t ThreadPool::live_workers() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return static_cast<index_t>(impl_->threads.size());
}

}  // namespace qavat
