#include "tensor/parallel_for.h"

#include <atomic>
#include <thread>

#include "tensor/env.h"
#include "tensor/thread_pool.h"

namespace qavat {

namespace detail {

namespace {
thread_local bool tl_in_parallel_region = false;
}  // namespace

bool in_parallel_region() { return tl_in_parallel_region; }
void set_in_parallel_region(bool on) { tl_in_parallel_region = on; }

}  // namespace detail

namespace {

index_t resolve_threads_from_env() {
  const unsigned hc = std::thread::hardware_concurrency();
  return env_int("QAVAT_THREADS", hc > 0 ? static_cast<index_t>(hc) : 1, 1,
                 512);
}

// Cached budget; 0 = unresolved (next num_threads() reads the env).
// Atomic because pool workers read it while the dispatching thread may
// be lazily resolving it; the value is stable while workers are alive
// (writes happen only with the pool stopped or at its start).
std::atomic<index_t> g_num_threads{0};
// True after set_num_threads(n > 0): the programmatic override wins
// over QAVAT_THREADS at pool restarts until set_num_threads(0) unpins.
std::atomic<bool> g_pinned{false};

}  // namespace

index_t num_threads() {
  index_t n = g_num_threads.load(std::memory_order_relaxed);
  if (n <= 0) {
    n = resolve_threads_from_env();
    g_num_threads.store(n, std::memory_order_relaxed);
  }
  return n;
}

void set_num_threads(index_t n) {
  // Restart boundary: join the workers now; the pool respawns lazily at
  // the new budget on the next dispatch.
  ThreadPool::instance().stop();
  g_num_threads.store(n > 0 ? n : 0, std::memory_order_relaxed);
  g_pinned.store(n > 0, std::memory_order_relaxed);
}

namespace detail {

void refresh_thread_budget_from_env() {
  if (!g_pinned.load(std::memory_order_relaxed)) {
    g_num_threads.store(resolve_threads_from_env(), std::memory_order_relaxed);
  }
}

}  // namespace detail

}  // namespace qavat
