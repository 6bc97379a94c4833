#include "tensor/workspace.h"

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <thread>

namespace qavat {

namespace {

std::size_t this_thread_key() {
  // Nonzero hash of the calling thread's id (0 is the "no driver"
  // sentinel).
  const std::size_t h = std::hash<std::thread::id>{}(std::this_thread::get_id());
  return h == 0 ? std::size_t{1} : h;
}

}  // namespace

Workspace::DriverScope::DriverScope(Workspace& ws) : ws_(ws) {
  const std::size_t self = this_thread_key();
  if (ws_.scope_depth_.fetch_add(1, std::memory_order_relaxed) == 0) {
    ws_.driver_.store(self, std::memory_order_relaxed);
  } else if (ws_.driver_.load(std::memory_order_relaxed) != self) {
    std::fprintf(stderr,
                 "qavat: Workspace driver violation: a second thread opened a "
                 "DriverScope while another thread's pass is live (one "
                 "workspace = one driver thread; see tensor/workspace.h)\n");
    std::abort();
  }
}

Workspace::DriverScope::~DriverScope() {
  if (ws_.scope_depth_.fetch_sub(1, std::memory_order_relaxed) == 1) {
    ws_.driver_.store(0, std::memory_order_relaxed);
  }
}

void Workspace::check_driver(const char* what) const {
  if (scope_depth_.load(std::memory_order_relaxed) > 0 &&
      driver_.load(std::memory_order_relaxed) != this_thread_key()) {
    std::fprintf(stderr,
                 "qavat: Workspace driver violation: %s called from a thread "
                 "other than the live DriverScope's driver (pool workers must "
                 "not touch the arena; pre-acquire scratch serially — see "
                 "tensor/workspace.h)\n",
                 what);
    std::abort();
  }
}

Tensor& Workspace::acquire(const void* owner, int slot,
                           std::vector<index_t> shape) {
  check_driver("acquire");
  Entry& e = slots_[{owner, slot}];
  // Re-sync from the tensor's CURRENT size before subtracting: a caller
  // may have resized the borrowed tensor after the last acquire (e.g. a
  // kernel sizing its own output), and subtracting a stale record would
  // underflow the counter.
  retained_bytes_ -= e.bytes;
  e.t.resize_for_overwrite(std::move(shape));
  e.tick = ++clock_;
  e.bytes = static_cast<std::size_t>(e.t.size()) * sizeof(float);
  retained_bytes_ += e.bytes;
  return e.t;
}

void Workspace::trim(std::size_t cap_bytes) {
  check_driver("trim");
  // Refresh byte records first (callers may have grown borrowed tensors
  // since their acquire), so the cap applies to what is actually held.
  std::size_t total = 0;
  for (auto& kv : slots_) {
    kv.second.bytes = static_cast<std::size_t>(kv.second.t.size()) * sizeof(float);
    total += kv.second.bytes;
  }
  retained_bytes_ = total;
  while (retained_bytes_ > cap_bytes && !slots_.empty()) {
    auto lru = slots_.begin();
    for (auto it = slots_.begin(); it != slots_.end(); ++it) {
      if (it->second.tick < lru->second.tick) lru = it;
    }
    retained_bytes_ -= lru->second.bytes;
    slots_.erase(lru);
  }
}

void Workspace::release(const void* owner) {
  // Keys sort by owner pointer first, so the owner's slots are one
  // contiguous map range. retained_bytes_ is the sum of the recorded
  // per-entry shares, so subtracting each record keeps it exact.
  auto it = slots_.lower_bound({owner, std::numeric_limits<int>::min()});
  while (it != slots_.end() && it->first.first == owner) {
    retained_bytes_ -= it->second.bytes;
    it = slots_.erase(it);
  }
}

}  // namespace qavat
