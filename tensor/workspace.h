// Per-model scratch arena for the conv/eval pipeline.
//
// A forward/backward pass through a quant model needs a handful of
// transient buffers per layer (quantized activations, im2col matrices,
// 2-D GEMM outputs, permuted gradients). Allocating them per call puts a
// malloc + page-fault + zero-fill pass on every layer of every
// Monte-Carlo chip and every training step; the arena instead hands out
// persistently-sized buffers keyed by (owner, slot), so a steady-state
// pipeline (same shapes every step) performs zero heap allocation after
// the first pass.
//
// Lifetime contract:
//  * acquire(owner, slot, shape) returns a Tensor resized (without
//    zero-fill — resize_for_overwrite) to `shape`. The reference stays
//    valid until the same key is acquired again or trim() runs; callers
//    must treat the contents as unspecified and fully overwrite them.
//  * Quant layers key their transient slots on the workspace itself,
//    (ws, slot) rather than (layer, slot), so every layer of a model
//    shares one set of slots and the model retains its largest layer's
//    scratch, not the sum over layers. Such a slot's contents are dead
//    once the layer call that acquired it returns: the next layer
//    reuses (and may resize) the same buffer.
//  * Buffers that must survive BETWEEN layer calls (e.g. a conv layer's
//    im2col cache consumed by backward) are layer members, NOT workspace
//    slots — trim() may free any slot at any sequence point between
//    top-level forward/backward calls.
//  * NOT thread-safe: one workspace per model, acquired only from the
//    SINGLE thread driving forward/backward — with training lanes
//    (eval/runner.h run_all) or chip lanes (eval/evaluator.h) that driver
//    is a different thread per model, never two threads on one model.
//    Kernels parallelize
//    internally via tensor/parallel_for.h; pool workers never re-enter
//    acquire (parallel regions pre-acquire their scratch serially, e.g.
//    the row-tile partials in pim/tiling.cpp). DriverScope makes the
//    rule loud: while any scope is open, an acquire from a thread other
//    than the scope-opening driver aborts with a diagnostic instead of
//    silently corrupting scratch.
//
// The retained footprint is capped at kCapBytes (256 MB):
// Module::forward/backward call trim(kCapBytes) after each pass, which
// frees least-recently-used slots until under the cap. A cap smaller
// than one layer's working set is honored best-effort (the live pass
// always gets its buffers; eviction happens between passes).
#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace qavat {

/// Keyed scratch arena: persistently-sized float buffers handed out by
/// (owner pointer, slot id), LRU-trimmed to kCapBytes. Sizes are
/// element counts (4-byte floats); shapes follow the tensor conventions
/// ({rows, cols} matrices, {N, C, H, W} images). NOT thread-safe — one
/// workspace per model, driven from the single thread that runs
/// forward/backward (see the lifetime contract above).
class Workspace {
 public:
  /// RAII marker that the calling thread is the single driver of this
  /// workspace for the duration of a forward/backward pass
  /// (Module::forward/backward open one). Reentrant on the same thread
  /// (nested passes share the driver); opening a scope from a second
  /// thread while another driver's scope is live, or acquiring from a
  /// non-driver thread inside a scope, aborts with a diagnostic — the
  /// fail-loud half of the single-driver contract that training and
  /// chip lanes rely on. The checks are two
  /// relaxed atomics, cheap enough to stay on in Release.
  class DriverScope {
   public:
    explicit DriverScope(Workspace& ws);
    ~DriverScope();
    DriverScope(const DriverScope&) = delete;
    DriverScope& operator=(const DriverScope&) = delete;

   private:
    Workspace& ws_;
  };

  /// Borrow the scratch tensor for (owner, slot), resized to `shape`.
  /// Contents are unspecified; the caller must overwrite what it reads.
  /// Single-driver-thread only (see DriverScope); aborts if called from
  /// a non-driver thread while a DriverScope is open.
  Tensor& acquire(const void* owner, int slot, std::vector<index_t> shape);

  /// Bytes currently held across all slots (element storage; excludes
  /// map overhead). Stable across steady-shape passes — tested as the
  /// zero-alloc invariant in test_conv_ops.
  std::size_t retained_bytes() const { return retained_bytes_; }

  /// Free least-recently-acquired slots until retained_bytes() <= cap.
  /// Invalidates references to the freed slots.
  void trim(std::size_t cap_bytes);

  /// Free every slot keyed by `owner` (all slot ids). Owners whose
  /// lifetime ends before the workspace's (e.g. the per-chip
  /// TiledCrossbarLayers of a circuit evaluation) call this from their
  /// destructor so dead-owner buffers never crowd live layers out of the
  /// retention cap. Invalidates references to the freed slots.
  void release(const void* owner);

  /// Retention cap Module::forward/backward trim to after each pass.
  static constexpr std::size_t kCapBytes = std::size_t{256} << 20;

 private:
  struct Entry {
    Tensor t;
    std::uint64_t tick = 0;   // last acquire time, for LRU trim
    std::size_t bytes = 0;    // this entry's recorded share of
                              // retained_bytes_ (kept exact even when a
                              // caller resizes the borrowed tensor)
  };
  void check_driver(const char* what) const;

  std::map<std::pair<const void*, int>, Entry> slots_;
  std::uint64_t clock_ = 0;
  std::size_t retained_bytes_ = 0;
  // Single-driver enforcement (DriverScope): nesting depth of open
  // scopes and a hash of the driver thread's id (0 = no scope open).
  // Atomics because the violating reader is by definition another
  // thread; ordering is relaxed — the check is a diagnostic, the
  // contract forbids the race it detects.
  std::atomic<int> scope_depth_{0};
  std::atomic<std::size_t> driver_{0};
};

}  // namespace qavat
