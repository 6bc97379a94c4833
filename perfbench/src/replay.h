// Layer replay for the traced run: times each layer of the library from
// outside, by calling its public entry points at the shapes the
// workloads use, inside spans. Every traced run replays every layer, so
// each per-layer metric has the same meaning whichever workload was
// traced; README.md maps each metric to the end-to-end metric it should
// move.
#pragma once

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {

/// Run the whole replay (kernel and model replays at QAVAT_THREADS 4 and
/// 1) and add every per-layer metric to `report`. Private stores live
/// under `scratch`; sanity checks count into `outcome`.
void run_replay(std::uint64_t seed, const std::string& scratch,
                Report& report, Outcome& outcome);

}  // namespace perfbench
