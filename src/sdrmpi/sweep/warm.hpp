// Warm-prefix forked execution: one warm-up, many forked fault scenarios.
//
// Fault sweeps (a crossover grid: failure time x protocol knobs over one
// base config) re-execute an identical failure-free prefix for every
// point. This runner executes that prefix once: a single World is driven
// to a pause point (Engine::set_pause_time — checked only between
// scheduler dispatches, so the paused state is bit-identical to a cold
// run's state at the same dispatch), then fork() snapshots the whole
// simulation — fibers, event queue, endpoints — and each child arms one
// fault scenario late (World::arm_faults), resumes, and streams its
// RunResult back as a pipe frame (frame_io.hpp).
//
// Bit-identity: late arming uses the engine's control lanes (lane = fault
// index), giving each fault event the exact (t, seq) tie-break position
// launch-time arming would have used. A scenario whose earliest fault time
// is not strictly beyond the warm prefix's executed_frontier() cannot be
// forked (its fault lands inside already-executed history); it falls back
// to a cold standalone run — same bits, just no shared prefix.
#pragma once

#include <stdexcept>
#include <vector>

#include "sdrmpi/core/launcher.hpp"
#include "sdrmpi/core/run_config.hpp"

namespace sdrmpi::sweep {

/// The warm-up or a forked child failed (distinct from a scenario's run
/// finishing with per-process errors, which lands in its RunResult).
struct WarmPrefixError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Runs one RunResult per fault scenario over `base` (whose own fault list
/// must be empty; every scenario must be at_time-only — the restrictions
/// that make late arming well-defined). `warm_until` is the virtual-time
/// pause point shared by all scenarios; `workers` caps concurrently forked
/// children (0 = hardware concurrency). Results come back in scenario
/// order and are bit-identical to cold core::run() of the same configs.
std::vector<core::RunResult> run_warm_forked(
    const core::RunConfig& base, const core::AppFn& app,
    const std::vector<std::vector<core::FaultSpec>>& scenarios,
    Time warm_until, int workers = 0);

}  // namespace sdrmpi::sweep
