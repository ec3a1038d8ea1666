// Fork-based worker pool for sweep execution (internal to the scenario
// layer; the public entry point is run() with RunOptions::jobs).
#pragma once

#include <vector>

#include "scenario/runner.hpp"

namespace mpiv::scenario::detail {

/// Runs the expanded points across up to `jobs` forked workers and returns
/// results in sweep order. Each worker receives one point index at a time
/// over its request pipe, executes run_point there, and ships back the
/// outcome plus a prerendered JSON stanza over its result pipe, so the
/// parent's report is byte-identical to the serial loop. A worker that
/// dies mid-point takes exactly that point down with it: the point is
/// classified `failed`, a replacement worker is forked, and the rest of
/// the grid keeps running. Skipped points never leave the parent. Points
/// run without the grid's reference cache: every point runs its own twin.
std::vector<RunResult> run_points_parallel(const std::vector<RunPoint>& grid,
                                           int jobs,
                                           const RunOptions& options);

}  // namespace mpiv::scenario::detail
