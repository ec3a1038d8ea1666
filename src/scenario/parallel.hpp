// The sweep dispatch loop and its fork-based worker pool (internal to the
// scenario layer; the public entry point is run() with RunOptions::jobs).
#pragma once

#include <vector>

#include "scenario/runner.hpp"

namespace mpiv::scenario::detail {

/// Runs the expanded points and returns one summary per point, in sweep
/// order. With options.jobs <= 1 every point runs in process, in sweep
/// order, sharing the grid's reference cache. Otherwise the points that
/// run a cluster fan across up to options.jobs forked workers, each point
/// running its own twin. A worker that dies mid-point costs exactly that
/// point, classified `failed`; the rest of the grid keeps running.
std::vector<RunResult> run_points(const std::vector<RunPoint>& points,
                                  const RunOptions& options);

}  // namespace mpiv::scenario::detail
