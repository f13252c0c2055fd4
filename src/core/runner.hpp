// Experiment execution: N seeded runs of a Scenario, optionally in
// parallel (each run owns an independent Simulator; nothing is shared).
// Both entry points are one-cell wrappers over the sweep engine
// (core/sweep.hpp) and take its SweepOptions: runs, threads and progress
// are the fields that matter here; the journal fields and
// throw_on_failure are run_sweep's and are ignored.  Whole-grid campaigns
// should call run_sweep directly so every cell shares one worker pool.
#pragma once

#include "core/aggregate.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"

namespace cgs::core {

/// Execute `opts.runs` seeded repetitions of `scenario` (seeds
/// scenario.seed, +1, ...) and return the raw traces in seed order.
/// Throws std::invalid_argument for runs <= 0 or an invalid scenario; if
/// any run throws (including a WatchdogError from a livelocked run), every
/// remaining run still executes and a std::runtime_error listing each
/// failing seed and message is thrown after the join.  A run stopped by
/// opts.stop before every seed finished throws std::runtime_error too.
[[nodiscard]] std::vector<RunTrace> run_many(const Scenario& scenario,
                                             const SweepOptions& opts);

/// One-condition digest via the streaming path: each trace is folded into
/// a ConditionAccumulator the moment its run finishes and then freed, so
/// peak memory stays O(buckets) regardless of opts.runs.  Result is
/// bit-identical to summarize(scenario, run_many(scenario, opts)).
[[nodiscard]] ConditionResult run_condition(const Scenario& scenario,
                                            const SweepOptions& opts);

}  // namespace cgs::core
