#include "core/runner.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

namespace cgs::core {
namespace {

/// A run_many-style condition is a one-cell sweep.
std::vector<SweepCell> one_cell(const Scenario& scenario) {
  std::vector<SweepCell> cells(1);
  cells[0].label = scenario.label();
  cells[0].scenario = scenario;
  return cells;
}

/// Throw unless every run of the one-cell sweep produced a trace.
void require_all_runs(const char* fn, const SweepReport& report) {
  if (report.failed() == 0 && !report.interrupted) return;
  std::ostringstream os;
  if (report.failed() == 0) {
    os << fn << ": interrupted after " << report.finished << " of "
       << report.total << " runs";
    throw std::runtime_error(os.str());
  }
  os << fn << ": " << report.failed() << " of " << report.total
     << " runs failed:";
  for (const SweepFailure& f : report.failures) {
    os << "\n  seed " << f.seed << ": " << f.what;
  }
  if (report.failures_suppressed > 0) {
    os << "\n  ... and " << report.failures_suppressed << " more";
  }
  throw std::runtime_error(os.str());
}

}  // namespace

std::vector<RunTrace> run_many(const Scenario& scenario,
                               const SweepOptions& opts) {
  // One cell: consume calls are serialized and arrive in seed order, and a
  // failure or an interruption throws below, so appending yields the
  // traces indexed by run.
  std::vector<RunTrace> traces;
  const auto report =
      sweep_jobs(one_cell(scenario), opts,
                 [&](std::size_t, int, RunTrace&& t) {
                   traces.push_back(std::move(t));
                 });
  require_all_runs("run_many", report);
  return traces;
}

ConditionResult run_condition(const Scenario& scenario,
                              const SweepOptions& opts) {
  // Streaming path: each trace is folded and freed as its run finishes;
  // the seed-order delivery contract makes this bit-identical to
  // summarize(scenario, run_many(scenario, opts)).
  ConditionAccumulator acc(scenario);
  const auto report =
      sweep_jobs(one_cell(scenario), opts,
                 [&](std::size_t, int, RunTrace&& t) { acc.add(t); });
  require_all_runs("run_condition", report);
  return acc.finalize();
}

}  // namespace cgs::core
