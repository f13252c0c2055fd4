// perfbench: the repo benchmark's binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --work DIR
//   perfbench --pin --work DIR        print pins.inc for this build
//
// Prints the host/build line, every metric by name with its unit, and as
// its last stdout line one JSON object: {"correct", "attempted", "failed",
// "metrics"} — the end-to-end metrics untraced, the per-layer metrics with
// --trace 1.  A failed correctness check prints correct=false and exits 1.
#include <signal.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper_run|parkinglot|fig3_grid|"
               "sweepd_jobs --seed N --seconds S --trace 0|1 --work DIR\n"
               "       %s --pin --work DIR\n",
               argv0, argv0);
  return 2;
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string json_line(const Outcome& o, const std::vector<Metric>& ms) {
  std::string s = std::string("{\"correct\": ") +
                  (o.correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(o.attempted) +
                  ", \"failed\": " + std::to_string(o.failed) +
                  ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char num[64];
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
    std::snprintf(num, sizeof num, "%.17g", v);
    s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + num +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  bool pin = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--pin") {
      pin = true;
      continue;
    }
    if (v == nullptr) return usage(argv[0]);
    ++i;
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::atof(v);
    } else if (arg == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (arg == "--work") {
      a.work_root = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (a.work_root.empty()) return usage(argv[0]);

  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  a.threads = int(std::max(1L, std::min(4L, nproc)));
  // Pin mode writes a header body to stdout, so its host line goes aside.
  std::fprintf(pin ? stderr : stdout,
               "host: nproc=%ld compiler=\"%s\" build_type=%s threads=%d\n",
               nproc, __VERSION__, PERFBENCH_BUILD_TYPE, a.threads);
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to record from a %s build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  // The daemon workload writes to sockets its peer may have closed.
  (void)::signal(SIGPIPE, SIG_IGN);

  if (pin) {
    print_sequential_pins();
    print_fig3_pins(a);
    print_sweepd_pins(a);
    return 0;
  }

  Outcome (*run)(const Args&, Tracer&) = nullptr;
  if (a.workload == "paper_run") run = run_paper_run;
  if (a.workload == "parkinglot") run = run_parkinglot;
  if (a.workload == "fig3_grid") run = run_fig3_grid;
  if (a.workload == "sweepd_jobs") run = run_sweepd_jobs;
  if (run == nullptr) return usage(argv[0]);
  std::printf("workload: %s seed=%llu seconds=%g trace=%d\n",
              a.workload.c_str(), (unsigned long long)a.seed, a.seconds,
              int(a.trace));
  std::fflush(stdout);

  Tracer tr(a.trace);
  Outcome o;
  try {
    o = run(a, tr);
  } catch (const std::exception& e) {
    o.check(false, std::string("workload threw: ") + e.what());
  }
  if (o.attempted == 0) o.attempted = 1;

  print_metrics(a.trace ? "end-to-end (untraced rounds of this traced run)"
                        : "end-to-end",
                o.e2e);
  print_metrics("workload-specific", o.extra);
  if (a.trace) {
    print_metrics("end-to-end (traced rounds; the difference is the tracing "
                  "overhead)",
                  o.e2e_traced);
    print_metrics("per-layer", o.layer);
    std::printf("spans by self time (name, count, total s, self s)\n");
    for (const Tracer::Row& r : tr.summary()) {
      std::printf("  %-34s %8zu %12.6f %12.6f\n", r.name.c_str(), r.count,
                  r.total_s, r.self_s);
    }
    const std::filesystem::path spans = a.work_root / "spans";
    std::filesystem::create_directories(spans);
    const std::filesystem::path file =
        spans / (a.workload + "-seed" + std::to_string(a.seed) + ".tsv");
    tr.write(file);
    std::printf("spans written to %s\n", file.string().c_str());
  }
  for (const std::string& p : o.problems) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", p.c_str());
  }
  std::printf("%s\n", json_line(o, a.trace ? o.layer : o.e2e).c_str());
  return o.correct ? 0 : 1;
}
