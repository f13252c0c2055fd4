// Umbrella header: the full cgstream public API.
//
//   #include <cgstream.hpp>
//
//   cgs::core::Scenario sc;
//   sc.system = cgs::stream::GameSystem::kStadia;
//   sc.tcp_algo = cgs::tcp::CcAlgo::kBbr;
//   cgs::core::SweepOptions opts;
//   opts.runs = 15;
//   auto result = cgs::core::run_condition(sc, opts);
//
// See README.md for the architecture overview and examples/ for usage.
#pragma once

#include "core/aggregate.hpp"    // IWYU pragma: export
#include "core/audit.hpp"        // IWYU pragma: export
#include "core/collectors.hpp"   // IWYU pragma: export
#include "core/error.hpp"        // IWYU pragma: export
#include "core/journal.hpp"      // IWYU pragma: export
#include "core/metrics.hpp"      // IWYU pragma: export
#include "core/ping.hpp"         // IWYU pragma: export
#include "core/proc.hpp"         // IWYU pragma: export
#include "core/report.hpp"       // IWYU pragma: export
#include "core/runner.hpp"       // IWYU pragma: export
#include "core/scenario.hpp"     // IWYU pragma: export
#include "core/sweep.hpp"        // IWYU pragma: export
#include "core/testbed.hpp"      // IWYU pragma: export
#include "core/tracelog.hpp"     // IWYU pragma: export
#include "net/codel.hpp"         // IWYU pragma: export
#include "net/fluid.hpp"         // IWYU pragma: export
#include "net/impairment.hpp"    // IWYU pragma: export
#include "net/link.hpp"          // IWYU pragma: export
#include "net/packet.hpp"        // IWYU pragma: export
#include "net/queue.hpp"         // IWYU pragma: export
#include "net/router.hpp"        // IWYU pragma: export
#include "net/sniffer.hpp"       // IWYU pragma: export
#include "net/topology.hpp"      // IWYU pragma: export
#include "sim/simulator.hpp"     // IWYU pragma: export
#include "sim/timer.hpp"         // IWYU pragma: export
#include "stream/profiles.hpp"   // IWYU pragma: export
#include "stream/receiver.hpp"   // IWYU pragma: export
#include "stream/sender.hpp"     // IWYU pragma: export
#include "svc/job_store.hpp"     // IWYU pragma: export
#include "svc/protocol.hpp"      // IWYU pragma: export
#include "svc/publisher.hpp"     // IWYU pragma: export
#include "svc/server.hpp"        // IWYU pragma: export
#include "tcp/bbr.hpp"           // IWYU pragma: export
#include "tcp/bulk_app.hpp"      // IWYU pragma: export
#include "tcp/cubic.hpp"         // IWYU pragma: export
#include "tcp/reno.hpp"          // IWYU pragma: export
#include "tcp/vegas.hpp"         // IWYU pragma: export
#include "util/csv.hpp"          // IWYU pragma: export
#include "util/filters.hpp"      // IWYU pragma: export
#include "util/rng.hpp"          // IWYU pragma: export
#include "util/stats.hpp"        // IWYU pragma: export
#include "util/units.hpp"        // IWYU pragma: export
