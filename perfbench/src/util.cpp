#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <iomanip>
#include <map>
#include <queue>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

namespace {

double tv_s(const timeval& tv) {
  return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
}

double usage_cpu(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  return tv_s(ru.ru_utime) + tv_s(ru.ru_stime);
}

}  // namespace

double cpu_seconds() {
  return usage_cpu(RUSAGE_SELF) + usage_cpu(RUSAGE_CHILDREN);
}

double child_cpu_seconds() { return usage_cpu(RUSAGE_CHILDREN); }

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * double(v.size() - 1);
  const auto lo = std::size_t(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

// --- Tracer ------------------------------------------------------------------

int Tracer::open(const char* name, std::uint64_t job) {
  spans_.push_back({name, job, now(), 0, open_});
  open_ = int(spans_.size()) - 1;
  return open_;
}

void Tracer::close(int idx) {
  spans_[std::size_t(idx)].end_s = now();
  open_ = spans_[std::size_t(idx)].parent;
}

void Tracer::add(const char* name, std::uint64_t job, double start_s,
                 double end_s, int parent) {
  if (enabled_) spans_.push_back({name, job, start_s, end_s, parent});
}

std::vector<Tracer::Row> Tracer::summary() const {
  // Children of one parent may overlap (pool-side job spans), so self time
  // subtracts the union of the children's intervals, not their sum.
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      kids[std::size_t(s.parent)].push_back({s.start_s, s.end_s});
    }
  }
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_lo = 0, cur_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    Row& r = rows[s.name];
    r.name = s.name;
    ++r.count;
    r.total_s += s.end_s - s.start_s;
    r.self_s += std::max(0.0, s.end_s - s.start_s - covered);
  }
  std::vector<Row> out;
  for (auto& [_, r] : rows) out.push_back(r);
  std::sort(out.begin(), out.end(),
            [](const Row& a, const Row& b) { return a.self_s > b.self_s; });
  return out;
}

void Tracer::write(const std::filesystem::path& path) const {
  std::ofstream os(path);
  os << "index\tparent\tjob\tname\tstart_s\tend_s\n";
  os << std::setprecision(9);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << i << '\t' << s.parent << '\t' << s.job << '\t' << s.name << '\t'
       << s.start_s << '\t' << s.end_s << '\n';
  }
}

// --- ScratchDir --------------------------------------------------------------

ScratchDir::ScratchDir(const std::filesystem::path& parent) {
  std::filesystem::create_directories(parent);
  std::string tmpl = (parent / "run-XXXXXX").string();
  if (::mkdtemp(tmpl.data()) == nullptr) {
    throw std::runtime_error("mkdtemp under " + parent.string() + ": " +
                             std::strerror(errno));
  }
  path_ = tmpl;
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

std::filesystem::path ScratchDir::subdir(const std::string& name) const {
  const std::filesystem::path p = path_ / name;
  std::filesystem::remove_all(p);
  std::filesystem::create_directories(p);
  return p;
}

std::string read_file(const std::filesystem::path& p) {
  std::ifstream is(p, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

// --- host probe --------------------------------------------------------------

namespace {

/// `steps` steps of popping the earliest of `pending` timestamps and
/// pushing it back later, each stamping a pseudo-random slot of a table of
/// `slots` words.
std::uint64_t event_queue_kernel(int steps, int pending, std::size_t slots) {
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      q;
  std::vector<std::uint64_t> table(slots);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL, acc = 0;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < pending; ++i) q.push(next() >> 20);
  for (int i = 0; i < steps; ++i) {
    const std::uint64_t t = q.top();
    q.pop();
    std::uint64_t& slot = table[(t ^ next()) & (slots - 1)];
    slot += t;
    acc += slot;
    q.push(t + (x & 0xffff));
  }
  return acc;
}

/// One probe pass: a deep queue over a 512 KiB table, then a shallow one
/// over 128 KiB — together they track the host's speed for both the
/// paper cell and the parking lot better than either alone.
std::uint64_t probe_kernel() {
  return event_queue_kernel(200'000, 512, std::size_t(1) << 16) +
         event_queue_kernel(200'000, 64, std::size_t(1) << 14);
}

volatile std::uint64_t probe_sink;  // keeps the kernel's result alive

}  // namespace

double probe_host(std::vector<double>& out) {
  double sum = 0;
  for (int r = 0; r < kProbesPerGap; ++r) {
    const auto t0 = Clock::now();
    probe_sink = probe_sink + probe_kernel();
    out.push_back(seconds_since(t0));
    sum += out.back();
  }
  return sum / kProbesPerGap;
}

// --- metrics -----------------------------------------------------------------

namespace {

/// Set-up runs between the rounds, so it is scaled by the run's mean probe.
double setup_scale(const E2eSamples& s) {
  if (s.probe_s.empty()) return 1.0;
  double sum = 0;
  for (const double p : s.probe_s) sum += p;
  return kProbeRefS * double(s.probe_s.size()) / sum;
}

/// Median round wall time, scaled unless the workload is paced.
double wall_median(const E2eSamples& s) {
  std::vector<double> v;
  for (const Round& r : s.rounds) {
    v.push_back(r.wall_s * (s.paced ? 1.0 : r.scale));
  }
  return median(v);
}

std::vector<Metric> e2e_metrics(const E2eSamples& s) {
  std::vector<double> cpu, runs, lat, jobs_rate, sim_rate;
  for (const Round& r : s.rounds) {
    const double k = s.paced ? 1.0 : r.scale;
    cpu.push_back(r.cpu_s * r.scale);
    for (const double x : r.run_s) runs.push_back(x * k);
    for (const double x : r.job_latency_s) lat.push_back(x * k);
    if (r.wall_s > 0) {
      jobs_rate.push_back(r.jobs / (r.wall_s * k));
      sim_rate.push_back(r.sim_s / (r.wall_s * k));
    }
  }
  return {
      {"setup_s", median(s.setup_s) * setup_scale(s), "s"},
      {"wall_s", wall_median(s), "s"},
      {"cpu_s", median(cpu), "s"},
      {"run_s_p50", median(runs), "s"},
      {"job_latency_s_p50", median(lat), "s"},
      {"jobs_per_s", median(jobs_rate), "1/s"},
      {"sim_s_per_wall_s", median(sim_rate), "sim_s/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

/// The unscaled figures behind the scaled ones, for the human-readable
/// part of the output.
void raw_figures(const E2eSamples& s, std::vector<Metric>& extra) {
  std::vector<double> wall, cpu, scale;
  for (const Round& r : s.rounds) {
    wall.push_back(r.wall_s);
    cpu.push_back(r.cpu_s);
    scale.push_back(r.scale);
  }
  extra.push_back({"raw.setup_s", median(s.setup_s), "s"});
  extra.push_back({"raw.wall_s", median(wall), "s"});
  extra.push_back({"raw.cpu_s", median(cpu), "s"});
  extra.push_back({"host_scale", median(scale), "ratio"});
  extra.push_back({"rounds", double(s.rounds.size()), "count"});
}

std::vector<Metric> layer_metrics(const std::map<std::string, double>& values) {
  static const std::pair<const char*, const char*> kLayer[] = {
      {"sim.events_per_run", "count"},
      {"sim.events_per_sim_s", "1/sim_s"},
      {"sim.ns_per_event", "ns"},
      {"net.link_pkts_per_run", "count"},
      {"net.pkts_per_sim_s", "1/sim_s"},
      {"net.drops_per_run", "count"},
      {"net.ns_per_link_pkt", "ns"},
      {"tcp.retransmits_per_run", "count"},
      {"tcp.rto_per_run", "count"},
      {"tcp.acks_per_run", "count"},
      {"stream.pkts_received_per_run", "count"},
      {"stream.pkts_lost_per_run", "count"},
      {"stream.frames_concealed_per_run", "count"},
      {"core.testbed.construct_s", "s"},
      {"core.testbed.run_s", "s"},
      {"alloc.count_per_run", "count"},
      {"alloc.bytes_per_run", "B"},
      {"core.journal.serialize_s", "s"},
      {"core.journal.hash_s", "s"},
      {"core.journal.trace_bytes", "B"},
      {"core.journal.file_bytes", "B"},
      {"core.journal.read_s", "s"},
      {"core.journal.resume_s", "s"},
      {"core.aggregate.add_s", "s"},
      {"core.report.csv_s", "s"},
      {"core.sweep.jobs", "count"},
      {"core.sweep.retries", "count"},
      {"core.sweep.busy_ratio", "ratio"},
      {"core.sweep.tail_s", "s"},
      {"core.proc.forks", "count"},
      {"core.proc.child_cpu_s", "s"},
      {"svc.submit_ack_s", "s"},
      {"svc.first_snapshot_s", "s"},
      {"svc.snapshots_per_job", "count"},
      {"svc.lossy_snapshots", "count"},
      {"svc.proto_errors", "count"},
      {"svc.job_latency_s_p90", "s"},
      {"svc.latency_samples", "count"},
      {"trace.overhead_pct", "%"},
      {"trace.spans", "count"},
  };
  std::map<std::string, double> left = values;
  std::vector<Metric> out;
  for (const auto& [name, unit] : kLayer) {
    const auto it = left.find(name);
    out.push_back({name, it == left.end() ? 0.0 : it->second, unit});
    if (it != left.end()) left.erase(it);
  }
  if (!left.empty()) {
    throw std::logic_error("unknown per-layer metric " + left.begin()->first);
  }
  return out;
}

double overhead_pct(const E2eSamples& traced, const E2eSamples& plain) {
  if (traced.rounds.empty() || plain.rounds.empty()) return 0;
  return (wall_median(traced) / wall_median(plain) - 1.0) * 100.0;
}

}  // namespace

void finish_e2e(Outcome& out, const E2eSamples& plain,
                const E2eSamples& traced, std::map<std::string, double>& layer,
                const Tracer& tr) {
  out.e2e = e2e_metrics(plain);
  raw_figures(plain, out.extra);
  if (tr.tracing()) {
    out.e2e_traced = e2e_metrics(traced);
    layer["trace.overhead_pct"] = overhead_pct(traced, plain);
    layer["trace.spans"] = double(tr.size());
  }
  out.layer = layer_metrics(layer);
}

TraceCounts trace_counts(const cgs::core::RunTrace& t) {
  // Cumulative series: the largest sample is the latest one taken (the
  // boundary at the very end of a run may never be sampled).
  const auto last = [](const std::vector<std::uint64_t>& v) {
    return v.empty() ? 0.0 : double(*std::max_element(v.begin(), v.end()));
  };
  TraceCounts c;
  for (const cgs::core::FlowTrace& f : t.flows) {
    if (f.kind != cgs::core::FlowKind::kGameStream) continue;
    c.recv += last(f.pkts_recv);
    c.lost += last(f.pkts_lost);
  }
  for (const cgs::core::LinkTrace& l : t.links) c.drops += last(l.drops);
  return c;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t fnv_digest(const std::string& bytes) {
  return cgs::core::fnv1a_bytes(kFnvBasis, bytes.data(), bytes.size());
}

JournalDigest digest_journal(const cgs::core::JournalScan& scan) {
  std::vector<const cgs::core::JournalEntry*> es;
  for (const auto& e : scan.entries) es.push_back(&e);
  std::sort(es.begin(), es.end(), [](const auto* a, const auto* b) {
    return a->cell != b->cell ? a->cell < b->cell : a->run < b->run;
  });
  JournalDigest d;
  d.trace_digest = kFnvBasis;
  for (const auto* e : es) {
    d.trace_digest = cgs::core::fnv1a_bytes(d.trace_digest, &e->trace_hash,
                                            sizeof e->trace_hash);
    d.trace_bytes += e->payload.size();
    d.all_ok = d.all_ok && e->ok;
    ++d.records;
  }
  return d;
}

}  // namespace perfbench
