// perfbench — seeded simulator benchmark of the BGLA stack.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Untraced (--trace 0): repeats the workload's pass at the seed for S
// seconds, times only sim::Network::run for cmds_per_s, checks every pass
// outside the clock, and prints the end-to-end metrics. Traced (--trace 1):
// alternates untraced and traced passes at the same seed, checks that both
// give the same deterministic outcome, splits the traced loop by layer and
// prints the per-layer metrics. Both modes run the host reference
// (hostref.h) after every pass and report times in nominal-host seconds.
// The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Exit code 0 iff correct.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "hostref.h"
#include "probes.h"
#include "workload.h"

namespace {

using perfbench::Pass;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

// Message type ids the per-layer split needs (see the *_msgs.h headers).
constexpr std::uint32_t kRbSendType = 1;       // bcast::RbSendMsg
constexpr std::uint32_t kConfReqType = 62;     // rsm::ConfReqMsg
constexpr std::uint32_t kDeltaWrapType = 90;   // la::DeltaWrapMsg

constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kMinTracedPasses = 2;
constexpr std::size_t kSetupsPerPass = 3;
constexpr int kProbeReps = 15;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args* out) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      out->workload = val;
      have_workload = true;
    } else if (flag == "--seed") {
      out->seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      out->seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(out->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (val != "0" && val != "1") return false;
      out->trace = val == "1";
    } else {
      return false;
    }
  }
  return have_workload;
}

double elapsed_s(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Runs the host reference (hostref.h) and returns the factor that turns
/// the wall-clock seconds of the pass just before it into nominal-host
/// seconds. Each pass is scaled by its own reference: the host switches
/// speed within a run, and the median of the scaled passes followed it
/// better than the run's median time over its median reference did.
double host_scale(std::vector<double>& refs) {
  refs.push_back(perfbench::reference_s());
  return ratio(perfbench::kReferenceNominalS, refs.back());
}

void print_refs(const std::vector<double>& refs) {
  std::printf("# host reference: median %.6f s over %zu samples (nominal "
              "%.3f s)\n",
              median(refs), refs.size(), perfbench::kReferenceNominalS);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_table(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
}

/// Human-readable lines first, then the one-line JSON result.
void emit(const std::vector<Metric>& metrics, bool correct,
          std::uint64_t attempted, std::uint64_t failed) {
  print_table(metrics);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Counts passes into attempted/failed. A failed check fails every command
/// of the run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t uncommitted = 0;
  bool checks_ok = true;
  bool correct = true;

  std::uint64_t failed() const { return checks_ok ? uncommitted : attempted; }

  void add(const Pass& p, const Pass& reference, const char* kind) {
    attempted += p.attempted;
    uncommitted += p.attempted - p.committed;
    if (!p.ok) {
      checks_ok = false;
      correct = false;
      std::printf("# CHECK FAILED (%s pass): %s\n", kind, p.diagnostic.c_str());
    }
    if (!perfbench::same_outcome(p, reference)) {
      correct = false;
      std::printf("# NONDETERMINISTIC: %s pass differs from the first "
                  "untraced pass at the same seed\n",
                  kind);
    }
  }
};

void print_pass(const char* kind, std::size_t i, const Pass& p) {
  std::printf("# %s pass %zu: setup_s=%.6f loop_s=%.6f check_s=%.6f "
              "committed=%llu/%llu ticks=%llu ok=%d\n",
              kind, i, p.setup_s, p.loop_s, p.check_s,
              static_cast<unsigned long long>(p.committed),
              static_cast<unsigned long long>(p.attempted),
              static_cast<unsigned long long>(p.end_ticks), p.ok ? 1 : 0);
}

/// Sample counts, plus the metrics that are printed but are not JSON
/// metrics: BENCHMARK.json's end-to-end metrics must be defined, and
/// non-zero, on every workload, which fail_frac (0 on a healthy run) and
/// the RSM update/read split are not.
void print_outcome(const Pass& p, std::uint64_t attempted,
                   std::uint64_t failed) {
  std::printf("# latency samples=%zu beyond_p50=%zu beyond_p99=%zu\n",
              p.lat.size(), perfbench::samples_beyond(p.lat.size(), 0.50),
              perfbench::samples_beyond(p.lat.size(), 0.99));
  std::vector<Metric> extra{
      {"fail_frac",
       ratio(static_cast<double>(failed), static_cast<double>(attempted)),
       "ratio"}};
  if (!p.upd_lat.empty()) {
    std::printf("# update samples=%zu read samples=%zu beyond_p95=%zu/%zu\n",
                p.upd_lat.size(), p.read_lat.size(),
                perfbench::samples_beyond(p.upd_lat.size(), 0.95),
                perfbench::samples_beyond(p.read_lat.size(), 0.95));
    extra.push_back(
        {"upd_p50_ticks", perfbench::percentile(p.upd_lat, 0.50), "ticks"});
    extra.push_back(
        {"upd_p95_ticks", perfbench::percentile(p.upd_lat, 0.95), "ticks"});
    extra.push_back(
        {"read_p50_ticks", perfbench::percentile(p.read_lat, 0.50), "ticks"});
    extra.push_back(
        {"read_p95_ticks", perfbench::percentile(p.read_lat, 0.95), "ticks"});
  }
  print_table(extra);
}

int untraced(const Workload& w, const Args& a) {
  const auto start = Clock::now();
  // Pass 0 warms the caches and the heap: it is checked, not timed.
  const Pass first = perfbench::run_pass(w, a.seed, false);
  print_pass("untraced", 0, first);
  Tally tally;
  tally.add(first, first, "untraced");
  // Nominal-host rates and set-up times, and the same as measured.
  std::vector<double> rates, setups, wall_rates, wall_setups;
  std::vector<double> refs;
  std::vector<double> checks{first.check_s};
  while (rates.size() + 1 < kMinPasses || elapsed_s(start) < a.seconds) {
    const Pass p = perfbench::run_pass(w, a.seed, false);
    const double scale = host_scale(refs);
    // Set-ups are timed a few at a time between passes, after the reference
    // has streamed its arena through the caches. Timed back to back they
    // reuse the same freed memory, and the same set-up ran up to twice as
    // slow in one process as in another; spread over the run, they agree
    // far better from run to run.
    for (std::size_t i = 0; i < kSetupsPerPass; ++i) {
      wall_setups.push_back(perfbench::setup_only(w, a.seed));
      setups.push_back(wall_setups.back() * scale);
    }
    print_pass("untraced", rates.size() + 1, p);
    std::printf("#   host reference_s=%.6f\n", refs.back());
    tally.add(p, first, "untraced");
    const double committed = static_cast<double>(p.committed);
    wall_rates.push_back(ratio(committed, p.loop_s));
    rates.push_back(ratio(committed, p.loop_s * scale));
    checks.push_back(p.check_s);
  }
  std::printf("# passes=%zu check_s median=%.6f (outside every timed "
              "window)\n",
              rates.size() + 1, median(checks));
  print_outcome(first, tally.attempted, tally.failed());
  print_refs(refs);
  std::printf("# wall clock: cmds_per_s=%.6g setup_s=%.6g\n",
              median(wall_rates), median(wall_setups));

  const double cmds = static_cast<double>(first.committed);
  emit({{"cmds_per_s", median(rates), "cmd/s"},
        {"cmds_per_ktick",
         ratio(cmds * 1000.0, static_cast<double>(first.end_ticks)),
         "cmd/ktick"},
        {"lat_p50_ticks", perfbench::percentile(first.lat, 0.50), "ticks"},
        {"lat_p99_ticks", perfbench::percentile(first.lat, 0.99), "ticks"},
        {"wire_bytes_per_cmd",
         ratio(static_cast<double>(first.wire_bytes), cmds), "B/cmd"},
        {"msgs_per_cmd", ratio(static_cast<double>(first.msgs), cmds),
         "msg/cmd"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"}},
       tally.correct, tally.attempted, tally.failed());
  return tally.correct ? 0 : 1;
}

int traced(const Workload& w, const Args& a) {
  using perfbench::Bucket;
  const auto start = Clock::now();
  const Pass first = perfbench::run_pass(w, a.seed, false);
  print_pass("untraced", 0, first);
  const Pass first_traced = perfbench::run_pass(w, a.seed, true);
  print_pass("traced", 0, first_traced);
  std::vector<double> refs;
  std::vector<double> scales{host_scale(refs)};
  Tally tally;
  tally.add(first, first, "untraced");
  tally.add(first_traced, first, "traced");

  // Nominal-host seconds of each bucket, then of sim.loop_s.
  const auto loop_split = [](const Pass& p, double scale) {
    const perfbench::SpanLog::Totals t = p.spans.totals();
    std::vector<double> v;
    for (const double s : t.self_s) v.push_back(s * scale);
    v.push_back((p.loop_s - t.top_level_s) * scale);
    return v;
  };
  std::vector<std::vector<double>> splits{
      loop_split(first_traced, scales.back())};
  std::vector<double> plain_loops{first.loop_s};
  std::vector<double> traced_loops{first_traced.loop_s};
  while (traced_loops.size() < kMinTracedPasses ||
         elapsed_s(start) < a.seconds) {
    const Pass u = perfbench::run_pass(w, a.seed, false);
    print_pass("untraced", plain_loops.size(), u);
    tally.add(u, first, "untraced");
    plain_loops.push_back(u.loop_s);
    const Pass t = perfbench::run_pass(w, a.seed, true);
    print_pass("traced", traced_loops.size(), t);
    tally.add(t, first, "traced");
    scales.push_back(host_scale(refs));
    traced_loops.push_back(t.loop_s);
    splits.push_back(loop_split(t, scales.back()));
  }
  print_refs(refs);
  const double scale = median(scales);
  const auto split_median = [&splits](std::size_t k) {
    std::vector<double> v;
    for (const auto& s : splits) v.push_back(s[k]);
    return median(v);
  };
  const auto bucket_s = [&split_median](Bucket b) {
    return split_median(static_cast<std::size_t>(b));
  };

  std::printf("# span self time by bucket and message type (traced pass 0, "
              "%zu spans):\n",
              first_traced.spans.size());
  std::istringstream rows(first_traced.spans.breakdown());
  for (std::string line; std::getline(rows, line);) {
    std::printf("#   %s\n", line.c_str());
  }
  print_outcome(first, tally.attempted, tally.failed());

  const perfbench::ProbeResult probe =
      perfbench::probe_frontier(first_traced.frontier, kProbeReps);
  std::printf("# probes at frontier_items=%zu, %d fresh rebuilds each\n",
              probe.frontier_items, kProbeReps);
  if (!probe.ok) {
    tally.correct = false;
    std::printf("# PROBE CHECK FAILED: %s\n", probe.error.c_str());
  }

  const Pass& p = first_traced;
  const perfbench::LayerCounts& lc = p.layers;
  const auto layer = [&lc](bgla::sim::Layer l) {
    return lc.by_layer[static_cast<std::size_t>(l)];
  };
  const auto type = [&lc](std::uint32_t id) {
    const auto it = lc.by_type.find(id);
    return it == lc.by_type.end() ? perfbench::TypeTraffic{} : it->second;
  };
  const double cmds = static_cast<double>(p.committed);
  const auto per_cmd = [cmds](std::uint64_t x) {
    return ratio(static_cast<double>(x), cmds);
  };
  const perfbench::TypeTraffic bcast = layer(bgla::sim::Layer::kBroadcast);
  const perfbench::TypeTraffic agreement = layer(bgla::sim::Layer::kAgreement);
  const perfbench::TypeTraffic rsm = layer(bgla::sim::Layer::kRsm);
  // On faleiro-delta only agreement messages carry lattice state, so the
  // delta wrappers are agreement traffic.
  const perfbench::TypeTraffic wrapped = type(kDeltaWrapType);
  const double verify_lookups =
      static_cast<double>(lc.crypto.verify_cache_hits) +
      static_cast<double>(lc.crypto.verify_cache_misses);

  emit({{"sim.send_s", bucket_s(Bucket::kSimSend), "s"},
        {"sim.loop_s", split_median(perfbench::kNumBuckets), "s"},
        {"sim.events_per_cmd", per_cmd(p.events), "event/cmd"},
        {"bcast.msgs_per_cmd", per_cmd(bcast.msgs), "msg/cmd"},
        {"bcast.send_bytes_per_cmd", per_cmd(type(kRbSendType).bytes),
         "B/cmd"},
        {"bcast.echo_ready_bytes_per_cmd",
         per_cmd(bcast.bytes - type(kRbSendType).bytes), "B/cmd"},
        {"bcast.handle_s", bucket_s(Bucket::kBcast), "s"},
        {"la.msgs_per_cmd", per_cmd(agreement.msgs + wrapped.msgs),
         "msg/cmd"},
        {"la.bytes_per_cmd", per_cmd(agreement.bytes + wrapped.bytes),
         "B/cmd"},
        {"la.handle_s", bucket_s(Bucket::kLa), "s"},
        {"la.batch_mean",
         ratio(static_cast<double>(lc.values_flushed),
               static_cast<double>(lc.batches)),
         "value/batch"},
        {"la.refinements_per_decision",
         ratio(static_cast<double>(lc.refinements),
               static_cast<double>(lc.decides)),
         "refine/decision"},
        {"la.nacks_per_decision",
         ratio(static_cast<double>(lc.nacks),
               static_cast<double>(lc.decides)),
         "nack/decision"},
        {"la.rejected", static_cast<double>(lc.rejected), "count"},
        {"lattice.frontier_items", static_cast<double>(probe.frontier_items),
         "items"},
        {"lattice.join_us", probe.join_us * scale, "us"},
        {"lattice.leq_us", probe.leq_us * scale, "us"},
        {"lattice.eq_us", probe.eq_us * scale, "us"},
        {"lattice.encode_us", probe.encode_us * scale, "us"},
        {"crypto.sha256_us", probe.sha256_us * scale, "us"},
        {"crypto.macs_per_cmd", per_cmd(lc.crypto.macs_computed), "mac/cmd"},
        {"crypto.verify_hit_ratio",
         ratio(static_cast<double>(lc.crypto.verify_cache_hits),
               verify_lookups),
         "ratio"},
        {"net.delta_share",
         ratio(static_cast<double>(lc.delta_msgs),
               static_cast<double>(lc.delta_msgs + lc.passthrough_msgs)),
         "ratio"},
        {"net.wire_over_logical",
         ratio(static_cast<double>(lc.delta_wire_bytes),
               static_cast<double>(lc.delta_logical_bytes)),
         "ratio"},
        {"net.send_s", bucket_s(Bucket::kNetSend), "s"},
        {"net.recv_s", bucket_s(Bucket::kNetRecv), "s"},
        {"net.resets", static_cast<double>(lc.delta_resets), "count"},
        {"rsm.msgs_per_op", per_cmd(rsm.msgs), "msg/op"},
        {"rsm.bytes_per_op", per_cmd(rsm.bytes), "B/op"},
        {"rsm.handle_s", bucket_s(Bucket::kRsm), "s"},
        {"rsm.confirms_per_read",
         ratio(static_cast<double>(type(kConfReqType).msgs),
               static_cast<double>(p.reads)),
         "confreq/read"},
        {"rsm.retries", static_cast<double>(lc.retries), "count"},
        {"rsm.upd_p50_ticks", perfbench::percentile(p.upd_lat, 0.50),
         "ticks"},
        {"rsm.upd_p95_ticks", perfbench::percentile(p.upd_lat, 0.95),
         "ticks"},
        {"rsm.read_p50_ticks", perfbench::percentile(p.read_lat, 0.50),
         "ticks"},
        {"rsm.read_p95_ticks", perfbench::percentile(p.read_lat, 0.95),
         "ticks"},
        {"trace.overhead", ratio(median(traced_loops), median(plain_loops)),
         "ratio"}},
       tally.correct, tally.attempted, tally.failed());
  return tally.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n";
    return 2;
  }
  const Workload* w = perfbench::find_workload(args.workload);
  if (w == nullptr) {
    std::cerr << "perfbench: unknown workload '" << args.workload
              << "'; known:";
    for (const Workload& k : perfbench::workloads()) std::cerr << " " << k.name;
    std::cerr << "\n";
    return 2;
  }
  std::printf("# workload %s seed=%llu trace=%d\n# why: %s\n# loads: %s\n"
              "# bypasses: %s\n",
              w->name, static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, w->why, w->loads, w->bypasses);
  try {
    return args.trace ? traced(*w, args) : untraced(*w, args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
