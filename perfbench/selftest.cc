// perfbench_selftest — keeps the benchmark's cluster runs honest.
//
//   perfbench_selftest [SEED...]      (default seeds: 1 2)
//
// For every workload and seed it checks that
//   - each episode, run alone, reproduces harness::run_throughput at its
//     seed (faleiro-delta against WireMode::kDelta) or harness::run_rsm:
//     same end tick, message count, committed commands and p50/p99
//     ticks, and both pass their checkers;
//   - a second untraced pass and a traced pass at the seed give the same
//     deterministic outcome as the first.
// Exit code 0 iff every check holds.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "workload.h"
#include "harness/scenario.h"
#include "harness/throughput.h"

namespace {

using perfbench::Pass;
using perfbench::Protocol;
using perfbench::Workload;

/// What the harness reports for one cluster run.
struct HarnessRun {
  std::uint64_t end_ticks = 0;
  std::uint64_t msgs = 0;
  std::uint64_t committed = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  bool ok = true;
};

HarnessRun harness_gla(const Workload& w, std::uint64_t seed) {
  namespace h = bgla::harness;
  h::ThroughputScenario sc;
  sc.protocol = w.protocol == Protocol::kGwts   ? h::ThroughputProtocol::kGwts
                : w.protocol == Protocol::kGsbs ? h::ThroughputProtocol::kGsbs
                                                : h::ThroughputProtocol::kFaleiro;
  sc.n = w.n;
  sc.f = w.f;
  sc.batch.max_batch = w.batch;
  sc.commands_per_proc = w.cmds_per_proc;
  sc.window = w.window;
  sc.seed = seed;
  sc.wire = w.delta ? h::ThroughputScenario::WireMode::kDelta
                    : h::ThroughputScenario::WireMode::kNone;
  const h::ThroughputReport rep = h::run_throughput(sc);
  HarnessRun r;
  r.end_ticks = rep.end_time;
  r.msgs = rep.total_msgs;
  r.committed = rep.commands;
  r.p50 = rep.p50_latency;
  r.p99 = rep.p99_latency;
  r.ok = rep.spec.ok();
  return r;
}

HarnessRun harness_rsm(const Workload& w, std::uint64_t seed) {
  namespace h = bgla::harness;
  h::RsmScenario sc;
  sc.n = w.n;
  sc.f = w.f;
  sc.byz_replicas = 1;
  sc.num_clients = w.clients;
  sc.ops_per_client = w.ops_per_client;
  sc.seed = seed;
  const h::RsmReport rep = h::run_rsm(sc);
  HarnessRun r;
  r.end_ticks = rep.end_time;
  r.msgs = rep.total_msgs;
  r.committed = rep.ops_completed;
  r.ok = rep.check.ok() && rep.linearization.linearizable;
  std::vector<double> lat;
  for (const auto& history : rep.histories) {
    for (const auto& rec : history) {
      if (rec.completed) {
        lat.push_back(static_cast<double>(rec.complete_time - rec.invoke_time));
      }
    }
  }
  r.p50 = perfbench::percentile(lat, 0.50);
  r.p99 = perfbench::percentile(lat, 0.99);
  return r;
}

int failures = 0;

void expect(bool cond, const std::string& what) {
  std::printf("%s %s\n", cond ? "ok  " : "FAIL", what.c_str());
  if (!cond) ++failures;
}

/// One episode of `w`, run alone at its seed, against the harness.
void check_episode(const Workload& w, std::uint64_t seed, std::uint32_t e) {
  Workload one = w;
  one.episodes = 1;
  const std::uint64_t s = perfbench::episode_seed(seed, e);
  const Pass p = perfbench::run_pass(one, s, false);
  const HarnessRun h = w.protocol == Protocol::kRsm ? harness_rsm(one, s)
                                                    : harness_gla(one, s);
  const double p50 = perfbench::percentile(p.lat, 0.50);
  const double p99 = perfbench::percentile(p.lat, 0.99);
  std::string diff;
  const auto cmp = [&diff](const char* what, double d, double hv) {
    if (d != hv) {
      diff += std::string(" ") + what + " bench=" + std::to_string(d) +
              " harness=" + std::to_string(hv);
    }
  };
  cmp("end_tick", static_cast<double>(p.end_ticks),
      static_cast<double>(h.end_ticks));
  cmp("msgs", static_cast<double>(p.msgs), static_cast<double>(h.msgs));
  cmp("committed", static_cast<double>(p.committed),
      static_cast<double>(h.committed));
  cmp("p50", p50, h.p50);
  cmp("p99", p99, h.p99);
  if (!p.ok || !h.ok) diff += " checker failed: " + p.diagnostic;
  if (p.committed != p.attempted) diff += " commands left uncommitted";
  char summary[160];
  std::snprintf(summary, sizeof summary,
                " (end tick %llu, %llu msgs, %llu committed, p50 %g, p99 %g)",
                static_cast<unsigned long long>(p.end_ticks),
                static_cast<unsigned long long>(p.msgs),
                static_cast<unsigned long long>(p.committed), p50, p99);
  expect(diff.empty(), std::string(w.name) + " seed=" + std::to_string(seed) +
                           " episode " + std::to_string(e) +
                           " matches the harness" +
                           (diff.empty() ? summary : ":" + diff));
}

void check_workload(const Workload& w, std::uint64_t seed) {
  for (std::uint32_t e = 0; e < w.episodes; ++e) check_episode(w, seed, e);
  const std::string at =
      std::string(w.name) + " seed=" + std::to_string(seed) + ": ";
  const Pass first = perfbench::run_pass(w, seed, false);
  const Pass again = perfbench::run_pass(w, seed, false);
  expect(perfbench::same_outcome(first, again),
         at + "a second untraced pass has the same outcome");
  const Pass traced = perfbench::run_pass(w, seed, true);
  expect(perfbench::same_outcome(first, traced),
         at + "a traced pass has the same outcome");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::uint64_t> seeds;
  for (int i = 1; i < argc; ++i) seeds.push_back(std::strtoull(argv[i], nullptr, 10));
  if (seeds.empty()) seeds = {1, 2};
  for (const Workload& w : perfbench::workloads()) {
    for (const std::uint64_t seed : seeds) check_workload(w, seed);
  }
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
