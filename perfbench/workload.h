// The benchmark's workloads and the closed loops that run them.
//
// Each episode builds its cluster from the public constructors the way
// harness::run_throughput and harness::run_rsm do, so an episode run at a
// seed reproduces the harness run at that seed tick for tick (the
// self-test checks this). Unlike the harness, an episode times set-up,
// the event loop and the checker separately, and can put the benchmark's
// timing transports between the endpoints and the network.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "crypto/signature.h"
#include "lattice/elem.h"
#include "sim/message.h"
#include "timing.h"

namespace perfbench {

enum class Protocol { kGwts, kGsbs, kFaleiro, kRsm };

/// One seeded workload. All are closed loops over uniform 1-20 tick link
/// delays with unique singleton commands.
struct Workload {
  const char* name;
  Protocol protocol;
  std::uint32_t n;
  std::uint32_t f;
  /// GLA: values per released batch, commands in flight per process, and
  /// commands each process submits.
  std::uint32_t batch = 0;
  std::uint32_t window = 0;
  std::uint32_t cmds_per_proc = 0;
  /// net::DeltaTransport between the endpoints and the network.
  bool delta = false;
  /// RSM: correct clients, each alternating update and read with one op
  /// in flight, and ops per client.
  std::uint32_t clients = 0;
  std::uint32_t ops_per_client = 0;
  /// Independent clusters (episodes) per pass, each at its own seed. Their
  /// tick, byte and latency figures are pooled, which evens out one
  /// schedule's luck while each cluster stays cheap to check.
  std::uint32_t episodes = 1;
  /// Why the workload is in the benchmark, which layers carry it, and
  /// which it bypasses (the "predict no change" control for those layers).
  const char* why;
  const char* loads;
  const char* bypasses;
};

const std::vector<Workload>& workloads();
/// Null when no workload has this name.
const Workload* find_workload(const std::string& name);

/// Seed of episode `e` of a pass at `seed`.
std::uint64_t episode_seed(std::uint64_t seed, std::uint32_t e);

/// Layer counters of a traced pass. Message counts follow sim::Network's
/// meter: non-self sends, encoded bytes.
struct LayerCounts {
  std::array<TypeTraffic, bgla::sim::kNumLayers> by_layer{};
  std::map<std::uint32_t, TypeTraffic> by_type;  ///< network-side sends
  std::uint64_t batches = 0;
  std::uint64_t values_flushed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t decides = 0;
  std::uint64_t refinements = 0;
  std::uint64_t nacks = 0;
  bgla::crypto::CryptoCounters crypto;
  std::uint64_t delta_msgs = 0;
  std::uint64_t passthrough_msgs = 0;
  std::uint64_t delta_wire_bytes = 0;
  std::uint64_t delta_logical_bytes = 0;
  std::uint64_t delta_resets = 0;
  std::uint64_t retries = 0;  ///< RSM backpressure nack->resend cycles
};

/// One pass of a workload: every episode set up, run and checked.
struct Pass {
  std::uint64_t attempted = 0;  ///< commands (RSM: ops) in the feed
  std::uint64_t committed = 0;  ///< decided at the submitter (RSM: completed)
  std::uint64_t reads = 0;      ///< completed RSM reads
  std::uint64_t end_ticks = 0;  ///< simulated ticks, summed over episodes
  std::uint64_t msgs = 0;       ///< non-self messages handed to the network
  std::uint64_t wire_bytes = 0;
  std::uint64_t events = 0;     ///< deliveries, self-deliveries included
  /// Latency samples in ticks: GLA submit -> first covering decision at
  /// the submitter; RSM invoke -> complete, split by op kind.
  std::vector<double> lat;
  std::vector<double> upd_lat;
  std::vector<double> read_lat;

  double setup_s = 0.0;  ///< workload start -> first event
  double loop_s = 0.0;   ///< sim::Network::run
  double check_s = 0.0;  ///< safety / linearizability checkers

  bool ok = true;  ///< every checker passed
  std::string diagnostic;

  /// Final decided frontier of the last episode.
  bgla::lattice::Elem frontier;

  /// Traced passes only.
  SpanLog spans;
  LayerCounts layers;
};

/// Runs one pass. `traced` puts the timing transports and an
/// obs::Instrument into every episode.
Pass run_pass(const Workload& w, std::uint64_t seed, bool traced);

/// Builds every episode of a pass and tears it down without running it;
/// returns the set-up time.
double setup_only(const Workload& w, std::uint64_t seed);

/// True iff the two passes have the same deterministic outcome: commands,
/// ticks, messages, bytes, deliveries and every latency sample.
bool same_outcome(const Pass& a, const Pass& b);

/// Value at quantile q of the samples, picked the way the harness does:
/// sorted[min(n-1, floor(q*n))]. 0 for no samples.
double percentile(std::vector<double> samples, double q);

/// Samples strictly above the one percentile() picks.
std::size_t samples_beyond(std::size_t n, double q);

}  // namespace perfbench
