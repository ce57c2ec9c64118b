#include "workload.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "la/faleiro_la.h"
#include "la/gsbs.h"
#include "la/gwts.h"
#include "la/spec.h"
#include "lattice/set_elem.h"
#include "obs/instrument.h"
#include "obs/registry.h"
#include "rsm/byz_rsm.h"
#include "rsm/client.h"
#include "rsm/history.h"
#include "rsm/linearize.h"
#include "rsm/replica.h"
#include "sim/delay.h"
#include "sim/network.h"

namespace perfbench {

namespace la = bgla::la;
namespace lattice = bgla::lattice;
namespace rsm = bgla::rsm;
namespace sim = bgla::sim;
using bgla::ProcessId;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The harness's Sched::kUniform link delays.
std::unique_ptr<sim::DelayModel> uniform_delay() {
  return std::make_unique<sim::UniformDelay>(1, 20);
}

/// The obs sinks of a traced episode: counters only. No trace writer and
/// spans stay off, so no message carries a trace-context tail.
struct Obs {
  bgla::obs::Registry registry;
  bgla::obs::Instrument instrument{&registry, nullptr};

  std::uint64_t counter(const char* name) {
    return registry.counter(name).value();
  }
};

/// Adds what sim::Network metered and what the network-side timing
/// transport saw to the pass's layer counts.
void add_traffic(const sim::Network& net, const Wire& wire, LayerCounts& lc) {
  bgla::obs::Registry reg;
  net.metrics().publish(reg);
  for (std::size_t l = 0; l < bgla::sim::kNumLayers; ++l) {
    const std::string suffix =
        std::string("{layer=\"") + sim::layer_name(static_cast<sim::Layer>(l)) +
        "\"}";
    lc.by_layer[l].msgs += static_cast<std::uint64_t>(
        reg.gauge("bgla_sim_messages_total" + suffix).value());
    lc.by_layer[l].bytes += static_cast<std::uint64_t>(
        reg.gauge("bgla_sim_bytes_total" + suffix).value());
  }
  for (const auto& [type, t] : wire.network_side()->sent_by_type()) {
    lc.by_type[type].msgs += t.msgs;
    lc.by_type[type].bytes += t.bytes;
  }
  if (const bgla::net::DeltaTransport* d = wire.delta()) {
    const bgla::net::DeltaTransport::Stats s = d->stats();
    lc.delta_msgs += s.msgs_delta;
    lc.passthrough_msgs += s.msgs_passthrough;
    lc.delta_wire_bytes += s.wire_bytes_delta;
    lc.delta_logical_bytes += s.logical_bytes;
    lc.delta_resets += s.resets_sent;
  }
}

void add_obs(Obs& obs, LayerCounts& lc) {
  lc.decides += obs.counter("bgla_proto_decides_total");
  lc.refinements += obs.counter("bgla_proto_refinements_total");
  lc.nacks += obs.counter("bgla_proto_nacks_total");
}

void add_network_totals(const sim::Network& net, const sim::RunResult& rr,
                        Pass& pass) {
  pass.end_ticks += rr.end_time;
  pass.events += rr.events;
  pass.msgs += net.metrics().total_messages();
  for (ProcessId p = 0; p < net.metrics().num_processes(); ++p) {
    pass.wire_bytes += net.metrics().bytes_sent(p);
  }
}

void fail(Pass& pass, const std::string& what) {
  pass.ok = false;
  if (!pass.diagnostic.empty()) pass.diagnostic += "; ";
  pass.diagnostic += what;
}

// ------------------------------------------------------------------ GLA --

/// Protocol-agnostic view of one GLA process for the closed loop.
struct GlaProc {
  std::unique_ptr<bgla::net::Endpoint> owner;
  std::function<bool(const lattice::Elem&)> try_submit;
  std::function<const std::vector<lattice::Elem>&()> submitted;
  std::function<const std::vector<la::DecisionRecord>&()> decisions;
  std::function<const la::Batcher&()> batcher;
};

template <typename Proc>
GlaProc gla_proc(std::unique_ptr<Proc> p, bgla::obs::Instrument* instrument,
                 std::function<void(const la::DecisionRecord&)> on_decide) {
  p->set_instrument(instrument);
  p->set_decide_hook(
      [on_decide = std::move(on_decide)](
          const Proc&, const la::DecisionRecord& rec) { on_decide(rec); });
  Proc* raw = p.get();
  GlaProc out;
  out.try_submit = [raw](const lattice::Elem& v) {
    return raw->try_submit(v);
  };
  out.submitted = [raw]() -> const std::vector<lattice::Elem>& {
    return raw->submitted();
  };
  out.decisions = [raw]() -> const std::vector<la::DecisionRecord>& {
    return raw->decisions();
  };
  out.batcher = [raw]() -> const la::Batcher& { return raw->batcher(); };
  out.owner = std::move(p);
  return out;
}

/// Per-process closed-loop state. Commands retire strictly in feed order:
/// the batcher is FIFO and decided sets are monotone.
struct Feed {
  std::uint32_t next = 0;
  std::uint32_t retired = 0;
  std::vector<sim::Time> submit_time;
};

lattice::Elem feed_value(ProcessId id, std::uint32_t k) {
  return lattice::make_set({lattice::Item{id, 100 + k, 1}});
}

/// One GLA cluster, built as harness::run_throughput builds it. Returns
/// after set-up when `setup_only`.
void gla_episode(const Workload& w, std::uint64_t seed, SpanLog* log,
                 bool setup_only, Pass& pass) {
  const auto t0 = Clock::now();
  sim::Network net(uniform_delay(), seed, w.n);
  std::optional<bgla::crypto::SignatureAuthority> auth;
  if (w.protocol == Protocol::kGsbs) auth.emplace(w.n, seed ^ 0x5eed5eed);
  std::optional<Obs> obs;
  if (log != nullptr) obs.emplace();
  bgla::obs::Instrument* instrument = obs ? &obs->instrument : nullptr;
  Wire wire(net, w.delta, log, instrument);

  std::vector<GlaProc> procs(w.n);
  std::vector<Feed> feeds(w.n);
  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(w.n) * w.cmds_per_proc);

  // Retire what the decision covers, then refill the window. Runs inside
  // the deciding process's decide hook, so the run stays deterministic.
  const auto on_decide = [&](ProcessId id, const la::DecisionRecord& rec) {
    Feed& fd = feeds[id];
    while (fd.retired < fd.next && feed_value(id, fd.retired).leq(rec.value)) {
      latencies.push_back(
          static_cast<double>(rec.time - fd.submit_time[fd.retired]));
      ++fd.retired;
    }
    while (fd.next - fd.retired < w.window && fd.next < w.cmds_per_proc) {
      if (!procs[id].try_submit(feed_value(id, fd.next))) break;
      fd.submit_time.push_back(net.now());
      ++fd.next;
    }
    for (ProcessId p = 0; p < w.n; ++p) {
      if (feeds[p].retired < w.cmds_per_proc) return;
    }
    net.request_stop();
  };

  la::LaConfig lcfg;
  lcfg.n = w.n;
  lcfg.f = w.f;
  lcfg.batch.max_batch = w.batch;
  la::CrashConfig ccfg;
  ccfg.n = w.n;
  ccfg.f = w.f;
  ccfg.batch.max_batch = w.batch;
  if (w.protocol == Protocol::kFaleiro) {
    ccfg.validate();
  } else {
    lcfg.validate();
  }

  bgla::net::Transport& t = wire.endpoints();
  for (ProcessId id = 0; id < w.n; ++id) {
    auto hook = [&on_decide, id](const la::DecisionRecord& rec) {
      on_decide(id, rec);
    };
    switch (w.protocol) {
      case Protocol::kGwts:
        procs[id] = gla_proc(std::make_unique<la::GwtsProcess>(t, id, lcfg),
                             instrument, hook);
        break;
      case Protocol::kGsbs:
        procs[id] = gla_proc(
            std::make_unique<la::GsbsProcess>(t, id, lcfg, *auth), instrument,
            hook);
        break;
      case Protocol::kFaleiro:
        procs[id] = gla_proc(
            std::make_unique<la::FaleiroProcess>(t, id, ccfg), instrument,
            hook);
        break;
      case Protocol::kRsm:
        BGLA_CHECK_MSG(false, "gla_episode: not a GLA workload");
    }
  }

  // Prime every window; submit time 0.
  for (ProcessId id = 0; id < w.n; ++id) {
    Feed& fd = feeds[id];
    while (fd.next < w.window && fd.next < w.cmds_per_proc) {
      if (!procs[id].try_submit(feed_value(id, fd.next))) break;
      fd.submit_time.push_back(0);
      ++fd.next;
    }
  }
  pass.setup_s += seconds_since(t0);
  if (setup_only) return;

  const auto t1 = Clock::now();
  const sim::RunResult rr = net.run(200'000'000);
  pass.loop_s += seconds_since(t1);

  add_network_totals(net, rr, pass);
  pass.attempted += static_cast<std::uint64_t>(w.n) * w.cmds_per_proc;
  for (const Feed& fd : feeds) pass.committed += fd.retired;
  pass.lat.insert(pass.lat.end(), latencies.begin(), latencies.end());

  const auto t2 = Clock::now();
  std::vector<la::GlaView> views;
  lattice::Elem frontier;
  for (ProcessId id = 0; id < w.n; ++id) {
    la::GlaView v;
    v.id = id;
    v.submitted = procs[id].submitted();
    for (const auto& d : procs[id].decisions()) v.decisions.push_back(d.value);
    if (!v.decisions.empty()) frontier = frontier.join(v.decisions.back());
    views.push_back(std::move(v));
  }
  const la::GlaSpecResult spec =
      la::check_gla(views, lattice::Elem(), /*min_decisions=*/1);
  pass.check_s += seconds_since(t2);
  if (!spec.ok()) fail(pass, "la::check_gla: " + spec.diagnostic);
  pass.frontier = frontier;

  if (log != nullptr) {
    LayerCounts& lc = pass.layers;
    add_traffic(net, wire, lc);
    add_obs(*obs, lc);
    for (const GlaProc& p : procs) {
      lc.batches += p.batcher().stats().batches;
      lc.values_flushed += p.batcher().stats().values_flushed;
      lc.rejected += p.batcher().stats().rejected;
    }
    if (auth) lc.crypto += auth->counters();
  }
}

// ------------------------------------------------------------------ RSM --

/// One RSM cluster, built as harness::run_rsm builds it with one
/// fake-decider replica (the last replica id) and no Byzantine client.
void rsm_episode(const Workload& w, std::uint64_t seed, SpanLog* log,
                 bool setup_only, Pass& pass) {
  const auto t0 = Clock::now();
  la::LaConfig cfg;
  cfg.n = w.n;
  cfg.f = w.f;
  cfg.validate();
  const ProcessId client_base = w.n;
  const ProcessId fake_id = w.n - 1;

  sim::Network net(uniform_delay(), seed, w.n + w.clients);
  std::optional<Obs> obs;
  if (log != nullptr) obs.emplace();
  Wire wire(net, /*delta=*/false, log, nullptr);
  bgla::net::Transport& t = wire.endpoints();

  std::vector<std::unique_ptr<rsm::Replica>> replicas;
  for (ProcessId id = 0; id < fake_id; ++id) {
    replicas.push_back(
        std::make_unique<rsm::Replica>(t, id, cfg, client_base, w.clients));
    replicas.back()->set_instrument(obs ? &obs->instrument : nullptr);
  }
  // Takes sim::Network, so it attaches beside the timing transport.
  rsm::FakeDeciderReplica fake(net, fake_id, client_base, w.clients);

  std::vector<std::unique_ptr<rsm::Client>> clients;
  for (std::uint32_t c = 0; c < w.clients; ++c) {
    std::vector<rsm::Op> script;
    for (std::uint32_t k = 0; k < w.ops_per_client; ++k) {
      script.push_back(k % 2 == 0 ? rsm::Op::update(10 * (c + 1) + k)
                                  : rsm::Op::read());
    }
    clients.push_back(std::make_unique<rsm::Client>(
        t, client_base + c, w.n, w.f, std::move(script)));
  }
  const auto all_done = [&]() {
    for (const auto& c : clients) {
      if (!c->done()) return false;
    }
    return true;
  };
  for (const auto& c : clients) {
    c->set_op_hook([&](const rsm::Client&, const rsm::OpRecord&) {
      if (all_done()) net.request_stop();
    });
  }
  pass.setup_s += seconds_since(t0);
  if (setup_only) return;

  const auto t1 = Clock::now();
  const sim::RunResult rr = net.run(80'000'000);
  pass.loop_s += seconds_since(t1);

  add_network_totals(net, rr, pass);
  std::vector<std::vector<rsm::OpRecord>> histories;
  for (const auto& c : clients) {
    histories.push_back(c->history());
    pass.attempted += w.ops_per_client;
    for (const rsm::OpRecord& rec : c->history()) {
      if (!rec.completed) continue;
      ++pass.committed;
      const double lat =
          static_cast<double>(rec.complete_time - rec.invoke_time);
      pass.lat.push_back(lat);
      if (rec.op.kind == rsm::Op::Kind::kRead) {
        pass.read_lat.push_back(lat);
        ++pass.reads;
      } else {
        pass.upd_lat.push_back(lat);
      }
    }
  }

  const auto t2 = Clock::now();
  const rsm::RsmCheckResult check = rsm::check_history(histories);
  const rsm::LinearizationResult lin = rsm::linearize(histories);
  pass.check_s += seconds_since(t2);
  if (!check.ok()) fail(pass, "rsm::check_history: " + check.diagnostic);
  if (!lin.linearizable) fail(pass, "rsm::linearize: " + lin.diagnostic);

  lattice::Elem frontier;
  for (const auto& r : replicas) frontier = frontier.join(r->state());
  pass.frontier = frontier;

  if (log != nullptr) {
    LayerCounts& lc = pass.layers;
    add_traffic(net, wire, lc);
    add_obs(*obs, lc);
    for (const auto& r : replicas) {
      lc.batches += r->batcher().stats().batches;
      lc.values_flushed += r->batcher().stats().values_flushed;
      lc.rejected += r->batcher().stats().rejected;
    }
    for (const auto& c : clients) lc.retries += c->backpressure_retries();
  }
}

void run_episodes(const Workload& w, std::uint64_t seed, SpanLog* log,
                  bool setup_only, Pass& pass) {
  for (std::uint32_t e = 0; e < w.episodes; ++e) {
    const std::uint64_t s = episode_seed(seed, e);
    if (w.protocol == Protocol::kRsm) {
      rsm_episode(w, s, log, setup_only, pass);
    } else {
      gla_episode(w, s, log, setup_only, pass);
    }
  }
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {.name = "gwts-bracha",
       .protocol = Protocol::kGwts,
       .n = 7,
       .f = 2,
       .batch = 16,
       .window = 64,
       .cmds_per_proc = 320,
       .why = "GWTS over Bracha reliable broadcast: RB handling, message "
              "digests and send-side encoding dominate the CPU",
       .loads = "sim, bcast (Bracha SEND/ECHO/READY), la (GWTS), lattice, "
                "crypto (SHA-256 digests)",
       .bypasses = "crypto signatures, net (delta codec), rsm"},
      {.name = "gsbs-signed",
       .protocol = Protocol::kGsbs,
       .n = 7,
       .f = 2,
       .batch = 16,
       .window = 64,
       .cmds_per_proc = 128,
       .episodes = 8,
       .why = "the only workload that loads signatures (MACs, verify cache); "
              "the Byzantine control with no RB traffic",
       .loads = "sim, la (GSbS), lattice, crypto (MACs, verify cache, "
                "SHA-256)",
       .bypasses = "bcast, net (delta codec), rsm"},
      {.name = "faleiro-delta",
       .protocol = Protocol::kFaleiro,
       .n = 3,
       .f = 1,
       .batch = 64,
       .window = 256,
       .cmds_per_proc = 417,
       .delta = true,
       .episodes = 24,
       .why = "PODC'12 crash-stop GLA on the delta wire: lattice ops on "
              "whole frontiers and the delta codec carry the run",
       .loads = "sim, la (Faleiro), lattice (large frontier), net "
                "(DeltaTransport encode and reconstruct)",
       .bypasses = "bcast, crypto signatures, rsm"},
      {.name = "rsm-byz-rw",
       .protocol = Protocol::kRsm,
       .n = 4,
       .f = 1,
       .clients = 8,
       .ops_per_client = 32,
       .episodes = 5,
       .why = "the BFT RSM users see: reads beside writes, with a "
              "fake-decider replica whose decisions reads must filter",
       .loads = "sim, rsm (clients, replicas, confirmations), bcast (Bracha "
                "inside GWTS), la (GWTS)",
       .bypasses = "crypto signatures, net (delta codec); lattice does "
                   "little on its small frontier"},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::uint64_t episode_seed(std::uint64_t seed, std::uint32_t e) {
  // Episode 0 runs at the seed itself; the others get seeds that no
  // episode of another pass seed shares.
  return e == 0 ? seed : seed * 1'000'003 + e;
}

Pass run_pass(const Workload& w, std::uint64_t seed, bool traced) {
  Pass pass;
  run_episodes(w, seed, traced ? &pass.spans : nullptr, /*setup_only=*/false,
               pass);
  return pass;
}

double setup_only(const Workload& w, std::uint64_t seed) {
  Pass pass;
  run_episodes(w, seed, nullptr, /*setup_only=*/true, pass);
  return pass.setup_s;
}

bool same_outcome(const Pass& a, const Pass& b) {
  const auto sorted = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  return a.attempted == b.attempted && a.committed == b.committed &&
         a.reads == b.reads && a.end_ticks == b.end_ticks &&
         a.msgs == b.msgs && a.wire_bytes == b.wire_bytes &&
         a.events == b.events && sorted(a.lat) == sorted(b.lat) &&
         sorted(a.upd_lat) == sorted(b.upd_lat) &&
         sorted(a.read_lat) == sorted(b.read_lat);
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t i = std::min(
      samples.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(samples.size())));
  return samples[i];
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const std::size_t i =
      std::min(n - 1, static_cast<std::size_t>(q * static_cast<double>(n)));
  return n - 1 - i;
}

}  // namespace perfbench
