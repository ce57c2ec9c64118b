#include "probes.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <vector>

#include "crypto/sha256.h"
#include "lattice/set_elem.h"

namespace perfbench {

namespace lattice = bgla::lattice;

namespace {

using Clock = std::chrono::steady_clock;

double micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

}  // namespace

ProbeResult probe_frontier(const lattice::Elem& frontier, int reps) {
  ProbeResult r;
  const std::set<lattice::Item>& items = lattice::set_items(frontier);
  r.frontier_items = items.size();
  // A new model each call: its encoding cache starts empty.
  const auto fresh = [&items]() { return lattice::make_set(items); };
  const auto check = [&r](bool cond, const char* what) {
    if (!cond && r.ok) {
      r.ok = false;
      r.error = what;
    }
  };

  std::vector<double> join, leq, eq, encode, sha;
  for (int i = 0; i < reps; ++i) {
    // An item no command uses, so the join always grows the frontier.
    const lattice::Elem extra = lattice::make_set(
        {lattice::Item{~0ull, static_cast<std::uint64_t>(i), 0}});

    const lattice::Elem a = fresh();
    auto t0 = Clock::now();
    const lattice::Elem grown = a.join(extra);
    auto t1 = Clock::now();
    join.push_back(micros(t0, t1));
    check(grown.weight() == r.frontier_items + 1, "join weight != frontier+1");

    const lattice::Elem b = fresh();
    const lattice::Elem bigger = fresh().join(extra);
    t0 = Clock::now();
    const bool below = b.leq(bigger);
    t1 = Clock::now();
    leq.push_back(micros(t0, t1));
    check(below, "frontier not leq frontier+1");

    const lattice::Elem c = fresh();
    const lattice::Elem d = fresh();
    t0 = Clock::now();
    const bool same = c == d;
    t1 = Clock::now();
    eq.push_back(micros(t0, t1));
    check(same, "equal frontiers compare unequal");

    const lattice::Elem e = fresh();
    t0 = Clock::now();
    const bgla::Bytes bytes = e.encoded();
    t1 = Clock::now();
    encode.push_back(micros(t0, t1));

    t0 = Clock::now();
    const bgla::crypto::Digest digest = bgla::crypto::Sha256::hash(bytes);
    t1 = Clock::now();
    sha.push_back(micros(t0, t1));
    check(digest == e.digest(), "digest != Sha256::hash(encoded())");
  }
  r.join_us = median(join);
  r.leq_us = median(leq);
  r.eq_us = median(eq);
  r.encode_us = median(encode);
  r.sha256_us = median(sha);
  return r;
}

}  // namespace perfbench
