// Post-run probes of the lattice and crypto public functions at the size of
// a run's final decided frontier. Every repetition rebuilds the frontier
// into fresh models, so no util::EncodingCache entry ever serves a probe,
// and every probe checks its own result.
#pragma once

#include <cstddef>
#include <string>

#include "lattice/elem.h"

namespace perfbench {

struct ProbeResult {
  std::size_t frontier_items = 0;
  double join_us = 0.0;    ///< Elem::join with a new singleton
  double leq_us = 0.0;     ///< leq against frontier + 1 item
  double eq_us = 0.0;      ///< == of two equal frontiers
  double encode_us = 0.0;  ///< first Elem::encoded() on a fresh model
  double sha256_us = 0.0;  ///< Sha256::hash of the frontier's encoding
  bool ok = true;
  std::string error;
};

/// Median of `reps` timings of each probe. `frontier` must be a set-lattice
/// element.
ProbeResult probe_frontier(const bgla::lattice::Elem& frontier, int reps);

}  // namespace perfbench
