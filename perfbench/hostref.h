// A fixed reference workload that gauges how fast the host runs right now.
//
// On a shared host the same pass at the same seed runs 20 to 30% faster or
// slower from one minute to the next, and up to 1.7 times over half an
// hour, as other tenants load the caches and memory; nothing the program
// counts shows it. The benchmark runs the reference after every pass and
// reports the pass's times in nominal-host seconds: measured time x
// kReferenceNominalS / that reference time. The kernels are the
// benchmark's own code, not src/'s, so no change to the system under test
// moves them.
#pragma once

namespace perfbench {

/// The reference's wall-clock time on the 4-vCPU x86 VM the benchmark was
/// tuned on; the unit the reported times are scaled to.
inline constexpr double kReferenceNominalS = 0.065;

/// Runs the reference kernels once and returns their wall-clock seconds.
double reference_s();

}  // namespace perfbench
