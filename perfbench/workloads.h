// The three workloads. Each fills `out` with the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run, options.trace) and runs the
// output checks; a check violation is recorded in `out`.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// 90 % tail-skewed reads and 10 % appends over a preloaded 64 MiB log.
void RunFlstoreReadMix(const Options& options, Outcome* out);
/// Two Chariots datacenters replicating causally dependent appends.
void RunGeoReplicate(const Options& options, Outcome* out);

/// Flags `phase` when the generator's p99 lateness exceeded the phase's
/// latency limit: its latencies then partly measure the generator.
void NoteLateness(const std::string& phase, double late_p99_us,
                  double limit_us, Outcome* out);

/// Median of a small vector (0 when empty).
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
