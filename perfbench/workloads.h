// The four benchmark workloads. Each builds its inputs from the seed,
// measures for Options::seconds, checks the program's outputs, and in a
// traced run fills Result::layer with the per-layer metrics it exercises.
#pragma once

#include "harness.h"

namespace perfbench {

/// DetonationService over a 2-shard ShardedFarm (one worker thread)
/// draining a queued beacon backlog; op = one job drained.
Result run_detonate(const Options& options);
/// One Farm, 2 subfarms x 6 Grum spambots; op = one simulated minute.
Result run_spam_farm(const Options& options);
/// One Farm whose scanning inmate opens a flow every 40 sim-ms; op = one
/// flow verdict applied.
Result run_scan_setup(const Options& options);
/// Analyst loop over a segmented FlowDB store; op = one query.
Result run_flow_query(const Options& options);

}  // namespace perfbench
