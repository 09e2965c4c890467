// Stage replay of the per-net flow. NoiseAnalyzer::try_analyze runs
// analyze_delay_noise as one call; the replay makes the same public calls
// in the same order (driver characterization, victim and aggressor linear
// sims, composite pulse, table prediction, receiver probes, Rtr), each
// wrapped in a span of its layer, so the traced run can split a net's time
// by stage without instrumenting the library. Its delays must equal
// try_analyze's to the bit; the workloads gate on that.
#pragma once

#include "clarinet/analyzer.hpp"
#include "spans.hpp"
#include "util/status.hpp"

namespace nb {

struct ReplayResult {
  double nominal_t50 = 0.0;
  double noisy_t50 = 0.0;
  int rtr_iterations = 0;  // Summed over the fix-point passes.
};

/// Replays `analyzer`'s flow on `net`. Nets the replay does not mirror
/// (window or exclusion pruning, exhaustive alignment) come back as
/// kFailedPrecondition; analysis failures as the flow's own error.
dn::StatusOr<ReplayResult> replay_flow(const dn::NoiseAnalyzer& analyzer,
                                       const dn::CoupledNet& net, Spans& spans,
                                       std::uint64_t id);

}  // namespace nb
