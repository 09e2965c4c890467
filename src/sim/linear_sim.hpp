// Linear transient simulator (trapezoidal; fixed or LTE-adaptive step).
//
// This is the workhorse of the superposition flow (paper Figure 1): each
// aggressor/victim simulation over the coupled RC network with Thevenin or
// transient-holding-resistance driver models is one of these runs.
//
// With adaptive stepping (spec.lte_tol > 0) the working step moves on
// power-of-two rungs of the reference dt, so the trapezoidal matrix
// C/dt + G/2 is refactored only on rung changes — the steady-state tail of
// a noise waveform costs orders of magnitude fewer solves than the fixed
// grid.
//
// A run records only the nodes its caller names (every node when the list
// is empty) and may end early at the first accepted step that crosses a
// level on one node. Neither changes a computed sample: the step sequence
// depends only on the past, so a subset run returns the same bytes for
// its rows and a crossing-stopped run is an exact prefix of the full run
// (DESIGN.md §12).
//
// The public surface is StatusOr-only: a nonlinear circuit or a bad spec
// is kInvalidArgument, a numeric blow-up kNumericError.
#pragma once

#include <optional>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/mna.hpp"
#include "matrix/solver.hpp"
#include "sim/transient.hpp"
#include "util/status.hpp"

namespace dn {

/// Ends a run at the first accepted step whose segment crosses `level` on
/// `node` in the requested direction — exactly the segment test of
/// Pwl::crossing: (v0 - level) * (v1 - level) <= 0, v0 != v1, and
/// v1 > v0 == rising. The crossing step is the last sample recorded. The
/// run applies it as a StopCondition (sim/transient.hpp), the one early-end
/// hook both simulators share.
struct CrossingStop {
  NodeId node = kGround;
  double level = 0.0;
  bool rising = true;
};

class LinearSim {
 public:
  /// `ckt` must outlive the simulator. Construction never throws; a
  /// circuit with MOSFETs is reported by try_run/try_dc_solve as
  /// kInvalidArgument (use NonlinearSim for those).
  explicit LinearSim(const Circuit& ckt, SolverOptions solver = {});

  /// Trapezoidal transient from the DC operating point at t_start
  /// (LTE-adaptive when spec.lte_tol > 0). Records the nodes in `record`
  /// (every node when empty) and runs to spec.t_stop, or until `stop`
  /// fires. A record or stop node outside the circuit (or a stop on
  /// ground) is kInvalidArgument.
  StatusOr<TransientResult> try_run(
      const TransientSpec& spec, const std::vector<NodeId>& record = {},
      const std::optional<CrossingStop>& stop = std::nullopt) const;

  /// DC solution (capacitors open: G x = b(t)).
  StatusOr<Vector> try_dc_solve(double t) const;

  const MnaSystem& mna() const { return mna_; }

 private:
  // Throwing internals wrapped by the StatusOr surface.
  Vector dc_solve(double t) const;
  TransientResult run_impl(const TransientSpec& spec,
                           const std::vector<NodeId>& record,
                           const std::optional<CrossingStop>& stop) const;

  const Circuit& ckt_;
  MnaSystem mna_;
  SolverOptions solver_;
};

}  // namespace dn
