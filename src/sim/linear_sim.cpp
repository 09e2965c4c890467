#include "sim/linear_sim.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/deadline.hpp"
#include "util/metrics.hpp"
#include "util/numeric.hpp"

namespace dn {

LinearSim::LinearSim(const Circuit& ckt, SolverOptions solver)
    : ckt_(ckt), mna_(ckt), solver_(solver) {}

Vector LinearSim::dc_solve(double t) const {
  // At DC the capacitors are open: solve G x = b(t). gmin (stamped in the
  // MNA assembly) keeps capacitively-floating nodes well defined.
  auto lu = SystemSolver::make(mna_.Gs(), solver_);
  lu.status().throw_if_error();
  return lu->solve(mna_.rhs(t));
}

StatusOr<Vector> LinearSim::try_dc_solve(double t) const {
  if (!ckt_.is_linear())
    return Status::InvalidArgument(
        "LinearSim: circuit contains MOSFETs; use NonlinearSim");
  try {
    return dc_solve(t);
  } catch (const std::exception& e) {
    return status_from_exception(e);
  }
}

TransientResult LinearSim::run_impl(
    const TransientSpec& spec, const std::vector<NodeId>& record,
    const std::optional<CrossingStop>& stop) const {
  const std::size_t dim = mna_.dim();
  static obs::Counter& c_steps = obs::metrics().counter("sim.linear.steps");
  static obs::Counter& c_accepted =
      obs::metrics().counter("sim.lte.steps_accepted");
  static obs::Counter& c_rejected =
      obs::metrics().counter("sim.lte.steps_rejected");
  static obs::Histogram& h_dt =
      obs::metrics().histogram("sim.lte.dt_accepted_s");

  // Trapezoidal:  (C/dt + G/2) x1 = C x0 / dt - G x0 / 2 + (b0 + b1)/2.
  // The LHS matrix depends only on the step size, and the adaptive
  // controller revisits the same power-of-two rungs many times per run
  // (dip into a transition, regrow after it). Factoring a multi-thousand-
  // node sparse matrix is the dominant linear-sim cost, so each distinct
  // step size is factored once and every revisit reuses it. Breakpoint-
  // clamped odd step sizes past the cap share one refactoring scratch
  // slot, so a pathological source waveform cannot hoard factorizations.
  constexpr std::size_t kMaxCachedRungs = 24;
  std::vector<std::pair<double, SystemSolver>> lus;
  lus.reserve(kMaxCachedRungs);
  std::optional<SystemSolver> scratch;
  SystemSolver* lu = nullptr;
  double matrix_dt = 0.0;
  auto set_step_matrix = [&](double h) {
    if (lu && h == matrix_dt) return;
    matrix_dt = h;
    for (auto& [dt, cached] : lus)
      if (dt == h) {
        lu = &cached;
        return;
      }
    const SparseMatrix a_lhs =
        SparseMatrix::combine(1.0 / h, mna_.Cs(), 0.5, mna_.Gs());
    if (lus.empty()) {
      // Only the first factorization pays the symbolic analysis; every
      // later step size clones it and replays numerics on the same
      // pattern (every rung's LHS shares the C/G sparsity union).
      auto made = SystemSolver::make(a_lhs, solver_);
      made.status().throw_if_error();
      lus.emplace_back(h, std::move(*made));
      lu = &lus.back().second;
    } else if (lus.size() < kMaxCachedRungs) {
      SystemSolver cloned = lus.front().second;
      cloned.refactor(a_lhs).throw_if_error();
      lus.emplace_back(h, std::move(cloned));
      lu = &lus.back().second;
    } else {
      if (!scratch) scratch.emplace(lus.front().second);
      scratch->refactor(a_lhs).throw_if_error();
      lu = &*scratch;
    }
  };

  TransientResult result(ckt_.num_nodes(), record);  // Validates `record`.
  Vector x0 = dc_solve(spec.t_start);

  if (!spec.adaptive())
    result.reserve(static_cast<std::size_t>(*spec.num_steps()) + 1);
  auto sample = [&](const Vector& x, double t) {
    result.append(t, [&](NodeId n) { return mna_.node_voltage(x, n); });
  };
  sample(x0, spec.t_start);
  result.set_initial_state(x0);
  // The crossing test as a StopCondition; `v_stop` is the stop node's
  // value at the last accepted sample (the segment start).
  StopCondition stop_at;
  if (stop)
    stop_at = [this, &stop, v_stop = mna_.node_voltage(x0, stop->node)](
                  double, const Vector& x) mutable {
      const double v0 = v_stop, v1 = mna_.node_voltage(x, stop->node);
      v_stop = v1;
      const double l = stop->level;
      return (v1 > v0) == stop->rising && (v0 - l) * (v1 - l) <= 0.0 &&
             v0 != v1;
    };

  StepController ctl(spec, ckt_);
  Vector b0, b1;
  mna_.rhs_into(spec.t_start, b0);
  Vector gx(dim, 0.0), cx(dim, 0.0), rhs(dim, 0.0), x1;
  // Counters are accumulated locally and flushed once per run; see the
  // matching pattern in NonlinearSim::run_impl.
  std::uint64_t n_steps = 0, n_rej = 0;
  struct DtBin {
    double h = 0.0;
    std::uint64_t n = 0;
  };
  std::array<DtBin, 24> dt_bins{};
  std::size_t n_dt_bins = 0;
  auto record_dt = [&](double h) {
    for (std::size_t i = 0; i < n_dt_bins; ++i)
      if (dt_bins[i].h == h) {
        ++dt_bins[i].n;
        return;
      }
    if (n_dt_bins < dt_bins.size()) {
      dt_bins[n_dt_bins++] = {h, 1};
      return;
    }
    h_dt.record(h);  // Bin overflow: record directly.
  };

  // Predictor history for the LTE estimate (previous accepted point);
  // invalidated across source-waveform corners.
  Vector x_prev;
  double h_prev = 0.0;
  bool have_prev = false;

  const std::size_t nv = mna_.num_node_vars();
  double t0 = spec.t_start;
  std::uint64_t attempts = 0;
  while (!ctl.done(t0)) {
    // Every-64th-attempt deadline polling; see NonlinearSim::run_impl.
    if ((attempts & 63) == 0) deadline_checkpoint("LinearSim::run");
    if (++attempts > 25'000'000)
      throw NumericError("LinearSim: adaptive step limit exceeded");
    const double h = ctl.step_size(t0);
    double t1 = t0 + h;
    if (t1 > spec.t_stop) t1 = spec.t_stop;
    set_step_matrix(h);
    mna_.rhs_into(t1, b1);

    const double inv_dt = 1.0 / h;
    mna_.Cs().matvec(x0, cx);
    mna_.Gs().matvec(x0, gx);
    for (std::size_t i = 0; i < dim; ++i)
      rhs[i] = inv_dt * cx[i] - 0.5 * gx[i] + 0.5 * (b0[i] + b1[i]);
    x1 = rhs;
    lu->solve_in_place(x1);
    if (!all_finite(x1))
      throw NumericError("LinearSim: non-finite solution at t = " +
                         std::to_string(t1));

    // LTE estimate: corrector vs linear extrapolation of the last two
    // accepted points, damped by h/(h + h_prev).
    double est = -1.0;
    if (ctl.adaptive() && have_prev && h_prev > 0.0) {
      const double r = h / h_prev;
      double dev = 0.0;
      for (std::size_t i = 0; i < nv; ++i) {
        const double pred = x0[i] + r * (x0[i] - x_prev[i]);
        dev = std::max(dev, std::abs(x1[i] - pred));
      }
      est = dev * (h / (h + h_prev));
    }
    if (ctl.lte_reject(h, est)) {
      ++n_rej;
      continue;  // Discard x1; the controller shrank the working step.
    }

    ++n_steps;
    record_dt(h);
    const bool kink = ctl.crossed_breakpoint(t0, t1);
    // Rotate buffers instead of reallocating (x1 is refilled from `rhs`
    // at the top of the next accepted attempt).
    std::swap(x_prev, x0);
    h_prev = h;
    have_prev = !kink;
    std::swap(x0, x1);
    std::swap(b0, b1);
    t0 = t1;
    sample(x0, t0);
    if (stop_at && stop_at(t0, x0)) break;
  }
  c_steps.add(n_steps);
  c_accepted.add(n_steps);
  if (n_rej) c_rejected.add(n_rej);
  for (std::size_t i = 0; i < n_dt_bins; ++i)
    h_dt.record_n(dt_bins[i].h, dt_bins[i].n);
  return result;
}

StatusOr<TransientResult> LinearSim::try_run(
    const TransientSpec& spec, const std::vector<NodeId>& record,
    const std::optional<CrossingStop>& stop) const {
  if (!ckt_.is_linear())
    return Status::InvalidArgument(
        "LinearSim: circuit contains MOSFETs; use NonlinearSim");
  if (Status s = spec.validate(); !s.ok()) return s;
  if (stop && (stop->node <= kGround || stop->node >= ckt_.num_nodes() ||
               !std::isfinite(stop->level)))
    return Status::InvalidArgument("LinearSim: bad crossing-stop node/level");
  try {
    return run_impl(spec, record, stop);
  } catch (const std::exception& e) {
    return status_from_exception(e);
  }
}

}  // namespace dn
