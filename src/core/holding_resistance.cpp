#include "core/holding_resistance.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "devices/gate.hpp"
#include "waveform/pulse.hpp"

namespace dn {

Pwl differentiate(const Pwl& w, double dt) {
  if (w.empty() || w.size() < 2) return Pwl{};
  const double t0 = w.t_begin(), t1 = w.t_end();
  const int n = std::max(static_cast<int>((t1 - t0) / dt), 4);
  const Pwl rs = w.resampled(t0, t1, n + 1);
  std::vector<double> ts(rs.times().begin(), rs.times().end());
  std::vector<double> dv(ts.size(), 0.0);
  const auto& vs = rs.values();
  const double h = ts[1] - ts[0];
  for (std::size_t i = 1; i + 1 < ts.size(); ++i)
    dv[i] = (vs[i + 1] - vs[i - 1]) / (2 * h);
  dv.front() = (vs[1] - vs[0]) / h;
  dv.back() = (vs[vs.size() - 1] - vs[vs.size() - 2]) / h;
  return Pwl(std::move(ts), std::move(dv));
}

namespace {

/// V'n = V2 - V1 over [spec.t_start, spec.t_stop], simulating V2 only in
/// the window where the injected current `in_cur` acts (see the header).
Pwl windowed_noise_response(const GateParams& driver, const Pwl& vin,
                            double cload, TransientSpec spec,
                            const SuperpositionEngine::DriverResponse& v1,
                            const Pwl& in_cur) {
  const Pwl zero({spec.t_start, spec.t_stop}, {0.0, 0.0});
  const auto it = in_cur.times();
  const auto iv = in_cur.values();
  // In is exactly zero up to the sample before its first nonzero one, so
  // V2 is V1 there.
  std::size_t first = 0;
  while (first < iv.size() && iv[first] == 0.0) ++first;
  if (first == iv.size()) return zero;
  double in_peak = 0.0;
  for (const double v : iv) in_peak = std::max(in_peak, std::abs(v));
  std::size_t quiet = iv.size();
  while (std::abs(iv[quiet - 1]) < kRtrWindowTol * in_peak) --quiet;
  const double t_quiet = quiet < iv.size()
                             ? it[quiet]
                             : std::numeric_limits<double>::infinity();

  // Resume at the last V1 grid point at or before In's last zero sample;
  // past V1's settle stop, from its final state. When In is already
  // nonzero at t_start, V2 starts from its own DC point.
  const auto t1 = v1.out.times();
  const auto v1v = v1.out.values();
  const std::size_t last = t1.size() - 1;
  const bool resume = first > 0 && it[first - 1] >= t1[0];
  std::size_t k = 0;
  if (resume) {
    k = static_cast<std::size_t>(
            std::upper_bound(t1.begin(), t1.end(), it[first - 1]) -
            t1.begin()) - 1;
    spec.t_start = t1[k];
    if (spec.t_start >= spec.t_stop - 1e-6 * spec.dt) return zero;
  }

  const GateCircuit g = gate_circuit(driver, vin, cload, in_cur);
  const NonlinearSim sim(g.ckt);
  auto v1_at = [&](std::size_t j) { return v1v[std::min(j, last)]; };
  // V2 ends once In is quiet and V2 - V1 has stayed below kRtrWindowTol of
  // its running peak for a settle window.
  std::size_t j = k;
  double peak = 0.0, t_loud = spec.t_start;
  bool stopped = false;
  const StopCondition settled = [&](double t, const Vector& x) {
    const double d = sim.mna().node_voltage(x, g.out) - v1_at(++j);
    peak = std::max(peak, std::abs(d));
    if (std::abs(d) >= kRtrWindowTol * peak) t_loud = t;
    stopped = t >= t_quiet && t - t_loud >= kDriverSettleWindow;
    return stopped;
  };
  const Vector dc_hint(v1.state(0).begin(), v1.state(0).end());
  StatusOr<TransientResult> v2r =
      resume ? sim.try_resume(spec, v1.state(k), {g.out}, settled)
             : sim.try_run(spec, &dc_hint, {g.out}, settled);
  if (!v2r.ok()) raise(v2r.status());
  const std::vector<double>& ts = v2r->time();
  const Pwl v2 = v2r->waveform(g.out);

  std::vector<double> t_out, v_out;
  t_out.reserve(ts.size() + 3);
  v_out.reserve(ts.size() + 3);
  if (k > 0) {
    t_out.push_back(t1[0]);
    v_out.push_back(0.0);
  }
  for (std::size_t i = 0; i < ts.size(); ++i) {
    t_out.push_back(ts[i]);
    v_out.push_back(v2.values()[i] - v1_at(k + i));
  }
  if (stopped) {
    // Past the window V2 has settled onto V1: V'n is zero.
    const double t_next = std::min(ts.back() + spec.dt, spec.t_stop);
    for (const double t : {t_next, spec.t_stop})
      if (t > t_out.back()) {
        t_out.push_back(t);
        v_out.push_back(0.0);
      }
  }
  return Pwl(std::move(t_out), std::move(v_out));
}

}  // namespace

RtrResult compute_rtr(const SuperpositionEngine& eng,
                      const std::vector<double>& shifts,
                      const RtrOptions& opts,
                      const std::vector<char>* active) {
  const CeffResult& vm = eng.victim_model();
  RtrResult out;
  out.rth = vm.model.rth;

  const double dt = eng.options().dt;
  const double cload = vm.ceff;
  const Pwl vin = eng.victim_input();
  TransientSpec spec{0.0, eng.options().horizon, dt};
  spec.stale_jacobian_iters = opts.stale_jacobian_iters;

  // Noiseless nonlinear victim driver into its effective load (V1) is
  // independent of the holding resistance and the shifts: the engine
  // simulates it once per spec and keeps the states V2 resumes from.
  const SuperpositionEngine::DriverResponse& v1 =
      eng.victim_driver_response(spec);

  double holding = out.rth;
  for (int it = 1; it <= opts.max_iterations; ++it) {
    out.iterations = it;

    // Step 1: total noise at the victim root with the current holding R.
    const Pwl vn = eng.composite_noise_at_root(shifts, holding, active);

    // Step 2: injected noise current In = Vn/Rth + Cload dVn/dt. The paper
    // uses Rth here (the conversion happens in the Figure 4(a) circuit,
    // whose resistance is the one used in the linear noise simulation).
    const Pwl ivn = vn.scaled(1.0 / holding);
    const Pwl icap = differentiate(vn, dt).scaled(cload);
    const Pwl in_cur = ivn + icap;

    // Steps 3-4: the true (nonlinear) noise response V'n = V2 - V1, with
    // the noise current injected into the driver sim for V2.
    const Pwl vpn = windowed_noise_response(eng.net().victim.driver, vin,
                                            cload, spec, v1, in_cur);

    // Step 5: area matching.
    const double q_in = in_cur.integral();
    const double a_vn = vpn.integral();
    double rtr;
    if (std::abs(q_in) < 1e-24) {
      rtr = holding;  // No meaningful noise: keep the current model.
    } else {
      rtr = a_vn / q_in;
    }
    if (!(rtr > 0.0) || !std::isfinite(rtr)) rtr = out.rth;
    rtr = std::clamp(rtr, opts.r_min, opts.r_max);

    if (it == 1) {
      out.vn_linear = vn;
      out.in_current = in_cur;
      out.vn_nonlinear = vpn;
    }

    const double delta = std::abs(rtr - holding) / std::max(holding, 1e-9);
    out.rtr = rtr;
    if (it > 1 && delta < opts.rel_tol) {
      out.converged = true;
      break;
    }
    holding = rtr;
  }
  return out;
}

double quiet_holding_resistance(const GateParams& driver, bool output_high,
                                double ceff, double probe_width,
                                double probe_amp) {
  if (ceff <= 0) throw std::invalid_argument("quiet_holding_resistance: ceff");
  // Input level that parks the output at the requested rail.
  const bool input_high = gate_inverts(driver.type) ? !output_high : output_high;
  const double vin_level = input_high ? driver.vdd : 0.0;

  const double t_peak = 0.6e-9;
  const double horizon = t_peak + 10 * probe_width + 1e-9;
  const Pwl vin = Pwl::constant(vin_level, 0.0, horizon);
  // Probe polarity pushes the output AWAY from its rail.
  const double amp = output_high ? -probe_amp : probe_amp;
  const Pwl probe = triangle_pulse(amp, probe_width, t_peak);
  // Difference measurement: fixed grid, so V1/V2 discretization cancels.
  TransientSpec spec{0.0, horizon, 1e-12};
  GateSimCache warm;

  auto v1r = try_simulate_gate(driver, vin, ceff, spec, std::nullopt, &warm);
  if (!v1r.ok()) raise(v1r.status());
  auto v2r = try_simulate_gate(driver, vin, ceff, spec, probe, &warm);
  if (!v2r.ok()) raise(v2r.status());
  const Pwl vn = *v2r - *v1r;
  const double q = probe.integral();
  const double a = vn.integral();
  const double r = (std::abs(q) < 1e-24) ? 0.0 : a / q;
  if (!(r > 0.0) || !std::isfinite(r))
    throw std::runtime_error("quiet_holding_resistance: degenerate response");
  return r;
}

}  // namespace dn
