// Transient holding resistance tests (core/holding_resistance.*).
//
// The load-bearing physics: a CMOS driver's small-signal output
// conductance dips (saturated pull device) mid-transition and is strong
// (triode) near the rails. Rtr must therefore EXCEED Rth when the noise
// lands early in the transition and fall at/below Rth when it lands late.
#include "core/holding_resistance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/composite_pulse.hpp"
#include "devices/gate.hpp"
#include "rcnet/random_nets.hpp"
#include "util/metrics.hpp"
#include "util/units.hpp"

namespace dn {
namespace {

using namespace dn::units;

CoupledNet slow_victim_net() {
  CoupledNet net = example_coupled_net(1);
  net.victim.input_slew = 400 * ps;
  net.aggressors[0].input_slew = 50 * ps;
  return net;
}

/// Shifts that place the composite peak where the noiseless SINK waveform
/// crosses `level` (rising victim).
std::vector<double> shifts_for_level(const SuperpositionEngine& eng,
                                     double level) {
  const auto& vt = eng.victim_transition();
  const auto t_tgt = vt.at_sink.crossing(level, true);
  EXPECT_TRUE(t_tgt.has_value());
  auto comp = align_aggressor_peaks(eng, eng.victim_model().model.rth);
  std::vector<double> shifts = comp.shifts;
  for (double& s : shifts) s += *t_tgt - comp.params.t_peak;
  return shifts;
}

TEST(Differentiate, RampSlope) {
  // Ramp to 1.0 over [0, 1ns], then flat until 2ns.
  const Pwl r({0.0, 1 * ns, 2 * ns}, {0.0, 1.0, 1.0});
  const Pwl d = differentiate(r, 1 * ps);
  EXPECT_NEAR(d.at(0.5 * ns), 1.0 / (1 * ns), 1e6);  // 1e9 1/s, 0.1% tol.
  EXPECT_NEAR(d.at(1.5 * ns), 0.0, 1e6);
}

TEST(Differentiate, EmptyAndConstant) {
  EXPECT_TRUE(differentiate(Pwl{}, 1e-12).empty());
  const Pwl c = Pwl::constant(2.0, 0.0, 1e-9);
  const Pwl d = differentiate(c, 1e-12);
  EXPECT_NEAR(d.max_value(), 0.0, 1e-9);
}

TEST(Rtr, EarlyInjectionRaisesHoldingResistance) {
  const CoupledNet net = slow_victim_net();
  SuperpositionEngine eng(net);
  const double rth = eng.victim_model().model.rth;

  // Pulse peak when the sink is at ~17% of the swing: the victim pull-up
  // is still saturated -> conductance low -> Rtr must exceed Rth clearly.
  const RtrResult early = compute_rtr(eng, shifts_for_level(eng, 0.3));
  EXPECT_GT(early.rtr, 1.25 * rth);
  EXPECT_DOUBLE_EQ(early.rth, rth);

  // Pulse peak at ~72% of the swing: pull-up in triode -> Rtr near/below Rth.
  const RtrResult late = compute_rtr(eng, shifts_for_level(eng, 1.3));
  EXPECT_LT(late.rtr, 1.1 * rth);
  EXPECT_GT(early.rtr, late.rtr);
}

TEST(Rtr, DiagnosticWaveformsArePopulated) {
  const CoupledNet net = slow_victim_net();
  SuperpositionEngine eng(net);
  const RtrResult r = compute_rtr(eng, shifts_for_level(eng, 0.9));
  EXPECT_FALSE(r.vn_linear.empty());
  EXPECT_FALSE(r.in_current.empty());
  EXPECT_FALSE(r.vn_nonlinear.empty());
  // The linear and nonlinear noise pulses point the same way (negative for
  // a falling aggressor on a rising victim).
  EXPECT_LT(r.vn_linear.peak().value, 0.0);
  EXPECT_LT(r.vn_nonlinear.peak().value, 0.0);
}

TEST(Rtr, MemoizedDriverSimKeepsEveryBit) {
  // The second compute_rtr on an engine reuses the V1 driver sim the
  // first one ran; its result must equal, bit for bit, a call on a fresh
  // engine that simulates V1 itself. Every V2 resumes from V1's state, so
  // with V1 memoized the call makes no DC solve at all.
  const CoupledNet net = slow_victim_net();
  SuperpositionEngine used(net);
  compute_rtr(used, shifts_for_level(used, 0.3));
  const std::vector<double> shifts = shifts_for_level(used, 0.6);
  const obs::Counter& dc = obs::metrics().counter("sim.nonlinear.dc_solves");
  const obs::Counter& steps = obs::metrics().counter("sim.nonlinear.steps");
  obs::set_metrics_enabled(true);
  const std::uint64_t dc0 = dc.value(), steps0 = steps.value();
  const RtrResult memo = compute_rtr(used, shifts);
  obs::set_metrics_enabled(false);
  EXPECT_EQ(dc.value() - dc0, 0u);
  EXPECT_GT(steps.value() - steps0, 0u);  // The V2 sims did run.
  SuperpositionEngine fresh(net);
  const RtrResult ref = compute_rtr(fresh, shifts_for_level(fresh, 0.6));
  EXPECT_EQ(memo.rtr, ref.rtr);
  EXPECT_EQ(memo.iterations, ref.iterations);
  EXPECT_EQ(memo.vn_nonlinear.times().size(),
            ref.vn_nonlinear.times().size());
  EXPECT_TRUE(std::equal(memo.vn_nonlinear.values().begin(),
                         memo.vn_nonlinear.values().end(),
                         ref.vn_nonlinear.values().begin(),
                         ref.vn_nonlinear.values().end()));
}

TEST(Rtr, DriverResponseIsCachedPerSpec) {
  SuperpositionEngine eng(slow_victim_net());
  TransientSpec spec{0.0, eng.options().horizon, eng.options().dt};
  const auto& a = eng.victim_driver_response(spec);
  EXPECT_EQ(&a, &eng.victim_driver_response(spec));
  // One full MNA state per grid point, the DC point first.
  ASSERT_GT(a.dim, 0u);
  EXPECT_EQ(a.states.size(), a.dim * a.out.size());
  EXPECT_EQ(a.out.t_begin(), 0.0);
  spec.stale_jacobian_iters = 0;
  const auto& b = eng.victim_driver_response(spec);
  EXPECT_NE(&a, &b);
  EXPECT_EQ(&a, &eng.victim_driver_response({0.0, eng.options().horizon,
                                             eng.options().dt}));
}

TEST(Rtr, DriverResponseStopsOnceTheDriverHasSettled) {
  SuperpositionEngine eng(slow_victim_net());
  const TransientSpec spec{0.0, eng.options().horizon, eng.options().dt};
  const auto& v1 = eng.victim_driver_response(spec);
  const Pwl full = simulate_gate(eng.net().victim.driver, eng.victim_input(),
                                 eng.victim_model().ceff, spec);
  // Stopped well before the horizon, after the input ramp, as an exact
  // prefix of the full-horizon sim that then holds its final value.
  EXPECT_LT(v1.out.t_end(), 0.75 * spec.t_stop);
  EXPECT_GT(v1.out.t_end(), eng.victim_input().t_end());
  for (std::size_t i = 0; i < v1.out.size(); ++i)
    ASSERT_EQ(v1.out.values()[i], full.values()[i]) << i;
  for (double t = v1.out.t_end(); t <= spec.t_stop; t += 10e-12)
    EXPECT_NEAR(full.at(t), v1.out.at(t), 10 * kDriverSettleTol) << t;
}

/// One-pass compute_rtr under `shifts` against V1 and V2 simulated over
/// the whole horizon from their DC points, for the same injected current.
void expect_window_matches_full_horizon(const SuperpositionEngine& eng,
                                        const std::vector<double>& shifts) {
  RtrOptions one_pass;
  one_pass.max_iterations = 1;
  const RtrResult r = compute_rtr(eng, shifts, one_pass);
  const TransientSpec spec{0.0, eng.options().horizon, eng.options().dt};
  const GateParams& driver = eng.net().victim.driver;
  const double ceff = eng.victim_model().ceff;
  const Pwl v1 = simulate_gate(driver, eng.victim_input(), ceff, spec);
  const Pwl v2 =
      simulate_gate(driver, eng.victim_input(), ceff, spec, r.in_current);
  const Pwl vpn = v2 - v1;
  const double rtr_full = vpn.integral() / r.in_current.integral();
  EXPECT_NEAR(r.rtr, rtr_full, 1e-3 * rtr_full);
  // V'n still spans the horizon, and matches the full difference.
  EXPECT_EQ(r.vn_nonlinear.t_begin(), 0.0);
  EXPECT_EQ(r.vn_nonlinear.t_end(), spec.t_stop);
  const double peak = std::abs(vpn.peak().value);
  for (double t = 0.0; t <= spec.t_stop; t += 5e-12)
    EXPECT_NEAR(r.vn_nonlinear.at(t), vpn.at(t), 2e-3 * peak) << t;
}

class RtrWindow : public ::testing::TestWithParam<double> {};

TEST_P(RtrWindow, MatchesFullHorizonDriverSims) {
  SuperpositionEngine eng(slow_victim_net());
  expect_window_matches_full_horizon(eng, shifts_for_level(eng, GetParam()));
}

TEST(Rtr, NoiseAlreadyFlowingAtTimeZeroStartsV2FromItsDcPoint) {
  // An aggressor shifted to switch before t = 0 injects current from the
  // first instant, so V2 has no noiseless prefix to resume from and runs
  // from its own DC point.
  SuperpositionEngine eng(slow_victim_net());
  const std::vector<double> early(eng.net().aggressors.size(), -350e-12);
  const Pwl vn =
      eng.composite_noise_at_root(early, eng.victim_model().model.rth);
  ASSERT_NE(vn.at(0.0), 0.0);
  eng.victim_driver_response(
      {0.0, eng.options().horizon, eng.options().dt});  // V1's own DC.
  const obs::Counter& dc = obs::metrics().counter("sim.nonlinear.dc_solves");
  obs::set_metrics_enabled(true);
  const std::uint64_t dc0 = dc.value();
  RtrOptions one_pass;
  one_pass.max_iterations = 1;
  compute_rtr(eng, early, one_pass);
  obs::set_metrics_enabled(false);
  EXPECT_EQ(dc.value() - dc0, 1u);  // The one V2 sim's.
  expect_window_matches_full_horizon(eng, early);
}

INSTANTIATE_TEST_SUITE_P(Levels, RtrWindow,
                         ::testing::Values(0.3, 0.6, 0.9, 1.2, 1.45));

TEST(Rtr, ConvergesWithinBudget) {
  const CoupledNet net = slow_victim_net();
  SuperpositionEngine eng(net);
  RtrOptions opts;
  const RtrResult r = compute_rtr(eng, shifts_for_level(eng, 0.9), opts);
  EXPECT_LE(r.iterations, opts.max_iterations);
  EXPECT_GE(r.rtr, opts.r_min);
  EXPECT_LE(r.rtr, opts.r_max);
  // The paper reports one or two iterations in practice.
  EXPECT_LE(r.iterations, 3);
  EXPECT_TRUE(r.converged);
}

TEST(Rtr, NoCouplingMeansNoCorrection) {
  // With negligible coupling, the injected current is ~0 and Rtr falls
  // back to Rth instead of producing garbage.
  CoupledNet net = example_coupled_net(1);
  for (auto& cc : net.couplings) cc.c = 1e-20;
  SuperpositionEngine eng(net);
  const RtrResult r = compute_rtr(eng, shifts_for_level(eng, 0.9));
  EXPECT_NEAR(r.rtr, r.rth, 0.25 * r.rth);
}

// Alignment-position sweep: Rtr must decrease monotonically (within noise)
// as the injection moves from the early to the late part of the victim
// transition — the core claim that holding is alignment-dependent.
class RtrAlignmentSweep : public ::testing::TestWithParam<double> {};

TEST_P(RtrAlignmentSweep, RtrIsFiniteAndBracketed) {
  const CoupledNet net = slow_victim_net();
  SuperpositionEngine eng(net);
  const double rth = eng.victim_model().model.rth;
  const RtrResult r = compute_rtr(eng, shifts_for_level(eng, GetParam()));
  EXPECT_GT(r.rtr, 0.3 * rth);
  EXPECT_LT(r.rtr, 4.0 * rth);
}

INSTANTIATE_TEST_SUITE_P(Levels, RtrAlignmentSweep,
                         ::testing::Values(0.3, 0.6, 0.9, 1.2, 1.45));

}  // namespace
}  // namespace dn
