// Transient holding resistance tests (core/holding_resistance.*).
//
// The load-bearing physics: a CMOS driver's small-signal output
// conductance dips (saturated pull device) mid-transition and is strong
// (triode) near the rails. Rtr must therefore EXCEED Rth when the noise
// lands early in the transition and fall at/below Rth when it lands late.
#include "core/holding_resistance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "core/composite_pulse.hpp"
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
  // engine that simulates V1 itself — with and without warm starts.
  const CoupledNet net = slow_victim_net();
  for (const bool warm : {true, false}) {
    RtrOptions opts;
    opts.warm_start = warm;
    SuperpositionEngine used(net);
    compute_rtr(used, shifts_for_level(used, 0.3), opts);
    const std::vector<double> shifts = shifts_for_level(used, 0.6);
    const obs::Counter& hits = obs::metrics().counter("sim.warm_start.hits");
    obs::set_metrics_enabled(true);
    const std::uint64_t hits0 = hits.value();
    const RtrResult memo = compute_rtr(used, shifts, opts);
    obs::set_metrics_enabled(false);
    // Every V2 sim, the first included, starts from a warm DC state.
    EXPECT_EQ(hits.value() - hits0,
              warm ? static_cast<std::uint64_t>(memo.iterations) : 0u);
    SuperpositionEngine fresh(net);
    const RtrResult ref =
        compute_rtr(fresh, shifts_for_level(fresh, 0.6), opts);
    EXPECT_EQ(memo.rtr, ref.rtr);
    EXPECT_EQ(memo.iterations, ref.iterations);
    EXPECT_EQ(memo.vn_nonlinear.times().size(),
              ref.vn_nonlinear.times().size());
    EXPECT_TRUE(std::equal(memo.vn_nonlinear.values().begin(),
                           memo.vn_nonlinear.values().end(),
                           ref.vn_nonlinear.values().begin(),
                           ref.vn_nonlinear.values().end()));
  }
}

TEST(Rtr, DriverResponseIsCachedPerSpec) {
  SuperpositionEngine eng(slow_victim_net());
  TransientSpec spec{0.0, eng.options().horizon, eng.options().dt};
  const auto& a = eng.victim_driver_response(spec);
  EXPECT_EQ(&a, &eng.victim_driver_response(spec));
  EXPECT_FALSE(a.dc.empty());
  spec.stale_jacobian_iters = 0;
  const auto& b = eng.victim_driver_response(spec);
  EXPECT_NE(&a, &b);
  EXPECT_EQ(&a, &eng.victim_driver_response({0.0, eng.options().horizon,
                                             eng.options().dt}));
}

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
