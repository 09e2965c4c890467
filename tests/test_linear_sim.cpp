// Linear transient simulator vs closed-form RC responses (sim/linear_sim.*).
#include "sim/linear_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "util/units.hpp"

namespace dn {
namespace {

using namespace dn::units;

TEST(LinearSim, RejectsNonlinearCircuits) {
  // Construction is cheap and never throws; the rejection surfaces as a
  // Status from try_run / try_dc_solve.
  Circuit c;
  const NodeId d = c.node("d");
  c.add_mosfet(d, d, kGround, MosfetParams{});
  LinearSim sim(c);
  const auto res = sim.try_run({0.0, 1 * ns, 1 * ps});
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
  const auto dc = sim.try_dc_solve(0.0);
  ASSERT_FALSE(dc.ok());
  EXPECT_EQ(dc.status().code(), StatusCode::kInvalidArgument);
}

TEST(LinearSim, RcStepResponseMatchesAnalytic) {
  // Step through R into C: v(t) = 1 - exp(-t/RC), RC = 100 ps.
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource(in, kGround, Pwl::ramp(10 * ps, 1 * ps, 0.0, 1.0));
  c.add_resistor(in, out, 1 * kOhm);
  c.add_capacitor(out, kGround, 100 * fF);
  LinearSim sim(c);
  const auto res = sim.try_run({0.0, 2 * ns, 0.5 * ps}).value();
  const Pwl v = res.waveform(out);
  const double tau = 100 * ps;
  for (double t : {200 * ps, 500 * ps, 1000 * ps}) {
    const double expect = 1.0 - std::exp(-(t - 10.5 * ps) / tau);
    EXPECT_NEAR(v.at(t), expect, 0.01);
  }
  EXPECT_NEAR(v.at(2 * ns), 1.0, 1e-3);
}

TEST(LinearSim, DcInitializationIsSteady) {
  // With a constant source, nothing should move.
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource(in, kGround, Pwl::constant(1.5));
  c.add_resistor(in, out, 10 * kOhm);
  c.add_capacitor(out, kGround, 50 * fF);
  LinearSim sim(c);
  const auto res = sim.try_run({0.0, 1 * ns, 1 * ps}).value();
  const Pwl v = res.waveform(out);
  // gmin (1e-12 S) through 10 kOhm leaves a ~1.5e-8 V offset by design.
  EXPECT_NEAR(v.min_value(), 1.5, 1e-6);
  EXPECT_NEAR(v.max_value(), 1.5, 1e-6);
}

TEST(LinearSim, RcDelayOfDistributedLine) {
  // 10-segment RC line: Elmore delay = sum_k R_upstream * C_k.
  Circuit c;
  const NodeId in = c.node("in");
  c.add_vsource(in, kGround, Pwl::ramp(0.0, 1 * ps, 0.0, 1.0));
  NodeId prev = in;
  const double r_seg = 100.0;
  const double c_seg = 20 * fF;
  double elmore = 0.0;
  for (int k = 1; k <= 10; ++k) {
    const NodeId n = c.node("n" + std::to_string(k));
    c.add_resistor(prev, n, r_seg);
    c.add_capacitor(n, kGround, c_seg);
    elmore += k * r_seg * c_seg;
    prev = n;
  }
  LinearSim sim(c);
  const auto res = sim.try_run({0.0, 1 * ns, 0.25 * ps}).value();
  const auto t50 = res.waveform(prev).crossing(0.5, true);
  ASSERT_TRUE(t50.has_value());
  // 50% delay of an RC line is ~0.69 * Elmore; allow a generous band.
  EXPECT_GT(*t50, 0.4 * elmore);
  EXPECT_LT(*t50, 1.0 * elmore);
}

TEST(LinearSim, CouplingInjectsChargeIntoQuietNeighbor) {
  // Aggressor ramp couples into a held (grounded via R) victim: the victim
  // sees a positive pulse that returns to zero; peak scales with coupling.
  auto peak_for = [](double ccouple) {
    Circuit c;
    const NodeId ain = c.node("ain");
    const NodeId a = c.node("a");
    const NodeId v = c.node("v");
    c.add_vsource(ain, kGround, Pwl::ramp(100 * ps, 100 * ps, 0.0, 1.8));
    c.add_resistor(ain, a, 500.0);
    c.add_capacitor(a, kGround, 20 * fF);
    c.add_capacitor(a, v, ccouple);
    c.add_resistor(v, kGround, 1 * kOhm);  // Holding resistance.
    c.add_capacitor(v, kGround, 30 * fF);
    LinearSim sim(c);
    const auto res = sim.try_run({0.0, 1.5 * ns, 0.5 * ps}).value();
    return res.waveform(v).peak().value;
  };
  const double p_small = peak_for(5 * fF);
  const double p_large = peak_for(40 * fF);
  EXPECT_GT(p_small, 0.0);
  EXPECT_GT(p_large, 2.0 * p_small);
  EXPECT_LT(p_large, 1.8);
}

TEST(LinearSim, SuperpositionHoldsExactly) {
  // Two sources driving a shared RC net: response to both = sum of
  // responses to each with the other shorted (linear network property the
  // whole analysis flow relies on).
  auto build = [](bool src1_on, bool src2_on) {
    Circuit c;
    const NodeId s1 = c.node("s1");
    const NodeId s2 = c.node("s2");
    const NodeId m = c.node("m");
    const Pwl on1 = Pwl::ramp(50 * ps, 100 * ps, 0.0, 1.0);
    const Pwl on2 = Pwl::ramp(150 * ps, 80 * ps, 0.0, -0.7);
    c.add_vsource(s1, kGround, src1_on ? on1 : Pwl::constant(0.0));
    c.add_vsource(s2, kGround, src2_on ? on2 : Pwl::constant(0.0));
    c.add_resistor(s1, m, 700.0);
    c.add_resistor(s2, m, 1200.0);
    c.add_capacitor(m, kGround, 40 * fF);
    LinearSim sim(c);
    return sim.try_run({0.0, 1 * ns, 1 * ps}).value().waveform(m);
  };
  const Pwl both = build(true, true);
  const Pwl sum = build(true, false) + build(false, true);
  for (double t = 0; t <= 1 * ns; t += 25 * ps)
    EXPECT_NEAR(both.at(t), sum.at(t), 1e-9) << "t=" << t;
}

TEST(LinearSim, BadSpecIsInvalidArgument) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_resistor(a, kGround, 1.0);
  LinearSim sim(c);
  const auto r1 = sim.try_run({0.0, 0.0, 1 * ps});
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);
  const auto r2 = sim.try_run({0.0, 1 * ns, 0.0});
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);
  const auto r3 = sim.try_run({0.0, 1 * ns, 1 * ps, -1e-4});
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), StatusCode::kInvalidArgument);
}

// RC ladder from a pulse source with a capacitively coupled quiet
// neighbour line: the ladder nodes rise then fall (each crosses mid-levels
// in both directions), the neighbour sees a bipolar noise bump.
struct Ladder {
  Circuit c;
  std::vector<NodeId> line, quiet;
};

Ladder pulse_ladder() {
  Ladder l;
  const NodeId in = l.c.node("in");
  l.c.add_vsource(in, kGround,
                  Pwl({0.0, 100 * ps, 180 * ps, 600 * ps, 700 * ps},
                      {0.0, 0.0, 1.0, 1.0, 0.0}));
  NodeId prev = in, qprev = kGround;
  for (int k = 0; k < 6; ++k) {
    const NodeId n = l.c.node("n" + std::to_string(k));
    const NodeId q = l.c.node("q" + std::to_string(k));
    l.c.add_resistor(prev, n, 400.0);
    l.c.add_capacitor(n, kGround, 15 * fF);
    l.c.add_resistor(qprev, q, 300.0);
    l.c.add_capacitor(q, kGround, 10 * fF);
    l.c.add_capacitor(n, q, 8 * fF);
    l.line.push_back(n);
    l.quiet.push_back(q);
    prev = n;
    qprev = q;
  }
  return l;
}

std::vector<double> values(const Pwl& w) {
  return {w.values().begin(), w.values().end()};
}

TransientSpec fixed_spec() { return {0.0, 2 * ns, 1 * ps}; }
TransientSpec adaptive_spec() {
  TransientSpec s{0.0, 2 * ns, 1 * ps};
  s.lte_tol = 5e-4;
  s.max_dt_growth = 32.0;
  return s;
}

TEST(LinearSimRecord, SubsetMatchesAllNodeRunBitForBit) {
  const Ladder l = pulse_ladder();
  LinearSim sim(l.c);
  for (const TransientSpec& spec : {fixed_spec(), adaptive_spec()}) {
    const TransientResult all = sim.try_run(spec).value();
    const std::vector<NodeId> probes{l.line.back(), l.quiet[2], l.line[0]};
    const TransientResult some = sim.try_run(spec, probes).value();
    for (NodeId n = 0; n < l.c.num_nodes(); ++n) {
      EXPECT_TRUE(all.recorded(n));
      EXPECT_EQ(some.recorded(n),
                std::find(probes.begin(), probes.end(), n) != probes.end());
    }
    ASSERT_EQ(some.time(), all.time());
    for (const NodeId n : probes) {
      EXPECT_TRUE(some.recorded(n));
      EXPECT_EQ(values(some.waveform(n)), values(all.waveform(n)));
    }
    EXPECT_EQ(some.initial_state(), all.initial_state());
  }
}

TEST(LinearSimRecord, UnrecordedNodeThrows) {
  const Ladder l = pulse_ladder();
  LinearSim sim(l.c);
  const TransientResult res =
      sim.try_run(adaptive_spec(), {l.line.back()}).value();
  EXPECT_FALSE(res.recorded(l.quiet[0]));
  EXPECT_THROW(res.waveform(l.quiet[0]), std::out_of_range);
  EXPECT_THROW(res.waveform(kGround), std::out_of_range);
  EXPECT_THROW(res.waveform(l.c.num_nodes()), std::out_of_range);
}

TEST(LinearSimRecord, BadRecordOrStopNodeIsInvalidArgument) {
  const Ladder l = pulse_ladder();
  LinearSim sim(l.c);
  const auto r1 = sim.try_run(fixed_spec(), {l.c.num_nodes()});
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);
  const auto r2 = sim.try_run(fixed_spec(), {}, CrossingStop{kGround, 0.5});
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);
}

// Index of the first sample that ends a segment crossing `level` in the
// requested direction (Pwl::crossing's segment test); 0 when none does.
std::size_t first_crossing_sample(const Pwl& w, double level, bool rising) {
  const auto& v = w.values();
  for (std::size_t i = 1; i < v.size(); ++i)
    if ((v[i] > v[i - 1]) == rising &&
        (v[i - 1] - level) * (v[i] - level) <= 0.0 && v[i - 1] != v[i])
      return i;
  return 0;
}

TEST(LinearSimStop, StoppedRunIsExactPrefixEndingPastFirstCrossing) {
  const Ladder l = pulse_ladder();
  LinearSim sim(l.c);
  const NodeId node = l.line[3];
  for (const TransientSpec& spec : {fixed_spec(), adaptive_spec()}) {
    const TransientResult full = sim.try_run(spec).value();
    const Pwl wf = full.waveform(node);
    for (const bool rising : {true, false}) {
      const double level = 0.4;
      const std::size_t k = first_crossing_sample(wf, level, rising);
      ASSERT_GT(k, 0u);
      const TransientResult cut =
          sim.try_run(spec, {node, l.quiet[1]},
                      CrossingStop{node, level, rising})
              .value();
      ASSERT_EQ(cut.num_points(), k + 1) << "rising=" << rising;
      const std::vector<double> t_full = full.time();
      EXPECT_EQ(cut.time(),
                std::vector<double>(t_full.begin(), t_full.begin() + k + 1));
      for (const NodeId n : {node, l.quiet[1]}) {
        const std::vector<double> v_full = values(full.waveform(n));
        EXPECT_EQ(values(cut.waveform(n)),
                  std::vector<double>(v_full.begin(), v_full.begin() + k + 1));
      }
      EXPECT_EQ(cut.waveform(node).crossing(level, rising),
                wf.crossing(level, rising));
      EXPECT_LT(cut.time().back(), spec.t_stop);
    }
  }
}

TEST(LinearSimStop, WrongDirectionDoesNotStop) {
  // A plain RC step response only rises: a falling-crossing stop on it
  // must never fire, however often the rising edge passes the level.
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource(in, kGround, Pwl::ramp(10 * ps, 1 * ps, 0.0, 1.0));
  c.add_resistor(in, out, 1 * kOhm);
  c.add_capacitor(out, kGround, 100 * fF);
  LinearSim sim(c);
  for (const TransientSpec& spec : {fixed_spec(), adaptive_spec()}) {
    const TransientResult full = sim.try_run(spec, {out}).value();
    const TransientResult res =
        sim.try_run(spec, {out}, CrossingStop{out, 0.5, false}).value();
    EXPECT_EQ(res.time(), full.time());
    EXPECT_EQ(values(res.waveform(out)), values(full.waveform(out)));
    EXPECT_GE(res.time().back(), spec.t_stop - 1e-6 * spec.dt);
  }
}

TEST(LinearSimStop, NeverCrossingRunsToTStop) {
  const Ladder l = pulse_ladder();
  LinearSim sim(l.c);
  const NodeId node = l.line.back();
  for (const TransientSpec& spec : {fixed_spec(), adaptive_spec()}) {
    const TransientResult full = sim.try_run(spec, {node}).value();
    for (const bool rising : {true, false}) {
      const TransientResult res =
          sim.try_run(spec, {node}, CrossingStop{node, 1.5, rising}).value();
      EXPECT_EQ(res.time(), full.time());
      EXPECT_EQ(values(res.waveform(node)), values(full.waveform(node)));
      EXPECT_GE(res.time().back(), spec.t_stop - 1e-6 * spec.dt);
    }
  }
}

}  // namespace
}  // namespace dn
