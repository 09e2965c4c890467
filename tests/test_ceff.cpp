// C-effective iteration tests (ceff/effective_capacitance.*).
#include "ceff/effective_capacitance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "rcnet/random_nets.hpp"
#include "sim/linear_sim.hpp"
#include "util/units.hpp"

namespace dn {
namespace {

using namespace dn::units;

constexpr double kVdd = 1.8;

GateParams driver(double size = 2.0) {
  GateParams g;
  g.type = GateType::Inverter;
  g.size = size;
  return g;
}

Pwl vin_fall_out() { return Pwl::ramp(100 * ps, 100 * ps, 0.0, kVdd); }

TEST(Ceff, LumpedLoadIsItsOwnCeff) {
  // Pure capacitor load: Ceff must converge to (nearly) the total cap.
  const double c = 80 * fF;
  LoadBuilder builder = [&](Circuit& ckt) {
    const NodeId port = ckt.node("port");
    ckt.add_capacitor(port, kGround, c);
    return port;
  };
  const CeffResult r = compute_ceff(driver(), vin_fall_out(), builder, c);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.ceff, c, 0.08 * c);
}

TEST(Ceff, ResistiveShieldingReducesCeff) {
  // Far cap behind a big resistance is partially hidden from the driver.
  const double c_near = 10 * fF, c_far = 90 * fF, r_shield = 5 * kOhm;
  LoadBuilder builder = [&](Circuit& ckt) {
    const NodeId port = ckt.node("port");
    const NodeId far = ckt.node("far");
    ckt.add_capacitor(port, kGround, c_near);
    ckt.add_resistor(port, far, r_shield);
    ckt.add_capacitor(far, kGround, c_far);
    return port;
  };
  const CeffResult r =
      compute_ceff(driver(), vin_fall_out(), builder, c_near + c_far);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.ceff, 0.85 * (c_near + c_far));
  EXPECT_GT(r.ceff, c_near);
}

TEST(Ceff, MoreShieldingMeansSmallerCeff) {
  auto ceff_with_shield = [&](double r_shield) {
    LoadBuilder builder = [&](Circuit& ckt) {
      const NodeId port = ckt.node("port");
      const NodeId far = ckt.node("far");
      ckt.add_capacitor(port, kGround, 10 * fF);
      ckt.add_resistor(port, far, r_shield);
      ckt.add_capacitor(far, kGround, 90 * fF);
      return port;
    };
    return compute_ceff(driver(), vin_fall_out(), builder, 100 * fF).ceff;
  };
  EXPECT_GT(ceff_with_shield(200.0), ceff_with_shield(10 * kOhm));
}

TEST(Ceff, NetFormMatchesGeneralForm) {
  const RcTree line = make_line(8, 1 * kOhm, 80 * fF);
  const CeffResult by_net =
      compute_ceff_for_net(driver(), vin_fall_out(), line, {}, 5 * fF);
  LoadBuilder builder = [&](Circuit& ckt) {
    const auto map = line.instantiate(ckt, "n");
    ckt.add_capacitor(map[static_cast<std::size_t>(line.sink)], kGround, 5 * fF);
    return map[0];
  };
  const CeffResult by_builder = compute_ceff(
      driver(), vin_fall_out(), builder, line.total_cap() + 5 * fF);
  EXPECT_NEAR(by_net.ceff, by_builder.ceff, 0.01 * by_builder.ceff);
}

TEST(Ceff, ExtraNodeCapsEnterTheLoad) {
  const RcTree line = make_line(4, 500.0, 40 * fF);
  const CeffResult plain =
      compute_ceff_for_net(driver(), vin_fall_out(), line, {}, 0.0);
  const CeffResult loaded = compute_ceff_for_net(
      driver(), vin_fall_out(), line, {{0, 30 * fF}}, 0.0);
  EXPECT_GT(loaded.ceff, plain.ceff + 15 * fF);
}

TEST(Ceff, ConvergesQuickly) {
  const RcTree line = make_line(10, 2 * kOhm, 100 * fF);
  const CeffResult r =
      compute_ceff_for_net(driver(), vin_fall_out(), line, {}, 10 * fF);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 10);
}

// The C-effective fix-point written out with a full-horizon LinearSim
// that records every node: what compute_ceff computed before its sims
// learned to record only the port and stop at the 50% crossing.
CeffResult reference_ceff(const GateParams& drv, const Pwl& vin,
                          const LoadBuilder& build_load, double c_total,
                          const CeffOptions& opts = {}) {
  CeffResult out;
  double ceff = c_total;
  TheveninFit fit;
  GateSimCache warm;
  TheveninFitOptions fit_opts = opts.fit;
  if (opts.warm_start && !fit_opts.warm) fit_opts.warm = &warm;
  for (int it = 1; it <= opts.max_iterations; ++it) {
    out.iterations = it;
    fit = fit_thevenin(drv, vin, ceff, fit_opts);
    const TheveninModel& m = fit.model;
    Circuit ckt;
    const NodeId port = build_load(ckt);
    const NodeId src = ckt.node("thv_src");
    const double t_stop = vin.t_end() + opts.sim_tail;
    ckt.add_vsource(src, kGround, m.source(t_stop));
    ckt.add_resistor(src, port, m.rth);
    TransientSpec spec{0.0, t_stop, opts.sim_dt};
    spec.lte_tol = opts.lte_tol;
    spec.max_dt_growth = opts.max_dt_growth;
    const TransientResult res =
        LinearSim(ckt, opts.solver).try_run(spec).value();
    for (NodeId n = 0; n < ckt.num_nodes(); ++n) EXPECT_TRUE(res.recorded(n));
    const Pwl v_port = res.waveform(port);
    const double mid = 0.5 * (m.v_from + m.v_to);
    const double t50 = v_port.crossing(mid, m.rising()).value();
    const Pwl i = (m.source(t_stop) - v_port).scaled(1.0 / m.rth);
    const double q = i.clipped(i.t_begin(), t50).integral();
    const double half_swing = 0.5 * std::abs(m.v_to - m.v_from);
    const double ceff_new =
        std::clamp(std::abs(q) / half_swing, 1e-18, c_total);
    const double delta = std::abs(ceff_new - ceff) / std::max(ceff, 1e-18);
    ceff = (1.0 - opts.damping) * ceff + opts.damping * ceff_new;
    if (delta < opts.rel_tol) {
      out.converged = true;
      break;
    }
  }
  out.ceff = ceff;
  out.model = fit.model;
  return out;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_bit_identical(const CeffResult& a, const CeffResult& b) {
  EXPECT_EQ(bits(a.ceff), bits(b.ceff));
  EXPECT_EQ(bits(a.model.t0), bits(b.model.t0));
  EXPECT_EQ(bits(a.model.tr), bits(b.model.tr));
  EXPECT_EQ(bits(a.model.rth), bits(b.model.rth));
  EXPECT_EQ(bits(a.model.v_from), bits(b.model.v_from));
  EXPECT_EQ(bits(a.model.v_to), bits(b.model.v_to));
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
}

TEST(Ceff, CrossingStoppedSimsMatchFullHorizonReferenceBitForBit) {
  // Every driver of a few random coupled nets (victims and aggressors
  // switch in opposite directions, so rising and falling outputs both
  // appear), loaded exactly as the superposition engine loads them.
  bool saw_rising = false, saw_falling = false;
  for (const std::uint64_t seed : {3u, 11u, 29u}) {
    Rng rng(seed);
    const CoupledNet net = random_coupled_net(rng);
    auto check = [&](const GateParams& drv, double slew, bool rising,
                     const RcTree& tree,
                     const std::vector<std::pair<int, double>>& caps,
                     double pin_cap) {
      (rising ? saw_rising : saw_falling) = true;
      const Pwl vin = driver_input_ramp(drv, slew, rising, 300 * ps);
      double c_total = tree.total_cap() + pin_cap;
      for (const auto& [node, c] : caps) c_total += c;
      LoadBuilder builder = [&](Circuit& ckt) {
        const auto map = tree.instantiate(ckt, "v");
        for (const auto& [node, c] : caps)
          if (c > 0)
            ckt.add_capacitor(map[static_cast<std::size_t>(node)], kGround, c);
        if (pin_cap > 0)
          ckt.add_capacitor(map[static_cast<std::size_t>(tree.sink)], kGround,
                            pin_cap);
        return map[0];
      };
      SCOPED_TRACE("seed " + std::to_string(seed));
      expect_bit_identical(
          compute_ceff_for_net(drv, vin, tree, caps, pin_cap),
          reference_ceff(drv, vin, builder, c_total));
    };
    std::vector<std::pair<int, double>> vcaps;
    for (const auto& cc : net.couplings)
      vcaps.emplace_back(cc.victim_node, cc.c);
    check(net.victim.driver, net.victim.input_slew, net.victim.output_rising,
          net.victim.net, vcaps, net.victim.receiver.input_cap());
    for (std::size_t k = 0; k < net.aggressors.size(); ++k) {
      const auto& agg = net.aggressors[k];
      std::vector<std::pair<int, double>> acaps;
      for (const auto& cc : net.couplings)
        if (cc.aggressor == static_cast<int>(k))
          acaps.emplace_back(cc.aggressor_node, cc.c);
      check(agg.driver, agg.input_slew, agg.output_rising, agg.net, acaps,
            agg.sink_load);
    }
  }
  EXPECT_TRUE(saw_rising);
  EXPECT_TRUE(saw_falling);
}

TEST(Ceff, InvalidTotalThrows) {
  LoadBuilder builder = [&](Circuit& ckt) { return ckt.node("p"); };
  EXPECT_THROW(compute_ceff(driver(), vin_fall_out(), builder, 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace dn
