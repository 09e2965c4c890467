// bench_perf_solver — the LU engines behind SystemSolver, timed directly.
//
// SystemSolver picks its engine by system size alone: SmallLu up to 16
// unknowns, SparseLu above. Dense LuFactor is only the sparse_to_dense
// degradation rung. This bench records the numbers that cut rests on:
//
//   1. factor+solve: build the trapezoidal system matrix C/dt + G/2 of a
//      coupled two-rail RC ladder (vsource branch rows included, so the
//      pivoting path is exercised) and time LuFactor, SparseLu and — up
//      to 16 unknowns — SmallLu on it: factorization, one same-pattern
//      refactorization (SparseLu replays its symbolic analysis; the dense
//      engines factor again) and one back-substitution. Dimensions
//      8/12/16 sit below the cut, 17/24/32/48/64/96 just above it, and
//      102/502/2002/5002 are unreduced-net sizes. Best of reps; SparseLu's
//      fill-reducing ordering is memoized per pattern after the first rep,
//      as it is in the analysis flow, where each pattern repeats. Two
//      LuFactor/SparseLu ratios: fresh (factor + solve) and steady state
//      (refactor + solve), the cost the flow repeats per step.
//   2. end-to-end: NoiseAnalyzer::try_analyze() on a 3-lane coupled bus of
//      comparable size, cold cache, through the production dispatch.
//
// Shape criteria (recorded in BENCH_perf_solver.json): SparseLu is >= 5x
// faster than LuFactor for factor+solve on a >= 2000-unknown system.
//
//   bench_perf_solver [--solves K] [--out BENCH_perf_solver.json]
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "circuit/mna.hpp"
#include "clarinet/analyzer.hpp"
#include "matrix/dense.hpp"
#include "matrix/small_dense.hpp"
#include "matrix/sparse.hpp"
#include "util/metrics.hpp"

using namespace dn;
using namespace dn::units;

namespace {

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

/// Coupled two-rail RC ladder with `nodes` nodes (dim = nodes + 2): two
/// chains of resistors with grounded and rail-to-rail coupling caps, each
/// rail driven by a voltage source (zero structural diagonal on the
/// branch rows).
Circuit make_coupled_ladder(int nodes) {
  Circuit c;
  std::vector<NodeId> rail_a, rail_b;
  for (int i = 0; i < nodes; ++i) {
    auto& rail = i % 2 == 0 ? rail_a : rail_b;
    rail.push_back(c.node((i % 2 == 0 ? "a" : "b") + std::to_string(i / 2)));
  }
  c.add_vsource(rail_a[0], kGround, Pwl::constant(1.8));
  c.add_vsource(rail_b[0], kGround, Pwl::constant(0.0));
  for (const auto* rail : {&rail_a, &rail_b})
    for (std::size_t i = 0; i + 1 < rail->size(); ++i) {
      c.add_resistor((*rail)[i], (*rail)[i + 1], 2.0);
      c.add_capacitor((*rail)[i], kGround, 0.5 * fF);
    }
  c.add_capacitor(rail_a.back(), kGround, 0.5 * fF);
  c.add_capacitor(rail_b.back(), kGround, 0.5 * fF);
  for (std::size_t i = 0; i < rail_b.size(); ++i)
    c.add_capacitor(rail_a[i], rail_b[i], 0.2 * fF);
  return c;
}

struct EngineTiming {
  double factor_s = 0.0;
  double refactor_s = 0.0;
  double solve_s = 0.0;  // One back-substitution.
  double total() const { return factor_s + solve_s; }
  /// The per-step cost once a pattern is known: the flow's Newton
  /// restamps and adaptive-dt rungs refactor far more often than they
  /// factor afresh.
  double steady() const { return refactor_s + solve_s; }
};

/// Best-of-`reps` timing of one engine. `factor` builds a factorization
/// from `a`, `refactor` refactors it in place with `a`'s values, and
/// `solve` back-substitutes in place.
template <class Factor, class Refactor, class Solve>
EngineTiming time_engine(const SparseMatrix& a, const Vector& b, int reps,
                         int solves, Factor factor, Refactor refactor,
                         Solve solve) {
  EngineTiming best;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = now_s();
    auto f = factor(a);
    const double t_factor = now_s() - t0;
    f.status().throw_if_error();
    const double t1 = now_s();
    refactor(*f, a).throw_if_error();
    const double t_refactor = now_s() - t1;
    Vector x = b;
    const double t2 = now_s();
    for (int k = 0; k < solves; ++k) {
      x = b;
      solve(*f, x);
    }
    const double t_solve = (now_s() - t2) / solves;
    if (rep == 0 || t_factor + t_solve < best.total())
      best = {t_factor, t_refactor, t_solve};
  }
  return best;
}

EngineTiming time_dense(const SparseMatrix& a, const Vector& b, int reps,
                        int solves) {
  return time_engine(
      a, b, reps, solves,
      [](const SparseMatrix& m) { return LuFactor::make(m.to_dense()); },
      [](LuFactor& f, const SparseMatrix& m) {
        auto g = LuFactor::make(m.to_dense());
        if (g.ok()) f = std::move(*g);
        return g.status();
      },
      [](const LuFactor& f, Vector& x) { f.solve_in_place(x); });
}

EngineTiming time_sparse(const SparseMatrix& a, const Vector& b, int reps,
                         int solves) {
  return time_engine(
      a, b, reps, solves,
      [](const SparseMatrix& m) { return SparseLu::make(m); },
      [](SparseLu& f, const SparseMatrix& m) { return f.refactor(m); },
      [](const SparseLu& f, Vector& x) { f.solve_in_place(x); });
}

EngineTiming time_small(const SparseMatrix& a, const Vector& b, int reps,
                        int solves) {
  return time_engine(
      a, b, reps, solves,
      [](const SparseMatrix& m) -> StatusOr<SmallLu> {
        SmallLu f;
        Status s = f.factorize(m);
        if (!s.ok()) return s;
        return f;
      },
      [](SmallLu& f, const SparseMatrix& m) { return f.factorize(m); },
      [](const SmallLu& f, Vector& x) { f.solve_in_place(x); });
}

void json_timing(std::ostream& os, const char* name, const EngineTiming& t) {
  os << ",\"" << name << "\":{\"factor_s\":" << t.factor_s
     << ",\"refactor_s\":" << t.refactor_s << ",\"solve_s\":" << t.solve_s
     << "}";
}

AnalyzerConfig e2e_config() {
  // The coarse-but-representative search grid also used by the analyzer
  // tests.
  AnalyzerConfig c;
  c.table_spec.search.coarse_points = 17;
  c.table_spec.search.fine_points = 9;
  c.table_spec.search.dt = 2 * ps;
  c.analysis.search.coarse_points = 17;
  c.analysis.search.fine_points = 9;
  c.analysis.search.dt = 2 * ps;
  return c;
}

/// Seconds for one cold try_analyze() (fresh analyzer + cache), or a
/// negative value on analysis failure.
double time_e2e(const CoupledNet& net) {
  NoiseAnalyzer an(e2e_config());
  const double t0 = now_s();
  const auto r = an.try_analyze(net);
  const double dt = now_s() - t0;
  return r.ok() ? dt : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  const int solves = dn::bench::int_flag(argc, argv, "--solves", 20);
  const std::string out_path =
      dn::bench::str_flag(argc, argv, "--out", "BENCH_perf_solver.json");
  // Ladder nodes; the system dimension is nodes + 2.
  const std::vector<int> nodes_list{6,  10, 14, 15,  22,  30,   46,
                                    62, 94, 100, 500, 2000, 5000};

  dn::bench::print_header(
      "perf: LU engines behind SystemSolver",
      "SparseLu >= 5x faster than LuFactor factor+solve at >= 2000 unknowns");

  obs::set_metrics_enabled(true);
  obs::metrics().reset_all();

  // --- factor + solve on the trapezoidal matrix -------------------------
  std::printf(
      "factor+solve (trapezoidal matrix C/dt + G/2, best of reps; "
      "microseconds):\n");
  std::printf(
      "%6s %6s | %9s %9s %9s | %9s %9s %9s | %9s %9s | %8s %8s\n", "dim",
      "nnz", "dense_fac", "dense_ref", "dense_sol", "sp_fac", "sp_refac",
      "sp_sol", "small_fac", "small_sol", "fac+sol", "ref+sol");
  bool crit_pass = false;
  bool crit_seen = false;
  std::ostringstream fs_rows;
  for (const int nodes : nodes_list) {
    const Circuit ckt = make_coupled_ladder(nodes);
    const MnaSystem mna(ckt);
    const SparseMatrix a =
        SparseMatrix::combine(1.0 / (1 * ps), mna.Cs(), 0.5, mna.Gs());
    const Vector b = mna.rhs(0.0);
    const std::size_t dim = a.rows();
    const int reps = dim <= 100 ? 200 : dim <= 600 ? 5 : 1;
    const int n_solves = dim <= 100 ? 20 * solves : solves;
    const EngineTiming dense = time_dense(a, b, reps, n_solves);
    const EngineTiming sparse = time_sparse(a, b, reps, n_solves);
    std::optional<EngineTiming> small;
    if (dim <= kSmallLuMaxDim) small = time_small(a, b, reps, n_solves);
    // LuFactor time over SparseLu time, fresh and steady state.
    const double ratio =
        sparse.total() > 0 ? dense.total() / sparse.total() : 0.0;
    const double steady_ratio =
        sparse.steady() > 0 ? dense.steady() / sparse.steady() : 0.0;
    if (dim >= 2000) {
      crit_seen = true;
      if (ratio >= 5.0) crit_pass = true;
    }
    const double us = 1e6;
    std::printf("%6zu %6zu | %9.3f %9.3f %9.3f | %9.3f %9.3f %9.3f | ", dim,
                a.nnz(), dense.factor_s * us, dense.refactor_s * us,
                dense.solve_s * us, sparse.factor_s * us,
                sparse.refactor_s * us, sparse.solve_s * us);
    if (small)
      std::printf("%9.3f %9.3f", small->factor_s * us, small->solve_s * us);
    else
      std::printf("%9s %9s", "-", "-");
    std::printf(" | %7.2fx %7.2fx\n", ratio, steady_ratio);
    if (fs_rows.tellp() > 0) fs_rows << ",";
    fs_rows << "{\"dim\":" << dim << ",\"nnz\":" << a.nnz()
            << ",\"density\":" << a.density();
    json_timing(fs_rows, "dense", dense);
    json_timing(fs_rows, "sparse", sparse);
    if (small) json_timing(fs_rows, "small", *small);
    fs_rows << ",\"dense_over_sparse\":" << ratio
            << ",\"dense_over_sparse_steady\":" << steady_ratio << "}";
  }
  std::printf("\n");

  // --- end-to-end try_analyze -------------------------------------------
  std::printf("end-to-end try_analyze (3-lane coupled bus, cold cache):\n");
  std::printf("%7s %9s %10s\n", "nodes", "segments", "seconds");
  std::ostringstream e2e_rows;
  for (const int nodes : {100, 500, 2000, 5000}) {
    const int segments = std::max(2, nodes / 3);
    const CoupledNet net = make_bus(3, segments, 1 * kOhm, 60 * fF, 30 * fF);
    const double t = time_e2e(net);
    std::printf("%7d %9d %10.3f\n", nodes, segments, t);
    if (e2e_rows.tellp() > 0) e2e_rows << ",";
    e2e_rows << "{\"nodes\":" << nodes << ",\"segments\":" << segments
             << ",\"seconds\":" << t << "}";
  }
  std::printf("\n");

  const bool ok = dn::bench::check(
      "SparseLu >= 5x faster than LuFactor factor+solve at >= 2000 unknowns",
      crit_seen && crit_pass);

  dn::bench::write_json_artifact(out_path, [&](std::ostream& jf) {
    jf << "{\"bench\":\"perf_solver\"," << dn::bench::json_host_fields()
       << ",\"criterion_pass\":"
       << (ok ? "true" : "false") << ",\"factor_solve\":[" << fs_rows.str()
       << "],\"e2e\":[" << e2e_rows.str() << "],\"metrics\":";
    obs::metrics().write_json(jf);
    jf << "}\n";
  });
  return ok ? 0 : 1;
}
