// Unit tests for the sparse linear-algebra layer (matrix/sparse.*) and
// the backend facade (matrix/solver.*).
#include "matrix/sparse.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>

#include "circuit/circuit.hpp"
#include "circuit/mna.hpp"
#include "matrix/solver.hpp"
#include "util/fault_injection.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "waveform/pwl.hpp"

namespace dn {
namespace {

/// Random diagonally-dominant symmetric (SPD-ish) triplets, n x n.
std::vector<Triplet> random_spd_triplets(Rng& rng, std::size_t n) {
  std::vector<Triplet> t;
  for (std::size_t i = 0; i < n; ++i) t.push_back({i, i, 6.0 + rng.uniform(0, 1)});
  const int extras = static_cast<int>(2 * n);
  for (int e = 0; e < extras; ++e) {
    const auto i = static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n) - 1));
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n) - 1));
    if (i == j) continue;
    const double v = rng.uniform(-1, 1);
    t.push_back({i, j, v});
    t.push_back({j, i, v});
  }
  return t;
}

/// RC ladder driven by a voltage source — gives an MNA system whose
/// vsource branch row has a zero structural diagonal (needs pivoting).
Circuit make_ladder(int n_nodes) {
  Circuit c;
  NodeId prev = c.node("n0");
  c.add_vsource(prev, kGround, Pwl::constant(1.0));
  for (int i = 1; i < n_nodes; ++i) {
    const NodeId cur = c.node("n" + std::to_string(i));
    c.add_resistor(prev, cur, 100.0);
    c.add_capacitor(cur, kGround, 1e-15);
    prev = cur;
  }
  return c;
}

TEST(SparseMatrix, FromTripletsSumsDuplicatesKeepsZeros) {
  const std::vector<Triplet> t = {
      {0, 0, 1.0}, {0, 0, 2.0}, {1, 2, 5.0}, {2, 1, 0.0}, {1, 0, -1.0}};
  const SparseMatrix m = SparseMatrix::from_triplets(3, 3, t);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.nnz(), 4u);  // (0,0) merged; the explicit zero at (2,1) kept.
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), -1.0);
  EXPECT_GE(m.value_index(2, 1), 0);  // Pattern slot exists despite value 0.
  EXPECT_DOUBLE_EQ(m.at(2, 1), 0.0);
  EXPECT_EQ(m.value_index(2, 2), -1);
  EXPECT_DOUBLE_EQ(m.at(2, 2), 0.0);
  EXPECT_THROW(SparseMatrix::from_triplets(2, 2, {{2, 0, 1.0}}),
               std::invalid_argument);
}

TEST(SparseMatrix, FromDenseRoundTrip) {
  Rng rng(7);
  Matrix d(5, 4);
  for (std::size_t r = 0; r < 5; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      if (rng.uniform(0, 1) < 0.5) d(r, c) = rng.uniform(-3, 3);
  const SparseMatrix s = SparseMatrix::from_dense(d);
  const Matrix back = s.to_dense();
  EXPECT_DOUBLE_EQ((d - back).norm(), 0.0);
  EXPECT_LT(s.density(), 1.0 + 1e-12);
}

TEST(SparseMatrix, CombineUnionPattern) {
  const SparseMatrix a =
      SparseMatrix::from_triplets(2, 2, {{0, 0, 2.0}, {0, 1, 1.0}});
  const SparseMatrix b =
      SparseMatrix::from_triplets(2, 2, {{0, 1, 4.0}, {1, 1, 3.0}});
  const SparseMatrix m = SparseMatrix::combine(0.5, a, 2.0, b);
  EXPECT_EQ(m.nnz(), 3u);  // Union of {(0,0),(0,1)} and {(0,1),(1,1)}.
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 8.5);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 6.0);
  // Cancellation keeps the slot (pattern stability for refactors).
  const SparseMatrix z = SparseMatrix::combine(1.0, a, -1.0, a);
  EXPECT_EQ(z.nnz(), a.nnz());
  EXPECT_DOUBLE_EQ(z.at(0, 0), 0.0);
  EXPECT_THROW(SparseMatrix::combine(1.0, a, 1.0, SparseMatrix::from_triplets(3, 3, {})),
               std::invalid_argument);
}

TEST(SparseMatrix, MatvecMatchesDense) {
  Rng rng(11);
  const SparseMatrix s = SparseMatrix::from_triplets(6, 6, random_spd_triplets(rng, 6));
  const Matrix d = s.to_dense();
  Vector x(6);
  for (auto& v : x) v = rng.uniform(-2, 2);
  const Vector ys = s * x;
  const Vector yd = d * x;
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(ys[i], yd[i], 1e-14);
}

TEST(MinDegree, OrderIsPermutation) {
  Rng rng(3);
  const SparseMatrix s =
      SparseMatrix::from_triplets(40, 40, random_spd_triplets(rng, 40));
  auto order = min_degree_order(s);
  ASSERT_EQ(order.size(), 40u);
  std::sort(order.begin(), order.end());
  for (std::int32_t i = 0; i < 40; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SparseLu, MatchesDenseOnRandomSpd) {
  Rng rng(42);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(5, 80));
    const SparseMatrix a =
        SparseMatrix::from_triplets(n, n, random_spd_triplets(rng, n));
    Vector b(n);
    for (auto& v : b) v = rng.uniform(-5, 5);

    auto slu = SparseLu::make(a);
    ASSERT_TRUE(slu.ok()) << slu.status().to_string();
    auto dlu = LuFactor::make(a.to_dense());
    ASSERT_TRUE(dlu.ok());

    const Vector xs = slu->solve(b);
    const Vector xd = dlu->solve(b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(xs[i], xd[i], 1e-12);
    EXPECT_GE(slu->nnz_factors(), a.nnz());
    EXPECT_GT(slu->fill_ratio(), 0.0);
    EXPECT_GT(slu->min_pivot(), 0.0);
  }
}

TEST(SparseLu, MatchesDenseOnMnaSystem) {
  const Circuit c = make_ladder(50);
  const MnaSystem mna(c);
  // G has a zero structural diagonal on the vsource branch row; the
  // trapezoidal matrix C/dt + G/2 is the transient hot path.
  for (const SparseMatrix& a :
       {mna.Gs(), SparseMatrix::combine(1e12, mna.Cs(), 0.5, mna.Gs())}) {
    auto slu = SparseLu::make(a);
    ASSERT_TRUE(slu.ok()) << slu.status().to_string();
    auto dlu = LuFactor::make(a.to_dense());
    ASSERT_TRUE(dlu.ok());
    const Vector b = mna.rhs(0.0);
    const Vector xs = slu->solve(b);
    const Vector xd = dlu->solve(b);
    for (std::size_t i = 0; i < mna.dim(); ++i) EXPECT_NEAR(xs[i], xd[i], 1e-12);
  }
}

TEST(SparseLu, SingularReturnsStatus) {
  // Second row is a multiple of the first.
  const SparseMatrix a = SparseMatrix::from_triplets(
      2, 2, {{0, 0, 1.0}, {0, 1, 2.0}, {1, 0, 2.0}, {1, 1, 4.0}});
  auto lu = SparseLu::make(a);
  ASSERT_FALSE(lu.ok());
  EXPECT_EQ(lu.status().code(), StatusCode::kInternal);

  // Structurally empty column.
  const SparseMatrix empty_col =
      SparseMatrix::from_triplets(2, 2, {{0, 0, 1.0}, {1, 0, 1.0}});
  EXPECT_EQ(SparseLu::make(empty_col).status().code(), StatusCode::kInternal);

  const SparseMatrix rect = SparseMatrix::from_triplets(2, 3, {{0, 0, 1.0}});
  EXPECT_EQ(SparseLu::make(rect).status().code(), StatusCode::kInvalidArgument);
}

TEST(SparseLu, RefactorReplaysSymbolicAnalysis) {
  Rng rng(99);
  const std::size_t n = 40;
  SparseMatrix a = SparseMatrix::from_triplets(n, n, random_spd_triplets(rng, n));
  auto lu = SparseLu::make(a);
  ASSERT_TRUE(lu.ok());
  const std::size_t factor_nnz = lu->nnz_factors();

  // Three rounds of new values over the frozen pattern.
  for (int round = 0; round < 3; ++round) {
    auto vals = a.values();
    for (auto& v : vals) v *= 1.0 + 0.1 * rng.uniform(0, 1);
    ASSERT_TRUE(lu->refactor(a).ok());
    EXPECT_EQ(lu->nnz_factors(), factor_nnz);  // Symbolic analysis reused.

    auto fresh = SparseLu::make(a);
    ASSERT_TRUE(fresh.ok());
    Vector b(n);
    for (auto& v : b) v = rng.uniform(-1, 1);
    const Vector xr = lu->solve(b);
    const Vector xf = fresh->solve(b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(xr[i], xf[i], 1e-12);
  }

  // Pattern mismatch is rejected.
  const SparseMatrix other = SparseMatrix::from_triplets(n, n, {{0, 0, 1.0}});
  EXPECT_EQ(lu->refactor(other).code(), StatusCode::kInvalidArgument);
}

/// Arms `spec` for the scope (factor:1 sends every n > 16 factorization
/// down the sparse_to_dense rung).
struct ScopedFaults {
  explicit ScopedFaults(const char* spec) {
    fault::install(*fault::parse_fault_spec(spec), 1);
  }
  ~ScopedFaults() { fault::clear(); }
};

std::uint64_t counter(const char* name) {
  return obs::metrics().counter(name).value();
}

TEST(SystemSolver, ForcedBackendsAgree) {
  // The facade (SparseLu at this size) against dense LU directly.
  const Circuit c = make_ladder(120);
  const MnaSystem mna(c);
  const Vector b = mna.rhs(0.0);

  auto ss = SystemSolver::make(mna.Gs());
  auto sd = LuFactor::make(mna.Gs().to_dense());
  ASSERT_TRUE(ss.ok());
  ASSERT_TRUE(sd.ok());
  EXPECT_FALSE(ss->uses_small_kernel());

  const Vector xd = sd->solve(b);
  const Vector xs = ss->solve(b);
  ASSERT_EQ(xs.size(), mna.dim());
  for (std::size_t i = 0; i < mna.dim(); ++i) EXPECT_NEAR(xs[i], xd[i], 1e-9);
}

TEST(SystemSolver, AutoSelectsByDimensionAndDensity) {
  // The size alone picks the engine: 16 unknowns -> SmallLu, 17 ->
  // SparseLu, even for a fully dense 17 x 17 system.
  const Circuit small = make_ladder(15);
  const MnaSystem small_mna(small);
  ASSERT_EQ(small_mna.dim(), kSmallLuMaxDim);
  const Circuit big = make_ladder(16);
  const MnaSystem big_mna(big);
  ASSERT_EQ(big_mna.dim(), kSmallLuMaxDim + 1);
  Matrix full(17, 17, 1.0);
  for (std::size_t i = 0; i < 17; ++i) full(i, i) = 40.0;

  obs::set_metrics_enabled(true);
  const std::uint64_t small0 = counter("solver.backend.small_dense");
  const std::uint64_t sparse0 = counter("solver.backend.sparse");
  auto s_small = SystemSolver::make(small_mna.Gs());
  auto s_big = SystemSolver::make(big_mna.Gs());
  auto s_full = SystemSolver::make(SparseMatrix::from_dense(full));
  obs::set_metrics_enabled(false);
  ASSERT_TRUE(s_small.ok() && s_big.ok() && s_full.ok());
  EXPECT_TRUE(s_small->uses_small_kernel());
  EXPECT_FALSE(s_big->uses_small_kernel());
  EXPECT_FALSE(s_full->uses_small_kernel());
  EXPECT_EQ(counter("solver.backend.small_dense"), small0 + 1);
  EXPECT_EQ(counter("solver.backend.sparse"), sparse0 + 2);

  EXPECT_EQ(SystemSolver::make(SparseMatrix::from_dense(Matrix(0, 0)))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(SystemSolver, RefactorAcrossBackends) {
  // SmallLu (ladder 10), SparseLu (ladder 60), and the dense rung (ladder
  // 60 with every sparse factorization failing): a refactor matches a
  // fresh factorization of the new values.
  const struct {
    int nodes;
    const char* faults;
  } cases[] = {{10, ""}, {60, ""}, {60, "factor:1"}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.nodes);
    const Circuit ckt = make_ladder(c.nodes);
    const MnaSystem mna(ckt);
    const Vector b = mna.rhs(0.0);
    SparseMatrix a = mna.Gs();
    std::optional<ScopedFaults> faults;
    if (*c.faults) faults.emplace(c.faults);
    auto solver = SystemSolver::make(a);
    ASSERT_TRUE(solver.ok());
    auto vals = a.values();
    for (auto& v : vals) v *= 2.0;
    ASSERT_TRUE(solver->refactor(a).ok());
    const Vector x2 = solver->solve(b);
    auto fresh = LuFactor::make(a.to_dense());
    ASSERT_TRUE(fresh.ok());
    const Vector xf = fresh->solve(b);
    for (std::size_t i = 0; i < mna.dim(); ++i) EXPECT_NEAR(x2[i], xf[i], 1e-12);
    if (*c.faults) {
      EXPECT_GT(fault::injected(fault::Site::kFactor), 0u);
      // With the rung off, the injected failure is the caller's error.
      SolverOptions strict;
      strict.allow_dense_fallback = false;
      EXPECT_EQ(SystemSolver::make(a, strict).status().code(),
                StatusCode::kInternal);
    }
  }
}

}  // namespace
}  // namespace dn
