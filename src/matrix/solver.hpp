// SystemSolver: one factor/solve facade over the LU engines.
//
// The simulators and PRIMA never care which storage format backs a
// factorization — they need factor-once/backsub-many and, for Newton,
// cheap same-pattern refactorization. The system's size picks the
// engine: the stack-allocated SmallLu kernels (matrix/small_dense.hpp)
// up to kSmallLuMaxDim = 16 unknowns, SparseLu above. Dense LuFactor
// serves only the sparse_to_dense degradation rung (DESIGN.md §10).
#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "matrix/dense.hpp"
#include "matrix/small_dense.hpp"
#include "matrix/sparse.hpp"
#include "util/status.hpp"

namespace dn {

struct SolverOptions {
  /// Degradation-ladder rung (DESIGN.md §10): when a sparse
  /// factorization or refactorization fails outright (pivot breakdown
  /// even after re-pivoting), densify and retry with dense LU instead of
  /// failing the solve. Each fallback is recorded via dn::degrade. Off
  /// turns sparse failure back into a hard error.
  bool allow_dense_fallback = true;
};

/// A factored linear system: SmallLu for n <= 16, SparseLu above.
/// Instrumented with dn::obs metrics (factor/solve latency, backend
/// counts, sparse nnz and fill-in) — visible via the CLI's --profile.
class SystemSolver {
 public:
  /// Factors `a` with the engine its size picks. Singularity comes back
  /// as kInternal, a non-square or empty `a` as kInvalidArgument.
  static StatusOr<SystemSolver> make(const SparseMatrix& a,
                                     const SolverOptions& opts = {});

  /// Refactors a matrix with the SAME pattern as the one given to make()
  /// — numeric-only replay on the sparse path (falling back to a fresh
  /// re-pivoting factorization if the replayed pivots go bad), an
  /// in-place refactorization on the small kernels.
  Status refactor(const SparseMatrix& a);

  Vector solve(std::span<const double> b) const;
  void solve_in_place(Vector& x) const;
  /// Span form of solve_in_place (no container requirement; the small
  /// kernels and block solves are allocation-free through this entry).
  void solve_in_place(std::span<double> x) const;

  /// Solves A X = B for k right-hand sides stored as k contiguous
  /// length-size() columns in `cols` — one factorization, one latency
  /// sample, k back-substitutions. Each column goes through arithmetic
  /// identical to a standalone solve_in_place, so batched and sequential
  /// solves are bit-identical.
  void solve_batch(std::span<double> cols, std::size_t k) const;

  /// True when the unrolled small kernels serve this system (n <= 16).
  bool uses_small_kernel() const { return small_.has_value(); }
  std::size_t size() const;
  double min_pivot() const;

 private:
  SystemSolver() = default;

  /// The sparse_to_dense rung: densifies `a` and factors it with LuFactor,
  /// which then serves every later solve and refactor.
  Status factor_dense(const SparseMatrix& a);

  SolverOptions opts_{};
  std::optional<SmallLu> small_;   // n <= 16.
  std::optional<SparseLu> sparse_;  // n > 16.
  std::optional<LuFactor> dense_;   // n > 16 after a sparse failure.
};

}  // namespace dn
