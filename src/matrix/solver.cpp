#include "matrix/solver.hpp"

#include <utility>

#include "util/degradation.hpp"
#include "util/fault_injection.hpp"
#include "util/metrics.hpp"

namespace dn {

namespace {

// Registered once; references are stable for the process lifetime so the
// hot path is one relaxed atomic load when metrics are off (DESIGN.md §8).
struct SolverMetrics {
  obs::Counter& dense_picked = obs::metrics().counter("solver.backend.dense");
  obs::Counter& small_picked =
      obs::metrics().counter("solver.backend.small_dense");
  obs::Counter& sparse_picked = obs::metrics().counter("solver.backend.sparse");
  obs::Counter& refactors = obs::metrics().counter("solver.refactors");
  obs::Counter& refactor_fallbacks =
      obs::metrics().counter("solver.refactor_fallbacks");
  obs::Histogram& factor_seconds =
      obs::metrics().histogram("stage.solver_factor.seconds");
  obs::Histogram& solve_seconds =
      obs::metrics().histogram("stage.solver_solve.seconds");
  obs::Histogram& nnz = obs::metrics().histogram("solver.sparse.nnz");
  obs::Histogram& fill_ratio =
      obs::metrics().histogram("solver.sparse.fill_ratio");
};

SolverMetrics& sm() {
  static SolverMetrics m;
  return m;
}

}  // namespace

StatusOr<SystemSolver> SystemSolver::make(const SparseMatrix& a,
                                          const SolverOptions& opts) {
  if (a.rows() != a.cols())
    return Status::InvalidArgument("SystemSolver: matrix not square");
  SystemSolver s;
  s.opts_ = opts;

  obs::ScopedLatency lat(sm().factor_seconds);
  if (a.rows() <= kSmallLuMaxDim) {
    // The unrolled stack kernels densify the CSR input straight into
    // their own block: no heap, no scratch Matrix.
    sm().dense_picked.add();
    sm().small_picked.add();
    SmallLu lu;
    Status st = lu.factorize(a);
    if (!st.ok()) return st;
    s.small_.emplace(lu);
    return s;
  }
  sm().sparse_picked.add();
  StatusOr<SparseLu> f =
      fault::should_fail(fault::Site::kFactor)
          ? StatusOr<SparseLu>(Status::Internal("injected fault: sparse factor"))
          : SparseLu::make(a);
  if (f.ok()) {
    if (obs::metrics_enabled()) {
      sm().nnz.record(static_cast<double>(a.nnz()));
      sm().fill_ratio.record(f->fill_ratio());
    }
    s.sparse_.emplace(std::move(*f));
    return s;
  }
  if (!opts.allow_dense_fallback) return f.status();
  // Degradation ladder: sparse pivot breakdown -> dense LU.
  degrade::record(DegradeKind::kSparseToDense,
                  "sparse factor failed (" + f.status().message() +
                      "); forced dense backend");
  sm().dense_picked.add();
  Status st = s.factor_dense(a);
  if (!st.ok()) return st;
  return s;
}

Status SystemSolver::factor_dense(const SparseMatrix& a) {
  auto f = LuFactor::make(a.to_dense());
  if (!f.ok()) return f.status();
  dense_.emplace(std::move(*f));
  sparse_.reset();
  return Status::Ok();
}

Status SystemSolver::refactor(const SparseMatrix& a) {
  sm().refactors.add();
  obs::ScopedLatency lat(sm().factor_seconds);
  if (a.rows() != size() || a.cols() != size())
    return Status::InvalidArgument("SystemSolver::refactor: shape mismatch");
  if (small_) return small_->factorize(a);
  if (dense_) return factor_dense(a);
  Status s;
  if (fault::should_fail(fault::Site::kFactor)) {
    s = Status::Internal("injected fault: sparse refactor");
  } else {
    s = sparse_->refactor(a);
    if (s.ok()) return s;
    // The replayed pivot sequence went bad for the new values: re-pivot
    // from scratch (KLU-style fallback) before giving up.
    sm().refactor_fallbacks.add();
    auto f = SparseLu::make(a);
    if (f.ok()) {
      *sparse_ = std::move(*f);
      return Status::Ok();
    }
    s = f.status();
  }
  if (!opts_.allow_dense_fallback) return s;
  // Degradation ladder: even re-pivoting failed -> densify and carry on
  // with dense LU for the remaining refactors.
  degrade::record(DegradeKind::kSparseToDense,
                  "sparse refactor failed (" + s.message() +
                      "); forced dense backend");
  return factor_dense(a);
}

Vector SystemSolver::solve(std::span<const double> b) const {
  obs::ScopedLatency lat(sm().solve_seconds);
  if (small_) {
    Vector x(b.begin(), b.end());
    small_->solve_in_place(x);
    return x;
  }
  return dense_ ? dense_->solve(b) : sparse_->solve(b);
}

void SystemSolver::solve_in_place(Vector& x) const {
  obs::ScopedLatency lat(sm().solve_seconds);
  if (small_)
    small_->solve_in_place(x);
  else if (dense_)
    dense_->solve_in_place(x);
  else
    sparse_->solve_in_place(x);
}

void SystemSolver::solve_in_place(std::span<double> x) const {
  obs::ScopedLatency lat(sm().solve_seconds);
  if (small_)
    small_->solve_in_place(x);
  else if (dense_)
    dense_->solve_in_place(x);
  else
    sparse_->solve_in_place(x);
}

void SystemSolver::solve_batch(std::span<double> cols, std::size_t k) const {
  obs::ScopedLatency lat(sm().solve_seconds);
  if (small_) {
    small_->solve_batch(cols, k);
    return;
  }
  const std::size_t n = size();
  for (std::size_t j = 0; j < k; ++j) {
    auto col = cols.subspan(j * n, n);
    if (dense_)
      dense_->solve_in_place(col);
    else
      sparse_->solve_in_place(col);
  }
}

std::size_t SystemSolver::size() const {
  if (small_) return small_->size();
  return dense_ ? dense_->size() : sparse_ ? sparse_->size() : 0;
}

double SystemSolver::min_pivot() const {
  if (small_) return small_->min_pivot();
  return dense_ ? dense_->min_pivot() : sparse_ ? sparse_->min_pivot() : 0.0;
}

}  // namespace dn
