#include "matrix/dense.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace dn {

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  if (cols_ != rhs.rows_) throw std::invalid_argument("Matrix*: shape mismatch");
  Matrix out(rows_, rhs.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < rhs.cols_; ++j) out(i, j) += aik * rhs(k, j);
    }
  }
  return out;
}

Vector Matrix::operator*(const Vector& v) const {
  if (cols_ != v.size()) throw std::invalid_argument("Matrix*v: shape mismatch");
  Vector out(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    double acc = 0.0;
    const double* rp = data_.data() + i * cols_;
    for (std::size_t j = 0; j < cols_; ++j) acc += rp[j] * v[j];
    out[i] = acc;
  }
  return out;
}

Matrix Matrix::operator+(const Matrix& rhs) const {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
    throw std::invalid_argument("Matrix+: shape mismatch");
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] += rhs.data_[i];
  return out;
}

Matrix Matrix::operator-(const Matrix& rhs) const {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
    throw std::invalid_argument("Matrix-: shape mismatch");
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] -= rhs.data_[i];
  return out;
}

Matrix Matrix::scaled(double s) const {
  Matrix out = *this;
  for (double& v : out.data_) v *= s;
  return out;
}

double Matrix::norm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

StatusOr<LuFactor> LuFactor::make(Matrix a) {
  LuFactor f;
  f.lu_ = std::move(a);
  Status s = f.factorize();
  if (!s.ok()) return s;
  return f;
}

Status LuFactor::factorize() {
  if (lu_.rows() != lu_.cols())
    return Status::InvalidArgument("LuFactor: not square");
  const std::size_t n = lu_.rows();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
  min_pivot_ = std::numeric_limits<double>::infinity();

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest magnitude in column k at/below row k.
    std::size_t piv = k;
    double best = std::abs(lu_(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double m = std::abs(lu_(i, k));
      if (m > best) {
        best = m;
        piv = i;
      }
    }
    if (best == 0.0 || !std::isfinite(best))
      return Status::Internal("LuFactor: singular matrix");
    min_pivot_ = std::min(min_pivot_, best);
    if (piv != k) {
      std::swap(perm_[piv], perm_[k]);
      for (std::size_t j = 0; j < n; ++j) std::swap(lu_(piv, j), lu_(k, j));
    }
    const double inv_pivot = 1.0 / lu_(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double mult = lu_(i, k) * inv_pivot;
      lu_(i, k) = mult;
      if (mult == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) lu_(i, j) -= mult * lu_(k, j);
    }
  }
  return Status::Ok();
}

Vector LuFactor::solve(std::span<const double> b) const {
  if (b.size() != size()) throw std::invalid_argument("LuFactor::solve: size");
  Vector x(b.begin(), b.end());
  solve_in_place(x);
  return x;
}

void LuFactor::solve_in_place(std::span<double> x) const {
  const std::size_t n = size();
  scratch_.resize(n);  // No-op after the first solve.
  Vector& y = scratch_;
  for (std::size_t i = 0; i < n; ++i) y[i] = x[perm_[i]];
  // Forward substitution with unit lower-triangular L.
  for (std::size_t i = 0; i < n; ++i) {
    double acc = y[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * y[j];
    y[i] = acc;
  }
  // Back substitution with U.
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(ii, j) * y[j];
    y[ii] = acc / lu_(ii, ii);
  }
  for (std::size_t i = 0; i < n; ++i) x[i] = y[i];
}

double dot(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double norm2(std::span<const double> v) { return std::sqrt(dot(v, v)); }

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  assert(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scale(std::span<double> v, double s) {
  for (double& x : v) x *= s;
}

}  // namespace dn
