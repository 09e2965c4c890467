// PRIMA: passive reduced-order interconnect macromodeling [2].
//
// The superposition flow re-simulates the same coupled RC network once per
// driver; the paper notes the key enabler is that "a reduced-order model of
// the network needs to be created only once with methods such as PRIMA and
// is then reused in all different driver simulations". This module
// implements the block-Arnoldi congruence projection on the descriptor
// system  G x + C x' = B u,  y = L^T x,  which preserves passivity for RC
// networks (V^T G V and V^T C V stay symmetric nonnegative).
//
// The Krylov iteration runs on sparse G/C (SparseDescriptorSystem) so
// reducing a large SPEF net never densifies the input; the dense
// DescriptorSystem entry points remain as thin conversions for reduced /
// small systems. B and L stay dense: ports and outputs are few.
#pragma once

#include <vector>

#include "circuit/mna.hpp"
#include "matrix/dense.hpp"
#include "matrix/solver.hpp"
#include "matrix/sparse.hpp"
#include "sim/transient.hpp"
#include "waveform/pwl.hpp"

namespace dn {

/// Linear descriptor system in input/output form (dense storage).
struct DescriptorSystem {
  Matrix G;  // n x n conductance.
  Matrix C;  // n x n capacitance.
  Matrix B;  // n x p input incidence (u = port sources).
  Matrix L;  // n x q output incidence (y = L^T x).
};

/// Same system with the large n x n blocks kept sparse.
struct SparseDescriptorSystem {
  SparseMatrix G;
  SparseMatrix C;
  Matrix B;
  Matrix L;
};

/// Sparse descriptor view over an assembled MNA system (no densification).
SparseDescriptorSystem descriptor_from_mna(const MnaSystem& mna, Matrix B,
                                           Matrix L);

struct ReducedModel {
  DescriptorSystem sys;  // Reduced matrices (k x k, k x p, k x q).
  Matrix V;              // n x k projection basis (orthonormal columns).
  int order() const { return static_cast<int>(sys.G.rows()); }
};

/// Reduces `full` to (at most) `order` states via block Arnoldi on
/// A = G^{-1} C with starting block R = G^{-1} B and modified Gram-Schmidt
/// orthogonalization. Deflation may return fewer states than requested.
/// `solver` holds the G factorization's dense-fallback policy.
ReducedModel prima(const SparseDescriptorSystem& full, int order,
                   const SolverOptions& solver = {});
ReducedModel prima(const DescriptorSystem& full, int order);

/// Trapezoidal transient of a descriptor system with inputs u(t).
/// Initial state is the DC solution at spec.t_start. Returns one waveform
/// per output column of L.
std::vector<Pwl> simulate_descriptor(const SparseDescriptorSystem& sys,
                                     const std::vector<Pwl>& u,
                                     const TransientSpec& spec,
                                     const SolverOptions& solver = {});
std::vector<Pwl> simulate_descriptor(const DescriptorSystem& sys,
                                     const std::vector<Pwl>& u,
                                     const TransientSpec& spec);

}  // namespace dn
