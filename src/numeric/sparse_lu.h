// Sparse LU for the circuit simulator's MNA systems.
//
// An interconnect MNA matrix is a tree of short R/L/C ladders: a few
// entries per row and, in a good elimination order, bounded fill.  The
// factorisation here is the KLU recipe (Davis & Palamadai Natarajan,
// ACM TOMS 2010) without its block-triangular step:
//
//   1. a fill-reducing symmetric order — exact minimum degree on the
//      pattern of A + A^T, ties broken by the lower index;
//   2. left-looking Gilbert–Peierls LU in that column order: each column is
//      a sparse triangular solve over the reach of its pattern, so the work
//      is proportional to the flops, never to n^2;
//   3. threshold partial pivoting that keeps the diagonal while it is at
//      least kPivotTolerance of the column's largest candidate.  MNA rows
//      of voltage sources have a zero diagonal, so pivoting is required.
//
// A solve is one forward and one backward sweep, O(nnz(L + U)).  Every step
// is a deterministic function of the triplet sequence, so the same system
// gives bit-identical factors and solutions on every run.
#pragma once

#include <cstddef>
#include <vector>

namespace rlcx::numeric {

/// One (row, col, value) entry; duplicates are summed.
struct Triplet {
  std::size_t row, col;
  double value;
};

/// Square compressed-sparse-column matrix.
class CscMatrix {
 public:
  CscMatrix() = default;

  /// Builds an n x n matrix from triplets.  Duplicates are summed in their
  /// order in `entries`; explicit zeros stay in the pattern.  Throws a
  /// `usage` fault for an out-of-range index.
  static CscMatrix from_triplets(std::size_t n,
                                 const std::vector<Triplet>& entries);

  std::size_t dim() const { return n_; }
  std::size_t nnz() const { return row_idx_.size(); }

  /// y = A x.
  std::vector<double> multiply(const std::vector<double>& x) const;

  const std::vector<std::size_t>& col_ptr() const { return col_ptr_; }
  const std::vector<std::size_t>& row_idx() const { return row_idx_; }
  const std::vector<double>& values() const { return values_; }

 private:
  std::size_t n_ = 0;
  std::vector<std::size_t> col_ptr_{0};
  std::vector<std::size_t> row_idx_;
  std::vector<double> values_;
};

class SparseLu {
 public:
  /// Diagonal-preference threshold of the partial pivoting (KLU's default).
  static constexpr double kPivotTolerance = 1e-3;

  /// Orders and factors `a`.  Throws diag::SingularSystem when a column has
  /// no usable pivot (exactly zero or non-finite), naming the column.
  explicit SparseLu(const CscMatrix& a);

  /// Stored factor entries: strictly-lower L plus U with its diagonal.
  std::size_t nnz() const { return l_idx_.size() + u_idx_.size(); }

  /// Solves A x = b in place (b becomes x).  Not const: the permutations
  /// go through a member work vector, so one factor serves one thread.
  void solve(std::vector<double>& b);
  /// The same over b[0, n) of an n x n system; entries past n are
  /// untouched.
  void solve(double* b);

 private:
  std::size_t n_ = 0;
  std::vector<std::size_t> col_order_;  // q: column k of LU is column q[k]
  std::vector<std::size_t> row_pivot_;  // pinv: row i is pivot row pinv[i]
  // Unit-lower L (diagonal implicit) and U (diagonal last in each column),
  // both CSC over pivot positions.
  std::vector<std::size_t> l_ptr_, l_idx_, u_ptr_, u_idx_;
  std::vector<double> l_val_, u_val_;
  std::vector<double> work_;
};

}  // namespace rlcx::numeric
