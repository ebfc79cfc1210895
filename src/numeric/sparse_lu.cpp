#include "numeric/sparse_lu.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <queue>
#include <string>
#include <utility>

#include "diag/error.h"

namespace rlcx::numeric {

namespace {

constexpr std::size_t kNone = SIZE_MAX;

/// Minimum-degree elimination order of the pattern of A + A^T: order[k] is
/// the k-th row/column to eliminate.
std::vector<std::size_t> minimum_degree_order(const CscMatrix& a) {
  const std::size_t n = a.dim();
  std::vector<std::vector<std::size_t>> adj(n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t p = a.col_ptr()[j]; p < a.col_ptr()[j + 1]; ++p) {
      const std::size_t i = a.row_idx()[p];
      if (i == j) continue;
      adj[i].push_back(j);
      adj[j].push_back(i);
    }
  for (std::vector<std::size_t>& nbrs : adj) {
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
  }

  // Explicit elimination graph: eliminating v makes its neighbours a
  // clique.  The heap holds (degree, node); entries whose degree has since
  // changed are stale and skipped, so the pop is an exact minimum with the
  // lower index winning ties.
  using Entry = std::pair<std::size_t, std::size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (std::size_t v = 0; v < n; ++v) heap.emplace(adj[v].size(), v);
  std::vector<char> eliminated(n, 0);
  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<std::size_t> merged;
  while (!heap.empty()) {
    const auto [degree, v] = heap.top();
    heap.pop();
    if (eliminated[v] || degree != adj[v].size()) continue;
    eliminated[v] = 1;
    order.push_back(v);
    const std::vector<std::size_t> nbrs = std::move(adj[v]);
    adj[v].clear();
    for (const std::size_t u : nbrs) {
      merged.clear();
      std::set_union(adj[u].begin(), adj[u].end(), nbrs.begin(), nbrs.end(),
                     std::back_inserter(merged));
      merged.erase(std::remove_if(merged.begin(), merged.end(),
                                  [&](std::size_t w) {
                                    return w == u || w == v;
                                  }),
                   merged.end());
      adj[u].swap(merged);
      heap.emplace(adj[u].size(), u);
    }
  }
  return order;
}

}  // namespace


CscMatrix CscMatrix::from_triplets(std::size_t n,
                                   const std::vector<Triplet>& entries) {
  CscMatrix a;
  a.n_ = n;
  // Bucket by column (stable), then order each column by row (stable) and
  // sum duplicates in their original order.
  std::vector<std::size_t> count(n + 1, 0);
  for (const Triplet& t : entries) {
    if (t.row >= n || t.col >= n)
      throw diag::UsageError(
          "sparse", "triplet (" + std::to_string(t.row) + ", " +
                        std::to_string(t.col) + ") outside a " +
                        std::to_string(n) + "x" + std::to_string(n) +
                        " matrix");
    ++count[t.col + 1];
  }
  for (std::size_t j = 0; j < n; ++j) count[j + 1] += count[j];
  std::vector<std::size_t> by_col(entries.size());
  {
    std::vector<std::size_t> next(count.begin(), count.end() - 1);
    for (std::size_t e = 0; e < entries.size(); ++e)
      by_col[next[entries[e].col]++] = e;
  }
  a.col_ptr_.assign(1, 0);
  a.col_ptr_.reserve(n + 1);
  for (std::size_t j = 0; j < n; ++j) {
    const auto first = by_col.begin() + static_cast<std::ptrdiff_t>(count[j]);
    const auto last =
        by_col.begin() + static_cast<std::ptrdiff_t>(count[j + 1]);
    std::stable_sort(first, last, [&](std::size_t x, std::size_t y) {
      return entries[x].row < entries[y].row;
    });
    for (auto it = first; it != last; ++it) {
      const Triplet& t = entries[*it];
      if (a.row_idx_.size() > a.col_ptr_.back() &&
          a.row_idx_.back() == t.row)
        a.values_.back() += t.value;
      else {
        a.row_idx_.push_back(t.row);
        a.values_.push_back(t.value);
      }
    }
    a.col_ptr_.push_back(a.row_idx_.size());
  }
  return a;
}

std::vector<double> CscMatrix::multiply(const std::vector<double>& x) const {
  std::vector<double> y(n_, 0.0);
  for (std::size_t j = 0; j < n_; ++j) {
    const double xj = x[j];
    for (std::size_t p = col_ptr_[j]; p < col_ptr_[j + 1]; ++p)
      y[row_idx_[p]] += values_[p] * xj;
  }
  return y;
}

SparseLu::SparseLu(const CscMatrix& a)
    : n_(a.dim()), col_order_(minimum_degree_order(a)),
      row_pivot_(a.dim(), kNone), work_(a.dim(), 0.0) {
  const std::size_t n = n_;
  const std::vector<std::size_t>& ap = a.col_ptr();
  const std::vector<std::size_t>& ai = a.row_idx();
  const std::vector<double>& ax = a.values();
  l_ptr_.assign(1, 0);
  u_ptr_.assign(1, 0);
  l_idx_.reserve(a.nnz());
  u_idx_.reserve(a.nnz());
  l_val_.reserve(a.nnz());
  u_val_.reserve(a.nnz());
  // Pivot magnitude range, for the singular-system diagnostic.
  double pivot_max = 0.0;
  double pivot_min = std::numeric_limits<double>::infinity();

  // While factoring, L's row indices are original rows (the graph the
  // reach walks); they are renumbered to pivot positions at the end.
  std::vector<double>& x = work_;
  std::vector<std::size_t> mark(n, kNone);  // column k marks with k
  std::vector<std::size_t> reach(n), stack(n), next_child(n);

  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t col = col_order_[k];

    // Reach of A(:, col) in the graph of L, in topological order
    // (reach[top..n)): depth-first from each entry, iteratively.
    std::size_t top = n;
    for (std::size_t p = ap[col]; p < ap[col + 1]; ++p) {
      if (mark[ai[p]] == k) continue;
      std::size_t head = 0;
      stack[0] = ai[p];
      while (true) {
        const std::size_t j = stack[head];
        const std::size_t jcol = row_pivot_[j];
        if (mark[j] != k) {
          mark[j] = k;
          next_child[head] = jcol == kNone ? 0 : l_ptr_[jcol];
        }
        const std::size_t end = jcol == kNone ? 0 : l_ptr_[jcol + 1];
        bool descended = false;
        for (std::size_t q = next_child[head]; q < end; ++q) {
          const std::size_t i = l_idx_[q];
          if (mark[i] == k) continue;
          next_child[head] = q + 1;
          stack[++head] = i;
          descended = true;
          break;
        }
        if (descended) continue;
        reach[--top] = j;
        if (head == 0) break;
        --head;
      }
    }

    // Sparse triangular solve x = L \ A(:, col) over the reach.
    for (std::size_t p = ap[col]; p < ap[col + 1]; ++p) x[ai[p]] = ax[p];
    for (std::size_t r = top; r < n; ++r) {
      const std::size_t j = reach[r];
      const std::size_t jcol = row_pivot_[j];
      if (jcol == kNone) continue;
      const double xj = x[j];
      for (std::size_t q = l_ptr_[jcol]; q < l_ptr_[jcol + 1]; ++q)
        x[l_idx_[q]] -= l_val_[q] * xj;
    }

    // U gets the pivoted rows; the largest unpivoted entry is the pivot
    // candidate, displaced by the diagonal while that is within tolerance.
    std::size_t piv = kNone;
    double best = 0.0;
    bool finite = true;
    for (std::size_t r = top; r < n; ++r) {
      const std::size_t i = reach[r];
      if (row_pivot_[i] != kNone) {
        u_idx_.push_back(row_pivot_[i]);
        u_val_.push_back(x[i]);
        continue;
      }
      const double mag = std::abs(x[i]);
      if (!std::isfinite(mag)) finite = false;
      if (mag > best) {
        best = mag;
        piv = i;
      }
    }
    if (!finite || piv == kNone) {
      const double ratio = pivot_max / pivot_min;
      throw diag::SingularSystem(
          "lu",
          std::string(finite ? "zero" : "non-finite") + " pivot at column " +
              std::to_string(col) + " of a " + std::to_string(n) + "x" +
              std::to_string(n) + " sparse system (pivot ratio so far " +
              std::to_string(k == 0 ? 1.0 : ratio) + ")",
          col, n, std::numeric_limits<double>::infinity());
    }
    if (row_pivot_[col] == kNone && mark[col] == k &&
        std::abs(x[col]) >= kPivotTolerance * best)
      piv = col;
    const double pivot = x[piv];
    pivot_max = std::max(pivot_max, std::abs(pivot));
    pivot_min = std::min(pivot_min, std::abs(pivot));
    u_idx_.push_back(k);
    u_val_.push_back(pivot);
    u_ptr_.push_back(u_idx_.size());
    row_pivot_[piv] = k;

    for (std::size_t r = top; r < n; ++r) {
      const std::size_t i = reach[r];
      if (row_pivot_[i] == kNone) {
        l_idx_.push_back(i);
        l_val_.push_back(x[i] / pivot);
      }
      x[i] = 0.0;
    }
    l_ptr_.push_back(l_idx_.size());
  }
  for (std::size_t& i : l_idx_) i = row_pivot_[i];
}

void SparseLu::solve(std::vector<double>& b) {
  if (b.size() != n_)
    throw diag::UsageError("lu", "rhs has " + std::to_string(b.size()) +
                                     " entries, system is " +
                                     std::to_string(n_));
  solve(b.data());
}

void SparseLu::solve(double* b) {
  std::vector<double>& x = work_;
  for (std::size_t i = 0; i < n_; ++i) x[row_pivot_[i]] = b[i];
  for (std::size_t j = 0; j < n_; ++j) {
    const double xj = x[j];
    if (xj == 0.0) continue;
    for (std::size_t p = l_ptr_[j]; p < l_ptr_[j + 1]; ++p)
      x[l_idx_[p]] -= l_val_[p] * xj;
  }
  for (std::size_t j = n_; j-- > 0;) {
    const std::size_t diag = u_ptr_[j + 1] - 1;
    const double xj = x[j] / u_val_[diag];
    x[j] = xj;
    if (xj == 0.0) continue;
    for (std::size_t p = u_ptr_[j]; p < diag; ++p)
      x[u_idx_[p]] -= u_val_[p] * xj;
  }
  for (std::size_t k = 0; k < n_; ++k) b[col_order_[k]] = x[k];
}

}  // namespace rlcx::numeric
