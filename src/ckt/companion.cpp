#include "ckt/companion.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <sstream>
#include <utility>

#include "diag/error.h"

namespace rlcx::ckt {

namespace {

constexpr std::size_t kNone = SIZE_MAX;

std::size_t find_root(std::vector<std::size_t>& parent, std::size_t j) {
  while (parent[j] != j) j = parent[j] = parent[parent[j]];
  return j;
}

/// Inverts the k x k row-major block `m` in place by Gauss-Jordan with
/// partial pivoting.  Returns the column with no usable pivot (exactly
/// zero or non-finite), or kNone.
std::size_t invert(std::vector<double>& m, std::size_t k) {
  std::vector<double> inv(k * k, 0.0);
  for (std::size_t i = 0; i < k; ++i) inv[i * k + i] = 1.0;
  for (std::size_t c = 0; c < k; ++c) {
    std::size_t piv = c;
    for (std::size_t r = c + 1; r < k; ++r)
      if (std::abs(m[r * k + c]) > std::abs(m[piv * k + c])) piv = r;
    const double p = m[piv * k + c];
    if (p == 0.0 || !std::isfinite(p)) return c;
    if (piv != c)
      for (std::size_t j = 0; j < k; ++j) {
        std::swap(m[piv * k + j], m[c * k + j]);
        std::swap(inv[piv * k + j], inv[c * k + j]);
      }
    for (std::size_t j = 0; j < k; ++j) {
      m[c * k + j] /= p;
      inv[c * k + j] /= p;
    }
    for (std::size_t r = 0; r < k; ++r) {
      const double f = m[r * k + c];
      if (r == c || f == 0.0) continue;
      for (std::size_t j = 0; j < k; ++j) {
        m[r * k + j] -= f * m[c * k + j];
        inv[r * k + j] -= f * inv[c * k + j];
      }
    }
  }
  m = std::move(inv);
  return kNone;
}

}  // namespace

CompanionSystem::CompanionSystem(const Netlist& nl, double dt)
    : nl_(nl), dt_(dt) {
  const auto nodes = static_cast<std::size_t>(nl.node_count());
  const std::vector<Inductor>& inds = nl.inductors();
  const std::size_t nind = inds.size();

  // ---- Private mid nodes: one resistor and one inductor's `a` ----
  std::vector<int> touches(nodes, 0), res_touches(nodes, 0);
  std::vector<std::size_t> res_at(nodes, kNone);
  for (std::size_t q = 0; q < nl.resistors().size(); ++q)
    for (const NodeId n : {nl.resistors()[q].a, nl.resistors()[q].b}) {
      ++touches[static_cast<std::size_t>(n)];
      ++res_touches[static_cast<std::size_t>(n)];
      res_at[static_cast<std::size_t>(n)] = q;
    }
  for (const Capacitor& c : nl.capacitors()) {
    ++touches[static_cast<std::size_t>(c.a)];
    ++touches[static_cast<std::size_t>(c.b)];
  }
  for (const VoltageSource& v : nl.vsources()) {
    ++touches[static_cast<std::size_t>(v.a)];
    ++touches[static_cast<std::size_t>(v.b)];
  }
  std::vector<char> inductor_a(nodes, 0);
  for (const Inductor& l : inds) {
    ++touches[static_cast<std::size_t>(l.a)];
    ++touches[static_cast<std::size_t>(l.b)];
    inductor_a[static_cast<std::size_t>(l.a)] = 1;
  }
  auto candidate = [&](NodeId n) {
    const auto u = static_cast<std::size_t>(n);
    return n != kGround && inductor_a[u] && touches[u] == 2 &&
           res_touches[u] == 1;
  };
  // A resistor between two candidates keeps both: its far end must stay.
  std::vector<NodeId> drive(nind), mid(nind, kGround);
  std::vector<std::size_t> absorbed(nl.resistors().size(), kNone);
  for (std::size_t j = 0; j < nind; ++j) {
    drive[j] = inds[j].a;
    if (!candidate(inds[j].a)) continue;
    const std::size_t q = res_at[static_cast<std::size_t>(inds[j].a)];
    const Resistor& r = nl.resistors()[q];
    const NodeId p = r.a == inds[j].a ? r.b : r.a;
    if (candidate(p)) continue;
    drive[j] = p;
    mid[j] = inds[j].a;
    absorbed[q] = j;
  }

  // ---- Unknowns: kept nodes in node order, then source currents ----
  std::vector<std::size_t> row_of(nodes, kNone);
  std::vector<char> is_mid(nodes, 0);
  for (const NodeId m : mid)
    if (m != kGround) is_mid[static_cast<std::size_t>(m)] = 1;
  for (NodeId n = 1; n < nl.node_count(); ++n)
    if (!is_mid[static_cast<std::size_t>(n)]) {
      row_of[static_cast<std::size_t>(n)] = kept_.size();
      kept_.push_back(n);
    }
  vsrc0_ = kept_.size();
  dim_ = vsrc0_ + nl.vsources().size();
  row_of[kGround] = dim_;  // the rhs sink
  auto row = [&](NodeId n) { return row_of[static_cast<std::size_t>(n)]; };

  // ---- Groups: connected components of the mutual graph ----
  std::vector<std::size_t> parent(nind);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  for (const MutualInductance& m : nl.mutuals())
    parent[find_root(parent, m.l1)] = find_root(parent, m.l2);
  std::vector<std::vector<std::size_t>> members;
  std::vector<std::size_t> group_of_root(nind, kNone);
  for (std::size_t j = 0; j < nind; ++j) {
    std::size_t& g = group_of_root[find_root(parent, j)];
    if (g == kNone) {
      g = members.size();
      members.emplace_back();
    }
    members[g].push_back(j);
  }

  const numeric::CscMatrix lmat = Mna(nl).inductance();
  const double s = 2.0 / dt;  // the MNA transient's scale of C and L
  std::vector<std::size_t> pos(nind);
  group_ptr_.push_back(0);
  block_ptr_.push_back(0);
  for (const std::vector<std::size_t>& grp : members) {
    const std::size_t k = grp.size();
    for (std::size_t r = 0; r < k; ++r) pos[grp[r]] = r;
    std::vector<double> m(k * k, 0.0);
    for (std::size_t c = 0; c < k; ++c) {
      const std::size_t j = grp[c];
      for (std::size_t p = lmat.col_ptr()[j]; p < lmat.col_ptr()[j + 1]; ++p)
        m[pos[lmat.row_idx()[p]] * k + c] = lmat.values()[p];
    }
    l_.insert(l_.end(), m.begin(), m.end());
    for (double& v : m) v *= s;
    for (std::size_t r = 0; r < k; ++r) {
      const std::size_t j = grp[r];
      double ohms = 0.0, alpha = 1.0;
      if (mid[j] != kGround) {
        ohms = nl.resistors()[res_at[static_cast<std::size_t>(mid[j])]].ohms;
        alpha = 1.0 / (1.0 + ohms * kGmin);
      }
      m[r * k + r] += alpha * ohms;
      branches_.push_back({j, drive[j], inds[j].b, mid[j], row(drive[j]),
                           row(inds[j].b), alpha, ohms});
    }
    const std::size_t bad = invert(m, k);
    if (bad != kNone) {
      const Inductor& l = inds[grp[bad]];
      std::ostringstream msg;
      msg << "inductor " << grp[bad] << " ('" << nl.node_name(l.a)
          << "' -> '" << nl.node_name(l.b) << "') of a " << k
          << "-branch coupled group has no usable pivot in "
             "diag(R) + (2/dt) L: the group's inductance matrix is "
             "singular and no series resistance makes up for it";
      throw diag::SingularSystem("transient", msg.str(), grp[bad], k,
                                 std::numeric_limits<double>::infinity());
    }
    // Q = 2 (Y diag(alpha R) - I) advances the history: see advance().
    const Branch* br = branches_.data() + group_ptr_.back();
    for (std::size_t r = 0; r < k; ++r)
      for (std::size_t c = 0; c < k; ++c)
        q_.push_back(2.0 * (m[r * k + c] * br[c].alpha * br[c].ohms -
                            (r == c ? 1.0 : 0.0)));
    y_.insert(y_.end(), m.begin(), m.end());
    group_ptr_.push_back(branches_.size());
    block_ptr_.push_back(y_.size());
  }
  yh_.assign(nind, 0.0);
  scratch_.assign(2 * nind, 0.0);
  cur_.assign(nind, 0.0);

  // ---- The matrix ----
  // Stamped in Mna's order (Gmin, resistors, sources, capacitors), so an
  // RC netlist gets the MNA triplets one for one: the same factors and
  // bit-identical waveforms.
  std::vector<numeric::Triplet> t;
  auto stamp_pair = [&](NodeId a, NodeId b, double g) {
    if (a != kGround) t.push_back({row(a), row(a), g});
    if (b != kGround) t.push_back({row(b), row(b), g});
    if (a != kGround && b != kGround) {
      t.push_back({row(a), row(b), -g});
      t.push_back({row(b), row(a), -g});
    }
  };
  for (std::size_t k = 0; k < kept_.size(); ++k) t.push_back({k, k, kGmin});
  for (std::size_t q = 0; q < nl.resistors().size(); ++q) {
    const Resistor& r = nl.resistors()[q];
    if (absorbed[q] == kNone) {
      stamp_pair(r.a, r.b, 1.0 / r.ohms);
    } else if (const NodeId p = drive[absorbed[q]]; p != kGround) {
      // (1 - alpha) / R: the resistor into the mid node's Gmin shunt.
      t.push_back({row(p), row(p), kGmin / (1.0 + r.ohms * kGmin)});
    }
  }
  for (std::size_t v = 0; v < nl.vsources().size(); ++v) {
    const VoltageSource& src = nl.vsources()[v];
    if (src.a != kGround) {
      t.push_back({row(src.a), vsrc0_ + v, 1.0});
      t.push_back({vsrc0_ + v, row(src.a), 1.0});
    }
    if (src.b != kGround) {
      t.push_back({row(src.b), vsrc0_ + v, -1.0});
      t.push_back({vsrc0_ + v, row(src.b), -1.0});
    }
  }
  for (const Capacitor& c : nl.capacitors()) {
    stamp_pair(c.a, c.b, s * c.farads);
    caps_.push_back({c.a, c.b, row(c.a), row(c.b), 2.0 * c.farads / dt,
                     0.0});
  }
  // Each group: B^T Y B over its terminals, B = diag(alpha) A_p - A_b.
  for (std::size_t g = 0; g + 1 < group_ptr_.size(); ++g) {
    const std::size_t b0 = group_ptr_[g], k = group_ptr_[g + 1] - b0;
    const double* y = y_.data() + block_ptr_[g];
    for (std::size_t r = 0; r < k; ++r)
      for (std::size_t c = 0; c < k; ++c) {
        const Branch& br = branches_[b0 + r];
        const Branch& bc = branches_[b0 + c];
        const double v = y[r * k + c];
        if (br.p != kGround && bc.p != kGround)
          t.push_back({br.rp, bc.rp, br.alpha * v * bc.alpha});
        if (br.p != kGround && bc.b != kGround)
          t.push_back({br.rp, bc.rb, -br.alpha * v});
        if (br.b != kGround && bc.p != kGround)
          t.push_back({br.rb, bc.rp, -v * bc.alpha});
        if (br.b != kGround && bc.b != kGround)
          t.push_back({br.rb, bc.rb, v});
      }
  }
  matrix_ = numeric::CscMatrix::from_triplets(dim_, t);
}

void CompanionSystem::start(const Mna& mna, const std::vector<double>& x0) {
  auto v = [&](NodeId n) { return n == kGround ? 0.0 : x0[mna.node_row(n)]; };
  // DC: no capacitor current, i.e. geq v - ieq = 0 exactly on step 1.
  for (CapCompanion& c : caps_) c.ieq = c.geq * (v(c.a) - v(c.b));
  // DC: every inductor is shorted, so its history is -(2/dt) L i alone,
  // with the MNA march's coefficients.
  const numeric::CscMatrix lmat = mna.inductance();
  double* hist = scratch_.data();
  for (std::size_t b = 0; b < branches_.size(); ++b) {
    const std::size_t j = branches_[b].inductor;
    double h = 0.0;
    for (std::size_t p = lmat.col_ptr()[j]; p < lmat.col_ptr()[j + 1]; ++p)
      h -= 2.0 * lmat.values()[p] / dt_ *
           x0[mna.inductor_row(lmat.row_idx()[p])];
    hist[b] = h;
  }
  for (std::size_t g = 0; g + 1 < group_ptr_.size(); ++g) {
    const std::size_t b0 = group_ptr_[g], k = group_ptr_[g + 1] - b0;
    const double* y = y_.data() + block_ptr_[g];
    for (std::size_t r = 0; r < k; ++r) {
      double yh = 0.0;
      for (std::size_t c = 0; c < k; ++c) yh += y[r * k + c] * hist[b0 + c];
      yh_[b0 + r] = yh;
    }
  }
}

void CompanionSystem::load(double t, const double* prev, double* rhs) {
  std::fill(rhs, rhs + dim_ + 1, 0.0);
  for (CapCompanion& c : caps_) {
    // The previous step's capacitor current, then this step's source.
    const double v = prev[c.a] - prev[c.b];
    const double i = c.geq * v - c.ieq;
    c.ieq = c.geq * v + i;
    rhs[c.ra] += c.ieq;
    rhs[c.rb] -= c.ieq;
  }
  for (std::size_t v = 0; v < nl_.vsources().size(); ++v)
    rhs[vsrc0_ + v] = nl_.vsources()[v].waveform.eval(t);
  for (std::size_t b = 0; b < branches_.size(); ++b) {
    rhs[branches_[b].rp] += branches_[b].alpha * yh_[b];
    rhs[branches_[b].rb] -= yh_[b];
  }
}

namespace {

/// One group's update: branches br[0 .. k), its k x k Y and Q blocks and
/// history yh.  K > 0 fixes k = K at compile time, so the loops unroll and
/// u and the branch currents stay in registers; K = 0 is the generic loop,
/// with u and the currents in `scratch` (2 k doubles).  Every instance
/// does the same arithmetic in the same order: bit-identical waveforms.
/// A non-null `kept` receives the branch currents.
template <std::size_t K, typename Branch>
bool advance_group(const Branch* br, std::size_t k, const double* y,
                   const double* q, double* yh, double* row, double bound,
                   double* scratch, double* kept) {
  if constexpr (K > 0) k = K;
  double local[2 * (K > 0 ? K : 1)];
  double* const u = K > 0 ? local : scratch;
  double* const cur = u + k;
#pragma GCC unroll 4
  for (std::size_t c = 0; c < k; ++c)
    u[c] = br[c].alpha * row[br[c].p] - row[br[c].b];
  bool ok = true;
#pragma GCC unroll 4
  for (std::size_t r = 0; r < k; ++r) {
    double i = -yh[r];
#pragma GCC unroll 4
    for (std::size_t c = 0; c < k; ++c) i += y[r * k + c] * u[c];
    cur[r] = i;
    if (br[r].m != kGround) {
      const double v = br[r].alpha * (row[br[r].p] - br[r].ohms * i);
      row[br[r].m] = v;
      ok &= std::abs(v) <= bound;
    }
  }
  if (kept != nullptr) std::copy(cur, cur + k, kept);
#pragma GCC unroll 4
  for (std::size_t r = 0; r < k; ++r) {
    double j = -yh[r];
#pragma GCC unroll 4
    for (std::size_t c = 0; c < k; ++c) j += q[r * k + c] * cur[c];
    yh[r] = j;
  }
  return ok;
}

}  // namespace

bool CompanionSystem::advance(const double* x, double* row, double bound,
                              bool keep_currents) {
  // One comparison per node: NaN and +-inf fail it at any bound.
  bool ok = true;
  for (std::size_t k = 0; k < kept_.size(); ++k) {
    row[kept_[k]] = x[k];
    ok &= std::abs(x[k]) <= bound;
  }
  // Per group, the branch currents are i = Y u - J with u = alpha v_p - v_b
  // and J = Y hist.  A branch row reads v - (2/dt) L i = hist with
  // v = u - alpha R i, so the next history -v - (2/dt) L i is hist - 2 v,
  // and J' = J - 2 Y v = J - 2 (i + J) + 2 Y alpha R i = Q i - J.
  // Groups of up to 4 branches (3 on a CPW section) take a fixed-arity
  // instance of the update, larger ones the generic loop.
  for (std::size_t g = 0; g + 1 < group_ptr_.size(); ++g) {
    const std::size_t b0 = group_ptr_[g], k = group_ptr_[g + 1] - b0;
    const Branch* br = branches_.data() + b0;
    const double* y = y_.data() + block_ptr_[g];
    const double* q = q_.data() + block_ptr_[g];
    double* yh = yh_.data() + b0;
    double* s = scratch_.data();
    double* i = keep_currents ? cur_.data() + b0 : nullptr;
    switch (k) {
      case 1: ok &= advance_group<1>(br, k, y, q, yh, row, bound, s, i); break;
      case 2: ok &= advance_group<2>(br, k, y, q, yh, row, bound, s, i); break;
      case 3: ok &= advance_group<3>(br, k, y, q, yh, row, bound, s, i); break;
      case 4: ok &= advance_group<4>(br, k, y, q, yh, row, bound, s, i); break;
      default: ok &= advance_group<0>(br, k, y, q, yh, row, bound, s, i);
    }
  }
  return ok;
}

bool CompanionSystem::passive() const {
  // Cholesky of each group's L block: every pivot must stay positive.
  for (std::size_t g = 0; g + 1 < group_ptr_.size(); ++g) {
    const std::size_t k = group_ptr_[g + 1] - group_ptr_[g];
    std::vector<double> a(l_.data() + block_ptr_[g],
                          l_.data() + block_ptr_[g + 1]);
    for (std::size_t c = 0; c < k; ++c) {
      double d = a[c * k + c];
      for (std::size_t p = 0; p < c; ++p) d -= a[c * k + p] * a[c * k + p];
      if (!(d > 0.0)) return false;
      d = std::sqrt(d);
      a[c * k + c] = d;
      for (std::size_t r = c + 1; r < k; ++r) {
        double v = a[r * k + c];
        for (std::size_t p = 0; p < c; ++p) v -= a[r * k + p] * a[c * k + p];
        a[r * k + c] = v / d;
      }
    }
  }
  return true;
}

void CompanionSystem::set_reference(const Mna& mna,
                                    const std::vector<double>& xdc) {
  auto v = [&](NodeId n) { return n == kGround ? 0.0 : xdc[mna.node_row(n)]; };
  ref_cap_.clear();
  for (const CapCompanion& c : caps_) ref_cap_.push_back(v(c.a) - v(c.b));
  ref_cur_.clear();
  for (const Branch& b : branches_)
    ref_cur_.push_back(xdc[mna.inductor_row(b.inductor)]);
}

double CompanionSystem::deviation_energy(const double* row) const {
  double e = 0.0;
  for (std::size_t c = 0; c < caps_.size(); ++c) {
    const double dv = row[caps_[c].a] - row[caps_[c].b] - ref_cap_[c];
    e += nl_.capacitors()[c].farads * dv * dv;
  }
  for (std::size_t g = 0; g + 1 < group_ptr_.size(); ++g) {
    const std::size_t b0 = group_ptr_[g], k = group_ptr_[g + 1] - b0;
    const double* l = l_.data() + block_ptr_[g];
    for (std::size_t r = 0; r < k; ++r) {
      double li = 0.0;
      for (std::size_t c = 0; c < k; ++c)
        li += l[r * k + c] * (cur_[b0 + c] - ref_cur_[b0 + c]);
      e += (cur_[b0 + r] - ref_cur_[b0 + r]) * li;
    }
  }
  return 0.5 * e;
}

}  // namespace rlcx::ckt
