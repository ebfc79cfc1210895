// Dense MNA transient: the pre-sparse implementation of ckt::simulate,
// kept as the differential-test oracle (tests/test_ckt_transient.cpp,
// tests/test_fuzz.cpp, bench/bench_transient.cpp).  Two dense dim x dim
// systems, each factored by LuDecomposition; every step is an O(dim^2)
// back-substitution plus an O(nL^2) mutual-inductance history loop.  Same
// companion models and step formulas as the production path, so the two
// agree to rounding (docs/performance.md states the bound).
//
// Oracle only: no divergence guard, no cancellation checkpoint, and the
// caller is trusted to pass a validated netlist and sane options.
#include "support/dense_transient_reference.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "numeric/lu.h"
#include "numeric/matrix.h"

namespace rlcx::testing {

using namespace ckt;

namespace {
constexpr double kGmin = 1e-12;
}  // namespace

TransientResult dense_transient_reference(const Netlist& nl,
                                          const TransientOptions& opt) {

  const int nn = nl.node_count() - 1;  // unknown node voltages (ground = 0)
  const std::size_t nv = nl.vsources().size();
  const std::size_t nlind = nl.inductors().size();
  const std::size_t dim = static_cast<std::size_t>(nn) + nv + nlind;

  const double dt = opt.dt;
  const std::size_t steps =
      static_cast<std::size_t>(std::ceil(opt.t_stop / dt)) + 1;

  auto vrow = [&](NodeId n) { return static_cast<std::size_t>(n - 1); };
  const std::size_t vsrc0 = static_cast<std::size_t>(nn);
  const std::size_t ind0 = vsrc0 + nv;

  // Dense mutual-inductance matrix over the inductor branches.
  RealMatrix lmat(nlind, nlind);
  for (std::size_t j = 0; j < nlind; ++j)
    lmat(j, j) = nl.inductors()[j].henries;
  for (const MutualInductance& m : nl.mutuals()) {
    lmat(m.l1, m.l2) += m.henries;
    lmat(m.l2, m.l1) += m.henries;
  }

  // ---- Transient system matrix (constant: fixed dt, linear circuit) ----
  RealMatrix a(dim, dim);
  for (int n = 1; n <= nn; ++n) a(vrow(n), vrow(n)) += kGmin;

  auto stamp_conductance = [&](NodeId p, NodeId q, double g) {
    if (p != kGround) a(vrow(p), vrow(p)) += g;
    if (q != kGround) a(vrow(q), vrow(q)) += g;
    if (p != kGround && q != kGround) {
      a(vrow(p), vrow(q)) -= g;
      a(vrow(q), vrow(p)) -= g;
    }
  };

  for (const Resistor& r : nl.resistors())
    stamp_conductance(r.a, r.b, 1.0 / r.ohms);
  for (const Capacitor& c : nl.capacitors())
    stamp_conductance(c.a, c.b, 2.0 * c.farads / dt);

  for (std::size_t k = 0; k < nv; ++k) {
    const VoltageSource& vs = nl.vsources()[k];
    const std::size_t row = vsrc0 + k;
    if (vs.a != kGround) {
      a(vrow(vs.a), row) += 1.0;
      a(row, vrow(vs.a)) += 1.0;
    }
    if (vs.b != kGround) {
      a(vrow(vs.b), row) -= 1.0;
      a(row, vrow(vs.b)) -= 1.0;
    }
  }

  for (std::size_t j = 0; j < nlind; ++j) {
    const Inductor& l = nl.inductors()[j];
    const std::size_t row = ind0 + j;
    if (l.a != kGround) {
      a(vrow(l.a), row) += 1.0;  // KCL: current leaves node a
      a(row, vrow(l.a)) += 1.0;  // branch voltage v_a - v_b
    }
    if (l.b != kGround) {
      a(vrow(l.b), row) -= 1.0;
      a(row, vrow(l.b)) -= 1.0;
    }
    for (std::size_t m = 0; m < nlind; ++m)
      a(row, ind0 + m) -= 2.0 * lmat(j, m) / dt;
  }

  LuDecomposition<double> lu(std::move(a));

  // ---- DC operating point at t = 0: caps open, inductors shorted ----
  std::vector<double> x0(dim, 0.0);
  {
    RealMatrix adc(dim, dim);
    for (int n = 1; n <= nn; ++n) adc(vrow(n), vrow(n)) += kGmin;
    auto stamp_dc = [&](NodeId p, NodeId q, double g) {
      if (p != kGround) adc(vrow(p), vrow(p)) += g;
      if (q != kGround) adc(vrow(q), vrow(q)) += g;
      if (p != kGround && q != kGround) {
        adc(vrow(p), vrow(q)) -= g;
        adc(vrow(q), vrow(p)) -= g;
      }
    };
    for (const Resistor& r : nl.resistors()) stamp_dc(r.a, r.b, 1.0 / r.ohms);
    std::vector<double> rhs(dim, 0.0);
    for (std::size_t k = 0; k < nv; ++k) {
      const VoltageSource& vs = nl.vsources()[k];
      const std::size_t row = vsrc0 + k;
      if (vs.a != kGround) {
        adc(vrow(vs.a), row) += 1.0;
        adc(row, vrow(vs.a)) += 1.0;
      }
      if (vs.b != kGround) {
        adc(vrow(vs.b), row) -= 1.0;
        adc(row, vrow(vs.b)) -= 1.0;
      }
      rhs[row] = vs.waveform.eval(0.0);
    }
    for (std::size_t j = 0; j < nlind; ++j) {
      const Inductor& l = nl.inductors()[j];
      const std::size_t row = ind0 + j;
      if (l.a != kGround) {
        adc(vrow(l.a), row) += 1.0;
        adc(row, vrow(l.a)) += 1.0;
      }
      if (l.b != kGround) {
        adc(vrow(l.b), row) -= 1.0;
        adc(row, vrow(l.b)) -= 1.0;
      }
      // Short at DC: v_a - v_b = 0 (row has only the voltage terms).
    }
    // A tiny series term keeps the matrix regular when inductors close a
    // loop (a short circuit at DC).
    for (std::size_t j = 0; j < nlind; ++j) adc(ind0 + j, ind0 + j) -= 1e-9;
    LuDecomposition<double> ludc(std::move(adc));
    x0 = ludc.solve(rhs);
  }

  // ---- March ----
  TransientResult result(dt, steps, nl.node_count());
  std::vector<double> x = x0;

  // Companion state.
  std::vector<double> cap_v(nl.capacitors().size(), 0.0);
  std::vector<double> cap_i(nl.capacitors().size(), 0.0);
  auto node_v = [&](const std::vector<double>& xs, NodeId n) {
    return n == kGround ? 0.0 : xs[vrow(n)];
  };
  for (std::size_t c = 0; c < nl.capacitors().size(); ++c) {
    const Capacitor& cap = nl.capacitors()[c];
    cap_v[c] = node_v(x0, cap.a) - node_v(x0, cap.b);
    cap_i[c] = 0.0;  // DC: no capacitor current
  }
  std::vector<double> ind_i(nlind, 0.0), ind_v(nlind, 0.0);
  for (std::size_t j = 0; j < nlind; ++j) {
    ind_i[j] = x0[ind0 + j];
    ind_v[j] = 0.0;  // DC: shorted
  }

  double* row0 = result.append_row().data();
  for (int n = 1; n <= nn; ++n) row0[n] = node_v(x0, n);

  std::vector<double> rhs(dim, 0.0);
  for (std::size_t step = 1; step < steps; ++step) {
    const double t = dt * static_cast<double>(step);
    std::fill(rhs.begin(), rhs.end(), 0.0);

    for (std::size_t c = 0; c < nl.capacitors().size(); ++c) {
      const Capacitor& cap = nl.capacitors()[c];
      const double geq = 2.0 * cap.farads / dt;
      const double ieq = geq * cap_v[c] + cap_i[c];
      if (cap.a != kGround) rhs[vrow(cap.a)] += ieq;
      if (cap.b != kGround) rhs[vrow(cap.b)] -= ieq;
    }
    for (std::size_t k = 0; k < nv; ++k)
      rhs[vsrc0 + k] = nl.vsources()[k].waveform.eval(t);
    for (std::size_t j = 0; j < nlind; ++j) {
      double hist = -ind_v[j];
      for (std::size_t m = 0; m < nlind; ++m)
        hist -= 2.0 * lmat(j, m) / dt * ind_i[m];
      rhs[ind0 + j] = hist;
    }

    x = lu.solve(rhs);

    for (std::size_t c = 0; c < nl.capacitors().size(); ++c) {
      const Capacitor& cap = nl.capacitors()[c];
      const double geq = 2.0 * cap.farads / dt;
      const double vnew = node_v(x, cap.a) - node_v(x, cap.b);
      const double ieq = geq * cap_v[c] + cap_i[c];
      cap_i[c] = geq * vnew - ieq;
      cap_v[c] = vnew;
    }
    for (std::size_t j = 0; j < nlind; ++j) {
      const Inductor& l = nl.inductors()[j];
      ind_i[j] = x[ind0 + j];
      ind_v[j] = node_v(x, l.a) - node_v(x, l.b);
    }

    double* row = result.append_row().data();
    for (int n = 1; n <= nn; ++n) row[n] = node_v(x, n);
  }
  return result;
}


std::string compare_waveforms(const Netlist& nl, const TransientResult& got,
                              const TransientResult& want) {
  if (got.steps() != want.steps())
    return "step counts differ: " + std::to_string(got.steps()) + " vs " +
           std::to_string(want.steps());
  for (NodeId n = 1; n < nl.node_count(); ++n) {
    double peak = 0.0;
    for (std::size_t s = 0; s < want.steps(); ++s)
      peak = std::max(peak, std::abs(want.voltage(n, s)));
    const double bound = kOracleRelTol * peak + kOracleAbsTol;
    for (std::size_t s = 0; s < want.steps(); ++s) {
      const double dv = std::abs(got.voltage(n, s) - want.voltage(n, s));
      if (!(dv <= bound)) {
        std::ostringstream msg;
        msg.precision(17);
        msg << "node '" << nl.node_name(n) << "' step " << s << ": "
            << got.voltage(n, s) << " V vs oracle " << want.voltage(n, s)
            << " V (|dv| " << dv << " > " << bound << ")";
        return msg.str();
      }
    }
  }
  return "";
}

}  // namespace rlcx::testing
