#include "ckt/transient.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "ckt/mna.h"
#include "diag/error.h"
#include "numeric/sparse_lu.h"
#include "run/control.h"

namespace rlcx::ckt {

TransientResult::TransientResult(double dt, std::size_t steps, int nodes)
    : dt_(dt), steps_(steps), nodes_(static_cast<std::size_t>(nodes)),
      samples_(steps * nodes_, 0.0) {}

Waveform TransientResult::waveform(NodeId n) const {
  std::vector<double> w(steps_);
  for (std::size_t s = 0; s < steps_; ++s) w[s] = voltage(n, s);
  return Waveform(dt_, std::move(w));
}

double TransientResult::voltage(NodeId n, std::size_t step) const {
  return samples_[index(n, step)];
}

void TransientResult::set_voltage(NodeId n, std::size_t step, double v) {
  samples_[index(n, step)] = v;
}

std::size_t TransientResult::index(NodeId n, std::size_t step) const {
  const auto node = static_cast<std::size_t>(n);
  if (step >= steps_ || node >= nodes_)
    throw std::out_of_range("TransientResult: step " + std::to_string(step) +
                            " node " + std::to_string(n) + " out of range");
  return step * nodes_ + node;
}

namespace {

/// Divergence guard for one solved step: every node voltage must be finite
/// and inside the configured bound.  Throws a `numeric` error naming the
/// timestep and node, so a blown-up simulation is diagnosable instead of
/// producing a garbage waveform (or a silent wall of NaN).
void check_step(const Netlist& nl, const std::vector<double>& x,
                std::size_t step, double t, double limit) {
  const int nn = nl.node_count() - 1;
  for (int n = 1; n <= nn; ++n) {
    const double v = x[static_cast<std::size_t>(n - 1)];
    const bool finite = std::isfinite(v);
    if (finite && (limit <= 0.0 || std::abs(v) <= limit)) continue;
    std::ostringstream msg;
    msg << (finite ? "unbounded growth" : "non-finite voltage")
        << " at step " << step << " (t=" << t << " s): node '"
        << nl.node_name(n) << "' = " << v << " V";
    if (finite) msg << " (|v| > divergence_limit " << limit << " V)";
    msg << "; the system is unstable or badly conditioned "
           "(check mutual couplings and element values)";
    throw diag::NumericError("transient", msg.str());
  }
}

}  // namespace

TransientResult simulate(const Netlist& nl, const TransientOptions& opt) {
  if (opt.dt <= 0.0)
    throw diag::UsageError("transient", "dt must be positive, got " +
                                            std::to_string(opt.dt));
  if (opt.t_stop < opt.dt)
    throw diag::UsageError("transient", "t_stop must be >= dt");
  nl.validate();

  const Mna mna(nl);
  const std::size_t dim = mna.dim();
  if (dim == 0)
    throw diag::UsageError("transient", "empty netlist: nothing to simulate");

  const int nn = nl.node_count() - 1;  // unknown node voltages (ground = 0)
  const std::size_t nv = nl.vsources().size();
  const std::size_t nlind = nl.inductors().size();
  const double dt = opt.dt;
  const std::size_t steps =
      static_cast<std::size_t>(std::ceil(opt.t_stop / dt)) + 1;

  // Trapezoidal inductor history: each inductor walks its own column of
  // the inductance matrix (self plus couplings) with 2 L / dt precomputed.
  const numeric::CscMatrix lmat = mna.inductance();
  std::vector<double> hist_coef(lmat.values());
  for (double& c : hist_coef) c = 2.0 * c / dt;

  // Transient system G + (2/dt) C: constant for a fixed dt, factored once.
  numeric::SparseLu lu(mna.matrix(2.0 / dt));

  // ---- DC operating point at t = 0: caps open, inductors shorted ----
  std::vector<double> x0(dim, 0.0);
  {
    std::vector<numeric::Triplet> t;
    mna.stamp_g(t);
    // A tiny series term keeps the system regular when inductors close a
    // loop (a short circuit at DC).
    for (std::size_t j = 0; j < nlind; ++j)
      t.push_back({mna.inductor_row(j), mna.inductor_row(j), -1e-9});
    numeric::SparseLu ludc(numeric::CscMatrix::from_triplets(dim, t));
    for (std::size_t k = 0; k < nv; ++k)
      x0[mna.vsource_row(k)] = nl.vsources()[k].waveform.eval(0.0);
    ludc.solve(x0);
    check_step(nl, x0, 0, 0.0, opt.divergence_limit);
  }

  // ---- March ----
  TransientResult result(dt, steps, nl.node_count());
  std::vector<double> x = x0;

  // Companion state.
  std::vector<double> cap_v(nl.capacitors().size(), 0.0);
  std::vector<double> cap_i(nl.capacitors().size(), 0.0);
  auto node_v = [&](const std::vector<double>& xs, NodeId n) {
    return n == kGround ? 0.0 : xs[mna.node_row(n)];
  };
  for (std::size_t c = 0; c < nl.capacitors().size(); ++c) {
    const Capacitor& cap = nl.capacitors()[c];
    cap_v[c] = node_v(x0, cap.a) - node_v(x0, cap.b);
    cap_i[c] = 0.0;  // DC: no capacitor current
  }
  std::vector<double> ind_i(nlind, 0.0), ind_v(nlind, 0.0);
  for (std::size_t j = 0; j < nlind; ++j) {
    ind_i[j] = x0[mna.inductor_row(j)];
    ind_v[j] = 0.0;  // DC: shorted
  }

  for (int n = 1; n <= nn; ++n) result.set_voltage(n, 0, node_v(x0, n));

  for (std::size_t step = 1; step < steps; ++step) {
    // Step boundary: companion state and the result waveforms are
    // consistent here, so a cancelled march unwinds cleanly.
    run::checkpoint("transient");
    const double t = dt * static_cast<double>(step);
    std::fill(x.begin(), x.end(), 0.0);

    for (std::size_t c = 0; c < nl.capacitors().size(); ++c) {
      const Capacitor& cap = nl.capacitors()[c];
      const double geq = 2.0 * cap.farads / dt;
      const double ieq = geq * cap_v[c] + cap_i[c];
      if (cap.a != kGround) x[mna.node_row(cap.a)] += ieq;
      if (cap.b != kGround) x[mna.node_row(cap.b)] -= ieq;
    }
    for (std::size_t k = 0; k < nv; ++k)
      x[mna.vsource_row(k)] = nl.vsources()[k].waveform.eval(t);
    for (std::size_t j = 0; j < nlind; ++j) {
      double hist = -ind_v[j];
      for (std::size_t p = lmat.col_ptr()[j]; p < lmat.col_ptr()[j + 1]; ++p)
        hist -= hist_coef[p] * ind_i[lmat.row_idx()[p]];
      x[mna.inductor_row(j)] = hist;
    }

    lu.solve(x);
    check_step(nl, x, step, t, opt.divergence_limit);

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
      ind_i[j] = x[mna.inductor_row(j)];
      ind_v[j] = node_v(x, l.a) - node_v(x, l.b);
    }

    for (int n = 1; n <= nn; ++n) result.set_voltage(n, step, node_v(x, n));
  }
  return result;
}

}  // namespace rlcx::ckt
