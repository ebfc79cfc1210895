#include "ckt/transient.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "ckt/companion.h"
#include "ckt/mna.h"
#include "diag/error.h"
#include "numeric/sparse_lu.h"
#include "res/budget.h"
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

std::span<double> TransientResult::row(std::size_t step) {
  return {samples_.data() + index(kGround, step), nodes_};
}

std::size_t TransientResult::index(NodeId n, std::size_t step) const {
  const auto node = static_cast<std::size_t>(n);
  if (step >= steps_ || node >= nodes_)
    throw std::out_of_range("TransientResult: step " + std::to_string(step) +
                            " node " + std::to_string(n) + " out of range");
  return step * nodes_ + node;
}

namespace {

/// Divergence guard: every node voltage of `row` (indexed by NodeId) must
/// be finite and inside the configured bound.  Throws a `numeric` error
/// naming the timestep and the first node outside it, so a blown-up
/// simulation is diagnosable instead of producing a garbage waveform (or a
/// silent wall of NaN).
void check_row(const Netlist& nl, const double* row, std::size_t step,
               double t, double limit) {
  for (NodeId n = 1; n < nl.node_count(); ++n) {
    const double v = row[n];
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

/// DC operating point at t = 0 in the MNA layout: caps open, inductors
/// shorted, sources at their t = 0 value.
std::vector<double> dc_operating_point(const Netlist& nl, const Mna& mna) {
  std::vector<numeric::Triplet> t;
  mna.stamp_g(t);
  // A tiny series term keeps the system regular when inductors close a
  // loop (a short circuit at DC).
  for (std::size_t j = 0; j < nl.inductors().size(); ++j)
    t.push_back({mna.inductor_row(j), mna.inductor_row(j), -1e-9});
  numeric::SparseLu ludc(numeric::CscMatrix::from_triplets(mna.dim(), t));
  std::vector<double> x0(mna.dim(), 0.0);
  for (std::size_t k = 0; k < nl.vsources().size(); ++k)
    x0[mna.vsource_row(k)] = nl.vsources()[k].waveform.eval(0.0);
  ludc.solve(x0);
  return x0;
}

/// Bytes of the result block, saturating so a runaway step count is
/// refused rather than wrapped.
std::uint64_t result_bytes(std::size_t steps, int nodes) {
  const double bytes = static_cast<double>(steps) *
                       static_cast<double>(nodes) * sizeof(double);
  return bytes < 1.8e19 ? static_cast<std::uint64_t>(bytes) : UINT64_MAX;
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
  if (mna.dim() == 0)
    throw diag::UsageError("transient", "empty netlist: nothing to simulate");

  const double dt = opt.dt;
  const std::size_t steps =
      static_cast<std::size_t>(std::ceil(opt.t_stop / dt)) + 1;
  // The result is the march's one allocation that grows with the run;
  // everything else is O(netlist).
  const res::ScopedReservation reservation(
      "transient", result_bytes(steps, nl.node_count()));

  // The condensed system: constant for a fixed dt, factored once.
  CompanionSystem sys(nl, dt);
  numeric::SparseLu lu(sys.matrix());
  const std::vector<double> x0 = dc_operating_point(nl, mna);
  sys.start(mna, x0);
  std::vector<double> rhs(sys.dim() + 1);

  // Allocated after every working array of the march, so nothing the
  // march allocates lands above it: a result allocated first made a
  // daemon's peak RSS depend on which malloc arena each request's small
  // arrays came from.
  TransientResult result(dt, steps, nl.node_count());
  double* row0 = result.row(0).data();
  for (NodeId n = 1; n < nl.node_count(); ++n) row0[n] = x0[mna.node_row(n)];
  check_row(nl, row0, 0, 0.0, opt.divergence_limit);

  // advance() guards every node in the pass that writes it; check_row
  // then names the first offender.
  const double bound = opt.divergence_limit > 0.0
                           ? opt.divergence_limit
                           : std::numeric_limits<double>::max();
  for (std::size_t step = 1; step < steps; ++step) {
    // Step boundary: companion state and the result waveforms are
    // consistent here, so a cancelled march unwinds cleanly.
    run::checkpoint("transient");
    const double t = dt * static_cast<double>(step);
    sys.load(t, result.row(step - 1).data(), rhs.data());
    lu.solve(rhs.data());
    double* row = result.row(step).data();
    if (!sys.advance(rhs.data(), row, bound))
      check_row(nl, row, step, t, opt.divergence_limit);
  }
  return result;
}

}  // namespace rlcx::ckt
