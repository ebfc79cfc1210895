#include "ckt/transient.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
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

TransientResult::TransientResult(double dt, std::size_t capacity, int nodes)
    : dt_(dt), nodes_(static_cast<std::size_t>(nodes)), capacity_(capacity),
      samples_(new double[capacity * nodes_]) {}

Waveform TransientResult::waveform(NodeId n) const {
  std::vector<double> w(steps());
  for (std::size_t s = 0; s < w.size(); ++s) w[s] = voltage(n, s);
  return Waveform(dt_, std::move(w));
}

double TransientResult::voltage(NodeId n, std::size_t step) const {
  return samples_[index(n, step)];
}

std::span<double> TransientResult::append_row() {
  if (steps_ == capacity_)
    throw std::length_error("TransientResult: all " +
                            std::to_string(capacity_) + " steps written");
  double* row = samples_.get() + steps_++ * nodes_;
  std::fill_n(row, nodes_, 0.0);
  return {row, nodes_};
}

std::span<const double> TransientResult::row(std::size_t step) const {
  return {samples_.get() + index(kGround, step), nodes_};
}

std::size_t TransientResult::index(NodeId n, std::size_t step) const {
  const auto node = static_cast<std::size_t>(n);
  if (step >= steps() || node >= nodes_)
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

/// Time from which every source holds its final value, or -1 when some
/// source is periodic and never does.
double last_breakpoint(const Netlist& nl) {
  double t = 0.0;
  for (const VoltageSource& v : nl.vsources()) {
    if (v.waveform.period() > 0.0) return -1.0;
    if (!v.waveform.points().empty())
      t = std::max(t, v.waveform.points().back().first);
  }
  return t;
}

/// The stop rule of a registered march (docs/performance.md, "Stopping
/// the march once the measures are final").  A crossing is final once
/// seen.  From a step at or after the last source breakpoint on, the
/// deviation energy E from the final DC point never rises, so a watched
/// node j stays within sqrt(2 E / C_gj) of its DC voltage, C_gj being its
/// capacitance to ground; once that band, widened by the rounding slack,
/// lies inside [min(cap, running min), max(floor, running max)], no later
/// step can move the node's extremes.
class StopRule {
 public:
  StopRule(const Netlist& nl, const Mna& mna, const MeasureSet& measures,
           const std::vector<double>& xdc, double t_final)
      : measures_(measures), seen_(measures.crossings.size(), 0),
        t_final_(t_final) {
    double scale = 1.0;
    for (NodeId n = 1; n < nl.node_count(); ++n)
      scale = std::max(scale, std::abs(xdc[mna.node_row(n)]));
    slack_ = kCertificateSlack * scale;
    std::vector<double> grounded(static_cast<std::size_t>(nl.node_count()));
    for (const Capacitor& c : nl.capacitors())
      if (c.a == kGround || c.b == kGround)
        grounded[static_cast<std::size_t>(c.a == kGround ? c.b : c.a)] +=
            c.farads;
    for (const MeasureSet::Extremes& e : measures.extremes) {
      cg_.push_back(e.node == kGround
                        ? 0.0
                        : grounded[static_cast<std::size_t>(e.node)]);
      vdc_.push_back(e.node == kGround ? 0.0 : xdc[mna.node_row(e.node)]);
    }
    hi_.assign(measures.extremes.size(),
               -std::numeric_limits<double>::infinity());
    lo_.assign(measures.extremes.size(),
               std::numeric_limits<double>::infinity());
  }

  /// Whether the march may stop after `step` (at time t), every row up to
  /// it written into `result` and advanced with kept branch currents.
  bool certified(const TransientResult& result, std::size_t step, double t,
                 const CompanionSystem& sys) {
    for (; next_ <= step; ++next_) {
      const std::span<const double> row = result.row(next_);
      for (std::size_t e = 0; e < hi_.size(); ++e) {
        const double v = row[measures_.extremes[e].node];
        hi_[e] = std::max(hi_[e], v);
        lo_[e] = std::min(lo_[e], v);
      }
      if (next_ == 0 || unseen_ == 0) continue;
      const std::span<const double> prev = result.row(next_ - 1);
      for (std::size_t c = 0; c < seen_.size(); ++c) {
        const MeasureSet::Crossing& x = measures_.crossings[c];
        if (!seen_[c] && prev[x.node] < x.level && row[x.node] >= x.level) {
          seen_[c] = 1;
          --unseen_;
        }
      }
    }
    if (unseen_ > 0) return false;
    if (hi_.empty()) return true;
    if (t < t_final_) return false;
    const double energy = sys.deviation_energy(result.row(step).data());
    if (!(energy >= 0.0)) return false;
    for (std::size_t e = 0; e < hi_.size(); ++e) {
      if (cg_[e] <= 0.0) return false;
      const double band = std::sqrt(2.0 * energy / cg_[e]) + slack_;
      const MeasureSet::Extremes& x = measures_.extremes[e];
      if (vdc_[e] + band > std::max(x.floor, hi_[e]) ||
          vdc_[e] - band < std::min(x.cap, lo_[e]))
        return false;
    }
    return true;
  }

 private:
  const MeasureSet& measures_;
  std::vector<char> seen_;  // per crossing
  std::size_t unseen_ = seen_.size();
  // Per watched node: capacitance to ground, final DC voltage, running
  // max and min.
  std::vector<double> cg_, vdc_, hi_, lo_;
  double t_final_, slack_;
  std::size_t next_ = 0;  // first row not yet scanned
};

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
  // everything else is O(netlist).  A march that may stop early still
  // reserves the whole of it.
  const res::ScopedReservation reservation(
      "transient", result_bytes(steps, nl.node_count()));

  // The condensed system: constant for a fixed dt, factored once.
  CompanionSystem sys(mna, dt);
  numeric::SparseLu lu(sys.matrix());
  // A registered march also measures from the final DC point: one more
  // solve with the same factor.
  const double t_final = last_breakpoint(nl);
  const bool stoppable =
      !opt.measures.empty() && t_final >= 0.0 && sys.passive();
  std::vector<double> times{0.0};
  if (stoppable) times.push_back(t_final);
  const std::vector<std::vector<double>> dc = mna.dc_points(times);
  const std::vector<double>& x0 = dc.front();
  sys.start(mna, x0);
  std::vector<double> rhs(sys.dim() + 1);
  std::optional<StopRule> rule;
  if (stoppable) {
    sys.set_reference(mna, dc.back());
    rule.emplace(nl, mna, opt.measures, dc.back(), t_final);
  }

  // Allocated after every working array of the march, the stop rule's
  // included, so nothing the march allocates lands above it: a result
  // allocated first made a daemon's peak RSS depend on which malloc arena
  // each request's small arrays came from.
  TransientResult result(dt, steps, nl.node_count());
  double* row0 = result.append_row().data();
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
    const bool check = rule && step % kCertificateInterval == 0;
    sys.load(t, result.row(step - 1).data(), rhs.data());
    lu.solve(rhs.data());
    double* row = result.append_row().data();
    if (!sys.advance(rhs.data(), row, bound, check))
      check_row(nl, row, step, t, opt.divergence_limit);
    if (check && rule->certified(result, step, t, sys)) break;
  }
  return result;
}

}  // namespace rlcx::ckt
