// Pre-characterised capacitance tables (the [4] side of the paper's flow).
//
// Section V: "we extract the resistance, capacitance, and inductance ...
// given the geometry parameters via the pre-characterised capacitance and
// inductance table look-up".  The inductance tables live in rlcx_core; this
// is their capacitance counterpart: 3-trace subproblems solved with the FD
// field solver over a (width, spacing) grid, interpolated with the same
// tensor-spline machinery.
//
// Table shapes (per layer / plane configuration, at fixed metal thickness
// and ground height — both process constants):
//   cg(w, s)  — ground capacitance of a trace of width w with neighbours of
//               the same width at spacing s on both sides  [F/m]
//   cc(w, s)  — coupling to one such neighbour              [F/m]
#pragma once

#include <iosfwd>
#include <string>

#include "cap/fd2d.h"
#include "geom/block.h"
#include "numeric/spline.h"

namespace rlcx::cap {

struct CapTableGrid {
  std::vector<double> widths;    ///< [m]
  std::vector<double> spacings;  ///< [m]
};

class CapTables {
 public:
  CapTables() = default;

  /// Characterise for the given layer / plane configuration.
  static CapTables build(const geom::Technology& tech, int layer,
                         geom::PlaneConfig planes, const CapTableGrid& grid,
                         const Fd2dOptions& fd = {});

  /// Ground capacitance per unit length [F/m] for width w, neighbours at
  /// spacing s (bi-cubic spline lookup).
  double cg(double width, double spacing) const;
  /// Coupling to one adjacent neighbour [F/m].
  double cc(double width, double spacing) const;

  int layer() const { return layer_; }
  geom::PlaneConfig planes() const { return planes_; }
  bool empty() const { return cg_values_.empty(); }

  /// Aggregated convergence record of the FD solves behind build():
  /// worst residual and largest sweep count across every grid point.  A
  /// loaded table has a default (converged, zero-iteration) report — the
  /// record describes this process's solves, not the file's provenance.
  const SorReport& solver_report() const { return sor_; }

  void save(std::ostream& os) const;
  static CapTables load(std::istream& is);
  void save_file(const std::string& path) const;
  static CapTables load_file(const std::string& path);

 private:
  double lookup(const std::vector<double>& values, double w, double s) const;

  int layer_ = 0;
  geom::PlaneConfig planes_ = geom::PlaneConfig::kNone;
  std::vector<double> widths_;
  std::vector<double> spacings_;
  std::vector<double> cg_values_;  ///< row-major (width, spacing)
  std::vector<double> cc_values_;
  TensorSpline spline_;  ///< over (widths_, spacings_), for cg and cc
  SorReport sor_;
};

}  // namespace rlcx::cap
