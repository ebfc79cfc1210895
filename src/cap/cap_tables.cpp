#include "cap/cap_tables.h"

#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "geom/builders.h"

namespace rlcx::cap {

CapTables CapTables::build(const geom::Technology& tech, int layer,
                           geom::PlaneConfig planes,
                           const CapTableGrid& grid, const Fd2dOptions& fd) {
  if (grid.widths.size() < 2 || grid.spacings.size() < 2)
    throw std::invalid_argument("CapTables: each axis needs >= 2 points");

  CapTables t;
  t.layer_ = layer;
  t.planes_ = planes;
  t.widths_ = grid.widths;
  t.spacings_ = grid.spacings;
  t.cg_values_.reserve(grid.widths.size() * grid.spacings.size());
  t.cc_values_.reserve(t.cg_values_.capacity());

  // Characterisation length is immaterial: the FD solve is per unit length.
  const double len = 1e-4;
  for (double w : grid.widths) {
    for (double s : grid.spacings) {
      // The 3-trace subproblem: the trace with same-width neighbours.
      const geom::Block sub = geom::uniform_array(tech, layer, len, 3, w, s,
                                                  planes);
      SorReport point;
      const RealMatrix c = fd_block_capacitance(sub, fd, &point);
      t.sor_.converged = t.sor_.converged && point.converged;
      t.sor_.iterations = std::max(t.sor_.iterations, point.iterations);
      t.sor_.residual = std::max(t.sor_.residual, point.residual);
      t.sor_.retries += point.retries;
      double row = 0.0;
      for (std::size_t j = 0; j < 3; ++j) row += c(1, j);
      t.cg_values_.push_back(row);
      t.cc_values_.push_back(-c(1, 2));
    }
  }
  t.spline_ = TensorSpline({t.widths_, t.spacings_});
  return t;
}

double CapTables::lookup(const std::vector<double>& values, double w,
                         double s) const {
  if (values.empty()) throw std::logic_error("CapTables: empty table");
  const double q[] = {w, s};
  return spline_.eval(values, q);
}

double CapTables::cg(double width, double spacing) const {
  return lookup(cg_values_, width, spacing);
}

double CapTables::cc(double width, double spacing) const {
  return lookup(cc_values_, width, spacing);
}

void CapTables::save(std::ostream& os) const {
  os << "rlcx-cap-tables 1 " << layer_ << " " << static_cast<int>(planes_)
     << "\n";
  os << std::setprecision(17);
  os << widths_.size();
  for (double v : widths_) os << " " << v;
  os << "\n" << spacings_.size();
  for (double v : spacings_) os << " " << v;
  os << "\n";
  for (double v : cg_values_) os << v << " ";
  os << "\n";
  for (double v : cc_values_) os << v << " ";
  os << "\n";
}

CapTables CapTables::load(std::istream& is) {
  std::string magic;
  int version = 0;
  CapTables t;
  int planes_int = 0;
  is >> magic >> version >> t.layer_ >> planes_int;
  if (!is || magic != "rlcx-cap-tables" || version != 1)
    throw std::runtime_error("CapTables: bad header");
  t.planes_ = static_cast<geom::PlaneConfig>(planes_int);
  std::size_t nw = 0, ns = 0;
  is >> nw;
  if (!is || nw < 2) throw std::runtime_error("CapTables: bad width axis");
  t.widths_.resize(nw);
  for (double& v : t.widths_) is >> v;
  is >> ns;
  if (!is || ns < 2) throw std::runtime_error("CapTables: bad spacing axis");
  t.spacings_.resize(ns);
  for (double& v : t.spacings_) is >> v;
  t.cg_values_.resize(nw * ns);
  for (double& v : t.cg_values_) is >> v;
  t.cc_values_.resize(nw * ns);
  for (double& v : t.cc_values_) is >> v;
  if (!is) throw std::runtime_error("CapTables: truncated file");
  try {
    t.spline_ = TensorSpline({t.widths_, t.spacings_});
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("CapTables: bad grid: ") + e.what());
  }
  return t;
}

void CapTables::save_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("CapTables: cannot open " + path);
  save(os);
}

CapTables CapTables::load_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("CapTables: cannot open " + path);
  return load(is);
}

}  // namespace rlcx::cap
