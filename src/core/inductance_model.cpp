#include "core/inductance_model.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "core/binary_io.h"
#include "diag/error.h"
#include "geom/builders.h"
#include "solver/block_solver.h"

namespace rlcx::core {

namespace {

constexpr char kBundleMagic[4] = {'R', 'L', 'X', 'B'};
constexpr std::uint32_t kBundleVersion = 1;

/// Load one of the bundle's three tables, rewriting any failure so the
/// diagnostic names WHICH table is bad ("mutual-L") — the acceptance test
/// for a NaN-poisoned table keys on this.  The category is preserved.
NdTable load_component(std::istream& is, const char* which) {
  try {
    NdTable t = NdTable::load(is);
    t.set_name(which);
    return t;
  } catch (const diag::Error& e) {
    const std::string msg =
        "table '" + std::string(which) + "': " + e.message();
    if (e.category() == diag::Category::kNumeric)
      throw diag::NumericError(e.stage(), msg);
    throw diag::IoError(e.stage(), msg);
  } catch (const std::exception& e) {
    throw diag::IoError(
        "tables", "table '" + std::string(which) + "': " + e.what());
  }
}

}  // namespace

TableKind table_kind_for(geom::PlaneConfig planes) {
  return planes == geom::PlaneConfig::kNone ? TableKind::kPartial
                                            : TableKind::kLoop;
}

void InductanceTables::save(std::ostream& os) const {
  using namespace detail;
  write_header(os, kBundleMagic, kBundleVersion);
  put_i32(os, layer);
  put_i32(os, static_cast<std::int32_t>(planes));
  put_f64(os, frequency);
  self.save(os);
  mutual.save(os);
  series_r.save(os);
}

InductanceTables InductanceTables::load(std::istream& is) {
  using namespace detail;
  check_header(is, kBundleMagic, kBundleVersion, "InductanceTables");
  InductanceTables t;
  t.layer = get_i32(is, "layer");
  const std::int32_t planes_int = get_i32(is, "planes");
  if (planes_int < 0 ||
      planes_int > static_cast<int>(geom::PlaneConfig::kBothSides))
    throw std::runtime_error("InductanceTables: bad plane config");
  t.planes = static_cast<geom::PlaneConfig>(planes_int);
  t.frequency = get_f64(is, "frequency");
  t.self = load_component(is, "self-L");
  t.mutual = load_component(is, "mutual-L");
  t.series_r = load_component(is, "series-R");
  return t;
}

void InductanceTables::name_tables() {
  self.set_name("self-L");
  mutual.set_name("mutual-L");
  series_r.set_name("series-R");
}

void InductanceTables::set_extrapolation_policy(ExtrapolationPolicy p) {
  self.set_extrapolation_policy(p);
  mutual.set_extrapolation_policy(p);
  series_r.set_extrapolation_policy(p);
}

void InductanceTables::save_file(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("InductanceTables: cannot open " + path);
  save(os);
}

InductanceTables InductanceTables::load_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("InductanceTables: cannot open " + path);
  return load(is);
}

TableInductanceModel::TableInductanceModel(InductanceTables tables)
    : tables_(std::move(tables)) {
  if (tables_.self.dims() != 2)
    throw std::invalid_argument("self table must be 2-D (width, length)");
  if (tables_.mutual.dims() != 4)
    throw std::invalid_argument(
        "mutual table must be 4-D (w1, w2, spacing, length)");
  tables_.name_tables();
}

void TableInductanceModel::set_extrapolation_policy(ExtrapolationPolicy p) {
  tables_.set_extrapolation_policy(p);
}

double TableInductanceModel::self(double width, double length) const {
  return tables_.self.lookup({width, length});
}

double TableInductanceModel::mutual(double w1, double w2, double spacing,
                                    double length) const {
  // Mutual inductance is symmetric in the pair; average the two orders so
  // lookup noise never breaks the symmetry callers rely on.  Both orders
  // share the spacing and length weights: one pass over the table.
  const double q[] = {w1, w2, spacing, length};
  const double r[] = {w2, w1, spacing, length};
  return tables_.mutual.lookup_mean(q, r);
}

double TableInductanceModel::series_resistance(double width,
                                               double length) const {
  if (tables_.series_r.dims() != 2) return -1.0;  // table not characterised
  return tables_.series_r.lookup({width, length});
}

DirectInductanceModel::DirectInductanceModel(const geom::Technology* tech,
                                             int layer,
                                             geom::PlaneConfig planes,
                                             solver::SolveOptions options)
    : tech_(tech), layer_(layer), planes_(planes),
      options_(std::move(options)) {
  if (tech_ == nullptr)
    throw std::invalid_argument("DirectInductanceModel: technology");
}

double DirectInductanceModel::self(double width, double length) const {
  const geom::Block blk =
      geom::single_trace(*tech_, layer_, length, width, planes_);
  if (table_kind_for(planes_) == TableKind::kPartial)
    return solver::extract_partial(blk, options_).inductance(0, 0);
  return solver::extract_loop(blk, options_).inductance(0, 0);
}

double DirectInductanceModel::series_resistance(double width,
                                                double length) const {
  const geom::Block blk =
      geom::single_trace(*tech_, layer_, length, width, planes_);
  if (table_kind_for(planes_) == TableKind::kPartial)
    return solver::extract_partial(blk, options_).resistance[0];
  return solver::extract_loop(blk, options_).resistance(0, 0);
}

double DirectInductanceModel::mutual(double w1, double w2, double spacing,
                                     double length) const {
  std::vector<geom::Trace> traces{
      {geom::TraceRole::kSignal, w1, -0.5 * (spacing + w1), "a"},
      {geom::TraceRole::kSignal, w2, 0.5 * (spacing + w2), "b"},
  };
  const geom::Block blk(tech_, layer_, length, std::move(traces), planes_);
  if (table_kind_for(planes_) == TableKind::kPartial)
    return solver::extract_partial(blk, options_).inductance(0, 1);
  return solver::extract_loop(blk, options_).inductance(0, 1);
}

void InductanceLibrary::add(
    int layer, geom::PlaneConfig planes,
    std::shared_ptr<const InductanceProvider> provider) {
  if (!provider) throw std::invalid_argument("InductanceLibrary: provider");
  providers_[{layer, static_cast<int>(planes)}] = std::move(provider);
}

bool InductanceLibrary::has(int layer, geom::PlaneConfig planes) const {
  return providers_.count({layer, static_cast<int>(planes)}) != 0;
}

const InductanceProvider& InductanceLibrary::provider(
    int layer, geom::PlaneConfig planes) const {
  const auto it = providers_.find({layer, static_cast<int>(planes)});
  if (it == providers_.end())
    throw std::out_of_range("InductanceLibrary: no provider for structure");
  return *it->second;
}

}  // namespace rlcx::core
