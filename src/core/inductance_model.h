// Inductance lookup interfaces: the table-based model of the paper and a
// direct field-solver reference with the same API.
//
// A provider answers, for one (layer, plane-config) structure class:
//   self(w, l)            — self inductance of a trace
//   mutual(w1, w2, s, l)  — mutual inductance of a trace pair
// For bare coplanar structures these are *partial* inductances (PEEC; the
// circuit simulator finds the return path).  Over ground planes they are
// *loop* inductances with the plane merged into the far-end sink node —
// the paper's "Extension of Foundations".
#pragma once

#include <map>
#include <memory>

#include "core/table.h"
#include "geom/block.h"
#include "solver/options.h"

namespace rlcx::core {

class InductanceProvider {
 public:
  virtual ~InductanceProvider() = default;
  virtual double self(double width, double length) const = 0;
  virtual double mutual(double w1, double w2, double spacing,
                        double length) const = 0;

  /// Frequency-dependent (skin/proximity-aware) series resistance of a
  /// trace, if the provider can supply it; < 0 when unavailable, in which
  /// case callers fall back to the paper's analytic rho*l/(w*t).
  virtual double series_resistance(double /*width*/,
                                   double /*length*/) const {
    return -1.0;
  }
};

/// Table flavour: partial (no planes) vs loop (planes merged into sink).
enum class TableKind { kPartial, kLoop };

TableKind table_kind_for(geom::PlaneConfig planes);

/// The pre-characterised tables for one (layer, plane-config).
struct InductanceTables {
  int layer = 0;
  geom::PlaneConfig planes = geom::PlaneConfig::kNone;
  double frequency = 0.0;  ///< significant frequency the solver ran at
  NdTable self;            ///< axes: width, length
  NdTable mutual;          ///< axes: w1, w2, spacing, length
  NdTable series_r;        ///< axes: width, length — AC resistance at the
                           ///< table frequency (loop R over planes)

  /// Approximate resident bytes of the bundle — the currency of the warm
  /// store's byte-budgeted LRU and its memory-budget accounting.
  std::size_t resident_bytes() const {
    return self.resident_bytes() + mutual.resident_bytes() +
           series_r.resident_bytes();
  }

  /// Binary bundle ("RLXB" magic + version header wrapping three RLXT
  /// NdTables) — the one table file format: what `rlcx tables --out`
  /// writes and what a table-cache entry holds; layout in
  /// docs/table-format.md.  Round trips bit-exactly.
  void save(std::ostream& os) const;
  static InductanceTables load(std::istream& is);

  void save_file(const std::string& path) const;
  static InductanceTables load_file(const std::string& path);

  /// Label the three tables ("self-L", "mutual-L", "series-R") so
  /// extrapolation and corruption diagnostics name which table misbehaved.
  /// Load paths and TableInductanceModel apply this automatically.
  void name_tables();

  /// Apply one extrapolation policy to all three tables.
  void set_extrapolation_policy(ExtrapolationPolicy p);
};

/// Paper Section III: table lookup with spline interpolation.
class TableInductanceModel final : public InductanceProvider {
 public:
  explicit TableInductanceModel(InductanceTables tables);

  double self(double width, double length) const override;
  double mutual(double w1, double w2, double spacing,
                double length) const override;
  double series_resistance(double width, double length) const override;

  const InductanceTables& tables() const { return tables_; }

  /// Per-model out-of-grid policy, applied to all three tables: warn once
  /// (default), clamp queries to the grid edge, or throw a `numeric` error
  /// naming the table and axis.
  void set_extrapolation_policy(ExtrapolationPolicy p);

 private:
  InductanceTables tables_;
};

/// Reference model: runs the field solver for every query (what the tables
/// replace).  Used to validate "no loss of accuracy" and in bench E8 to
/// measure the speedup.
class DirectInductanceModel final : public InductanceProvider {
 public:
  DirectInductanceModel(const geom::Technology* tech, int layer,
                        geom::PlaneConfig planes,
                        solver::SolveOptions options);

  double self(double width, double length) const override;
  double mutual(double w1, double w2, double spacing,
                double length) const override;
  double series_resistance(double width, double length) const override;

 private:
  const geom::Technology* tech_;
  int layer_;
  geom::PlaneConfig planes_;
  solver::SolveOptions options_;
};

/// Registry of providers keyed by (layer, plane-config); the clocktree
/// extractor pulls the right provider per segment.
class InductanceLibrary {
 public:
  void add(int layer, geom::PlaneConfig planes,
           std::shared_ptr<const InductanceProvider> provider);
  const InductanceProvider& provider(int layer,
                                     geom::PlaneConfig planes) const;
  bool has(int layer, geom::PlaneConfig planes) const;

 private:
  std::map<std::pair<int, int>, std::shared_ptr<const InductanceProvider>>
      providers_;
};

}  // namespace rlcx::core
