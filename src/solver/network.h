// General PEEC network: conductor segments between circuit nodes, solved
// by nodal elimination at a given frequency.
//
// This is what the Table I experiment needs — the "full structure" loop
// inductance of a branching interconnect tree, where segments meet at
// junction nodes, ground shields run alongside each signal segment, and far
// ends are shorted.  Every segment is meshed into parallel filaments; all
// partial mutual inductances (including between collinear, staggered and
// perpendicular segments) come from the exact kernels in rlcx_peec.
//
// The solve is the nodal reduction PEEC extractors use: with A the signed
// filament-to-node incidence (reference node dropped) and Z the filament
// impedance, the node admittance is Y = A Z⁻¹ Aᵀ — the block solver's
// port_admittance, factored by the same complex-symmetric LDLᵀ — and the
// port impedance is Qᵀ Y⁻¹ Q for the port incidence Q, through a second
// LDLᵀ.  Y inherits definite real and imaginary parts from Z on a
// connected network, so neither factorisation needs pivoting.
#pragma once

#include <complex>
#include <utility>
#include <vector>

#include "numeric/matrix.h"
#include "peec/assembly.h"
#include "peec/mesh.h"
#include "solver/options.h"

namespace rlcx::solver {

class Network {
 public:
  /// Create a new node and return its id.
  int add_node();
  int node_count() const { return node_count_; }

  /// Add a conductor segment between two nodes.  Positive branch current
  /// flows `from` -> `to`; `from_is_min` says whether the `from` node sits
  /// at the bar's a_min end (flip it for segments laid out against their
  /// axis direction).  The segment is meshed into parallel filaments.
  void add_segment(int from, int to, const peec::Bar& bar, double rho,
                   const peec::MeshOptions& mesh, bool from_is_min = true);

  /// Short two nodes together (zero-impedance tie, implemented by merging).
  void tie(int a, int b);

  /// The node `node` was merged into by tie() (itself if untied).  Throws
  /// std::out_of_range for an unknown id.
  int canonical(int node) const;

  std::size_t segment_count() const { return segments_.size(); }
  std::size_t filament_count() const;

  /// One filament of the flattened system; positive current flows from
  /// canonical node `from` to canonical node `to`.
  struct Branch {
    peec::Filament filament;
    int from;
    int to;
  };
  /// Every segment's filaments in insertion order, endpoints resolved
  /// through tie().  Throws std::logic_error when there are no segments or
  /// a segment's endpoints were tied together.
  std::vector<Branch> branches() const;

  /// Multi-port impedance matrix at the given frequency.  Port k is the
  /// node pair (positive, negative); Z(k,m) = V_port_k per unit current
  /// injected into port m.  The first port's negative node is the
  /// reference.  Reserves the solver-dense budget and honours the run
  /// control's checkpoints like any impedance solve; a node with no path
  /// to the reference makes Y singular (diag::SingularSystem).
  ComplexMatrix port_impedance(
      const std::vector<std::pair<int, int>>& ports, double frequency,
      const peec::PartialOptions& popt = {}) const;

  /// Loop inductance [H] and resistance [ohm] of a single port.
  struct LoopZ {
    double inductance;
    double resistance;
  };
  LoopZ loop_impedance(int positive, int negative, double frequency,
                       const peec::PartialOptions& popt = {}) const;

 private:
  struct Segment {
    int from;
    int to;
    std::vector<peec::Filament> filaments;  // signs already oriented
  };

  int node_count_ = 0;
  std::vector<int> merged_into_;  // union-find style parent per node
  std::vector<Segment> segments_;
};

}  // namespace rlcx::solver
