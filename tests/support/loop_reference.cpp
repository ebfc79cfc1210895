#include "support/loop_reference.h"

#include <complex>
#include <numbers>
#include <vector>

#include "peec/assembly.h"
#include "support/lu_reference.h"

namespace rlcx::solver {

namespace {

using Complex = std::complex<double>;

/// Conductor-level impedance (PᵀZ⁻¹P)⁻¹, one port per conductor.
ComplexMatrix conductor_impedance(const std::vector<Conductor>& conductors,
                                  const SolveOptions& opt) {
  std::vector<peec::Filament> all;
  std::vector<std::size_t> owner;
  for (std::size_t c = 0; c < conductors.size(); ++c) {
    for (const peec::Filament& f : conductors[c].filaments) {
      all.push_back(f);
      owner.push_back(c);
    }
  }
  const std::size_t nc = conductors.size();
  const std::size_t nf = all.size();
  const RealMatrix lp = peec::partial_inductance_matrix(all, opt.partial);
  const double omega = 2.0 * std::numbers::pi * opt.frequency;
  ComplexMatrix z(nf, nf);
  for (std::size_t i = 0; i < nf; ++i) {
    for (std::size_t j = 0; j < nf; ++j)
      z(i, j) = Complex(0.0, omega * lp(i, j));
    z(i, i) += all[i].resistance;
  }
  const LuDecomposition<Complex> lu(std::move(z));
  ComplexMatrix p(nf, nc);
  for (std::size_t i = 0; i < nf; ++i) p(i, owner[i]) = 1.0;
  const ComplexMatrix zinv_p = lu.solve(p);
  ComplexMatrix y(nc, nc);
  for (std::size_t i = 0; i < nf; ++i)
    for (std::size_t b = 0; b < nc; ++b) y(owner[i], b) += zinv_p(i, b);
  return LuDecomposition<Complex>(std::move(y)).solve(
      ComplexMatrix::identity(nc));
}

}  // namespace

LoopResult bordered_loop_reference(const geom::Block& block,
                                   const SolveOptions& opt) {
  const std::vector<Conductor> conductors = block_conductors(block, opt);
  std::vector<std::size_t> sig, gnd;
  for (std::size_t c = 0; c < conductors.size(); ++c)
    (conductors[c].is_ground ? gnd : sig).push_back(c);
  const ComplexMatrix z = conductor_impedance(conductors, opt);
  const std::size_t ns = sig.size();
  const std::size_t ng = gnd.size();

  ComplexMatrix zss(ns, ns), zsg(ns, ng), zgs(ng, ns), zgg(ng, ng);
  for (std::size_t i = 0; i < ns; ++i) {
    for (std::size_t j = 0; j < ns; ++j) zss(i, j) = z(sig[i], sig[j]);
    for (std::size_t g = 0; g < ng; ++g) zsg(i, g) = z(sig[i], gnd[g]);
  }
  for (std::size_t g = 0; g < ng; ++g) {
    for (std::size_t j = 0; j < ns; ++j) zgs(g, j) = z(gnd[g], sig[j]);
    for (std::size_t h = 0; h < ng; ++h) zgg(g, h) = z(gnd[g], gnd[h]);
  }

  const LuDecomposition<Complex> lug(zgg);
  const ComplexMatrix zgg_inv_zgs = lug.solve(zgs);
  const std::vector<Complex> zgg_inv_1 =
      lug.solve(std::vector<Complex>(ng, Complex(1.0, 0.0)));
  Complex denom = 0.0;
  for (std::size_t g = 0; g < ng; ++g) denom += zgg_inv_1[g];
  std::vector<Complex> r(ns), cvec(ns);
  for (std::size_t j = 0; j < ns; ++j) {
    Complex acc = 0.0;
    for (std::size_t g = 0; g < ng; ++g) acc += zgg_inv_zgs(g, j);
    r[j] = acc - Complex(1.0, 0.0);
  }
  for (std::size_t i = 0; i < ns; ++i) {
    Complex acc = 0.0;
    for (std::size_t g = 0; g < ng; ++g) acc += zsg(i, g) * zgg_inv_1[g];
    cvec[i] = acc - Complex(1.0, 0.0);
  }
  const ComplexMatrix schur = zsg * zgg_inv_zgs;

  const double omega = 2.0 * std::numbers::pi * opt.frequency;
  LoopResult res;
  res.inductance = RealMatrix(ns, ns);
  res.resistance = RealMatrix(ns, ns);
  for (std::size_t i = 0; i < ns; ++i) {
    for (std::size_t j = 0; j < ns; ++j) {
      const Complex zl = zss(i, j) - schur(i, j) + cvec[i] * r[j] / denom;
      res.inductance(i, j) = zl.imag() / omega;
      res.resistance(i, j) = zl.real();
    }
    res.signal_traces.push_back(conductors[sig[i]].block_trace);
  }
  return res;
}

}  // namespace rlcx::solver
