#include "support/network_reference.h"

#include <complex>
#include <numbers>

#include "peec/assembly.h"
#include "support/lu_reference.h"

namespace rlcx::solver {

ComplexMatrix kkt_port_impedance(const Network& net,
                                 const std::vector<std::pair<int, int>>& ports,
                                 double frequency,
                                 const peec::PartialOptions& popt) {
  using Complex = std::complex<double>;
  const std::vector<Network::Branch> bs = net.branches();
  std::vector<peec::Filament> fils;
  for (const Network::Branch& b : bs) fils.push_back(b.filament);
  const std::size_t nf = fils.size();

  // Map canonical node -> MNA row (reference excluded).
  const int ref = net.canonical(ports.at(0).second);
  std::vector<int> row(static_cast<std::size_t>(net.node_count()), -1);
  int nv = 0;
  for (int n = 0; n < net.node_count(); ++n) {
    if (net.canonical(n) != n || n == ref) continue;
    row[static_cast<std::size_t>(n)] = nv++;
  }
  const auto row_of = [&](int node) {
    return row[static_cast<std::size_t>(net.canonical(node))];
  };

  const double omega = 2.0 * std::numbers::pi * frequency;
  const RealMatrix lp = peec::partial_inductance_matrix(fils, popt);
  const std::size_t dim = static_cast<std::size_t>(nv) + nf;
  ComplexMatrix m(dim, dim);
  for (std::size_t f = 0; f < nf; ++f) {
    const std::size_t fi = static_cast<std::size_t>(nv) + f;
    if (const int r = row_of(bs[f].from); r >= 0) {
      m(static_cast<std::size_t>(r), fi) += 1.0;
      m(fi, static_cast<std::size_t>(r)) += 1.0;
    }
    if (const int r = row_of(bs[f].to); r >= 0) {
      m(static_cast<std::size_t>(r), fi) -= 1.0;
      m(fi, static_cast<std::size_t>(r)) -= 1.0;
    }
    for (std::size_t g = 0; g < nf; ++g)
      m(fi, static_cast<std::size_t>(nv) + g) -=
          Complex(0.0, omega * lp(f, g));
    m(fi, fi) -= fils[f].resistance;
  }
  const LuDecomposition<Complex> lu(std::move(m));

  const std::size_t np = ports.size();
  ComplexMatrix z(np, np);
  for (std::size_t pj = 0; pj < np; ++pj) {
    std::vector<Complex> rhs(dim, Complex(0.0, 0.0));
    if (const int r = row_of(ports[pj].first); r >= 0)
      rhs[static_cast<std::size_t>(r)] += 1.0;
    if (const int r = row_of(ports[pj].second); r >= 0)
      rhs[static_cast<std::size_t>(r)] -= 1.0;
    const std::vector<Complex> x = lu.solve(rhs);
    for (std::size_t pi = 0; pi < np; ++pi) {
      Complex v = 0.0;
      if (const int r = row_of(ports[pi].first); r >= 0)
        v += x[static_cast<std::size_t>(r)];
      if (const int r = row_of(ports[pi].second); r >= 0)
        v -= x[static_cast<std::size_t>(r)];
      z(pi, pj) = v;
    }
  }
  return z;
}

}  // namespace rlcx::solver
