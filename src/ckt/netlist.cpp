#include "ckt/netlist.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "diag/error.h"

namespace rlcx::ckt {

namespace {

/// Shared formatting for element-value rejections: name the element kind and
/// the offending value so the error is actionable without a debugger.
[[noreturn]] void reject_value(const char* kind, const char* unit, double v) {
  std::ostringstream msg;
  msg << kind << " value must be positive and finite, got " << v << " "
      << unit;
  throw diag::GeometryError("netlist", msg.str());
}

}  // namespace

NodeId Netlist::add_node() {
  return add_node(std::string("n").append(std::to_string(next_node_)));
}

NodeId Netlist::add_node(const std::string& name) {
  names_.push_back(name);
  return next_node_++;
}

NodeId Netlist::node(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<NodeId>(i);
  throw std::out_of_range("netlist: unknown node name " + name);
}

const std::string& Netlist::node_name(NodeId n) const {
  check_node(n);
  return names_[static_cast<std::size_t>(n)];
}

void Netlist::check_node(NodeId n) const {
  if (n < 0 || n >= next_node_)
    throw std::out_of_range("netlist: bad node id");
}

void Netlist::add_resistor(NodeId a, NodeId b, double ohms) {
  check_node(a);
  check_node(b);
  if (!(ohms > 0.0) || !std::isfinite(ohms))
    reject_value("resistor", "ohm", ohms);
  if (a == b)
    throw diag::GeometryError("netlist", "resistor shorted to itself (node '" +
                                             node_name(a) + "')");
  resistors_.push_back({a, b, ohms});
}

void Netlist::add_capacitor(NodeId a, NodeId b, double farads) {
  check_node(a);
  check_node(b);
  if (!(farads > 0.0) || !std::isfinite(farads))
    reject_value("capacitor", "F", farads);
  if (a == b)
    throw diag::GeometryError(
        "netlist", "capacitor shorted to itself (node '" + node_name(a) + "')");
  capacitors_.push_back({a, b, farads});
}

std::size_t Netlist::add_inductor(NodeId a, NodeId b, double henries) {
  check_node(a);
  check_node(b);
  if (!(henries > 0.0) || !std::isfinite(henries))
    reject_value("inductor", "H", henries);
  if (a == b)
    throw diag::GeometryError(
        "netlist", "inductor shorted to itself (node '" + node_name(a) + "')");
  inductors_.push_back({a, b, henries});
  return inductors_.size() - 1;
}

void Netlist::add_mutual(std::size_t l1, std::size_t l2, double m) {
  if (l1 >= inductors_.size() || l2 >= inductors_.size())
    throw std::out_of_range("mutual: bad inductor index");
  if (l1 == l2)
    throw diag::GeometryError(
        "netlist", "mutual coupling of inductor " + std::to_string(l1) +
                       " with itself (self-inductance already covers it)");
  if (!std::isfinite(m))
    throw diag::GeometryError(
        "netlist", "mutual inductance must be finite, got " +
                       std::to_string(m) + " H (inductors " +
                       std::to_string(l1) + ", " + std::to_string(l2) + ")");
  const double lim =
      std::sqrt(inductors_[l1].henries * inductors_[l2].henries);
  if (std::abs(m) >= lim) {
    std::ostringstream msg;
    msg << "mutual between inductors " << l1 << " and " << l2
        << " implies |k| >= 1 (M = " << m << " H, sqrt(L1*L2) = " << lim
        << " H); the coupling coefficient of physical inductors is below 1";
    throw diag::GeometryError("netlist", msg.str());
  }
  mutuals_.push_back({l1, l2, m});
}

void Netlist::add_coupling(std::size_t l1, std::size_t l2, double k) {
  if (l1 >= inductors_.size() || l2 >= inductors_.size())
    throw std::out_of_range("coupling: bad inductor index");
  add_mutual(l1, l2,
             k * std::sqrt(inductors_[l1].henries * inductors_[l2].henries));
}

void Netlist::add_vsource(NodeId a, NodeId b, SourceWaveform w) {
  check_node(a);
  check_node(b);
  if (a == b)
    throw diag::GeometryError(
        "netlist", "vsource shorted to itself (node '" + node_name(a) + "')");
  vsources_.push_back({a, b, std::move(w)});
}

void Netlist::validate() const {
  // Dangling nodes: every declared non-ground node must touch an element.
  std::vector<bool> used(static_cast<std::size_t>(next_node_), false);
  auto touch = [&](NodeId n) { used[static_cast<std::size_t>(n)] = true; };
  for (const Resistor& r : resistors_) { touch(r.a); touch(r.b); }
  for (const Capacitor& c : capacitors_) { touch(c.a); touch(c.b); }
  for (const Inductor& l : inductors_) { touch(l.a); touch(l.b); }
  for (const VoltageSource& v : vsources_) { touch(v.a); touch(v.b); }
  for (NodeId n = 1; n < next_node_; ++n) {
    if (!used[static_cast<std::size_t>(n)])
      throw diag::GeometryError(
          "netlist", "dangling node '" + node_name(n) +
                         "' (id " + std::to_string(n) +
                         ") is attached to no element; remove it or connect "
                         "it before simulating");
  }

  // Cumulative mutual coupling: add_mutual checks each M alone, but repeated
  // couplings between the same pair add up in the inductance matrix.
  std::map<std::pair<std::size_t, std::size_t>, double> pair_m;
  for (const MutualInductance& m : mutuals_) {
    const auto key = std::minmax(m.l1, m.l2);
    pair_m[{key.first, key.second}] += m.henries;
  }
  for (const auto& [pair, m_total] : pair_m) {
    const double lim = std::sqrt(inductors_[pair.first].henries *
                                 inductors_[pair.second].henries);
    if (std::abs(m_total) >= lim) {
      std::ostringstream msg;
      msg << "cumulative mutual between inductors " << pair.first << " and "
          << pair.second << " implies |k| >= 1 (sum M = " << m_total
          << " H, sqrt(L1*L2) = " << lim
          << " H); the inductance matrix is not positive definite";
      throw diag::GeometryError("netlist", msg.str());
    }
  }
}

}  // namespace rlcx::ckt
