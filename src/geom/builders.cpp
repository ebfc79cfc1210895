#include "geom/builders.h"

#include <stdexcept>

namespace rlcx::geom {

namespace {

std::vector<Trace> gsg_traces(double signal_width, double ground_width,
                              double spacing) {
  const double pitch = 0.5 * signal_width + spacing + 0.5 * ground_width;
  std::vector<Trace> traces;
  traces.push_back({TraceRole::kGround, ground_width, -pitch, "gnd_l"});
  traces.push_back({TraceRole::kSignal, signal_width, 0.0, "sig"});
  traces.push_back({TraceRole::kGround, ground_width, pitch, "gnd_r"});
  return traces;
}

}  // namespace

Block coplanar_waveguide(const Technology& tech, int layer, double length,
                         double signal_width, double ground_width,
                         double spacing) {
  return Block(&tech, layer, length,
               gsg_traces(signal_width, ground_width, spacing),
               PlaneConfig::kNone);
}

Block microstrip(const Technology& tech, int layer, double length,
                 double signal_width, double ground_width, double spacing) {
  return Block(&tech, layer, length,
               gsg_traces(signal_width, ground_width, spacing),
               PlaneConfig::kBelow);
}

Block stripline(const Technology& tech, int layer, double length,
                double signal_width, double ground_width, double spacing) {
  return Block(&tech, layer, length,
               gsg_traces(signal_width, ground_width, spacing),
               PlaneConfig::kBothSides);
}

Block single_trace(const Technology& tech, int layer, double length,
                   double width, PlaneConfig planes) {
  std::vector<Trace> traces{{TraceRole::kSignal, width, 0.0, "sig"}};
  return Block(&tech, layer, length, std::move(traces), planes);
}

Block bus_block(const Technology& tech, int layer, double length,
                const std::vector<double>& widths,
                const std::vector<double>& spacings,
                PlaneConfig planes) {
  if (widths.size() < 2)
    throw std::invalid_argument("bus block needs >= 2 traces");
  if (spacings.size() + 1 != widths.size())
    throw std::invalid_argument("bus block needs n-1 spacings");

  // Lay traces out left to right, then re-center on x = 0.
  std::vector<Trace> traces;
  double x = 0.0;
  for (std::size_t i = 0; i < widths.size(); ++i) {
    if (i > 0) x += spacings[i - 1];
    const TraceRole role = (i == 0 || i + 1 == widths.size())
                               ? TraceRole::kGround
                               : TraceRole::kSignal;
    const char* base = role == TraceRole::kGround ? "gnd" : "sig";
    traces.push_back(
        {role, widths[i], x + 0.5 * widths[i], base + std::to_string(i)});
    x += widths[i];
  }
  const double mid = 0.5 * x;
  for (Trace& t : traces) t.x_center -= mid;
  return Block(&tech, layer, length, std::move(traces), planes);
}

Block uniform_array(const Technology& tech, int layer, double length,
                    std::size_t n, double width, double spacing,
                    PlaneConfig planes) {
  if (n == 0) throw std::invalid_argument("array needs traces");
  std::vector<Trace> traces;
  const double pitch = width + spacing;
  const double x0 = -0.5 * static_cast<double>(n - 1) * pitch;
  for (std::size_t i = 0; i < n; ++i) {
    traces.push_back({TraceRole::kSignal, width,
                      x0 + static_cast<double>(i) * pitch,
                      std::string("t").append(std::to_string(i + 1))});
  }
  return Block(&tech, layer, length, std::move(traces), planes);
}

}  // namespace rlcx::geom
