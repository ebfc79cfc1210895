#include "core/rlc_extractor.h"

#include "cap/models.h"

namespace rlcx::core {

SegmentRlc extract_segment_rlc(const geom::Block& block,
                               const InductanceProvider& inductance,
                               const ExtractOptions& options) {
  SegmentRlc seg;
  seg.length = block.length();
  seg.kind = table_kind_for(block.planes());

  const double rho = block.layer().rho;
  const double t = block.layer().thickness;
  const std::size_t n = block.size();

  for (std::size_t i = 0; i < n; ++i) {
    double r = -1.0;
    if (options.ac_resistance)
      r = inductance.series_resistance(block.trace(i).width, block.length());
    if (r < 0.0)
      r = cap::segment_resistance(block.trace(i).width, t, block.length(),
                                  rho);
    seg.resistance.push_back(r);
  }

  // Inductance rows: all traces in partial mode (PEEC netlist), signals
  // only in loop mode (returns are folded into the loop values).
  if (seg.kind == TableKind::kPartial) {
    seg.l_traces.resize(n);
    for (std::size_t i = 0; i < n; ++i) seg.l_traces[i] = i;
  } else {
    seg.l_traces = block.signal_indices();
  }
  const std::size_t nl = seg.l_traces.size();
  seg.inductance = RealMatrix(nl, nl);
  for (std::size_t a = 0; a < nl; ++a) {
    const geom::Trace& ta = block.trace(seg.l_traces[a]);
    seg.inductance(a, a) = inductance.self(ta.width, block.length());
    for (std::size_t b = a + 1; b < nl; ++b) {
      const geom::Trace& tb = block.trace(seg.l_traces[b]);
      const double m = inductance.mutual(
          ta.width, tb.width, block.spacing(seg.l_traces[a], seg.l_traces[b]),
          block.length());
      seg.inductance(a, b) = m;
      seg.inductance(b, a) = m;
    }
  }

  const cap::CapResult c = cap::extract_cap(block);
  for (std::size_t i = 0; i < n; ++i)
    seg.cap_ground.push_back(c.cg[i] * block.length());
  for (std::size_t i = 0; i + 1 < n; ++i)
    seg.cap_coupling.push_back(c.cc[i] * block.length());
  return seg;
}

}  // namespace rlcx::core
