// Simulated waveforms and the measurements the paper reports: 50 % delay
// and overshoot/undershoot (clocktree::analyze_skew measures skew).
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace rlcx::ckt {

/// A uniformly-sampled signal from the transient simulator.
class Waveform {
 public:
  Waveform() = default;
  Waveform(double dt, std::vector<double> samples);

  double dt() const { return dt_; }
  std::size_t size() const { return samples_.size(); }
  double time(std::size_t i) const { return dt_ * static_cast<double>(i); }
  double sample(std::size_t i) const { return samples_.at(i); }
  const std::vector<double>& samples() const { return samples_; }

  /// Linear interpolation at time t (clamped to the simulated range).
  double value_at(double t) const;

  /// First time the waveform rises through `level` (linear interpolation);
  /// nullopt if it never does.
  std::optional<double> first_rise_through(double level) const;

  double max() const;
  double min() const;

  /// Undershoot below 0 (positive magnitude, 0 if none).
  double undershoot() const;

 private:
  double dt_ = 0.0;
  std::vector<double> samples_;
};

/// 50 %-of-swing delay from a reference waveform (e.g. buffer output) to a
/// sink waveform, as in the paper's Figures 2-3 (28.01 ps vs 47.6 ps).
/// Throws if either waveform never crosses the threshold.
double delay_50(const Waveform& from, const Waveform& to, double swing);

/// Dump waveforms as CSV ("time,<name1>,<name2>,..."), one row per sample
/// of the first waveform; all waveforms must share dt and length.
void write_csv(std::ostream& os,
               const std::vector<std::pair<std::string, Waveform>>& waves);

}  // namespace rlcx::ckt
