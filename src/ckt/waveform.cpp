#include "ckt/waveform.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>

namespace rlcx::ckt {

Waveform::Waveform(double dt, std::vector<double> samples)
    : dt_(dt), samples_(std::move(samples)) {
  if (dt_ <= 0.0) throw std::invalid_argument("waveform: dt");
  if (samples_.empty()) throw std::invalid_argument("waveform: empty");
}

double Waveform::value_at(double t) const {
  if (samples_.empty()) return 0.0;
  const double idx = t / dt_;
  if (idx <= 0.0) return samples_.front();
  const auto lo = static_cast<std::size_t>(idx);
  if (lo + 1 >= samples_.size()) return samples_.back();
  const double f = idx - static_cast<double>(lo);
  return samples_[lo] * (1.0 - f) + samples_[lo + 1] * f;
}

std::optional<double> Waveform::first_rise_through(double level) const {
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    if (samples_[i - 1] < level && samples_[i] >= level) {
      const double f =
          (level - samples_[i - 1]) / (samples_[i] - samples_[i - 1]);
      return dt_ * (static_cast<double>(i - 1) + f);
    }
  }
  return std::nullopt;
}

double Waveform::max() const {
  return *std::max_element(samples_.begin(), samples_.end());
}

double Waveform::min() const {
  return *std::min_element(samples_.begin(), samples_.end());
}

double Waveform::undershoot() const {
  const double trough = min();
  return trough < 0.0 ? -trough : 0.0;
}

double delay_50(const Waveform& from, const Waveform& to, double swing) {
  if (swing <= 0.0) throw std::invalid_argument("delay_50: swing");
  const auto t0 = from.first_rise_through(0.5 * swing);
  const auto t1 = to.first_rise_through(0.5 * swing);
  if (!t0 || !t1)
    throw std::runtime_error("delay_50: waveform never crosses 50%");
  return *t1 - *t0;
}

double skew_50(const Waveform& from, const std::vector<Waveform>& sinks,
               double swing) {
  if (sinks.empty()) throw std::invalid_argument("skew_50: no sinks");
  double lo = 0.0, hi = 0.0;
  bool first = true;
  for (const Waveform& s : sinks) {
    const double d = delay_50(from, s, swing);
    if (first) {
      lo = hi = d;
      first = false;
    } else {
      lo = std::min(lo, d);
      hi = std::max(hi, d);
    }
  }
  return hi - lo;
}

void write_csv(std::ostream& os,
               const std::vector<std::pair<std::string, Waveform>>& waves) {
  if (waves.empty()) throw std::invalid_argument("write_csv: no waveforms");
  const Waveform& first = waves.front().second;
  for (const auto& [name, w] : waves) {
    if (w.dt() != first.dt() || w.size() != first.size())
      throw std::invalid_argument("write_csv: mismatched waveforms");
  }
  os << "time";
  for (const auto& [name, w] : waves) os << "," << name;
  os << "\n";
  os.precision(9);
  for (std::size_t i = 0; i < first.size(); ++i) {
    os << first.time(i);
    for (const auto& [name, w] : waves) os << "," << w.sample(i);
    os << "\n";
  }
}

}  // namespace rlcx::ckt
