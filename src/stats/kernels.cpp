#include "stats/kernels.h"

#include <cassert>
#include <cmath>

namespace tsufail::stats {

std::vector<double> adjacent_deltas(std::span<const double> values) {
  if (values.size() < 2) return {};
  std::vector<double> deltas(values.size() - 1);
  for (std::size_t i = 0; i < deltas.size(); ++i) deltas[i] = values[i + 1] - values[i];
  return deltas;
}

std::vector<double> gather(std::span<const double> values,
                           std::span<const std::uint32_t> indices) {
  std::vector<double> out(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    assert(indices[i] < values.size() && "gather: index out of range");
    out[i] = values[indices[i]];
  }
  return out;
}

double ks_distance_sorted(std::span<const double> a, std::span<const double> b) {
  if (a.empty() || b.empty()) return 0.0;
  const auto n = static_cast<double>(a.size());
  const auto m = static_cast<double>(b.size());
  double worst = 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    const double x = (j >= b.size() || (i < a.size() && a[i] <= b[j])) ? a[i] : b[j];
    while (i < a.size() && a[i] <= x) ++i;
    while (j < b.size() && b[j] <= x) ++j;
    const double diff = std::abs(static_cast<double>(i) / n - static_cast<double>(j) / m);
    if (diff > worst) worst = diff;
  }
  return worst;
}

}  // namespace tsufail::stats
