// Vectorization-friendly primitive kernels shared by the hot analysis
// paths (ECDF/KS scans, TBF deltas, index gathers).
//
// Each kernel restructures a loop that used to live inline in one
// consumer — push_back accumulation, branchy merges — into a branch-light
// pass over contiguous slices that the auto-vectorizer can handle, while
// producing bit-identical doubles: every arithmetic operation happens in
// the same order with the same operands as the scalar loop it replaced,
// so the golden report snapshots and the differential oracle's ULP tiers
// stay green.
// bench_perf_kernels reports single-core elements/s for each.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace tsufail::stats {

/// out[i] = values[i + 1] - values[i] for i in [0, n - 1); empty for
/// n < 2.  The TBF inner loop (gaps between consecutive failure hours),
/// as one indexed store per element instead of a push_back.
std::vector<double> adjacent_deltas(std::span<const double> values);

/// out[i] = values[indices[i]].  The index-gather behind hours_of /
/// ttr_of.  Precondition: every index is in range (callers index
/// validated position spans).
std::vector<double> gather(std::span<const double> values,
                           std::span<const std::uint32_t> indices);

/// Kolmogorov-Smirnov distance sup_x |F_a(x) - F_b(x)| between the
/// empirical CDFs of two ascending-sorted samples, via one linear merge
/// sweep (O(n + m)) instead of per-point binary searches
/// (O(n log n + m log m)).  Each step distance is computed as
/// |i/n - j/m| with the same integer-to-double divisions the
/// evaluate()-based scan performed, so the result is bit-identical.
/// Returns 0.0 if either sample is empty.  Preconditions: both sorted.
double ks_distance_sorted(std::span<const double> a, std::span<const double> b);

}  // namespace tsufail::stats
