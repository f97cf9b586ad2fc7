// Pairwise-distance driver for the SEA pipeline's O(|S|^2) scan.
//
// SEA (and anything else that needs an epsilon-similarity graph) used to
// call BoundedNodeDistance in a hand-rolled double loop. This driver owns
// that scan and makes it fast three ways:
//   1. admission filters -- StringMeasure signatures (length + 64-bucket
//      character bitmap, computed once per term) give an O(1) per-pair
//      lower bound (length difference + presence-set symmetric difference
//      for the edit family); pairs provably over the bound skip the DP.
//      StringMeasure::DistanceLowerBound is the exact-count sibling of the
//      same bound for one-off use;
//   2. parallel fan-out -- rows are distributed over the process-wide
//      toss::Scheduler; every task writes distinct pair slots, so the
//      parallel result is bit-for-bit identical to the sequential one;
//   3. canonical over-bound values -- any distance > bound is stored as
//      +infinity, so filtered / unfiltered / parallel / sequential runs
//      produce byte-identical matrices and thresholding at any epsilon <=
//      bound is exact.
//
// The condensed DistanceMatrix it returns is also the reuse vehicle for
// epsilon sweeps: compute once at the sweep's max epsilon, threshold per
// epsilon (ontology::SimilaritySweep).

#ifndef TOSS_SIM_PAIRWISE_H_
#define TOSS_SIM_PAIRWISE_H_

#include <limits>
#include <string>
#include <vector>

#include "sim/string_measure.h"

namespace toss::sim {

/// Symmetric pairwise distance matrix over n items, stored as the
/// condensed upper triangle (n*(n-1)/2 doubles; the diagonal is 0).
class DistanceMatrix {
 public:
  /// Canonical marker for "greater than the bound the matrix was computed
  /// at": the driver stores +infinity instead of whatever over-bound value
  /// the measure returned, making runs byte-comparable.
  static constexpr double kOverBound =
      std::numeric_limits<double>::infinity();

  DistanceMatrix() = default;
  explicit DistanceMatrix(size_t n)
      : n_(n), d_(n < 2 ? 0 : n * (n - 1) / 2, 0.0) {}

  size_t size() const { return n_; }

  /// d(i, j); 0 on the diagonal. Requires i, j < size().
  double at(size_t i, size_t j) const {
    if (i == j) return 0.0;
    return d_[Index(i, j)];
  }

  void set(size_t i, size_t j, double v) { d_[Index(i, j)] = v; }

  /// Calls fn(i, j) for every pair i < j with d(i, j) <= bound, in
  /// row-major order. One linear pass over the condensed triangle -- the
  /// fast way to build a thresholded graph from the matrix.
  template <typename Fn>
  void ForEachAtMost(double bound, const Fn& fn) const {
    size_t k = 0;
    for (size_t i = 0; i + 1 < n_; ++i) {
      for (size_t j = i + 1; j < n_; ++j, ++k) {
        if (d_[k] <= bound) fn(i, j);
      }
    }
  }

  bool operator==(const DistanceMatrix& o) const {
    return n_ == o.n_ && d_ == o.d_;
  }

 private:
  size_t Index(size_t i, size_t j) const {
    if (i > j) std::swap(i, j);
    // Row-major upper triangle: row i holds n-1-i entries.
    return i * (2 * n_ - i - 1) / 2 + (j - i - 1);
  }

  size_t n_ = 0;
  std::vector<double> d_;
};

struct PairwiseOptions {
  /// Distances above this are stored as DistanceMatrix::kOverBound; the
  /// measure's BoundedDistance may stop early past it. Default: exact
  /// distances everywhere.
  double bound = std::numeric_limits<double>::infinity();

  /// Apply signature admission filters before the exact measure (no-op for
  /// measures without ComputeSignature support).
  bool use_filters = true;

  /// Fan rows out over toss::Scheduler::Global(). Output is bit-identical
  /// to the sequential scan (each pair's slot is written exactly once).
  bool parallel = true;

  /// Below this many items the scan runs inline even with parallel set
  /// (fan-out overhead beats the work).
  size_t min_parallel_items = 128;

  /// Node-level only: assume within-node distances are 0 (the SEO
  /// invariant), enabling the Lemma-1 single-pair fast path for strong
  /// measures.
  bool assume_zero_within = false;
};

/// All pairwise node distances (min over cross term pairs, see
/// sim::BoundedNodeDistance) among `nodes`. Entries of `nodes` must stay
/// alive for the duration of the call.
DistanceMatrix PairwiseNodeDistances(
    const std::vector<const std::vector<std::string>*>& nodes,
    const StringMeasure& measure, const PairwiseOptions& options = {});

/// All pairwise string distances among `terms`.
DistanceMatrix PairwiseStringDistances(const std::vector<std::string>& terms,
                                       const StringMeasure& measure,
                                       const PairwiseOptions& options = {});

}  // namespace toss::sim

#endif  // TOSS_SIM_PAIRWISE_H_
