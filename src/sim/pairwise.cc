#include "sim/pairwise.h"

#include "common/scheduler.h"
#include "obs/metrics.h"
#include "sim/node_measure.h"

namespace toss::sim {

namespace {

/// Admission-filter effectiveness counters. `pairs_filtered` pairs were
/// rejected by a signature lower bound alone; `pairs_computed` needed the
/// exact bounded distance. Tallied per row and flushed once per row so the
/// per-pair cost stays a local integer increment.
struct PairwiseMetrics {
  obs::Counter& pairs_filtered =
      obs::Metrics().GetCounter("sim.pairwise.pairs_filtered");
  obs::Counter& pairs_computed =
      obs::Metrics().GetCounter("sim.pairwise.pairs_computed");
};

PairwiseMetrics& Instruments() {
  static PairwiseMetrics* m = new PairwiseMetrics();
  return *m;
}

/// Precomputed per-term signatures for a set of nodes, flattened. When the
/// measure does not support signatures, `enabled` is false and filtering
/// degrades to a no-op (a single branch per pair).
struct SignatureIndex {
  bool enabled = false;
  std::vector<StringSignature> sigs;  // term signatures, node-major
  std::vector<uint32_t> offsets;      // node i's terms: [offsets[i], offsets[i+1])

  template <typename TermsOf>
  SignatureIndex(size_t n, const StringMeasure& measure,
                 const TermsOf& terms_of, bool want) {
    if (!want) return;
    offsets.reserve(n + 1);
    offsets.push_back(0);
    enabled = true;
    for (size_t i = 0; i < n && enabled; ++i) {
      for (const std::string& t : terms_of(i)) {
        StringSignature sig;
        if (!measure.ComputeSignature(t, &sig)) {
          enabled = false;
          break;
        }
        sigs.push_back(sig);
      }
      offsets.push_back(static_cast<uint32_t>(sigs.size()));
    }
  }

  /// Lower bound on the node distance: the node distance is a min over
  /// cross pairs, so the bound is the min of the per-pair bounds. Mirrors
  /// BoundedNodeDistance's Lemma-1 fast path so the filter inspects
  /// exactly the pairs the exact computation would.
  double NodeLowerBound(size_t i, size_t j, const StringMeasure& measure,
                        bool assume_zero_within) const {
    const uint32_t ib = offsets[i], ie = offsets[i + 1];
    const uint32_t jb = offsets[j], je = offsets[j + 1];
    if (ib == ie || jb == je) {
      return std::numeric_limits<double>::infinity();
    }
    if (measure.is_strong() && assume_zero_within) {
      return measure.SignatureLowerBound(sigs[ib], sigs[jb]);
    }
    double best = std::numeric_limits<double>::infinity();
    for (uint32_t x = ib; x < ie; ++x) {
      for (uint32_t y = jb; y < je; ++y) {
        best = std::min(best, measure.SignatureLowerBound(sigs[x], sigs[y]));
        if (best == 0.0) return 0.0;
      }
    }
    return best;
  }
};

/// Runs `row(i)` for every i in [0, n), inline or over the scheduler.
/// Tasks only write disjoint slots, so both paths yield identical output.
template <typename RowFn>
void Drive(size_t n, const PairwiseOptions& options, const RowFn& row) {
  if (options.parallel && n >= options.min_parallel_items) {
    // Tasks never fail; the Status plumbing exists for the scheduler's sake.
    (void)Scheduler::Global().ParallelFor(n, [&](size_t i) {
      row(i);
      return Status::OK();
    });
    return;
  }
  for (size_t i = 0; i < n; ++i) row(i);
}

}  // namespace

DistanceMatrix PairwiseNodeDistances(
    const std::vector<const std::vector<std::string>*>& nodes,
    const StringMeasure& measure, const PairwiseOptions& options) {
  const size_t n = nodes.size();
  DistanceMatrix dm(n);
  const SignatureIndex index(
      n, measure, [&](size_t i) -> const std::vector<std::string>& {
        return *nodes[i];
      },
      options.use_filters);
  Drive(n, options, [&](size_t i) {
    uint64_t filtered_row = 0, computed_row = 0;
    for (size_t j = i + 1; j < n; ++j) {
      double d;
      if (index.enabled &&
          index.NodeLowerBound(i, j, measure, options.assume_zero_within) >
              options.bound) {
        d = DistanceMatrix::kOverBound;
        ++filtered_row;
      } else {
        d = BoundedNodeDistance(*nodes[i], *nodes[j], measure, options.bound,
                                options.assume_zero_within);
        if (!(d <= options.bound)) d = DistanceMatrix::kOverBound;
        ++computed_row;
      }
      dm.set(i, j, d);
    }
    PairwiseMetrics& m = Instruments();
    if (filtered_row > 0) m.pairs_filtered.Add(filtered_row);
    if (computed_row > 0) m.pairs_computed.Add(computed_row);
  });
  return dm;
}

DistanceMatrix PairwiseStringDistances(const std::vector<std::string>& terms,
                                       const StringMeasure& measure,
                                       const PairwiseOptions& options) {
  const size_t n = terms.size();
  DistanceMatrix dm(n);
  std::vector<StringSignature> sigs;
  bool filtered = options.use_filters;
  if (filtered) {
    sigs.resize(n);
    for (size_t i = 0; i < n && filtered; ++i) {
      filtered = measure.ComputeSignature(terms[i], &sigs[i]);
    }
  }
  Drive(n, options, [&](size_t i) {
    uint64_t filtered_row = 0, computed_row = 0;
    for (size_t j = i + 1; j < n; ++j) {
      double d;
      if (filtered &&
          measure.SignatureLowerBound(sigs[i], sigs[j]) > options.bound) {
        d = DistanceMatrix::kOverBound;
        ++filtered_row;
      } else {
        d = measure.BoundedDistance(terms[i], terms[j], options.bound);
        if (!(d <= options.bound)) d = DistanceMatrix::kOverBound;
        ++computed_row;
      }
      dm.set(i, j, d);
    }
    PairwiseMetrics& m = Instruments();
    if (filtered_row > 0) m.pairs_filtered.Add(filtered_row);
    if (computed_row > 0) m.pairs_computed.Add(computed_row);
  });
  return dm;
}

}  // namespace toss::sim
