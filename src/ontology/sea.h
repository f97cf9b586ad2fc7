// Similarity enhancement of a hierarchy: algorithm SEA (paper Fig. 12,
// Defs. 8-9, Theorems 1-2).
//
// Given a (fused) hierarchy H, a similarity measure d, and a threshold
// epsilon, SEA groups nodes whose pairwise distance is <= epsilon. Def. 8's
// conditions (2)-(4) pin the grouped node set down uniquely (Theorem 1): it
// is exactly the set of *maximal cliques* of the epsilon-similarity graph
// over H's nodes. We enumerate those with Bron-Kerbosch (pivoting), define
// mu as clique membership, rebuild the order (an enhanced edge A' -> B' is
// added when some preimage pair is strictly ordered in H), transitively
// reduce, and reject cyclic results as *similarity inconsistent* (Def. 9).
//
// `strict` mode additionally verifies Def. 8 condition (1)'s converse --
// every enhanced path must be backed by paths between *all* preimage pairs
// -- rejecting enhancements the paper's acyclicity-only check would accept.
//
// Performance: the O(|S|^2) pairwise scan runs through the
// sim::PairwiseNodeDistances driver (admission filters + shared worker
// pool; deterministic); the epsilon-graph is packed uint64_t rows (the
// same representation as Hierarchy's closure cache) and the clique
// enumerator, order rebuild, and strict check all operate word-parallel on
// those rows. SimilaritySweep amortizes the scan across an epsilon sweep:
// the matrix is computed once at the sweep's max epsilon and each
// epsilon's enhancement is derived by thresholding, byte-identical to an
// independent SimilarityEnhance call.

#ifndef TOSS_ONTOLOGY_SEA_H_
#define TOSS_ONTOLOGY_SEA_H_

#include <vector>

#include "common/result.h"
#include "ontology/hierarchy.h"
#include "sim/pairwise.h"
#include "sim/string_measure.h"

namespace toss::obs {
class Span;
}  // namespace toss::obs

namespace toss::ontology {

/// The pair (H', mu) of Def. 8.
struct SimilarityEnhancement {
  Hierarchy enhanced;
  /// mu[v] = enhanced nodes that original node v belongs to (non-empty,
  /// ascending).
  std::vector<std::vector<HNodeId>> mu;

  /// Preimage mu^{-1}: original nodes mapped into enhanced node `e`,
  /// ascending. Backed by an inverted index built lazily from `mu` on
  /// first call (call BuildPreimageIndex() first when sharing a frozen
  /// enhancement across threads).
  const std::vector<HNodeId>& Preimage(HNodeId e) const;

  /// Builds (or rebuilds, after `mu` changed) the inverted preimage
  /// index. Idempotent.
  void BuildPreimageIndex() const;

 private:
  mutable std::vector<std::vector<HNodeId>> preimage_;
  mutable bool preimage_valid_ = false;
};

struct SeaOptions {
  /// Verify Def. 8 condition (1) fully instead of the paper's
  /// acyclicity-only check (see file comment).
  bool strict = false;

  /// Apply DistanceLowerBound admission filters in the pairwise scan.
  bool use_filters = true;

  /// Fan the pairwise scan out over toss::Scheduler::Global(). The result
  /// is bit-identical to the sequential scan either way.
  bool parallel = true;

  /// Optional parent trace span: when set (and enabled), SEA records
  /// per-phase child spans -- pairwise_matrix, epsilon_graph,
  /// clique_enumeration, order_rebuild -- under it. The `ontology.sea.*`
  /// registry metrics are recorded regardless. Not owned; must outlive the
  /// call.
  obs::Span* trace = nullptr;
};

/// Runs SEA. Returns Status::Inconsistent when (H, d, epsilon) is similarity
/// inconsistent.
Result<SimilarityEnhancement> SimilarityEnhance(
    const Hierarchy& h, const sim::StringMeasure& d, double epsilon,
    const SeaOptions& options = {});

/// Def. 9 predicate.
bool IsSimilarityConsistent(const Hierarchy& h, const sim::StringMeasure& d,
                            double epsilon);

/// Compute-once epsilon sweeps: the exact pairwise node-distance matrix is
/// computed a single time, bounded at `max_epsilon`, and Enhance(epsilon)
/// derives each threshold's enhancement from it. Enhance(e) is
/// byte-identical to SimilarityEnhance(h, d, e, options) for every
/// e <= max_epsilon, including the similarity-inconsistent rejections.
class SimilaritySweep {
 public:
  /// Computes the distance matrix (the only expensive step). The sweep
  /// keeps its own copy of `h`; `d` must outlive the sweep.
  static Result<SimilaritySweep> Create(const Hierarchy& h,
                                        const sim::StringMeasure& d,
                                        double max_epsilon,
                                        const SeaOptions& options = {});

  /// SEA at `epsilon` (<= max_epsilon) by thresholding the shared matrix.
  Result<SimilarityEnhancement> Enhance(double epsilon) const;

  double max_epsilon() const { return max_epsilon_; }
  const sim::DistanceMatrix& distances() const { return distances_; }
  const Hierarchy& hierarchy() const { return hierarchy_; }

 private:
  SimilaritySweep() = default;

  Hierarchy hierarchy_;
  sim::DistanceMatrix distances_;
  double max_epsilon_ = 0.0;
  SeaOptions options_;
};

/// Checks all four Def. 8 conditions of `e` against (h, d, epsilon);
/// returns the first violation found. Used by property tests (Theorem 2).
/// Distances are evaluated with the bounded measure form (only the
/// <= epsilon predicate is needed); pass `distances` (as computed by
/// SimilaritySweep at max_epsilon >= epsilon) to skip recomputation
/// entirely.
Status VerifyEnhancement(const Hierarchy& h, const sim::StringMeasure& d,
                         double epsilon, const SimilarityEnhancement& e,
                         const sim::DistanceMatrix* distances = nullptr);

}  // namespace toss::ontology

#endif  // TOSS_ONTOLOGY_SEA_H_
