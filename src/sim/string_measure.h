// String similarity measures (paper Def. 7).
//
// A string similarity measure d_s maps a pair of strings to a non-negative
// real with d_s(X,X)=0 and d_s(X,Y)=d_s(Y,X). It is *strong* when it also
// satisfies the triangle inequality. Strongness matters: Lemma 1 lets
// node-level distances be computed from a single representative pair when
// the measure is strong.
//
// Distances here follow the paper's convention (0 = identical, larger = less
// similar) so that the SEA threshold ε=2 / ε=3 experiments read exactly like
// Section 6. Similarity-valued methods from the IR literature (Jaro,
// Monge-Elkan, Jaccard, cosine) are exposed as scaled distances
// (1 - similarity) * scale so they share a threshold axis with Levenshtein.

#ifndef TOSS_SIM_STRING_MEASURE_H_
#define TOSS_SIM_STRING_MEASURE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace toss::sim {

/// O(1)-comparable summary of a string used for admission filtering in the
/// pairwise drivers: its length plus a 64-bucket character-presence bitmap.
/// Computed once per string (O(|s|)), compared in a handful of instructions
/// per pair -- unlike DistanceLowerBound, whose per-pair O(|a|+|b|) cost
/// rivals the banded DP it would be guarding on short strings.
struct StringSignature {
  uint32_t length = 0;
  uint64_t charmask = 0;
};

/// Abstract string similarity measure.
class StringMeasure {
 public:
  virtual ~StringMeasure() = default;

  /// Distance between two strings; >= 0, symmetric, d(x,x)=0.
  virtual double Distance(std::string_view a, std::string_view b) const = 0;

  /// Distance, with permission to return any value > `bound` as soon as the
  /// true distance is known to exceed `bound`. Default: exact distance.
  /// SEA calls this in its O(|S|^2) pair scan.
  virtual double BoundedDistance(std::string_view a, std::string_view b,
                                 double bound) const {
    (void)bound;
    return Distance(a, b);
  }

  /// Cheap admission filter: a lower bound on Distance(a, b) computable in
  /// O(|a| + |b|) without running the full measure. The pairwise drivers
  /// skip the exact computation for pairs whose lower bound already
  /// exceeds the threshold. Must never exceed the true distance; the
  /// default (0, no information) makes filtering a no-op.
  virtual double DistanceLowerBound(std::string_view a,
                                    std::string_view b) const {
    (void)a;
    (void)b;
    return 0.0;
  }

  /// Fills `sig` with this measure's signature of `s` and returns true when
  /// the measure supports signature-based filtering (SignatureLowerBound).
  /// Default: unsupported.
  virtual bool ComputeSignature(std::string_view s,
                                StringSignature* sig) const {
    (void)s;
    (void)sig;
    return false;
  }

  /// Lower bound on Distance(a, b) from the strings' signatures alone, in
  /// O(1). Only meaningful when ComputeSignature returns true; must never
  /// exceed the true distance, and must be 0 for equal strings (equal
  /// strings have equal signatures, but not conversely -- implementations
  /// may not assume signature equality implies string equality).
  ///
  /// Signature-length rule: every signature-capable measure returns a value
  /// >= |a.length - b.length|. The twig value filter's closure kernel
  /// (core::SeoSimilarOracle::FreePairs) sorts terms by signature length
  /// and never examines pairs more than epsilon apart, so a measure that
  /// breaks this rule must not compute signatures.
  virtual double SignatureLowerBound(const StringSignature& a,
                                     const StringSignature& b) const {
    (void)a;
    (void)b;
    return 0.0;
  }

  /// True when the measure satisfies the triangle inequality.
  virtual bool is_strong() const = 0;

  /// Registry name, e.g. "levenshtein".
  virtual std::string name() const = 0;
};

using StringMeasurePtr = std::shared_ptr<const StringMeasure>;

// ---------------------------------------------------------------------------
// Edit-distance family
// ---------------------------------------------------------------------------

/// Unit-cost Levenshtein edit distance. Strong (it is a metric).
class LevenshteinMeasure : public StringMeasure {
 public:
  double Distance(std::string_view a, std::string_view b) const override;
  double BoundedDistance(std::string_view a, std::string_view b,
                         double bound) const override;
  double DistanceLowerBound(std::string_view a,
                            std::string_view b) const override;
  bool ComputeSignature(std::string_view s,
                        StringSignature* sig) const override;
  double SignatureLowerBound(const StringSignature& a,
                             const StringSignature& b) const override;
  bool is_strong() const override { return true; }
  std::string name() const override { return "levenshtein"; }
};

/// Damerau-Levenshtein (restricted transpositions). Strong.
class DamerauLevenshteinMeasure : public StringMeasure {
 public:
  double Distance(std::string_view a, std::string_view b) const override;
  double DistanceLowerBound(std::string_view a,
                            std::string_view b) const override;
  bool ComputeSignature(std::string_view s,
                        StringSignature* sig) const override;
  double SignatureLowerBound(const StringSignature& a,
                             const StringSignature& b) const override;
  bool is_strong() const override { return true; }
  std::string name() const override { return "damerau"; }
};

/// Case-insensitive Levenshtein: strings are lowercased before comparison.
/// Strong (pseudo-metric: distinct strings can be at distance 0).
class CaseInsensitiveLevenshteinMeasure : public StringMeasure {
 public:
  double Distance(std::string_view a, std::string_view b) const override;
  double DistanceLowerBound(std::string_view a,
                            std::string_view b) const override;
  bool ComputeSignature(std::string_view s,
                        StringSignature* sig) const override;
  double SignatureLowerBound(const StringSignature& a,
                             const StringSignature& b) const override;
  bool is_strong() const override { return true; }
  std::string name() const override { return "ci-levenshtein"; }
};

// ---------------------------------------------------------------------------
// Jaro family [9]
// ---------------------------------------------------------------------------

/// Jaro similarity in [0,1] (1 = identical).
double JaroSimilarity(std::string_view a, std::string_view b);

/// Jaro-Winkler similarity in [0,1] with the standard 0.1 prefix boost.
double JaroWinklerSimilarity(std::string_view a, std::string_view b);

/// Distance (1 - Jaro) * scale. Not strong.
class JaroMeasure : public StringMeasure {
 public:
  explicit JaroMeasure(double scale = 10.0) : scale_(scale) {}
  double Distance(std::string_view a, std::string_view b) const override;
  bool is_strong() const override { return false; }
  std::string name() const override { return "jaro"; }

 private:
  double scale_;
};

/// Distance (1 - JaroWinkler) * scale. Not strong.
class JaroWinklerMeasure : public StringMeasure {
 public:
  explicit JaroWinklerMeasure(double scale = 10.0) : scale_(scale) {}
  double Distance(std::string_view a, std::string_view b) const override;
  bool is_strong() const override { return false; }
  std::string name() const override { return "jaro-winkler"; }

 private:
  double scale_;
};

// ---------------------------------------------------------------------------
// Token-based measures [5, 12]
// ---------------------------------------------------------------------------

/// Monge-Elkan: average over tokens of `a` of the best inner similarity to a
/// token of `b`, symmetrized by taking the max of both directions. Inner
/// similarity is Jaro-Winkler. Distance = (1 - ME) * scale. Not strong.
class MongeElkanMeasure : public StringMeasure {
 public:
  explicit MongeElkanMeasure(double scale = 10.0) : scale_(scale) {}
  double Distance(std::string_view a, std::string_view b) const override;
  bool is_strong() const override { return false; }
  std::string name() const override { return "monge-elkan"; }

 private:
  double scale_;
};

/// Jaccard distance over word-token sets: (1 - |A∩B|/|A∪B|) * scale.
/// Strong (Jaccard distance is a metric on sets).
class JaccardMeasure : public StringMeasure {
 public:
  explicit JaccardMeasure(double scale = 10.0) : scale_(scale) {}
  double Distance(std::string_view a, std::string_view b) const override;
  bool is_strong() const override { return true; }
  std::string name() const override { return "jaccard"; }

 private:
  double scale_;
};

/// Cosine distance over q-gram count vectors: (1 - cos) * scale. Not strong
/// (cosine distance violates the triangle inequality in general).
class QGramCosineMeasure : public StringMeasure {
 public:
  explicit QGramCosineMeasure(int q = 3, double scale = 10.0)
      : q_(q), scale_(scale) {}
  double Distance(std::string_view a, std::string_view b) const override;
  bool is_strong() const override { return false; }
  std::string name() const override { return "qgram-cosine"; }

 private:
  int q_;
  double scale_;
};

// ---------------------------------------------------------------------------
// Rule-based person-name measure (the paper's "rule-based similarity where
// a set of domain-specific rules are used")
// ---------------------------------------------------------------------------

/// Domain-specific distance for person names such as "J. Ullman" /
/// "Jeffrey D. Ullman" / "GianLuigi Ferrari":
///   0.0  identical after normalization
///   0.5  same last name + given names compatible as initials/prefixes,
///        or identical ignoring spacing ("Gian Luigi" vs "GianLuigi")
///   2.0  same last name + given-name initials match
///   3.5  same last name only
///   else Levenshtein distance capped below by 4
/// Not strong.
class PersonNameMeasure : public StringMeasure {
 public:
  double Distance(std::string_view a, std::string_view b) const override;
  bool is_strong() const override { return false; }
  std::string name() const override { return "person-name"; }
};

// ---------------------------------------------------------------------------
// Combinators
// ---------------------------------------------------------------------------

/// Domain rule: very short strings (acronyms -- "VLDB", "ICDE", "KDD")
/// should never fuzzy-match, because a 3-edit threshold rewrites one
/// acronym into another. Wraps an inner measure and raises the distance of
/// any unequal pair involving a string shorter than `min_length` to at
/// least `floor`. Not strong even if the inner measure is (the floor can
/// break the triangle inequality through a long middle string).
class MinLengthGuardMeasure : public StringMeasure {
 public:
  explicit MinLengthGuardMeasure(StringMeasurePtr inner,
                                 size_t min_length = 6, double floor = 4.0)
      : inner_(std::move(inner)),
        min_length_(min_length),
        floor_(floor) {}

  double Distance(std::string_view a, std::string_view b) const override;
  double BoundedDistance(std::string_view a, std::string_view b,
                         double bound) const override;
  double DistanceLowerBound(std::string_view a,
                            std::string_view b) const override;
  bool ComputeSignature(std::string_view s,
                        StringSignature* sig) const override;
  double SignatureLowerBound(const StringSignature& a,
                             const StringSignature& b) const override;
  bool is_strong() const override { return false; }
  std::string name() const override {
    return "guarded-" + inner_->name();
  }

 private:
  StringMeasurePtr inner_;
  size_t min_length_;
  double floor_;
};

namespace internal {

/// Two-row dynamic-programming Levenshtein -- the reference implementation.
/// O(|a| * |b|) time. Exposed for property tests against the bit-parallel
/// path.
int LevenshteinDp(std::string_view a, std::string_view b);

/// Myers' bit-parallel Levenshtein (Hyyrö's formulation): the DP column is
/// packed into two 64-bit delta bitvectors, so one iteration per character
/// of the longer string replaces an inner loop over the shorter one --
/// O(|longer|) word operations total. Requires min(|a|, |b|) <= 64; equal
/// to LevenshteinDp on that domain (property-tested).
int LevenshteinMyers64(std::string_view a, std::string_view b);

/// Blocked (multi-word) Myers: the DP column spans ceil(|shorter| / 64)
/// word blocks with the horizontal deltas and the add carry chained
/// across block boundaries, so strings past the single-word fast path
/// still run at O(|longer| * |shorter| / 64) word operations instead of
/// falling back to the scalar DP. Any lengths; equal to LevenshteinDp
/// (property-tested).
int LevenshteinMyersBlocked(std::string_view a, std::string_view b);

}  // namespace internal

}  // namespace toss::sim

#endif  // TOSS_SIM_STRING_MEASURE_H_
