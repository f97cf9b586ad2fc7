// The TOSS similarity oracle for the structural (twig) join: Seo::Similar's
// verdict with per-term state memoized, plus a batch kernel for the twig
// value filter's compatibility closure.
//
// One oracle lives as long as the QueryExecutor that owns it, i.e. as long
// as one frozen SEO (TossService::SwapSeo builds a new executor), so the
// per-term preparation is paid once per distinct term across all joins
// rather than once per join.

#ifndef TOSS_CORE_SEO_ORACLE_H_
#define TOSS_CORE_SEO_ORACLE_H_

#include <deque>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/seo.h"
#include "tax/twig_join.h"

namespace toss::core {

/// Memoizing tax::SimilarOracle over Seo::Similar. Per distinct term, the
/// ontology lookup, lowercase form, and similarity signature are computed
/// once and shared across every pair comparison (and worker thread). The
/// verdict reproduces Seo::Similar exactly:
///   raw equality -> enhanced-isa co-membership when BOTH terms are in the
///   ontology (no fallthrough) -> measure fallback
///   d(lower(x), lower(y)) <= epsilon.
/// The signature prefilter only skips BoundedDistance calls whose result
/// provably exceeds epsilon (SignatureLowerBound never exceeds the true
/// distance, and BoundedDistance is contractually > bound there), so it
/// cannot change the verdict. The memo holds one entry per distinct term
/// ever compared; the SEO must outlive the oracle.
class SeoSimilarOracle final : public tax::SimilarOracle {
 public:
  explicit SeoSimilarOracle(const Seo* seo);

  bool Similar(const std::string& x, const std::string& y) const override;

  /// Id-keyed variant: equal valid ids short-circuit, and the per-term
  /// memo is probed by SymbolId (u32 hash) instead of hashing the text.
  /// Terms without a known id are interned on first sight, so later pairs
  /// hit the id-keyed memo too.
  bool SimilarSym(SymbolId sx, const std::string& x, SymbolId sy,
                  const std::string& y) const override;

  /// Bucket contract for tax::TwigValueFilter: a term's buckets are its
  /// enhanced-isa node ids. Two in-ontology terms are Similar iff they
  /// share a node (Seo::Similar's definition, no fallthrough); a term
  /// outside the ontology has no buckets and is "free" -- every pair
  /// involving it is decided by the measure fallback (FreePairs).
  std::vector<uint64_t> CompatBuckets(const std::string& term) const override;

  /// The closure kernel. Every pair FreePairs must decide involves a free
  /// term, so its verdict is the measure fallback alone. Each term's memo
  /// entry is resolved once; then, when every term has a signature, the
  /// terms are sorted by signature length and only pairs within
  /// |length difference| <= epsilon are examined (SignatureLowerBound is
  /// at least the length difference, see sim::StringMeasure); otherwise
  /// every needed pair is. No locks or hashing in the pair loop. Rows of
  /// the sweep fan out over the scheduler (at most `max_width` threads).
  tax::PairVerdicts FreePairs(const tax::PairUniverse& universe,
                              size_t max_width) const override;

 private:
  struct Prepared {
    std::vector<ontology::HNodeId> nodes;  // sorted ascending
    std::string lowered;
    sim::StringSignature sig;
    bool has_sig = false;
  };

  bool SimilarPrepared(const Prepared& px, const Prepared& py) const;
  /// The measure fallback of SimilarPrepared (terms not both bucketed).
  bool MeasureSimilar(const Prepared& px, const Prepared& py) const;
  Prepared* Materialize(const std::string& term) const;
  const Prepared& Prep(const std::string& term) const;
  /// Prep keyed by interned id. An unknown id is resolved by interning the
  /// term (its id is then stable for the rest of the process); dictionary
  /// overflow degrades to the string-keyed memo.
  const Prepared& PrepSym(SymbolId sym, const std::string& term) const;

  const Seo* seo_;
  const double epsilon_;
  const bool has_measure_;
  bool signatures_ = false;
  mutable std::shared_mutex mu_;
  mutable std::unordered_map<std::string, Prepared*> cache_;
  mutable std::unordered_map<SymbolId, Prepared*> sym_cache_;
  mutable std::deque<std::unique_ptr<Prepared>> store_;  // pointer stability
};

}  // namespace toss::core

#endif  // TOSS_CORE_SEO_ORACLE_H_
