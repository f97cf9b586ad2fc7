#include "core/seo_oracle.h"

#include <algorithm>

#include "common/scheduler.h"
#include "common/string_util.h"

namespace toss::core {

SeoSimilarOracle::SeoSimilarOracle(const Seo* seo)
    : seo_(seo), epsilon_(seo->epsilon()), has_measure_(seo->has_measure()) {
  if (has_measure_) {
    sim::StringSignature probe;
    signatures_ = seo_->measure().ComputeSignature("", &probe);
  }
}

bool SeoSimilarOracle::Similar(const std::string& x,
                               const std::string& y) const {
  if (x == y) return true;
  return SimilarPrepared(Prep(x), Prep(y));
}

bool SeoSimilarOracle::SimilarSym(SymbolId sx, const std::string& x,
                                  SymbolId sy, const std::string& y) const {
  if (sx != kInvalidSymbol && sx == sy) return true;
  if (x == y) return true;
  return SimilarPrepared(PrepSym(sx, x), PrepSym(sy, y));
}

std::vector<uint64_t> SeoSimilarOracle::CompatBuckets(
    const std::string& term) const {
  const Prepared& p = Prep(term);
  std::vector<uint64_t> out;
  out.reserve(p.nodes.size());
  for (ontology::HNodeId id : p.nodes) {
    out.push_back(static_cast<uint64_t>(id));
  }
  return out;
}

tax::PairVerdicts SeoSimilarOracle::FreePairs(
    const tax::PairUniverse& universe, size_t max_width) const {
  tax::PairVerdicts out;
  // Every pair to decide has distinct texts and a free term, so only the
  // measure can make it similar.
  if (!has_measure_) return out;
  struct Term {
    uint32_t index;
    uint32_t length;  ///< signature length (sorted sweep only)
    const Prepared* prep;
  };
  constexpr uint8_t kSlots =
      tax::PairUniverse::kLhs | tax::PairUniverse::kRhs;
  std::vector<Term> terms;
  bool all_sigs = true;
  for (uint32_t i = 0; i < universe.size(); ++i) {
    if ((universe.roles[i] & kSlots) == 0) continue;
    const Prepared& p = PrepSym(universe.ids[i], universe.texts[i]);
    all_sigs = all_sigs && p.has_sig;
    terms.push_back(Term{i, p.sig.length, &p});
  }
  // Length sweep: SignatureLowerBound >= |length difference|, so a pair
  // farther apart than epsilon is dissimilar without being examined.
  if (all_sigs) {
    std::sort(terms.begin(), terms.end(), [](const Term& a, const Term& b) {
      return a.length < b.length;
    });
  }
  // Row p pairs terms[p] with every later term (up to the length window);
  // rows are independent, so they fan out and concatenate in row order.
  struct Row {
    std::vector<std::pair<uint32_t, uint32_t>> similar;
    uint64_t checked = 0;
  };
  std::vector<Row> rows(terms.size());
  (void)Scheduler::Global().ParallelFor(
      terms.size(),
      [&](size_t p) {
        Row& row = rows[p];
        const Term& a = terms[p];
        for (size_t q = p + 1; q < terms.size(); ++q) {
          const Term& b = terms[q];
          if (all_sigs &&
              static_cast<double>(b.length - a.length) > epsilon_) {
            break;
          }
          if (!universe.NeedsVerdict(a.index, b.index)) continue;
          ++row.checked;
          if (MeasureSimilar(*a.prep, *b.prep)) {
            row.similar.emplace_back(a.index, b.index);
          }
        }
        return Status::OK();
      },
      max_width, &out.workers);
  for (Row& row : rows) {
    out.checked += row.checked;
    out.similar.insert(out.similar.end(), row.similar.begin(),
                       row.similar.end());
  }
  return out;
}

bool SeoSimilarOracle::SimilarPrepared(const Prepared& px,
                                       const Prepared& py) const {
  if (!px.nodes.empty() && !py.nodes.empty()) {
    // Both terms are in the ontology: similar iff some enhanced-isa node
    // contains both (sorted-vector intersection).
    auto a = px.nodes.begin();
    auto b = py.nodes.begin();
    while (a != px.nodes.end() && b != py.nodes.end()) {
      if (*a == *b) return true;
      if (*a < *b) {
        ++a;
      } else {
        ++b;
      }
    }
    return false;
  }
  return MeasureSimilar(px, py);
}

bool SeoSimilarOracle::MeasureSimilar(const Prepared& px,
                                      const Prepared& py) const {
  if (!has_measure_) return false;
  if (px.has_sig && py.has_sig &&
      seo_->measure().SignatureLowerBound(px.sig, py.sig) > epsilon_) {
    return false;
  }
  return seo_->measure().BoundedDistance(px.lowered, py.lowered, epsilon_) <=
         epsilon_;
}

SeoSimilarOracle::Prepared* SeoSimilarOracle::Materialize(
    const std::string& term) const {
  store_.push_back(std::make_unique<Prepared>());
  Prepared* p = store_.back().get();
  p->nodes = seo_->SimilarityNodes(term);
  std::sort(p->nodes.begin(), p->nodes.end());
  p->lowered = ToLower(term);
  if (signatures_) {
    p->has_sig = seo_->measure().ComputeSignature(p->lowered, &p->sig);
  }
  return p;
}

const SeoSimilarOracle::Prepared& SeoSimilarOracle::Prep(
    const std::string& term) const {
  {
    std::shared_lock<std::shared_mutex> read(mu_);
    auto it = cache_.find(term);
    if (it != cache_.end()) return *it->second;
  }
  std::unique_lock<std::shared_mutex> write(mu_);
  Prepared*& slot = cache_[term];
  if (slot == nullptr) slot = Materialize(term);
  return *slot;
}

const SeoSimilarOracle::Prepared& SeoSimilarOracle::PrepSym(
    SymbolId sym, const std::string& term) const {
  if (sym == kInvalidSymbol) {
    sym = Interner::Global().Intern(term);
    if (sym == kInvalidSymbol) return Prep(term);
  }
  {
    std::shared_lock<std::shared_mutex> read(mu_);
    auto it = sym_cache_.find(sym);
    if (it != sym_cache_.end()) return *it->second;
  }
  std::unique_lock<std::shared_mutex> write(mu_);
  Prepared*& slot = sym_cache_[sym];
  if (slot == nullptr) slot = Materialize(term);
  return *slot;
}

}  // namespace toss::core
