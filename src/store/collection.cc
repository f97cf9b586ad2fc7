#include "store/collection.h"

#include <algorithm>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "store/key_encoding.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace toss::store {

namespace {

/// Process-wide mirrors of the per-collection cache/query counters. Unlike
/// the per-Collection stats, these are cumulative across Database::Reload
/// (which rebuilds the collections, and with them the local counters).
struct StoreMetrics {
  obs::Counter& cache_hits =
      obs::Metrics().GetCounter("store.tree_cache.hits");
  obs::Counter& cache_misses =
      obs::Metrics().GetCounter("store.tree_cache.misses");
  obs::Counter& queries = obs::Metrics().GetCounter("store.query.count");
  obs::Counter& docs_scanned =
      obs::Metrics().GetCounter("store.query.docs_scanned");
  obs::Counter& index_pruned =
      obs::Metrics().GetCounter("store.query.index_pruned");
};

StoreMetrics& Instruments() {
  static StoreMetrics* m = new StoreMetrics();
  return *m;
}

/// The value indexes hold exactly the non-empty element contents of at most
/// 256 bytes; a planner hint on any other value has no posting to consult.
bool ValueIndexable(std::string_view value) {
  return !value.empty() && value.size() <= 256;
}

}  // namespace

// Moves transfer the counters and zero the source: a moved-from collection
// no longer backs the cache whose activity they measured, so letting it keep
// reporting the old numbers is the stale-stats gap the registry mirror
// closes for good.
Collection::Collection(Collection&& other) noexcept
    : name_(std::move(other.name_)),
      docs_(std::move(other.docs_)),
      by_key_(std::move(other.by_key_)),
      tag_index_(std::move(other.tag_index_)),
      unindexed_tag_docs_(std::move(other.unindexed_tag_docs_)),
      term_index_(std::move(other.term_index_)),
      unindexed_value_docs_(std::move(other.unindexed_value_docs_)),
      value_index_(std::move(other.value_index_)),
      numeric_index_(std::move(other.numeric_index_)),
      tree_lru_(std::move(other.tree_lru_)),
      tree_cache_(std::move(other.tree_cache_)),
      tree_cache_hits_(other.tree_cache_hits_),
      tree_cache_misses_(other.tree_cache_misses_),
      tree_cache_capacity_(other.tree_cache_capacity_) {
  other.tree_cache_hits_ = 0;
  other.tree_cache_misses_ = 0;
}

Collection& Collection::operator=(Collection&& other) noexcept {
  if (this == &other) return *this;
  name_ = std::move(other.name_);
  docs_ = std::move(other.docs_);
  by_key_ = std::move(other.by_key_);
  tag_index_ = std::move(other.tag_index_);
  unindexed_tag_docs_ = std::move(other.unindexed_tag_docs_);
  term_index_ = std::move(other.term_index_);
  unindexed_value_docs_ = std::move(other.unindexed_value_docs_);
  value_index_ = std::move(other.value_index_);
  numeric_index_ = std::move(other.numeric_index_);
  tree_lru_ = std::move(other.tree_lru_);
  tree_cache_ = std::move(other.tree_cache_);
  tree_cache_hits_ = other.tree_cache_hits_;
  tree_cache_misses_ = other.tree_cache_misses_;
  tree_cache_capacity_ = other.tree_cache_capacity_;
  other.tree_cache_hits_ = 0;
  other.tree_cache_misses_ = 0;
  return *this;
}

Result<DocId> Collection::Insert(std::string key, xml::XmlDocument doc) {
  if (doc.empty()) {
    return Status::InvalidArgument("Insert: empty document");
  }
  if (by_key_.count(key)) {
    return Status::AlreadyExists("document key '" + key +
                                 "' already present in collection '" +
                                 name_ + "'");
  }
  DocId id = static_cast<DocId>(docs_.size());
  docs_.push_back({key, std::move(doc), true});
  docs_[id].serialized_bytes = xml::Write(docs_[id].doc).size();
  by_key_[std::move(key)] = id;
  IndexDocument(id);
  return id;
}

Result<DocId> Collection::InsertXml(std::string key, std::string_view text) {
  TOSS_ASSIGN_OR_RETURN(xml::XmlDocument doc, xml::Parse(text));
  return Insert(std::move(key), std::move(doc));
}

Status Collection::Remove(const std::string& key) {
  auto it = by_key_.find(key);
  if (it == by_key_.end()) {
    return Status::NotFound("no document with key '" + key + "'");
  }
  DocId id = it->second;
  UnindexDocument(id);
  docs_[id].live = false;
  InvalidateCachedTree(id);
  by_key_.erase(it);
  return Status::OK();
}

Result<DocId> Collection::Replace(const std::string& key,
                                  xml::XmlDocument doc) {
  if (doc.empty()) {
    return Status::InvalidArgument("Replace: empty document");
  }
  auto it = by_key_.find(key);
  if (it == by_key_.end()) {
    return Status::NotFound("no document with key '" + key + "'");
  }
  DocId old = it->second;
  UnindexDocument(old);
  docs_[old].live = false;
  InvalidateCachedTree(old);
  DocId id = static_cast<DocId>(docs_.size());
  docs_.push_back({key, std::move(doc), true});
  docs_[id].serialized_bytes = xml::Write(docs_[id].doc).size();
  it->second = id;
  IndexDocument(id);
  return id;
}

Result<DocId> Collection::FindKey(const std::string& key) const {
  auto it = by_key_.find(key);
  if (it == by_key_.end()) {
    return Status::NotFound("no document with key '" + key + "'");
  }
  return it->second;
}

std::vector<DocId> Collection::AllDocs() const {
  std::vector<DocId> out;
  for (DocId id = 0; id < docs_.size(); ++id) {
    if (docs_[id].live) out.push_back(id);
  }
  return out;
}

void Collection::IndexDocument(DocId id) {
  Entry& entry = docs_[id];
  const xml::XmlDocument& doc = entry.doc;
  std::vector<xml::NodeId> elements{doc.root()};
  auto descendants = doc.ElementDescendants(doc.root());
  elements.insert(elements.end(), descendants.begin(), descendants.end());
  for (xml::NodeId nid : elements) {
    const auto& n = doc.node(nid);
    // Tags join the process dictionary here; the tag index is id-keyed.
    // Dictionary overflow (2^26 terms) degrades to the conservative
    // unindexed set instead of corrupting a shared kInvalidSymbol bucket.
    SymbolId tag_sym = Interner::Global().Intern(n.tag);
    if (tag_sym != kInvalidSymbol) {
      tag_index_[tag_sym].insert(id);
    } else {
      unindexed_tag_docs_.insert(id);
    }
    // Value indexes: the element's text content (leaf-style values).
    std::string content = doc.TextContent(nid);
    if (ValueIndexable(content)) {
      std::string vkey = ValueKey(n.tag, content);
      value_index_.Insert(vkey, id);
      entry.value_keys.push_back(std::move(vkey));
      if (auto nkey = NumericKey(n.tag, content); nkey.has_value()) {
        numeric_index_.Insert(*nkey, id);
        entry.numeric_keys.push_back(std::move(*nkey));
      }
    } else {
      unindexed_value_docs_[n.tag].insert(id);
    }
    for (const auto& tok : TokenizeWords(content)) {
      term_index_[tok].insert(id);
    }
  }
}

void Collection::UnindexDocument(DocId id) {
  // Tag/term postings are erased by sweep (removal is rare); the ordered
  // indexes use the per-document key log recorded at index time.
  for (auto& [tag, postings] : tag_index_) postings.erase(id);
  unindexed_tag_docs_.erase(id);
  for (auto& [term, postings] : term_index_) postings.erase(id);
  for (auto& [tag, docs] : unindexed_value_docs_) docs.erase(id);
  Entry& entry = docs_[id];
  for (const auto& key : entry.value_keys) {
    (void)value_index_.Remove(key, id);
  }
  for (const auto& key : entry.numeric_keys) {
    (void)numeric_index_.Remove(key, id);
  }
  entry.value_keys.clear();
  entry.numeric_keys.clear();
}

Result<std::vector<DocId>> Collection::DocsWithValueInRange(
    std::string_view tag, const std::optional<std::string>& lo,
    const std::optional<std::string>& hi) const {
  bool numeric = true;
  long long scratch;
  for (const auto* bound : {&lo, &hi}) {
    if (!bound->has_value()) continue;
    if (!ParseInt(**bound, &scratch)) {
      numeric = false;
      double d;
      if (ParseDouble(**bound, &d)) {
        return Status::Unsupported(
            "range scans over non-integer numeric bounds");
      }
    }
  }
  std::vector<DocId> out;
  auto collect = [&](const std::string&, const std::vector<DocId>& p) {
    out.insert(out.end(), p.begin(), p.end());
    return true;
  };
  if (numeric) {
    // Only integer-valued contents can satisfy an integer-bounded ordering
    // (CompareScalar treats mixed representations as incomparable), so the
    // numeric index is complete for this query.
    std::string scan_lo =
        lo.has_value() ? *NumericKey(tag, *lo) : ValueKey(tag, "");
    if (hi.has_value()) {
      numeric_index_.RangeScan(scan_lo, *NumericKey(tag, *hi), collect);
    } else {
      numeric_index_.RangeScanExclusiveHi(scan_lo, TagPrefixEnd(tag),
                                          collect);
    }
  } else {
    std::string scan_lo = ValueKey(tag, lo.value_or(""));
    if (hi.has_value()) {
      value_index_.RangeScan(scan_lo, ValueKey(tag, *hi), collect);
    } else {
      value_index_.RangeScanExclusiveHi(scan_lo, TagPrefixEnd(tag),
                                        collect);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<DocId> Collection::DocsWithAnyTag(
    const std::set<std::string>& tags) const {
  // Tag postings hold live docs only (UnindexDocument sweeps them), so the
  // union needs no liveness re-check. A tag absent from the dictionary is
  // in no indexed document.
  std::set<DocId> docs(unindexed_tag_docs_.begin(),
                       unindexed_tag_docs_.end());
  Interner& interner = Interner::Global();
  for (const std::string& tag : tags) {
    auto sym = interner.Find(tag);
    if (!sym.has_value()) continue;
    auto it = tag_index_.find(*sym);
    if (it != tag_index_.end()) {
      docs.insert(it->second.begin(), it->second.end());
    }
  }
  return {docs.begin(), docs.end()};
}

std::vector<DocId> Collection::DocsWithAnyTagIds(
    const std::vector<SymbolId>& tags) const {
  std::set<DocId> docs(unindexed_tag_docs_.begin(),
                       unindexed_tag_docs_.end());
  for (SymbolId tag : tags) {
    auto it = tag_index_.find(tag);
    if (it != tag_index_.end()) {
      docs.insert(it->second.begin(), it->second.end());
    }
  }
  return {docs.begin(), docs.end()};
}

std::vector<DocId> Collection::DocsWithWildcardTag() const {
  std::set<DocId> docs(unindexed_tag_docs_.begin(),
                       unindexed_tag_docs_.end());
  Interner& interner = Interner::Global();
  for (const auto& [tag, postings] : tag_index_) {
    if (interner.HasStar(tag)) {
      docs.insert(postings.begin(), postings.end());
    }
  }
  return {docs.begin(), docs.end()};
}

std::vector<DocId> Collection::PlanCandidates(const xml::PlanHints& hints,
                                              bool* pruned) const {
  *pruned = false;
  // Materialize a sorted doc-id list per usable hint; missing posting = no
  // possible match. Intersection starts from the smallest list.
  std::vector<std::vector<DocId>> postings;
  for (const auto& tag : hints.required_tags) {
    // Id-keyed index: unknown tag = empty posting. Docs whose tags could
    // not be interned are unclassifiable and must stay candidates.
    std::vector<DocId> p(unindexed_tag_docs_.begin(),
                         unindexed_tag_docs_.end());
    if (auto sym = Interner::Global().Find(tag)) {
      auto it = tag_index_.find(*sym);
      if (it != tag_index_.end()) {
        p.insert(p.end(), it->second.begin(), it->second.end());
        std::sort(p.begin(), p.end());
        p.erase(std::unique(p.begin(), p.end()), p.end());
      }
    }
    postings.emplace_back(std::move(p));
  }
  for (const auto& [tag, value] : hints.required_values) {
    // Unindexed values have no posting (see ValueIndexable); skip them
    // (the tag hint still applies).
    if (!ValueIndexable(value)) continue;
    const std::vector<DocId>* p = value_index_.Get(ValueKey(tag, value));
    postings.emplace_back(p == nullptr ? std::vector<DocId>{} : *p);
  }
  for (const auto& term : hints.required_terms) {
    auto it = term_index_.find(term);
    postings.emplace_back(it == term_index_.end()
                              ? std::vector<DocId>{}
                              : std::vector<DocId>(it->second.begin(),
                                                   it->second.end()));
  }
  // Disjunctive groups: union the value postings per group, then intersect
  // the unions like ordinary postings. Keeps SEO-expanded TOSS queries as
  // index-prunable as exact-match TAX queries.
  for (const auto& group : hints.value_groups) {
    std::vector<DocId> merged;
    bool usable = true;
    for (const auto& value : group.values) {
      if (!ValueIndexable(value)) {
        usable = false;  // unindexed value: cannot prune soundly
        break;
      }
      const std::vector<DocId>* p =
          value_index_.Get(ValueKey(group.tag, value));
      if (p != nullptr) merged.insert(merged.end(), p->begin(), p->end());
    }
    if (!usable) continue;
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    postings.push_back(std::move(merged));
  }
  // Range hints: scan the ordered indexes. Unsupported bound shapes
  // (non-integer numerics) simply do not prune.
  for (const auto& range : hints.ranges) {
    auto docs = DocsWithValueInRange(range.tag, range.lo, range.hi);
    if (!docs.ok()) continue;
    // Contents the value indexes skip may still lie in the range.
    auto unindexed = unindexed_value_docs_.find(range.tag);
    if (unindexed != unindexed_value_docs_.end()) {
      docs->insert(docs->end(), unindexed->second.begin(),
                   unindexed->second.end());
      std::sort(docs->begin(), docs->end());
      docs->erase(std::unique(docs->begin(), docs->end()), docs->end());
    }
    postings.push_back(std::move(docs).value());
  }
  if (postings.empty()) return AllDocs();
  *pruned = true;
  std::sort(postings.begin(), postings.end(),
            [](const auto& a, const auto& b) { return a.size() < b.size(); });
  std::vector<DocId> result = std::move(postings[0]);
  for (size_t i = 1; i < postings.size() && !result.empty(); ++i) {
    std::vector<DocId> next;
    next.reserve(result.size());
    std::set_intersection(result.begin(), result.end(),
                          postings[i].begin(), postings[i].end(),
                          std::back_inserter(next));
    result = std::move(next);
  }
  // Deleted docs keep stale ids out via the live check in Query.
  return result;
}

std::vector<Match> Collection::Query(const xml::XPath& xpath,
                                     bool use_indexes,
                                     QueryStats* stats) const {
  std::vector<DocId> candidates;
  bool pruned = false;
  if (use_indexes) {
    candidates = PlanCandidates(xpath.Hints(), &pruned);
  } else {
    candidates = AllDocs();
  }
  std::vector<Match> out;
  size_t scanned = 0;
  for (DocId id : candidates) {
    if (id >= docs_.size() || !docs_[id].live) continue;
    ++scanned;
    for (xml::NodeId nid : xpath.Evaluate(docs_[id].doc)) {
      out.push_back({id, nid});
    }
  }
  StoreMetrics& m = Instruments();
  m.queries.Increment();
  m.docs_scanned.Add(scanned);
  if (use_indexes && pruned) m.index_pruned.Increment();
  if (stats != nullptr) {
    stats->candidate_docs = candidates.size();
    stats->scanned_docs = scanned;
    stats->total_docs = by_key_.size();
    stats->used_indexes = use_indexes && pruned;
  }
  return out;
}

Result<std::vector<Match>> Collection::QueryText(std::string_view xpath,
                                                 bool use_indexes,
                                                 QueryStats* stats) const {
  TOSS_ASSIGN_OR_RETURN(xml::XPath compiled, xml::XPath::Compile(xpath));
  return Query(compiled, use_indexes, stats);
}

Collection::Stats Collection::GetStats() const {
  Stats stats;
  stats.live_docs = by_key_.size();
  stats.tag_index_entries = tag_index_.size();
  stats.term_index_entries = term_index_.size();
  stats.value_index_keys = value_index_.key_count();
  stats.numeric_index_keys = numeric_index_.key_count();
  stats.approx_bytes = ApproxByteSize();
  return stats;
}

size_t Collection::ApproxByteSize() const {
  size_t total = 0;
  for (const auto& e : docs_) {
    if (e.live) total += e.serialized_bytes;
  }
  return total;
}

std::shared_ptr<const tax::DataTree> Collection::DecodedTree(DocId id) const {
  StoreMetrics& m = Instruments();
  {
    std::lock_guard<std::mutex> lock(tree_cache_mu_);
    auto it = tree_cache_.find(id);
    if (it != tree_cache_.end()) {
      ++tree_cache_hits_;
      m.cache_hits.Increment();
      tree_lru_.splice(tree_lru_.begin(), tree_lru_, it->second.lru_it);
      return it->second.tree;
    }
    ++tree_cache_misses_;
    m.cache_misses.Increment();
  }
  // Decode outside the lock: FromXml dominates the cost, and documents are
  // immutable per DocId, so racing decoders build identical trees and the
  // first one into the map wins.
  auto tree = std::make_shared<const tax::DataTree>(
      tax::DataTree::FromXml(docs_[id].doc, docs_[id].doc.root()));
  std::lock_guard<std::mutex> lock(tree_cache_mu_);
  auto it = tree_cache_.find(id);
  if (it != tree_cache_.end()) {
    tree_lru_.splice(tree_lru_.begin(), tree_lru_, it->second.lru_it);
    return it->second.tree;
  }
  tree_lru_.push_front(id);
  tree_cache_.emplace(id, TreeCacheEntry{tree, tree_lru_.begin()});
  while (tree_cache_.size() > tree_cache_capacity_) {
    tree_cache_.erase(tree_lru_.back());
    tree_lru_.pop_back();
  }
  return tree;
}

void Collection::SetTreeCacheCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(tree_cache_mu_);
  tree_cache_capacity_ = std::max<size_t>(1, capacity);
  while (tree_cache_.size() > tree_cache_capacity_) {
    tree_cache_.erase(tree_lru_.back());
    tree_lru_.pop_back();
  }
}

Collection::TreeCacheStats Collection::GetTreeCacheStats() const {
  std::lock_guard<std::mutex> lock(tree_cache_mu_);
  TreeCacheStats stats;
  stats.hits = tree_cache_hits_;
  stats.misses = tree_cache_misses_;
  stats.entries = tree_cache_.size();
  stats.capacity = tree_cache_capacity_;
  return stats;
}

void Collection::ResetTreeCacheStats() {
  std::lock_guard<std::mutex> lock(tree_cache_mu_);
  tree_cache_hits_ = 0;
  tree_cache_misses_ = 0;
}

void Collection::InvalidateCachedTree(DocId id) {
  std::lock_guard<std::mutex> lock(tree_cache_mu_);
  auto it = tree_cache_.find(id);
  if (it == tree_cache_.end()) return;
  tree_lru_.erase(it->second.lru_it);
  tree_cache_.erase(it);
}

}  // namespace toss::store
