#include "reference_eval.h"

#include <set>
#include <utility>

namespace toss::reference {

namespace {

/// Every live document of `collection`, in DocId order, as a plain tree:
/// no tag index, no SymbolIds.
Result<tax::TreeCollection> PlainTrees(const store::Database& db,
                                       const std::string& collection) {
  TOSS_ASSIGN_OR_RETURN(const store::Collection* coll,
                        db.GetCollection(collection));
  tax::TreeCollection out;
  for (store::DocId id : coll->AllDocs()) {
    const xml::XmlDocument& doc = coll->document(id);
    const tax::DataTree decoded = tax::DataTree::FromXml(doc, doc.root());
    tax::DataTree plain;
    plain.CopySubtree(decoded, decoded.root(), tax::kInvalidNode);
    out.push_back(std::move(plain));
  }
  return out;
}

}  // namespace

Result<tax::TreeCollection> ReferenceEvaluator::Select(
    const std::string& collection, const tax::PatternTree& pattern,
    const std::vector<int>& sl) const {
  TOSS_ASSIGN_OR_RETURN(tax::TreeCollection trees,
                        PlainTrees(*db_, collection));
  const std::set<int> expand(sl.begin(), sl.end());
  std::vector<tax::TreeCollection> parts;
  for (const tax::DataTree& tree : trees) {
    TOSS_ASSIGN_OR_RETURN(parts.emplace_back(),
                          tax::SelectTree(tree, pattern, expand, *semantics_));
  }
  return tax::MergeDedup(std::move(parts));
}

Result<tax::TreeCollection> ReferenceEvaluator::Project(
    const std::string& collection, const tax::PatternTree& pattern,
    const std::vector<tax::ProjectItem>& pl) const {
  TOSS_ASSIGN_OR_RETURN(tax::TreeCollection trees,
                        PlainTrees(*db_, collection));
  std::vector<tax::TreeCollection> parts;
  for (const tax::DataTree& tree : trees) {
    TOSS_ASSIGN_OR_RETURN(parts.emplace_back(),
                          tax::ProjectTree(tree, pattern, pl, *semantics_));
  }
  return tax::MergeDedup(std::move(parts));
}

Result<tax::TreeCollection> ReferenceEvaluator::GroupBy(
    const std::string& collection, const tax::PatternTree& pattern,
    int group_label, const std::vector<int>& sl) const {
  TOSS_ASSIGN_OR_RETURN(tax::TreeCollection trees,
                        PlainTrees(*db_, collection));
  if (pattern.IndexOfLabel(group_label) < 0) {
    return Status::InvalidArgument("GroupBy: label $" +
                                   std::to_string(group_label) +
                                   " is not a pattern node");
  }
  const std::set<int> expand(sl.begin(), sl.end());
  std::vector<std::vector<tax::GroupedWitness>> parts;
  for (const tax::DataTree& tree : trees) {
    TOSS_ASSIGN_OR_RETURN(
        parts.emplace_back(),
        tax::GroupByTree(tree, pattern, group_label, expand, *semantics_));
  }
  return tax::AssembleGroups(std::move(parts));
}

Result<tax::TreeCollection> ReferenceEvaluator::Join(
    const std::string& left, const std::string& right,
    const tax::PatternTree& pattern, const std::vector<int>& sl) const {
  TOSS_ASSIGN_OR_RETURN(tax::TreeCollection ltrees, PlainTrees(*db_, left));
  TOSS_ASSIGN_OR_RETURN(tax::TreeCollection rtrees, PlainTrees(*db_, right));
  // tax::Product builds each pair tree with CreateRoot / CopySubtree only,
  // so the product trees carry no tag index either.
  return tax::Select(tax::Product(ltrees, rtrees), pattern, sl, *semantics_);
}

std::vector<std::string> Keys(const tax::TreeCollection& trees) {
  std::vector<std::string> out;
  out.reserve(trees.size());
  for (const tax::DataTree& t : trees) out.push_back(t.CanonicalKey());
  return out;
}

}  // namespace toss::reference
