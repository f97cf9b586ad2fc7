// A reference evaluator for the query executor: the TAX/TOSS operators
// computed straight from the algebra's definitions (PAPER.md §3-5), with
// none of the executor's accelerations. Tests compare the executor's
// answers against it.
//
//   * Every live document is evaluated (Collection::AllDocs): no phase (i)
//     rewrite, no prepared cache, no index planning in phase (ii).
//   * Documents are decoded from their stored XML, not through the
//     decoded-tree cache, and copied with CopySubtree into an empty tree.
//     Such a copy has no tag index and no SymbolIds, so tag seeding and
//     every id comparison fast path are off.
//   * Select / Project / GroupBy apply tax::SelectTree / ProjectTree /
//     GroupByTree per document. Join is Select over Product (paper
//     Example 6): every (left, right) pair becomes one unindexed product
//     tree -- no twig engine, no value filter, no document pruning.
//   * Per-document results merge with MergeDedup / AssembleGroups in
//     document order, exactly as the executor merges its parts.
//
// Conditions are judged under the semantics passed in -- the executor's
// own QueryExecutor::semantics() -- so TAX and TOSS are both covered.

#ifndef TOSS_TESTS_REFERENCE_EVAL_H_
#define TOSS_TESTS_REFERENCE_EVAL_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "store/database.h"
#include "tax/condition.h"
#include "tax/operators.h"
#include "tax/pattern_tree.h"

namespace toss::reference {

class ReferenceEvaluator {
 public:
  /// Both must outlive the evaluator.
  ReferenceEvaluator(const store::Database* db,
                     const tax::ConditionSemantics* semantics)
      : db_(db), semantics_(semantics) {}

  Result<tax::TreeCollection> Select(const std::string& collection,
                                     const tax::PatternTree& pattern,
                                     const std::vector<int>& sl) const;

  Result<tax::TreeCollection> Project(
      const std::string& collection, const tax::PatternTree& pattern,
      const std::vector<tax::ProjectItem>& pl) const;

  Result<tax::TreeCollection> GroupBy(const std::string& collection,
                                      const tax::PatternTree& pattern,
                                      int group_label,
                                      const std::vector<int>& sl) const;

  Result<tax::TreeCollection> Join(const std::string& left,
                                   const std::string& right,
                                   const tax::PatternTree& pattern,
                                   const std::vector<int>& sl) const;

 private:
  const store::Database* db_;
  const tax::ConditionSemantics* semantics_;
};

/// Canonical keys of `trees`, in order: equal vectors <=> byte-identical
/// answers in identical order.
std::vector<std::string> Keys(const tax::TreeCollection& trees);

}  // namespace toss::reference

#endif  // TOSS_TESTS_REFERENCE_EVAL_H_
