// Pattern-tree embeddings and witness trees (paper Section 2.1.1).
//
// An embedding h maps pattern nodes to data nodes preserving pc/ad edges,
// such that the image satisfies the selection condition. Each embedding
// induces a witness tree: the image nodes, connected by closest-ancestor
// edges, in source document order.
//
// Enumeration is backtracking over pattern nodes in parent-before-child
// order, with single-node atoms from conjunctive context pushed down as
// candidate filters (the classic selection-pushdown optimization; the full
// condition is still checked on every complete mapping).
//
// When the data tree carries a tag index (DataTree::BuildTagIndex; built
// automatically by FromXml) and a pattern node's conjunctive atoms pin its
// tag to a literal -- or to a disjunction of literals, the shape SEO
// expansion produces -- candidates are drawn from the index instead of
// scanning the whole tree (root nodes) and edge candidates are filtered by
// tag before any condition evaluation runs (pc/ad nodes). Candidate order
// is preserved exactly, so results are byte-identical to the naive
// enumeration, including the order of embeddings.

#ifndef TOSS_TAX_EMBEDDING_H_
#define TOSS_TAX_EMBEDDING_H_

#include <map>
#include <set>
#include <vector>

#include "common/result.h"
#include "tax/condition.h"
#include "tax/data_tree.h"
#include "tax/label_map.h"
#include "tax/pattern_tree.h"

namespace toss::tax {

/// A total mapping from pattern node labels to data nodes.
struct Embedding {
  LabelMap mapping;
};

/// Enumerates all embeddings of `pattern` into `tree` whose witness
/// satisfies the pattern's condition under `semantics`.
Result<std::vector<Embedding>> FindEmbeddings(
    const PatternTree& pattern, const DataTree& tree,
    const ConditionSemantics& semantics);

/// Builds the witness tree induced by `h`. Data subtrees of nodes
/// h(l), l in `expand_labels`, are included wholesale (selection's SL
/// semantics); pass {} for the bare witness.
DataTree BuildWitnessTree(const PatternTree& pattern, const DataTree& tree,
                          const Embedding& h,
                          const std::set<int>& expand_labels);

// --- Structural-join support -----------------------------------------------
//
// The twig-join engine (tax/twig_join.h) decomposes a join pattern into the
// root's child subtrees, enumerates each subtree's partial matches once per
// document, and merges them across the two operand collections. The pieces
// below expose the enumerator's machinery so that decomposition reproduces
// the full enumeration byte for byte: identical candidate order, identical
// prefilter pushdown, identical witness construction.

struct PartialMatchOptions {
  /// The head's edge from the (elided) product root is parent-child, so its
  /// image must be the tree root; otherwise (ancestor-descendant) the head
  /// ranges over every node in ascending id order.
  bool head_must_be_root = false;
};

/// Enumerates mappings of the `pattern` subtree rooted at node index `head`
/// into `tree`, with the full enumeration's candidate order and prefilter
/// pushdown but WITHOUT the final whole-condition check (the join engine
/// completes mappings across trees first). Each tuple holds the images of
/// the subtree's pattern nodes in ascending pattern-index order (head
/// first).
Result<std::vector<std::vector<NodeId>>> FindPartialMatches(
    const PatternTree& pattern, size_t head, const DataTree& tree,
    const ConditionSemantics& semantics, const PartialMatchOptions& options);

/// Conjunctive-context tag constraints per label: a bare tag-equality atom
/// pins a label to one tag; an Or of same-label tag equalities (the shape
/// SEO expansion yields) pins it to a set; multiple constraints intersect.
/// The enumerator's pushdown policy, shared with the join engine.
std::map<int, std::set<std::string>> CollectConjunctiveTagFilters(
    const Condition& condition);

/// Atoms in conjunctive context referencing exactly one label, grouped by
/// label (the enumerator's candidate prefilters). Pointers alias nodes of
/// `condition`.
std::map<int, std::vector<const Condition*>> CollectConjunctivePrefilters(
    const Condition& condition);

/// Appends the witness induced by `witness_nodes` under `src_id` to `out`
/// below `out_parent` (kInvalidNode = build as `out`'s root), expanding
/// `expand_nodes` subtrees wholesale. The recursive core of
/// BuildWitnessTree, exposed for witnesses spanning two source trees.
void AppendWitness(const DataTree& src, NodeId src_id,
                   const std::set<NodeId>& witness_nodes,
                   const std::set<NodeId>& expand_nodes, DataTree* out,
                   NodeId out_parent);

}  // namespace toss::tax

#endif  // TOSS_TAX_EMBEDDING_H_
